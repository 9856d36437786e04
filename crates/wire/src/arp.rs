//! ARP (RFC 826) for IPv4 over Ethernet.
//!
//! ARP matters to the paper twice: client/router segments reach the
//! primary because the router's ARP table maps `a_p` to P's MAC, and the
//! secondary's IP-takeover step (§5) works by broadcasting a *gratuitous
//! ARP* for `a_p` carrying S's MAC, after which "the router updates its
//! ARP table" and client traffic flows to S. The interval until that
//! update is the paper's takeover window `T`.

use crate::error::WireError;
use crate::eth::{EtherType, EthernetFrame};
use crate::mac::MacAddr;
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
}

/// An ARP packet for IPv4 over Ethernet (hardware type 1, protocol type
/// 0x0800).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation (request or reply).
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// Encoded length of an IPv4-over-Ethernet ARP packet.
pub const ARP_LEN: usize = 28;

impl ArpPacket {
    /// Builds a who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds an is-at reply to `target`.
    pub fn reply(
        sender_mac: MacAddr,
        sender_ip: Ipv4Addr,
        target_mac: MacAddr,
        target_ip: Ipv4Addr,
    ) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        }
    }

    /// Builds a gratuitous ARP announcing that `ip` is at `mac`.
    ///
    /// This is the packet the secondary broadcasts during IP takeover
    /// (§5 step 5); receivers update an existing cache entry for `ip`.
    pub fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::BROADCAST,
            target_ip: ip,
        }
    }

    /// Returns `true` if this is a gratuitous announcement (sender and
    /// target protocol addresses equal).
    pub fn is_gratuitous(&self) -> bool {
        self.sender_ip == self.target_ip
    }

    /// Encodes the packet.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ARP_LEN);
        buf.put_u16(1); // hardware type: Ethernet
        buf.put_u16(0x0800); // protocol type: IPv4
        buf.put_u8(6); // hardware size
        buf.put_u8(4); // protocol size
        buf.put_u16(match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        });
        buf.put_slice(&self.sender_mac.octets());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.octets());
        buf.put_slice(&self.target_ip.octets());
        buf.freeze()
    }

    /// Encodes the packet as the payload of an Ethernet frame from
    /// `src` to `dst`, the way a device transmits it.
    pub fn encode_framed(&self, dst: MacAddr, src: MacAddr) -> Bytes {
        EthernetFrame::new(dst, src, EtherType::Arp, self.encode()).encode()
    }

    /// Decodes a packet.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the buffer is too short or the
    /// hardware/protocol/operation fields are not IPv4-over-Ethernet.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < ARP_LEN {
            return Err(WireError::Truncated {
                layer: "arp",
                needed: ARP_LEN,
                available: bytes.len(),
            });
        }
        let htype = u16::from_be_bytes([bytes[0], bytes[1]]);
        let ptype = u16::from_be_bytes([bytes[2], bytes[3]]);
        if htype != 1 || ptype != 0x0800 || bytes[4] != 6 || bytes[5] != 4 {
            return Err(WireError::BadField {
                layer: "arp",
                field: "types",
                value: u32::from(htype) << 16 | u32::from(ptype),
            });
        }
        let op = match u16::from_be_bytes([bytes[6], bytes[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => {
                return Err(WireError::BadField {
                    layer: "arp",
                    field: "operation",
                    value: u32::from(other),
                })
            }
        };
        let mac = |off: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&bytes[off..off + 6]);
            MacAddr(m)
        };
        let ip =
            |off: usize| Ipv4Addr::new(bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]);
        Ok(ArpPacket {
            op,
            sender_mac: mac(8),
            sender_ip: ip(14),
            target_mac: mac(18),
            target_ip: ip(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let p = ArpPacket::request(
            MacAddr::from_index(3),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
        assert!(!p.is_gratuitous());
    }

    #[test]
    fn reply_round_trip() {
        let p = ArpPacket::reply(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::from_index(3),
            Ipv4Addr::new(10, 0, 0, 3),
        );
        assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn gratuitous_detected() {
        let p = ArpPacket::gratuitous(MacAddr::from_index(9), Ipv4Addr::new(10, 0, 0, 5));
        assert!(p.is_gratuitous());
        assert_eq!(p.op, ArpOp::Reply);
        let back = ArpPacket::decode(&p.encode()).unwrap();
        assert!(back.is_gratuitous());
    }

    #[test]
    fn bad_operation_rejected() {
        let mut bytes = ArpPacket::gratuitous(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED)
            .encode()
            .to_vec();
        bytes[7] = 9;
        assert!(matches!(
            ArpPacket::decode(&bytes),
            Err(WireError::BadField {
                field: "operation",
                ..
            })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(ArpPacket::decode(&[0u8; 10]).is_err());
    }
}
