//! IPv4 datagrams.
//!
//! The simulator's routers work at this layer and, as the paper notes
//! (§2), "have no knowledge of TCP" — forwarding decisions use only the
//! fields defined here.

use crate::checksum::{checksum, Checksum};
use crate::error::WireError;
use crate::eth::{self, EtherType, ETH_HEADER_LEN};
use crate::mac::MacAddr;
use bytes::{BufMut, Bytes, BytesMut};

pub use std::net::Ipv4Addr;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number used by the fault detector's heartbeat datagrams
/// (an experimental value; the paper only requires *a* fault detector).
pub const PROTO_HEARTBEAT: u8 = 253;

/// Length in bytes of the option-less IPv4 header emitted by this crate.
pub const IPV4_HEADER_LEN: usize = 20;

/// Default initial time-to-live.
pub const DEFAULT_TTL: u8 = 64;

/// An IPv4 datagram (no IP options; `IHL == 5`).
///
/// # Example
///
/// ```
/// use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet, PROTO_TCP};
/// use bytes::Bytes;
///
/// let pkt = Ipv4Packet::new(
///     Ipv4Addr::new(10, 0, 0, 1),
///     Ipv4Addr::new(10, 0, 1, 2),
///     PROTO_TCP,
///     Bytes::from_static(b"payload"),
/// );
/// let bytes = pkt.encode();
/// let back = Ipv4Packet::decode(&bytes)?;
/// assert_eq!(back.dst, Ipv4Addr::new(10, 0, 1, 2));
/// assert_eq!(&back.payload[..], b"payload");
/// # Ok::<(), tcpfo_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol number of the payload (e.g. [`PROTO_TCP`]).
    pub protocol: u8,
    /// Remaining hop count; decremented by routers.
    pub ttl: u8,
    /// Datagram identification (used only for tracing here; the
    /// simulator never fragments).
    pub identification: u16,
    /// Transport payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Creates a datagram with [`DEFAULT_TTL`] and identification 0.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: DEFAULT_TTL,
            identification: 0,
            payload,
        }
    }

    /// Total on-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// The 20 header bytes, checksum computed.
    fn header(&self) -> [u8; IPV4_HEADER_LEN] {
        let total = self.wire_len();
        debug_assert!(total <= u16::MAX as usize, "datagram too large");
        let mut header = [0u8; IPV4_HEADER_LEN];
        header[0] = 0x45; // version 4, IHL 5; DSCP/ECN stay 0
        header[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        header[4..6].copy_from_slice(&self.identification.to_be_bytes());
        header[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // flags: don't fragment
        header[8] = self.ttl;
        header[9] = self.protocol;
        header[12..16].copy_from_slice(&self.src.octets());
        header[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum(&header);
        header[10..12].copy_from_slice(&ck.to_be_bytes());
        header
    }

    /// Encodes the datagram, computing the header checksum.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_slice(&self.header());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Encodes the datagram inside its Ethernet II frame, as one buffer
    /// written once: byte for byte
    /// `EthernetFrame::new(dst, src, EtherType::Ipv4, self.encode()).encode()`
    /// (the layered encoders copy the payload twice, into two buffers).
    /// What a device transmitting a datagram calls.
    pub fn encode_framed(&self, dst: MacAddr, src: MacAddr) -> Bytes {
        let mut header = [0u8; ETH_HEADER_LEN + IPV4_HEADER_LEN];
        header[..ETH_HEADER_LEN].copy_from_slice(&eth::header(dst, src, EtherType::Ipv4));
        header[ETH_HEADER_LEN..].copy_from_slice(&self.header());
        let total = eth::frame_len(self.wire_len());
        let mut buf = BytesMut::with_capacity(total);
        buf.put_slice(&header);
        buf.put_slice(&self.payload);
        buf.resize(total, 0);
        buf.freeze()
    }

    /// Decodes a datagram, copying `bytes` first; for callers that do
    /// not hold the datagram as [`Bytes`] (tests, capture tooling).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ipv4Packet::decode_shared`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Self::decode_shared(Bytes::copy_from_slice(bytes))
    }

    /// Decodes a datagram whose bytes are already refcounted,
    /// validating version, lengths and the header checksum. The handle
    /// is narrowed in place to become the payload, cut at the header's
    /// total length; a caller that keeps the datagram passes a clone.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the buffer is truncated, the version or
    /// IHL is unsupported, the total length is inconsistent, or the
    /// header checksum does not verify.
    pub fn decode_shared(mut bytes: Bytes) -> Result<Self, WireError> {
        let b: &[u8] = &bytes;
        if b.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                available: b.len(),
            });
        }
        let version = b[0] >> 4;
        if version != 4 {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "version",
                value: u32::from(version),
            });
        }
        let ihl = usize::from(b[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "ihl",
                value: (ihl / 4) as u32,
            });
        }
        let total = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if total < IPV4_HEADER_LEN || total > b.len() {
            return Err(WireError::BadLength {
                layer: "ipv4",
                what: "total_length outside datagram bounds",
            });
        }
        if checksum(&b[..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "header_checksum",
                value: u32::from(u16::from_be_bytes([b[10], b[11]])),
            });
        }
        let (src, dst) = (
            Ipv4Addr::new(b[12], b[13], b[14], b[15]),
            Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        );
        let (protocol, ttl) = (b[9], b[8]);
        let identification = u16::from_be_bytes([b[4], b[5]]);
        bytes.truncate(total);
        bytes.advance(IPV4_HEADER_LEN);
        Ok(Ipv4Packet {
            src,
            dst,
            protocol,
            ttl,
            identification,
            payload: bytes,
        })
    }
}

/// Accumulates the TCP/UDP pseudo-header into a [`Checksum`].
///
/// `transport_len` is the length of the transport header plus payload.
pub fn pseudo_header_sum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    transport_len: usize,
) -> Checksum {
    let mut c = Checksum::new();
    c.add_u32(u32::from(src));
    c.add_u32(u32::from(dst));
    c.add_u16(u16::from(protocol));
    c.add_u16(transport_len as u16);
    c
}

/// Returns `true` if `addr` is on the network `network/prefix_len`.
///
/// The secondary bridge uses this test ("based on the network ID of the
/// client endpoint's IP address", §7.1) to decide which SYN segments to
/// translate.
pub fn same_network(addr: Ipv4Addr, network: Ipv4Addr, prefix_len: u8) -> bool {
    debug_assert!(prefix_len <= 32);
    if prefix_len == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - u32::from(prefix_len));
    (u32::from(addr) & mask) == (u32::from(network) & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(10, 0, 0, 7),
            PROTO_TCP,
            Bytes::from_static(&[1, 2, 3, 4, 5]),
        )
    }

    #[test]
    fn round_trip() {
        let pkt = sample();
        let bytes = pkt.encode();
        assert_eq!(Ipv4Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn header_checksum_verifies_to_zero() {
        let bytes = sample().encode();
        assert_eq!(checksum(&bytes[..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[8] ^= 0xff; // flip the TTL without fixing the checksum
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadField {
                field: "header_checksum",
                ..
            })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Ipv4Packet::decode(&[0x45, 0, 0]),
            Err(WireError::Truncated { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn total_length_beyond_buffer_rejected() {
        let pkt = sample();
        let bytes = pkt.encode();
        // Chop off payload bytes so total_length points past the end.
        assert!(matches!(
            Ipv4Packet::decode(&bytes[..bytes.len() - 2]),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn trailing_padding_ignored() {
        // Ethernet minimum-size padding after the datagram must not leak
        // into the payload.
        let pkt = sample();
        let mut bytes = pkt.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 10]);
        assert_eq!(Ipv4Packet::decode(&bytes).unwrap().payload, pkt.payload);
    }

    #[test]
    fn same_network_prefixes() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        assert!(same_network(a, Ipv4Addr::new(10, 1, 2, 0), 24));
        assert!(!same_network(a, Ipv4Addr::new(10, 1, 3, 0), 24));
        assert!(same_network(a, Ipv4Addr::new(10, 9, 9, 9), 8));
        assert!(same_network(a, Ipv4Addr::new(200, 0, 0, 1), 0));
        assert!(!same_network(a, Ipv4Addr::new(10, 1, 2, 4), 32));
        assert!(same_network(a, Ipv4Addr::new(10, 1, 2, 3), 32));
    }
}
