//! Ethernet II frames.

use crate::error::WireError;
use crate::mac::MacAddr;
use bytes::{BufMut, Bytes, BytesMut};

/// Length of destination + source + ethertype.
pub const ETH_HEADER_LEN: usize = 14;

/// EtherType values understood by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Numeric EtherType value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// The smallest frame payload: 64-byte frames minus the header and the
/// 4-byte FCS we do not model. Shorter payloads are zero-padded to it.
const MIN_PAYLOAD_LEN: usize = 46;

/// On-wire length of a frame carrying `payload_len` bytes, minimum-frame
/// padding included.
pub(crate) fn frame_len(payload_len: usize) -> usize {
    ETH_HEADER_LEN + payload_len.max(MIN_PAYLOAD_LEN)
}

/// The 14 header bytes: destination, source, EtherType.
pub(crate) fn header(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> [u8; ETH_HEADER_LEN] {
    let mut header = [0u8; ETH_HEADER_LEN];
    header[0..6].copy_from_slice(&dst.octets());
    header[6..12].copy_from_slice(&src.octets());
    header[12..14].copy_from_slice(&ethertype.value().to_be_bytes());
    header
}

/// An Ethernet II frame.
///
/// The frame check sequence is not modelled; link-level corruption is
/// represented in the simulator as whole-frame loss, which is also how
/// the paper's loss analysis (§4) treats it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Frame payload (an IPv4 datagram, an ARP packet, …).
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Creates a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// On-wire length, including minimum-frame padding (64-byte frames
    /// minus the 4-byte FCS we do not model, i.e. payload padded to 46).
    pub fn wire_len(&self) -> usize {
        frame_len(self.payload.len())
    }

    /// Encodes the frame (with minimum-size zero padding).
    pub fn encode(&self) -> Bytes {
        let total = self.wire_len();
        let mut buf = BytesMut::with_capacity(total);
        buf.put_slice(&header(self.dst, self.src, self.ethertype));
        buf.put_slice(&self.payload);
        buf.resize(total, 0);
        buf.freeze()
    }

    /// Decodes a frame, copying `bytes` first; for callers that do not
    /// hold the frame as [`Bytes`] (tests, capture tooling).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EthernetFrame::decode_shared`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Self::decode_shared(Bytes::copy_from_slice(bytes))
    }

    /// Decodes a frame whose bytes are already refcounted. The handle
    /// is narrowed in place to become the payload, so decoding makes no
    /// second view of the frame and copies nothing; a caller that keeps
    /// the frame passes a clone.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the buffer is shorter than
    /// the Ethernet header.
    pub fn decode_shared(mut bytes: Bytes) -> Result<Self, WireError> {
        let b: &[u8] = &bytes;
        if b.len() < ETH_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ethernet",
                needed: ETH_HEADER_LEN,
                available: b.len(),
            });
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&b[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&b[6..12]);
        let ethertype = u16::from_be_bytes([b[12], b[13]]).into();
        bytes.advance(ETH_HEADER_LEN);
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_padding() {
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            Bytes::from_static(b"hi"),
        );
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.wire_len());
        let back = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(back.dst, frame.dst);
        assert_eq!(back.src, frame.src);
        assert_eq!(back.ethertype, EtherType::Ipv4);
        // Padding appears at the end of the payload; upper layers carry
        // their own length fields (see Ipv4Packet trailing-padding test).
        assert!(back.payload.starts_with(b"hi"));
    }

    #[test]
    fn large_payload_not_padded() {
        let payload = Bytes::from(vec![7u8; 1000]);
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Arp,
            payload.clone(),
        );
        let back = EthernetFrame::decode(&frame.encode()).unwrap();
        assert_eq!(back.payload, payload);
        assert_eq!(back.ethertype, EtherType::Arp);
    }

    #[test]
    fn ethertype_round_trip() {
        for v in [0x0800u16, 0x0806, 0x88cc] {
            assert_eq!(EtherType::from(v).value(), v);
        }
    }

    #[test]
    fn truncated_rejected() {
        assert!(EthernetFrame::decode(&[0u8; 5]).is_err());
    }
}
