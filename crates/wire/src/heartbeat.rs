//! The fault detector's heartbeat payload (IP protocol
//! [`PROTO_HEARTBEAT`]).
//!
//! The paper only requires *a* fault detector (§2); ours exchanges
//! small datagrams between the replicas, and any beat from a live peer
//! is liveness. The receiver reads nothing from the payload: it carries
//! the sender's sequence number for whoever reads a capture, and keeps
//! its length.

pub use crate::ipv4::PROTO_HEARTBEAT;

/// Wire size of a heartbeat: `"HB"` + sender seq (u64 LE) + 16 zero
/// bytes.
pub const HEARTBEAT_V1_LEN: usize = 26;

const MAGIC: &[u8; 2] = b"HB";

/// A heartbeat.
///
/// # Example
///
/// ```
/// use tcpfo_wire::heartbeat::{Heartbeat, HEARTBEAT_V1_LEN};
///
/// let bytes = Heartbeat { seq: 7 }.encode();
/// assert_eq!(bytes.len(), HEARTBEAT_V1_LEN);
/// assert_eq!(&bytes[..3], b"HB\x07");
/// assert!(bytes[10..].iter().all(|&b| b == 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sender's heartbeat sequence number.
    pub seq: u64,
}

impl Heartbeat {
    /// Encodes the payload. The 16 zero bytes after the seq keep the
    /// beat at [`HEARTBEAT_V1_LEN`]: a host's CPU cost of sending and
    /// receiving a datagram is charged per payload byte, so a shorter
    /// beat would move the timing of every failover.
    pub fn encode(&self) -> [u8; HEARTBEAT_V1_LEN] {
        let mut out = [0u8; HEARTBEAT_V1_LEN];
        out[..2].copy_from_slice(MAGIC);
        out[2..10].copy_from_slice(&self.seq.to_le_bytes());
        out
    }
}
