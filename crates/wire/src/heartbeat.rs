//! The fault detector's heartbeat payload (IP protocol
//! [`PROTO_HEARTBEAT`]).
//!
//! The paper only requires *a* fault detector (§2); ours exchanges
//! small datagrams whose v1 payload carries a sender sequence number
//! and an echo of the peer's latest one, so either side can measure a
//! round trip without a clock exchange. Heartbeats arrive from the
//! shared segment, so the payload is outside input: [`Heartbeat::decode`]
//! accepts any bytes and every field is an arbitrary `u64`.

pub use crate::ipv4::PROTO_HEARTBEAT;

/// Wire size of a v1 heartbeat: `"HB"` + sender seq (u64 LE) + echoed
/// peer seq (u64 LE) + echo hold time in nanoseconds (u64 LE). Shorter
/// payloads are legacy liveness-only heartbeats.
pub const HEARTBEAT_V1_LEN: usize = 26;

const MAGIC: &[u8; 2] = b"HB";

/// A decoded v1 heartbeat.
///
/// # Example
///
/// ```
/// use tcpfo_wire::heartbeat::Heartbeat;
///
/// let hb = Heartbeat { seq: 7, echo_seq: Heartbeat::NO_ECHO, hold_ns: 0 };
/// assert_eq!(Heartbeat::decode(&hb.encode()), Some(hb));
/// assert_eq!(Heartbeat::decode(b"HB"), None); // legacy: liveness only
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sender's heartbeat sequence number.
    pub seq: u64,
    /// The latest peer sequence number the sender has seen, or
    /// [`Heartbeat::NO_ECHO`].
    pub echo_seq: u64,
    /// How long the sender held `echo_seq` before echoing it, so the
    /// receiver's RTT sample excludes the sender's heartbeat interval.
    pub hold_ns: u64,
}

impl Heartbeat {
    /// `echo_seq` value meaning "nothing to echo yet".
    pub const NO_ECHO: u64 = u64::MAX;

    /// Encodes the v1 payload.
    pub fn encode(&self) -> [u8; HEARTBEAT_V1_LEN] {
        let mut out = [0u8; HEARTBEAT_V1_LEN];
        out[..2].copy_from_slice(MAGIC);
        out[2..10].copy_from_slice(&self.seq.to_le_bytes());
        out[10..18].copy_from_slice(&self.echo_seq.to_le_bytes());
        out[18..26].copy_from_slice(&self.hold_ns.to_le_bytes());
        out
    }

    /// Decodes a v1 payload; `None` for anything shorter or without
    /// the magic (a legacy heartbeat: it still proves liveness, it just
    /// carries nothing). Trailing bytes are ignored.
    pub fn decode(payload: &[u8]) -> Option<Heartbeat> {
        let body = payload.get(..HEARTBEAT_V1_LEN)?.strip_prefix(MAGIC)?;
        let word = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&body[at..at + 8]);
            u64::from_le_bytes(b)
        };
        Some(Heartbeat {
            seq: word(0),
            echo_seq: word(8),
            hold_ns: word(16),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_extreme_fields() {
        let hb = Heartbeat {
            seq: u64::MAX,
            echo_seq: 0,
            hold_ns: u64::MAX - 1,
        };
        let bytes = hb.encode();
        assert_eq!(&bytes[..2], b"HB");
        assert_eq!(Heartbeat::decode(&bytes), Some(hb));
    }

    #[test]
    fn rejects_short_and_unmagical_payloads() {
        let bytes = Heartbeat {
            seq: 1,
            echo_seq: 2,
            hold_ns: 3,
        }
        .encode();
        assert_eq!(Heartbeat::decode(&bytes[..HEARTBEAT_V1_LEN - 1]), None);
        assert_eq!(Heartbeat::decode(&[]), None);
        let mut wrong = bytes;
        wrong[0] = b'X';
        assert_eq!(Heartbeat::decode(&wrong), None);
    }
}
