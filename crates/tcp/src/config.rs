//! Stack configuration.

use tcpfo_net::time::SimDuration;

/// Minimum retransmission timeout.
pub const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Maximum retransmission timeout.
pub const RTO_MAX: SimDuration = SimDuration::from_secs(60);
/// Initial RTO before any RTT sample.
pub const RTO_INITIAL: SimDuration = SimDuration::from_millis(1000);
/// How long a closed connection lingers in TIME-WAIT.
pub const TIME_WAIT: SimDuration = SimDuration::from_millis(1000);

/// Tunables of one host's TCP stack.
///
/// Defaults approximate the paper's testbed software (FreeBSD 4.4-era
/// BSD TCP on 100 Mb/s Ethernet): 1460-byte MSS, 64 KB send buffer
/// (whose effect is visible below ~32 KB messages in Fig. 3), 64 KB
/// receive window, 40 ms delayed-ACK. The RTO bounds and TIME-WAIT are
/// the constants above, and Reno congestion control is always on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Maximum segment size advertised in our SYN.
    pub mss: u16,
    /// Send buffer capacity in bytes ("the 64 KByte TCP send buffer",
    /// §9). `send` returns once bytes are accepted here, not when they
    /// hit the wire.
    pub send_buffer: usize,
    /// Receive buffer capacity; bounds the advertised window (capped at
    /// 65535 — no window scaling, as in the paper's era).
    pub recv_buffer: usize,
    /// Delayed-ACK timeout; `None` disables delayed ACKs.
    pub delayed_ack: Option<SimDuration>,
    /// Nagle's algorithm (coalesce sub-MSS writes while data is in
    /// flight).
    pub nagle: bool,
    /// Seed for deterministic initial sequence numbers. Give the
    /// primary and secondary *different* seeds so that `Δseq ≠ 0` and
    /// the bridge's offset machinery is actually exercised.
    pub isn_seed: u64,
    /// First ephemeral port. Replicated stacks must agree so that
    /// server-initiated failover connections (§7.2) pick identical
    /// local ports on P and S.
    pub ephemeral_start: u16,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buffer: 64 * 1024,
            recv_buffer: 64 * 1024 - 1,
            delayed_ack: Some(SimDuration::from_millis(40)),
            nagle: true,
            isn_seed: 0,
            ephemeral_start: 49152,
        }
    }
}

impl TcpConfig {
    /// Returns a copy with the given ISN seed.
    pub fn with_isn_seed(mut self, seed: u64) -> Self {
        self.isn_seed = seed;
        self
    }

    /// Advertised window for `free` bytes of receive buffer space.
    pub fn clamp_window(&self, free: usize) -> u16 {
        free.min(self.recv_buffer).min(u16::MAX as usize) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_era() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1460);
        assert_eq!(c.send_buffer, 65536);
        assert!(c.nagle);
        assert_eq!(RTO_MIN, SimDuration::from_millis(200));
        assert_eq!(RTO_MAX, SimDuration::from_secs(60));
        assert_eq!(RTO_INITIAL, SimDuration::from_millis(1000));
        assert_eq!(TIME_WAIT, SimDuration::from_millis(1000));
    }

    #[test]
    fn window_clamping() {
        let c = TcpConfig::default();
        assert_eq!(c.clamp_window(0), 0);
        assert_eq!(c.clamp_window(1000), 1000);
        assert_eq!(c.clamp_window(1 << 20), c.recv_buffer as u16);
    }

    #[test]
    fn builder_helpers() {
        let c = TcpConfig::default().with_isn_seed(9);
        assert_eq!(c.isn_seed, 9);
    }
}
