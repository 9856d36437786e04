//! Retransmission-timeout estimation (Jacobson/Karels, with Karn's
//! rule applied by the caller: no samples from retransmitted data).

use crate::config::{RTO_INITIAL, RTO_MAX, RTO_MIN};
use tcpfo_net::time::SimDuration;

/// Smoothed RTT state and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT, `None` until the first sample.
    srtt: Option<SimDuration>,
    /// RTT variance estimate.
    rttvar: SimDuration,
    rto: SimDuration,
    /// Exponential back-off multiplier (power of two), reset on a new
    /// sample.
    backoff: u32,
}

impl Default for RttEstimator {
    /// An estimator at [`RTO_INITIAL`], before any sample.
    fn default() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: RTO_INITIAL,
            backoff: 0,
        }
    }
}

impl RttEstimator {
    /// Feeds a round-trip sample from a *non-retransmitted* segment.
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                // RFC 6298 (2.2): SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
        self.backoff = 0;
        self.recompute();
    }

    fn recompute(&mut self) {
        let srtt = self.srtt.unwrap_or(self.rto);
        let base = srtt + self.rttvar.saturating_mul(4);
        let backed = base.saturating_mul(1 << self.backoff.min(16));
        self.rto = backed.max(RTO_MIN).min(RTO_MAX);
    }

    /// Doubles the RTO after a retransmission timeout (Karn).
    pub fn back_off(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
        self.recompute();
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::default()
    }

    #[test]
    fn first_sample_initialises() {
        let mut e = est();
        assert!(e.srtt().is_none());
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = SRTT + 4*RTTVAR = 100 + 4*50 = 300ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn rto_respects_minimum() {
        let mut e = est();
        for _ in 0..20 {
            e.sample(SimDuration::from_micros(200)); // LAN-fast RTT
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn steady_samples_converge() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis() as i64 - 80).abs() <= 1, "srtt={srtt}");
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100)); // RTO 300ms
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(1200));
        e.sample(SimDuration::from_millis(100));
        assert!(e.rto() < SimDuration::from_millis(600));
    }

    #[test]
    fn rto_capped_at_max() {
        let mut e = est();
        for _ in 0..40 {
            e.back_off();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }
}
