//! Property tests pinning down the health-observatory primitives the
//! PR-8 monitors lean on: the integer EWMA approaches a constant input
//! monotonically and never overshoots, the burn-rate sliding window is
//! a lossless merge of every in-horizon observation, and the alert
//! machine's hysteresis bands make Warn↔Critical flapping impossible
//! unless the score actually swings across a full band.

use proptest::collection::vec;
use proptest::prelude::*;
use tcpfo_telemetry::health::{CRIT_ENTER, CRIT_EXIT, WARN_ENTER, WARN_EXIT};
use tcpfo_telemetry::{AlertMachine, AlertState, BurnWindow, Ewma, WindowCounts};

/// Slots in a burn window (mirrors `health::SLO_SLOTS`).
const SLOTS: u64 = 8;

proptest! {
    /// Feeding a constant to the EWMA: the distance to the constant is
    /// non-increasing at every step, the value never overshoots (the
    /// sign of `target - value` never flips), and with gain `num/den`
    /// the value eventually lands within `den/num` of the target —
    /// the resolution floor of the integer update.
    #[test]
    fn ewma_approaches_constant_monotonically(
        start in 0u64..1_000_000_000,
        target in 0u64..1_000_000_000,
        num in 1u32..=8,
        den_mult in 1u32..=8,
        steps in 1usize..200,
    ) {
        let den = num * den_mult; // gain num/den ≤ 1
        let mut e = Ewma::new(num, den);
        e.observe(start); // primes to `start`
        prop_assert_eq!(e.get(), start);
        let mut dist = start.abs_diff(target);
        let above = start > target;
        for _ in 0..steps {
            e.observe(target);
            let v = e.get();
            let d = v.abs_diff(target);
            prop_assert!(d <= dist, "distance grew: {d} > {dist}");
            if v != target {
                prop_assert_eq!(
                    v > target,
                    above,
                    "EWMA overshot the constant input"
                );
            }
            dist = d;
        }
        // Run to convergence: enough steps for the geometric decay to
        // hit the integer-resolution floor.
        for _ in 0..10_000 {
            e.observe(target);
        }
        let floor = (den / num) as u64;
        prop_assert!(
            e.get().abs_diff(target) <= floor,
            "converged to {} — further than {floor} from {target}",
            e.get()
        );
    }

    /// The sliding merge is lossless: for observations recorded at
    /// non-decreasing sim times, `sliding(now)` equals an exact
    /// recount of every observation whose slot is still inside the
    /// horizon — nothing double-counted, nothing silently dropped.
    #[test]
    fn burn_window_sliding_merge_is_lossless(
        slot_ns in 1u64..1_000_000,
        deltas in vec((0u64..3_000_000, any::<bool>()), 1..100),
    ) {
        let mut w = BurnWindow::new(slot_ns);
        let mut now = 0u64;
        let mut obs = Vec::new();
        for (dt, good) in deltas {
            now = now.saturating_add(dt);
            w.record(now, good);
            obs.push((now / slot_ns, good));
        }
        let current = now / slot_ns;
        let mut exact = WindowCounts::default();
        for &(wi, good) in &obs {
            if wi + SLOTS > current {
                if good {
                    exact.good += 1;
                } else {
                    exact.bad += 1;
                }
            }
        }
        let got = w.sliding(now);
        prop_assert_eq!(got.good, exact.good, "good counts diverged");
        prop_assert_eq!(got.bad, exact.bad, "bad counts diverged");
        prop_assert_eq!(got.total(), exact.good + exact.bad);
    }

    /// Merging split windows equals counting the concatenation.
    #[test]
    fn window_counts_merge_is_associative_concat(
        flags in vec(any::<bool>(), 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(flags.len());
        let count = |xs: &[bool]| {
            let mut c = WindowCounts::default();
            for &g in xs {
                if g { c.good += 1 } else { c.bad += 1 }
            }
            c
        };
        let mut merged = count(&flags[..split]);
        merged.merge(&count(&flags[split..]));
        let whole = count(&flags);
        prop_assert_eq!(merged.good, whole.good);
        prop_assert_eq!(merged.bad, whole.bad);
    }

    /// Hysteresis: a score sequence whose total swing is smaller than
    /// the narrowest hysteresis band moves the machine at most twice
    /// and can never revisit a state (no Warn↔Critical or Ok↔Warn
    /// flapping on boundary inputs). Flapping requires the score to
    /// cross a full `enter → exit` band.
    #[test]
    fn alert_machine_does_not_flap_within_a_band(
        base in 0u64..100,
        offsets in vec(0u64..10, 1..100),
    ) {
        let band = (WARN_EXIT - WARN_ENTER).min(CRIT_EXIT - CRIT_ENTER);
        let mut machine = AlertMachine::default();
        let mut transitions: Vec<(AlertState, AlertState)> = Vec::new();
        for &off in &offsets {
            // Swing stays strictly inside one band.
            let score = (base + off % band).min(100);
            if let Some((from, to, _reason)) = machine.step(score, 0, 0) {
                transitions.push((from, to));
            }
        }
        prop_assert!(
            transitions.len() <= 2,
            "{} transitions from a sub-band swing: {transitions:?}",
            transitions.len()
        );
        // No state is ever revisited: each transition's `to` must be a
        // state the machine has not occupied before.
        let mut seen = vec![AlertState::Ok];
        for (_, to) in &transitions {
            prop_assert!(
                !seen.contains(to),
                "revisited {to:?}: flapping within a hysteresis band"
            );
            seen.push(*to);
        }
    }
}
