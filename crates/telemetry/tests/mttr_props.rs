//! Property tests for the §5 MTTR decomposition, driven the way a run
//! drives it — through `Telemetry::event`: under *any* randomized
//! detection / ARP / first-byte timings — including zero-length phases —
//! the per-step deltas of [`MttrBreakdown`] must sum exactly to the
//! view's client-visible total (the quantity the benchmark's
//! `core.mttr.*` cells carry), the folded steps read 0, and a
//! non-monotone view must refuse to decompose rather than emit
//! negative-looking wrapped deltas.

use proptest::collection::vec;
use proptest::prelude::*;
use tcpfo_telemetry::{MttrBreakdown, Telemetry};

/// The moments that stamp the §5 phases, in causal order; `takeover`
/// stamps none.
const KINDS: [&str; 5] = [
    "kill",
    "peer_dead",
    "takeover",
    "takeover.arp",
    "first_client_byte",
];

/// A hub whose journal saw `KINDS` at `stamps`, skipping `missing`.
fn hub(stamps: [u64; 5], missing: Option<usize>) -> Telemetry {
    let t = Telemetry::new();
    for (i, (kind, at)) in KINDS.into_iter().zip(stamps).enumerate() {
        if Some(i) != missing {
            t.event(at, "test", kind, &[], [None, None]);
        }
    }
    t
}

/// Cumulative stamps from a base and four gaps.
fn stamps(base: u64, gaps: [u64; 4]) -> [u64; 5] {
    let mut out = [base; 5];
    for i in 1..5 {
        out[i] = out[i - 1] + gaps[i - 1];
    }
    out
}

/// The decomposition the gaps predict: detection, the two folded
/// steps, detection → ARP (through the `takeover` moment), first byte.
fn expected(gaps: [u64; 4]) -> [u64; 5] {
    [gaps[0], 0, 0, gaps[1] + gaps[2], gaps[3]]
}

proptest! {
    /// The decomposition always exists for a complete monotone episode
    /// and its deltas reproduce the gaps and sum to the total — even
    /// when some (or all) gaps are zero-length.
    #[test]
    fn breakdown_sums_to_mttr(
        base in 0u64..1u64 << 40,
        gaps in vec(0u64..1u64 << 40, 4),
    ) {
        let gaps: [u64; 4] = gaps.try_into().unwrap();
        let t = hub(stamps(base, gaps), None);
        prop_assert!(t.timeline.is_monotone());
        let m: MttrBreakdown = t.timeline.mttr().expect("complete monotone view decomposes");
        prop_assert_eq!(m.deltas(), expected(gaps), "deltas reproduce the injected gaps");
        let total: u64 = m.deltas().iter().sum();
        prop_assert_eq!(total, m.total_ns, "per-step sum must equal the MTTR");
        prop_assert_eq!(Some(m.total_ns), t.timeline.total_ns(), "total matches the view");
        // The JSON export carries the same invariant.
        let json = m.to_json();
        prop_assert!(json.contains(&format!("\"total_ns\": {}", m.total_ns)), "{}", json);
    }

    /// Zero-length gaps collapse into their neighbours without stealing
    /// time.
    #[test]
    fn zero_length_phase_contributes_nothing(
        base in 0u64..1u64 << 40,
        gaps in vec(0u64..1u64 << 40, 4),
        zeroed in 0usize..4,
    ) {
        let mut gaps: [u64; 4] = gaps.try_into().unwrap();
        gaps[zeroed] = 0;
        let m = hub(stamps(base, gaps), None).timeline.mttr().expect("zero-length phases are legal");
        prop_assert_eq!(m.deltas(), expected(gaps));
        prop_assert_eq!(m.deltas().iter().sum::<u64>(), m.total_ns);
    }

    /// An episode with any stamped phase before its predecessor refuses
    /// to decompose instead of wrapping a negative delta.
    #[test]
    fn non_monotone_never_decomposes(
        base in 1u64..1u64 << 40,
        gaps in vec(1u64..1u64 << 40, 4),
        which in 0usize..3,
    ) {
        let gaps: [u64; 4] = gaps.try_into().unwrap();
        let mut at = stamps(base, gaps);
        // Pull one stamped phase before its stamped predecessor (the
        // `takeover` moment at index 2 stamps nothing).
        let (swapped, before) = [(1, 0), (3, 1), (4, 3)][which];
        at[swapped] = at[before] - 1;
        let t = hub(at, None);
        prop_assert!(!t.timeline.is_monotone());
        prop_assert_eq!(t.timeline.mttr(), None);
    }

    /// An incomplete episode never decomposes, whichever phase is
    /// missing; a missing `takeover` moment changes nothing.
    #[test]
    fn incomplete_never_decomposes(
        base in 0u64..1u64 << 40,
        gaps in vec(0u64..1u64 << 40, 4),
        missing in 0usize..5,
    ) {
        let gaps: [u64; 4] = gaps.try_into().unwrap();
        let t = hub(stamps(base, gaps), Some(missing));
        prop_assert_eq!(t.timeline.mttr().is_some(), missing == 2);
    }
}
