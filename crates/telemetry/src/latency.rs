//! The latency observatory (PR 5).
//!
//! The paper's headline claims are *temporal* — bounded client-visible
//! interruption (§5) and negligible bridge overhead (§6) — so the
//! datapath needs latency distributions, not just throughput counters.
//! This module provides the measurement primitives:
//!
//! * [`LogHistogram`] — a fixed-size, zero-allocation log2-bucket
//!   histogram (HDR-style). Plain `u64` arrays, no atomics, no heap:
//!   recording is an array increment, and [`LogHistogram::merge`]
//!   combines two copies losslessly.
//!   The const-generic bucket count picks the dynamic range;
//!   [`HostHistogram`] (host nanoseconds, per-stage CPU cost) and
//!   [`SimHistogram`] (simulated nanoseconds, e.g. MTTR samples) are
//!   the two time-base variants.
//! * [`Stage`] / [`StageLatency`] — the five hot-path stages every
//!   bridge segment passes through (ingress parse, flow-table lookup,
//!   queue match, checksum fixup, egress emit), each with its own
//!   histogram.
//! * [`HostClock`] — a monotonic host-time source anchored at first
//!   use. The simulated clock does not advance *within* one segment's
//!   processing, so per-stage cost must be host time; everything else
//!   in this crate stays on sim time.
//! * [`LatencyObservatory`] — the per-bridge aggregate, attached
//!   behind the same one-`Option` branch as the invariant auditor so
//!   the detached hot path stays allocation- and clock-read-free
//!   (the PR 2 zero-alloc proof covers it).
//!
//! # Example
//!
//! ```
//! use tcpfo_telemetry::latency::{HostHistogram, Stage, StageLatency};
//!
//! let mut a = StageLatency::new();
//! let mut b = StageLatency::new();
//! a.record(Stage::IngressParse, 120);
//! b.record(Stage::IngressParse, 90);
//! a.merge(&b); // copies merge losslessly
//! assert_eq!(a.stage(Stage::IngressParse).count(), 2);
//! let mut h = HostHistogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert!(h.quantile(0.5) >= 500 && h.quantile(0.5) <= 1000);
//! ```

use std::sync::OnceLock;
use std::time::Instant;

use crate::json::JsonObject;
use crate::registry::{Gauge, Histogram, Scope};

/// Bucket count for host-time (per-stage CPU cost) histograms: covers
/// 0 .. ~2^38 ns ≈ 4.6 minutes, far beyond any per-segment cost.
pub const HOST_LAT_BUCKETS: usize = 40;

/// Bucket count for sim-time histograms (MTTR phases, stalls): covers
/// 0 .. ~2^46 ns ≈ 19.5 hours of simulated time.
pub const SIM_LAT_BUCKETS: usize = 48;

/// Host-time latency histogram (nanoseconds from [`HostClock`]).
pub type HostHistogram = LogHistogram<HOST_LAT_BUCKETS>;

/// Sim-time latency histogram (nanoseconds of simulated time).
pub type SimHistogram = LogHistogram<SIM_LAT_BUCKETS>;

/// A fixed-size log2-bucket histogram. Value 0 lands in bucket 0,
/// value `v > 0` in bucket `64 - leading_zeros(v)` (i.e. values in
/// `[2^(i-1), 2^i)` share bucket `i`), and everything at or above
/// `2^(N-2)` saturates into the top bucket. No heap, no atomics:
/// `record` is two array writes, so the struct is `Copy` and copies
/// merge with [`LogHistogram::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram<const N: usize> {
    buckets: [u64; N],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl<const N: usize> Default for LogHistogram<N> {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl<const N: usize> LogHistogram<N> {
    /// An empty histogram. `N` must be at least 2 (one bucket for
    /// zero, one for everything else).
    pub const fn new() -> Self {
        assert!(N >= 2, "LogHistogram needs at least 2 buckets");
        LogHistogram {
            buckets: [0; N],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into (top bucket saturates).
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(N - 1)
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1).min(63)
        }
    }

    /// Inclusive upper bound of bucket `i` (the top bucket is open:
    /// it reports `u64::MAX`).
    pub fn bucket_high(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= N - 1 || i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value in one step.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges `other` into `self`. Loses nothing: bucket counts,
    /// count, sum, min and max all combine exactly, so merging is
    /// associative and commutative across copies. Bucket
    /// `i` of `other` lands in bucket `i` here (the top bucket when
    /// `M > N`), so a narrower histogram merges into a wider one
    /// exactly too.
    pub fn merge<const M: usize>(&mut self, other: &LogHistogram<M>) {
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i.min(N - 1)] += c;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts (index `i` as in [`LogHistogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; N] {
        &self.buckets
    }

    /// Clears every bucket.
    pub fn reset(&mut self) {
        *self = LogHistogram::new();
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound
    /// of the bucket holding the rank-`⌈q·count⌉` observation, clamped
    /// to the recorded maximum. For any observation set this brackets
    /// the exact quantile `x` as `x ≤ quantile(q) ≤ max(2·x, 1)` —
    /// the log2-bucket resolution guarantee the proptests pin down.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for i in 0..N {
            seen += self.buckets[i];
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// The `q`-quantile together with its trustworthiness: when the
    /// rank lands in the open top bucket, the log2 bracketing
    /// guarantee is gone — the only honest statement is "the true
    /// quantile is ≥ the bucket floor". [`Quantile::saturated`] flags
    /// exactly that, so tail reports can say "≥ 274s"
    /// instead of silently presenting the clamped value as resolved.
    pub fn quantile_report(&self, q: f64) -> Quantile {
        if self.count == 0 {
            return Quantile {
                value: 0,
                floor: 0,
                saturated: false,
            };
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut bucket = N - 1;
        for i in 0..N {
            seen += self.buckets[i];
            if seen >= rank {
                bucket = i;
                break;
            }
        }
        Quantile {
            value: Self::bucket_high(bucket).min(self.max),
            floor: Self::bucket_low(bucket),
            saturated: bucket == N - 1,
        }
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Renders the histogram as a JSON object: summary scalars, the
    /// three headline quantiles (with top-bucket saturation flags),
    /// and the non-empty `[low, high, count]` buckets.
    pub fn to_json(&self) -> String {
        let p99 = self.quantile_report(0.99);
        let p999 = self.quantile_report(0.999);
        let mut obj = JsonObject::new();
        obj.u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", self.min())
            .u64("max", self.max)
            .u64("p50", self.p50())
            .u64("p99", p99.value)
            .u64("p999", p999.value)
            .raw("p99_saturated", p99.saturated.to_string())
            .raw("p999_saturated", p999.saturated.to_string());
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| format!("[{}, {}, {c}]", Self::bucket_low(i), Self::bucket_high(i)))
            .collect();
        obj.raw("buckets", crate::json::array(&buckets));
        obj.render()
    }
}

/// A quantile estimate with its resolution caveat. Produced by
/// [`LogHistogram::quantile_report`]: `value` is the usual
/// bucket-upper-bound estimate clamped to the observed maximum, and
/// `floor` the inclusive lower bound of the bucket the rank landed in.
/// When `saturated` is set the rank fell into the *open* top bucket,
/// where the factor-of-two bracketing guarantee no longer holds — the
/// honest reading is then "≥ `floor`", which is exactly how
/// [`Quantile::fmt_ns`] renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    /// Bucket upper bound clamped to the observed maximum.
    pub value: u64,
    /// Inclusive lower bound of the selected bucket.
    pub floor: u64,
    /// Whether the rank landed in the open (saturated) top bucket.
    pub saturated: bool,
}

impl Quantile {
    /// Human rendering: the value in time units, prefixed with `≥` and
    /// demoted to the bucket floor when the top bucket saturated.
    pub fn fmt_ns(&self) -> String {
        if self.saturated {
            format!("≥{}", crate::fmt_nanos(self.floor))
        } else {
            crate::fmt_nanos(self.value)
        }
    }
}

/// The five hot-path stages a segment passes through inside a bridge,
/// in datapath order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Frame decode + TCP header parse on bridge entry.
    IngressParse,
    /// Flow-table lookup (and touch) for the segment's key.
    FlowLookup,
    /// §3.2 shadow-queue matching: P/S watermark merge and release
    /// decision.
    QueueMatch,
    /// Address / sequence translation and incremental checksum fixup.
    ChecksumFixup,
    /// Serialising the released segment into the output rope.
    EgressEmit,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// All stages in datapath order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::IngressParse,
        Stage::FlowLookup,
        Stage::QueueMatch,
        Stage::ChecksumFixup,
        Stage::EgressEmit,
    ];

    /// Stable lowercase name used in metric names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngressParse => "ingress_parse",
            Stage::FlowLookup => "flow_lookup",
            Stage::QueueMatch => "queue_match",
            Stage::ChecksumFixup => "checksum_fixup",
            Stage::EgressEmit => "egress_emit",
        }
    }

    /// Dense index (position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Stage::IngressParse => 0,
            Stage::FlowLookup => 1,
            Stage::QueueMatch => 2,
            Stage::ChecksumFixup => 3,
            Stage::EgressEmit => 4,
        }
    }
}

/// Each stage's `(sum, count)` of recorded host time, in [`Stage::ALL`]
/// order: what a batch span reads of the stage histograms.
pub type StageTotals = [(u64, u64); Stage::COUNT];

/// One host-time histogram per [`Stage`]. `Copy` and heap-free like
/// its histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLatency {
    stages: [HostHistogram; Stage::COUNT],
}

impl Default for StageLatency {
    fn default() -> Self {
        StageLatency::new()
    }
}

impl StageLatency {
    /// All-empty stage histograms.
    pub const fn new() -> Self {
        StageLatency {
            stages: [HostHistogram::new(); Stage::COUNT],
        }
    }

    /// Records `ns` into `stage`'s histogram.
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    /// The histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &HostHistogram {
        &self.stages[stage.index()]
    }

    /// Each stage's recorded sum and count, without its buckets.
    pub fn totals(&self) -> StageTotals {
        self.stages.each_ref().map(|h| (h.sum(), h.count()))
    }

    /// Merges another stage set.
    pub fn merge(&mut self, other: &StageLatency) {
        for i in 0..Stage::COUNT {
            self.stages[i].merge(&other.stages[i]);
        }
    }

    /// Total observations across all stages.
    pub fn total_count(&self) -> u64 {
        self.stages.iter().map(|h| h.count()).sum()
    }

    /// Clears every stage histogram.
    pub fn reset(&mut self) {
        *self = StageLatency::new();
    }

    /// Renders all stages as one JSON object keyed by stage name.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for s in Stage::ALL {
            obj.raw(s.name(), self.stage(s).to_json());
        }
        obj.render()
    }

    /// Aligned text table (one row per stage) for the human exports.
    /// Quantiles that land in the saturated top bucket render as
    /// `≥<bucket floor>` rather than a fabricated point estimate.
    pub fn report(&self) -> String {
        let mut out =
            String::from("stage              count        p50        p99       p999        max\n");
        for s in Stage::ALL {
            let h = self.stage(s);
            out.push_str(&format!(
                "{:<18} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
                s.name(),
                h.count(),
                h.quantile_report(0.5).fmt_ns(),
                h.quantile_report(0.99).fmt_ns(),
                h.quantile_report(0.999).fmt_ns(),
                crate::fmt_nanos(h.max()),
            ));
        }
        out
    }
}

/// Process-wide, not per hub: the clock is read where no hub is at hand
/// (the observatories, the span sampler), and the host-time spans of
/// every hub must share one timebase to merge into one trace.
static HOST_ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic host-time source for per-stage cost measurement, anchored
/// at first use. Only read when an observatory is *attached*: the
/// detached hot path never touches it, so deterministic runs never
/// observe wall time.
#[derive(Debug, Clone, Copy)]
pub struct HostClock;

impl HostClock {
    /// Nanoseconds since the process-wide anchor (first call).
    #[inline]
    pub fn now_ns() -> u64 {
        HOST_ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Registry handles for one stage's published quantiles.
#[derive(Debug, Clone)]
struct StageGauges {
    p50: Gauge,
    p99: Gauge,
    p999: Gauge,
    max: Gauge,
    count: Gauge,
    hist: Histogram,
}

/// The per-bridge latency aggregate: per-stage host-time histograms
/// plus the registry plumbing that mirrors them out on every telemetry
/// sync. Boxed behind `Option` on the bridges (detached by default),
/// exactly like the invariant auditor, so the detached datapath pays
/// one branch and the PR 2 zero-alloc proof still holds.
#[derive(Debug, Default)]
pub struct LatencyObservatory {
    stages: StageLatency,
    gauges: Option<Vec<StageGauges>>,
}

impl LatencyObservatory {
    /// An empty observatory.
    pub fn new() -> Self {
        LatencyObservatory::default()
    }

    /// Records `ns` of host time spent in `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages.record(stage, ns);
    }

    /// The accumulated per-stage histograms.
    pub fn stages(&self) -> &StageLatency {
        &self.stages
    }

    /// Mutable access to the per-stage histograms, for datapath code
    /// that records through a borrowed `&mut StageLatency` (the bridge
    /// engines) rather than the observatory handle itself.
    pub fn stages_mut(&mut self) -> &mut StageLatency {
        &mut self.stages
    }

    /// Mirrors the per-stage state into the registry under
    /// `scope.lat.<stage>.*`: quantile gauges (`p50_ns`, `p99_ns`,
    /// `p999_ns`, `max_ns`, `count`) plus a registry [`Histogram`]
    /// that holds the stage's observations, so the Prometheus
    /// exposition carries real bucket series. A stage's histogram is
    /// written only when its count moved since the previous publish.
    pub fn publish(&mut self, scope: &Scope, now_ns: u64) {
        let gauges = self.gauges.get_or_insert_with(|| {
            let lat = scope.scope("lat");
            Stage::ALL
                .iter()
                .map(|s| {
                    let sc = lat.scope(s.name());
                    StageGauges {
                        p50: sc.gauge("p50_ns"),
                        p99: sc.gauge("p99_ns"),
                        p999: sc.gauge("p999_ns"),
                        max: sc.gauge("max_ns"),
                        count: sc.gauge("count"),
                        hist: lat.histogram(s.name()),
                    }
                })
                .collect()
        });
        for s in Stage::ALL {
            let h = self.stages.stage(s);
            let g = &gauges[s.index()];
            g.p50.set_at(h.p50(), now_ns);
            g.p99.set_at(h.p99(), now_ns);
            g.p999.set_at(h.p999(), now_ns);
            g.max.set_at(h.max(), now_ns);
            g.count.set_at(h.count(), now_ns);
            if g.hist.count() != h.count() {
                g.hist.set(h);
            }
        }
    }

    /// Human-readable per-stage table.
    pub fn report(&self) -> String {
        self.stages.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping() {
        type H = LogHistogram<8>;
        assert_eq!(H::bucket_of(0), 0);
        assert_eq!(H::bucket_of(1), 1);
        assert_eq!(H::bucket_of(2), 2);
        assert_eq!(H::bucket_of(3), 2);
        assert_eq!(H::bucket_of(4), 3);
        // Top-bucket saturation: bucket 7 holds everything >= 2^6.
        assert_eq!(H::bucket_of(64), 7);
        assert_eq!(H::bucket_of(u64::MAX), 7);
        assert_eq!(H::bucket_low(0), 0);
        assert_eq!(H::bucket_high(0), 0);
        assert_eq!(H::bucket_low(3), 4);
        assert_eq!(H::bucket_high(3), 7);
        assert_eq!(H::bucket_high(7), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = HostHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 500);
        // Exact p50 = 500 → bucket [512, 1023] upper bound clamped by
        // the max? No: 500 is in [256, 511], so p50 reports 511.
        assert_eq!(h.p50(), 511);
        // Exact p99 = 990 → bucket [512, 1023], clamped to max 1000.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = HostHistogram::new();
        let mut b = HostHistogram::new();
        let mut whole = HostHistogram::new();
        for v in 0..100u64 {
            whole.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = LogHistogram::<4>::new();
        h.record(u64::MAX);
        h.record(1 << 40);
        h.record(4); // 2^(N-2) = 4 is already the top bucket
        assert_eq!(h.buckets()[3], 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX, "open top bucket reports max");
    }

    #[test]
    fn stage_latency_roundtrip() {
        let mut sl = StageLatency::new();
        sl.record(Stage::IngressParse, 100);
        sl.record(Stage::EgressEmit, 50);
        sl.record(Stage::EgressEmit, 60);
        assert_eq!(sl.stage(Stage::EgressEmit).count(), 2);
        assert_eq!(sl.total_count(), 3);
        let mut other = StageLatency::new();
        other.record(Stage::QueueMatch, 9);
        sl.merge(&other);
        assert_eq!(sl.total_count(), 4);
        let json = sl.to_json();
        for s in Stage::ALL {
            assert!(json.contains(s.name()), "{json}");
        }
        assert!(sl.report().contains("queue_match"), "{}", sl.report());
    }

    #[test]
    fn quantile_report_flags_saturation() {
        let mut h = LogHistogram::<4>::new();
        h.record(3); // bucket 2, resolved
        let q = h.quantile_report(0.5);
        assert_eq!(q.value, 3, "clamped to max");
        assert_eq!(q.floor, 2);
        assert!(!q.saturated);
        // Pile the tail into the open top bucket (>= 2^(N-2) = 4).
        for _ in 0..100 {
            h.record(1 << 40);
        }
        let q = h.quantile_report(0.999);
        assert!(q.saturated, "rank in the open top bucket must flag");
        assert_eq!(q.floor, 4, "floor is the top bucket's lower bound");
        assert_eq!(q.value, 1 << 40, "value still clamps to max");
        assert!(q.fmt_ns().starts_with('≥'), "{}", q.fmt_ns());
        let json = h.to_json();
        assert!(json.contains("\"p999_saturated\": true"), "{json}");
        assert!(json.contains("\"p99_saturated\": true"), "{json}");
        // An unsaturated histogram keeps the flags false.
        let mut ok = HostHistogram::new();
        ok.record(100);
        assert!(
            ok.to_json().contains("\"p999_saturated\": false"),
            "{}",
            ok.to_json()
        );
        assert_eq!(ok.quantile_report(0.999).fmt_ns(), "100ns");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = HostHistogram::new();
        bulk.record_n(77, 5);
        bulk.record_n(9, 0);
        let mut single = HostHistogram::new();
        for _ in 0..5 {
            single.record(77);
        }
        assert_eq!(bulk, single, "record_n(v, 0) must be a no-op too");
    }

    #[test]
    fn saturated_report_uses_floor_marker() {
        let mut sl = StageLatency::new();
        sl.record(Stage::FlowLookup, u64::MAX);
        let report = sl.report();
        assert!(report.contains('≥'), "{report}");
    }

    #[test]
    fn host_clock_is_monotone() {
        let a = HostClock::now_ns();
        let b = HostClock::now_ns();
        assert!(b >= a);
    }

    #[test]
    fn observatory_publishes_gauges_and_histogram_deltas() {
        use crate::registry::Registry;
        let r = Registry::new();
        let mut obs = LatencyObservatory::new();
        obs.record(Stage::FlowLookup, 300);
        obs.publish(&r.scope("core.primary"), 1_000);
        obs.record(Stage::FlowLookup, 300);
        obs.publish(&r.scope("core.primary"), 2_000);
        let snap = r.snapshot(2_000);
        let g = snap.gauge("core.primary.lat.flow_lookup.count").unwrap();
        assert_eq!(g.value, 2);
        let h = snap.histogram("core.primary.lat.flow_lookup").unwrap();
        assert_eq!(h.count(), 2, "delta publish must not double count");
        assert_eq!(h.sum(), 600);
        let p50 = snap.gauge("core.primary.lat.flow_lookup.p50_ns").unwrap();
        assert_eq!(p50.value, 300, "quantile clamps to observed max");
    }
}
