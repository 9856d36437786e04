//! Replication-lag observatory.
//!
//! The fault detector that declares a peer dead is the paper's binary
//! §2 rule, in `tcpfo_core::ChainController`; what this module keeps is
//! the bridge-side measure of how far the replicas lag one another:
//!
//! * [`QueueTotals`] — the bytes a bridge's output queues hold, summed
//!   over its flows, one total per side. The bridge keeps them at every
//!   queue change, attached observers or not; everything that reports
//!   held bytes reads them.
//! * [`ReplicationLag`] — what a total cannot give: unmatched segments
//!   at each flow's MSS, maintained *exactly* (event-driven, O(1) per
//!   queue mutation) so it can be read every tick without sweeping a
//!   million-flow table; plus per-flow-class log2 histograms of lag and
//!   time-at-head-of-queue sampled at each release. Its held bytes are
//!   read through the bridge's [`QueueTotals`].
//! * [`HealthObservatory`] — that ledger plus its registry mirror
//!   (`health.lag.*`), attached to a bridge.
//!
//! Everything here is sim-time (`u64` nanoseconds); nothing reads a
//! wall clock, so attached runs stay deterministic. Recording allocates
//! nothing, preserving the zero-alloc proof with the observatory
//! attached.

use std::cell::Cell;
use std::rc::Rc;

use crate::json::JsonObject;
use crate::latency::LogHistogram;
use crate::registry::{Counter, Gauge, Scope};

/// Buckets for lag/wait histograms: log2 over `u64` values up to
/// 2⁴⁸ (≈ 281 TB of lag or ~78 h of waiting — saturation is a signal
/// in itself).
pub const HEALTH_BUCKETS: usize = 48;

/// Workload class a lag sample is filed under: short flows (mice,
/// < 64 KiB released so far) versus bulk transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// A young/short flow (< 64 KiB released).
    Short,
    /// A bulk flow.
    Bulk,
}

impl FlowClass {
    /// Classifies a flow by the bytes it has released so far.
    pub fn of_released(released_bytes: u64) -> Self {
        if released_bytes < 64 * 1024 {
            FlowClass::Short
        } else {
            FlowClass::Bulk
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FlowClass::Short => "short",
            FlowClass::Bulk => "bulk",
        }
    }

    fn index(self) -> usize {
        match self {
            FlowClass::Short => 0,
            FlowClass::Bulk => 1,
        }
    }

    /// Both classes, in index order.
    pub const ALL: [FlowClass; 2] = [FlowClass::Short, FlowClass::Bulk];
}

/// The bytes a bridge's output queues hold, summed over its flows: one
/// total per side, indexed like a connection's sides ([`QueueTotals::OWN`]
/// is the bridge's own output). The bridge keeps them at every insert,
/// match and flow departure; a clone is a handle to the same totals,
/// which is how the health observatory reads them, and raises the own
/// side's high-water mark beside them while it is attached.
/// Single-owner, like a hub.
#[derive(Debug, Clone, Default)]
pub struct QueueTotals(Rc<[Cell<u64>; 3]>);

impl QueueTotals {
    /// Index of the bridge's own output queue: the bytes the replica
    /// below has not matched yet, its replication lag.
    pub const OWN: usize = 1;
    /// Index of the own side's high-water mark.
    pub const PEAK: usize = 2;

    /// `bytes` entered one side's queue.
    #[inline]
    pub fn add(&self, side: usize, bytes: usize) {
        self.0[side].set(self.get(side) + bytes as u64);
    }

    /// `bytes[side]` left each side's queue.
    #[inline]
    pub fn sub(&self, bytes: [usize; 2]) {
        for (total, n) in self.0.iter().zip(bytes) {
            total.set(total.get() - n as u64);
        }
    }

    /// Bytes one side's queues hold, or the own side's [`Self::PEAK`].
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.0[i].get()
    }

    fn raise_peak(&self) {
        self.0[Self::PEAK].set(self.get(Self::PEAK).max(self.get(Self::OWN)));
    }
}

/// The replication-lag ledger: segments of Δseq-normalised primary
/// output not yet matched by the secondary witness, maintained
/// incrementally at every primary-output-queue mutation, plus
/// per-class log2 histograms sampled at each release. Its bytes are the
/// bridge's [`QueueTotals`], read through the handle
/// [`ReplicationLag::follow`] gives it, never summed here.
#[derive(Debug, Clone, Default)]
pub struct ReplicationLag {
    held: QueueTotals,
    unmatched_segments: u64,
    hist_bytes: [LogHistogram<HEALTH_BUCKETS>; 2],
    hist_segments: [LogHistogram<HEALTH_BUCKETS>; 2],
    hist_head_wait: [LogHistogram<HEALTH_BUCKETS>; 2],
}

/// Segments needed to carry `bytes` at `mss` (0 for an empty queue).
fn segments_of(bytes: u64, mss: u16) -> u64 {
    let m = u64::from(mss.max(1));
    bytes.div_ceil(m)
}

impl ReplicationLag {
    /// Reads held bytes from `held`, the totals of the bridge this
    /// ledger is attached to, whose peak it keeps from now on.
    pub fn follow(&mut self, held: &QueueTotals) {
        self.held = held.clone();
        self.held.raise_peak();
    }

    /// Accounts a primary-output-queue length change on one flow in
    /// segments: `before`/`after` are the queue's buffered byte counts
    /// around the mutation (already in the totals), `mss` the flow's
    /// effective MSS. Raises the totals' peak.
    #[inline]
    pub fn update(&mut self, before: usize, after: usize, mss: u16) {
        self.unmatched_segments = self
            .unmatched_segments
            .saturating_sub(segments_of(before as u64, mss))
            + segments_of(after as u64, mss);
        self.held.raise_peak();
    }

    /// Accounts a flow dropped with `bytes` still unmatched (teardown,
    /// eviction, reap, RST, degradation).
    #[inline]
    pub fn drop_flow(&mut self, bytes: usize, mss: u16) {
        self.update(bytes, 0, mss);
    }

    /// Samples a release event: the flow had `lag_bytes` unmatched
    /// when the match landed, and its head byte had waited
    /// `head_wait_ns` of sim time.
    #[inline]
    pub fn record_release(
        &mut self,
        class: FlowClass,
        lag_bytes: u64,
        mss: u16,
        head_wait_ns: u64,
    ) {
        let i = class.index();
        self.hist_bytes[i].record(lag_bytes);
        self.hist_segments[i].record(segments_of(lag_bytes, mss));
        self.hist_head_wait[i].record(head_wait_ns);
    }

    /// Current unmatched bytes (the first-class lag gauge): the bridge's
    /// own queue total.
    pub fn unmatched_bytes(&self) -> u64 {
        self.held.get(QueueTotals::OWN)
    }

    /// Current unmatched segments.
    pub fn unmatched_segments(&self) -> u64 {
        self.unmatched_segments
    }

    /// High-water unmatched bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.held.get(QueueTotals::PEAK)
    }

    /// Release events sampled.
    pub fn releases(&self) -> u64 {
        self.hist_bytes.iter().map(LogHistogram::count).sum()
    }

    /// Per-class lag-in-bytes histogram.
    pub fn bytes_hist(&self, class: FlowClass) -> &LogHistogram<HEALTH_BUCKETS> {
        &self.hist_bytes[class.index()]
    }

    /// Per-class lag-in-segments histogram.
    pub fn segments_hist(&self, class: FlowClass) -> &LogHistogram<HEALTH_BUCKETS> {
        &self.hist_segments[class.index()]
    }

    /// Per-class time-at-head-of-queue histogram (sim ns).
    pub fn head_wait_hist(&self, class: FlowClass) -> &LogHistogram<HEALTH_BUCKETS> {
        &self.hist_head_wait[class.index()]
    }

    /// JSON snapshot of the lag state. Renders six histograms: for
    /// bundles and exports, never for the host tick.
    pub fn to_json(&self) -> String {
        self.json_with([self.unmatched_bytes(), self.peak_bytes()])
    }

    /// [`ReplicationLag::to_json`] with the held and peak bytes as a
    /// snapshot took them.
    pub(crate) fn json_with(&self, [held, peak]: [u64; 2]) -> String {
        let mut o = JsonObject::new();
        o.u64("unmatched_bytes", held)
            .u64("unmatched_segments", self.unmatched_segments())
            .u64("peak_bytes", peak)
            .u64("releases", self.releases());
        for class in FlowClass::ALL {
            let mut c = JsonObject::new();
            c.raw("bytes", self.bytes_hist(class).to_json())
                .raw("segments", self.segments_hist(class).to_json())
                .raw("head_wait_ns", self.head_wait_hist(class).to_json());
            o.raw(class.name(), c.render());
        }
        o.render()
    }
}

/// Registry handles for one bridge's published lag metrics.
#[derive(Debug)]
struct LagGauges {
    bytes: Gauge,
    segments: Gauge,
    peak_bytes: Gauge,
    releases: Counter,
    class_p99_bytes: [Gauge; 2],
    class_p99_wait: [Gauge; 2],
}

/// The bridge-side observatory: the exact lag ledger plus its
/// registry mirror. Attached behind `Option<Box<...>>` on each bridge
/// (one branch when detached); recording never allocates.
#[derive(Debug, Default)]
pub struct HealthObservatory {
    /// The replication-lag ledger.
    pub lag: ReplicationLag,
    gauges: Option<LagGauges>,
}

impl HealthObservatory {
    /// A fresh observatory with zeroed state.
    pub fn new() -> Self {
        HealthObservatory::default()
    }

    /// Mirrors the lag state into the registry under
    /// `scope.health.lag.*`.
    pub fn publish(&mut self, scope: &Scope, now_ns: u64) {
        let g = self.gauges.get_or_insert_with(|| {
            let lag = scope.scope("health.lag");
            LagGauges {
                bytes: lag.gauge("bytes"),
                segments: lag.gauge("segments"),
                peak_bytes: lag.gauge("peak_bytes"),
                releases: lag.counter("releases"),
                class_p99_bytes: [lag.gauge("short.p99_bytes"), lag.gauge("bulk.p99_bytes")],
                class_p99_wait: [
                    lag.gauge("short.p99_head_wait_ns"),
                    lag.gauge("bulk.p99_head_wait_ns"),
                ],
            }
        });
        g.bytes.set_at(self.lag.unmatched_bytes(), now_ns);
        g.segments.set_at(self.lag.unmatched_segments(), now_ns);
        g.peak_bytes.set_at(self.lag.peak_bytes(), now_ns);
        g.releases.set_at_least(self.lag.releases());
        for class in FlowClass::ALL {
            let i = class.index();
            g.class_p99_bytes[i].set_at(self.lag.bytes_hist(class).p99(), now_ns);
            g.class_p99_wait[i].set_at(self.lag.head_wait_hist(class).p99(), now_ns);
        }
    }

    /// JSON snapshot of the lag state ([`ReplicationLag::to_json`]).
    pub fn to_json(&self) -> String {
        self.lag.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn lag_ledger_update_and_drop_are_exact() {
        let (held, mut lag) = (QueueTotals::default(), ReplicationLag::default());
        lag.follow(&held);
        held.add(QueueTotals::OWN, 3000); // enqueue 3000 bytes
        lag.update(0, 3000, 1460);
        held.add(0, 500); // the side below is not lag
        assert_eq!(lag.unmatched_bytes(), 3000);
        assert_eq!(lag.unmatched_segments(), 3); // ceil(3000/1460)
        held.sub([0, 1460]); // release 1460
        lag.update(3000, 1540, 1460);
        assert_eq!(lag.unmatched_bytes(), 1540);
        assert_eq!(lag.unmatched_segments(), 2);
        held.sub([500, 1540]);
        lag.drop_flow(1540, 1460);
        assert_eq!(lag.unmatched_bytes(), 0);
        assert_eq!(lag.unmatched_segments(), 0);
        assert_eq!(lag.peak_bytes(), 3000);
    }

    #[test]
    fn release_samples_file_under_flow_class() {
        let mut lag = ReplicationLag::default();
        lag.record_release(FlowClass::Short, 512, 1460, 2_000_000);
        lag.record_release(FlowClass::Bulk, 1 << 20, 1460, 9_000_000);
        assert_eq!(lag.bytes_hist(FlowClass::Short).count(), 1);
        assert_eq!(lag.bytes_hist(FlowClass::Bulk).count(), 1);
        assert_eq!(lag.segments_hist(FlowClass::Bulk).max(), 719); // ceil(2^20/1460)
        assert!(lag.head_wait_hist(FlowClass::Bulk).max() >= 8_000_000);
    }

    #[test]
    fn observatory_publish_mirrors_lag_gauges() {
        let reg = Registry::new();
        let (held, mut obs) = (QueueTotals::default(), HealthObservatory::new());
        obs.lag.follow(&held);
        held.add(QueueTotals::OWN, 4096);
        obs.lag.update(0, 4096, 1460);
        obs.lag
            .record_release(FlowClass::Short, 4096, 1460, 1_000_000);
        obs.publish(&reg.scope("core.primary"), 5);
        let snap = reg.snapshot(5);
        assert_eq!(
            snap.gauge("core.primary.health.lag.bytes").map(|g| g.value),
            Some(4096)
        );
        assert_eq!(snap.counter("core.primary.health.lag.releases"), Some(1));
        let json = obs.to_json();
        assert!(json.contains("\"unmatched_bytes\": 4096"), "{json}");
    }
}
