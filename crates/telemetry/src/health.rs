//! Replica health & replication-lag observatory (PR8).
//!
//! The paper's fault detector is binary: a peer is alive until
//! heartbeats stop for `timeout`, then it is dead. The PR5 MTTR
//! decomposition showed detection dominates the takeover latency, and
//! ROADMAP item 2 (health-scored N-way failover) needs a *continuous*
//! measure of replica quality before any control loop can act early.
//! This module supplies it:
//!
//! * [`ReplicaHealth`] — per-replica signal estimators: heartbeat RTT
//!   and jitter EWMAs, consecutive-miss counts and the heartbeat loss
//!   rate — composed into a 0–100 [`HealthScore`]. The score bands
//!   follow the gf-health orchestration contract: **< 50 is Critical**,
//!   **≥ 70 is healthy**.
//! * [`ReplicationLag`] — a first-class replication-lag metric: bytes
//!   and segments of Δseq-normalised primary output still unmatched by
//!   the secondary witness, maintained *exactly* (event-driven, O(1)
//!   per queue mutation) so it can be read every detector tick without
//!   sweeping a million-flow table; plus per-flow-class log2
//!   histograms of lag and time-at-head-of-queue sampled at each
//!   release.
//! * [`SloMonitor`] — multi-window burn-rate evaluation (5 s/60 s of
//!   sim time by default) over the "replica is healthy" SLO, feeding a
//!   hysteretic [`AlertMachine`] (`Ok → Warn → Critical`). Each
//!   transition, with the condition that moved it, is one `health.alert`
//!   entry the control plane writes to the hub's journal.
//! * [`HealthMonitor`] — the detector-side composite the control plane
//!   (`tcpfo_core::ChainController`) keeps per peer: publishes the
//!   score *alongside* the binary heartbeat decision, which alone
//!   declares a peer dead and so starts a takeover. The score is
//!   advisory: what it moves is `health.alert`.
//!
//! Everything here is sim-time (`u64` nanoseconds); nothing reads a
//! wall clock, so attached runs stay deterministic. All hot-path state
//! is flat (`u64` fields and fixed arrays) — recording allocates
//! nothing, preserving the PR2 zero-alloc proof with the observatory
//! attached.

use crate::json::JsonObject;
use crate::latency::LogHistogram;
use crate::registry::{Counter, Gauge, Scope};

/// Buckets for lag/wait histograms: log2 over `u64` values up to
/// 2⁴⁸ (≈ 281 TB of lag or ~78 h of waiting — saturation is a signal
/// in itself).
pub const HEALTH_BUCKETS: usize = 48;

// ---------------------------------------------------------------------
// EWMA
// ---------------------------------------------------------------------

/// Integer exponentially-weighted moving average with rational
/// smoothing factor `num/den` (the weight given to each new sample).
///
/// The update is `v += (sample - v) * num / den` in 128-bit signed
/// arithmetic, truncated toward zero, so under constant input the
/// value moves monotonically toward the input and never overshoots
/// (property-tested in `health_props.rs`).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    num: u32,
    den: u32,
    value: Option<u64>,
}

impl Ewma {
    /// An EWMA giving each new sample weight `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `num == 0`, `den == 0` or `num > den`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0 && num <= den, "invalid EWMA weight");
        Ewma {
            num,
            den,
            value: None,
        }
    }

    /// Folds in a sample and returns the updated value. The first
    /// sample primes the average directly.
    pub fn observe(&mut self, sample: u64) -> u64 {
        let v = match self.value {
            None => sample,
            Some(v) => {
                let delta = (sample as i128 - v as i128) * self.num as i128 / self.den as i128;
                (v as i128 + delta).clamp(0, u64::MAX as i128) as u64
            }
        };
        self.value = Some(v);
        v
    }

    /// The current average, or 0 before the first sample.
    pub fn get(&self) -> u64 {
        self.value.unwrap_or(0)
    }

    /// Whether at least one sample has been folded in.
    pub fn is_primed(&self) -> bool {
        self.value.is_some()
    }

    /// Clears back to the unprimed state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

// Scoring, burn-rate windows and alert hysteresis. The weights sum to
// 100 so axis subscores (each 0–100) compose into a 0–100 total. The
// thresholds reproduce the gf-health bands: Critical below 50,
// healthy/promotable at 70 and above. The one tunable, the miss limit,
// is derived from the detector's timeout and passed in.

/// Heartbeat RTT at/above this scores 0 on the RTT axis (20 ms: 2× the
/// detector interval).
pub const RTT_CEILING_NS: u64 = 20_000_000;
/// Heartbeat jitter (mean deviation) at/above this scores 0 on the
/// jitter axis.
pub const JITTER_CEILING_NS: u64 = 5_000_000;
/// Loss/retransmit rate (parts per million of forwarded segments)
/// at/above which the loss axis scores 0 (a 10 % retransmit rate).
pub const LOSS_CEILING_PPM: u64 = 100_000;
/// Axis weights: liveness, RTT, jitter, loss. With [`BASE_POINTS`] they
/// sum to 100. Liveness additionally scales the weighted composite —
/// see [`ReplicaHealth::score`].
pub const WEIGHTS: [u32; 4] = [30, 20, 20, 15];
/// Points of the composite that no signal takes away, so that a replica
/// with no fault scores 100 and the alert bands keep the meaning they
/// were calibrated with.
pub const BASE_POINTS: u64 = 15;
/// Score below this (from `Ok`) raises `Warn`.
pub const WARN_ENTER: u64 = 70;
/// Score at/above this (plus a calm fast window) clears `Warn`.
pub const WARN_EXIT: u64 = 80;
/// Score below this raises `Critical`.
pub const CRIT_ENTER: u64 = 50;
/// Score at/above this demotes `Critical` back to `Warn`.
pub const CRIT_EXIT: u64 = 60;
/// Fast burn-rate window slot width; the window spans [`SLO_SLOTS`]
/// slots (5 s).
pub const FAST_SLOT_NS: u64 = 625_000_000;
/// Slow burn-rate window slot width (a 60 s window).
pub const SLOW_SLOT_NS: u64 = 7_500_000_000;
/// Fast-window bad-observation fraction (ppm) that raises `Warn` even
/// while the instantaneous score still looks fine (20 %).
pub const BURN_WARN_PPM: u64 = 200_000;
/// Fast-window bad fraction (ppm) below which `Warn` may clear (5 %).
pub const BURN_CLEAR_PPM: u64 = 50_000;

// ---------------------------------------------------------------------
// Score
// ---------------------------------------------------------------------

/// A composed 0–100 health score with its per-axis breakdown (each
/// axis also 0–100) and the raw signals it was derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthScore {
    /// Weighted total, 0–100.
    pub total: u64,
    /// Liveness axis (consecutive heartbeat misses).
    pub liveness: u64,
    /// Heartbeat RTT axis.
    pub rtt: u64,
    /// Heartbeat jitter axis.
    pub jitter: u64,
    /// Ingress loss/retransmit axis.
    pub loss: u64,
    /// Raw smoothed RTT (ns).
    pub rtt_ns: u64,
    /// Raw smoothed jitter (ns).
    pub jitter_ns: u64,
    /// Raw consecutive misses.
    pub misses: u32,
    /// Raw smoothed loss rate (ppm).
    pub loss_ppm: u64,
}

/// Linear axis: full marks at 0, zero at/above `ceiling`.
fn axis(value: u64, ceiling: u64) -> u64 {
    if ceiling == 0 || value >= ceiling {
        return 0;
    }
    100 - value * 100 / ceiling
}

// ---------------------------------------------------------------------
// Per-replica signal estimators
// ---------------------------------------------------------------------

/// Signal estimators for one monitored replica. Fed by the detector
/// (heartbeats, misses, gaps in the heartbeat sequence), read back as a
/// [`HealthScore`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicaHealth {
    rtt: Ewma,
    jitter: Ewma,
    loss: Ewma,
    /// Consecutive missed heartbeat intervals, as counted by the
    /// detector (resets on any arrival).
    pub misses: u32,
    /// Heartbeats seen (any form).
    pub heartbeats: u64,
}

impl Default for ReplicaHealth {
    fn default() -> Self {
        ReplicaHealth {
            // 1/8 — TCP SRTT's classic gain.
            rtt: Ewma::new(1, 8),
            // 1/4 — TCP RTTVAR's gain, over mean deviation.
            jitter: Ewma::new(1, 4),
            loss: Ewma::new(1, 4),
            misses: 0,
            heartbeats: 0,
        }
    }
}

impl ReplicaHealth {
    /// A heartbeat arrived carrying a measurable round-trip time.
    pub fn on_heartbeat_rtt(&mut self, rtt_ns: u64) {
        self.heartbeats += 1;
        self.misses = 0;
        let srtt = self.rtt.get();
        if self.rtt.is_primed() {
            self.jitter.observe(rtt_ns.abs_diff(srtt));
        } else {
            self.jitter.observe(0);
        }
        self.rtt.observe(rtt_ns);
    }

    /// A heartbeat arrived without RTT information (legacy payload).
    pub fn on_heartbeat_seen(&mut self) {
        self.heartbeats += 1;
        self.misses = 0;
    }

    /// The detector's current consecutive-miss count (elapsed silent
    /// intervals).
    pub fn set_misses(&mut self, misses: u32) {
        self.misses = misses;
    }

    /// Folds in an ingress loss observation: `losses` loss-ish events
    /// (retransmissions forwarded + drops) out of `total` segments
    /// since the last observation.
    ///
    /// Both counts can derive from a heartbeat sequence gap, which is
    /// outside input: the ratio is taken in 128 bits so no gap
    /// overflows.
    pub fn observe_loss(&mut self, losses: u64, total: u64) {
        let ppm = (u128::from(losses.min(total)) * 1_000_000)
            .checked_div(u128::from(total))
            .unwrap_or(0);
        self.loss.observe(ppm as u64);
    }

    /// Smoothed heartbeat RTT (ns).
    pub fn rtt_ns(&self) -> u64 {
        self.rtt.get()
    }

    /// Smoothed heartbeat jitter (ns).
    pub fn jitter_ns(&self) -> u64 {
        self.jitter.get()
    }

    /// Smoothed loss rate (ppm).
    pub fn loss_ppm(&self) -> u64 {
        self.loss.get()
    }

    /// Composes the current [`HealthScore`]; the liveness axis reaches
    /// 0 at `miss_limit` consecutive missed heartbeat intervals
    /// (aligned with `timeout / interval` of the binary detector).
    ///
    /// The liveness axis is special: besides contributing its weight,
    /// it *scales* the weighted composite (`total = weighted ×
    /// liveness / 100`). Consecutive silence discredits every other
    /// signal — a replica whose heartbeats have stopped cannot be
    /// vouched for by a stale RTT estimate — so the composite reaches
    /// `Warn`/`Critical` several missed intervals before the binary
    /// detector's timeout, which is exactly the lead time the staged-
    /// degradation gate measures.
    ///
    /// Before the first heartbeat the replica is presumed healthy on
    /// the axes it has no data for (matching the binary detector's
    /// first-tick grace period).
    pub fn score(&self, miss_limit: u32) -> HealthScore {
        let liveness = if miss_limit == 0 {
            100
        } else {
            100u64.saturating_sub(
                u64::from(self.misses.min(miss_limit)) * 100 / u64::from(miss_limit),
            )
        };
        let rtt = if self.rtt.is_primed() {
            axis(self.rtt.get(), RTT_CEILING_NS)
        } else {
            100
        };
        let jitter = if self.jitter.is_primed() {
            axis(self.jitter.get(), JITTER_CEILING_NS)
        } else {
            100
        };
        let loss = axis(self.loss.get(), LOSS_CEILING_PPM);
        let [wl, wr, wj, wo] = WEIGHTS;
        let weighted = (liveness * u64::from(wl)
            + rtt * u64::from(wr)
            + jitter * u64::from(wj)
            + loss * u64::from(wo)
            + 100 * BASE_POINTS)
            / 100;
        let total = weighted * liveness / 100;
        HealthScore {
            total,
            liveness,
            rtt,
            jitter,
            loss,
            rtt_ns: self.rtt.get(),
            jitter_ns: self.jitter.get(),
            misses: self.misses,
            loss_ppm: self.loss.get(),
        }
    }
}

// ---------------------------------------------------------------------
// Burn-rate windows
// ---------------------------------------------------------------------

/// Slots per sliding burn-rate window.
pub const SLO_SLOTS: usize = 8;

/// Good/bad observation counts; merging windows is plain addition, so
/// a merge over any partition of the observations is lossless
/// (property-tested).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// Observations meeting the SLO.
    pub good: u64,
    /// Observations violating the SLO.
    pub bad: u64,
}

impl WindowCounts {
    /// Adds another window's counts into this one.
    pub fn merge(&mut self, other: &WindowCounts) {
        self.good += other.good;
        self.bad += other.bad;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.good + self.bad
    }

    /// Bad-observation fraction in parts per million (0 when empty).
    pub fn bad_ppm(&self) -> u64 {
        (self.bad * 1_000_000)
            .checked_div(self.total())
            .unwrap_or(0)
    }
}

/// A sliding window of good/bad counts over [`SLO_SLOTS`] slots of
/// `slot_ns` sim time each: silent periods don't burn slots, and
/// `sliding` merges every slot still inside the horizon.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindow {
    slot_ns: u64,
    slots: [(u64, WindowCounts); SLO_SLOTS],
}

impl BurnWindow {
    /// A window whose slots each span `slot_ns` (total horizon
    /// `SLO_SLOTS * slot_ns`).
    pub fn new(slot_ns: u64) -> Self {
        BurnWindow {
            slot_ns: slot_ns.max(1),
            slots: [(u64::MAX, WindowCounts::default()); SLO_SLOTS],
        }
    }

    fn slot_index(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns
    }

    /// Records one observation at sim time `now_ns`.
    pub fn record(&mut self, now_ns: u64, good: bool) {
        let wi = self.slot_index(now_ns);
        let slot = &mut self.slots[(wi % SLO_SLOTS as u64) as usize];
        if slot.0 != wi {
            *slot = (wi, WindowCounts::default());
        }
        if good {
            slot.1.good += 1;
        } else {
            slot.1.bad += 1;
        }
    }

    /// Merged counts over every slot still within the sliding horizon
    /// at `now_ns`.
    pub fn sliding(&self, now_ns: u64) -> WindowCounts {
        let current = self.slot_index(now_ns);
        let mut total = WindowCounts::default();
        for (wi, counts) in &self.slots {
            if *wi != u64::MAX && wi.saturating_add(SLO_SLOTS as u64) > current {
                total.merge(counts);
            }
        }
        total
    }
}

/// The two-window burn-rate evaluator over the "replica is healthy"
/// SLO (score ≥ `warn_enter`).
#[derive(Debug, Clone, Copy)]
pub struct SloMonitor {
    /// Fast window (default 5 s of sim time).
    pub fast: BurnWindow,
    /// Slow window (default 60 s of sim time).
    pub slow: BurnWindow,
}

impl Default for SloMonitor {
    /// A monitor with the [`FAST_SLOT_NS`] / [`SLOW_SLOT_NS`] windows.
    fn default() -> Self {
        SloMonitor {
            fast: BurnWindow::new(FAST_SLOT_NS),
            slow: BurnWindow::new(SLOW_SLOT_NS),
        }
    }
}

impl SloMonitor {
    /// Records one SLO observation into both windows.
    pub fn record(&mut self, now_ns: u64, good: bool) {
        self.fast.record(now_ns, good);
        self.slow.record(now_ns, good);
    }
}

// ---------------------------------------------------------------------
// Alert state machine
// ---------------------------------------------------------------------

/// Hysteretic alert level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Healthy.
    Ok,
    /// Degraded: the score dropped below `warn_enter`, or the fast
    /// burn window exceeded `burn_warn_ppm`.
    Warn,
    /// Takeover-worthy: the score dropped below `crit_enter` (the
    /// gf-health failover trigger band).
    Critical,
}

impl AlertState {
    /// Stable lower-case name (the `health.alert` journal fields).
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warn => "warn",
            AlertState::Critical => "critical",
        }
    }

    /// Numeric encoding for gauges (0 = ok, 1 = warn, 2 = critical).
    pub fn as_u64(self) -> u64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Warn => 1,
            AlertState::Critical => 2,
        }
    }
}

/// The hysteretic `Ok → Warn → Critical` machine.
///
/// Raise and clear use *different* thresholds (`warn_enter < warn_exit`,
/// `crit_enter < crit_exit`), so inputs oscillating anywhere inside a
/// hysteresis band move the machine at most once — no Warn↔Critical
/// flapping on boundary inputs (property-tested). Recovery from
/// `Critical` always passes through `Warn`.
#[derive(Debug, Clone, Copy)]
pub struct AlertMachine {
    state: AlertState,
}

impl Default for AlertMachine {
    fn default() -> Self {
        AlertMachine {
            state: AlertState::Ok,
        }
    }
}

impl AlertMachine {
    /// Current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Evaluates one observation; returns the transition if the state
    /// moved, with the condition that moved it.
    pub fn step(
        &mut self,
        score: u64,
        fast_bad_ppm: u64,
        slow_bad_ppm: u64,
    ) -> Option<(AlertState, AlertState, &'static str)> {
        let from = self.state;
        let (to, reason) = match from {
            AlertState::Ok => {
                if score < CRIT_ENTER {
                    (AlertState::Critical, "score_critical")
                } else if score < WARN_ENTER {
                    (AlertState::Warn, "score_warn")
                } else if fast_bad_ppm >= BURN_WARN_PPM && slow_bad_ppm > 0 {
                    (AlertState::Warn, "burn_rate")
                } else {
                    (from, "")
                }
            }
            AlertState::Warn => {
                if score < CRIT_ENTER {
                    (AlertState::Critical, "score_critical")
                } else if score >= WARN_EXIT && fast_bad_ppm < BURN_CLEAR_PPM {
                    (AlertState::Ok, "recovered")
                } else {
                    (from, "")
                }
            }
            AlertState::Critical => {
                if score >= CRIT_EXIT {
                    (AlertState::Warn, "improving")
                } else {
                    (from, "")
                }
            }
        };
        if to == from {
            return None;
        }
        self.state = to;
        Some((from, to, reason))
    }
}

// ---------------------------------------------------------------------
// Replication lag (bridge-side)
// ---------------------------------------------------------------------

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

/// The exact replication-lag ledger: bytes and segments of
/// Δseq-normalised primary output not yet matched by the secondary
/// witness, maintained incrementally at every primary-output-queue
/// mutation (the bench oracle re-derives both from the queues and
/// requires equality), plus per-class log2 histograms sampled at each
/// release.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicationLag {
    unmatched_bytes: u64,
    unmatched_segments: u64,
    peak_bytes: u64,
    releases: u64,
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
    /// Accounts a primary-output-queue length change on one flow:
    /// `before`/`after` are the queue's buffered byte counts around
    /// the mutation, `mss` the flow's effective MSS (for the segment
    /// ledger).
    #[inline]
    pub fn update(&mut self, before: usize, after: usize, mss: u16) {
        let (before, after) = (before as u64, after as u64);
        self.unmatched_bytes = self.unmatched_bytes + after - before.min(self.unmatched_bytes);
        // The subtraction above can't underflow when accounting is
        // complete (after ≥ 0, before ≤ total); the min is a safety
        // net that keeps a missed site from wrapping the gauge.
        self.unmatched_segments = self
            .unmatched_segments
            .saturating_sub(segments_of(before, mss))
            + segments_of(after, mss);
        self.peak_bytes = self.peak_bytes.max(self.unmatched_bytes);
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
        self.releases += 1;
        self.hist_bytes[i].record(lag_bytes);
        self.hist_segments[i].record(segments_of(lag_bytes, mss));
        self.hist_head_wait[i].record(head_wait_ns);
    }

    /// Current unmatched bytes (the first-class lag gauge).
    pub fn unmatched_bytes(&self) -> u64 {
        self.unmatched_bytes
    }

    /// Current unmatched segments.
    pub fn unmatched_segments(&self) -> u64 {
        self.unmatched_segments
    }

    /// High-water unmatched bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Release events sampled.
    pub fn releases(&self) -> u64 {
        self.releases
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
        let mut o = JsonObject::new();
        o.u64("unmatched_bytes", self.unmatched_bytes())
            .u64("unmatched_segments", self.unmatched_segments())
            .u64("peak_bytes", self.peak_bytes())
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

// ---------------------------------------------------------------------
// Detector-side monitor
// ---------------------------------------------------------------------

/// Registry handles for one monitor's published health metrics.
#[derive(Debug)]
struct HealthGauges {
    score: Gauge,
    state: Gauge,
    liveness: Gauge,
    rtt_ns: Gauge,
    jitter_ns: Gauge,
    misses: Gauge,
    loss_ppm: Gauge,
    burn_fast_ppm: Gauge,
    burn_slow_ppm: Gauge,
    warns: Counter,
    criticals: Counter,
    recoveries: Counter,
}

/// The detector-side composite: per-replica estimators, SLO burn-rate
/// windows and the alert machine. The control plane
/// (`tcpfo_core::ChainController`) owns one per peer, publishes its
/// score *alongside* the binary heartbeat decision, and journals each
/// transition [`HealthMonitor::tick`] returns.
#[derive(Debug)]
pub struct HealthMonitor {
    /// Consecutive missed heartbeat intervals at which the liveness
    /// axis reaches 0.
    pub miss_limit: u32,
    /// The monitored peer's signal estimators.
    pub replica: ReplicaHealth,
    slo: SloMonitor,
    machine: AlertMachine,
    /// When the machine first raised at least `Warn`, set once.
    first_warn: Option<u64>,
    last_score: HealthScore,
    warns: u64,
    criticals: u64,
    recoveries: u64,
    gauges: Option<HealthGauges>,
}

impl HealthMonitor {
    /// A monitor whose liveness axis bottoms out at `miss_limit`
    /// consecutive missed heartbeat intervals.
    pub fn new(miss_limit: u32) -> Self {
        HealthMonitor {
            miss_limit,
            replica: ReplicaHealth::default(),
            slo: SloMonitor::default(),
            machine: AlertMachine::default(),
            first_warn: None,
            last_score: HealthScore {
                total: 100,
                liveness: 100,
                rtt: 100,
                jitter: 100,
                loss: 100,
                ..HealthScore::default()
            },
            warns: 0,
            criticals: 0,
            recoveries: 0,
            gauges: None,
        }
    }

    /// Re-evaluates the score, records the SLO observation in both
    /// burn windows, and steps the alert machine. Returns the alert
    /// transition, if one fired, with the condition that moved it.
    pub fn tick(&mut self, now_ns: u64) -> Option<(AlertState, AlertState, &'static str)> {
        let score = self.replica.score(self.miss_limit);
        self.last_score = score;
        self.slo.record(now_ns, score.total >= WARN_ENTER);
        let fast = self.slo.fast.sliding(now_ns).bad_ppm();
        let slow = self.slo.slow.sliding(now_ns).bad_ppm();
        let (from, to, reason) = self.machine.step(score.total, fast, slow)?;
        match to {
            AlertState::Warn if from == AlertState::Ok => self.warns += 1,
            AlertState::Critical => self.criticals += 1,
            AlertState::Ok => self.recoveries += 1,
            _ => {}
        }
        if to >= AlertState::Warn {
            self.first_warn.get_or_insert(now_ns);
        }
        Some((from, to, reason))
    }

    /// The most recent composed score.
    pub fn score(&self) -> HealthScore {
        self.last_score
    }

    /// Current alert state.
    pub fn state(&self) -> AlertState {
        self.machine.state()
    }

    /// Sim time the machine first raised at least `Warn`, if it did.
    pub fn first_warn_at(&self) -> Option<u64> {
        self.first_warn
    }

    /// Mirrors score/state/signals into the registry under
    /// `scope.health.*`.
    pub fn publish(&mut self, scope: &Scope, now_ns: u64) {
        let g = self.gauges.get_or_insert_with(|| {
            let h = scope.scope("health");
            HealthGauges {
                score: h.gauge("score"),
                state: h.gauge("state"),
                liveness: h.gauge("liveness"),
                rtt_ns: h.gauge("rtt_ns"),
                jitter_ns: h.gauge("jitter_ns"),
                misses: h.gauge("misses"),
                loss_ppm: h.gauge("loss_ppm"),
                burn_fast_ppm: h.gauge("burn_fast_ppm"),
                burn_slow_ppm: h.gauge("burn_slow_ppm"),
                warns: h.counter("alerts_warn"),
                criticals: h.counter("alerts_critical"),
                recoveries: h.counter("alerts_recovered"),
            }
        });
        let s = self.last_score;
        g.score.set_at(s.total, now_ns);
        g.state.set_at(self.machine.state().as_u64(), now_ns);
        g.liveness.set_at(s.liveness, now_ns);
        g.rtt_ns.set_at(s.rtt_ns, now_ns);
        g.jitter_ns.set_at(s.jitter_ns, now_ns);
        g.misses.set_at(u64::from(s.misses), now_ns);
        g.loss_ppm.set_at(s.loss_ppm, now_ns);
        g.burn_fast_ppm
            .set_at(self.slo.fast.sliding(now_ns).bad_ppm(), now_ns);
        g.burn_slow_ppm
            .set_at(self.slo.slow.sliding(now_ns).bad_ppm(), now_ns);
        g.warns.set_at_least(self.warns);
        g.criticals.set_at_least(self.criticals);
        g.recoveries.set_at_least(self.recoveries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn ewma_primes_and_converges() {
        let mut e = Ewma::new(1, 8);
        assert!(!e.is_primed());
        assert_eq!(e.observe(800), 800);
        // Moves 1/8 of the gap per sample.
        assert_eq!(e.observe(0), 700);
        assert_eq!(e.observe(0), 613);
    }

    #[test]
    fn axis_is_linear_and_clamped() {
        assert_eq!(axis(0, 100), 100);
        assert_eq!(axis(50, 100), 50);
        assert_eq!(axis(100, 100), 0);
        assert_eq!(axis(1000, 100), 0);
        assert_eq!(axis(5, 0), 0);
    }

    #[test]
    fn fresh_replica_scores_perfect() {
        let h = ReplicaHealth::default();
        let s = h.score(5);
        assert_eq!(s.total, 100, "{s:?}");
    }

    #[test]
    fn misses_drive_liveness_to_zero_at_limit() {
        let miss_limit = 5;
        let mut h = ReplicaHealth::default();
        h.set_misses(miss_limit - 1);
        assert!(h.score(miss_limit).liveness > 0);
        h.set_misses(miss_limit);
        assert_eq!(h.score(miss_limit).liveness, 0);
        // Liveness multiplies the composite: at the limit the score is
        // exactly 0, unconditionally Critical.
        assert_eq!(h.score(miss_limit).total, 0);
        // Two misses (20 ms of silence at defaults) already reach
        // Warn — well before the 50 ms binary timeout.
        h.set_misses(2);
        let s = h.score(miss_limit).total;
        assert!((CRIT_ENTER..WARN_ENTER).contains(&s), "score {s}");
    }

    #[test]
    fn jitter_only_degradation_lowers_score_without_misses() {
        let mut h = ReplicaHealth::default();
        // Steady 1 ms heartbeats first…
        for _ in 0..32 {
            h.on_heartbeat_rtt(1_000_000);
        }
        let calm = h.score(5).total;
        // …then wildly alternating RTTs: misses stay 0 but jitter and
        // RTT axes collapse.
        for i in 0..64 {
            h.on_heartbeat_rtt(if i % 2 == 0 { 1_000_000 } else { 30_000_000 });
        }
        let jittery = h.score(5).total;
        assert_eq!(h.misses, 0);
        assert!(
            jittery < calm && jittery < WARN_ENTER,
            "calm {calm} jittery {jittery}"
        );
    }

    #[test]
    fn burn_window_rotates_and_slides() {
        let mut w = BurnWindow::new(1_000);
        w.record(0, true);
        w.record(500, false);
        let c = w.sliding(500);
        assert_eq!(c, WindowCounts { good: 1, bad: 1 });
        // 8 slots later the first slot has aged out.
        w.record(8_500, true);
        let c = w.sliding(8_500);
        assert_eq!(c, WindowCounts { good: 1, bad: 0 });
    }

    #[test]
    fn alert_machine_hysteresis_bands() {
        let mut m = AlertMachine::default();
        assert!(m.step(90, 0, 0).is_none());
        // Drop into Warn…
        let (from, to, _) = m.step(65, 0, 0).unwrap();
        assert_eq!((from, to), (AlertState::Ok, AlertState::Warn));
        // …recovery to 75 is inside the band: no transition.
        assert!(m.step(75, 0, 0).is_none());
        assert_eq!(m.state(), AlertState::Warn);
        // Clear needs warn_exit.
        let (_, to, _) = m.step(85, 0, 0).unwrap();
        assert_eq!(to, AlertState::Ok);
        // Critical path: straight down, then stepwise recovery.
        let (_, to, _) = m.step(10, 0, 0).unwrap();
        assert_eq!(to, AlertState::Critical);
        assert!(m.step(55, 0, 0).is_none(), "inside the crit band");
        let (_, to, _) = m.step(62, 0, 0).unwrap();
        assert_eq!(to, AlertState::Warn, "recovery passes through Warn");
    }

    #[test]
    fn burn_rate_raises_warn_without_score_drop() {
        let mut m = AlertMachine::default();
        // Score fine, but 30% of fast-window observations were bad.
        let t = m.step(95, 300_000, 10_000);
        assert_eq!(t.unwrap().1, AlertState::Warn);
        // Doesn't clear until the fast window calms down.
        assert!(m.step(95, 100_000, 10_000).is_none());
        assert_eq!(m.step(95, 10_000, 10_000).unwrap().1, AlertState::Ok);
    }

    #[test]
    fn lag_ledger_update_and_drop_are_exact() {
        let mut lag = ReplicationLag::default();
        lag.update(0, 3000, 1460); // enqueue 3000 bytes
        assert_eq!(lag.unmatched_bytes(), 3000);
        assert_eq!(lag.unmatched_segments(), 3); // ceil(3000/1460)
        lag.update(3000, 1540, 1460); // release 1460
        assert_eq!(lag.unmatched_bytes(), 1540);
        assert_eq!(lag.unmatched_segments(), 2);
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
    fn monitor_tick_warn_precedes_detector_style_timeline() {
        // Staged degradation: rising misses long before total silence.
        let mut m = HealthMonitor::new(5);
        let mut first_warn = None;
        for tick in 0..100u64 {
            let now = tick * 10_000_000; // 10 ms cadence
            if tick < 50 {
                m.replica.on_heartbeat_rtt(1_000_000);
            } else {
                m.replica.set_misses((tick - 50) as u32);
            }
            if let Some((_, to, _)) = m.tick(now) {
                if to >= AlertState::Warn && first_warn.is_none() {
                    first_warn = Some(now);
                }
            }
        }
        let warn = first_warn.expect("degradation must raise an alert");
        assert_eq!(m.first_warn_at(), Some(warn));
        assert!(m.state() >= AlertState::Warn);
    }

    #[test]
    fn monitor_publishes_and_exports_json() {
        let reg = Registry::new();
        let mut m = HealthMonitor::new(5);
        m.replica.on_heartbeat_rtt(2_000_000);
        m.tick(1_000_000);
        m.publish(&reg.scope("core.control.r0.peer1"), 1_000_000);
        let snap = reg.snapshot(1_000_000);
        assert_eq!(
            snap.gauge("core.control.r0.peer1.health.score")
                .map(|g| g.value),
            Some(98) // rtt axis 90 at 2 ms / 20 ms ceiling, rest 100
        );
        let state = snap.gauge("core.control.r0.peer1.health.state");
        assert_eq!(state.map(|g| g.value), Some(AlertState::Ok.as_u64()));
        let json = snap.to_json();
        let warns = "\"core.control.r0.peer1.health.alerts_warn\": 0";
        assert!(json.contains(warns), "{json}");
    }

    #[test]
    fn first_warn_at_outlasts_many_transitions() {
        // 60 cycles of one tick at the miss limit (Ok → Critical) and
        // 400 clean ticks (→ Warn → Ok), 1 ms apart.
        let mut m = HealthMonitor::new(5);
        let (mut now, mut transitions) = (0, 0);
        for _ in 0..60 {
            for tick in 0..401 {
                now += 1_000_000;
                m.replica.set_misses(if tick == 0 { 5 } else { 0 });
                transitions += usize::from(m.tick(now).is_some());
            }
        }
        assert_eq!(transitions, 180);
        assert_eq!(m.first_warn_at(), Some(1_000_000));
    }

    #[test]
    fn observatory_publish_mirrors_lag_gauges() {
        let reg = Registry::new();
        let mut obs = HealthObservatory::new();
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
