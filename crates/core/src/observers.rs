//! The observer seam: everything that watches a bridge, held in one
//! value, and the bridge's observable moments as methods on it.
//!
//! A bridge of any role owns exactly one [`Observers`]. Each observer
//! is still its own `Option<Box<_>>`, so a detached site is one branch
//! and an attached one allocates nothing; what is written once, here,
//! is what happens at each moment — a stage run (`StageClock`), held
//! bytes changed, matched or gone with their flow (`Lag`), a mode
//! change, a takeover, a promotion, a batch bracket, the host tick's
//! publish. The same `Lag` seam keeps the bridge's running totals of
//! queued bytes, which the host tick publishes without a walk. The
//! auditor is handed each segment by the merge engine, with the role
//! the engine gave it, and what the segment's step put out. DESIGN §8
//! *Observer seam* has the table of moments and who consumes each.
//!
//! A new observer is a field here and a consumer of one of these
//! moments, never a new field on a bridge.

use crate::primary::PrimaryMode;
use std::cell::Cell;
use tcpfo_telemetry::{
    AuditConfig, FlowClass, HealthObservatory, HostClock, InvariantAuditor, LatencyObservatory,
    ObserverSwitches, Scope, SpanContext, SpanSampler, Stage, StageLatency, Telemetry,
};

/// The observers attached to one bridge. All detached by default.
#[derive(Default)]
pub struct Observers {
    /// Online invariant auditor: shadows the datapath from outside and
    /// checks every release against the paper's rules.
    pub audit: Option<Box<InvariantAuditor>>,
    /// Per-stage latency observatory (host time; the detached hot path
    /// never reads the host clock).
    pub latency: Option<Box<LatencyObservatory>>,
    /// Replica health observatory: the exact unmatched-bytes/segments
    /// replication-lag ledger, O(1) per queue mutation, flat state.
    pub health: Option<Box<HealthObservatory>>,
    /// Hot-path span sampler over the batch entry point.
    pub trace: Option<Box<SpanSampler>>,
}

impl Observers {
    /// The observers `on` switches on, publishing into `hub`; the
    /// auditor is labelled `audit_label` in reports and bundle names.
    pub fn attach(on: ObserverSwitches, hub: &Telemetry, audit_label: &str) -> Self {
        Observers {
            audit: on.audit.then(|| {
                let config = AuditConfig::from_env(audit_label);
                Box::new(InvariantAuditor::new(config).with_hub(hub))
            }),
            latency: on.latency.then(|| Box::new(LatencyObservatory::new())),
            health: on.health.then(|| Box::new(HealthObservatory::new())),
            trace: on
                .span_trace
                .then(|| Box::new(SpanSampler::with_default_period(hub.trace.clone()))),
        }
    }

    /// The stage clock over the latency observatory's histograms.
    #[inline]
    pub(crate) fn clock(&mut self) -> StageClock<'_> {
        self.datapath(None).0
    }

    /// The replication-lag ledger of the health observatory, beside the
    /// bridge's running queue totals when telemetry is attached.
    #[inline]
    pub(crate) fn lag<'a>(&'a mut self, queued: Option<&'a Queued>) -> Lag<'a> {
        Lag(self.health.as_deref_mut(), queued)
    }

    /// The pieces per-segment code consumes, borrowed side by side: the
    /// stage clock, the lag ledger (with `queued`, the running queue
    /// totals), and the auditor the merge engine hands each segment's
    /// role.
    #[inline]
    pub(crate) fn datapath<'a>(
        &'a mut self,
        queued: Option<&'a Queued>,
    ) -> (StageClock<'a>, Lag<'a>, Option<&'a mut InvariantAuditor>) {
        (
            StageClock(
                self.latency
                    .as_deref_mut()
                    .map(LatencyObservatory::stages_mut),
            ),
            Lag(self.health.as_deref_mut(), queued),
            self.audit.as_deref_mut(),
        )
    }

    /// The chain controller decided to promote this replica.
    pub(crate) fn promotion_decided(&mut self, now_nanos: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.note_promotion_decision(now_nanos);
        }
    }

    /// The chain controller committed this replica's promotion.
    pub(crate) fn promotion_committed(&mut self, now_nanos: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.note_promotion_committed(now_nanos);
        }
    }

    /// The latency observatory's stage histograms, when attached.
    pub fn stages(&self) -> Option<&StageLatency> {
        self.latency.as_deref().map(LatencyObservatory::stages)
    }

    /// Span context of the most recent sampled hot-path batch.
    pub fn trace_context(&self) -> Option<SpanContext> {
        self.trace.as_deref().and_then(|s| s.last_ctx())
    }

    /// The merge engine entered (`SecondaryFailed`) or left (`Normal`)
    /// §6 degraded operation at `now_nanos`.
    pub(crate) fn mode_changed(&mut self, mode: PrimaryMode, now_nanos: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            match mode {
                PrimaryMode::SecondaryFailed => a.note_degraded(now_nanos),
                PrimaryMode::Normal => a.note_joined(now_nanos),
            }
        }
    }

    /// The link was promoted: the §5 takeover at `now_nanos`.
    pub(crate) fn takeover(&mut self, now_nanos: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.note_takeover(now_nanos);
        }
    }

    /// Opens the span sampler's bracket around a batch. `Some` when
    /// this batch is sampled: the stage histograms as they stand (a
    /// stack copy, taken on sampled batches only).
    #[inline]
    pub(crate) fn batch_start(&mut self) -> Option<BatchSample> {
        let sampled = self.trace.as_deref_mut().is_some_and(|s| s.start_batch());
        sampled.then(|| BatchSample(self.stages().copied()))
    }

    /// Closes the bracket [`Observers::batch_start`] opened: a `batch`
    /// span of `segments` segments, with one child per stage that ran
    /// when the latency observatory is attached too.
    #[inline]
    pub(crate) fn batch_end(&mut self, sample: &Option<BatchSample>, segments: u64) {
        let Some(BatchSample(before)) = sample else {
            return;
        };
        let after = self.stages().copied();
        if let Some(s) = self.trace.as_deref_mut() {
            s.finish_batch(segments, before.as_ref(), after.as_ref());
        }
    }

    /// Publishes what the observers hold under `scope`: stage
    /// quantiles, the lag ledger, and the auditor's copy of that ledger
    /// (every flight-recorder bundle captures replica health at fault
    /// time). Stores, not renderings — this runs on every host tick
    /// and the bundle's JSON is read only after a violation.
    pub(crate) fn publish(&mut self, scope: &Scope, now_nanos: u64) {
        if let Some(obs) = self.latency.as_deref_mut() {
            obs.publish(scope, now_nanos);
        }
        if let Some(obs) = self.health.as_deref_mut() {
            obs.publish(scope, now_nanos);
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.set_health_snapshot(&obs.lag);
            }
        }
    }
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observers")
            .field("audit", &self.audit.is_some())
            .field("latency", &self.latency.is_some())
            .field("health", &self.health.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

/// The stage histograms as [`Observers::batch_start`] found them.
pub(crate) struct BatchSample(Option<StageLatency>);

/// The stage clock: host-time cost of one datapath stage, recorded
/// into the latency observatory's histograms. Over `None` — the
/// default — a stage site is one branch
/// and the host clock is never read, which also keeps replay
/// deterministic.
pub(crate) struct StageClock<'a>(pub Option<&'a mut StageLatency>);

impl StageClock<'_> {
    /// Host-time stamp opening a stage measurement; 0 when detached.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.0.is_some() {
            HostClock::now_ns()
        } else {
            0
        }
    }

    /// Closes the measurement [`StageClock::start`] opened.
    #[inline]
    pub fn end(&mut self, stage: Stage, t0: u64) {
        if let Some(l) = self.0.as_deref_mut() {
            l.record(stage, HostClock::now_ns().saturating_sub(t0));
        }
    }
}

/// Bytes queued on each side of a bridge, summed over its flows and
/// indexed like a connection's sides: the output-queue depths the host
/// tick publishes, kept current at each queue change instead of walked.
pub(crate) type Queued = [Cell<u64>; 2];

/// The replication-lag ledger as the datapath feeds it: bytes held in a
/// primary output queue that the downstream replica has not matched
/// yet; and, while telemetry is attached, the running totals of both
/// sides' queued bytes. Over `None` — the default — every site is one
/// branch.
pub(crate) struct Lag<'a>(
    pub Option<&'a mut HealthObservatory>,
    pub Option<&'a Queued>,
);

impl Lag<'_> {
    /// Whether a ledger is attached (gates bookkeeping only it reads).
    #[inline]
    pub fn attached(&self) -> bool {
        self.0.is_some()
    }

    /// One side's queue grew by `bytes`.
    #[inline]
    pub fn enqueued(&self, side: usize, bytes: usize) {
        if let Some(q) = self.1 {
            q[side].set(q[side].get() + bytes as u64);
        }
    }

    /// `bytes[side]` left each side's queue: matched, or gone with their
    /// flow.
    #[inline]
    pub fn dequeued(&self, bytes: [usize; 2]) {
        if let Some(q) = self.1 {
            for (total, n) in q.iter().zip(bytes) {
                total.set(total.get() - n as u64);
            }
        }
    }

    /// A flow's held bytes went from `before` to `after`.
    #[inline]
    pub fn queue_changed(&mut self, before: usize, after: usize, mss: u16) {
        if let Some(h) = self.0.as_deref_mut() {
            h.lag.update(before, after, mss);
        }
    }

    /// A match released held bytes (`before` → `after`): samples how far
    /// behind the witness was and how long the head byte had waited.
    #[inline]
    pub fn released(
        &mut self,
        class: FlowClass,
        (before, after): (usize, usize),
        mss: u16,
        head_wait_nanos: u64,
    ) {
        if let Some(h) = self.0.as_deref_mut() {
            h.lag
                .record_release(class, before as u64, mss, head_wait_nanos);
            h.lag.update(before, after, mss);
        }
    }

    /// A flow left replicated operation (teardown, RST, eviction, GC,
    /// §6) still holding `held` bytes: they stop being replication lag.
    #[inline]
    pub fn flow_left(&mut self, held: usize, mss: u16) {
        if let Some(h) = self.0.as_deref_mut() {
            h.lag.drop_flow(held, mss);
        }
    }
}
