//! Cross-layer failover span tracing (PR 10).
//!
//! The PR 5 timeline and PR 8 health observatory reduce a takeover to
//! aggregate phase deltas and lag figures; this module records the *causal
//! story* — Dapper-style spans layered on the PR 3 [`TraceId`] chains,
//! so a specific slow sample or promotion links back to the concrete
//! sequence of detector, controller, bridge and reprovision events
//! that produced it.
//!
//! * [`Tracer`] — a cheaply-cloned recorder handle, shared within one
//!   hub. Detached (the default) it is *dormant*: recording finds no
//!   ring and returns — a branch, no allocation, no clock read — the
//!   same discipline as the auditor/latency/health observatories, and
//!   the zero-alloc proof covers it. Attaching pre-allocates a fixed
//!   capacity ring; recording after attach is array moves, no heap
//!   (names and arg keys are `&'static str`, args are `u64`).
//! * [`SpanRecord`] — one completed span or instant: id, parent link,
//!   trace id, track (control plane on sim time vs. datapath on host
//!   time), start, duration, and up to two numeric args.
//! * Ring semantics — the one [`Ring`]: bounded, drop-oldest,
//!   with **exact** drop accounting ([`Tracer::dropped`]): a long
//!   run can never grow without bound, and saturation is visible, not
//!   silent. Because parents begin before their children, retained
//!   spans always keep parent-before-child order.
//! * [`chrome_trace_json`] — export as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto), with the control
//!   plane and the datapath as separate processes because they run on
//!   different timebases.
//! * [`waterfall_records`] — synthetic contiguous spans derived from a
//!   hub's §5 and redundancy views, so the exported waterfall's phase
//!   durations sum *exactly* to the measured MTTR even when the live
//!   ring dropped events.
//!
//! # Example
//!
//! ```
//! use tcpfo_telemetry::span::{SpanTrack, Tracer};
//!
//! let tracer = Tracer::attached(64);
//! let span = tracer
//!     .begin(SpanTrack::Control, "chain", "promotion", 1_000)
//!     .unwrap();
//! tracer.instant(SpanTrack::Control, "chain", "takeover", 1_500);
//! tracer.end(&span, 2_000);
//! assert_eq!(tracer.len(), 2);
//! let chrome = tracer.chrome_trace(&[]);
//! assert!(chrome.contains("\"traceEvents\""));
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::audit::TraceId;
use crate::json::{array, JsonObject};
use crate::latency::{Stage, StageTotals};
use crate::ring::Ring;
use crate::timeline::{FailoverPhase, MttrBreakdown, RedundancyPhase};
use crate::Telemetry;

/// Default span ring capacity (records).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// A process-unique span identifier. `0` is reserved for "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no span.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for SpanId {
    /// `s<N>`, or `s-` for the null id (mirroring [`TraceId`]'s `t<N>`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "s-")
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

/// The active span context: which trace and which span within it.
/// `Copy`, so the datapath can thread it through without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The PR 3 causal chain this span belongs to.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
}

/// Which timebase (and Chrome-trace process) a span belongs to. The
/// control plane runs on *simulated* nanoseconds; sampled hot-path
/// spans run on *host* nanoseconds ([`crate::latency::HostClock`]).
/// Chrome tracks must not mix timebases, so each gets its own pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanTrack {
    /// Failover control plane: detector, chain controller, VIP
    /// takeover, reprovisioning. Timestamps are sim nanoseconds.
    Control,
    /// Sampled datapath spans (batch + per-stage). Timestamps are host
    /// nanoseconds.
    Hotpath,
}

impl SpanTrack {
    /// Chrome trace-event process id for this track.
    pub fn pid(self) -> u32 {
        match self {
            SpanTrack::Control => 1,
            SpanTrack::Hotpath => 2,
        }
    }

    /// Human process name for the Chrome export.
    pub fn process_name(self) -> &'static str {
        match self {
            SpanTrack::Control => "tcpfo control plane (sim ns)",
            SpanTrack::Hotpath => "tcpfo datapath (host ns)",
        }
    }

    /// Stable lowercase name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanTrack::Control => "control",
            SpanTrack::Hotpath => "hotpath",
        }
    }
}

/// Whether a record is a duration span or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A `[start, start+dur]` interval.
    Span,
    /// A point-in-time marker.
    Instant,
}

/// One numeric span argument: `&'static str` key, `u64` value — no
/// heap, so recording stays zero-alloc.
pub type SpanArg = (&'static str, u64);

/// One recorded span or instant. `Copy`: the ring is a flat array of
/// these, and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span id ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// The causal chain the span belongs to.
    pub trace: TraceId,
    /// Timebase / Chrome process.
    pub track: SpanTrack,
    /// Span vs. instant.
    pub kind: SpanKind,
    /// Emitting component lane (Chrome thread), e.g. `detector`.
    pub lane: &'static str,
    /// Event name, e.g. `promotion`.
    pub name: &'static str,
    /// Start (or occurrence) time in the track's timebase.
    pub start_ns: u64,
    /// Duration; 0 for instants and still-open spans.
    pub dur_ns: u64,
    /// Whether the span was begun but never ended (yet).
    pub open: bool,
    /// Up to two numeric args.
    pub args: [Option<SpanArg>; 2],
}

impl SpanRecord {
    /// One-line rendering for text dumps:
    /// `[1ms+2ms] control/chain takeover.retransmit T5/S3<-S2 flows=8`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "[{}{}] {}/{} {} {}/{}",
            crate::fmt_nanos(self.start_ns),
            if self.kind == SpanKind::Span {
                format!("+{}", crate::fmt_nanos(self.dur_ns))
            } else {
                String::new()
            },
            self.track.name(),
            self.lane,
            self.name,
            self.trace,
            self.id,
        );
        if !self.parent.is_none() {
            out.push_str(&format!("<-{}", self.parent));
        }
        if self.open {
            out.push_str(" open");
        }
        for (k, v) in self.args.iter().flatten() {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }

    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.u64("id", self.id.0)
            .u64("parent", self.parent.0)
            .u64("trace", self.trace.0)
            .string("track", self.track.name())
            .string(
                "kind",
                match self.kind {
                    SpanKind::Span => "span",
                    SpanKind::Instant => "instant",
                },
            )
            .string("lane", self.lane)
            .string("name", self.name)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.dur_ns)
            .raw("open", self.open.to_string());
        let mut args = JsonObject::new();
        for (k, v) in self.args.iter().flatten() {
            args.u64(k, *v);
        }
        obj.raw("args", args.render());
        obj.render()
    }
}

/// A begun-but-not-yet-ended span: the `Copy` token [`Tracer::begin`]
/// hands out and [`Tracer::end`] consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSpan {
    /// The span's context (pass to children).
    pub ctx: SpanContext,
    parent: SpanId,
}

impl ActiveSpan {
    /// The context to hand to children.
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }
}

/// The armed ring and what recording keeps beside it.
#[derive(Debug)]
struct RingState {
    ring: Ring<SpanRecord>,
    /// The id the next span or instant gets.
    next_span: u64,
    /// `end` calls whose begin record had already been evicted: the
    /// duration is lost but the loss is counted.
    lost_ends: u64,
    /// The innermost live span.
    current: Option<SpanContext>,
}

impl RingState {
    fn fresh_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId(self.next_span - 1)
    }
}

/// The span recorder of one hub. Cloning shares the ring, so every
/// layer of one replica (detector, controller, bridges, reprovisioner)
/// records into a single coherent trace. Dormant by default: every
/// recording entry point finds no ring and returns — no allocation —
/// until [`Tracer::attach`] arms it.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    state: Rc<RefCell<Option<RingState>>>,
}

impl Tracer {
    /// A dormant tracer (recording is a no-op until attached).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A tracer armed with a `capacity`-record ring.
    pub fn attached(capacity: usize) -> Self {
        let t = Tracer::new();
        t.attach(capacity);
        t
    }

    /// Arms the ring (idempotent; an existing ring is kept). The ring
    /// buffer is allocated *here*, so recording afterwards never
    /// allocates.
    pub fn attach(&self, capacity: usize) {
        self.state.borrow_mut().get_or_insert_with(|| RingState {
            ring: Ring::preallocated(capacity),
            next_span: 1,
            lost_ends: 0,
            current: None,
        });
    }

    /// Whether recording is armed: whether the ring exists.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.state.borrow().is_some()
    }

    /// Runs `f` on the armed ring; `None` when detached.
    fn with_ring<R>(&self, f: impl FnOnce(&mut RingState) -> R) -> Option<R> {
        self.state.borrow_mut().as_mut().map(f)
    }

    /// Reads the armed ring; `R::default()` when detached.
    fn read<R: Default>(&self, f: impl FnOnce(&RingState) -> R) -> R {
        self.state.borrow().as_ref().map_or_else(R::default, f)
    }

    /// Begins a span as a child of the innermost live span (a fresh
    /// root trace when none is live). Returns `None` when detached.
    pub fn begin(
        &self,
        track: SpanTrack,
        lane: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> Option<ActiveSpan> {
        let current = self.state.borrow().as_ref()?.current;
        match current {
            Some(parent) => self.begin_child(parent, track, lane, name, start_ns),
            None => self.begin_root(track, lane, name, start_ns),
        }
    }

    /// Begins a root span on a fresh [`TraceId`] chain. Returns `None`
    /// when detached.
    pub fn begin_root(
        &self,
        track: SpanTrack,
        lane: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> Option<ActiveSpan> {
        if !self.is_attached() {
            return None;
        }
        self.begin_with(TraceId::fresh(), SpanId::NONE, track, lane, name, start_ns)
    }

    /// Begins a child of an explicit parent context. Returns `None`
    /// when detached.
    pub fn begin_child(
        &self,
        parent: SpanContext,
        track: SpanTrack,
        lane: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> Option<ActiveSpan> {
        self.begin_with(parent.trace, parent.span, track, lane, name, start_ns)
    }

    fn begin_with(
        &self,
        trace: TraceId,
        parent: SpanId,
        track: SpanTrack,
        lane: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> Option<ActiveSpan> {
        self.with_ring(|state| {
            let id = state.fresh_span();
            let ctx = SpanContext { trace, span: id };
            // The begin record enters the ring immediately (duration
            // patched at end): parents therefore always precede their
            // children, and drop-oldest eviction preserves that order
            // among retained spans.
            state.ring.push(SpanRecord {
                id,
                parent,
                trace,
                track,
                kind: SpanKind::Span,
                lane,
                name,
                start_ns,
                dur_ns: 0,
                open: true,
                args: [None, None],
            });
            state.current = Some(ctx);
            ActiveSpan { ctx, parent }
        })
    }

    /// Ends a span begun with one of the `begin*` entry points.
    pub fn end(&self, span: &ActiveSpan, end_ns: u64) {
        self.end_args(span, end_ns, [None, None]);
    }

    /// Ends a span, attaching up to two numeric args.
    pub fn end_args(&self, span: &ActiveSpan, end_ns: u64, args: [Option<SpanArg>; 2]) {
        self.with_ring(|state| {
            // Spans end shortly after they begin, so the open record is
            // near the back of the ring; scan from the back.
            match state.ring.iter_mut().rev().find(|r| r.id == span.ctx.span) {
                Some(rec) => {
                    rec.dur_ns = end_ns.saturating_sub(rec.start_ns);
                    rec.open = false;
                    rec.args = args;
                }
                // The begin record was evicted before the span ended: the
                // duration is lost, but the loss is counted.
                None => state.lost_ends += 1,
            }
            if state.current == Some(span.ctx) {
                state.current = (!span.parent.is_none()).then_some(SpanContext {
                    trace: span.ctx.trace,
                    span: span.parent,
                });
            }
        });
    }

    /// Records a point event under the innermost live span (fresh root
    /// trace when none is live).
    pub fn instant(&self, track: SpanTrack, lane: &'static str, name: &'static str, at_ns: u64) {
        self.instant_args(track, lane, name, at_ns, [None, None]);
    }

    /// Records a point event with up to two numeric args.
    pub fn instant_args(
        &self,
        track: SpanTrack,
        lane: &'static str,
        name: &'static str,
        at_ns: u64,
        args: [Option<SpanArg>; 2],
    ) {
        self.with_ring(|state| {
            let id = state.fresh_span();
            let (trace, parent) = match state.current {
                Some(ctx) => (ctx.trace, ctx.span),
                None => (TraceId::fresh(), SpanId::NONE),
            };
            state.ring.push(SpanRecord {
                id,
                parent,
                trace,
                track,
                kind: SpanKind::Instant,
                lane,
                name,
                start_ns: at_ns,
                dur_ns: 0,
                open: false,
                args,
            });
        });
    }

    /// The innermost live span context, for threading into children
    /// recorded elsewhere. `None` when
    /// detached or when no span is live.
    pub fn current(&self) -> Option<SpanContext> {
        self.state.borrow().as_ref()?.current
    }

    /// Records retained (oldest first).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.read(|s| s.ring.iter().copied().collect())
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.read(|s| s.ring.len())
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full (exact count).
    pub fn dropped(&self) -> u64 {
        self.read(|s| s.ring.dropped())
    }

    /// `end` calls whose begin record had already been evicted.
    pub fn lost_ends(&self) -> u64 {
        self.read(|s| s.lost_ends)
    }

    /// The configured ring capacity (0 when never attached).
    pub fn capacity(&self) -> usize {
        self.read(|s| s.ring.capacity())
    }

    /// JSON dump of the retained records plus drop accounting, for
    /// flight-recorder bundles and `export_json`.
    pub fn to_json(&self) -> String {
        let recs: Vec<String> = self.records().iter().map(SpanRecord::to_json).collect();
        let mut obj = JsonObject::new();
        obj.raw("attached", self.is_attached().to_string())
            .u64("capacity", self.capacity() as u64)
            .u64("dropped", self.dropped())
            .u64("lost_ends", self.lost_ends())
            .raw("spans", array(&recs));
        obj.render()
    }

    /// Chrome trace-event JSON of the retained records, with `extra`
    /// synthetic records (e.g. [`waterfall_records`]) merged in.
    pub fn chrome_trace(&self, extra: &[SpanRecord]) -> String {
        let mut recs = self.records();
        recs.extend_from_slice(extra);
        chrome_trace_json(&recs)
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Renders records as Chrome trace-event JSON (the object form, with
/// `traceEvents`), loadable in `chrome://tracing` and Perfetto.
/// Complete spans map to `"ph": "X"` events, instants to `"ph": "i"`;
/// the two [`SpanTrack`]s become separate processes because they run
/// on different timebases, and each lane becomes a named thread.
/// Timestamps are microseconds with nanosecond fractions.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    // Stable lane → tid assignment, in first-seen order per track.
    let mut lanes: Vec<(u32, &'static str)> = Vec::new();
    let mut tid_of = |track: SpanTrack, lane: &'static str| -> usize {
        match lanes
            .iter()
            .position(|&(p, l)| p == track.pid() && l == lane)
        {
            Some(i) => i + 1,
            None => {
                lanes.push((track.pid(), lane));
                lanes.len()
            }
        }
    };
    let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut events: Vec<String> = Vec::new();
    for track in [SpanTrack::Control, SpanTrack::Hotpath] {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            track.pid(),
            track.process_name(),
        ));
    }
    let mut named: Vec<(u32, usize)> = Vec::new();
    for r in records {
        let pid = r.track.pid();
        let tid = tid_of(r.track, r.lane);
        if !named.contains(&(pid, tid)) {
            named.push((pid, tid));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                r.lane,
            ));
        }
        let mut args = format!(
            "\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{}",
            r.trace.0, r.id.0, r.parent.0
        );
        for (k, v) in r.args.iter().flatten() {
            args.push_str(&format!(",\"{k}\":{v}"));
        }
        if r.open {
            args.push_str(",\"open\":1");
        }
        match r.kind {
            SpanKind::Span => events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                r.name,
                r.lane,
                us(r.start_ns),
                us(r.dur_ns),
            )),
            SpanKind::Instant => events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
                r.name,
                r.lane,
                us(r.start_ns),
            )),
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Synthetic waterfall spans derived from `hub`'s views: one parent
/// `failover` span whose five [`MttrBreakdown::PHASES`] children are
/// contiguous and sum exactly to the measured MTTR, plus, once the
/// latest round restored redundancy, a `redundancy_restore` span with
/// `reprovision` / `catchup` children. Empty until the §5 view is
/// complete. These ride the Control track next to the live-recorded
/// spans, so the exported waterfall is exact even when the live ring
/// dropped events.
pub fn waterfall_records(hub: &Telemetry) -> Vec<SpanRecord> {
    let Some(mttr) = hub.timeline.mttr() else {
        return Vec::new();
    };
    // (parent id, name, start, duration); a span's id is its position + 1.
    let failure_at = hub.timeline.at(FailoverPhase::Failure).unwrap_or(0);
    let mut spans = vec![(0, "failover", failure_at, mttr.total_ns)];
    let mut cursor = failure_at;
    for (name, dur) in MttrBreakdown::PHASES.into_iter().zip(mttr.deltas()) {
        spans.push((1, name, cursor, dur));
        cursor += dur;
    }
    let round = &hub.redundancy;
    let start = round.at(RedundancyPhase::ReprovisionStart);
    if let (Some(start), Some(red)) = (start, round.restoration()) {
        let root = spans.len() as u64 + 1;
        spans.push((0, "redundancy_restore", start, red.total_ns));
        spans.push((root, "reprovision", start, red.reprovision_ns));
        spans.push((root, "catchup", start + red.reprovision_ns, red.catchup_ns));
    }
    let trace = TraceId::fresh();
    let record = |(id, (parent, name, start_ns, dur_ns))| SpanRecord {
        id: SpanId(id),
        parent: SpanId(parent),
        trace,
        track: SpanTrack::Control,
        kind: SpanKind::Span,
        lane: "waterfall",
        name,
        start_ns,
        dur_ns,
        open: false,
        args: [None, None],
    };
    (1..).zip(spans).map(record).collect()
}

/// Default batches between sampled hot-path batch spans.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 64;

/// The datapath's hot-path span recorder: samples one batch in every
/// `period` ([`DEFAULT_SAMPLE_PERIOD`] by default) onto the
/// [`SpanTrack::Hotpath`] track, with
/// one child span per PR5 pipeline stage sized from the stage-latency
/// deltas the batch produced. Attached to a bridge as
/// `Option<Box<SpanSampler>>` — detached costs nothing, attached but
/// with the tracer detached costs one counter increment and one check
/// for the ring per batch, and sampled batches record into the
/// tracer's pre-allocated ring (no allocation on the hot path).
#[derive(Debug)]
pub struct SpanSampler {
    tracer: Tracer,
    period: u64,
    batches: u64,
    sampled: u64,
    /// Host-clock start of the in-flight sampled batch.
    open_at: Option<u64>,
    /// Context of the most recent sampled batch span, for a caller
    /// that wants to link its own measurement to the trace.
    last_ctx: Option<SpanContext>,
}

impl SpanSampler {
    /// A sampler recording into `tracer` every `period` batches.
    pub fn new(tracer: Tracer, period: u64) -> Self {
        SpanSampler {
            tracer,
            period: period.max(1),
            batches: 0,
            sampled: 0,
            open_at: None,
            last_ctx: None,
        }
    }

    /// A sampler with the default period.
    pub fn with_default_period(tracer: Tracer) -> Self {
        SpanSampler::new(tracer, DEFAULT_SAMPLE_PERIOD)
    }

    /// Batches that produced a span.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Context of the most recent sampled batch span, if any.
    pub fn last_ctx(&self) -> Option<SpanContext> {
        self.last_ctx
    }

    /// Called before a batch is processed. Returns whether this batch
    /// is sampled; when it is, the host clock is read once so the
    /// batch span starts at the true processing start.
    pub fn start_batch(&mut self) -> bool {
        let n = self.batches;
        self.batches += 1;
        if !self.tracer.is_attached() || !n.is_multiple_of(self.period) {
            self.open_at = None;
            return false;
        }
        self.open_at = Some(crate::latency::HostClock::now_ns());
        true
    }

    /// Called after a sampled batch (one where [`SpanSampler::start_batch`]
    /// returned true) finished processing. Records the batch span on
    /// the hot-path track and, when the stage totals were taken around
    /// the batch, one contiguous child span per pipeline stage sized by
    /// that stage's latency-sum delta.
    pub fn finish_batch(
        &mut self,
        segments: u64,
        before: Option<&StageTotals>,
        after: Option<&StageTotals>,
    ) {
        let Some(t0) = self.open_at.take() else {
            return;
        };
        let Some(batch) = self
            .tracer
            .begin_root(SpanTrack::Hotpath, "datapath", "batch", t0)
        else {
            return;
        };
        self.sampled += 1;
        self.last_ctx = Some(batch.ctx);
        let t1 = crate::latency::HostClock::now_ns().max(t0);
        if let (Some(before), Some(after)) = (before, after) {
            // Stage children laid contiguously from the batch start in
            // pipeline order; each child's width is the host time that
            // stage consumed across the whole batch. Placement within
            // the batch is therefore schematic, the widths are exact.
            let mut cursor = t0;
            for (stage, ((sum0, n0), (sum1, n1))) in
                Stage::ALL.into_iter().zip(before.iter().zip(after))
            {
                let d = sum1.saturating_sub(*sum0);
                let hits = n1.saturating_sub(*n0);
                if hits == 0 {
                    continue;
                }
                if let Some(child) = self.tracer.begin_child(
                    batch.ctx,
                    SpanTrack::Hotpath,
                    "datapath",
                    stage.name(),
                    cursor,
                ) {
                    cursor = (cursor + d).min(t1);
                    self.tracer
                        .end_args(&child, cursor, [Some(("hits", hits)), None]);
                }
            }
        }
        self.tracer
            .end_args(&batch, t1, [Some(("segments", segments)), None]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_tracer_is_dormant() {
        let t = Tracer::new();
        assert!(!t.is_attached());
        assert!(t.begin(SpanTrack::Control, "x", "y", 0).is_none());
        t.instant(SpanTrack::Control, "x", "y", 0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(t.current().is_none());
        assert_eq!(t.capacity(), 0);
    }

    #[test]
    fn spans_nest_and_patch_duration() {
        let t = Tracer::attached(16);
        let root = t
            .begin(SpanTrack::Control, "chain", "failover", 100)
            .unwrap();
        assert_eq!(t.current(), Some(root.ctx));
        let child = t
            .begin(SpanTrack::Control, "chain", "promotion", 150)
            .unwrap();
        assert_eq!(child.ctx.trace, root.ctx.trace, "child shares the trace");
        t.instant(SpanTrack::Control, "chain", "veto", 160);
        t.end_args(&child, 200, [Some(("vetoes", 1)), None]);
        assert_eq!(t.current(), Some(root.ctx), "end pops back to parent");
        t.end(&root, 300);
        assert!(t.current().is_none());
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].name, "failover");
        assert_eq!(recs[0].dur_ns, 200);
        assert!(!recs[0].open);
        assert_eq!(recs[1].parent, recs[0].id);
        assert_eq!(recs[1].dur_ns, 50);
        assert_eq!(recs[1].args[0], Some(("vetoes", 1)));
        assert_eq!(recs[2].kind, SpanKind::Instant);
        assert_eq!(recs[2].parent, recs[1].id, "instant under innermost span");
        assert!(
            recs[0].summary().contains("failover"),
            "{}",
            recs[0].summary()
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts_exactly() {
        let t = Tracer::attached(2);
        for i in 0..5u64 {
            t.instant(SpanTrack::Control, "x", "e", i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let recs = t.records();
        assert_eq!(recs[0].start_ns, 3);
        assert_eq!(recs[1].start_ns, 4);
    }

    #[test]
    fn end_after_eviction_counts_lost() {
        let t = Tracer::attached(1);
        let s = t.begin(SpanTrack::Control, "x", "long", 0).unwrap();
        t.instant(SpanTrack::Control, "x", "evictor", 1);
        t.end(&s, 10);
        assert_eq!(t.lost_ends(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn chrome_export_has_processes_threads_and_events() {
        let t = Tracer::attached(16);
        let s = t
            .begin(SpanTrack::Control, "detector", "detect", 1_000)
            .unwrap();
        t.end(&s, 3_500);
        t.instant(SpanTrack::Hotpath, "bridge", "first_byte", 2_000);
        let json = t.chrome_trace(&[]);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("tcpfo control plane (sim ns)"), "{json}");
        assert!(json.contains("tcpfo datapath (host ns)"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ts\":1.000"), "{json}");
        assert!(json.contains("\"dur\":2.500"), "{json}");
        assert!(json.contains("\"name\":\"detector\""), "{json}");
    }

    #[test]
    fn waterfall_sums_to_mttr_and_redundancy() {
        let hub = Telemetry::new();
        let event = |kind, at| hub.event(at, "test", kind, &[], [None, None]);
        for (kind, at) in [("kill", 10), ("peer_dead", 30), ("takeover.arp", 70)] {
            event(kind, at);
        }
        assert!(
            waterfall_records(&hub).is_empty(),
            "incomplete timeline yields nothing"
        );
        event("first_client_byte", 100);
        event("reprovision.begin", 110);
        event("reprovision.handoff_done", 150);
        event("reprovision.restored", 230);
        let recs = waterfall_records(&hub);
        assert_eq!(recs.len(), 1 + 5 + 3);
        let root = &recs[0];
        assert_eq!(root.name, "failover");
        assert_eq!(root.start_ns, 10);
        assert_eq!(root.dur_ns, 90);
        let phase_sum: u64 = recs[1..6].iter().map(|r| r.dur_ns).sum();
        assert_eq!(phase_sum, root.dur_ns, "phases sum exactly to MTTR");
        // Phases are contiguous.
        for w in recs[1..6].windows(2) {
            assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
        }
        let rroot = &recs[6];
        assert_eq!(rroot.name, "redundancy_restore");
        assert_eq!(rroot.dur_ns, 120);
        assert_eq!(recs[7].dur_ns + recs[8].dur_ns, rroot.dur_ns);
    }
}
