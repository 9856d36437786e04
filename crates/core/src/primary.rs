//! The primary server bridge (§3.2–§3.4, §4, §6, §8).
//!
//! Sits between the primary's TCP and IP layers. For every failover
//! connection it:
//!
//! * holds the TCP layer's output in the *primary output queue*,
//!   sequence-normalised by `Δseq = seq_P,init − seq_S,init`;
//! * receives the secondary's diverted output (carrying the original
//!   destination as a TCP option) into the *secondary output queue*;
//! * releases to the client only bytes present in **both** queues, in
//!   segments carrying the secondary's sequence numbers,
//!   `ack = min(ack_P, ack_S)` and `win = min(win_P, win_S)`;
//! * synthesises empty ACK segments when the minimum acknowledgment
//!   advances without matched payload (the §3.4 deadlock rule);
//! * recognises retransmissions (content entirely below `send_next`)
//!   and forwards them immediately instead of enqueueing (§4);
//! * translates client acknowledgments up into the primary's sequence
//!   space (`ack + Δseq`) on ingress;
//! * merges the three-way handshake (client- and server-initiated, §7)
//!   advertising `MSS = min(MSS_P, MSS_S)`;
//! * tears down per-connection state per §8, ACKing late FIN
//!   retransmissions from the secondary and the client itself;
//! * on secondary failure (§6) flushes the primary output queue and
//!   degrades to pass-through *while still subtracting `Δseq`*.
//!
//! A bridge with nobody below it is in §6 from the start: that is a
//! daisy chain's tail, the pair's S among them, whose every flow is a
//! pass-through entry with `Δseq = 0` (see [`PrimaryBridge::link`]).
//!
//! Per-connection state lives in one [`FlowTable`] (see
//! [`crate::flow`]): bounded capacity with least-recently-active
//! eviction, an explicit
//! lifecycle, and timer-driven GC that expires §8 tombstones. A batch
//! is filtered one segment at a time, in input order.
//!
//! One module per seam of the paper: this one is the bridge's API, its
//! telemetry and the batch entry; `datapath` resolves a segment's flow
//! and runs it through the engine bound to the table; `merge` is the
//! §3/§4/§7 merge (`Conn`, the `Emitter`, release, SYN merge,
//! retransmission); `residue` is §6 and §8 (tombstones, pass-through,
//! degradation, joining, teardown, late FINs, eviction); `routing` is
//! §5 and the chain routing.

mod datapath;
mod merge;
mod residue;
mod routing;

use self::merge::{BELOW, OURS};
use self::residue::PrimaryFlow;
use crate::designation::{ConnKey, FailoverConfig};
use crate::flow::{FlowGauges, FlowState, FlowStats, FlowTable, FlowTableConfig};
use crate::observers::{Observers, Queued};
use bytes::BytesMut;
use tcpfo_net::ShardExecutor;
use tcpfo_tcp::filter::{AddressedSegment, BatchDir, FailoverRule, FilterOutput, SegmentFilter};
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::{
    Counter, Gauge, HealthObservatory, InvariantAuditor, LatencyObservatory, Scope, SpanContext,
    SpanSampler, StageLatency, Telemetry,
};
use tcpfo_wire::ipv4::Ipv4Addr;

/// How often the timer-driven flow-table GC actually sweeps (the host
/// tick fires far more often), in sim nanoseconds.
const GC_INTERVAL_NANOS: u64 = 1_000_000_000;

/// Flows one GC tick may reap: the pause bound. A tick costs
/// O(min(due, budget)), never O(capacity).
const MAX_REAPS_PER_TICK: usize = 4_096;

/// Flows reaped after every batch: amortises expiry into the datapath
/// instead of letting it pile up for the tick.
const MAX_REAPS_PER_BATCH: usize = 64;

/// Operating mode of the primary bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryMode {
    /// Normal duplex operation with a live secondary.
    Normal,
    /// §6: the secondary failed; pass segments through immediately,
    /// keep subtracting `Δseq`, leave ack/window untouched.
    SecondaryFailed,
}

/// Counters exposed for tests and the evaluation harness.
#[derive(Debug, Default, Clone)]
pub struct PrimaryStats {
    /// Data segments released to the client after matching.
    pub merged_segments: u64,
    /// Payload bytes released to the client.
    pub merged_bytes: u64,
    /// Synthesised empty ACK segments (§3.4).
    pub empty_acks: u64,
    /// Retransmissions recognised and forwarded immediately (§4).
    pub retransmissions_forwarded: u64,
    /// Client segments whose ack field was translated by `+Δseq`.
    pub acks_translated: u64,
    /// ACKs synthesised for late FINs after state deletion (§8).
    pub late_fin_acks: u64,
    /// Cross-queue payload mismatches (replica non-determinism).
    pub mismatched_bytes: u64,
    /// Segments dropped for arriving in an impossible state.
    pub drops: u64,
    /// FIN segments released to the client.
    pub fins_sent: u64,
    /// Connections fully torn down.
    pub conns_closed: u64,
    /// Flows pushed out of the table under capacity pressure.
    pub evicted_flows: u64,
    /// RST segments synthesised to reset evicted live connections.
    pub evicted_rsts: u64,
    /// Flow entries reaped by the timer-driven GC (TTL expiry).
    pub flows_reaped: u64,
    /// Link: merged segments diverted one hop up, not to the client.
    pub diverted_upstream: u64,
    /// Link: client datagrams rewritten `vip → own` for the local stack.
    pub ingress_rewrites: u64,
    /// Link: segments with no header room for the orig-dest option,
    /// forwarded undiverted (the merge emits at most 12 option bytes).
    pub divert_fallbacks: u64,
    /// Flows adopted from a reprovisioning handoff.
    pub adopted_flows: u64,
    /// Below the head: designated non-SYN client segments of a flow the
    /// table does not hold, dropped (§8 join gate). The stack
    /// never witnessed that connection's establishment and would answer
    /// a mid-stream segment with a RST — in the *live* sequence space,
    /// since the RST echoes the client's ACK.
    pub unwitnessed_dropped: u64,
}

/// Every [`PrimaryStats`] counter under its registry name: the one list
/// [`PrimaryBridge::set_telemetry`] registers and
/// [`PrimaryBridge::sync_telemetry`] publishes.
const COUNTERS: [(&str, Count); 18] = [
    ("merged_segments", |s| s.merged_segments),
    ("merged_bytes", |s| s.merged_bytes),
    ("empty_acks", |s| s.empty_acks),
    ("retransmissions_forwarded", |s| s.retransmissions_forwarded),
    ("acks_translated", |s| s.acks_translated),
    ("late_fin_acks", |s| s.late_fin_acks),
    ("mismatched_bytes", |s| s.mismatched_bytes),
    ("drops", |s| s.drops),
    ("fins_sent", |s| s.fins_sent),
    ("conns_closed", |s| s.conns_closed),
    ("evicted_flows", |s| s.evicted_flows),
    ("evicted_rsts", |s| s.evicted_rsts),
    ("flows_reaped", |s| s.flows_reaped),
    ("diverted_upstream", |s| s.diverted_upstream),
    ("ingress_rewrites", |s| s.ingress_rewrites),
    ("divert_fallbacks", |s| s.divert_fallbacks),
    ("adopted_flows", |s| s.adopted_flows),
    ("unwitnessed_dropped", |s| s.unwitnessed_dropped),
];

/// Reads one counter out of a [`PrimaryStats`].
type Count = fn(&PrimaryStats) -> u64;

/// Registry handles mirroring [`PrimaryStats`] plus output-queue depth
/// gauges, all under one scope: `core.primary`, or `core.secondary` on
/// a bridge built with nobody below. Every replica has its own hub, so
/// the role no longer tells two bridges apart; the names stay because
/// the journal goldens pin `core.primary` and `core.secondary`.
struct PrimaryInstruments {
    hub: Telemetry,
    /// The scope's name, for journal entries.
    name: &'static str,
    /// The scope the observers publish under, built once here so the
    /// host tick never formats a name.
    scope: Scope,
    /// One per [`COUNTERS`] entry.
    counters: [Counter; COUNTERS.len()],
    pq_depth: Gauge,
    sq_depth: Gauge,
    /// Bytes queued on each side across the flows, indexed by [`OURS`]
    /// and [`BELOW`]: kept current through [`crate::observers::Lag`] at
    /// every insert, match and flow departure, so the tick publishes
    /// `pq_depth` / `sq_depth` without walking the table.
    queued: Queued,
    /// Flow-table gauges under `core.primary.flow`.
    flow_gauges: FlowGauges,
}

impl PrimaryInstruments {
    /// Appends an event to the journal.
    fn record(&self, now_ns: u64, kind: &str, fields: &[(&str, String)]) {
        self.hub.journal.record(now_ns, self.name, kind, fields);
    }
}

/// The primary server bridge; install as the primary host's
/// [`SegmentFilter`]. Built by [`PrimaryBridge::link`] it is one link of
/// a daisy chain (see [`crate::chain`]) — the tail included: the same
/// merge and §6 pass-through, its output routed by the link's place in
/// the chain.
///
/// # Example
///
/// ```
/// use tcpfo_core::{FailoverConfig, PrimaryBridge, PrimaryMode};
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// let a_p = Ipv4Addr::new(10, 0, 0, 2);
/// let a_s = Ipv4Addr::new(10, 0, 0, 3);
/// let mut bridge = PrimaryBridge::new(a_p, a_s, FailoverConfig::from_ports([80]));
/// assert_eq!(bridge.mode(), PrimaryMode::Normal);
/// // When the fault detector reports the secondary dead (§6):
/// let flush = bridge.secondary_failed(0);
/// assert_eq!(bridge.mode(), PrimaryMode::SecondaryFailed);
/// assert!(flush.to_wire.is_empty()); // no connections were open
/// ```
pub struct PrimaryBridge {
    /// The service address clients connect to (the VIP).
    a_p: Ipv4Addr,
    /// The downstream replica whose diverted stream is merged; `None`
    /// on a bridge built with nobody below (a tail). Kept when it dies.
    a_s: Option<Ipv4Addr>,
    /// This host's own address: where the downstream diverts to and
    /// where the local TCBs live. `a_p` on a head that owns the VIP.
    own: Ipv4Addr,
    /// Next replica toward the head; `None` on the head itself.
    upstream: Option<Ipv4Addr>,
    config: FailoverConfig,
    mode: PrimaryMode,
    /// All per-connection state: live connections and §6/§8 residue.
    flows: FlowTable<PrimaryFlow>,
    /// ABLATION ONLY (defaults off): acknowledge with the primary's own
    /// ack instead of `min(ack_P, ack_S)`. Violates requirement 2 of
    /// §2 — after a primary failure the secondary may lack bytes the
    /// client was told were received and can never get them back.
    /// Exists so the test suite can demonstrate the rule is
    /// load-bearing (`tests/min_ack_ablation.rs`).
    pub unsafe_ack_without_min: bool,
    /// Statistics.
    pub stats: PrimaryStats,
    telemetry: Option<PrimaryInstruments>,
    /// Recycled egress scratch for template-emitted segments: once the
    /// previously emitted bytes are dropped downstream, the next emit
    /// reclaims the allocation.
    emit_buf: BytesMut,
    /// Recycled buffer for segments diverted upstream (the option
    /// grows the segment past the exact-capacity buffer it was emitted
    /// into, which would force a `SegmentPatcher` to reallocate).
    divert_buf: BytesMut,
    /// Set on promotion: the next payload released to the client is the
    /// §5 `first_client_byte` moment.
    watch_first_byte: bool,
    /// Everything that watches this bridge (DESIGN § Observer seam).
    observers: Observers,
    /// Last time the flow-table GC swept.
    last_gc: u64,
}

/// A diagnostic snapshot of one tracked connection (for inspection
/// tools such as `tcpfo-inspect`).
#[derive(Debug, Clone)]
pub struct ConnRow {
    /// Client socket address.
    pub client: SocketAddr,
    /// Local server port.
    pub server_port: u16,
    /// `Δseq`, once the handshake merged.
    pub delta: Option<u32>,
    /// Effective MSS: `min(MSS_P, MSS_S)`.
    pub mss: u16,
    /// Next client-facing sequence number (S space).
    pub send_next: u32,
    /// Buffered bytes in the primary output queue.
    pub pq_bytes: usize,
    /// Buffered bytes in the secondary output queue.
    pub sq_bytes: usize,
    /// `min(ack_P, ack_S)` when both replicas have acknowledged.
    pub min_ack: Option<u32>,
    /// `min(win_P, win_S)`.
    pub min_win: u16,
    /// Whether the merged FIN has been released.
    pub fin_sent: bool,
}

impl PrimaryBridge {
    /// Creates a bridge for primary `a_p` paired with secondary `a_s`:
    /// the head that owns the VIP, with the default flow table (65 536
    /// flows); resize it with [`PrimaryBridge::set_flow_config`].
    pub fn new(a_p: Ipv4Addr, a_s: Ipv4Addr, config: FailoverConfig) -> Self {
        Self::link(a_p, a_p, None, Some(a_s), config)
    }

    /// Creates the bridge for one link of a daisy chain serving `vip`:
    /// the host at `own` merges its TCP output against the stream
    /// `downstream` diverts to it, and the merged result goes one hop
    /// up to `upstream` — or, on the head (`None`), to the client. With
    /// nobody below (`downstream` `None`: the tail) the bridge starts in
    /// §6 mode, and every flow it witnesses passes through at
    /// `Δseq = 0`.
    pub fn link(
        vip: Ipv4Addr,
        own: Ipv4Addr,
        upstream: Option<Ipv4Addr>,
        downstream: Option<Ipv4Addr>,
        config: FailoverConfig,
    ) -> Self {
        PrimaryBridge {
            a_p: vip,
            a_s: downstream,
            own,
            upstream,
            config,
            mode: match downstream {
                Some(_) => PrimaryMode::Normal,
                None => PrimaryMode::SecondaryFailed,
            },
            flows: FlowTable::new(FlowTableConfig::default()),
            unsafe_ack_without_min: false,
            stats: PrimaryStats::default(),
            telemetry: None,
            emit_buf: BytesMut::with_capacity(2048),
            divert_buf: BytesMut::with_capacity(2048),
            watch_first_byte: false,
            observers: Observers::default(),
            last_gc: 0,
        }
    }

    /// Rebuilds the flow table with a new capacity, migrating every
    /// resident entry. Entries that no longer fit are dropped and
    /// counted as evictions.
    pub fn set_flow_config(&mut self, config: FlowTableConfig) {
        let mut table = FlowTable::new(config);
        // Slot-cursor drain: slab order, no key collection — the slot
        // count is fixed while we only remove.
        for i in 0..self.flows.slot_count() {
            if let Some(ev) = self.flows.take_slot(i) {
                if let (_, Some(dropped)) = table.insert(ev.key, ev.state, ev.data, 0) {
                    self.stats.evicted_flows += 1;
                    let queued = self.telemetry.as_ref().map(|t| &t.queued);
                    dropped.data.left(&mut self.observers.lag(queued));
                }
            }
        }
        self.flows = table;
    }

    /// Everything that watches this bridge.
    pub fn observers(&self) -> &Observers {
        &self.observers
    }

    /// Mutable access to the observers: attach, detach or read one
    /// through its field.
    pub fn observers_mut(&mut self) -> &mut Observers {
        &mut self.observers
    }

    // The four setters below are stores into [`Observers`], kept under
    // these names because the standing benchmark builds its bridges
    // with them (`benchmark/README.md` § What the benchmark calls).

    /// Attaches (or detaches) the online invariant auditor.
    pub fn set_audit(&mut self, audit: Option<Box<InvariantAuditor>>) {
        self.observers.audit = audit;
    }

    /// Attaches (or detaches) the per-stage latency observatory.
    pub fn set_latency(&mut self, latency: Option<Box<LatencyObservatory>>) {
        self.observers.latency = latency;
    }

    /// Attaches (or detaches) the replica health & replication-lag
    /// observatory. Attaching mid-run seeds the lag ledger from the
    /// current queues so the gauge stays exact.
    pub fn set_health(&mut self, health: Option<Box<HealthObservatory>>) {
        self.observers.health = health;
        let mut lag = self.observers.lag(None);
        for (_, _, f) in self.flows.iter() {
            if let PrimaryFlow::Live(c) = f {
                lag.queue_changed(0, c.held(), c.mss);
            }
        }
    }

    /// Attaches (or detaches) the hot-path span sampler.
    pub fn set_trace(&mut self, trace: Option<Box<SpanSampler>>) {
        self.observers.trace = trace;
    }

    /// Diagnostic rows for every tracked connection, in no particular
    /// order (inspection tools sort).
    pub fn connection_rows(&self) -> Vec<ConnRow> {
        self.flows
            .iter()
            .filter_map(|(key, _, f)| match f {
                PrimaryFlow::Live(c) => Some(ConnRow {
                    client: key.peer,
                    server_port: key.server_port,
                    delta: c.delta,
                    mss: c.mss,
                    send_next: c.send_next,
                    pq_bytes: c.sides[OURS].queue.len(),
                    sq_bytes: c.sides[BELOW].queue.len(),
                    min_ack: c.min_ack(),
                    min_win: c.min_win(),
                    fin_sent: c.fin_sent,
                }),
                PrimaryFlow::Tomb(_) => None,
            })
            .collect()
    }

    /// Connects the bridge to a telemetry hub: mirrors
    /// [`PrimaryStats`] onto registry counters under `core.primary` —
    /// `core.secondary` with nobody below —, tracks output-queue depths
    /// and the flow-table gauges, and journals its control moments
    /// (sync, flow eviction, degradation); bare ACKs and forwarded
    /// retransmissions are counted only. Attaching mid-run seeds the
    /// queue totals from the current queues, once.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let name = match self.a_s {
            Some(_) => "core.primary",
            None => "core.secondary",
        };
        let scope = telemetry.registry.scope(name);
        let queued = Queued::default();
        for (_, _, f) in self.flows.iter() {
            if let PrimaryFlow::Live(c) = f {
                for (total, side) in queued.iter().zip(&c.sides) {
                    total.set(total.get() + side.queue.len() as u64);
                }
            }
        }
        self.telemetry = Some(PrimaryInstruments {
            queued,
            hub: telemetry.clone(),
            name,
            counters: COUNTERS.map(|(counter, _)| scope.counter(counter)),
            pq_depth: scope.gauge("pq_depth"),
            sq_depth: scope.gauge("sq_depth"),
            flow_gauges: FlowGauges::default(),
            scope,
        });
    }

    /// Publishes [`PrimaryStats`], the summed output-queue depths and
    /// the flow-table gauges to the registry. Runs on every
    /// host tick, so it costs the same however many flows are resident:
    /// the depths are the running totals, not a walk over the table.
    /// Snapshotting code (the testbed) calls it once more so the
    /// registry is fresh even when the last event predates the
    /// snapshot.
    pub fn sync_telemetry(&mut self, now_nanos: u64) {
        let PrimaryBridge {
            flows,
            stats,
            telemetry,
            observers,
            mode,
            ..
        } = self;
        let Some(t) = telemetry else {
            return;
        };
        // In §6 mode no connection holds queues.
        let (pq, sq) = match mode {
            PrimaryMode::Normal => (t.queued[OURS].get(), t.queued[BELOW].get()),
            PrimaryMode::SecondaryFailed => (0, 0),
        };
        for ((_, count), counter) in COUNTERS.into_iter().zip(&t.counters) {
            counter.set_at_least(count(stats));
        }
        t.pq_depth.set_at(pq, now_nanos);
        t.sq_depth.set_at(sq, now_nanos);
        t.flow_gauges.publish(&t.scope, flows, now_nanos);
        observers.publish(&t.scope, now_nanos);
    }

    /// Appends an event to the journal at `now_nanos`.
    fn journal(&self, now_nanos: u64, kind: &str, fields: &[(&str, String)]) {
        if let Some(t) = &self.telemetry {
            t.record(now_nanos, kind, fields);
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> PrimaryMode {
        self.mode
    }

    /// The `Δseq` flow `key` is translated by, if the table holds it.
    pub fn flow_delta(&self, key: &ConnKey) -> Option<u32> {
        match self.flows.peek(key)? {
            PrimaryFlow::Live(c) => c.delta,
            PrimaryFlow::Tomb(t) => Some(t.delta),
        }
    }

    /// Number of tracked *live* failover connections (excludes §6/§8
    /// residue; see [`PrimaryBridge::flow_count`] for the total).
    pub fn conn_count(&self) -> usize {
        self.flows.iter().filter(|(_, st, _)| st.is_live()).count()
    }

    /// Total flow-table entries: live connections plus tombstones.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Flow-table statistics.
    pub fn flow_stats(&self) -> FlowStats {
        self.flows.stats()
    }

    /// The lifecycle state of one flow, if resident (live or tombstone).
    pub fn flow_state(&self, key: &ConnKey) -> Option<FlowState> {
        self.flows.find(key).map(|slot| self.flows.state(slot))
    }

    /// Whether the flow table holds any entry (live or tombstone) for
    /// `key`.
    pub fn flows_contain(&self, key: &ConnKey) -> bool {
        self.flows.contains(key)
    }

    /// Flow GC: reaps at most `budget` flows whose TTL ran out, §8
    /// TimeWait tombstones and long-idle live flows (a leak backstop).
    /// Backlog waits at the expiry-list fronts. O(1) when nothing is due
    /// (one list-head check per TTL class), so every batch ends with it.
    fn gc_flows(&mut self, now_nanos: u64, budget: usize) {
        let queued = self.telemetry.as_ref().map(|t| &t.queued);
        let mut lag = self.observers.lag(queued);
        self.flows
            .gc_budgeted(now_nanos, budget, &mut |ev| ev.data.left(&mut lag));
        self.stats.flows_reaped = self.flows.stats().reaped;
    }

    /// One segment in either direction: the merge datapath, then — for a
    /// segment of a failover connection — the chain routing of what it
    /// appended to `out`. The engine hands an attached auditor each
    /// segment's role; what the step put out goes to it afterwards.
    /// Inlined into each direction's entry point, so `dir` is a constant.
    #[inline(always)]
    fn filter(
        &mut self,
        dir: BatchDir,
        seg: AddressedSegment,
        now_nanos: u64,
        out: &mut FilterOutput,
    ) {
        let from = (out.to_wire.len(), out.to_tcp.len());
        let route = self.route(dir, &seg);
        let failover = self.engine(seg.trace, now_nanos).run(route, seg, out);
        if self.observers.audit.is_some() {
            self.audited_egress(failover, from, now_nanos, out);
        } else if failover && self.is_link() {
            self.route_as_link(from, now_nanos, out);
        }
    }

    /// [`PrimaryBridge::filter`]'s tail with the auditor attached: routes
    /// as it does, and hands the auditor what the step appended (from
    /// index `w0` of `to_wire`, `t0` of `to_tcp`) as the engine left it
    /// and, on a link, as routed. The routing rewrites in place, so on a
    /// link the auditor reads the unrouted output from a copy.
    #[inline(never)]
    fn audited_egress(
        &mut self,
        failover: bool,
        (w0, t0): (usize, usize),
        now_nanos: u64,
        out: &mut FilterOutput,
    ) {
        let unrouted = (failover && self.is_link()).then(|| {
            let mut step = out.to_wire[w0..].to_vec();
            step.extend_from_slice(&out.to_tcp[t0..]);
            (step, self.route_as_link((w0, t0), now_nanos, out))
        });
        let routed = [&out.to_wire[w0..], &out.to_tcp[t0..]];
        let (step, routed) = match &unrouted {
            Some((step, place)) => {
                let (wire, tcp) = step.split_at(routed[0].len());
                ([wire, tcp], Some((*place, routed)))
            }
            None => (routed, None),
        };
        if let Some(aud) = self.observers.audit.as_deref_mut() {
            aud.egress(now_nanos, self.a_s, step, routed);
        }
    }

    /// Filters a whole batch, one segment at a time in input order, and
    /// returns one [`FilterOutput`] per input; then the table drains its
    /// per-batch GC budget (`MAX_REAPS_PER_BATCH`). The span
    /// sampler brackets the whole. `_exec` is the shim
    /// `benchmark/README.md` § What the benchmark calls pins.
    pub fn process_batch(
        &mut self,
        batch: Vec<(BatchDir, AddressedSegment)>,
        now_nanos: u64,
        _exec: &ShardExecutor,
    ) -> Vec<FilterOutput> {
        let sample = self.observers.batch_start();
        let segments = batch.len() as u64;
        let outs = batch
            .into_iter()
            .map(|(dir, seg)| {
                let mut out = FilterOutput::empty();
                match dir {
                    BatchDir::Outbound => self.on_outbound_into(seg, now_nanos, &mut out),
                    BatchDir::Inbound => self.on_inbound_into(seg, now_nanos, &mut out),
                }
                out
            })
            .collect();
        self.gc_flows(now_nanos, MAX_REAPS_PER_BATCH);
        self.observers.batch_end(&sample, segments);
        outs
    }
}

impl SegmentFilter for PrimaryBridge {
    fn on_outbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput) {
        self.filter(BatchDir::Outbound, seg, now_nanos, out);
    }

    fn on_inbound_into(&mut self, seg: AddressedSegment, now_nanos: u64, out: &mut FilterOutput) {
        self.filter(BatchDir::Inbound, seg, now_nanos, out);
    }

    fn on_tick(&mut self, now_nanos: u64) {
        if now_nanos.saturating_sub(self.last_gc) >= GC_INTERVAL_NANOS {
            self.last_gc = now_nanos;
            self.gc_flows(now_nanos, MAX_REAPS_PER_TICK);
        }
        self.sync_telemetry(now_nanos);
    }

    fn designate(&mut self, rule: FailoverRule) {
        match rule {
            FailoverRule::Port(p) => self.config.add_port(p),
            FailoverRule::Tuple(t) => self.config.add_conn(ConnKey::new(t.local.port, t.remote)),
        }
    }

    fn latency_stages(&self) -> Option<&StageLatency> {
        self.observers.stages()
    }

    fn trace_context(&self) -> Option<SpanContext> {
        self.observers.trace_context()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl std::fmt::Debug for PrimaryBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryBridge")
            .field("a_p", &self.a_p)
            .field("a_s", &self.a_s)
            .field("own", &self.own)
            .field("upstream", &self.upstream)
            .field("mode", &self.mode)
            .field("flows", &self.flows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tcpfo_wire::tcp::{verify_segment_checksum, SegmentPatcher, TcpFlags, TcpSegment};

    const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
    const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const ISS_P: u32 = 5_000;
    const ISS_S: u32 = 9_000;
    const ISS_C: u32 = 100;

    fn bridge() -> PrimaryBridge {
        PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]))
    }

    fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
        AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
    }

    /// Builds a segment as the secondary bridge would divert it.
    fn diverted(seg: TcpSegment) -> AddressedSegment {
        let bytes = seg.encode(A_S, A_C).to_vec();
        let mut p = SegmentPatcher::new(bytes, A_S, A_C);
        p.push_orig_dest_option(A_C, 5555);
        p.set_pseudo_dst(A_P);
        let (bytes, src, dst) = p.finish();
        AddressedSegment::new(src, dst, bytes)
    }

    fn decode_wire(out: &FilterOutput, i: usize) -> TcpSegment {
        TcpSegment::decode(&out.to_wire[i].bytes).expect("wire segment decodes")
    }

    /// Runs the whole client-initiated handshake through the bridge and
    /// returns it established.
    fn established() -> PrimaryBridge {
        established_with_syn_ack().0
    }

    /// P's SYN+ACK as its stack sends it (`iss` its ISN).
    fn p_synack(iss: u32) -> AddressedSegment {
        raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(iss)
                .ack(ISS_C + 1)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        )
    }

    /// S's SYN+ACK as the secondary bridge diverts it (`iss` its ISN).
    fn s_synack(iss: u32) -> AddressedSegment {
        diverted(
            TcpSegment::builder(80, 5555)
                .seq(iss)
                .ack(ISS_C + 1)
                .flags(TcpFlags::SYN)
                .mss(1200)
                .window(40_000)
                .build(),
        )
    }

    /// [`established`], with the merged SYN+ACK's wire bytes.
    fn established_with_syn_ack() -> (PrimaryBridge, Bytes) {
        let mut b = bridge();
        let syn = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60_000)
                .build(),
        );
        let out = b.on_inbound(syn, 0);
        assert_eq!(out.to_tcp.len(), 1, "client SYN passes up");
        let held = b.on_outbound(p_synack(ISS_P), 0);
        assert!(held.to_wire.is_empty(), "P's SYN+ACK is held");
        let merged = b.on_inbound(s_synack(ISS_S), 0);
        assert_eq!(merged.to_wire.len(), 1);
        let syn_ack = decode_wire(&merged, 0);
        assert!(syn_ack.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(syn_ack.seq, ISS_S, "client-facing seq is the secondary's");
        assert_eq!(syn_ack.ack, ISS_C + 1);
        assert_eq!(syn_ack.mss(), Some(1200), "MSS = min(MSS_P, MSS_S)");
        assert_eq!(syn_ack.window, 40_000, "win = min(win_P, win_S)");
        assert!(verify_segment_checksum(
            merged.to_wire[0].src,
            merged.to_wire[0].dst,
            &merged.to_wire[0].bytes
        ));
        (b, merged.to_wire[0].bytes.clone())
    }

    fn p_data(seq_off: u32, payload: &'static [u8], ack: u32) -> AddressedSegment {
        raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1 + seq_off)
                .ack(ack)
                .window(50_000)
                .payload(Bytes::from_static(payload))
                .build(),
        )
    }

    fn s_data(seq_off: u32, payload: &'static [u8], ack: u32) -> AddressedSegment {
        diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1 + seq_off)
                .ack(ack)
                .window(40_000)
                .payload(Bytes::from_static(payload))
                .build(),
        )
    }

    #[test]
    fn handshake_merges_syn_acks() {
        let b = established();
        assert_eq!(b.conn_count(), 1);
    }

    #[test]
    fn data_released_only_when_both_replicas_match() {
        let mut b = established();
        // P produces first: held.
        let out = b.on_outbound(p_data(0, b"hello world", ISS_C + 1), 0);
        assert!(out.to_wire.is_empty(), "P-only data is held");
        // S produces the same bytes: released in S space.
        let out = b.on_inbound(s_data(0, b"hello world", ISS_C + 1), 0);
        assert_eq!(out.to_wire.len(), 1);
        let seg = decode_wire(&out, 0);
        assert_eq!(seg.seq, ISS_S + 1);
        assert_eq!(&seg.payload[..], b"hello world");
        assert_eq!(b.stats.merged_bytes, 11);
        assert_eq!(b.stats.mismatched_bytes, 0);
    }

    #[test]
    fn inserted_counts_flows_not_merges() {
        // A merge mutates the connection where it sits: the table's
        // `inserted` gauge is the number of flows opened, however many
        // segments each carried.
        let mut b = established();
        for i in 0..100u32 {
            let _ = b.on_outbound(p_data(i * 4, b"data", ISS_C + 1), 0);
            let out = b.on_inbound(s_data(i * 4, b"data", ISS_C + 1), 0);
            assert_eq!(out.to_wire.len(), 1, "round {i} released");
        }
        assert_eq!(b.stats.merged_segments, 100);
        assert_eq!(b.flow_stats().inserted, 1);
    }

    #[test]
    fn figure2_partial_match_keeps_remainder() {
        // The worked example of §3.4 / Figure 2: P delivers bytes the
        // bridge can only partially match; the remainder waits.
        let mut b = established();
        let _ = b.on_inbound(s_data(0, b"abcd", ISS_C + 1), 0); // S: 4 bytes
        let out = b.on_outbound(p_data(0, b"ab", ISS_C + 1), 0); // P: first 2
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!(&decode_wire(&out, 0).payload[..], b"ab");
        // P's next two bytes release the rest.
        let out = b.on_outbound(p_data(2, b"cd", ISS_C + 1), 0);
        assert_eq!(&decode_wire(&out, 0).payload[..], b"cd");
        assert_eq!(b.stats.merged_bytes, 4);
    }

    #[test]
    fn ack_and_window_are_minima() {
        let mut b = established();
        let _ = b.on_outbound(p_data(0, b"xy", ISS_C + 21), 0); // P acks further
        let out = b.on_inbound(s_data(0, b"xy", ISS_C + 11), 0); // S lags
        let seg = decode_wire(&out, 0);
        assert_eq!(seg.ack, ISS_C + 11, "min(ack_P, ack_S)");
        assert_eq!(seg.window, 40_000, "min(win_P, win_S)");
    }

    #[test]
    fn empty_ack_emitted_when_min_advances() {
        // §3.4: "TCP must send empty segments to acknowledge the client
        // segments" when the applications are silent.
        let mut b = established();
        let p_ack = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1)
                .ack(ISS_C + 50)
                .window(50_000)
                .build(),
        );
        let out = b.on_outbound(p_ack, 0);
        assert!(
            out.to_wire.is_empty(),
            "one-sided ack advance is held (min unchanged)"
        );
        let s_ack = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1)
                .ack(ISS_C + 50)
                .window(40_000)
                .build(),
        );
        let out = b.on_inbound(s_ack, 0);
        assert_eq!(out.to_wire.len(), 1, "min advanced -> bare ACK");
        let seg = decode_wire(&out, 0);
        assert!(seg.payload.is_empty());
        assert_eq!(seg.ack, ISS_C + 50);
        assert_eq!(b.stats.empty_acks, 1);
    }

    #[test]
    fn replica_re_ack_is_forwarded() {
        let mut b = established();
        let s_ack = |a| {
            diverted(
                TcpSegment::builder(80, 5555)
                    .seq(ISS_S + 1)
                    .ack(a)
                    .window(40_000)
                    .build(),
            )
        };
        let p_ack = |a| {
            raw(
                A_P,
                A_C,
                TcpSegment::builder(80, 5555)
                    .seq(ISS_P + 1)
                    .ack(a)
                    .window(50_000)
                    .build(),
            )
        };
        let _ = b.on_outbound(p_ack(ISS_C + 50), 0);
        let _ = b.on_inbound(s_ack(ISS_C + 50), 0); // emitted (advance)
                                                    // S re-acks the same value (its re-ACK of an out-of-window
                                                    // client retransmission): forwarded so the client learns.
        let out = b.on_inbound(s_ack(ISS_C + 50), 0);
        assert_eq!(out.to_wire.len(), 1, "replica re-ack forwarded");
        assert_eq!(b.stats.empty_acks, 2);
    }

    #[test]
    fn retransmission_below_send_next_is_forwarded_immediately() {
        // §4: "it does not enqueue k, but sends k immediately".
        let mut b = established();
        let _ = b.on_outbound(p_data(0, b"hello", ISS_C + 1), 0);
        let _ = b.on_inbound(s_data(0, b"hello", ISS_C + 1), 0); // released
                                                                 // P retransmits the same bytes (it missed an ack).
        let out = b.on_outbound(p_data(0, b"hello", ISS_C + 1), 0);
        assert_eq!(out.to_wire.len(), 1, "retransmission goes straight out");
        let seg = decode_wire(&out, 0);
        assert_eq!(seg.seq, ISS_S + 1);
        assert_eq!(&seg.payload[..], b"hello");
        assert_eq!(b.stats.retransmissions_forwarded, 1);
        // And S's copy too ("the bridge sends k twice").
        let out = b.on_inbound(s_data(0, b"hello", ISS_C + 1), 0);
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!(b.stats.retransmissions_forwarded, 2);
    }

    #[test]
    fn client_ack_translated_into_primary_space() {
        let mut b = established();
        let client_ack = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C + 1)
                .ack(ISS_S + 21)
                .window(60_000)
                .build(),
        );
        let out = b.on_inbound(client_ack, 0);
        assert_eq!(out.to_tcp.len(), 1);
        let seg = TcpSegment::decode(&out.to_tcp[0].bytes).unwrap();
        assert_eq!(seg.ack, ISS_P + 21, "ack raised by Δseq");
        assert!(verify_segment_checksum(
            out.to_tcp[0].src,
            out.to_tcp[0].dst,
            &out.to_tcp[0].bytes
        ));
        assert_eq!(b.stats.acks_translated, 1);
    }

    #[test]
    fn fin_released_only_when_both_replicas_closed() {
        let mut b = established();
        let p_fin = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1)
                .ack(ISS_C + 1)
                .window(50_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let out = b.on_outbound(p_fin, 0);
        assert!(out.to_wire.is_empty(), "one-sided FIN held");
        let s_fin = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1)
                .ack(ISS_C + 1)
                .window(40_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let out = b.on_inbound(s_fin, 0);
        assert_eq!(out.to_wire.len(), 1);
        let seg = decode_wire(&out, 0);
        assert!(seg.flags.contains(TcpFlags::FIN));
        assert_eq!(seg.seq, ISS_S + 1);
        assert_eq!(b.stats.fins_sent, 1);
    }

    #[test]
    fn mismatched_replica_payload_is_counted() {
        let mut b = established();
        let _ = b.on_outbound(p_data(0, b"AAAA", ISS_C + 1), 0);
        let out = b.on_inbound(s_data(0, b"AABA", ISS_C + 1), 0);
        assert_eq!(out.to_wire.len(), 1, "still released (S wins)");
        assert_eq!(
            &decode_wire(&out, 0).payload[..],
            b"AABA",
            "client-facing bytes are S's"
        );
        assert!(b.stats.mismatched_bytes > 0, "divergence must be visible");
    }

    #[test]
    fn secondary_failed_flushes_queue_and_degrades() {
        let mut b = established();
        // P produced 8 bytes the secondary never matched.
        let _ = b.on_outbound(p_data(0, b"buffered", ISS_C + 1), 0);
        let out = b.secondary_failed(1_000);
        assert_eq!(b.mode(), PrimaryMode::SecondaryFailed);
        assert_eq!(out.to_wire.len(), 1, "queue flushed (§6 step 1)");
        let seg = decode_wire(&out, 0);
        assert_eq!(seg.seq, ISS_S + 1, "flush stays in S space");
        assert_eq!(&seg.payload[..], b"buffered");
        assert_eq!(seg.ack, ISS_C + 1, "ack is now ack_P alone");
        // Subsequent P output passes straight through with seq - Δ.
        let out = b.on_outbound(p_data(8, b"after", ISS_C + 1), 0);
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!(
            decode_wire(&out, 0).seq,
            ISS_S + 9,
            "Δseq still subtracted (§6 step 3)"
        );
        // Client acks keep being translated +Δ.
        let client_ack = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C + 1)
                .ack(ISS_S + 9)
                .window(60_000)
                .build(),
        );
        let out = b.on_inbound(client_ack, 0);
        assert_eq!(
            TcpSegment::decode(&out.to_tcp[0].bytes).unwrap().ack,
            ISS_P + 9
        );
        // Diverted segments from the (dead) secondary are dropped (§6 step 2).
        let out = b.on_inbound(s_data(0, b"zombie", ISS_C + 1), 0);
        assert!(out.to_wire.is_empty() && out.to_tcp.is_empty());
    }

    #[test]
    fn late_secondary_fin_gets_acked_from_tombstone() {
        // §8: "it creates an ACK and sends it back to S".
        let mut b = established();
        close_both_sides(&mut b);
        assert_eq!(b.conn_count(), 0, "state deleted after full close");
        let late_fin = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1)
                .ack(ISS_C + 2)
                .window(40_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let out = b.on_inbound(late_fin, 0);
        assert_eq!(out.to_wire.len(), 1);
        let ack = decode_wire(&out, 0);
        assert_eq!(out.to_wire[0].dst, A_S, "sent back to the secondary");
        assert_eq!(ack.ack, ISS_S + 2, "acks the FIN");
        assert_eq!(b.stats.late_fin_acks, 1);
    }

    #[test]
    fn late_client_fin_gets_acked_from_tombstone() {
        // §8: "it creates an ACK and sends the ACK back to C".
        let mut b = established();
        close_both_sides(&mut b);
        let late_fin = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C + 1)
                .ack(ISS_S + 2)
                .window(60_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let out = b.on_inbound(late_fin, 0);
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!(out.to_wire[0].dst, A_C);
        assert_eq!(decode_wire(&out, 0).ack, ISS_C + 2);
        assert_eq!(b.stats.late_fin_acks, 1);
    }

    /// Drives a full §8 bilateral close through an established bridge.
    fn close_both_sides(b: &mut PrimaryBridge) {
        // Servers close: both FINs at stream start.
        let p_fin = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1)
                .ack(ISS_C + 1)
                .window(50_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let _ = b.on_outbound(p_fin, 0);
        let s_fin = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1)
                .ack(ISS_C + 1)
                .window(40_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let _ = b.on_inbound(s_fin, 0);
        // Client FIN+ACK of the servers' FIN.
        let client_finack = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C + 1)
                .ack(ISS_S + 2)
                .window(60_000)
                .flags(TcpFlags::FIN)
                .build(),
        );
        let _ = b.on_inbound(client_finack, 0);
        // Both replicas ack the client's FIN: min(ack) covers it.
        let p_ack = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 2)
                .ack(ISS_C + 2)
                .window(50_000)
                .build(),
        );
        let _ = b.on_outbound(p_ack, 0);
        let s_ack = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 2)
                .ack(ISS_C + 2)
                .window(40_000)
                .build(),
        );
        let _ = b.on_inbound(s_ack, 0);
    }

    #[test]
    fn server_initiated_syn_merge() {
        // §7.2: both replicas SYN towards an unreplicated back-end.
        let a_t = Ipv4Addr::new(10, 0, 0, 4);
        let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([20]));
        let p_syn = raw(
            A_P,
            a_t,
            TcpSegment::builder(20, 7000)
                .seq(ISS_P)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        let out = b.on_outbound(p_syn, 0);
        assert!(out.to_wire.is_empty(), "P's SYN held until S's arrives");
        // S's SYN, diverted with orig-dest = the back-end.
        let s_syn_seg = TcpSegment::builder(20, 7000)
            .seq(ISS_S)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(40_000)
            .build();
        let bytes = s_syn_seg.encode(A_S, a_t).to_vec();
        let mut p = SegmentPatcher::new(bytes, A_S, a_t);
        p.push_orig_dest_option(a_t, 7000);
        p.set_pseudo_dst(A_P);
        let (bytes, src, dst) = p.finish();
        let out = b.on_inbound(AddressedSegment::new(src, dst, bytes), 0);
        assert_eq!(out.to_wire.len(), 1, "merged SYN emitted to T");
        let syn = decode_wire(&out, 0);
        assert!(syn.flags.contains(TcpFlags::SYN));
        assert!(!syn.flags.contains(TcpFlags::ACK));
        assert_eq!(syn.seq, ISS_S);
        assert_eq!(out.to_wire[0].dst, a_t);
    }

    #[test]
    fn non_failover_traffic_passes_untouched() {
        let mut b = bridge();
        let seg = raw(
            A_P,
            A_C,
            TcpSegment::builder(9999, 5555).seq(1).ack(2).build(),
        );
        let out = b.on_outbound(seg.clone(), 0);
        assert_eq!(out.to_wire, vec![seg]);
        let inb = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 9999).seq(2).ack(1).build(),
        );
        let out = b.on_inbound(inb.clone(), 0);
        assert_eq!(out.to_tcp, vec![inb]);
        assert_eq!(b.conn_count(), 0);
    }

    #[test]
    fn rst_from_primary_is_translated_and_state_dropped() {
        let mut b = established();
        let rst = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1)
                .flags(TcpFlags::RST)
                .build(),
        );
        let out = b.on_outbound(rst, 0);
        assert_eq!(out.to_wire.len(), 1);
        let seg = decode_wire(&out, 0);
        assert!(seg.flags.contains(TcpFlags::RST));
        assert_eq!(seg.seq, ISS_S + 1, "RST carries the client-facing seq");
        assert_eq!(b.conn_count(), 0);
    }

    #[test]
    fn syn_retransmission_resends_merged_syn_ack() {
        let (mut b, first) = established_with_syn_ack();
        // Either replica's TCP retransmits its SYN+ACK (the client ACK
        // was slow): the merged SYN+ACK goes out again, byte for byte.
        for (i, out) in [
            b.on_outbound(p_synack(ISS_P), 0),
            b.on_inbound(s_synack(ISS_S), 0),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(out.to_wire.len(), 1, "merged SYN+ACK re-sent ({i})");
            assert_eq!(out.to_wire[0].bytes, first, "the first merged bytes ({i})");
        }
        assert_eq!(b.stats.retransmissions_forwarded, 2);
        // A SYN carrying another ISN after the merge still gets the
        // merged SYN+ACK: Δseq and the client-facing ISN stay.
        for out in [
            b.on_outbound(p_synack(ISS_P + 77), 0),
            b.on_inbound(s_synack(ISS_S + 77), 0),
        ] {
            assert_eq!(out.to_wire.len(), 1);
            assert_eq!(out.to_wire[0].bytes, first);
        }
    }

    #[test]
    fn secondary_failed_before_merge_releases_held_syn_ack_as_sent() {
        let mut b = bridge();
        let syn = raw(
            A_C,
            A_P,
            TcpSegment::builder(5555, 80)
                .seq(ISS_C)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60_000)
                .build(),
        );
        b.on_inbound(syn, 0);
        let sent = p_synack(ISS_P);
        let bytes = sent.bytes.clone();
        assert!(b.on_outbound(sent, 0).to_wire.is_empty(), "held");
        // §6 before the secondary's SYN+ACK arrives: the primary's is
        // released exactly as its stack sent it.
        let out = b.secondary_failed(1_000);
        assert_eq!(out.to_wire.len(), 1);
        assert_eq!((out.to_wire[0].src, out.to_wire[0].dst), (A_P, A_C));
        assert_eq!(out.to_wire[0].bytes, bytes);
        assert_eq!(b.conn_count(), 0, "the connection continues unbridged");
    }

    #[test]
    fn segments_capped_at_min_mss() {
        let mut b = established(); // merged MSS = 1200
        static BIG: [u8; 3000] = [7u8; 3000];
        let p = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P + 1)
                .ack(ISS_C + 1)
                .window(50_000)
                .payload(Bytes::from_static(&BIG))
                .build(),
        );
        let _ = b.on_outbound(p, 0);
        let s = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S + 1)
                .ack(ISS_C + 1)
                .window(40_000)
                .payload(Bytes::from_static(&BIG))
                .build(),
        );
        let out = b.on_inbound(s, 0);
        assert_eq!(out.to_wire.len(), 3, "3000 bytes at MSS 1200 -> 3 segments");
        for (i, w) in out.to_wire.iter().enumerate() {
            let seg = TcpSegment::decode(&w.bytes).unwrap();
            assert!(seg.payload.len() <= 1200, "segment {i} exceeds merged MSS");
        }
    }
}
