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
//! Per-connection state lives in a sharded [`FlowTable`] (see
//! [`crate::flow`]): bounded capacity with LRU eviction, an explicit
//! lifecycle, and timer-driven GC that expires §8 tombstones. The
//! per-flow logic itself runs in an [`Engine`] bound to one shard, so
//! [`PrimaryBridge::process_batch`] can fan a packet batch out across
//! shards on scoped threads (`tcpfo_net::ShardExecutor`) with a
//! deterministic input-order merge.

use crate::designation::{ConnKey, FailoverConfig};
use crate::flow::{
    Evicted, FlowGauges, FlowState, FlowTable, FlowTableConfig, Shard, ShardStats, SlotId,
};
use crate::observers::{Lag, Observers, StageClock};
use crate::queues::{ByteQueue, TakenBytes};
use bytes::{Bytes, BytesMut};
use tcpfo_net::ShardExecutor;
use tcpfo_tcp::filter::{
    AddressedSegment, BatchDir, FailoverRule, FilterOutput, SegmentFilter, TraceId,
};
use tcpfo_tcp::seq::{seq_gt, seq_le, seq_min};
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::audit::LinkPlace;
use tcpfo_telemetry::{
    Counter, FlowClass, Gauge, HealthObservatory, InvariantAuditor, LatencyObservatory, Scope,
    SpanContext, SpanSampler, Stage, StageLatency, Telemetry,
};
use tcpfo_wire::checksum::ChecksumDelta;
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{
    peek_orig_dest, peek_ports, HeaderTemplate, SegmentPatcher, TcpFlags, TcpSegment, TcpView,
    OPT_KIND_ORIG_DEST, TCP_HEADER_LEN,
};

/// How often the timer-driven flow-table GC actually sweeps (the host
/// tick fires far more often), in sim nanoseconds.
const GC_INTERVAL_NANOS: u64 = 1_000_000_000;

/// What remains of a connection after the bridge drops its queue state.
/// Expiry is the flow table's job: §8 tombstones sit in
/// [`FlowState::TimeWait`] and are reaped on its TTL; §6 entries sit in
/// [`FlowState::Degraded`] until FINs both ways move them there too, and
/// the idle TTL is their backstop.
#[derive(Debug, Clone, Copy)]
struct Tombstone {
    /// The connection's `Δseq`.
    delta: u32,
    /// §6-degraded *live* connection (keep translating both directions
    /// until it is reaped) rather than a §8-closed one (only re-ACK late
    /// FINs).
    degraded: bool,
    /// §6: FINs forwarded from the peer and from our own TCP layer.
    fins: [bool; 2],
}

/// Which side of a §6 connection a segment came from ([`Tombstone::fins`]).
const PEER: usize = 0;
const OURS: usize = 1;

/// One entry in the primary's flow table: a live connection with queue
/// state, or the residue that outlives it.
#[derive(Debug)]
enum PrimaryFlow {
    /// Live connection (boxed: a [`Conn`] is two queues plus a header
    /// template; tombstones are 8 bytes).
    Live(Box<Conn>),
    /// §8 or §6 residue.
    Tomb(Tombstone),
}

impl PrimaryFlow {
    /// A fresh §6 pass-through entry at `delta`.
    fn degraded(delta: u32) -> Self {
        PrimaryFlow::Tomb(Tombstone {
            delta,
            degraded: true,
            fins: [false; 2],
        })
    }
}

/// Operating mode of the primary bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryMode {
    /// Normal duplex operation with a live secondary.
    Normal,
    /// §6: the secondary failed; pass segments through immediately,
    /// keep subtracting `Δseq`, leave ack/window untouched.
    SecondaryFailed,
}

/// Which replica produced a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replica {
    Primary,
    Secondary,
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
    /// Flows pushed out of the table by LRU under capacity pressure.
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

impl PrimaryStats {
    /// Folds another stats block into this one (all counters are sums,
    /// so batch workers can accumulate privately and merge).
    pub fn add(&mut self, o: &PrimaryStats) {
        self.merged_segments += o.merged_segments;
        self.merged_bytes += o.merged_bytes;
        self.empty_acks += o.empty_acks;
        self.retransmissions_forwarded += o.retransmissions_forwarded;
        self.acks_translated += o.acks_translated;
        self.late_fin_acks += o.late_fin_acks;
        self.mismatched_bytes += o.mismatched_bytes;
        self.drops += o.drops;
        self.fins_sent += o.fins_sent;
        self.conns_closed += o.conns_closed;
        self.evicted_flows += o.evicted_flows;
        self.evicted_rsts += o.evicted_rsts;
        self.flows_reaped += o.flows_reaped;
        self.diverted_upstream += o.diverted_upstream;
        self.ingress_rewrites += o.ingress_rewrites;
        self.divert_fallbacks += o.divert_fallbacks;
        self.adopted_flows += o.adopted_flows;
        self.unwitnessed_dropped += o.unwitnessed_dropped;
    }
}

/// Registry handles mirroring [`PrimaryStats`] plus output-queue depth
/// gauges, all under one scope: `core.primary`, or `core.secondary` on
/// a bridge built with nobody below (the pair's P and S share a hub).
/// `now_ns` caches the sim time of the segment currently being filtered
/// so journal events emitted deep inside the merge logic carry a
/// timestamp (the inner merge functions deliberately do not take a
/// clock).
struct PrimaryInstruments {
    hub: Telemetry,
    /// The scope's name, for journal entries.
    name: &'static str,
    /// The scope the observers publish under, built once here so the
    /// host tick never formats a name.
    scope: Scope,
    merged_segments: Counter,
    merged_bytes: Counter,
    empty_acks: Counter,
    retransmissions_forwarded: Counter,
    acks_translated: Counter,
    late_fin_acks: Counter,
    mismatched_bytes: Counter,
    drops: Counter,
    fins_sent: Counter,
    conns_closed: Counter,
    evicted_flows: Counter,
    evicted_rsts: Counter,
    flows_reaped: Counter,
    diverted_upstream: Counter,
    ingress_rewrites: Counter,
    pq_depth: Gauge,
    sq_depth: Gauge,
    /// Per-shard flow-table gauges under `core.primary.flow`.
    flow_gauges: FlowGauges,
    now_ns: u64,
}

impl PrimaryInstruments {
    /// Appends an event to the journal.
    fn record(&self, now_ns: u64, kind: &str, fields: &[(&str, String)]) {
        self.hub.journal.record(now_ns, self.name, kind, fields);
    }
}

/// Per-connection bridge state.
#[derive(Debug)]
struct Conn {
    client: SocketAddr,
    server_port: u16,
    /// Prebuilt client-facing egress header: pseudo-header and port sums
    /// cached once, so releasing bytes never recomputes them.
    tmpl: HeaderTemplate,
    /// Held SYN (client-initiated: SYN+ACK; server-initiated: SYN)
    /// from the primary's TCP layer.
    p_syn: Option<TcpSegment>,
    /// Same from the secondary.
    s_syn: Option<TcpSegment>,
    /// `seq_P,init − seq_S,init`, known once both SYNs are seen.
    delta: Option<u32>,
    /// Effective MSS for merged segments: `min(MSS_P, MSS_S)`.
    mss: u16,
    /// Next client-facing sequence number to send (S space).
    send_next: u32,
    /// The primary output queue (normalised payload).
    pq: ByteQueue,
    /// The secondary output queue.
    sq: ByteQueue,
    /// Each replica's FIN position in client space, once produced.
    p_fin: Option<u32>,
    s_fin: Option<u32>,
    /// Whether the merged FIN has been released.
    fin_sent: bool,
    /// Latest acknowledgment from each replica (client stream space).
    ack_p: Option<u32>,
    ack_s: Option<u32>,
    /// Whether the most recent pure ACK from a replica repeated its
    /// previous value (a re-ACK worth forwarding, §4 degenerate case).
    last_was_replica_dup: bool,
    /// Latest advertised windows.
    win_p: u16,
    win_s: u16,
    /// Acknowledgment carried by the last segment sent to the client.
    last_ack_sent: Option<u32>,
    /// Highest ack observed from the client (S space).
    client_acked: Option<u32>,
    /// The client's FIN position, if received.
    client_fin: Option<u32>,
    /// Sim time the current head-of-queue bytes became resident in the
    /// primary output queue (`u64::MAX` = queue empty / unstamped).
    /// Maintained only while the health observatory is attached; feeds
    /// the time-at-head-of-queue replication-lag histograms.
    pq_head_since: u64,
    /// Total payload bytes released to the client so far — classifies
    /// the flow (mice vs bulk) for per-class lag sampling.
    released_bytes: u64,
}

impl Conn {
    fn new(a_p: Ipv4Addr, client: SocketAddr, server_port: u16) -> Self {
        Conn {
            client,
            server_port,
            tmpl: HeaderTemplate::new(a_p, client.ip, server_port, client.port),
            p_syn: None,
            s_syn: None,
            delta: None,
            mss: 536,
            send_next: 0,
            pq: ByteQueue::new(),
            sq: ByteQueue::new(),
            p_fin: None,
            s_fin: None,
            fin_sent: false,
            ack_p: None,
            ack_s: None,
            last_was_replica_dup: false,
            win_p: 0,
            win_s: 0,
            last_ack_sent: None,
            client_acked: None,
            client_fin: None,
            pq_head_since: u64::MAX,
            released_bytes: 0,
        }
    }

    fn min_ack(&self) -> Option<u32> {
        match (self.ack_p, self.ack_s) {
            (Some(a), Some(b)) => Some(seq_min(a, b)),
            _ => None,
        }
    }

    fn min_win(&self) -> u16 {
        self.win_p.min(self.win_s)
    }

    /// The acknowledgment to stamp on client-facing segments:
    /// `min(ack_P, ack_S)` — or, under the ablation flag, the unsafe
    /// primary-only acknowledgment.
    fn client_ack(&self, unsafe_ack: bool) -> Option<u32> {
        if unsafe_ack {
            self.ack_p.or(self.ack_s)
        } else {
            self.min_ack()
        }
    }

    /// Records the acknowledgment a client-facing segment carries.
    fn note_ack_sent(&mut self, ack: u32) {
        self.last_ack_sent = Some(match self.last_ack_sent {
            Some(l) if seq_gt(l, ack) => l,
            _ => ack,
        });
    }
}

/// The lifecycle state a live connection's table entry should carry,
/// derived from its merge progress (FIN positions never un-set, so this
/// is monotone along [`FlowState::can_transition`]).
fn state_of(conn: &Conn) -> FlowState {
    if conn.delta.is_none() {
        FlowState::Establishing
    } else if conn.fin_sent
        || conn.p_fin.is_some()
        || conn.s_fin.is_some()
        || conn.client_fin.is_some()
    {
        FlowState::Closing
    } else {
        FlowState::Replicated
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
    /// All per-connection state: live connections and §6/§8 residue,
    /// sharded by [`ConnKey::hash64`].
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
    /// Per-shard egress scratch for the run-to-completion batch path:
    /// each shard's worker owns its buffer end-to-end, so buffers
    /// persist across batches instead of being reallocated per batch.
    /// Lazily grown to the shard count; reset on `set_flow_config`.
    shard_emit: Vec<BytesMut>,
    /// Recycled buffer for segments diverted upstream (the option
    /// grows the segment past the exact-capacity buffer it was emitted
    /// into, which would force a [`SegmentPatcher`] to reallocate).
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
    /// the head that owns the VIP, with the default flow table (1 shard,
    /// 65 536 flows); resize it with [`PrimaryBridge::set_flow_config`].
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
            shard_emit: Vec::new(),
            divert_buf: BytesMut::with_capacity(2048),
            watch_first_byte: false,
            observers: Observers::default(),
            last_gc: 0,
        }
    }

    /// Rebuilds the flow table with a new shard count / capacity,
    /// migrating every resident entry. Entries that no longer fit are
    /// dropped and counted as evictions.
    pub fn set_flow_config(&mut self, config: FlowTableConfig) {
        let mut table = FlowTable::new(config);
        for shard in self.flows.shards_mut() {
            // Slot-cursor drain: slab order, no key collection — the
            // slot count is fixed while we only remove.
            for i in 0..shard.slot_count() {
                if let Some(ev) = shard.take_slot(i) {
                    if let Some(dropped) = table.insert(ev.key, ev.state, ev.data, 0) {
                        self.stats.evicted_flows += 1;
                        if let PrimaryFlow::Live(conn) = &dropped.data {
                            self.observers.lag().flow_left(conn.pq.len(), conn.mss);
                        }
                    }
                }
            }
        }
        self.flows = table;
        self.shard_emit.clear();
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
        let mut lag = self.observers.lag();
        for (_, _, f) in self.flows.iter() {
            if let PrimaryFlow::Live(c) = f {
                lag.queue_changed(0, c.pq.len(), c.mss);
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
            .filter_map(|(_, _, f)| match f {
                PrimaryFlow::Live(c) => Some(ConnRow {
                    client: c.client,
                    server_port: c.server_port,
                    delta: c.delta,
                    mss: c.mss,
                    send_next: c.send_next,
                    pq_bytes: c.pq.len(),
                    sq_bytes: c.sq.len(),
                    min_ack: c.min_ack(),
                    min_win: c.min_win(),
                    fin_sent: c.fin_sent,
                }),
                PrimaryFlow::Tomb(_) => None,
            })
            .collect()
    }

    /// Adopts one handed-off flow (see [`crate::reprovision`]): a live
    /// entry, in the slot of the §6 entry it re-states, its merge
    /// synchronised at the handoff's `Δseq` and cursor. Both output
    /// queues start empty — the adopting link's own stream buffers from
    /// the cursor until the joiner's diverted stream matches it, the
    /// catch-up the lag ledger proves drains to zero. With nobody below
    /// (the joiner itself) the flow is a §6 entry at `Δseq = 0`: its TCB
    /// was built in the client-facing space.
    pub fn adopt_flow(&mut self, h: &crate::reprovision::FlowHandoff, now_nanos: u64) {
        self.stats.adopted_flows += 1;
        let key = ConnKey::new(h.server_port, h.client);
        let (st, flow) = if self.mode == PrimaryMode::SecondaryFailed {
            (FlowState::Degraded, PrimaryFlow::degraded(0))
        } else {
            let mut conn = Box::new(Conn::new(self.a_p, h.client, h.server_port));
            conn.delta = Some(h.delta);
            conn.mss = h.mss;
            conn.send_next = h.cursor;
            conn.ack_p = Some(h.rcv_nxt);
            conn.ack_s = Some(h.rcv_nxt);
            conn.last_ack_sent = Some(h.rcv_nxt);
            conn.win_p = h.win;
            conn.win_s = h.win;
            (state_of(&conn), PrimaryFlow::Live(conn))
        };
        if let Some(dropped) = self.flows.insert(key, st, flow, now_nanos) {
            self.stats.evicted_flows += 1;
            if let PrimaryFlow::Live(c) = &dropped.data {
                self.observers.lag().flow_left(c.pq.len(), c.mss);
            }
        }
    }

    /// Connects the bridge to a telemetry hub: mirrors
    /// [`PrimaryStats`] onto registry counters under `core.primary` —
    /// `core.secondary` with nobody below —, tracks output-queue depths
    /// and per-shard flow-table gauges, and journals sync / empty-ACK /
    /// retransmission / degradation events.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let name = match self.a_s {
            Some(_) => "core.primary",
            None => "core.secondary",
        };
        let scope = telemetry.registry.scope(name);
        self.telemetry = Some(PrimaryInstruments {
            hub: telemetry.clone(),
            name,
            merged_segments: scope.counter("merged_segments"),
            merged_bytes: scope.counter("merged_bytes"),
            empty_acks: scope.counter("empty_acks"),
            retransmissions_forwarded: scope.counter("retransmissions_forwarded"),
            acks_translated: scope.counter("acks_translated"),
            late_fin_acks: scope.counter("late_fin_acks"),
            mismatched_bytes: scope.counter("mismatched_bytes"),
            drops: scope.counter("drops"),
            fins_sent: scope.counter("fins_sent"),
            conns_closed: scope.counter("conns_closed"),
            evicted_flows: scope.counter("evicted_flows"),
            evicted_rsts: scope.counter("evicted_rsts"),
            flows_reaped: scope.counter("flows_reaped"),
            diverted_upstream: scope.counter("diverted_upstream"),
            ingress_rewrites: scope.counter("ingress_rewrites"),
            pq_depth: scope.gauge("pq_depth"),
            sq_depth: scope.gauge("sq_depth"),
            flow_gauges: FlowGauges::default(),
            now_ns: 0,
            scope,
        });
    }

    /// Publishes [`PrimaryStats`], the summed output-queue depths and
    /// the per-shard flow-table gauges to the registry. Runs on every
    /// filtered segment; snapshotting code (the testbed) calls it once
    /// more so the registry is fresh even when the last event predates
    /// the snapshot.
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
        // In §6 mode no connection holds queues: nothing to walk.
        let (pq, sq) = match mode {
            PrimaryMode::Normal => flows.iter().fold((0, 0), |(p, s), (_, _, f)| match f {
                PrimaryFlow::Live(c) => (p + c.pq.len() as u64, s + c.sq.len() as u64),
                PrimaryFlow::Tomb(_) => (p, s),
            }),
            PrimaryMode::SecondaryFailed => (0, 0),
        };
        t.now_ns = now_nanos;
        t.merged_segments.set_at_least(stats.merged_segments);
        t.merged_bytes.set_at_least(stats.merged_bytes);
        t.empty_acks.set_at_least(stats.empty_acks);
        t.retransmissions_forwarded
            .set_at_least(stats.retransmissions_forwarded);
        t.acks_translated.set_at_least(stats.acks_translated);
        t.late_fin_acks.set_at_least(stats.late_fin_acks);
        t.mismatched_bytes.set_at_least(stats.mismatched_bytes);
        t.drops.set_at_least(stats.drops);
        t.fins_sent.set_at_least(stats.fins_sent);
        t.conns_closed.set_at_least(stats.conns_closed);
        t.evicted_flows.set_at_least(stats.evicted_flows);
        t.evicted_rsts.set_at_least(stats.evicted_rsts);
        t.flows_reaped.set_at_least(stats.flows_reaped);
        t.diverted_upstream.set_at_least(stats.diverted_upstream);
        t.ingress_rewrites.set_at_least(stats.ingress_rewrites);
        t.pq_depth.set_at(pq, now_nanos);
        t.sq_depth.set_at(sq, now_nanos);
        t.flow_gauges.publish(&t.scope, flows, now_nanos);
        observers.publish(&t.scope, now_nanos);
    }

    /// Stamps the sim time of the segment currently being filtered, so
    /// journal events emitted deep inside the merge logic carry a
    /// timestamp. One store; runs per packet (unlike
    /// [`PrimaryBridge::sync_telemetry`], which runs on the host tick).
    fn stamp_now(&mut self, now_nanos: u64) {
        if let Some(t) = &mut self.telemetry {
            t.now_ns = now_nanos;
        }
    }

    /// Appends an event to the journal, stamped with the sim time of
    /// the segment currently being filtered.
    fn journal(&self, kind: &str, fields: &[(&str, String)]) {
        if let Some(t) = &self.telemetry {
            t.record(t.now_ns, kind, fields);
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

    /// Whether this link is currently the head.
    pub fn is_head(&self) -> bool {
        self.upstream.is_none()
    }

    /// The next replica toward the head; `None` on the head.
    pub fn upstream(&self) -> Option<Ipv4Addr> {
        self.upstream
    }

    /// §5 at this link: it becomes the head (the controller performs the
    /// IP takeover) and the next payload released to the client stamps
    /// the first-client-byte phase. What else it does follows from what
    /// is below it. With a replica below, it stops diverting and keeps
    /// merging and translating — the TCBs stay keyed to `own`. With
    /// nobody below (§6 mode: a tail, or a link whose downstream died)
    /// it takes the VIP outright, as the pair's S does: it returns
    /// `own`, whose failover TCBs the caller re-keys to the VIP, and
    /// from then on it is the VIP owner's pass-through. Either way the
    /// auditor notes the takeover.
    pub fn promote_to_head(&mut self, now_nanos: u64) -> Option<Ipv4Addr> {
        self.observers.takeover(now_nanos);
        self.upstream = None;
        self.watch_first_byte = true;
        let rekey = self.mode == PrimaryMode::SecondaryFailed && self.own != self.a_p;
        rekey.then(|| std::mem::replace(&mut self.own, self.a_p))
    }

    /// Re-targets the upstream neighbour (the link above this one died).
    pub fn set_upstream(&mut self, upstream: Ipv4Addr) {
        self.upstream = Some(upstream);
    }

    /// Re-targets the expected downstream replica (daisy-chain healing:
    /// when the direct downstream dies, its own downstream takes over
    /// as our stream source — `Δseq` and all queue state stay valid
    /// because the client-facing space is the tail's space).
    pub fn set_downstream(&mut self, addr: Ipv4Addr) {
        self.a_s = Some(addr);
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

    /// Aggregated flow-table statistics across all shards.
    pub fn flow_stats(&self) -> ShardStats {
        self.flows.stats_total()
    }

    /// Total flow-table capacity across all shards (denominator for
    /// occupancy ratios in the health observatory).
    pub fn flow_capacity(&self) -> usize {
        self.flows.config().capacity
    }

    /// The lifecycle state of one flow, if resident (live or tombstone).
    pub fn flow_state(&self, key: &ConnKey) -> Option<FlowState> {
        self.flows.state(key)
    }

    /// Whether the flow table holds any entry (live or tombstone) for
    /// `key`.
    pub fn flows_contain(&self, key: &ConnKey) -> bool {
        self.flows.contains(key)
    }

    /// Number of flow-table shards (a power of two).
    pub fn flow_shard_count(&self) -> usize {
        self.flows.shard_count()
    }

    /// §6: the fault detector reports the secondary dead. Flushes every
    /// primary output queue to the client and degrades to Δ-adjusted
    /// pass-through. The returned output, already routed by this
    /// link's place in the chain, must be dispatched by the caller (the
    /// host controller).
    ///
    /// Connections are processed in shard + slab-slot order — a fixed,
    /// reproducible order (the old `HashMap` iteration here was the one
    /// run-to-run nondeterminism in the bridge).
    pub fn secondary_failed(&mut self, now_nanos: u64) -> FilterOutput {
        self.sync_telemetry(now_nanos);
        self.observers
            .mode_changed(PrimaryMode::SecondaryFailed, now_nanos);
        let live: Vec<ConnKey> = self
            .flows
            .iter()
            .filter(|(_, st, _)| st.is_live())
            .map(|(k, _, _)| k)
            .collect();
        self.journal("degraded", &[("live_conns", live.len().to_string())]);
        let mut out = FilterOutput::empty();
        self.mode = PrimaryMode::SecondaryFailed;
        for key in live {
            let shard = self.flows.for_key_mut(&key);
            let Some(slot) = shard.find(&key) else {
                continue;
            };
            let PrimaryFlow::Live(conn) = shard.get_mut(slot) else {
                continue;
            };
            // The flow leaves replicated operation here: whatever the
            // secondary never matched stops being replication lag
            // (it is flushed straight to the client below).
            self.observers.lag().flow_left(conn.pq.len(), conn.mss);
            let Some(delta) = conn.delta else {
                // Handshake never completed against the secondary:
                // release the held SYN unmodified; the connection
                // continues as a plain TCP connection.
                if let Some(p_syn) = conn.p_syn.take() {
                    let bytes = p_syn.encode(self.a_p, conn.client.ip);
                    out.to_wire
                        .push(AddressedSegment::new(self.a_p, conn.client.ip, bytes));
                }
                shard.remove(slot);
                continue;
            };
            // Step 1: remove all payload data from the primary output
            // queue and send it to the client (respecting the MSS).
            if let Some(ack) = conn.ack_p {
                loop {
                    let avail = conn.pq.contiguous_from(conn.send_next);
                    if avail == 0 {
                        break;
                    }
                    let n = avail.min(usize::from(conn.mss));
                    let payload = conn.pq.take(conn.send_next, n);
                    let seg = TcpSegment::builder(conn.server_port, conn.client.port)
                        .seq(conn.send_next)
                        .ack(ack)
                        .window(conn.win_p)
                        .flags(TcpFlags::PSH)
                        .payload(payload.into_contiguous())
                        .build();
                    let bytes = seg.encode(self.a_p, conn.client.ip);
                    out.to_wire
                        .push(AddressedSegment::new(self.a_p, conn.client.ip, bytes));
                    conn.send_next = conn.send_next.wrapping_add(n as u32);
                    self.stats.merged_segments += 1;
                    self.stats.merged_bytes += n as u64;
                }
                if !conn.fin_sent && conn.p_fin == Some(conn.send_next) {
                    let seg = TcpSegment::builder(conn.server_port, conn.client.port)
                        .seq(conn.send_next)
                        .ack(ack)
                        .window(conn.win_p)
                        .flags(TcpFlags::FIN)
                        .build();
                    let bytes = seg.encode(self.a_p, conn.client.ip);
                    out.to_wire
                        .push(AddressedSegment::new(self.a_p, conn.client.ip, bytes));
                    conn.fin_sent = true;
                    conn.send_next = conn.send_next.wrapping_add(1);
                    self.stats.fins_sent += 1;
                }
            }
            // Steps 2–3: the pass-through entry that keeps subtracting
            // Δseq for the rest of the connection's life takes its slot.
            let tomb = PrimaryFlow::degraded(delta);
            shard.replace(slot, FlowState::Degraded, tomb, now_nanos);
        }
        self.sync_telemetry(now_nanos);
        if self.is_link() {
            self.route_as_link((0, 0), now_nanos, &mut out);
        }
        out
    }

    /// The way out of §6 (see [`crate::reprovision`]): the replica at
    /// `down` joins below, new connections replicate again, and the
    /// flows handed to it are re-stated with
    /// [`PrimaryBridge::adopt_flow`]. Stamped at the caller's clock.
    pub fn join_below(&mut self, down: Ipv4Addr, now_nanos: u64) {
        self.a_s = Some(down);
        self.mode = PrimaryMode::Normal;
        self.stamp_now(now_nanos);
        self.observers.mode_changed(PrimaryMode::Normal, now_nanos);
        self.journal("joined", &[("below", down.to_string())]);
    }

    /// Timer-driven flow GC: expires §8 TimeWait tombstones after their
    /// TTL and reaps long-idle live flows (a leak backstop). Runs at
    /// most once per [`GC_INTERVAL_NANOS`] of sim time, and reaps at
    /// most `GcPolicy::max_reaps_per_tick` flows per tick — the pause
    /// bound. Backlog carries over via the table's shard cursor (and
    /// the per-batch drain in [`PrimaryBridge::process_batch`] keeps
    /// eating at it between ticks).
    fn gc_flows(&mut self, now_nanos: u64) {
        if now_nanos.saturating_sub(self.last_gc) < GC_INTERVAL_NANOS {
            return;
        }
        self.last_gc = now_nanos;
        let budget = self.flows.config().gc.max_reaps_per_tick;
        let PrimaryBridge {
            flows, observers, ..
        } = self;
        let mut lag = observers.lag();
        flows.gc_budgeted(now_nanos, budget, &mut |ev| {
            if let PrimaryFlow::Live(conn) = &ev.data {
                lag.flow_left(conn.pq.len(), conn.mss);
            }
        });
        self.stats.flows_reaped = self.flows.stats_total().reaped;
    }

    /// Per-batch incremental GC: offers every shard a small reap
    /// budget (`GcPolicy::max_reaps_per_batch`). O(1) per shard when
    /// nothing is due (one list-head check per TTL class), so this
    /// runs after *every* batch on both the sequential and the
    /// parallel path — keeping the two byte- and state-identical.
    fn gc_batch(&mut self, now_nanos: u64) {
        let policy = self.flows.config().gc;
        if policy.max_reaps_per_batch == 0 {
            return;
        }
        let PrimaryBridge {
            flows, observers, ..
        } = self;
        let mut lag = observers.lag();
        for shard in flows.shards_mut() {
            shard.gc_budgeted(now_nanos, &policy, policy.max_reaps_per_batch, &mut |ev| {
                if let PrimaryFlow::Live(conn) = &ev.data {
                    lag.flow_left(conn.pq.len(), conn.mss);
                }
            });
        }
        self.stats.flows_reaped = self.flows.stats_total().reaped;
    }

    // ---------------------------------------------------------------
    // Shard routing and the batch entry point
    // ---------------------------------------------------------------

    /// Reads a segment's flow off its raw bytes — once: the shard index
    /// comes from the same key the engine then resolves. Diverted
    /// secondary output is keyed by the original destination carried in
    /// its option. Unparseable segments route to shard 0; they pass
    /// through untouched, so the choice only needs to be deterministic.
    fn route(&self, dir: BatchDir, seg: &AddressedSegment) -> (usize, Route) {
        let route = match dir {
            BatchDir::Outbound => Route::Outbound(ConnKey::of_egress(seg)),
            BatchDir::Inbound => {
                let orig = if Some(seg.src) == self.a_s && seg.dst == self.own {
                    peek_orig_dest(&seg.bytes).zip(peek_ports(&seg.bytes))
                } else {
                    None
                };
                match orig {
                    Some(((ip, port), (src_port, _))) => {
                        Route::Diverted(ConnKey::new(src_port, SocketAddr::new(ip, port)))
                    }
                    None => Route::Peer(ConnKey::of_ingress(seg)),
                }
            }
        };
        let shard = route.key().map_or(0, |k| self.flows.shard_of(&k));
        (shard, route)
    }

    /// Builds a per-shard engine borrowing this bridge's state. The
    /// engine's shard reference is a *field-path* borrow of `flows`, so
    /// `stats` / `emit_buf` stay independently borrowable inside it.
    fn engine(&mut self, shard: usize, trace: TraceId, now_nanos: u64) -> Engine<'_> {
        let PrimaryBridge {
            a_p,
            a_s,
            upstream,
            mode,
            unsafe_ack_without_min,
            config,
            flows,
            stats,
            emit_buf,
            telemetry,
            observers,
            ..
        } = self;
        let (clock, lag) = observers.datapath();
        Engine {
            a_s: *a_s,
            gate: upstream.is_some(),
            mode: *mode,
            unsafe_ack: *unsafe_ack_without_min,
            now: now_nanos,
            config: &*config,
            shard: &mut flows.shards_mut()[shard],
            emit: Emitter {
                a_p: *a_p,
                trace,
                stats,
                buf: emit_buf,
                clock,
            },
            instruments: telemetry.as_ref(),
            lag,
        }
    }

    /// One segment in either direction: the merge datapath under the
    /// (optional) audit bracket, then — for a segment of a failover
    /// connection, and after the auditor has seen the client-facing
    /// addresses — the chain routing of what it appended to `out`.
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
        let failover = Observers::audited(
            self,
            Self::observers_mut,
            seg,
            now_nanos,
            out,
            match dir {
                BatchDir::Outbound => Self::audit_outbound_observe,
                BatchDir::Inbound => Self::audit_inbound_observe,
            },
            |b, seg, now, out| {
                b.stamp_now(now);
                let (si, route) = b.route(dir, &seg);
                b.engine(si, seg.trace, now).run(route, seg, out)
            },
            Self::audit_scan,
        );
        if failover && self.is_link() {
            self.route_as_link(from, now_nanos, out);
        }
    }

    /// Filters a whole batch, fanning items across flow-table shards on
    /// `exec`'s threads. Returns one [`FilterOutput`] per input, **in
    /// input order** — together with the shard-local independence of
    /// per-flow state this makes the result byte-identical to filtering
    /// the batch one segment at a time, at any thread or shard count
    /// (`tests/shard_determinism.rs` proves it).
    ///
    /// Falls back to the sequential path when telemetry or an
    /// order-sensitive observer is attached (they observe cross-flow
    /// order) or the executor is inline. Both paths finish every batch with the same per-shard
    /// incremental GC drain ([`PrimaryBridge::gc_batch`]), so flow-table
    /// state stays identical between them.
    pub fn process_batch(
        &mut self,
        batch: Vec<(BatchDir, AddressedSegment)>,
        now_nanos: u64,
        exec: &ShardExecutor,
    ) -> Vec<FilterOutput> {
        // The lag ledger is a single cross-shard accumulator, so the
        // health observatory is order-sensitive too: parallel workers
        // never need (and never get) a ledger.
        if self.observers.order_sensitive() || self.telemetry.is_some() || exec.threads() <= 1 {
            let sample = self.observers.batch_start();
            let segments = batch.len() as u64;
            let outs: Vec<FilterOutput> = batch
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
            self.gc_batch(now_nanos);
            self.observers.batch_end(&sample, segments);
            return outs;
        }
        let items: Vec<(usize, (Route, AddressedSegment))> = batch
            .into_iter()
            .map(|(dir, seg)| {
                let (si, route) = self.route(dir, &seg);
                (si, (route, seg))
            })
            .collect();
        let policy = self.flows.config().gc;
        while self.shard_emit.len() < self.flows.shard_count() {
            self.shard_emit.push(BytesMut::with_capacity(2048));
        }
        let PrimaryBridge {
            a_p,
            a_s,
            upstream,
            mode,
            unsafe_ack_without_min,
            config,
            flows,
            shard_emit,
            ..
        } = self;
        let (a_p, a_s, mode, unsafe_ack) = (*a_p, *a_s, *mode, *unsafe_ack_without_min);
        let gate = upstream.is_some();
        let config: &FailoverConfig = config;
        let lat_on = self.observers.latency.is_some();
        // Run-to-completion lanes: each shard is paired with its
        // persistent egress buffer and handed to exactly one worker
        // thread, which processes the shard's whole input slice and
        // then drains its GC budget (the executor's `finish` hook)
        // before the single end-of-batch merge.
        let mut lanes: Vec<Lane<'_>> = flows
            .shards_mut()
            .iter_mut()
            .zip(shard_emit.iter_mut())
            .map(|(shard, emit)| Lane { shard, emit })
            .collect();
        // Each worker accumulates stats (and, when the observatory is
        // attached, a private stage-latency copy) and hands the block
        // back on its lane's last item; the fold below sums them.
        // All counters are sums and histogram merging is lossless, so
        // the merged total is independent of thread scheduling.
        // The flag beside each output: its segment belonged to a
        // failover connection (what a link routes, after the merge).
        type Produced = (
            FilterOutput,
            bool,
            Option<(PrimaryStats, Option<StageLatency>)>,
        );
        let results: Vec<Produced> = exec.run_to_completion(
            &mut lanes,
            items,
            &|_si, lane, inputs| {
                let mut stats = PrimaryStats::default();
                let mut lat = lat_on.then(StageLatency::new);
                let n = inputs.len();
                inputs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (route, seg))| {
                        let mut out = FilterOutput::empty();
                        let failover = Engine {
                            a_s,
                            gate,
                            mode,
                            unsafe_ack,
                            now: now_nanos,
                            config,
                            shard: &mut *lane.shard,
                            emit: Emitter {
                                a_p,
                                trace: seg.trace,
                                stats: &mut stats,
                                buf: &mut *lane.emit,
                                clock: StageClock(lat.as_mut()),
                            },
                            instruments: None,
                            lag: Lag(None),
                        }
                        .run(route, seg, &mut out);
                        let s = if i + 1 == n {
                            Some((stats.clone(), lat))
                        } else {
                            None
                        };
                        (out, failover, s)
                    })
                    .collect()
            },
            &|_si, lane| {
                lane.shard.gc_budgeted(
                    now_nanos,
                    &policy,
                    policy.max_reaps_per_batch,
                    &mut |_ev| {},
                );
            },
        );
        drop(lanes);
        let mut outs = Vec::with_capacity(results.len());
        for (mut out, failover, s) in results {
            if failover && self.is_link() {
                self.route_as_link((0, 0), now_nanos, &mut out);
            }
            if let Some((s, l)) = s {
                self.stats.add(&s);
                if let (Some(obs), Some(l)) = (self.observers.latency.as_deref_mut(), l.as_ref()) {
                    obs.merge_stages(l);
                }
            }
            outs.push(out);
        }
        self.stats.flows_reaped = self.flows.stats_total().reaped;
        outs
    }

    // ---------------------------------------------------------------
    // Audit shadowing
    // ---------------------------------------------------------------

    /// Pre-step audit observation for an outbound segment: mirrors the
    /// inner designation check so only segments the bridge will treat
    /// as primary replica output are shadowed.
    fn audit_outbound_observe(&self, aud: &mut InvariantAuditor, seg: &AddressedSegment) {
        // In §6 nothing is merged, so nothing is shadowed.
        if self.mode != PrimaryMode::Normal {
            return;
        }
        let Ok(parsed) = TcpView::new(&seg.bytes) else {
            return;
        };
        let (src_port, dst_port) = (parsed.src_port(), parsed.dst_port());
        let key = ConnKey::new(src_port, SocketAddr::new(seg.dst, dst_port));
        let designated =
            self.config.matches(src_port, seg.dst, dst_port) || self.flows.contains(&key);
        let degraded_tomb =
            matches!(self.flows.peek(&key), Some(PrimaryFlow::Tomb(t)) if t.degraded);
        if designated && Some(seg.dst) != self.a_s && !degraded_tomb {
            aud.note_primary_out(seg.src, seg.dst, &seg.bytes, seg.trace);
        }
    }

    /// Pre-step audit observation for an inbound segment: diverted
    /// secondary output or client ingress — designated only where the
    /// merge rules apply (not in §6, where nothing is merged).
    fn audit_inbound_observe(&self, aud: &mut InvariantAuditor, seg: &AddressedSegment) {
        let diverted = Some(seg.src) == self.a_s && seg.dst == self.own;
        if diverted && peek_orig_dest(&seg.bytes).is_some() {
            aud.note_secondary_diverted(seg.src, seg.dst, &seg.bytes, seg.trace);
            return;
        }
        if seg.dst != self.a_p {
            return;
        }
        let Ok(parsed) = TcpView::new(&seg.bytes) else {
            return;
        };
        let (src_port, dst_port) = (parsed.src_port(), parsed.dst_port());
        let key = ConnKey::new(dst_port, SocketAddr::new(seg.src, src_port));
        let merged = self.mode == PrimaryMode::Normal
            && (self.config.matches(dst_port, seg.src, src_port) || self.flows.contains(&key));
        aud.note_client_ingress(seg.src, seg.dst, &seg.bytes, seg.trace, merged);
    }

    /// Post-step audit scan of everything the inner datapath appended:
    /// client-bound wire segments are releases, segments back toward
    /// the secondary are noted, deliver-ups are checked for the `+Δseq`
    /// ack translation.
    fn audit_scan(
        &self,
        aud: &mut InvariantAuditor,
        to_wire: &[AddressedSegment],
        to_tcp: &[AddressedSegment],
    ) {
        for s in to_wire {
            if Some(s.dst) == self.a_s {
                aud.note_other_egress(s.src, s.dst, &s.bytes, s.trace);
            } else {
                aud.check_release(s.src, s.dst, &s.bytes, s.trace);
            }
        }
        for s in to_tcp {
            aud.check_deliver_up(s.src, s.dst, &s.bytes, s.trace);
        }
    }

    // ---------------------------------------------------------------
    // Chain routing
    // ---------------------------------------------------------------

    /// Whether output is routed at all: not on a head that owns the VIP
    /// (the pair's P), whose segments pay this one branch for the chain.
    #[inline]
    fn is_link(&self) -> bool {
        self.upstream.is_some() || self.own != self.a_p || self.watch_first_byte
    }

    /// Routes what a failover segment's step appended to `out` (from
    /// index `w0` of `to_wire`, `t0` of `to_tcp`) by this link's place
    /// in the chain, in place: below the head, output not addressed to
    /// the downstream climbs one hop up; at the head it leaves from the
    /// VIP (the merge template's source already; a §6 pass-through sent
    /// from a link's own address is re-stamped); off the host that owns
    /// the VIP, client datagrams are re-addressed to the local TCBs.
    /// Then the auditor checks where each segment went. Kept out of
    /// line: the head's per-segment path stays the size it was.
    #[inline(never)]
    fn route_as_link(&mut self, (w0, t0): (usize, usize), now_nanos: u64, out: &mut FilterOutput) {
        let (vip, own, downstream) = (self.a_p, self.own, self.a_s);
        for seg in out.to_wire[w0..]
            .iter_mut()
            .filter(|s| Some(s.dst) != downstream)
        {
            if let Some(up) = self.upstream {
                self.divert_up(seg, up);
                continue;
            }
            if seg.src != vip {
                self.readdress(seg, |p| p.set_pseudo_src(vip));
            }
            if self.watch_first_byte {
                self.first_client_byte(seg, now_nanos);
            }
        }
        if own != vip {
            for seg in out.to_tcp[t0..].iter_mut().filter(|s| s.dst == vip) {
                self.readdress(seg, |p| p.set_pseudo_dst(own));
                self.stats.ingress_rewrites += 1;
            }
        }
        if let Some(aud) = self.observers.audit.as_deref_mut() {
            let place = LinkPlace {
                vip,
                own,
                upstream: self.upstream,
                downstream,
            };
            for s in &out.to_wire[w0..] {
                aud.check_routed(&place, false, s.src, s.dst, &s.bytes, s.trace);
            }
            for s in &out.to_tcp[t0..] {
                aud.check_routed(&place, true, s.src, s.dst, &s.bytes, s.trace);
            }
        }
    }

    /// Rewrites one segment's addresses in place (RFC 1624 fixup).
    fn readdress(&mut self, seg: &mut AddressedSegment, set: impl FnOnce(&mut SegmentPatcher)) {
        let t0 = self.observers.clock().start();
        let mut p = SegmentPatcher::new(std::mem::take(&mut seg.bytes), seg.src, seg.dst);
        set(&mut p);
        (seg.bytes, seg.src, seg.dst) = p.finish();
        self.observers.clock().end(Stage::ChecksumFixup, t0);
    }

    /// The first payload a promoted head sends the client closes the §5
    /// timeline.
    fn first_client_byte(&mut self, seg: &AddressedSegment, now_nanos: u64) {
        let Some(view) = TcpView::new(&seg.bytes)
            .ok()
            .filter(|v| !v.payload().is_empty())
        else {
            return;
        };
        self.watch_first_byte = false;
        let Some(t) = &self.telemetry else {
            return;
        };
        let len = view.payload().len();
        let fields = [("seq", view.seq().to_string()), ("len", len.to_string())];
        let args = [Some(("len", len as u64)), None];
        (t.hub).event(now_nanos, t.name, "first_client_byte", &fields, args);
    }

    /// Diverts one merged segment to the upstream neighbour: append the
    /// orig-dest option, patch data offset / pseudo length / addresses
    /// with RFC 1624 deltas, and assemble into the recycled divert
    /// buffer — spliced by hand because a [`SegmentPatcher`] would
    /// reallocate to grow the segment.
    fn divert_up(&mut self, seg: &mut AddressedSegment, up: Ipv4Addr) {
        let t0 = self.observers.clock().start();
        let bytes: &[u8] = &seg.bytes;
        let len = bytes.len();
        let header_len = bytes.get(12).map_or(0, |b| usize::from(b >> 4) * 4);
        if header_len < TCP_HEADER_LEN || header_len > len || header_len + 8 > 60 {
            self.stats.divert_fallbacks += 1;
            return;
        }

        // The 8-byte orig-dest option: kind, len, client IP, client
        // port (already big-endian on the wire).
        let mut opt = [OPT_KIND_ORIG_DEST, 8, 0, 0, 0, 0, bytes[2], bytes[3]];
        opt[2..6].copy_from_slice(&seg.dst.octets());

        let mut delta = ChecksumDelta::new();
        // New words: the option itself (inserted at header_len, an even
        // offset, so parity of everything after it is preserved).
        delta.append_bytes(&opt);
        // Data offset grows by two words.
        let old_word = u16::from_be_bytes([bytes[12], bytes[13]]);
        let new_word = ((u16::from(bytes[12] >> 4) + 2) << 12) | (old_word & 0x0fff);
        delta.replace_u16(old_word, new_word);
        // Pseudo-header TCP length grows by the option.
        delta.replace_u16(len as u16, (len + 8) as u16);
        // Pseudo-header addresses: destination becomes the upstream
        // replica; a VIP-stamped source is rewritten to our own address
        // (the head re-stamps the VIP on final release).
        if seg.src == self.a_p {
            delta.replace_u32(u32::from(self.a_p), u32::from(self.own));
            seg.src = self.own;
        }
        delta.replace_u32(u32::from(seg.dst), u32::from(up));
        let new_ck = delta.apply(u16::from_be_bytes([bytes[16], bytes[17]]));

        // The grown header is composed on the stack and appended once
        // (every append to a `BytesMut` first proves it unshared).
        let mut header = [0u8; 60];
        header[..header_len].copy_from_slice(&bytes[..header_len]);
        header[12..14].copy_from_slice(&new_word.to_be_bytes());
        header[16..18].copy_from_slice(&new_ck.to_be_bytes());
        header[header_len..header_len + 8].copy_from_slice(&opt);
        let buf = &mut self.divert_buf;
        buf.reserve(len + 8);
        buf.extend_from_slice(&header[..header_len + 8]);
        buf.extend_from_slice(&bytes[header_len..]);
        seg.bytes = buf.split().freeze();
        seg.dst = up;
        self.stats.diverted_upstream += 1;
        self.observers.clock().end(Stage::ChecksumFixup, t0);
    }
}

/// One shard's run-to-completion context for the parallel batch path:
/// the shard itself plus its persistent egress scratch, owned
/// end-to-end by a single worker thread for the duration of a batch
/// (items, then the GC budget drain, then nothing until the merge).
struct Lane<'a> {
    shard: &'a mut Shard<PrimaryFlow>,
    emit: &'a mut BytesMut,
}

/// The flow a segment belongs to, read off its raw bytes by
/// [`PrimaryBridge::route`] before anything is decoded. `None`: too
/// short to carry a TCP header (such a segment passes through).
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Our TCP layer's output, keyed by its destination.
    Outbound(Option<ConnKey>),
    /// The downstream replica's diverted output, keyed by the original
    /// destination its option carries.
    Diverted(ConnKey),
    /// Anything else off the wire, keyed by its source.
    Peer(Option<ConnKey>),
}

impl Route {
    fn key(self) -> Option<ConnKey> {
        match self {
            Route::Outbound(k) | Route::Peer(k) => k,
            Route::Diverted(k) => Some(k),
        }
    }
}

/// What emitting a segment needs and nothing that borrows the flow
/// table: the egress scratch, the counters, the stage clock, our
/// address and the trace id. Kept apart from [`Engine::shard`] so a
/// `&mut Conn` borrowed from the shard lives across an emit.
struct Emitter<'a> {
    a_p: Ipv4Addr,
    /// Causal trace of the segment being filtered.
    trace: TraceId,
    stats: &'a mut PrimaryStats,
    /// Recycled egress scratch (see [`PrimaryBridge::emit_buf`]).
    buf: &'a mut BytesMut,
    /// Stage clock over the observatory's histograms, or over a
    /// worker's private copy.
    clock: StageClock<'a>,
}

impl Emitter<'_> {
    /// Cold-path emitter for segments that need options (merged SYNs):
    /// full encode.
    fn encoded(&mut self, conn: &mut Conn, seg: TcpSegment, out: &mut FilterOutput) {
        if seg.flags.contains(TcpFlags::ACK) {
            conn.note_ack_sent(seg.ack);
        }
        let bytes = seg.encode(self.a_p, conn.client.ip);
        out.to_wire
            .push(AddressedSegment::new(self.a_p, conn.client.ip, bytes).traced(self.trace));
    }

    /// Hot-path emitter: patches the connection's prebuilt header
    /// template into the recycled scratch buffer. No allocation, no
    /// full checksum pass (callers supply the payload's cached sum when
    /// they have one).
    #[allow(clippy::too_many_arguments)]
    fn hot<'p>(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        mut flags: TcpFlags,
        window: u16,
        parts: impl Iterator<Item = &'p [u8]> + Clone,
        payload_len: usize,
        payload_sum: Option<u32>,
        out: &mut FilterOutput,
    ) {
        let ack_val = match ack {
            Some(a) => {
                flags |= TcpFlags::ACK;
                conn.note_ack_sent(a);
                a
            }
            None => 0,
        };
        let t0 = self.clock.start();
        let bytes = conn.tmpl.emit_parts(
            self.buf,
            seq,
            ack_val,
            flags,
            window,
            parts,
            payload_len,
            payload_sum,
        );
        out.to_wire
            .push(AddressedSegment::new(self.a_p, conn.client.ip, bytes).traced(self.trace));
        self.clock.end(Stage::EgressEmit, t0);
    }

    /// [`Emitter::hot`] for a rope release: the payload is the
    /// [`TakenBytes`] chain straight out of the output queues,
    /// checksummed from its cached sum.
    #[allow(clippy::too_many_arguments)]
    fn release(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        flags: TcpFlags,
        window: u16,
        payload: &TakenBytes,
        out: &mut FilterOutput,
    ) {
        self.hot(
            conn,
            seq,
            ack,
            flags,
            window,
            payload.parts(),
            payload.len(),
            Some(payload.sum()),
            out,
        );
    }

    /// [`Emitter::hot`] for an empty segment (bare ACKs, merged FINs,
    /// translated RSTs).
    fn empty(
        &mut self,
        conn: &mut Conn,
        seq: u32,
        ack: Option<u32>,
        flags: TcpFlags,
        window: u16,
        out: &mut FilterOutput,
    ) {
        self.hot(
            conn,
            seq,
            ack,
            flags,
            window,
            std::iter::empty(),
            0,
            Some(0),
            out,
        );
    }
}

/// The per-flow datapath, bound to one flow-table shard.
///
/// Scalars are copied out of the bridge and the mutable pieces are held
/// as *separate* references, so the borrow checker can see that a flow
/// borrowed out of `shard` never aliases the [`Emitter`]. That is what
/// lets a connection be mutated where it sits in the table, and what
/// lets [`PrimaryBridge::process_batch`] run one engine per shard on
/// scoped threads: an engine only ever touches its own shard plus
/// thread-local stats and scratch.
///
/// A segment's flow is resolved **once**, by [`Engine::find`] on entry;
/// every later step takes the [`SlotId`], never the key.
struct Engine<'a> {
    a_s: Option<Ipv4Addr>,
    /// Below the head: a designated non-SYN client segment of a flow the
    /// table does not hold is dropped (the §8 witness gate).
    gate: bool,
    mode: PrimaryMode,
    unsafe_ack: bool,
    /// Sim time of the segment being filtered.
    now: u64,
    config: &'a FailoverConfig,
    shard: &'a mut Shard<PrimaryFlow>,
    emit: Emitter<'a>,
    /// `None` on parallel workers — journal events only flow on the
    /// sequential path, where cross-flow order is meaningful.
    instruments: Option<&'a PrimaryInstruments>,
    /// Replication-lag ledger (the health observatory's; never on a
    /// parallel worker).
    lag: Lag<'a>,
}

impl Engine<'_> {
    // ---------------------------------------------------------------
    // Flow-table access
    // ---------------------------------------------------------------

    /// Resolves the segment's flow: the one keyed probe it pays.
    fn find(&mut self, key: &ConnKey) -> Option<SlotId> {
        let t0 = self.emit.clock.start();
        let slot = self.shard.find(key);
        self.emit.clock.end(Stage::FlowLookup, t0);
        slot
    }

    /// `slot` if it holds a live (queue-carrying) connection.
    fn live(&self, slot: Option<SlotId>) -> Option<SlotId> {
        slot.filter(|&s| self.shard.state(s).is_live())
    }

    /// A segment from `side` passes through the §6 entry `slot` holds,
    /// if it holds one: the peer's segments (and FINs) are activity, and
    /// FINs from both sides walk the entry to TimeWait. Returns its
    /// `Δseq`.
    fn forward_degraded(&mut self, slot: Option<SlotId>, side: usize, fin: bool) -> Option<u32> {
        let slot = slot?;
        if !matches!(self.shard.get(slot), PrimaryFlow::Tomb(t) if t.degraded) {
            return None;
        }
        let flow = if side == PEER || fin {
            self.shard.touch(slot, self.now)
        } else {
            self.shard.get_mut(slot)
        };
        let PrimaryFlow::Tomb(t) = flow else {
            unreachable!("checked above");
        };
        t.fins[side] |= fin;
        let (delta, closed) = (t.delta, t.fins == [true; 2]);
        if closed {
            self.shard.set_state(slot, FlowState::TimeWait, self.now);
        }
        Some(delta)
    }

    /// Opens connection state for `key`: in the slot the tuple's residue
    /// occupies (a fresh SYN supersedes a tombstone — tuple reuse across
    /// a failover epoch), else in a new one, routing any capacity
    /// eviction to [`Engine::on_evicted`].
    fn open(&mut self, key: ConnKey, slot: Option<SlotId>, out: &mut FilterOutput) -> SlotId {
        let conn = Box::new(Conn::new(self.emit.a_p, key.peer, key.server_port));
        let flow = PrimaryFlow::Live(conn);
        if let Some(slot) = slot {
            self.shard
                .replace(slot, FlowState::Establishing, flow, self.now);
            return slot;
        }
        let (slot, evicted) = self
            .shard
            .insert(key, FlowState::Establishing, flow, self.now);
        if let Some(ev) = evicted {
            self.on_evicted(ev, out);
        }
        slot
    }

    /// Opens a connection born degraded: local-only (Δseq = 0
    /// pass-through) unless it is handed to a replica that joins below
    /// later. A tuple's residue makes way (closed, or at
    /// Δseq = 0 anyway: tuple reuse); a live entry's Δseq stays (the SYN
    /// is a retransmission).
    fn open_degraded(&mut self, key: ConnKey, slot: Option<SlotId>, out: &mut FilterOutput) {
        let fresh = PrimaryFlow::degraded(0);
        let Some(slot) = slot else {
            let (_, evicted) = self.shard.insert(key, FlowState::Degraded, fresh, self.now);
            if let Some(ev) = evicted {
                self.on_evicted(ev, out);
            }
            return;
        };
        let closed = self.shard.state(slot) == FlowState::TimeWait;
        if closed || matches!(self.shard.get(slot), PrimaryFlow::Tomb(t) if t.delta == 0) {
            self.shard
                .replace(slot, FlowState::Degraded, fresh, self.now);
        }
    }

    /// Brings a connection's lifecycle state up to its merge progress.
    fn settle(&mut self, slot: SlotId) {
        if let PrimaryFlow::Live(conn) = self.shard.get(slot) {
            let st = state_of(conn);
            self.shard.set_state(slot, st, self.now);
        }
    }

    /// Capacity-pressure eviction: the table pushed out its LRU entry
    /// to make room. An established live connection cannot silently
    /// vanish — its client would retransmit into a black hole forever —
    /// so it is reset with an RST in the client-facing sequence space.
    fn on_evicted(&mut self, ev: Evicted<PrimaryFlow>, out: &mut FilterOutput) {
        self.emit.stats.evicted_flows += 1;
        if let Some(t) = self.instruments {
            t.record(
                self.now,
                "flow_evicted",
                &[
                    ("flow", ev.key.to_string()),
                    ("state", ev.state.to_string()),
                ],
            );
        }
        if let PrimaryFlow::Live(conn) = ev.data {
            self.lag.flow_left(conn.pq.len(), conn.mss);
            if conn.delta.is_some() {
                let seg = TcpSegment::builder(conn.server_port, conn.client.port)
                    .seq(conn.send_next)
                    .flags(TcpFlags::RST)
                    .build();
                let a_p = self.emit.a_p;
                let bytes = seg.encode(a_p, conn.client.ip);
                out.to_wire.push(
                    AddressedSegment::new(a_p, conn.client.ip, bytes).traced(self.emit.trace),
                );
                self.emit.stats.evicted_rsts += 1;
            }
        }
    }

    /// ACKs a FIN retransmitted into a §8 tombstone on the sender's
    /// behalf: from `src` back to `dst`, whose segment `fin` was.
    fn ack_late_fin(
        &mut self,
        (src, src_port): (Ipv4Addr, u16),
        (dst, dst_port): (Ipv4Addr, u16),
        fin: &TcpSegment,
        out: &mut FilterOutput,
    ) {
        let ack_seg = TcpSegment::builder(src_port, dst_port)
            .seq(fin.ack)
            .ack(fin.seq.wrapping_add(fin.seq_len()))
            .window(fin.window)
            .build();
        let bytes = ack_seg.encode(src, dst);
        out.to_wire
            .push(AddressedSegment::new(src, dst, bytes).traced(self.emit.trace));
        self.emit.stats.late_fin_acks += 1;
    }

    /// Rewrites one 32-bit header field of `raw` in place (RFC 1624
    /// checksum fixup) and returns the patched segment.
    fn patch(
        &mut self,
        raw: AddressedSegment,
        set: impl FnOnce(&mut SegmentPatcher),
    ) -> AddressedSegment {
        let t0 = self.emit.clock.start();
        let mut patcher = SegmentPatcher::new(raw.bytes, raw.src, raw.dst);
        set(&mut patcher);
        let (bytes, src, dst) = patcher.finish();
        self.emit.clock.end(Stage::ChecksumFixup, t0);
        AddressedSegment::new(src, dst, bytes).traced(self.emit.trace)
    }

    // ---------------------------------------------------------------
    // The merge datapath
    // ---------------------------------------------------------------

    /// Releases everything both replicas agree on (§3.4 Figure 2), then
    /// the merged FIN, then a bare ACK if the minimum advanced.
    fn try_merge(&mut self, slot: SlotId, out: &mut FilterOutput) {
        let PrimaryFlow::Live(conn) = self.shard.get_mut(slot) else {
            return;
        };
        loop {
            let qm0 = self.emit.clock.start();
            let avail = conn
                .pq
                .contiguous_from(conn.send_next)
                .min(conn.sq.contiguous_from(conn.send_next));
            if avail > 0 {
                let n = avail.min(usize::from(conn.mss));
                let pq_before = conn.pq.len();
                let from_s = conn.sq.take(conn.send_next, n);
                let from_p = conn.pq.take(conn.send_next, n);
                if from_p != from_s {
                    self.emit.stats.mismatched_bytes += n as u64;
                }
                self.emit.clock.end(Stage::QueueMatch, qm0);
                // Replication-lag sampling at the match point: how far
                // behind the witness was when this release became
                // possible, and how long the head byte sat waiting.
                // The ledger update runs before the ack check below so
                // the gauge stays exact even on the drop path.
                if self.lag.attached() {
                    let class = FlowClass::of_released(conn.released_bytes);
                    let head_wait = if conn.pq_head_since == u64::MAX {
                        0
                    } else {
                        self.now.saturating_sub(conn.pq_head_since)
                    };
                    self.lag
                        .released(class, (pq_before, conn.pq.len()), conn.mss, head_wait);
                    conn.pq_head_since = if conn.pq.is_empty() {
                        u64::MAX
                    } else {
                        self.now
                    };
                }
                let Some(ack) = conn.client_ack(self.unsafe_ack) else {
                    self.emit.stats.drops += 1;
                    break;
                };
                let seq = conn.send_next;
                conn.send_next = conn.send_next.wrapping_add(n as u32);
                conn.released_bytes += n as u64;
                self.emit.stats.merged_segments += 1;
                self.emit.stats.merged_bytes += n as u64;
                let win = conn.min_win();
                self.emit
                    .release(conn, seq, Some(ack), TcpFlags::PSH, win, &from_s, out);
                continue;
            }
            // No matched payload: the release decision itself is still
            // a queue-match sample.
            self.emit.clock.end(Stage::QueueMatch, qm0);
            // FIN merge: both replicas have closed at this position.
            if !conn.fin_sent
                && conn.p_fin == Some(conn.send_next)
                && conn.s_fin == Some(conn.send_next)
            {
                if let Some(ack) = conn.client_ack(self.unsafe_ack) {
                    let seq = conn.send_next;
                    conn.fin_sent = true;
                    conn.send_next = conn.send_next.wrapping_add(1);
                    self.emit.stats.fins_sent += 1;
                    let win = conn.min_win();
                    self.emit
                        .empty(conn, seq, Some(ack), TcpFlags::FIN, win, out);
                    continue;
                }
            }
            break;
        }
        // §3.4: prevent the delayed-ACK deadlock — if min(ack) advanced
        // beyond the last ack we sent, emit a bare ACK segment.
        if let Some(m) = conn.client_ack(self.unsafe_ack) {
            let advanced = match conn.last_ack_sent {
                Some(l) => seq_gt(m, l),
                None => true,
            };
            if advanced {
                self.emit.stats.empty_acks += 1;
                if let Some(t) = self.instruments {
                    t.record(self.now, "empty_ack", &[("ack", m.to_string())]);
                }
                let (seq, win) = (conn.send_next, conn.min_win());
                self.emit
                    .empty(conn, seq, Some(m), TcpFlags::EMPTY, win, out);
            }
        }
        self.settle(slot);
    }

    /// Builds the merged SYN / SYN+ACK once both replicas' SYNs are
    /// held (§7.1, §7.2).
    fn try_merge_syn(&mut self, slot: SlotId, out: &mut FilterOutput) {
        let PrimaryFlow::Live(conn) = self.shard.get_mut(slot) else {
            return;
        };
        let (Some(p), Some(s)) = (&conn.p_syn, &conn.s_syn) else {
            return;
        };
        let delta = p.seq.wrapping_sub(s.seq);
        conn.delta = Some(delta);
        conn.mss = p.mss().unwrap_or(536).min(s.mss().unwrap_or(536));
        conn.send_next = s.seq.wrapping_add(1);
        let client_initiated = p.flags.contains(TcpFlags::ACK);
        let mut b = TcpSegment::builder(conn.server_port, conn.client.port)
            .seq(s.seq)
            .flags(TcpFlags::SYN)
            .window(conn.win_p.min(conn.win_s))
            .mss(conn.mss);
        if client_initiated {
            // Both SYN+ACKs acknowledge the same client ISN.
            debug_assert_eq!(p.ack, s.ack);
            b = b.ack(p.ack);
            conn.ack_p = Some(p.ack);
            conn.ack_s = Some(s.ack);
        }
        let seg = b.build();
        if let Some(t) = self.instruments {
            t.record(
                self.now,
                "sync",
                &[
                    ("client", format!("{}:{}", conn.client.ip, conn.client.port)),
                    ("delta_seq", delta.to_string()),
                ],
            );
        }
        self.emit.encoded(conn, seg, out);
        self.settle(slot);
    }

    /// Rebuilds and immediately re-sends the merged handshake segment
    /// (a replica retransmitted its SYN after the merge).
    fn resend_merged_syn(&mut self, slot: SlotId, out: &mut FilterOutput) {
        let PrimaryFlow::Live(conn) = self.shard.get_mut(slot) else {
            return;
        };
        let (Some(p), Some(s)) = (&conn.p_syn, &conn.s_syn) else {
            return;
        };
        let client_initiated = p.flags.contains(TcpFlags::ACK);
        let mut b = TcpSegment::builder(conn.server_port, conn.client.port)
            .seq(s.seq)
            .flags(TcpFlags::SYN)
            .window(conn.min_win())
            .mss(conn.mss);
        if client_initiated {
            b = b.ack(p.ack);
        }
        let seg = b.build();
        self.emit.stats.retransmissions_forwarded += 1;
        if let Some(t) = self.instruments {
            t.record(self.now, "retransmission", &[("kind", "syn".to_string())]);
        }
        self.emit.encoded(conn, seg, out);
        self.settle(slot);
    }

    /// Handles a data/FIN/ACK segment from either replica; `slot` is
    /// whatever the table holds for `key`.
    fn on_replica_segment(
        &mut self,
        key: ConnKey,
        slot: Option<SlotId>,
        replica: Replica,
        seg: &TcpSegment,
        out: &mut FilterOutput,
    ) {
        let Some(slot) = self.live(slot) else {
            // §8: a FIN from the secondary after state deletion is
            // ACKed directly back to the secondary. Anything else —
            // our TCP layer retransmitting into a dead connection
            // included — is dropped (the tombstone answers the peer).
            match self.a_s.filter(|_| replica == Replica::Secondary) {
                Some(a_s) if seg.flags.contains(TcpFlags::FIN) && slot.is_some() => {
                    let to = (a_s, key.server_port);
                    self.ack_late_fin((key.peer.ip, key.peer.port), to, seg, out);
                }
                _ => self.emit.stats.drops += 1,
            }
            return;
        };
        let PrimaryFlow::Live(conn) = self.shard.touch(slot, self.now) else {
            unreachable!("live lifecycle state implies a live flow entry");
        };
        // Handshake segments.
        if seg.flags.contains(TcpFlags::SYN) {
            let already_merged = conn.delta.is_some();
            match replica {
                Replica::Primary => {
                    conn.win_p = seg.window;
                    conn.p_syn = Some(seg.clone());
                }
                Replica::Secondary => {
                    conn.win_s = seg.window;
                    conn.s_syn = Some(seg.clone());
                }
            }
            if already_merged {
                self.resend_merged_syn(slot, out);
            } else {
                self.try_merge_syn(slot, out);
            }
            return;
        }
        // Record acknowledgment and window, noting whether this
        // replica repeated its previous ack (a genuine re-ACK).
        if seg.flags.contains(TcpFlags::ACK) {
            match replica {
                Replica::Primary => {
                    conn.last_was_replica_dup = conn.ack_p == Some(seg.ack);
                    conn.ack_p = Some(seg.ack);
                    conn.win_p = seg.window;
                }
                Replica::Secondary => {
                    conn.last_was_replica_dup = conn.ack_s == Some(seg.ack);
                    conn.ack_s = Some(seg.ack);
                    conn.win_s = seg.window;
                }
            }
        }
        let Some(delta) = conn.delta else {
            // Data before the handshake merged: cannot normalise.
            self.emit.stats.drops += 1;
            return;
        };
        // Normalise into client (secondary) sequence space.
        let seq = match replica {
            Replica::Primary => seg.seq.wrapping_sub(delta),
            Replica::Secondary => seg.seq,
        };
        let payload_len = seg.payload.len() as u32;
        let end = seq.wrapping_add(payload_len);
        let has_fin = seg.flags.contains(TcpFlags::FIN);
        if has_fin {
            let fin_pos = end;
            match replica {
                Replica::Primary => conn.p_fin = Some(fin_pos),
                Replica::Secondary => conn.s_fin = Some(fin_pos),
            }
        }
        // RST: forward with translated sequence number and drop state.
        if seg.flags.contains(TcpFlags::RST) {
            let (_, PrimaryFlow::Live(mut conn)) = self.shard.remove(slot) else {
                unreachable!("live lifecycle state implies a live flow entry");
            };
            self.lag.flow_left(conn.pq.len(), conn.mss);
            self.emit.empty(&mut conn, seq, None, TcpFlags::RST, 0, out);
            self.emit.stats.conns_closed += 1;
            return;
        }
        let fin_end = if has_fin { end.wrapping_add(1) } else { end };
        let is_retransmission = fin_end != seq && seq_le(fin_end, conn.send_next);
        if is_retransmission {
            // §4: the bridge receives only a single copy of a
            // retransmission; do not enqueue, send immediately with the
            // current minimum ack/window.
            let Some(ack) = conn.client_ack(self.unsafe_ack) else {
                self.emit.stats.drops += 1;
                return;
            };
            let mut flags = TcpFlags::EMPTY;
            if !seg.payload.is_empty() {
                flags |= TcpFlags::PSH;
            }
            if has_fin {
                flags |= TcpFlags::FIN;
            }
            self.emit.stats.retransmissions_forwarded += 1;
            if let Some(t) = self.instruments {
                t.record(
                    self.now,
                    "retransmission",
                    &[
                        ("seq", seq.to_string()),
                        ("len", seg.payload.len().to_string()),
                    ],
                );
            }
            let win = conn.min_win();
            self.emit.hot(
                conn,
                seq,
                Some(ack),
                flags,
                win,
                std::iter::once(&seg.payload[..]),
                seg.payload.len(),
                None,
                out,
            );
            self.settle(slot);
            return;
        }
        if !seg.payload.is_empty() {
            let send_next = conn.send_next;
            match replica {
                Replica::Primary => {
                    // Measure the queue around the insert (it clips
                    // overlaps, so the delta is not the payload size)
                    // and stamp the head-arrival time on the
                    // empty→non-empty edge.
                    let before = conn.pq.len();
                    conn.pq.insert(seq, seg.payload.clone(), send_next);
                    if self.lag.attached() {
                        let after = conn.pq.len();
                        if before == 0 && after > 0 {
                            conn.pq_head_since = self.now;
                        }
                        self.lag.queue_changed(before, after, conn.mss);
                    }
                }
                Replica::Secondary => conn.sq.insert(seq, seg.payload.clone(), send_next),
            }
        }
        let pure_ack = seg.payload.is_empty() && !has_fin && seg.flags.contains(TcpFlags::ACK);
        let emitted_before = out.to_wire.len();
        self.try_merge(slot, out);
        // Duplicate-ACK forwarding: a pure ACK that does not advance
        // min(ack_P, ack_S) is a replica *re-ACK* — the degenerate case
        // of §4's "recognises that k is a retransmission … sends k
        // immediately" with an empty k. Without this, a lost merged ACK
        // can never be repaired when the servers have no data to
        // retransmit, and the client retries forever. It also carries
        // window updates and feeds the client's fast retransmit.
        if pure_ack && out.to_wire.len() == emitted_before {
            if let PrimaryFlow::Live(conn) = self.shard.get_mut(slot) {
                if let Some(m) = conn.client_ack(self.unsafe_ack) {
                    // Only a *repeated* ack from one replica counts as
                    // a re-ACK; the other replica merely catching up to
                    // the minimum is normal duplex flow and forwarding
                    // it would double the merged ACK cadence.
                    if conn.last_ack_sent == Some(m) && conn.last_was_replica_dup {
                        self.emit.stats.empty_acks += 1;
                        if let Some(t) = self.instruments {
                            t.record(
                                self.now,
                                "empty_ack",
                                &[("ack", m.to_string()), ("kind", "re_ack".to_string())],
                            );
                        }
                        let (seq, win) = (conn.send_next, conn.min_win());
                        self.emit
                            .empty(conn, seq, Some(m), TcpFlags::EMPTY, win, out);
                    }
                }
            }
        }
        self.maybe_teardown(slot);
    }

    /// §8: once both directions are closed and acknowledged, delete the
    /// connection state, leaving a TimeWait tombstone for late
    /// retransmissions (reaped by the flow GC after its TTL).
    fn maybe_teardown(&mut self, slot: SlotId) {
        let PrimaryFlow::Live(conn) = self.shard.get(slot) else {
            return;
        };
        let (pq_len, mss) = (conn.pq.len(), conn.mss);
        let Some(delta) = conn.delta else { return };
        // Server->client direction closed: merged FIN sent and
        // acknowledged by the client.
        let Some(client_acked) = conn.client_acked else {
            return;
        };
        let server_side_done = conn.fin_sent && seq_le(conn.send_next, client_acked);
        // Client->server direction closed: client FIN seen and both
        // replicas acknowledged past it.
        let client_side_done = match (conn.client_fin, conn.min_ack()) {
            (Some(f), Some(m)) => seq_gt(m, f),
            _ => false,
        };
        if server_side_done && client_side_done {
            // The TimeWait tombstone takes the live entry's slot; any
            // residual unmatched bytes leave the lag ledger with it
            // (a fully acknowledged teardown normally has none).
            self.lag.flow_left(pq_len, mss);
            let tomb = PrimaryFlow::Tomb(Tombstone {
                delta,
                degraded: false,
                fins: [true; 2],
            });
            self.shard
                .replace(slot, FlowState::TimeWait, tomb, self.now);
            self.emit.stats.conns_closed += 1;
        }
    }

    /// Handles an ingress segment from the unreplicated peer (the
    /// client C, or back-end T for server-initiated connections);
    /// `slot` is whatever the table holds for `key`.
    ///
    /// Takes `parsed` by value so its payload slice (which shares
    /// `raw.bytes`' storage) can be dropped before the ack-translate
    /// patch — leaving the buffer uniquely owned means the patcher
    /// takes it over in place instead of copying.
    fn on_client_segment(
        &mut self,
        parsed: TcpSegment,
        raw: AddressedSegment,
        key: ConnKey,
        slot: Option<SlotId>,
        out: &mut FilterOutput,
    ) {
        let live = self.live(slot);
        let (syn, fin) = (
            parsed.flags.contains(TcpFlags::SYN),
            parsed.flags.contains(TcpFlags::FIN),
        );
        // New client-initiated connection?
        if syn && !parsed.flags.contains(TcpFlags::ACK) {
            match self.mode {
                PrimaryMode::Normal if live.is_none() => {
                    self.open(key, slot, out);
                }
                PrimaryMode::SecondaryFailed => self.open_degraded(key, slot, out),
                _ => {}
            }
            out.to_tcp.push(raw);
            return;
        }
        let Some(slot) = live else {
            if let Some(delta) = self.forward_degraded(slot, PEER, fin) {
                // §6 pass-through: translate the ack and pass
                // everything to our TCP layer.
                if parsed.flags.contains(TcpFlags::ACK) && delta != 0 {
                    let new_ack = parsed.ack.wrapping_add(delta);
                    drop(parsed);
                    let patched = self.patch(raw, |p| p.set_ack(new_ack));
                    self.emit.stats.acks_translated += 1;
                    out.to_tcp.push(patched);
                } else {
                    out.to_tcp.push(raw);
                }
            } else if fin && slot.is_some() {
                // §8: the client retransmits its FIN after we deleted
                // the connection: ACK it ourselves.
                let from = (self.emit.a_p, key.server_port);
                self.ack_late_fin(from, (key.peer.ip, key.peer.port), &parsed, out);
            } else if self.gate && !syn && slot.is_none() {
                // A connection this replica never saw established: it
                // cannot replicate it, and its stack would answer with
                // a RST — drop, never deliver.
                self.emit.stats.unwitnessed_dropped += 1;
            } else {
                // Unknown connection (e.g. created before the bridge,
                // or non-failover traffic that matched a port): pass
                // through.
                out.to_tcp.push(raw);
            }
            return;
        };
        let PrimaryFlow::Live(conn) = self.shard.touch(slot, self.now) else {
            unreachable!("live lifecycle state implies a live flow entry");
        };
        // Track teardown progress (in S/client-facing space).
        if parsed.flags.contains(TcpFlags::ACK) {
            conn.client_acked = Some(match conn.client_acked {
                Some(a) if seq_gt(a, parsed.ack) => a,
                _ => parsed.ack,
            });
        }
        if parsed.flags.contains(TcpFlags::FIN) {
            conn.client_fin = Some(parsed.seq.wrapping_add(parsed.payload.len() as u32));
        }
        let delta_opt = conn.delta;
        self.settle(slot);
        // Translate the acknowledgment into the primary's space.
        if parsed.flags.contains(TcpFlags::ACK) {
            if let Some(delta) = delta_opt {
                let new_ack = parsed.ack.wrapping_add(delta);
                drop(parsed);
                let patched = self.patch(raw, |p| p.set_ack(new_ack));
                self.emit.stats.acks_translated += 1;
                out.to_tcp.push(patched);
            } else {
                // An ACK cannot precede the merged SYN in a correct
                // run; drop rather than corrupt the primary's TCB.
                self.emit.stats.drops += 1;
            }
        } else {
            out.to_tcp.push(raw);
        }
        self.maybe_teardown(slot);
    }

    // ---------------------------------------------------------------
    // Direction entry points
    // ---------------------------------------------------------------

    /// One segment through the datapath, as [`PrimaryBridge::route`]
    /// classified it. Returns whether it belonged to a failover
    /// connection — a designated port or tuple, a tracked flow, the
    /// downstream's diverted stream — rather than passing through
    /// untouched: only then is what it appended to `out` a chain
    /// link's to route.
    fn run(&mut self, route: Route, seg: AddressedSegment, out: &mut FilterOutput) -> bool {
        match route {
            Route::Outbound(key) => self.outbound(seg, key, out),
            Route::Diverted(key) => {
                self.diverted(seg, key, out);
                true
            }
            Route::Peer(key) => self.peer(seg, key, out),
        }
    }

    /// Decodes a segment under the ingress-parse stage clock.
    fn decode(&mut self, bytes: &Bytes) -> Option<TcpSegment> {
        let t0 = self.emit.clock.start();
        let parsed = TcpSegment::decode_shared(bytes);
        self.emit.clock.end(Stage::IngressParse, t0);
        parsed.ok()
    }

    /// The outbound datapath body (our TCP layer → wire).
    fn outbound(
        &mut self,
        seg: AddressedSegment,
        key: Option<ConnKey>,
        out: &mut FilterOutput,
    ) -> bool {
        let (Some(parsed), Some(key)) = (self.decode(&seg.bytes), key) else {
            out.to_wire.push(seg);
            return false;
        };
        let slot = self.find(&key);
        let designated = slot.is_some()
            || self
                .config
                .matches(parsed.src_port, seg.dst, parsed.dst_port);
        if !designated || Some(seg.dst) == self.a_s {
            out.to_wire.push(seg);
            return false;
        }
        // §6-degraded connections pass through immediately with Δseq
        // subtracted and ack/window untouched — in *any* mode (a flow
        // not handed to a replica that joined below stays degraded).
        let fin = parsed.flags.contains(TcpFlags::FIN);
        if let Some(delta) = self.forward_degraded(slot, OURS, fin) {
            if delta == 0 {
                out.to_wire.push(seg);
            } else {
                let new_seq = parsed.seq.wrapping_sub(delta);
                drop(parsed);
                let patched = self.patch(seg, |p| p.set_seq(new_seq));
                out.to_wire.push(patched);
            }
            return true;
        }
        match self.mode {
            PrimaryMode::SecondaryFailed => {
                // Server-initiated opens while degraded are local-only
                // for their lifetime, like client opens.
                if parsed.flags.contains(TcpFlags::SYN)
                    && !parsed.flags.contains(TcpFlags::ACK)
                    && slot.is_none()
                {
                    self.open_degraded(key, None, out);
                }
                out.to_wire.push(seg);
            }
            PrimaryMode::Normal => {
                // Any SYN from our own TCP layer opens bridge state: a
                // SYN+ACK answers a client SYN that passed through
                // before the designation was registered (§7 method 1),
                // a bare SYN starts a server-initiated connection
                // (§7.2).
                let mut slot = slot;
                if parsed.flags.contains(TcpFlags::SYN) && self.live(slot).is_none() {
                    slot = Some(self.open(key, slot, out));
                }
                self.on_replica_segment(key, slot, Replica::Primary, &parsed, out);
            }
        }
        true
    }

    /// Diverted secondary output (the buffer stays uniquely owned up to
    /// here — the router only peeked — so the strip is in place).
    fn diverted(&mut self, seg: AddressedSegment, key: ConnKey, out: &mut FilterOutput) {
        if self.mode == PrimaryMode::SecondaryFailed {
            return; // §6 step 2
        }
        // Strip the option before processing so payload matching sees
        // the canonical segment.
        let stripped = self.patch(seg, |p| {
            p.strip_orig_dest_option();
        });
        let Some(canonical) = self.decode(&stripped.bytes) else {
            self.emit.stats.drops += 1;
            return;
        };
        let mut slot = self.find(&key);
        // A SYN from the secondary may precede any primary activity (a
        // server-initiated open where S ran first, or a SYN+ACK racing
        // the primary's own): open state.
        if canonical.flags.contains(TcpFlags::SYN) && self.live(slot).is_none() {
            slot = Some(self.open(key, slot, out));
        }
        self.on_replica_segment(key, slot, Replica::Secondary, &canonical, out);
    }

    /// Any other segment off the wire (wire → our TCP layer).
    fn peer(
        &mut self,
        seg: AddressedSegment,
        key: Option<ConnKey>,
        out: &mut FilterOutput,
    ) -> bool {
        let (Some(parsed), Some(key)) = (self.decode(&seg.bytes), key) else {
            out.to_tcp.push(seg);
            return false;
        };
        // A segment from an unreplicated peer addressed to us?
        if seg.dst == self.emit.a_p {
            let slot = self.find(&key);
            let designated = slot.is_some()
                || self
                    .config
                    .matches(parsed.dst_port, seg.src, parsed.src_port);
            if designated {
                self.on_client_segment(parsed, seg, key, slot, out);
                return true;
            }
        }
        out.to_tcp.push(seg);
        false
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
        self.gc_flows(now_nanos);
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
    use tcpfo_wire::tcp::verify_segment_checksum;

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
        let p_synack = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P)
                .ack(ISS_C + 1)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        let held = b.on_outbound(p_synack, 0);
        assert!(held.to_wire.is_empty(), "P's SYN+ACK is held");
        let s_synack = diverted(
            TcpSegment::builder(80, 5555)
                .seq(ISS_S)
                .ack(ISS_C + 1)
                .flags(TcpFlags::SYN)
                .mss(1200)
                .window(40_000)
                .build(),
        );
        let merged = b.on_inbound(s_synack, 0);
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
        b
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
        // A merge mutates the connection where it sits: the shard's
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
        let mut b = established();
        // P's TCP retransmits its SYN+ACK (the client ACK was slow).
        let p_synack = raw(
            A_P,
            A_C,
            TcpSegment::builder(80, 5555)
                .seq(ISS_P)
                .ack(ISS_C + 1)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        );
        let out = b.on_outbound(p_synack, 0);
        assert_eq!(out.to_wire.len(), 1, "merged SYN+ACK re-sent");
        let seg = decode_wire(&out, 0);
        assert!(seg.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(seg.seq, ISS_S);
        assert!(b.stats.retransmissions_forwarded >= 1);
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
