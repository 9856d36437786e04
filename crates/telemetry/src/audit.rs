//! Online invariant auditor, causal trace ids, and the violation
//! flight recorder.
//!
//! The paper's correctness argument rests on invariants the bridge
//! must hold on **every** released segment (§3.2, §3.4, §5, §7):
//! client-facing bytes live in S's sequence space, `ack = min(ack_P,
//! ack_S)`, `win = min(win_P, win_S)`, `MSS = min(MSS_P, MSS_S)`, only
//! replica-matched bytes are released, a bare ACK is synthesised when
//! the minimum advances (§3.4), and a promoted replica takes over
//! before it serves the client (§5). The
//! [`InvariantAuditor`] is an *independent* observer a bridge can
//! carry: it re-derives all of that state from the segments it sees
//! and checks each egress event against the catalogue of [`Rule`]s.
//!
//! On a violation the auditor freezes a [flight-recorder
//! bundle](InvariantAuditor::bundle_path): the last-K causal trace
//! ring entries, a truncated pcapng slice of recent segment headers
//! (with the diverted orig-dest option annotated per packet), the §5
//! failover timeline, and the rule ledger.
//!
//! Attachment is optional (`TCPFO_AUDIT=1` or a config field). The
//! bridges keep their zero-allocation steady-state path when detached,
//! and so does the auditor when attached: its shadow streams hold views
//! of the replica segments, each entry point looks its connection up
//! once, and the flight recorder keeps headers, not segments.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use tcpfo_wire::eth::ETH_HEADER_LEN;
use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet, IPV4_HEADER_LEN, PROTO_TCP};
use tcpfo_wire::mac::MacAddr;
use tcpfo_wire::pcapng::PcapngWriter;
use tcpfo_wire::seq::{seq_ge, seq_gt, seq_min};
use tcpfo_wire::tcp::{peek_orig_dest, verify_segment_checksum, TcpFlags, TcpView};

use crate::health::ReplicationLag;
use crate::ring::Ring;
use crate::{fmt_nanos, FailoverPhase, Telemetry};

// ---------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------

/// A causal trace id stamped on a segment when it enters the datapath
/// (client ingress or the local stack's outbox) and carried through
/// address translation, queue insert, match and release. `0` means
/// "not traced".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

/// Process-wide, not per hub: every host stamps its segments with
/// [`TraceId::fresh`] and the auditors link them across replicas, so
/// two hubs must never hand out the same id.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// The null id: the segment was never stamped.
    pub const NONE: TraceId = TraceId(0);

    /// Allocates a fresh process-unique id.
    pub fn fresh() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Whether this id was actually stamped.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    /// `t<N>`, or `t-` when never stamped.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "t-")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// One in this many released segments has its checksum verified by
/// full recomputation: RFC 1624 incremental updates must agree with
/// the ground truth.
const CHECKSUM_SAMPLE: u64 = 16;

/// Tuning knobs for one [`InvariantAuditor`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Label used in reports, journal scopes and bundle names
    /// (e.g. `"primary"`).
    pub label: String,
    /// Capacity of the causal trace ring (default 1024).
    pub ring_capacity: usize,
    /// Capacity, in records, of the recent-segment ring the pcapng
    /// slice is built from (default 256). A record is one segment's
    /// TCP header and length, not the segment.
    pub pcap_capacity: usize,
    /// Directory flight-recorder bundles are written under (default
    /// `target/audit-bundles`; `TCPFO_AUDIT_BUNDLE_DIR` through
    /// [`AuditConfig::from_env`]).
    pub bundle_dir: PathBuf,
    /// Panic as soon as a rule is violated (after the bundle is
    /// written). Tests that *expect* violations turn this off.
    pub panic_on_violation: bool,
}

impl AuditConfig {
    /// Defaults without consulting the environment.
    pub fn new(label: &str) -> Self {
        AuditConfig {
            label: label.to_string(),
            ring_capacity: 1024,
            pcap_capacity: 256,
            bundle_dir: PathBuf::from("target/audit-bundles"),
            panic_on_violation: true,
        }
    }

    /// Defaults, with the bundle directory taken from
    /// `TCPFO_AUDIT_BUNDLE_DIR` when that is set — a deployment path,
    /// and the only thing about an auditor the environment decides.
    /// Capacities are the fields above.
    pub fn from_env(label: &str) -> Self {
        let mut c = AuditConfig::new(label);
        if let Some(dir) = std::env::var_os("TCPFO_AUDIT_BUNDLE_DIR") {
            c.bundle_dir = PathBuf::from(dir);
        }
        c
    }

    /// Builder: set [`AuditConfig::panic_on_violation`].
    pub fn panic_on_violation(mut self, yes: bool) -> Self {
        self.panic_on_violation = yes;
        self
    }

    /// Builder: set [`AuditConfig::bundle_dir`].
    pub fn bundle_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.bundle_dir = dir.into();
        self
    }
}

// ---------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------

/// The paper-invariant catalogue the auditor checks. Each rule cites
/// the section of *Transparent TCP Connection Failover* it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// §3.2: client-facing bytes are released in S's sequence space,
    /// in order at the matched watermark (or entirely below it for §4
    /// retransmission forwarding).
    SeqSpace,
    /// §3.2: every released acknowledgment is `min(ack_P, ack_S)`.
    AckMin,
    /// §3.2: every released window is `min(win_P, win_S)`.
    WinMin,
    /// §7: the merged SYN advertises `MSS = min(MSS_P, MSS_S)`.
    MssMin,
    /// §3.2: only bytes present in *both* replica output queues (after
    /// Δseq normalisation) are released, and a FIN only once both
    /// replicas closed at the same position.
    MatchedOnly,
    /// §3.2: the two replica byte streams agree byte-for-byte up to
    /// the matched watermark.
    QueueAgree,
    /// §3.4: when `min(ack)` advances, an acknowledging segment (data
    /// or bare ACK) is released before the event ends, so a
    /// delayed-ACK client never deadlocks against the server RTO.
    BareAck,
    /// RFC 1624: incrementally-maintained checksums equal a full
    /// recomputation (sampled 1-in-N).
    Checksum,
    /// §3.1/§3.3: address translation is faithful — below the head a
    /// chain link's failover output is diverted to its upstream with the
    /// orig-dest option, at the head it leaves from the VIP, off the
    /// VIP's host client ingress is rewritten to the local replica, and
    /// client acks gain Δseq.
    Translate,
    /// §5: the first client byte a promoted link sends follows its
    /// takeover and the VIP's claim (`takeover.arp`), and the hub's §5
    /// view is in causal order.
    FailoverOrder,
    /// §1 daisy-chain generalisation of §5: a chain promotion commits
    /// only after the audit journal has recorded the decision
    /// (log-before-act), and decision/commit stamps are monotone.
    PromotionOrder,
}

impl Rule {
    /// Every rule, in ledger display order.
    pub const ALL: [Rule; 11] = [
        Rule::SeqSpace,
        Rule::AckMin,
        Rule::WinMin,
        Rule::MssMin,
        Rule::MatchedOnly,
        Rule::QueueAgree,
        Rule::BareAck,
        Rule::Checksum,
        Rule::Translate,
        Rule::FailoverOrder,
        Rule::PromotionOrder,
    ];

    /// Stable short identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::SeqSpace => "seq_space",
            Rule::AckMin => "ack_min",
            Rule::WinMin => "win_min",
            Rule::MssMin => "mss_min",
            Rule::MatchedOnly => "matched_only",
            Rule::QueueAgree => "queue_agree",
            Rule::BareAck => "bare_ack",
            Rule::Checksum => "checksum",
            Rule::Translate => "translate",
            Rule::FailoverOrder => "failover_order",
            Rule::PromotionOrder => "promotion_order",
        }
    }

    /// Paper section the rule encodes.
    pub fn paper_ref(self) -> &'static str {
        match self {
            Rule::SeqSpace => "§3.2",
            Rule::AckMin => "§3.2",
            Rule::WinMin => "§3.2",
            Rule::MssMin => "§7",
            Rule::MatchedOnly => "§3.2",
            Rule::QueueAgree => "§3.2",
            Rule::BareAck => "§3.4",
            Rule::Checksum => "RFC 1624",
            Rule::Translate => "§3.1/§3.3",
            Rule::FailoverOrder => "§5",
            Rule::PromotionOrder => "§1/§5",
        }
    }

    /// Position in [`Rule::ALL`], which lists the rules in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-rule check/violation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleStat {
    /// Times the rule was evaluated.
    pub checks: u64,
    /// Times it failed.
    pub violations: u64,
}

/// The auditor's per-rule ledger.
#[derive(Debug, Clone, Default)]
pub struct RuleLedger {
    stats: [RuleStat; Rule::ALL.len()],
}

impl RuleLedger {
    /// Counters for one rule.
    pub fn stat(&self, rule: Rule) -> RuleStat {
        self.stats[rule.index()]
    }

    /// Total evaluations across all rules.
    pub fn total_checks(&self) -> u64 {
        self.stats.iter().map(|s| s.checks).sum()
    }

    /// Total violations across all rules.
    pub fn total_violations(&self) -> u64 {
        self.stats.iter().map(|s| s.violations).sum()
    }

    fn note_check(&mut self, rule: Rule) {
        self.stats[rule.index()].checks += 1;
    }

    fn note_violation(&mut self, rule: Rule) {
        self.stats[rule.index()].violations += 1;
    }

    /// Aligned text table of the ledger.
    pub fn to_table(&self) -> String {
        let mut out = String::from("rule            paper      checks  violations\n");
        for rule in Rule::ALL {
            let s = self.stat(rule);
            out.push_str(&format!(
                "{:<15} {:<9} {:>8}  {:>10}\n",
                rule.id(),
                rule.paper_ref(),
                s.checks,
                s.violations
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Trace ring + recent-segment ring
// ---------------------------------------------------------------------

/// What a trace-ring entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEventKind {
    /// Segment from the unreplicated peer entered the bridge.
    ClientIngress,
    /// The primary replica's stack emitted a segment.
    PrimaryOut,
    /// A diverted secondary segment arrived (S→P leg).
    SecondaryDiverted,
    /// The bridge released a client-facing segment.
    Release,
    /// The bridge handed a segment up to the local stack.
    DeliverUp,
    /// Bytes entered a shadow replica stream (queue insert).
    QueueInsert,
    /// A mode or §5 takeover step transition.
    Phase,
    /// Anything else worth remembering.
    Note,
}

impl fmt::Display for AuditEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditEventKind::ClientIngress => "client_in",
            AuditEventKind::PrimaryOut => "primary_out",
            AuditEventKind::SecondaryDiverted => "diverted_in",
            AuditEventKind::Release => "release",
            AuditEventKind::DeliverUp => "deliver_up",
            AuditEventKind::QueueInsert => "queue_insert",
            AuditEventKind::Phase => "phase",
            AuditEventKind::Note => "note",
        };
        f.write_str(s)
    }
}

/// Decoded header scalars of a ring-entry segment. Kept unformatted so
/// a steady-state ring push is a field copy; rendering happens only
/// when a human (or a violation) asks for the ring.
#[derive(Debug, Clone, Copy)]
pub struct SegSummary {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Advertised window.
    pub win: u16,
    /// Payload length.
    pub len: u32,
    /// Original-destination option, when the segment carries one.
    pub orig_dest: Option<(Ipv4Addr, u16)>,
}

impl fmt::Display for SegSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}→{}:{} {} seq={} ack={} win={} len={}",
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.win,
            self.len
        )?;
        if let Some((oip, oport)) = self.orig_dest {
            write!(f, " orig-dest={oip}:{oport}")?;
        }
        Ok(())
    }
}

/// A ring entry's payload: raw segment or queue-insert scalars on the
/// hot path, pre-rendered text for cold phase notes.
#[derive(Debug, Clone)]
pub enum AuditDetail {
    /// Pre-rendered text (phase transitions, takeover steps).
    Text(String),
    /// Segment header scalars, rendered lazily.
    Seg(SegSummary),
    /// A shadow-stream (queue) insert, rendered lazily.
    QueueInsert {
        /// Connection the bytes belong to.
        key: AuditKey,
        /// Primary (`true`) or secondary replica stream.
        primary: bool,
        /// Offset relative to the stream base.
        rel: u64,
        /// Inserted byte count.
        len: u32,
        /// Release watermark at insert time.
        watermark: u64,
    },
}

impl fmt::Display for AuditDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditDetail::Text(s) => f.write_str(s),
            AuditDetail::Seg(s) => s.fmt(f),
            AuditDetail::QueueInsert {
                key,
                primary,
                rel,
                len,
                watermark,
            } => write!(
                f,
                "conn {key} {}q insert rel={rel} len={len} (watermark {watermark})",
                if *primary { "p" } else { "s" }
            ),
        }
    }
}

/// One entry of the causal trace ring.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Sim time of the event.
    pub at_ns: u64,
    /// Trace id of the segment involved (if any).
    pub trace: TraceId,
    /// Event class.
    pub kind: AuditEventKind,
    /// Details (addresses, seq/ack, lengths), rendered on demand.
    pub detail: AuditDetail,
}

impl AuditEvent {
    /// One-line rendering.
    pub fn summary(&self) -> String {
        format!(
            "[{:>10}] {:<6} {:<13} {}",
            fmt_nanos(self.at_ns),
            self.trace.to_string(),
            self.kind.to_string(),
            self.detail
        )
    }
}

/// Longest TCP header, options included.
const MAX_TCP_HEADER: usize = 60;

/// A recently seen segment's TCP header, options included, with the
/// segment's length: what the flight recorder's pcapng slice needs to
/// show the segment as a truncated packet. The segment itself is not
/// held, so the bridge can reuse its buffer.
#[derive(Debug, Clone)]
struct SegmentRecord {
    at_ns: u64,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    header: [u8; MAX_TCP_HEADER],
    header_len: u8,
    seg_len: u32,
    trace: TraceId,
    kind: AuditEventKind,
}

// ---------------------------------------------------------------------
// Shadow replica streams
// ---------------------------------------------------------------------

/// One run of replica payload in a shadow stream: a view of the segment
/// that carried it, at its offset relative to the stream base (S's
/// ISN + 1).
#[derive(Debug, Clone)]
struct ShadowSeg {
    at: u64,
    data: Bytes,
    trace: TraceId,
}

impl ShadowSeg {
    fn end(&self) -> u64 {
        self.at + self.data.len() as u64
    }

    /// The run's bytes in `[from, to)`, both within the run.
    fn bytes(&self, from: u64, to: u64) -> &[u8] {
        &self.data[(from - self.at) as usize..(to - self.at) as usize]
    }
}

/// An independent reassembly buffer for one replica's byte stream,
/// normalised into S's sequence space. Mirrors the bridge's output
/// queue semantics: inserts clip below the released watermark, and
/// overlapping re-sends must carry identical bytes. It holds views of
/// the replica segments, never copies: disjoint runs ordered by offset,
/// in-order data appended at the back, released bytes trimmed off the
/// front.
#[derive(Debug, Clone, Default)]
struct ShadowStream {
    segs: VecDeque<ShadowSeg>,
    /// Everything below this relative offset was released and trimmed.
    trimmed: u64,
}

impl ShadowStream {
    /// Index of the first run that ends after `pos`.
    fn first_after(&self, pos: u64) -> usize {
        self.segs.partition_point(|s| s.end() <= pos)
    }

    /// Inserts `data` at relative offset `at`: the parts that fill gaps
    /// are kept as views of `data`. Returns the offset of the first
    /// mismatching overlapped byte, if any; gaps before it are filled.
    fn insert(&mut self, at: u64, data: &Bytes, trace: TraceId) -> Result<(), u64> {
        let end = at + data.len() as u64;
        let mut pos = at.max(self.trimmed).min(end);
        let mut i = self.first_after(pos);
        while pos < end {
            let next = self.segs.get(i);
            if let Some(seg) = next.filter(|s| s.at <= pos) {
                let upto = seg.end().min(end);
                let fresh = &data[(pos - at) as usize..(upto - at) as usize];
                if let Some(off) = seg
                    .bytes(pos, upto)
                    .iter()
                    .zip(fresh)
                    .position(|(a, b)| a != b)
                {
                    return Err(pos + off as u64);
                }
                pos = upto;
            } else {
                let gap_end = next.map_or(end, |s| s.at.min(end));
                let view = data.slice((pos - at) as usize..(gap_end - at) as usize);
                self.segs.insert(
                    i,
                    ShadowSeg {
                        at: pos,
                        data: view,
                        trace,
                    },
                );
                pos = gap_end;
            }
            i += 1;
        }
        Ok(())
    }

    /// The held bytes of `[at, at+len)` from `at` on, as the runs hold
    /// them, up to the first gap.
    fn pieces(&self, at: u64, len: usize) -> impl Iterator<Item = &[u8]> {
        let (mut pos, end) = (at, at + len as u64);
        let runs = self.segs.range(self.first_after(at)..);
        runs.map_while(move |seg| {
            let from = std::mem::replace(&mut pos, seg.end().min(end));
            (from < end && seg.at <= from).then(|| seg.bytes(from, pos))
        })
    }

    /// The bytes present from `at` on, at most `max` of them, up to the
    /// first gap.
    fn run_at(&self, at: u64, max: usize) -> Vec<u8> {
        self.pieces(at, max).flatten().copied().collect()
    }

    /// Whether `[at, at+data.len())` is fully present — and if so,
    /// whether it equals `data` — without copying.
    fn matches(&self, at: u64, data: &[u8]) -> Option<bool> {
        let (mut n, mut eq) = (0, true);
        for piece in self.pieces(at, data.len()) {
            eq &= piece == &data[n..n + piece.len()];
            n += piece.len();
        }
        (n == data.len()).then_some(eq)
    }

    /// Trace ids contributing to `[at, at+len)`.
    fn traces(&self, at: u64, len: usize) -> Vec<TraceId> {
        let end = at + len as u64;
        let mut out = Vec::new();
        for seg in self
            .segs
            .range(self.first_after(at)..)
            .take_while(|s| s.at < end)
        {
            if !out.contains(&seg.trace) {
                out.push(seg.trace);
            }
        }
        out
    }

    /// Drops everything below relative offset `upto` (released bytes).
    fn trim(&mut self, upto: u64) {
        if upto <= self.trimmed {
            return;
        }
        while self.segs.front().is_some_and(|s| s.end() <= upto) {
            self.segs.pop_front();
        }
        if let Some(front) = self.segs.front_mut().filter(|s| s.at < upto) {
            front.data = front.data.slice((upto - front.at) as usize..);
            front.at = upto;
        }
        self.trimmed = upto;
    }

    /// Buffered byte count (diagnostics).
    fn buffered(&self) -> usize {
        self.segs.iter().map(|s| s.data.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Per-connection shadow state
// ---------------------------------------------------------------------

/// Connection key in the auditor's tables: the unreplicated peer plus
/// the replicated server port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditKey {
    /// Peer (client) address.
    pub peer_ip: Ipv4Addr,
    /// Peer (client) port.
    pub peer_port: u16,
    /// Server-side port of the replicated service.
    pub server_port: u16,
}

impl std::hash::Hash for AuditKey {
    /// One `u64` write: a hasher fed three small writes costs more.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let peer = u64::from(u32::from(self.peer_ip)) << 32;
        state.write_u64(peer | u64::from(self.peer_port) << 16 | u64::from(self.server_port));
    }
}

impl AuditKey {
    fn new(peer_ip: Ipv4Addr, peer_port: u16, server_port: u16) -> AuditKey {
        AuditKey {
            peer_ip,
            peer_port,
            server_port,
        }
    }
}

impl fmt::Display for AuditKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}→:{}",
            self.peer_ip, self.peer_port, self.server_port
        )
    }
}

/// One replica's side of a shadowed connection.
#[derive(Debug, Clone, Default)]
struct ReplicaShadow {
    isn: Option<u32>,
    mss: Option<u16>,
    ack: Option<u32>,
    win: u16,
    /// SYN+ACK acknowledgment value (client-initiated handshakes).
    syn_ack: Option<u32>,
    /// Shadow stream in S-space relative offsets (base = s_isn + 1).
    stream: ShadowStream,
    fin: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct AuditConn {
    p: ReplicaShadow,
    s: ReplicaShadow,
    /// Next relative offset the bridge should release.
    send_next: u64,
    /// Merged SYN released — the connection is established.
    syn_released: bool,
    fin_released: bool,
    /// Highest acknowledgment the bridge has released to the client.
    last_ack_released: Option<u32>,
    /// Client teardown mirror (absolute, S space).
    client_acked: Option<u32>,
    client_fin: Option<u32>,
}

impl AuditConn {
    fn delta(&self) -> Option<u32> {
        Some(self.p.isn?.wrapping_sub(self.s.isn?))
    }

    fn base(&self) -> Option<u32> {
        Some(self.s.isn?.wrapping_add(1))
    }

    /// Relative offset of an absolute S-space sequence number.
    fn rel(&self, seq: u32) -> Option<u64> {
        Some(seq.wrapping_sub(self.base()?) as u64)
    }

    fn min_ack(&self) -> Option<u32> {
        match (self.p.ack, self.s.ack) {
            (Some(p), Some(s)) => Some(seq_min(p, s)),
            _ => None,
        }
    }

    fn min_win(&self) -> u16 {
        self.p.win.min(self.s.win)
    }

    /// Mirror of the bridge's §8 teardown condition.
    fn teardown_reached(&self) -> bool {
        let Some(client_acked) = self.client_acked else {
            return false;
        };
        let server_done = self.fin_released
            && self
                .base()
                .is_some_and(|b| seq_ge(client_acked, b.wrapping_add(self.send_next as u32)));
        let client_done = match (self.client_fin, self.min_ack()) {
            (Some(f), Some(m)) => seq_gt(m, f),
            _ => false,
        };
        server_done && client_done
    }

    /// Where `released` (at stream offset `at`) first differs from
    /// either replica stream, and the bytes there as released and as
    /// each stream holds them (a gap ends a stream's run early): the
    /// payload rules' diagnostics, computed only when one fails.
    fn divergence(&self, at: u64, released: &[u8]) -> (usize, String) {
        let (p, s) = (
            self.p.stream.run_at(at, released.len()),
            self.s.stream.run_at(at, released.len()),
        );
        let first = released
            .iter()
            .enumerate()
            .position(|(i, b)| p.get(i) != Some(b) || s.get(i) != Some(b))
            .unwrap_or(0);
        let show = |v: &[u8]| format!("{:02x?}", &v[first.min(v.len())..(first + 8).min(v.len())]);
        let (r, p, s) = (show(released), show(&p), show(&s));
        (first, format!("released {r}, primary {p}, secondary {s}"))
    }

    /// Shadows one replica segment past the handshake: ack, window, FIN
    /// position, and the shadow byte stream (queue-insert mirror).
    /// Returns whether it was an RST, which closes the connection.
    fn observe(
        &mut self,
        rec: &mut Recorder,
        key: AuditKey,
        is_primary: bool,
        bytes: &Bytes,
        view: &TcpView<'_>,
        trace: TraceId,
    ) -> bool {
        let flags = view.flags();
        let (delta, base, watermark) = (self.delta(), self.base(), self.send_next);
        let side = if is_primary { &mut self.p } else { &mut self.s };
        if flags.contains(TcpFlags::ACK) {
            side.ack = Some(view.ack());
            side.win = view.window();
        }
        let (Some(delta), Some(base)) = (delta, base) else {
            return false;
        };
        if flags.contains(TcpFlags::RST) {
            // The bridge forwards a translated RST and drops state.
            return true;
        }
        // Normalise into S (client-facing) space.
        let seq = view.seq().wrapping_sub(if is_primary { delta } else { 0 });
        let rel = u64::from(seq.wrapping_sub(base));
        let payload = view.payload();
        if flags.contains(TcpFlags::FIN) {
            side.fin = Some(rel + payload.len() as u64);
        }
        if payload.is_empty() {
            return false;
        }
        side.stream.trim(watermark);
        let res = side
            .stream
            .insert(rel, &bytes.slice(view.header_len()..), trace);
        rec.push_event(
            AuditEventKind::QueueInsert,
            trace,
            AuditDetail::QueueInsert {
                key,
                primary: is_primary,
                rel,
                len: payload.len() as u32,
                watermark,
            },
        );
        if let Err(off) = res {
            let who = if is_primary { "primary" } else { "secondary" };
            let resent = &payload[(off - rel) as usize..];
            let resent = &resent[..resent.len().min(8)];
            let recorded = side.stream.run_at(off, resent.len());
            rec.check(Rule::QueueAgree, false, trace, || {
                format!(
                    "conn {key}: {who} replica re-sent different bytes at stream offset {off} \
                     (overlapping retransmission diverged from the recorded stream): \
                     recorded {recorded:02x?}, re-sent {resent:02x?}"
                )
            });
        }
        false
    }

    /// Rules on the merged SYN / SYN+ACK (§7): S's ISN, min window,
    /// min MSS, min ack.
    fn check_syn_release(
        &mut self,
        rec: &mut Recorder,
        key: AuditKey,
        view: &TcpView<'_>,
        trace: TraceId,
    ) {
        let (Some(p_isn), Some(s_isn)) = (self.p.isn, self.s.isn) else {
            // A merged SYN released before the auditor saw both replica
            // SYNs — it cannot have been merged from both.
            let seen = (self.p.isn, self.s.isn);
            rec.check(Rule::MatchedOnly, false, trace, || {
                format!(
                    "conn {key}: SYN released before both replica SYNs were observed \
                     (p_isn, s_isn)={seen:?}"
                )
            });
            return;
        };
        let seq = view.seq();
        rec.check(Rule::SeqSpace, seq == s_isn, trace, || {
            format!(
                "conn {key}: merged SYN uses seq={seq}, expected the secondary's ISN {s_isn} \
                 (primary ISN was {p_isn}; client-facing bytes must live in S's space)"
            )
        });
        let (win, exp_win) = (view.window(), self.min_win());
        rec.check(Rule::WinMin, win == exp_win, trace, || {
            format!("conn {key}: merged SYN win={win}, expected min(win_P, win_S)={exp_win}")
        });
        let mss = view.mss();
        let exp_mss = self.p.mss.unwrap_or(536).min(self.s.mss.unwrap_or(536));
        rec.check(Rule::MssMin, mss == Some(exp_mss), trace, || {
            format!("conn {key}: merged SYN advertises MSS {mss:?}, expected min(MSS_P, MSS_S)={exp_mss}")
        });
        let has_ack = view.flags().contains(TcpFlags::ACK);
        if let (true, Some(ap), Some(as_)) = (has_ack, self.p.syn_ack, self.s.syn_ack) {
            let (ack, exp) = (view.ack(), seq_min(ap, as_));
            rec.check(Rule::AckMin, ack == exp, trace, || {
                format!("conn {key}: merged SYN+ACK acks {ack}, expected min(ack_P, ack_S)={exp}")
            });
        }
        self.syn_released = true;
        self.send_next = 0;
        if has_ack {
            self.last_ack_released = Some(view.ack());
        }
    }

    /// Rules on data / FIN / bare-ACK releases.
    fn check_data_release(
        &mut self,
        rec: &mut Recorder,
        key: AuditKey,
        view: &TcpView<'_>,
        trace: TraceId,
    ) {
        if !self.syn_released {
            rec.check(Rule::MatchedOnly, false, trace, || {
                format!("conn {key}: data released before the merged SYN")
            });
            return;
        }
        let Some(rel) = self.rel(view.seq()) else {
            return;
        };
        let released = view.payload();
        let len = released.len();
        let has_fin = view.flags().contains(TcpFlags::FIN);
        let sn = self.send_next;
        let end = rel + len as u64 + u64::from(has_fin);
        let pure_ack = len == 0 && !has_fin;
        // --- SeqSpace (§3.2 / §4) ---
        let seq_ok = if pure_ack {
            rel <= sn
        } else if end <= sn {
            true // §4 retransmission: entirely below the watermark.
        } else {
            rel == sn
        };
        let seqv = view.seq();
        rec.check(Rule::SeqSpace, seq_ok, trace, || {
            format!(
                "conn {key}: released seq={seqv} (stream offset {rel}, len {len}, fin {has_fin}) \
                 is neither at the matched watermark ({sn}) nor a §4 retransmission below it"
            )
        });
        let retransmission = !pure_ack && end <= sn;
        // --- MatchedOnly + QueueAgree (§3.2) on fresh payload ---
        if len > 0 && !retransmission && rel == sn {
            // Non-copying presence + equality probes; the diagnostics
            // (contributor traces, the bytes at the first divergence)
            // are computed only when a rule is already failing.
            let p_match = self.p.stream.matches(rel, released);
            let s_match = self.s.stream.matches(rel, released);
            let (p_has, s_has) = (p_match.is_some(), s_match.is_some());
            let agree = p_match.unwrap_or(false) && s_match.unwrap_or(false);
            let contributors = || {
                let mut t = self.p.stream.traces(rel, len);
                t.extend(self.s.stream.traces(rel, len));
                t
            };
            rec.check(Rule::MatchedOnly, p_has && s_has, trace, || {
                let (_, bytes) = self.divergence(rel, released);
                format!(
                    "conn {key}: released {len}B at offset {rel} not matched in both replica \
                     streams (primary has it: {p_has}, secondary has it: {s_has}; \
                     contributors {:?}): {bytes}",
                    contributors()
                )
            });
            if p_has && s_has {
                rec.check(Rule::QueueAgree, agree, trace, || {
                    let (first, bytes) = self.divergence(rel, released);
                    format!(
                        "conn {key}: released bytes diverge from the replica streams at \
                         offset {rel}+{first} (stream offset {}): {bytes} (contributors {:?})",
                        rel + first as u64,
                        contributors()
                    )
                });
            }
        }
        // --- FIN merge (§3.2/§8): both replicas closed here ---
        if has_fin && !retransmission {
            let fin_at = rel + len as u64;
            let (pf, sf) = (self.p.fin, self.s.fin);
            let both = pf == Some(fin_at) && sf == Some(fin_at);
            rec.check(Rule::MatchedOnly, both, trace, || {
                format!(
                    "conn {key}: FIN released at stream offset {fin_at} but replica FINs are \
                     p_fin={pf:?}, s_fin={sf:?} — a FIN may only be released once both \
                     replicas closed at the same position"
                )
            });
        }
        // --- AckMin / WinMin (§3.2) ---
        let has_ack = view.flags().contains(TcpFlags::ACK);
        if let (true, Some(exp)) = (has_ack, self.min_ack()) {
            let ack = view.ack();
            let (ap, as_) = (self.p.ack, self.s.ack);
            rec.check(Rule::AckMin, ack == exp, trace, || {
                format!(
                    "conn {key}: released ack={ack}, expected min(ack_P, ack_S)=\
                     min({ap:?}, {as_:?})={exp}"
                )
            });
        }
        let (win, exp_win) = (view.window(), self.min_win());
        rec.check(Rule::WinMin, win == exp_win, trace, || {
            format!("conn {key}: released win={win}, expected min(win_P, win_S)={exp_win}")
        });
        // --- advance the shadow watermark ---
        if !retransmission && rel == sn && (len > 0 || has_fin) {
            self.send_next = end;
            self.p.stream.trim(rel + len as u64);
            self.s.stream.trim(rel + len as u64);
            if has_fin {
                self.fin_released = true;
            }
        }
        if has_ack {
            let ack = view.ack();
            self.last_ack_released = Some(match self.last_ack_released {
                Some(l) if seq_gt(l, ack) => l,
                _ => ack,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that failed.
    pub rule: Rule,
    /// Sim time.
    pub at_ns: u64,
    /// Trace id of the offending segment.
    pub trace: TraceId,
    /// What went wrong (expected vs observed).
    pub detail: String,
    /// The causal chain: trace-ring entries related to the violation.
    pub chain: Vec<String>,
}

impl Violation {
    /// Multi-line human rendering, including the causal chain.
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariant violation [{} {}] at {} ({}): {}\n",
            self.rule.id(),
            self.rule.paper_ref(),
            fmt_nanos(self.at_ns),
            self.trace,
            self.detail
        );
        if !self.chain.is_empty() {
            out.push_str("causal chain:\n");
            for line in &self.chain {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// A chain link's place, against which the auditor judges where its
/// failover output went (see [`InvariantAuditor::egress`]).
#[derive(Debug, Clone, Copy)]
pub struct LinkPlace {
    /// The service address clients connect to.
    pub vip: Ipv4Addr,
    /// The link's own address, where its TCBs live.
    pub own: Ipv4Addr,
    /// Next replica toward the head; `None` at the head.
    pub upstream: Option<Ipv4Addr>,
    /// The replica below, if the link was built with one.
    pub downstream: Option<Ipv4Addr>,
}

/// What a bridge's merge engine made of a segment it took in: its one
/// designation decision, which the auditor takes instead of
/// re-deriving it (see [`InvariantAuditor::ingress`]). A segment the
/// engine gives no role is not shadowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentRole {
    /// This replica's own output, which the bridge merges.
    Ours,
    /// The downstream replica's diverted output.
    Diverted,
    /// A segment from the unreplicated peer to the service address;
    /// `merged` when its flow is one the bridge merges.
    Client {
        /// The bridge merges this segment's flow.
        merged: bool,
    },
}

/// A segment as the auditor reads it: source, destination, the TCP
/// bytes, and the trace id.
pub type SegParts<'a> = (Ipv4Addr, Ipv4Addr, &'a Bytes, TraceId);

/// A segment as a bridge holds it, as the auditor reads it.
pub trait Audited {
    /// The segment's parts.
    fn parts(&self) -> SegParts<'_>;
}

/// Process-wide, not per hub: tests run on parallel threads of one
/// process, and only a process-wide sequence keeps two auditors'
/// bundle directories (`<label>-<pid>-<seq>`) apart.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------
// The flight recorder
// ---------------------------------------------------------------------

/// Everything an auditor keeps besides its connection table: the rule
/// ledger, the causal trace ring, the recent-header ring, the
/// violations, and what a bundle carries from the hub. Kept apart from
/// the table so a rule check holds one connection's state and records
/// against this at the same time.
struct Recorder {
    cfg: AuditConfig,
    hub: Option<Telemetry>,
    ledger: RuleLedger,
    ring: Ring<AuditEvent>,
    pcap: Ring<SegmentRecord>,
    violations: Vec<Violation>,
    bundle: Option<PathBuf>,
    releases_seen: u64,
    now_ns: u64,
    /// Latest replication-lag ledger, stored by the bridge's telemetry
    /// sync when the health observatory is also attached; rendered into
    /// flight-recorder bundles as `health.json` so every invariant
    /// violation captures replica health at fault time.
    health_snapshot: Option<ReplicationLag>,
}

impl Recorder {
    /// A mode or control-plane moment at `now_ns`.
    fn phase(&mut self, now_ns: u64, detail: impl Into<String>) {
        self.now_ns = now_ns;
        let detail = AuditDetail::Text(detail.into());
        self.push_event(AuditEventKind::Phase, TraceId::NONE, detail);
    }

    fn push_event(&mut self, kind: AuditEventKind, trace: TraceId, detail: AuditDetail) {
        self.ring.push(AuditEvent {
            at_ns: self.now_ns,
            trace,
            kind,
            detail,
        });
    }

    /// A segment the bridge took in or put out: a trace-ring entry, and
    /// a recent-header record unless it was only handed up or aside.
    fn record(&mut self, kind: AuditEventKind, seg: SegParts<'_>, view: &TcpView<'_>) {
        let (src, dst, bytes, trace) = seg;
        let summary = SegSummary {
            src,
            dst,
            src_port: view.src_port(),
            dst_port: view.dst_port(),
            flags: view.flags(),
            seq: view.seq(),
            ack: view.ack(),
            win: view.window(),
            len: view.payload().len() as u32,
            orig_dest: view.orig_dest(),
        };
        self.push_event(kind, trace, AuditDetail::Seg(summary));
        if matches!(kind, AuditEventKind::DeliverUp | AuditEventKind::Note) {
            return;
        }
        let header_len = view.header_len();
        let mut header = [0; MAX_TCP_HEADER];
        header[..header_len].copy_from_slice(&bytes[..header_len]);
        self.pcap.push(SegmentRecord {
            at_ns: self.now_ns,
            src,
            dst,
            header,
            header_len: header_len as u8,
            seg_len: bytes.len() as u32,
            trace,
            kind,
        });
    }

    fn check(&mut self, rule: Rule, ok: bool, trace: TraceId, detail: impl FnOnce() -> String) {
        self.ledger.note_check(rule);
        if !ok {
            self.violated(rule, trace, detail());
        }
    }

    #[cold]
    fn violated(&mut self, rule: Rule, trace: TraceId, detail: String) {
        self.ledger.note_violation(rule);
        let chain = self.chain_for(trace);
        let v = Violation {
            rule,
            at_ns: self.now_ns,
            trace,
            detail,
            chain,
        };
        if let Some(hub) = &self.hub {
            hub.journal.record(
                self.now_ns,
                &format!("audit.{}", self.cfg.label),
                "violation",
                &[
                    ("rule", rule.id().to_string()),
                    ("detail", v.detail.clone()),
                ],
            );
        }
        eprintln!("{}", v.render());
        self.violations.push(v);
        if self.bundle.is_none() {
            match self.write_bundle() {
                Ok(path) => {
                    eprintln!(
                        "audit[{}]: flight-recorder bundle written to {}",
                        self.cfg.label,
                        path.display()
                    );
                    self.bundle = Some(path);
                }
                Err(e) => eprintln!("audit[{}]: bundle write failed: {e}", self.cfg.label),
            }
        }
        if self.cfg.panic_on_violation {
            let last = self.violations.last().expect("just pushed");
            panic!(
                "{}(flight-recorder bundle: {})",
                last.render(),
                self.bundle
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "unavailable".into())
            );
        }
    }

    /// Trace-ring entries sharing the violating trace id, plus the
    /// event tail for context.
    fn chain_for(&self, trace: TraceId) -> Vec<String> {
        let mut chain: Vec<String> = self
            .ring
            .iter()
            .filter(|e| trace.is_some() && e.trace == trace)
            .map(|e| e.summary())
            .collect();
        for e in self.ring.tail(12) {
            let line = e.summary();
            if !chain.contains(&line) {
                chain.push(line);
            }
        }
        chain
    }

    /// Every [`CHECKSUM_SAMPLE`]-th segment that left the bridge
    /// rewritten: its checksum must equal a full recomputation.
    fn sample_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr, bytes: &[u8], trace: TraceId) {
        self.releases_seen += 1;
        if self.releases_seen.is_multiple_of(CHECKSUM_SAMPLE) {
            let ok = verify_segment_checksum(src, dst, bytes);
            self.check(Rule::Checksum, ok, trace, || {
                format!(
                    "segment {src}→{dst} fails full checksum recomputation \
                     (incremental RFC 1624 update drifted)"
                )
            });
        }
    }

    /// §5 ordering at the first client byte after the takeover noted at
    /// `takeover_at`: with a hub attached, its §5 view is monotone and
    /// has the VIP claimed (`takeover.arp`) no earlier than the takeover
    /// and no later than this byte.
    fn check_takeover_order(&mut self, takeover_at: u64, trace: TraceId) {
        let now = self.now_ns;
        let view = (self.hub.as_ref()).map(|h| {
            (
                h.timeline.at(FailoverPhase::ArpTakeover),
                h.timeline.is_monotone(),
            )
        });
        let ok = view.is_none_or(|(arp, monotone)| {
            monotone && arp.is_some_and(|a| takeover_at <= a && a <= now)
        });
        self.check(Rule::FailoverOrder, ok, trace, || {
            format!(
                "first post-takeover client byte at {now}ns, takeover noted at \
                 {takeover_at}ns, hub's (VIP claimed, §5 view monotone): {view:?} \
                 — out of order"
            )
        });
    }

    fn write_bundle(&self) -> std::io::Result<PathBuf> {
        let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            self.cfg
                .bundle_dir
                .join(format!("{}-{}-{}", self.cfg.label, std::process::id(), seq));
        std::fs::create_dir_all(&dir)?;
        let mut ledger = self.ledger.to_table();
        ledger.push('\n');
        for v in &self.violations {
            ledger.push_str(&v.render());
        }
        std::fs::write(dir.join("ledger.txt"), ledger)?;
        let ring: String = self.ring.iter().map(|e| e.summary() + "\n").collect();
        std::fs::write(dir.join("trace_ring.txt"), ring)?;
        std::fs::write(dir.join("capture.pcapng"), self.pcap_slice())?;
        if let Some(hub) = &self.hub {
            std::fs::write(dir.join("timeline.json"), hub.timeline.to_json())?;
            std::fs::write(dir.join("journal.json"), hub.journal.to_json())?;
            // PR 10: the failover span dump rides in every bundle —
            // machine-readable spans plus the Chrome/Perfetto-loadable
            // trace with the exact MTTR waterfall merged in.
            if hub.trace.is_attached() {
                std::fs::write(dir.join("spans.json"), hub.trace.to_json())?;
                let waterfall = crate::span::waterfall_records(hub);
                std::fs::write(
                    dir.join("trace.chrome.json"),
                    hub.trace.chrome_trace(&waterfall),
                )?;
            }
        }
        if let Some(lag) = &self.health_snapshot {
            std::fs::write(dir.join("health.json"), lag.to_json())?;
        }
        Ok(dir)
    }

    /// The recent-segment ring as a pcapng capture of truncated
    /// packets: each holds the segment's Ethernet, IPv4 and TCP headers
    /// (options included) and states the frame's full length, the way
    /// `tcpdump -s` snaps. Every packet carries a comment block with
    /// its trace id and direction; the diverted S→P leg is annotated
    /// with the decoded orig-dest option so captures are
    /// self-describing.
    fn pcap_slice(&self) -> Vec<u8> {
        let mut w = PcapngWriter::new(&format!("audit-{}", self.cfg.label));
        for rec in self.pcap.iter() {
            let header = &rec.header[..usize::from(rec.header_len)];
            // The payload was not kept: zeros stand in for it past the
            // snap length, so the IPv4 header states the original length.
            let mut seg = header.to_vec();
            seg.resize(rec.seg_len as usize, 0);
            let frame = Ipv4Packet::new(rec.src, rec.dst, PROTO_TCP, seg.into()).encode_framed(
                MacAddr::from_index(u32::from(rec.dst.octets()[3])),
                MacAddr::from_index(u32::from(rec.src.octets()[3])),
            );
            let snap = ETH_HEADER_LEN + IPV4_HEADER_LEN + header.len();
            let mut comment = format!("{} {}", rec.kind, rec.trace);
            if let Some((oip, oport)) = peek_orig_dest(header) {
                comment.push_str(&format!(" diverted S→P leg, orig-dest={oip}:{oport}"));
            }
            w.truncated_packet(rec.at_ns, &frame[..snap], frame.len(), Some(&comment));
        }
        w.finish()
    }
}

// ---------------------------------------------------------------------
// The auditor
// ---------------------------------------------------------------------

/// An independent online checker for the paper's bridge invariants.
/// One instance is attached per bridge; the bridge reports every
/// ingress/egress event and the auditor re-derives the connection
/// state (Δseq, acks, windows, shadow byte streams) and checks each
/// release against the [`Rule`] catalogue. See the module docs.
pub struct InvariantAuditor {
    rec: Recorder,
    /// Shadow state per connection. std's keyed hasher, for the reason
    /// flow keys use one: the client chooses the key.
    conns: HashMap<AuditKey, AuditConn>,
    /// §6 degraded mode: per-connection checks are suspended.
    degraded: bool,
    /// When this link's §5 takeover was noted, until the first client
    /// byte after it is checked against it.
    takeover_at: Option<u64>,
    /// Connection touched by the current event (for the §3.4 check).
    touched: Option<AuditKey>,
    /// Client-ingress ack awaiting the Δseq-translated deliver-up.
    pending_ack: Option<(AuditKey, u32)>,
    /// Chain promotion decision stamp (log-before-act): set when the
    /// controller journals the promotion decision, cleared when the
    /// commit is checked against it.
    promotion_decided_at: Option<u64>,
}

impl fmt::Debug for InvariantAuditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantAuditor")
            .field("label", &self.rec.cfg.label)
            .field("conns", &self.conns.len())
            .field("checks", &self.rec.ledger.total_checks())
            .field("violations", &self.rec.ledger.total_violations())
            .finish()
    }
}

impl InvariantAuditor {
    /// Creates a detached-from-telemetry auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        InvariantAuditor {
            rec: Recorder {
                ring: Ring::new(cfg.ring_capacity),
                pcap: Ring::new(cfg.pcap_capacity),
                cfg,
                hub: None,
                ledger: RuleLedger::default(),
                violations: Vec::new(),
                bundle: None,
                releases_seen: 0,
                now_ns: 0,
                health_snapshot: None,
            },
            conns: HashMap::new(),
            degraded: false,
            takeover_at: None,
            touched: None,
            pending_ack: None,
            promotion_decided_at: None,
        }
    }

    /// Stores the latest replication-lag ledger for inclusion in
    /// flight-recorder bundles. Called from the bridge's host-tick
    /// telemetry sync, so it is a plain copy: the JSON is rendered by
    /// [`InvariantAuditor::write_bundle`], if a bundle is ever written.
    pub fn set_health_snapshot(&mut self, lag: &ReplicationLag) {
        self.rec.health_snapshot = Some(*lag);
    }

    /// Connects the telemetry hub so violations reach the journal and
    /// the flight recorder can bundle the timeline.
    pub fn with_hub(mut self, hub: &Telemetry) -> Self {
        self.rec.hub = Some(hub.clone());
        self
    }

    /// The rule ledger.
    pub fn ledger(&self) -> &RuleLedger {
        &self.rec.ledger
    }

    /// Recorded violations.
    pub fn violations(&self) -> &[Violation] {
        &self.rec.violations
    }

    /// The flight-recorder bundle directory, once one was written.
    pub fn bundle_path(&self) -> Option<&PathBuf> {
        self.rec.bundle.as_ref()
    }

    /// The label reports, journal scopes and bundle names carry.
    pub fn label(&self) -> &str {
        &self.rec.cfg.label
    }

    /// Entries the causal trace ring and the recent-segment ring each
    /// evicted to stay within their capacities.
    pub fn dropped(&self) -> (u64, u64) {
        (self.rec.ring.dropped(), self.rec.pcap.dropped())
    }

    /// Human-readable auditor state: ledger, shadow connections, and
    /// any violations.
    pub fn report(&self) -> String {
        let rec = &self.rec;
        let mut out = format!(
            "auditor [{}]: {} checks, {} violations, {} shadow conns, ring {} (+{} dropped), segments {} (+{} dropped)\n",
            rec.cfg.label,
            rec.ledger.total_checks(),
            rec.ledger.total_violations(),
            self.conns.len(),
            rec.ring.len(),
            rec.ring.dropped(),
            rec.pcap.len(),
            rec.pcap.dropped()
        );
        out.push_str(&rec.ledger.to_table());
        for (key, c) in &self.conns {
            out.push_str(&format!(
                "conn {key}: delta={:?} established={} send_next={} pq={}B sq={}B ack_p={:?} ack_s={:?} win=({},{}) last_ack_released={:?}\n",
                c.delta(),
                c.syn_released,
                c.send_next,
                c.p.stream.buffered(),
                c.s.stream.buffered(),
                c.p.ack,
                c.s.ack,
                c.p.win,
                c.s.win,
                c.last_ack_released,
            ));
        }
        for v in &rec.violations {
            out.push_str(&v.render());
        }
        out
    }

    // -----------------------------------------------------------------
    // The two per-segment entry points (called by the bridges)
    // -----------------------------------------------------------------

    /// A segment entered the bridge at `now_ns`, and the bridge's
    /// engine gave it `role`: recorded, and shadowed as the role says.
    /// Called before the step acts on it, for a segment the engine
    /// gives a role; [`InvariantAuditor::egress`] closes the event.
    pub fn ingress(&mut self, now_ns: u64, role: SegmentRole, seg: &impl Audited) {
        self.rec.now_ns = now_ns;
        let seg = seg.parts();
        let Ok(view) = TcpView::new(seg.2) else {
            return;
        };
        match role {
            SegmentRole::Client { merged } => self.client_ingress(seg, &view, merged),
            SegmentRole::Ours => self.observe_replica(true, seg, &view),
            SegmentRole::Diverted => self.observe_replica(false, seg, &view),
        }
    }

    /// The step on one segment put out `step` at `now_ns` — to the
    /// wire, then to the local stack — and, on a chain link at `place`,
    /// its routing left it as `routed`. Client-facing wire output is
    /// checked as a release and wire output to the `downstream` replica
    /// is noted; what reaches the stack is checked for the `+Δseq` ack
    /// translation; the deferred §3.4 bare-ACK rule runs for the
    /// connection the event touched; then where the routing sent each
    /// segment. Called once per segment, shadowed or not.
    pub fn egress<S: Audited>(
        &mut self,
        now_ns: u64,
        downstream: Option<Ipv4Addr>,
        [wire, tcp]: [&[S]; 2],
        routed: Option<(LinkPlace, [&[S]; 2])>,
    ) {
        self.rec.now_ns = now_ns;
        for seg in wire.iter().map(Audited::parts) {
            let Ok(view) = TcpView::new(seg.2) else {
                continue;
            };
            if Some(seg.1) == downstream {
                self.rec.record(AuditEventKind::Note, seg, &view);
            } else {
                self.check_release(seg, &view);
            }
        }
        for seg in tcp.iter().map(Audited::parts) {
            if let Ok(view) = TcpView::new(seg.2) {
                self.check_deliver_up(seg, &view);
            }
        }
        self.close_event();
        let Some((place, [wire, tcp])) = routed else {
            return;
        };
        let sent = wire.iter().map(|s| (false, s));
        for (up, seg) in sent.chain(tcp.iter().map(|s| (true, s))) {
            self.check_routed(&place, up, seg.parts());
        }
    }

    /// Ends the event: the deferred §3.4 bare-ACK rule for the touched
    /// connection, which is forgotten once the auditor's own model has
    /// it torn down (§8).
    fn close_event(&mut self) {
        self.pending_ack = None;
        let Some(key) = self.touched.take() else {
            return;
        };
        let degraded = self.degraded;
        let Some(conn) = (self.conns.get_mut(&key)).filter(|c| c.syn_released && !degraded) else {
            return;
        };
        let (Some(m), last) = (conn.min_ack(), conn.last_ack_released) else {
            return;
        };
        let ok = last.is_some_and(|l| seq_ge(l, m));
        self.rec.check(Rule::BareAck, ok, TraceId::NONE, || {
            format!(
                "conn {key}: min(ack_P, ack_S)={m} advanced but last released ack is {last:?} — \
                 no bare ACK was synthesised before the event ended"
            )
        });
        if conn.teardown_reached() {
            self.conns.remove(&key);
        }
    }
}

// ---------------------------------------------------------------------
// Primary-side observations
// ---------------------------------------------------------------------

impl InvariantAuditor {
    /// §6: the bridge degraded to Δ-adjusted pass-through — suspend
    /// per-connection checking (the min/matched rules no longer apply).
    pub fn note_degraded(&mut self, now_ns: u64) {
        self.degraded = true;
        self.conns.clear();
        self.rec.phase(
            now_ns,
            "degraded: secondary failed, per-conn rules suspended (§6)",
        );
    }

    /// A replica joined below: new connections replicate again.
    pub fn note_joined(&mut self, now_ns: u64) {
        self.degraded = false;
        self.rec.phase(
            now_ns,
            "joined: a replica below again, new connections audited",
        );
    }

    /// A segment from the unreplicated peer entered the bridge; the
    /// auditor shadows it when the bridge merges its flow. Only a SYN
    /// opens shadow state.
    fn client_ingress(&mut self, seg: SegParts<'_>, view: &TcpView<'_>, merged: bool) {
        self.rec.record(AuditEventKind::ClientIngress, seg, view);
        if !merged {
            return;
        }
        let key = AuditKey::new(seg.0, view.src_port(), view.dst_port());
        let flags = view.flags();
        let opens = flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK);
        let conn = match opens && !self.degraded {
            true => Some(self.conns.entry(key).or_default()),
            false => self.conns.get_mut(&key),
        };
        let Some(conn) = conn else {
            return;
        };
        self.touched = Some(key);
        if flags.contains(TcpFlags::ACK) {
            let ack = view.ack();
            conn.client_acked = Some(match conn.client_acked {
                Some(a) if seq_gt(a, ack) => a,
                _ => ack,
            });
            if conn.delta().is_some() && !flags.contains(TcpFlags::SYN) {
                self.pending_ack = Some((key, ack));
            }
        }
        if flags.contains(TcpFlags::FIN) {
            conn.client_fin = Some(view.seq().wrapping_add(view.payload().len() as u32));
        }
    }

    /// A replica segment the bridge merges: this replica's own output
    /// (`is_primary`), addressed to the client, or the downstream's
    /// diverted output, which names the client in its orig-dest option.
    /// A SYN teaches the replica's ISN and handshake parameters; only a
    /// bare SYN (a server-initiated open) opens shadow state, so a
    /// SYN+ACK re-sent after the connection closed opens none. Anything
    /// later goes through [`AuditConn::observe`], and a replica's RST
    /// forgets the connection.
    fn observe_replica(&mut self, is_primary: bool, seg: SegParts<'_>, view: &TcpView<'_>) {
        let (_, dst, bytes, trace) = seg;
        let (kind, peer) = if is_primary {
            (AuditEventKind::PrimaryOut, Some((dst, view.dst_port())))
        } else {
            (AuditEventKind::SecondaryDiverted, view.orig_dest())
        };
        self.rec.record(kind, seg, view);
        let Some((peer_ip, peer_port)) = peer.filter(|_| !self.degraded) else {
            return;
        };
        let key = AuditKey::new(peer_ip, peer_port, view.src_port());
        let flags = view.flags();
        let conn = match flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
            true => Some(self.conns.entry(key).or_default()),
            false => self.conns.get_mut(&key),
        };
        let Some(conn) = conn else {
            return;
        };
        self.touched = Some(key);
        if !flags.contains(TcpFlags::SYN) {
            if conn.observe(&mut self.rec, key, is_primary, bytes, view, trace) {
                self.conns.remove(&key);
            }
            return;
        }
        let side = if is_primary { &mut conn.p } else { &mut conn.s };
        side.isn = Some(view.seq());
        side.win = view.window();
        side.mss = view.mss();
        if flags.contains(TcpFlags::ACK) {
            side.syn_ack = Some(view.ack());
            side.ack = Some(view.ack());
        }
    }

    /// A client-facing segment left the bridge: the main rule gate. A
    /// released RST forgets the connection.
    fn check_release(&mut self, seg: SegParts<'_>, view: &TcpView<'_>) {
        let (src, dst, bytes, trace) = seg;
        self.rec.record(AuditEventKind::Release, seg, view);
        self.rec.sample_checksum(src, dst, bytes, trace);
        if self.degraded {
            return;
        }
        let key = AuditKey::new(dst, view.dst_port(), view.src_port());
        let Some(conn) = self.conns.get_mut(&key) else {
            return; // tombstone/late-FIN traffic: no shadow state left.
        };
        let flags = view.flags();
        if flags.contains(TcpFlags::RST) {
            self.conns.remove(&key);
        } else if flags.contains(TcpFlags::SYN) {
            conn.check_syn_release(&mut self.rec, key, view, trace);
        } else {
            conn.check_data_release(&mut self.rec, key, view, trace);
        }
    }

    /// A segment was handed up to the local stack (Δseq ack
    /// translation on the primary, §3.3).
    fn check_deliver_up(&mut self, seg: SegParts<'_>, view: &TcpView<'_>) {
        let trace = seg.3;
        self.rec.record(AuditEventKind::DeliverUp, seg, view);
        let Some((key, ingress_ack)) = self.pending_ack.take() else {
            return;
        };
        if self.degraded {
            return;
        }
        let Some(delta) = self.conns.get(&key).and_then(AuditConn::delta) else {
            return;
        };
        if view.src_port() != key.peer_port || !view.flags().contains(TcpFlags::ACK) {
            return;
        }
        let exp = ingress_ack.wrapping_add(delta);
        let ack = view.ack();
        self.rec.check(Rule::Translate, ack == exp, trace, || {
            format!(
                "conn {key}: client ack {ingress_ack} delivered up as {ack}, expected \
                 {ingress_ack}+Δseq({delta})={exp}"
            )
        });
    }
}

// ---------------------------------------------------------------------
// Takeover and chain-routing observations
// ---------------------------------------------------------------------

impl InvariantAuditor {
    /// §5: this link was promoted — egress held, translations off, the
    /// VIP about to be claimed, all at `now_ns`.
    pub fn note_takeover(&mut self, now_ns: u64) {
        self.rec.phase(now_ns, format!("takeover at {now_ns}ns"));
        self.takeover_at = Some(now_ns);
    }

    /// Chain control plane: the controller decided to promote this
    /// replica and journaled the decision. Log-before-act: this must
    /// precede [`InvariantAuditor::note_promotion_committed`].
    pub fn note_promotion_decision(&mut self, now_ns: u64) {
        self.rec
            .phase(now_ns, format!("promotion decided at {now_ns}ns"));
        self.promotion_decided_at = Some(now_ns);
    }

    /// Chain control plane: the promotion was committed (topology
    /// mutated, VIP taken). Checks the N-way §5 generalisation: a
    /// decision record must already exist and must not postdate the
    /// commit.
    pub fn note_promotion_committed(&mut self, now_ns: u64) {
        self.rec
            .phase(now_ns, format!("promotion committed at {now_ns}ns"));
        let decided = self.promotion_decided_at;
        let ok = decided.is_some_and(|d| d <= now_ns);
        self.rec.check(Rule::PromotionOrder, ok, TraceId::NONE, || {
            format!(
                "promotion committed at {now_ns}ns without a prior journaled \
                 decision (decided_at: {decided:?}); the chain rule requires \
                 audit-log-before-act"
            )
        });
    }

    /// Post-route scan: a chain link put `bytes` on the wire (`up`
    /// false) or handed it to its stack (`up` true) for a failover
    /// segment, after routing it by its `place`. Below the head,
    /// client-bound output must be diverted to the upstream with the
    /// orig-dest option; at the head it must leave from the VIP; off the
    /// VIP's host, what reaches the stack must be addressed to the
    /// link's own address. The first payload a promoted link sends the
    /// client also checks the §5 order.
    fn check_routed(&mut self, place: &LinkPlace, up: bool, seg: SegParts<'_>) {
        let (src, dst, bytes, trace) = seg;
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        if (up && place.own == place.vip) || Some(dst) == place.downstream {
            return;
        }
        let diverted = view.orig_dest().is_some();
        let (ok, want) = match place.upstream {
            _ if up => (dst == place.own, "readdressed to its own address"),
            Some(upstream) => (
                diverted && dst == upstream,
                "diverted to its upstream with the orig-dest option",
            ),
            None => (src == place.vip, "sent from the VIP"),
        };
        let place = *place;
        self.rec.check(Rule::Translate, ok, trace, || {
            format!(
                "failover segment {src}→{dst} (orig-dest: {diverted}) must be {want} \
                 at {place:?} (§3.1)"
            )
        });
        self.rec.sample_checksum(src, dst, bytes, trace);
        let first_byte = !up && place.upstream.is_none() && !view.payload().is_empty();
        if let Some(at) = self.takeover_at.take_if(|_| first_byte) {
            self.rec.check_takeover_order(at, trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpfo_wire::tcp::TcpSegment;

    #[test]
    fn sequence_numbers_half_the_circle_apart_are_unordered() {
        // The bridge's order: neither comes first, so the oracle's
        // min(ack_P, ack_S) picks the ack the bridge's merge picks.
        let half = 1u32 << 31;
        assert!(!seq_gt(0, half), "0 > 2^31");
        assert!(!seq_gt(half, 0), "2^31 > 0");
    }

    #[test]
    fn trace_ids_unique_and_display() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert_ne!(a, b);
        assert!(a.is_some());
        assert!(TraceId::NONE.is_none());
        assert_eq!(TraceId::NONE.to_string(), "t-");
        assert_eq!(TraceId(7).to_string(), "t7");
    }

    impl ShadowStream {
        /// The bytes of `[at, at+len)` if fully present, else `None`.
        fn get(&self, at: u64, len: usize) -> Option<Vec<u8>> {
            let run = self.run_at(at, len);
            (run.len() == len).then_some(run)
        }
    }

    fn b(data: &'static [u8]) -> Bytes {
        Bytes::from_static(data)
    }

    #[test]
    fn shadow_stream_inserts_and_matches() {
        let mut s = ShadowStream::default();
        s.insert(0, &b(b"hello"), TraceId(1)).unwrap();
        s.insert(5, &b(b" world"), TraceId(2)).unwrap();
        assert_eq!(s.get(0, 11), Some(b"hello world".to_vec()));
        assert_eq!(s.get(3, 4), Some(b"lo w".to_vec()));
        assert_eq!(s.get(8, 10), None);
        // Identical overlap is fine; divergent overlap reports offset.
        s.insert(0, &b(b"hello"), TraceId(3)).unwrap();
        assert_eq!(s.insert(4, &b(b"X"), TraceId(4)), Err(4));
        let traces = s.traces(0, 11);
        assert!(traces.contains(&TraceId(1)) && traces.contains(&TraceId(2)));
        s.trim(5);
        assert_eq!(s.get(0, 5), None);
        assert_eq!(s.get(5, 6), Some(b" world".to_vec()));
        // Inserts below the trim watermark are clipped silently.
        s.insert(0, &b(b"XXXXX"), TraceId(5)).unwrap();
        assert_eq!(s.get(5, 6), Some(b" world".to_vec()));
    }

    #[test]
    fn shadow_stream_gap_then_fill() {
        let mut s = ShadowStream::default();
        s.insert(10, &b(b"cd"), TraceId(1)).unwrap();
        assert_eq!(s.get(8, 4), None);
        s.insert(8, &b(b"ab"), TraceId(2)).unwrap();
        assert_eq!(s.get(8, 4), Some(b"abcd".to_vec()));
        // Straddling insert verifies the overlapped middle.
        s.insert(9, &b(b"bcde"), TraceId(3)).unwrap();
        assert_eq!(s.get(8, 5), Some(b"abcde".to_vec()));
    }

    #[test]
    fn ledger_counts_and_rule_metadata() {
        for (i, r) in Rule::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "Rule::ALL is in declaration order");
        }
        let mut l = RuleLedger::default();
        l.note_check(Rule::AckMin);
        l.note_check(Rule::AckMin);
        l.note_violation(Rule::AckMin);
        assert_eq!(l.stat(Rule::AckMin).checks, 2);
        assert_eq!(l.stat(Rule::AckMin).violations, 1);
        assert_eq!(l.total_checks(), 2);
        let table = l.to_table();
        assert!(table.contains("ack_min"));
        assert!(table.contains("§3.2"));
        for r in Rule::ALL {
            assert!(!r.id().is_empty());
            assert!(!r.paper_ref().is_empty());
        }
    }

    /// A promoted head noted its takeover at 1 µs over a hub that saw
    /// `moments`, then sends the client two payloads at 2 µs: the first
    /// is checked, once.
    fn takeover_then_first_byte(moments: &[(&'static str, u64)]) -> InvariantAuditor {
        let hub = Telemetry::new();
        for &(kind, at) in moments {
            hub.event(at, "test", kind, &[], [None, None]);
        }
        let cfg = AuditConfig::new("test").panic_on_violation(false);
        let mut a = InvariantAuditor::new(cfg).with_hub(&hub);
        let [vip, client] = [Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(192, 168, 0, 9)];
        let place = LinkPlace {
            vip,
            own: Ipv4Addr::new(10, 0, 0, 3),
            upstream: None,
            downstream: None,
        };
        let seg = TcpSegment::builder(80, 5555)
            .payload(Bytes::from_static(b"x"))
            .build()
            .encode(vip, client);
        a.note_takeover(1_000);
        a.rec.now_ns = 2_000;
        for _ in 0..2 {
            a.check_routed(&place, false, (vip, client, &seg, TraceId::NONE));
        }
        assert_eq!(a.ledger().stat(Rule::FailoverOrder).checks, 1);
        a
    }

    #[test]
    fn takeover_out_of_order_is_flagged() {
        let a =
            takeover_then_first_byte(&[("kill", 100), ("peer_dead", 50), ("takeover.arp", 1_000)]);
        assert_eq!(a.ledger().stat(Rule::FailoverOrder).violations, 1);
        assert!(a.violations()[0].render().contains("out of order"));
    }

    #[test]
    fn first_byte_before_the_vip_is_claimed_is_flagged() {
        let a = takeover_then_first_byte(&[("kill", 50), ("peer_dead", 100)]);
        assert_eq!(a.ledger().stat(Rule::FailoverOrder).violations, 1);
        let b = takeover_then_first_byte(&[("kill", 50), ("takeover.arp", 3_000)]);
        assert_eq!(b.ledger().stat(Rule::FailoverOrder).violations, 1);
    }

    /// A capacity of 0 holds one entry, as the journal's and the span
    /// ring's do, and counts only what it evicted.
    #[test]
    fn both_rings_count_what_they_evict() {
        let cases = [
            (
                (3, 2),
                (7, 3),
                "ring 3 (+7 dropped), segments 2 (+3 dropped)",
            ),
            (
                (0, 0),
                (9, 4),
                "ring 1 (+9 dropped), segments 1 (+4 dropped)",
            ),
        ];
        for ((ring, pcap), dropped, want) in cases {
            let mut cfg = AuditConfig::new("test");
            (cfg.ring_capacity, cfg.pcap_capacity) = (ring, pcap);
            let mut a = InvariantAuditor::new(cfg);
            let [src, dst] = [Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(192, 168, 0, 9)];
            let seg = TcpSegment::builder(80, 5555).build().encode(src, dst);
            let view = TcpView::new(&seg).expect("valid");
            for _ in 0..5 {
                let x = AuditDetail::Text("x".into());
                a.rec.push_event(AuditEventKind::Note, TraceId::NONE, x);
                (a.rec).record(
                    AuditEventKind::Release,
                    (src, dst, &seg, TraceId::NONE),
                    &view,
                );
            }
            assert_eq!(a.dropped(), dropped);
            let report = a.report();
            assert!(report.contains(want), "{report}");
        }
    }

    /// The capture holds each recorded segment as a truncated packet:
    /// Ethernet, IPv4 and TCP headers, options included, and the
    /// frame's full length.
    #[test]
    fn the_capture_snaps_each_segment_after_its_headers() {
        let mut a = InvariantAuditor::new(AuditConfig::new("test"));
        let [src, dst] = [Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 2)];
        let seg = TcpSegment::builder(80, 5555)
            .seq(9)
            .orig_dest(Ipv4Addr::new(192, 168, 0, 9), 5555)
            .payload(Bytes::from(vec![7; 1000]))
            .build()
            .encode(src, dst);
        let view = TcpView::new(&seg).expect("valid");
        let diverted = AuditEventKind::SecondaryDiverted;
        (a.rec).record(diverted, (src, dst, &seg, TraceId(4)), &view);
        let pkts = tcpfo_wire::pcapng::read_packets(&a.rec.pcap_slice()).expect("parses");
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].frame.len(), 14 + 20 + view.header_len());
        assert_eq!(pkts[0].orig_len, 14 + 20 + seg.len());
        assert_eq!(&pkts[0].frame[34..], &seg[..view.header_len()]);
    }

    #[test]
    fn takeover_in_order_is_clean() {
        let a =
            takeover_then_first_byte(&[("kill", 50), ("peer_dead", 100), ("takeover.arp", 1_000)]);
        assert_eq!(a.ledger().stat(Rule::FailoverOrder).violations, 0);
    }

    /// A flat byte map: what a shadow stream must behave as.
    #[derive(Default)]
    struct FlatStream {
        bytes: Vec<Option<(u8, TraceId)>>,
        trimmed: u64,
    }

    impl FlatStream {
        fn at(&self, i: u64) -> Option<(u8, TraceId)> {
            self.bytes.get(i as usize).copied().flatten()
        }

        fn insert(&mut self, at: u64, data: &[u8], trace: TraceId) -> Result<(), u64> {
            for (i, &byte) in data.iter().enumerate() {
                let pos = at + i as u64;
                if pos < self.trimmed {
                    continue;
                }
                match self.at(pos) {
                    Some((held, _)) if held != byte => return Err(pos),
                    Some(_) => {}
                    None => {
                        if self.bytes.len() <= pos as usize {
                            self.bytes.resize(pos as usize + 1, None);
                        }
                        self.bytes[pos as usize] = Some((byte, trace));
                    }
                }
            }
            Ok(())
        }

        fn get(&self, at: u64, len: usize) -> Option<Vec<u8>> {
            (at..at + len as u64)
                .map(|i| self.at(i).map(|(b, _)| b))
                .collect()
        }

        fn traces(&self, at: u64, len: usize) -> Vec<TraceId> {
            let mut out = Vec::new();
            for (_, t) in (at..at + len as u64).filter_map(|i| self.at(i)) {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            out
        }

        fn trim(&mut self, upto: u64) {
            if upto > self.trimmed {
                for i in 0..(upto as usize).min(self.bytes.len()) {
                    self.bytes[i] = None;
                }
                self.trimmed = upto;
            }
        }
    }

    /// The byte the replicas agree on at stream offset `i`.
    fn truth(i: u64) -> u8 {
        (i * 7 + 3) as u8
    }

    proptest::proptest! {
        /// Random inserts — in order, with gaps, with equal and with
        /// different overlaps, below the trim watermark — and trims: the
        /// view-holding stream answers `insert`, `get`, `matches`,
        /// `traces` and `buffered` as a flat byte map does.
        #[test]
        fn shadow_stream_equals_a_flat_byte_map(
            ops in proptest::collection::vec(
                (0u8..5, 0u64..64, 1usize..16, 0usize..16, 0u64..80, 0usize..12),
                1..60,
            ),
        ) {
            let (mut s, mut m) = (ShadowStream::default(), FlatStream::default());
            for (n, (kind, at, len, flip, probe, probe_len)) in ops.into_iter().enumerate() {
                let trace = TraceId(n as u64 + 1);
                let at = match kind {
                    // In order: right after the highest byte held.
                    2 => (m.bytes.len() as u64).max(m.trimmed),
                    _ => at,
                };
                if kind == 4 {
                    let upto = m.trimmed + at % 16;
                    s.trim(upto);
                    m.trim(upto);
                } else {
                    let mut data: Vec<u8> = (at..at + len as u64).map(truth).collect();
                    if kind == 1 {
                        data[flip % len] ^= 0x5a;
                    }
                    // A view into a larger buffer, as a payload is one.
                    let mut framed = vec![0xee; 4];
                    framed.extend_from_slice(&data);
                    let view = Bytes::from(framed).slice(4..);
                    proptest::prop_assert_eq!(s.insert(at, &view, trace), m.insert(at, &data, trace));
                }
                proptest::prop_assert_eq!(s.get(probe, probe_len), m.get(probe, probe_len));
                let want: Vec<u8> = (probe..probe + probe_len as u64).map(truth).collect();
                let matches = m.get(probe, probe_len).map(|held| held == want);
                proptest::prop_assert_eq!(s.matches(probe, &want), matches);
                let len = probe_len.max(1);
                proptest::prop_assert_eq!(s.traces(probe, len), m.traces(probe, len));
                let held = m.bytes.iter().flatten().count();
                proptest::prop_assert_eq!(s.buffered(), held);
            }
        }
    }
}
