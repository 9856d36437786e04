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
//! ring entries, a pcapng slice of recent segments (with the diverted
//! orig-dest option annotated per packet), the §5 failover timeline,
//! and the rule ledger.
//!
//! Attachment is optional (`TCPFO_AUDIT=1` or a builder flag) and the
//! bridges keep their zero-allocation steady-state path when detached.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::{Ipv4Addr, Ipv4Packet, PROTO_TCP};
use tcpfo_wire::mac::MacAddr;
use tcpfo_wire::pcapng::PcapngWriter;
use tcpfo_wire::tcp::{verify_segment_checksum, TcpFlags, TcpSegment, TcpView};

use crate::health::ReplicationLag;
use crate::{fmt_nanos, FailoverPhase, Telemetry};

// ---------------------------------------------------------------------
// Wrapping sequence arithmetic (local copy: tcpfo-tcp depends on this
// crate, so the auditor cannot borrow its `seq` module)
// ---------------------------------------------------------------------

/// `a < b` in RFC 1982 wrapping order.
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a > b` in wrapping order.
fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// `a >= b` in wrapping order.
fn seq_ge(a: u32, b: u32) -> bool {
    !seq_lt(a, b)
}

/// Wrapping minimum.
fn seq_min(a: u32, b: u32) -> u32 {
    if seq_lt(a, b) {
        a
    } else {
        b
    }
}

// ---------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------

/// A causal trace id stamped on a segment when it enters the datapath
/// (client ingress or the local stack's outbox) and carried through
/// address translation, queue insert, match and release. `0` means
/// "not traced".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

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

/// Tuning knobs for one [`InvariantAuditor`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Label used in reports, journal scopes and bundle names
    /// (e.g. `"primary"`).
    pub label: String,
    /// Capacity of the causal trace ring (default 1024).
    pub ring_capacity: usize,
    /// Capacity of the recent-segment ring the pcapng slice is built
    /// from (default 256).
    pub pcap_capacity: usize,
    /// Verify one in `checksum_sample` released checksums by full
    /// recomputation (default 16, `0` = off; RFC 1624 incremental
    /// updates must agree with the ground truth).
    pub checksum_sample: u64,
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
            checksum_sample: 16,
            bundle_dir: PathBuf::from("target/audit-bundles"),
            panic_on_violation: true,
        }
    }

    /// Defaults, with the bundle directory taken from
    /// `TCPFO_AUDIT_BUNDLE_DIR` when that is set — a deployment path,
    /// and the only thing about an auditor the environment decides.
    /// Capacities and the sampling rate are the fields above.
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

    fn index(self) -> usize {
        Rule::ALL.iter().position(|r| *r == self).expect("in ALL")
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

impl From<String> for AuditDetail {
    fn from(s: String) -> Self {
        AuditDetail::Text(s)
    }
}

impl From<&str> for AuditDetail {
    fn from(s: &str) -> Self {
        AuditDetail::Text(s.to_string())
    }
}

impl From<SegSummary> for AuditDetail {
    fn from(s: SegSummary) -> Self {
        AuditDetail::Seg(s)
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

/// A recently-seen raw segment, kept so the flight recorder can dump a
/// pcapng slice around the violation.
#[derive(Debug, Clone)]
struct SegmentRecord {
    at_ns: u64,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    bytes: Bytes,
    trace: TraceId,
    tag: &'static str,
}

// ---------------------------------------------------------------------
// Shadow replica streams
// ---------------------------------------------------------------------

/// One interval of replica payload in the shadow stream, keyed by its
/// offset relative to the stream base (S's ISN + 1).
#[derive(Debug, Clone)]
struct ShadowSeg {
    data: Vec<u8>,
    trace: TraceId,
}

/// An independent reassembly buffer for one replica's byte stream,
/// normalised into S's sequence space. Mirrors the bridge's output
/// queue semantics: inserts clip below the released watermark, and
/// overlapping re-sends must carry identical bytes.
#[derive(Debug, Clone, Default)]
struct ShadowStream {
    segs: BTreeMap<u64, ShadowSeg>,
    /// Everything below this relative offset was released and trimmed.
    trimmed: u64,
}

impl ShadowStream {
    /// Inserts `data` at relative offset `at`. Returns the offset of
    /// the first mismatching overlapped byte, if any.
    fn insert(&mut self, at: u64, data: &[u8], trace: TraceId) -> Result<(), u64> {
        let mut start = at;
        let mut buf = data;
        if start < self.trimmed {
            let skip = (self.trimmed - start).min(buf.len() as u64) as usize;
            buf = &buf[skip..];
            start += skip as u64;
        }
        let mut pos = start;
        let end = start + buf.len() as u64;
        while pos < end {
            // An existing interval covering `pos`?
            let covering = self
                .segs
                .range(..=pos)
                .next_back()
                .map(|(s, seg)| (*s, s + seg.data.len() as u64))
                .filter(|(_, e)| *e > pos);
            if let Some((estart, eend)) = covering {
                let upto = eend.min(end);
                let existing =
                    &self.segs[&estart].data[(pos - estart) as usize..(upto - estart) as usize];
                let fresh = &buf[(pos - start) as usize..(upto - start) as usize];
                if existing != fresh {
                    let off = existing
                        .iter()
                        .zip(fresh)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0) as u64;
                    return Err(pos + off);
                }
                pos = upto;
                continue;
            }
            // Gap: insert up to the next interval (or `end`).
            let gap_end = self
                .segs
                .range(pos..)
                .next()
                .map(|(s, _)| *s)
                .unwrap_or(end)
                .min(end);
            self.segs.insert(
                pos,
                ShadowSeg {
                    data: buf[(pos - start) as usize..(gap_end - start) as usize].to_vec(),
                    trace,
                },
            );
            pos = gap_end;
        }
        Ok(())
    }

    /// The bytes of `[at, at+len)` if fully present, else `None`.
    fn get(&self, at: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut pos = at;
        let end = at + len as u64;
        while pos < end {
            let (estart, seg) = self
                .segs
                .range(..=pos)
                .next_back()
                .filter(|(s, seg)| *s + (seg.data.len() as u64) > pos)?;
            let eend = estart + seg.data.len() as u64;
            let upto = eend.min(end);
            out.extend_from_slice(&seg.data[(pos - estart) as usize..(upto - estart) as usize]);
            pos = upto;
        }
        Some(out)
    }

    /// Whether `[at, at+data.len())` is fully present — and if so,
    /// whether it equals `data` — without copying.
    fn matches(&self, at: u64, data: &[u8]) -> Option<bool> {
        let mut pos = at;
        let end = at + data.len() as u64;
        let mut eq = true;
        while pos < end {
            let (estart, seg) = self
                .segs
                .range(..=pos)
                .next_back()
                .filter(|(s, seg)| *s + (seg.data.len() as u64) > pos)?;
            let eend = estart + seg.data.len() as u64;
            let upto = eend.min(end);
            eq &= seg.data[(pos - estart) as usize..(upto - estart) as usize]
                == data[(pos - at) as usize..(upto - at) as usize];
            pos = upto;
        }
        Some(eq)
    }

    /// Trace ids contributing to `[at, at+len)`.
    fn traces(&self, at: u64, len: usize) -> Vec<TraceId> {
        let end = at + len as u64;
        let mut out = Vec::new();
        for (s, seg) in self.segs.range(..end) {
            if s + (seg.data.len() as u64) > at && !out.contains(&seg.trace) {
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
        let mut reinsert = None;
        let keys: Vec<u64> = self.segs.range(..upto).map(|(s, _)| *s).collect();
        for s in keys {
            let seg = self.segs.remove(&s).expect("key present");
            let eend = s + seg.data.len() as u64;
            if eend > upto {
                reinsert = Some((
                    upto,
                    ShadowSeg {
                        data: seg.data[(upto - s) as usize..].to_vec(),
                        trace: seg.trace,
                    },
                ));
            }
        }
        if let Some((s, seg)) = reinsert {
            self.segs.insert(s, seg);
        }
        self.trimmed = upto;
    }

    /// Buffered byte count (diagnostics).
    fn buffered(&self) -> usize {
        self.segs.values().map(|s| s.data.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Per-connection shadow state
// ---------------------------------------------------------------------

/// Connection key in the auditor's tables: the unreplicated peer plus
/// the replicated server port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuditKey {
    /// Peer (client) address.
    pub peer_ip: Ipv4Addr,
    /// Peer (client) port.
    pub peer_port: u16,
    /// Server-side port of the replicated service.
    pub server_port: u16,
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

#[derive(Debug, Clone, Default)]
struct AuditConn {
    p_isn: Option<u32>,
    s_isn: Option<u32>,
    mss_p: Option<u16>,
    mss_s: Option<u16>,
    ack_p: Option<u32>,
    ack_s: Option<u32>,
    win_p: u16,
    win_s: u16,
    /// SYN+ACK acknowledgment values (client-initiated handshakes).
    syn_ack_p: Option<u32>,
    syn_ack_s: Option<u32>,
    /// Shadow streams in S-space relative offsets (base = s_isn + 1).
    p_stream: ShadowStream,
    s_stream: ShadowStream,
    p_fin: Option<u64>,
    s_fin: Option<u64>,
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
    closed: bool,
}

impl AuditConn {
    fn delta(&self) -> Option<u32> {
        Some(self.p_isn?.wrapping_sub(self.s_isn?))
    }

    fn base(&self) -> Option<u32> {
        Some(self.s_isn?.wrapping_add(1))
    }

    /// Relative offset of an absolute S-space sequence number.
    fn rel(&self, seq: u32) -> Option<u64> {
        Some(seq.wrapping_sub(self.base()?) as u64)
    }

    fn min_ack(&self) -> Option<u32> {
        match (self.ack_p, self.ack_s) {
            (Some(p), Some(s)) => Some(seq_min(p, s)),
            _ => None,
        }
    }

    fn min_win(&self) -> u16 {
        self.win_p.min(self.win_s)
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
/// failover output went (see [`InvariantAuditor::check_routed`]).
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

static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------
// The auditor
// ---------------------------------------------------------------------

/// An independent online checker for the paper's bridge invariants.
/// One instance is attached per bridge; the bridge reports every
/// ingress/egress event and the auditor re-derives the connection
/// state (Δseq, acks, windows, shadow byte streams) and checks each
/// release against the [`Rule`] catalogue. See the module docs.
pub struct InvariantAuditor {
    cfg: AuditConfig,
    hub: Option<Telemetry>,
    ledger: RuleLedger,
    ring: VecDeque<AuditEvent>,
    ring_dropped: u64,
    pcap: VecDeque<SegmentRecord>,
    pcap_dropped: u64,
    conns: HashMap<AuditKey, AuditConn>,
    violations: Vec<Violation>,
    bundle: Option<PathBuf>,
    releases_seen: u64,
    /// §6 degraded mode: per-connection checks are suspended.
    degraded: bool,
    /// When this link's §5 takeover was noted, until the first client
    /// byte after it is checked against it.
    takeover_at: Option<u64>,
    now_ns: u64,
    /// Connection touched by the current event (for the §3.4 check).
    touched: Option<AuditKey>,
    /// Client-ingress ack awaiting the Δseq-translated deliver-up.
    pending_ack: Option<(AuditKey, u32)>,
    /// Chain promotion decision stamp (log-before-act): set when the
    /// controller journals the promotion decision, cleared when the
    /// commit is checked against it.
    promotion_decided_at: Option<u64>,
    /// Latest replication-lag ledger, stored by the bridge's telemetry
    /// sync when the health observatory is also attached; rendered into
    /// flight-recorder bundles as `health.json` so every invariant
    /// violation captures replica health at fault time.
    health_snapshot: Option<ReplicationLag>,
}

impl fmt::Debug for InvariantAuditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantAuditor")
            .field("label", &self.cfg.label)
            .field("conns", &self.conns.len())
            .field("checks", &self.ledger.total_checks())
            .field("violations", &self.ledger.total_violations())
            .finish()
    }
}

impl InvariantAuditor {
    /// Creates a detached-from-telemetry auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        InvariantAuditor {
            cfg,
            hub: None,
            ledger: RuleLedger::default(),
            ring: VecDeque::new(),
            ring_dropped: 0,
            pcap: VecDeque::new(),
            pcap_dropped: 0,
            conns: HashMap::new(),
            violations: Vec::new(),
            bundle: None,
            releases_seen: 0,
            degraded: false,
            takeover_at: None,
            now_ns: 0,
            touched: None,
            pending_ack: None,
            promotion_decided_at: None,
            health_snapshot: None,
        }
    }

    /// Stores the latest replication-lag ledger for inclusion in
    /// flight-recorder bundles. Called from the bridge's host-tick
    /// telemetry sync, so it is a plain copy: the JSON is rendered by
    /// [`InvariantAuditor::write_bundle`], if a bundle is ever written.
    pub fn set_health_snapshot(&mut self, lag: &ReplicationLag) {
        self.health_snapshot = Some(*lag);
    }

    /// Connects the telemetry hub so violations reach the journal and
    /// the flight recorder can bundle the timeline.
    pub fn with_hub(mut self, hub: &Telemetry) -> Self {
        self.hub = Some(hub.clone());
        self
    }

    /// The rule ledger.
    pub fn ledger(&self) -> &RuleLedger {
        &self.ledger
    }

    /// Recorded violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The flight-recorder bundle directory, once one was written.
    pub fn bundle_path(&self) -> Option<&PathBuf> {
        self.bundle.as_ref()
    }

    /// Entries the causal trace ring and the recent-segment ring each
    /// evicted to stay within their capacities.
    pub fn dropped(&self) -> (u64, u64) {
        (self.ring_dropped, self.pcap_dropped)
    }

    /// Human-readable auditor state: ledger, shadow connections, and
    /// any violations.
    pub fn report(&self) -> String {
        let mut out = format!(
            "auditor [{}]: {} checks, {} violations, {} shadow conns, ring {} (+{} dropped), segments {} (+{} dropped)\n",
            self.cfg.label,
            self.ledger.total_checks(),
            self.ledger.total_violations(),
            self.conns.len(),
            self.ring.len(),
            self.ring_dropped,
            self.pcap.len(),
            self.pcap_dropped
        );
        out.push_str(&self.ledger.to_table());
        for (key, c) in &self.conns {
            out.push_str(&format!(
                "conn {key}: delta={:?} established={} send_next={} pq={}B sq={}B ack_p={:?} ack_s={:?} win=({},{}) last_ack_released={:?}\n",
                c.delta(),
                c.syn_released,
                c.send_next,
                c.p_stream.buffered(),
                c.s_stream.buffered(),
                c.ack_p,
                c.ack_s,
                c.win_p,
                c.win_s,
                c.last_ack_released,
            ));
        }
        for v in &self.violations {
            out.push_str(&v.render());
        }
        out
    }

    // -----------------------------------------------------------------
    // Ring + recording plumbing
    // -----------------------------------------------------------------

    fn push_event(&mut self, kind: AuditEventKind, trace: TraceId, detail: impl Into<AuditDetail>) {
        if self.ring.len() >= self.cfg.ring_capacity {
            self.ring.pop_front();
            self.ring_dropped += 1;
        }
        self.ring.push_back(AuditEvent {
            at_ns: self.now_ns,
            trace,
            kind,
            detail: detail.into(),
        });
    }

    fn push_pcap(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
        tag: &'static str,
    ) {
        if self.pcap.len() >= self.cfg.pcap_capacity {
            self.pcap.pop_front();
            self.pcap_dropped += 1;
        }
        self.pcap.push_back(SegmentRecord {
            at_ns: self.now_ns,
            src,
            dst,
            bytes: bytes.clone(),
            trace,
            tag,
        });
    }

    fn seg_detail(src: Ipv4Addr, dst: Ipv4Addr, view: &TcpView<'_>) -> SegSummary {
        SegSummary {
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
        }
    }

    fn key_for_egress(dst: Ipv4Addr, view: &TcpView<'_>) -> AuditKey {
        AuditKey {
            peer_ip: dst,
            peer_port: view.dst_port(),
            server_port: view.src_port(),
        }
    }

    fn key_for_ingress(src: Ipv4Addr, view: &TcpView<'_>) -> AuditKey {
        AuditKey {
            peer_ip: src,
            peer_port: view.src_port(),
            server_port: view.dst_port(),
        }
    }

    // -----------------------------------------------------------------
    // Violation path
    // -----------------------------------------------------------------

    fn check(&mut self, rule: Rule, ok: bool, trace: TraceId, detail: impl FnOnce() -> String) {
        self.ledger.note_check(rule);
        if ok {
            return;
        }
        self.ledger.note_violation(rule);
        let chain = self.chain_for(trace);
        let v = Violation {
            rule,
            at_ns: self.now_ns,
            trace,
            detail: detail(),
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
        let tail_from = self.ring.len().saturating_sub(12);
        for e in self.ring.iter().skip(tail_from) {
            let line = e.summary();
            if !chain.contains(&line) {
                chain.push(line);
            }
        }
        chain
    }

    // -----------------------------------------------------------------
    // Flight recorder
    // -----------------------------------------------------------------

    /// Writes the flight-recorder bundle (rule ledger + violations,
    /// trace ring, pcapng slice, timeline + journal) and returns its
    /// directory.
    pub fn write_bundle(&self) -> std::io::Result<PathBuf> {
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

    /// The recent-segment ring as a pcapng capture. Every packet
    /// carries a comment block with its trace id and direction; the
    /// diverted S→P leg is annotated with the decoded orig-dest option
    /// so captures are self-describing.
    pub fn pcap_slice(&self) -> Vec<u8> {
        let mut w = PcapngWriter::new(&format!("audit-{}", self.cfg.label));
        for rec in &self.pcap {
            let ip = Ipv4Packet::new(rec.src, rec.dst, PROTO_TCP, rec.bytes.clone());
            let frame = EthernetFrame::new(
                MacAddr::from_index(u32::from(rec.dst.octets()[3])),
                MacAddr::from_index(u32::from(rec.src.octets()[3])),
                EtherType::Ipv4,
                ip.encode(),
            )
            .encode();
            let mut comment = format!("{} {}", rec.tag, rec.trace);
            if let Ok(view) = TcpView::new(&rec.bytes) {
                if let Some((oip, oport)) = view.orig_dest() {
                    comment.push_str(&format!(" diverted S→P leg, orig-dest={oip}:{oport}"));
                }
            }
            w.packet_with_comment(rec.at_ns, &frame, Some(&comment));
        }
        w.finish()
    }

    // -----------------------------------------------------------------
    // Event lifecycle (called by the bridges)
    // -----------------------------------------------------------------

    /// Starts one filter event (one segment through the bridge).
    pub fn begin_event(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.touched = None;
        self.pending_ack = None;
    }

    /// Ends the event: runs the deferred §3.4 bare-ACK rule for the
    /// touched connection.
    pub fn end_event(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        let Some(key) = self.touched.take() else {
            return;
        };
        let Some(conn) = self.conns.get(&key) else {
            return;
        };
        if self.degraded || !conn.syn_released || conn.closed {
            return;
        }
        let (Some(m), last) = (conn.min_ack(), conn.last_ack_released) else {
            return;
        };
        let ok = last.is_some_and(|l| seq_ge(l, m));
        let lastv = last;
        self.check(Rule::BareAck, ok, TraceId::NONE, || {
            format!(
                "conn {key}: min(ack_P, ack_S)={m} advanced but last released ack is {lastv:?} — \
                 no bare ACK was synthesised before the event ended"
            )
        });
        // Mirror the bridge's §8 teardown so late-FIN tombstone ACKs
        // are not misjudged against a dead connection's state.
        if let Some(conn) = self.conns.get_mut(&key) {
            if conn.teardown_reached() {
                conn.closed = true;
            }
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
        self.now_ns = now_ns;
        self.degraded = true;
        self.conns.clear();
        self.push_event(
            AuditEventKind::Phase,
            TraceId::NONE,
            "degraded: secondary failed, per-conn rules suspended (§6)",
        );
    }

    /// A replica joined below: new connections replicate again.
    pub fn note_joined(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.degraded = false;
        self.push_event(
            AuditEventKind::Phase,
            TraceId::NONE,
            "joined: a replica below again, new connections audited",
        );
    }

    /// A segment from the unreplicated peer entered the bridge.
    pub fn note_client_ingress(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
        designated: bool,
    ) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let detail = Self::seg_detail(src, dst, &view);
        self.push_event(AuditEventKind::ClientIngress, trace, detail);
        self.push_pcap(src, dst, bytes, trace, "client_in");
        if !designated {
            return;
        }
        let key = Self::key_for_ingress(src, &view);
        let flags = view.flags();
        if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) && !self.degraded {
            self.conns.entry(key).or_default();
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.closed {
            return;
        }
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

    /// The primary replica's stack emitted a designated segment.
    pub fn note_primary_out(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
    ) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let detail = Self::seg_detail(src, dst, &view);
        self.push_event(AuditEventKind::PrimaryOut, trace, detail);
        self.push_pcap(src, dst, bytes, trace, "primary_out");
        if self.degraded {
            return;
        }
        let key = Self::key_for_egress(dst, &view);
        self.observe_replica(key, true, bytes, trace);
    }

    /// A diverted secondary segment (with orig-dest option) arrived.
    pub fn note_secondary_diverted(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
    ) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let detail = Self::seg_detail(src, dst, &view);
        self.push_event(AuditEventKind::SecondaryDiverted, trace, detail);
        self.push_pcap(src, dst, bytes, trace, "diverted_in");
        if self.degraded {
            return;
        }
        let Some((orig_ip, orig_port)) = view.orig_dest() else {
            return;
        };
        let key = AuditKey {
            peer_ip: orig_ip,
            peer_port: orig_port,
            server_port: view.src_port(),
        };
        self.observe_replica(key, false, bytes, trace);
    }

    /// Shared replica-segment shadowing: ISNs, acks, windows, FIN
    /// positions, and the shadow byte stream (queue-insert mirror).
    fn observe_replica(&mut self, key: AuditKey, is_primary: bool, bytes: &Bytes, trace: TraceId) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let flags = view.flags();
        if flags.contains(TcpFlags::SYN) {
            // Learn the replica ISN and handshake parameters. MSS needs
            // the options, so take the full decode (cold path).
            let mss = TcpSegment::decode_shared(bytes).ok().and_then(|s| s.mss());
            let conn = self.conns.entry(key).or_default();
            if is_primary {
                conn.p_isn = Some(view.seq());
                conn.win_p = view.window();
                conn.mss_p = mss;
                if flags.contains(TcpFlags::ACK) {
                    conn.syn_ack_p = Some(view.ack());
                    conn.ack_p = Some(view.ack());
                }
            } else {
                conn.s_isn = Some(view.seq());
                conn.win_s = view.window();
                conn.mss_s = mss;
                if flags.contains(TcpFlags::ACK) {
                    conn.syn_ack_s = Some(view.ack());
                    conn.ack_s = Some(view.ack());
                }
            }
            self.touched = Some(key);
            return;
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.closed {
            return;
        }
        self.touched = Some(key);
        if flags.contains(TcpFlags::ACK) {
            if is_primary {
                conn.ack_p = Some(view.ack());
                conn.win_p = view.window();
            } else {
                conn.ack_s = Some(view.ack());
                conn.win_s = view.window();
            }
        }
        let Some(delta) = conn.delta() else {
            return;
        };
        // Normalise into S (client-facing) space.
        let seq = if is_primary {
            view.seq().wrapping_sub(delta)
        } else {
            view.seq()
        };
        if flags.contains(TcpFlags::RST) {
            // The bridge forwards a translated RST and drops state.
            conn.closed = true;
            return;
        }
        let Some(rel) = conn.rel(seq) else { return };
        let payload = view.payload();
        if flags.contains(TcpFlags::FIN) {
            let fin_rel = rel + payload.len() as u64;
            if is_primary {
                conn.p_fin = Some(fin_rel);
            } else {
                conn.s_fin = Some(fin_rel);
            }
        }
        if !payload.is_empty() {
            let stream = if is_primary {
                &mut conn.p_stream
            } else {
                &mut conn.s_stream
            };
            let watermark = conn.send_next;
            if stream.trimmed < watermark {
                stream.trimmed = watermark;
            }
            let res = stream.insert(rel, payload, trace);
            self.push_event(
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
                self.check(Rule::QueueAgree, false, trace, || {
                    format!(
                        "conn {key}: {who} replica re-sent different bytes at stream offset {off} \
                         (overlapping retransmission diverged from the recorded stream)"
                    )
                });
            }
        }
    }

    /// A client-facing segment left the bridge: the main rule gate.
    pub fn check_release(&mut self, src: Ipv4Addr, dst: Ipv4Addr, bytes: &Bytes, trace: TraceId) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let detail = Self::seg_detail(src, dst, &view);
        self.push_event(AuditEventKind::Release, trace, detail);
        self.push_pcap(src, dst, bytes, trace, "release");
        self.sample_checksum(src, dst, bytes, trace);
        if self.degraded {
            return;
        }
        let key = Self::key_for_egress(dst, &view);
        if !self.conns.contains_key(&key) {
            return; // tombstone/late-FIN traffic: no shadow state left.
        }
        let flags = view.flags();
        if flags.contains(TcpFlags::RST) {
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.closed = true;
            }
            return;
        }
        if self.conns[&key].closed {
            return;
        }
        if flags.contains(TcpFlags::SYN) {
            self.check_syn_release(key, bytes, &view, trace);
            return;
        }
        self.check_data_release(key, &view, trace);
    }

    /// Rules on the merged SYN / SYN+ACK (§7): S's ISN, min window,
    /// min MSS, min ack.
    fn check_syn_release(
        &mut self,
        key: AuditKey,
        bytes: &Bytes,
        view: &TcpView<'_>,
        trace: TraceId,
    ) {
        let conn = &self.conns[&key];
        let (Some(p_isn), Some(s_isn)) = (conn.p_isn, conn.s_isn) else {
            // A merged SYN released before the auditor saw both replica
            // SYNs — it cannot have been merged from both.
            let seen = (conn.p_isn, conn.s_isn);
            self.check(Rule::MatchedOnly, false, trace, || {
                format!(
                    "conn {key}: SYN released before both replica SYNs were observed \
                     (p_isn, s_isn)={seen:?}"
                )
            });
            return;
        };
        let seq = view.seq();
        self.check(Rule::SeqSpace, seq == s_isn, trace, || {
            format!(
                "conn {key}: merged SYN uses seq={seq}, expected the secondary's ISN {s_isn} \
                 (primary ISN was {p_isn}; client-facing bytes must live in S's space)"
            )
        });
        let conn = &self.conns[&key];
        let (win, exp_win) = (view.window(), conn.min_win());
        self.check(Rule::WinMin, win == exp_win, trace, || {
            format!("conn {key}: merged SYN win={win}, expected min(win_P, win_S)={exp_win}")
        });
        let conn = &self.conns[&key];
        let mss = TcpSegment::decode_shared(bytes).ok().and_then(|s| s.mss());
        let exp_mss = conn.mss_p.unwrap_or(536).min(conn.mss_s.unwrap_or(536));
        self.check(Rule::MssMin, mss == Some(exp_mss), trace, || {
            format!("conn {key}: merged SYN advertises MSS {mss:?}, expected min(MSS_P, MSS_S)={exp_mss}")
        });
        let conn = &self.conns[&key];
        if view.flags().contains(TcpFlags::ACK) {
            if let (Some(ap), Some(as_)) = (conn.syn_ack_p, conn.syn_ack_s) {
                let (ack, exp) = (view.ack(), seq_min(ap, as_));
                self.check(Rule::AckMin, ack == exp, trace, || {
                    format!(
                        "conn {key}: merged SYN+ACK acks {ack}, expected min(ack_P, ack_S)={exp}"
                    )
                });
            }
        }
        let conn = self.conns.get_mut(&key).expect("conn present");
        conn.syn_released = true;
        conn.send_next = 0;
        if view.flags().contains(TcpFlags::ACK) {
            conn.last_ack_released = Some(view.ack());
        }
    }

    /// Rules on data / FIN / bare-ACK releases.
    fn check_data_release(&mut self, key: AuditKey, view: &TcpView<'_>, trace: TraceId) {
        let conn = &self.conns[&key];
        if !conn.syn_released {
            self.check(Rule::MatchedOnly, false, trace, || {
                format!("conn {key}: data released before the merged SYN")
            });
            return;
        }
        let Some(rel) = conn.rel(view.seq()) else {
            return;
        };
        let len = view.payload().len();
        let has_fin = view.flags().contains(TcpFlags::FIN);
        let sn = conn.send_next;
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
        self.check(Rule::SeqSpace, seq_ok, trace, || {
            format!(
                "conn {key}: released seq={seqv} (stream offset {rel}, len {len}, fin {has_fin}) \
                 is neither at the matched watermark ({sn}) nor a §4 retransmission below it"
            )
        });
        let retransmission = !pure_ack && end <= sn;
        // --- MatchedOnly + QueueAgree (§3.2) on fresh payload ---
        if len > 0 && !retransmission && rel == sn {
            let conn = &self.conns[&key];
            let released = view.payload();
            // Non-copying presence + equality probes; the expensive
            // diagnostics (contributor traces, first divergent byte)
            // are computed only when a rule is about to fail.
            let p_match = conn.p_stream.matches(rel, released);
            let s_match = conn.s_stream.matches(rel, released);
            let (p_has, s_has) = (p_match.is_some(), s_match.is_some());
            let agree = p_match.unwrap_or(false) && s_match.unwrap_or(false);
            let contributors: Vec<TraceId> = if p_has && s_has && agree {
                Vec::new()
            } else {
                conn.p_stream
                    .traces(rel, len)
                    .into_iter()
                    .chain(conn.s_stream.traces(rel, len))
                    .collect()
            };
            let first_div = if p_has && s_has && !agree {
                let p = conn.p_stream.get(rel, len).unwrap_or_default();
                let s = conn.s_stream.get(rel, len).unwrap_or_default();
                released
                    .iter()
                    .enumerate()
                    .find(|(i, b)| p.get(*i) != Some(b) || s.get(*i) != Some(b))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            } else {
                0
            };
            self.check(Rule::MatchedOnly, p_has && s_has, trace, || {
                format!(
                    "conn {key}: released {len}B at offset {rel} not matched in both replica \
                     streams (primary has it: {p_has}, secondary has it: {s_has}; \
                     contributors {contributors:?})"
                )
            });
            if p_has && s_has {
                self.check(Rule::QueueAgree, agree, trace, || {
                    format!(
                        "conn {key}: released bytes diverge from the replica streams at \
                         offset {rel}+{first_div} (contributors {contributors:?})"
                    )
                });
            }
        }
        // --- FIN merge (§3.2/§8): both replicas closed here ---
        if has_fin && !retransmission {
            let conn = &self.conns[&key];
            let fin_at = rel + len as u64;
            let (pf, sf) = (conn.p_fin, conn.s_fin);
            self.check(
                Rule::MatchedOnly,
                pf == Some(fin_at) && sf == Some(fin_at),
                trace,
                || {
                    format!(
                        "conn {key}: FIN released at stream offset {fin_at} but replica FINs are \
                         p_fin={pf:?}, s_fin={sf:?} — a FIN may only be released once both \
                         replicas closed at the same position"
                    )
                },
            );
        }
        // --- AckMin / WinMin (§3.2) ---
        if view.flags().contains(TcpFlags::ACK) {
            let conn = &self.conns[&key];
            if let Some(exp) = conn.min_ack() {
                let ack = view.ack();
                let (ap, as_) = (conn.ack_p, conn.ack_s);
                self.check(Rule::AckMin, ack == exp, trace, || {
                    format!(
                        "conn {key}: released ack={ack}, expected min(ack_P, ack_S)=\
                         min({ap:?}, {as_:?})={exp}"
                    )
                });
            }
        }
        {
            let conn = &self.conns[&key];
            let (win, exp_win) = (view.window(), conn.min_win());
            self.check(Rule::WinMin, win == exp_win, trace, || {
                format!("conn {key}: released win={win}, expected min(win_P, win_S)={exp_win}")
            });
        }
        // --- advance the shadow watermark ---
        let conn = self.conns.get_mut(&key).expect("conn present");
        if !retransmission && rel == sn && (len > 0 || has_fin) {
            conn.send_next = end;
            conn.p_stream.trim(rel + len as u64);
            conn.s_stream.trim(rel + len as u64);
            if has_fin {
                conn.fin_released = true;
            }
        }
        if view.flags().contains(TcpFlags::ACK) {
            let ack = view.ack();
            conn.last_ack_released = Some(match conn.last_ack_released {
                Some(l) if seq_gt(l, ack) => l,
                _ => ack,
            });
        }
    }

    /// A segment was handed up to the local stack (Δseq ack
    /// translation on the primary, §3.3).
    pub fn check_deliver_up(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
    ) {
        let Ok(view) = TcpView::new(bytes) else {
            return;
        };
        let detail = Self::seg_detail(src, dst, &view);
        self.push_event(AuditEventKind::DeliverUp, trace, detail);
        let Some((key, ingress_ack)) = self.pending_ack.take() else {
            return;
        };
        if self.degraded {
            return;
        }
        let Some(conn) = self.conns.get(&key) else {
            return;
        };
        let Some(delta) = conn.delta() else { return };
        if view.src_port() != key.peer_port || !view.flags().contains(TcpFlags::ACK) {
            return;
        }
        let exp = ingress_ack.wrapping_add(delta);
        let ack = view.ack();
        self.check(Rule::Translate, ack == exp, trace, || {
            format!(
                "conn {key}: client ack {ingress_ack} delivered up as {ack}, expected \
                 {ingress_ack}+Δseq({delta})={exp}"
            )
        });
    }

    /// A non-release segment left the bridge (e.g. a late-FIN ACK back
    /// to the secondary): ring entry only.
    pub fn note_other_egress(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
    ) {
        if let Ok(view) = TcpView::new(bytes) {
            let detail = Self::seg_detail(src, dst, &view);
            self.push_event(AuditEventKind::Note, trace, detail);
        }
    }
}

// ---------------------------------------------------------------------
// Takeover and chain-routing observations
// ---------------------------------------------------------------------

impl InvariantAuditor {
    /// §5: this link was promoted — egress held, translations off, the
    /// VIP about to be claimed, all at `now_ns`.
    pub fn note_takeover(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.push_event(
            AuditEventKind::Phase,
            TraceId::NONE,
            format!("takeover at {now_ns}ns"),
        );
        self.takeover_at = Some(now_ns);
    }

    /// Chain control plane: the controller decided to promote this
    /// replica and journaled the decision. Log-before-act: this must
    /// precede [`InvariantAuditor::note_promotion_committed`].
    pub fn note_promotion_decision(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.push_event(
            AuditEventKind::Phase,
            TraceId::NONE,
            format!("promotion decided at {now_ns}ns"),
        );
        self.promotion_decided_at = Some(now_ns);
    }

    /// Chain control plane: the promotion was committed (topology
    /// mutated, VIP taken). Checks the N-way §5 generalisation: a
    /// decision record must already exist and must not postdate the
    /// commit.
    pub fn note_promotion_committed(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.push_event(
            AuditEventKind::Phase,
            TraceId::NONE,
            format!("promotion committed at {now_ns}ns"),
        );
        let decided = self.promotion_decided_at;
        let ok = decided.is_some_and(|d| d <= now_ns);
        self.check(Rule::PromotionOrder, ok, TraceId::NONE, || {
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
    pub fn check_routed(
        &mut self,
        place: &LinkPlace,
        up: bool,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        bytes: &Bytes,
        trace: TraceId,
    ) {
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
        self.check(Rule::Translate, ok, trace, || {
            format!(
                "failover segment {src}→{dst} (orig-dest: {diverted}) must be {want} \
                 at {place:?} (§3.1)"
            )
        });
        self.sample_checksum(src, dst, bytes, trace);
        let first_byte = !up && place.upstream.is_none() && !view.payload().is_empty();
        if let Some(at) = self.takeover_at.take_if(|_| first_byte) {
            self.check_takeover_order(at, trace);
        }
    }

    /// Every `checksum_sample`-th segment that left the bridge
    /// rewritten: its checksum must equal a full recomputation.
    fn sample_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr, bytes: &Bytes, trace: TraceId) {
        self.releases_seen += 1;
        let n = self.cfg.checksum_sample;
        if n > 0 && self.releases_seen.is_multiple_of(n) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn shadow_stream_inserts_and_matches() {
        let mut s = ShadowStream::default();
        s.insert(0, b"hello", TraceId(1)).unwrap();
        s.insert(5, b" world", TraceId(2)).unwrap();
        assert_eq!(s.get(0, 11), Some(b"hello world".to_vec()));
        assert_eq!(s.get(3, 4), Some(b"lo w".to_vec()));
        assert_eq!(s.get(8, 10), None);
        // Identical overlap is fine; divergent overlap reports offset.
        s.insert(0, b"hello", TraceId(3)).unwrap();
        assert_eq!(s.insert(4, b"X", TraceId(4)), Err(4));
        let traces = s.traces(0, 11);
        assert!(traces.contains(&TraceId(1)) && traces.contains(&TraceId(2)));
        s.trim(5);
        assert_eq!(s.get(0, 5), None);
        assert_eq!(s.get(5, 6), Some(b" world".to_vec()));
        // Inserts below the trim watermark are clipped silently.
        s.insert(0, b"XXXXX", TraceId(5)).unwrap();
        assert_eq!(s.get(5, 6), Some(b" world".to_vec()));
    }

    #[test]
    fn shadow_stream_gap_then_fill() {
        let mut s = ShadowStream::default();
        s.insert(10, b"cd", TraceId(1)).unwrap();
        assert_eq!(s.get(8, 4), None);
        s.insert(8, b"ab", TraceId(2)).unwrap();
        assert_eq!(s.get(8, 4), Some(b"abcd".to_vec()));
        // Straddling insert verifies the overlapped middle.
        s.insert(9, b"bcde", TraceId(3)).unwrap();
        assert_eq!(s.get(8, 5), Some(b"abcde".to_vec()));
    }

    #[test]
    fn ledger_counts_and_rule_metadata() {
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
        a.now_ns = 2_000;
        for _ in 0..2 {
            a.check_routed(&place, false, vip, client, &seg, TraceId::NONE);
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

    #[test]
    fn both_rings_count_what_they_evict() {
        let mut cfg = AuditConfig::new("test");
        (cfg.ring_capacity, cfg.pcap_capacity) = (3, 2);
        let mut a = InvariantAuditor::new(cfg);
        let [src, dst] = [Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(192, 168, 0, 9)];
        for _ in 0..5 {
            a.push_event(AuditEventKind::Note, TraceId::NONE, "x");
            a.push_pcap(src, dst, &Bytes::new(), TraceId::NONE, "release");
        }
        assert_eq!(a.dropped(), (2, 3));
        let report = a.report();
        assert!(report.contains("ring 3 (+2 dropped), segments 2 (+3 dropped)"));
    }

    #[test]
    fn takeover_in_order_is_clean() {
        let a =
            takeover_then_first_byte(&[("kill", 50), ("peer_dead", 100), ("takeover.arp", 1_000)]);
        assert_eq!(a.ledger().stat(Rule::FailoverOrder).violations, 0);
    }
}
