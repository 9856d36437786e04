//! The §5 failover timeline and the redundancy-restoration clock, as
//! views of the journal.
//!
//! The paper's Fig. 5 decomposes client-visible failover time into
//! phases. Nothing here is written on its own: [`crate::Telemetry::event`]
//! journals each control-plane moment, and a journal entry whose kind
//! names a phase stamps it beside the journal's ring, where eviction
//! never reaches it. A `kill` opens a failure episode and a `reprovision.begin`
//! opens a round; within one, the first stamp of each phase wins.
//! [`FailoverTimeline`] and [`RedundancyTimeline`] read the latest
//! episode and the latest round back.

use crate::journal::Journal;
use crate::json::JsonObject;

/// The stamped phases of a §5 takeover, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailoverPhase {
    /// A replica was killed (`kill`); opens an episode.
    Failure,
    /// A survivor declared the dead peer so (`peer_dead`).
    Detection,
    /// The successor claimed the VIP with a gratuitous ARP
    /// (`takeover.arp`).
    ArpTakeover,
    /// The first client-bound payload the promoted head sent
    /// (`first_client_byte`).
    FirstClientByte,
}

impl FailoverPhase {
    /// All phases in causal order.
    pub const ALL: [FailoverPhase; 4] = [
        FailoverPhase::Failure,
        FailoverPhase::Detection,
        FailoverPhase::ArpTakeover,
        FailoverPhase::FirstClientByte,
    ];

    /// The journal kind that stamps each phase, parallel to `ALL`.
    const KINDS: [&'static str; 4] = ["kill", "peer_dead", "takeover.arp", "first_client_byte"];

    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        ["failure", "detection", "arp_takeover", "first_client_byte"][self as usize]
    }
}

/// The phases of reprovisioning a replica below the survivors, in
/// causal order. Kept apart from [`FailoverPhase`] so restored
/// redundancy is timed independently of the client-visible stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RedundancyPhase {
    /// A standby is being provisioned (`reprovision.begin`); opens a
    /// round.
    ReprovisionStart,
    /// The live flows were handed to it (`reprovision.handoff_done`).
    HandoffDone,
    /// The replication-lag ledger drained to zero
    /// (`reprovision.restored`).
    CatchupDone,
}

impl RedundancyPhase {
    /// All phases in causal order.
    pub const ALL: [RedundancyPhase; 3] = [
        RedundancyPhase::ReprovisionStart,
        RedundancyPhase::HandoffDone,
        RedundancyPhase::CatchupDone,
    ];

    /// The journal kind that stamps each phase, parallel to `ALL`.
    const KINDS: [&'static str; 3] = [
        "reprovision.begin",
        "reprovision.handoff_done",
        "reprovision.restored",
    ];

    /// Stable lowercase name used in JSON.
    pub fn name(self) -> &'static str {
        ["reprovision_start", "handoff_done", "catchup_done"][self as usize]
    }
}

/// What the journal's entries stamped: the latest failure episode's
/// phases and the latest reprovisioning round's.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stamps {
    failover: [Option<u64>; 4],
    redundancy: [Option<u64>; 3],
}

impl Stamps {
    /// Stamps the phase `kind` names, if it names one.
    pub(crate) fn stamp(&mut self, kind: &str, at_ns: u64) {
        stamp(&mut self.failover, &FailoverPhase::KINDS, kind, at_ns);
        stamp(&mut self.redundancy, &RedundancyPhase::KINDS, kind, at_ns);
    }
}

/// The first kind of `kinds` opens a new sequence; any other stamps its
/// slot unless the open sequence already has it.
fn stamp<const N: usize>(slots: &mut [Option<u64>; N], kinds: &[&str; N], kind: &str, at: u64) {
    match kinds.iter().position(|k| *k == kind) {
        Some(0) => *slots = std::array::from_fn(|i| (i == 0).then_some(at)),
        Some(i) => {
            slots[i].get_or_insert(at);
        }
        None => {}
    }
}

/// Whether the stamped slots are in causal order.
fn is_monotone(slots: &[Option<u64>]) -> bool {
    slots.iter().flatten().is_sorted()
}

/// Every slot, when all are stamped and in causal order.
fn complete<const N: usize>(slots: [Option<u64>; N]) -> Option<[u64; N]> {
    let complete = slots.iter().all(Option::is_some) && is_monotone(&slots);
    complete.then(|| slots.map(Option::unwrap_or_default))
}

/// The stamped slots one per line, each with its delta from the
/// previous stamp, then the named total, if any.
fn breakdown<const N: usize>(
    title: &str,
    names: [&str; N],
    slots: [Option<u64>; N],
    total: Option<(&str, u64)>,
) -> String {
    let mut out = format!("{title}:\n");
    let mut prev = None;
    for (name, at) in names.into_iter().zip(slots) {
        let stamp = at.map_or("-".into(), crate::fmt_nanos);
        let delta = at
            .zip(prev)
            .map(|(t, p)| format!("  (+{})", crate::fmt_nanos(t.saturating_sub(p))));
        prev = at.or(prev);
        let delta = delta.unwrap_or_default();
        out.push_str(&format!("  {name:<18} {stamp:>12}{delta}\n"));
    }
    if let Some((name, total)) = total {
        let total = crate::fmt_nanos(total);
        out.push_str(&format!("  {name:<18} {total:>12}\n"));
    }
    out
}

/// `value` rendered, or `null`.
fn or_null(value: Option<impl ToString>) -> String {
    value.map_or_else(|| "null".into(), |v| v.to_string())
}

/// The stamps as a JSON object keyed by phase name.
fn stamps_json<const N: usize>(names: [&str; N], slots: [Option<u64>; N]) -> JsonObject {
    let mut obj = JsonObject::new();
    for (name, at) in names.into_iter().zip(slots) {
        obj.raw(name, or_null(at));
    }
    obj
}

/// The latest failure episode's §5 phases, read from a journal.
#[derive(Debug, Clone)]
pub struct FailoverTimeline(pub(crate) Journal);

impl FailoverTimeline {
    fn slots(&self) -> [Option<u64>; 4] {
        self.0.stamps().failover
    }

    /// When `phase` occurred in the latest episode, if it has.
    pub fn at(&self, phase: FailoverPhase) -> Option<u64> {
        self.slots()[phase as usize]
    }

    /// Whether the stamped phases are in causal order.
    pub fn is_monotone(&self) -> bool {
        is_monotone(&self.slots())
    }

    /// Client-visible failover time: first client byte − failure.
    pub fn total_ns(&self) -> Option<u64> {
        let [failure, .., first] = self.slots();
        first?.checked_sub(failure?)
    }

    /// The §5 MTTR decomposition, when every phase is stamped in order.
    pub fn mttr(&self) -> Option<MttrBreakdown> {
        let [failure, detection, arp, first] = complete(self.slots())?;
        Some(MttrBreakdown {
            // Steps 1 and 3–4 are the one `takeover` moment, at the
            // instant of the ARP: their slots stay in the decomposition
            // because the benchmark's `core.mttr.*` cells read it by
            // position (`benchmark/src/adapter.rs`), and read 0.
            parts: [detection - failure, 0, 0, arp - detection, first - arp],
            total_ns: first - failure,
        })
    }

    /// Human-readable per-phase breakdown with deltas, e.g.
    /// `detection          52ms  (+50ms)`, and the client-visible total.
    pub fn breakdown(&self) -> String {
        let names = FailoverPhase::ALL.map(FailoverPhase::name);
        let total = self.total_ns().map(|t| ("client_visible", t));
        breakdown("failover timeline", names, self.slots(), total)
    }

    /// Renders the view as a JSON object (unstamped phases are `null`),
    /// with the client-visible total and the `mttr` decomposition.
    pub fn to_json(&self) -> String {
        let mut obj = stamps_json(FailoverPhase::ALL.map(FailoverPhase::name), self.slots());
        obj.raw("client_visible_ns", or_null(self.total_ns()))
            .raw("mttr", or_null(self.mttr().map(|m| m.to_json())));
        obj.render()
    }
}

/// The §5 MTTR decomposition of one episode: the time spent in each
/// step, in sim nanoseconds, summing to `total_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MttrBreakdown {
    parts: [u64; 5],
    /// Failure → first client-visible byte (the client-side MTTR).
    pub total_ns: u64,
}

impl MttrBreakdown {
    /// The name of each step, in order: the waterfall's span names.
    pub const PHASES: [&'static str; 5] = [
        "detection",
        "egress_hold",
        "translation_off",
        "arp_takeover",
        "first_client_byte",
    ];

    /// The JSON key of each step, parallel to [`MttrBreakdown::PHASES`]:
    /// the export schema's names, kept until the slots are renamed.
    const KEYS: [&'static str; 5] = [
        "detection_ns",
        "hold_ns",
        "translation_ns",
        "arp_ns",
        "first_byte_ns",
    ];

    /// The time spent in each step, in [`MttrBreakdown::PHASES`] order.
    pub fn deltas(&self) -> [u64; 5] {
        self.parts
    }

    /// Renders the decomposition as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (key, v) in Self::KEYS.into_iter().zip(self.parts) {
            obj.u64(key, v);
        }
        obj.u64("total_ns", self.total_ns);
        obj.render()
    }
}

/// The latest reprovisioning round's phases, read from a journal.
#[derive(Debug, Clone)]
pub struct RedundancyTimeline(pub(crate) Journal);

impl RedundancyTimeline {
    fn slots(&self) -> [Option<u64>; 3] {
        self.0.stamps().redundancy
    }

    /// When `phase` occurred in the latest round, if it has.
    pub fn at(&self, phase: RedundancyPhase) -> Option<u64> {
        self.slots()[phase as usize]
    }

    /// The redundancy-restoration decomposition, when every phase is
    /// stamped in order.
    pub fn restoration(&self) -> Option<RedundancyBreakdown> {
        let [start, handoff, done] = complete(self.slots())?;
        Some(RedundancyBreakdown {
            reprovision_ns: handoff - start,
            catchup_ns: done - handoff,
            total_ns: done - start,
        })
    }

    /// Human-readable per-phase breakdown with deltas, and the time to
    /// restored redundancy once the round completed.
    pub fn breakdown(&self) -> String {
        let names = RedundancyPhase::ALL.map(RedundancyPhase::name);
        let total = self.restoration().map(|r| ("restored", r.total_ns));
        breakdown("redundancy timeline", names, self.slots(), total)
    }

    /// Renders the view as a JSON object (unstamped phases `null`),
    /// with the `restoration` decomposition.
    pub fn to_json(&self) -> String {
        let mut obj = stamps_json(
            RedundancyPhase::ALL.map(RedundancyPhase::name),
            self.slots(),
        );
        obj.raw(
            "restoration",
            or_null(self.restoration().map(|r| r.to_json())),
        );
        obj.render()
    }
}

/// Phase-to-phase deltas (sim nanoseconds) of one reprovisioning round:
/// how long it spent provisioning the standby versus catching it up,
/// and their sum, the time to restored redundancy (`sim.restored_ms` in
/// the benchmark's `failover` workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyBreakdown {
    /// Reprovision start → per-flow handoff complete.
    pub reprovision_ns: u64,
    /// Handoff complete → replication-lag ledger drained to zero.
    pub catchup_ns: u64,
    /// Reprovision start → redundancy restored (fields sum to this).
    pub total_ns: u64,
}

impl RedundancyBreakdown {
    /// Renders the decomposition as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.u64("reprovision_ns", self.reprovision_ns);
        obj.u64("catchup_ns", self.catchup_ns);
        obj.u64("total_ns", self.total_ns);
        obj.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn at(t: &Telemetry, kind: &'static str, at_ns: u64) {
        t.event(at_ns, "test", kind, &[], [None, None]);
    }

    #[test]
    fn first_mark_wins() {
        let t = Telemetry::new();
        at(&t, "first_client_byte", 100);
        at(&t, "first_client_byte", 200);
        assert_eq!(t.timeline.at(FailoverPhase::FirstClientByte), Some(100));
    }

    #[test]
    fn completeness_monotonicity_total() {
        let t = Telemetry::new();
        let tl = &t.timeline;
        assert_eq!(tl.mttr(), None);
        assert!(tl.is_monotone(), "vacuously monotone when empty");
        for (kind, ns) in [
            ("kill", 10),
            ("peer_dead", 60),
            ("takeover", 60),
            ("takeover.arp", 61),
            ("first_client_byte", 90),
        ] {
            at(&t, kind, ns);
        }
        assert!(tl.is_monotone());
        assert_eq!(tl.total_ns(), Some(80));
        let m = tl.mttr().expect("complete timeline decomposes");
        assert_eq!(m.deltas(), [50, 0, 0, 1, 29]);
        assert_eq!(m.total_ns, 80);
        assert_eq!(m.deltas().iter().sum::<u64>(), m.total_ns);
        let json = tl.to_json();
        assert!(json.contains("\"translation_ns\": 0"), "{json}");
        // The next kill opens a new episode.
        at(&t, "kill", 1_000);
        assert_eq!(tl.mttr(), None);
        assert_eq!(tl.at(FailoverPhase::Failure), Some(1_000));
        assert_eq!(tl.at(FailoverPhase::Detection), None);
    }

    #[test]
    fn out_of_order_detected() {
        let t = Telemetry::new();
        at(&t, "kill", 100);
        at(&t, "peer_dead", 50);
        assert!(!t.timeline.is_monotone());
    }

    #[test]
    fn renders() {
        let t = Telemetry::new();
        at(&t, "kill", 1_000_000);
        let text = t.timeline.breakdown();
        assert!(text.contains("failure"), "{text}");
        assert!(text.contains("1ms"), "{text}");
        let json = t.timeline.to_json();
        assert!(json.contains("\"failure\": 1000000"), "{json}");
        assert!(json.contains("\"detection\": null"), "{json}");
        assert!(json.contains("\"mttr\": null"), "{json}");
    }

    #[test]
    fn redundancy_first_mark_wins_and_decomposes() {
        let t = Telemetry::new();
        let red = &t.redundancy;
        at(&t, "reprovision.begin", 100);
        at(&t, "reprovision.handoff_done", 130);
        at(&t, "reprovision.handoff_done", 150);
        assert_eq!(red.at(RedundancyPhase::HandoffDone), Some(130));
        at(&t, "reprovision.restored", 190);
        let r = red.restoration().expect("complete round decomposes");
        assert_eq!((r.reprovision_ns, r.catchup_ns, r.total_ns), (30, 60, 90));
        let json = red.to_json();
        assert!(json.contains("\"handoff_done\": 130"), "{json}");
        let text = red.breakdown();
        assert!(text.contains("catchup_done"), "{text}");
        assert!(text.contains("(+60ns)"), "{text}");
        assert!(text.contains("restored"), "{text}");
        assert!(json.contains("\"total_ns\": 90"), "{json}");
        // The next begin opens a new round.
        at(&t, "reprovision.begin", 500);
        assert_eq!(red.restoration(), None);
        assert_eq!(red.at(RedundancyPhase::ReprovisionStart), Some(500));
    }

    #[test]
    fn redundancy_out_of_order_detected() {
        let t = Telemetry::new();
        at(&t, "reprovision.begin", 100);
        at(&t, "reprovision.handoff_done", 50);
        at(&t, "reprovision.restored", 150);
        assert_eq!(t.redundancy.restoration(), None, "out of order");
        let json = t.redundancy.to_json();
        assert!(json.contains("\"restoration\": null"), "{json}");
    }
}
