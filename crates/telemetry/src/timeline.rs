//! The §5 failover timeline.
//!
//! The paper's Fig. 5 decomposes client-visible failover time into
//! phases; this module captures one sim timestamp per
//! [`FailoverPhase`], first mark wins. [`FailoverTimeline::breakdown`]
//! renders the phase-to-phase deltas the experiments report.

use std::sync::{Arc, Mutex};

use crate::json::JsonObject;

/// The phases of a §5 takeover, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailoverPhase {
    /// The primary stopped responding (injected failure).
    Failure,
    /// The secondary's heartbeat monitor declared the primary dead.
    Detection,
    /// The secondary began holding egress while reconfiguring.
    EgressHold,
    /// Both address translations (ingress a_p→a_s, egress diversion)
    /// were switched off — §5 steps 3–4.
    TranslationOff,
    /// The secondary claimed the primary's IP (gratuitous ARP, TCB
    /// rekey) and resumed egress.
    ArpTakeover,
    /// First client-bound payload byte sent by the promoted secondary.
    FirstClientByte,
}

/// Number of [`FailoverPhase`]s.
const PHASES: usize = 6;

impl FailoverPhase {
    /// All phases in causal order.
    pub const ALL: [FailoverPhase; PHASES] = [
        FailoverPhase::Failure,
        FailoverPhase::Detection,
        FailoverPhase::EgressHold,
        FailoverPhase::TranslationOff,
        FailoverPhase::ArpTakeover,
        FailoverPhase::FirstClientByte,
    ];

    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            FailoverPhase::Failure => "failure",
            FailoverPhase::Detection => "detection",
            FailoverPhase::EgressHold => "egress_hold",
            FailoverPhase::TranslationOff => "translation_off",
            FailoverPhase::ArpTakeover => "arp_takeover",
            FailoverPhase::FirstClientByte => "first_client_byte",
        }
    }

    fn index(self) -> usize {
        match self {
            FailoverPhase::Failure => 0,
            FailoverPhase::Detection => 1,
            FailoverPhase::EgressHold => 2,
            FailoverPhase::TranslationOff => 3,
            FailoverPhase::ArpTakeover => 4,
            FailoverPhase::FirstClientByte => 5,
        }
    }
}

/// Shared record of when each failover phase first occurred.
#[derive(Debug, Clone, Default)]
pub struct FailoverTimeline {
    marks: Arc<Mutex<[Option<u64>; PHASES]>>,
}

impl FailoverTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        FailoverTimeline::default()
    }

    /// Records `phase` at sim time `now_ns`. The first mark for a
    /// phase wins; later marks are ignored, so "first client byte"
    /// can be marked on every candidate send.
    pub fn mark(&self, phase: FailoverPhase, now_ns: u64) {
        let mut marks = self.marks.lock().unwrap();
        if marks[phase.index()].is_none() {
            marks[phase.index()] = Some(now_ns);
        }
    }

    /// When `phase` first occurred, if it has.
    pub fn at(&self, phase: FailoverPhase) -> Option<u64> {
        self.marks.lock().unwrap()[phase.index()]
    }

    /// Whether every phase has been marked.
    pub fn is_complete(&self) -> bool {
        self.marks.lock().unwrap().iter().all(Option::is_some)
    }

    /// Whether the marked phases are in causal order (each marked
    /// phase's timestamp is ≥ every earlier marked phase's).
    pub fn is_monotone(&self) -> bool {
        let marks = self.marks.lock().unwrap();
        let mut last = 0u64;
        for t in marks.iter().flatten() {
            if *t < last {
                return false;
            }
            last = *t;
        }
        true
    }

    /// Client-visible failover time: first client byte − failure.
    pub fn total_ns(&self) -> Option<u64> {
        let start = self.at(FailoverPhase::Failure)?;
        let end = self.at(FailoverPhase::FirstClientByte)?;
        end.checked_sub(start)
    }

    /// Clears all marks (for reuse across repeated failovers).
    pub fn reset(&self) {
        *self.marks.lock().unwrap() = [None; PHASES];
    }

    /// The §5 MTTR decomposition, when the timeline is complete.
    pub fn mttr(&self) -> Option<MttrBreakdown> {
        MttrBreakdown::from_timeline(self)
    }

    /// Human-readable per-phase breakdown with deltas, e.g.
    /// `detection          52ms  (+50ms)`.
    pub fn breakdown(&self) -> String {
        let mut out = String::from("failover timeline:\n");
        let mut prev: Option<u64> = None;
        for phase in FailoverPhase::ALL {
            let line = match self.at(phase) {
                Some(t) => {
                    let delta = prev
                        .map(|p| format!("  (+{})", crate::fmt_nanos(t.saturating_sub(p))))
                        .unwrap_or_default();
                    prev = Some(t);
                    format!("  {:<18} {:>12}{delta}", phase.name(), crate::fmt_nanos(t))
                }
                None => format!("  {:<18} {:>12}", phase.name(), "-"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(total) = self.total_ns() {
            out.push_str(&format!(
                "  {:<18} {:>12}\n",
                "client_visible",
                crate::fmt_nanos(total)
            ));
        }
        out
    }

    /// Renders the timeline as a JSON object (unmarked phases are
    /// `null`); a complete timeline also carries the `mttr`
    /// decomposition object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for phase in FailoverPhase::ALL {
            match self.at(phase) {
                Some(t) => obj.u64(phase.name(), t),
                None => obj.raw(phase.name(), "null"),
            };
        }
        match self.total_ns() {
            Some(t) => obj.u64("client_visible_ns", t),
            None => obj.raw("client_visible_ns", "null"),
        };
        match self.mttr() {
            Some(m) => obj.raw("mttr", m.to_json()),
            None => obj.raw("mttr", "null"),
        };
        obj.render()
    }
}

/// The §5 MTTR decomposition: phase-to-phase deltas (sim nanoseconds)
/// of a complete [`FailoverTimeline`]. Each field is the time spent
/// *in* that step, so the fields sum to `total_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MttrBreakdown {
    /// Failure injected → heartbeat monitor declared the primary dead.
    pub detection_ns: u64,
    /// Detection → client-bound egress held.
    pub hold_ns: u64,
    /// Egress hold → both address translations disabled.
    pub translation_ns: u64,
    /// Translation off → gratuitous ARP sent (IP claimed).
    pub arp_ns: u64,
    /// ARP takeover → first client-visible payload byte from S.
    pub first_byte_ns: u64,
    /// Failure → first client-visible byte (the client-side MTTR).
    pub total_ns: u64,
}

impl MttrBreakdown {
    /// Field names in phase order, matching the JSON keys.
    pub const FIELDS: [&'static str; 5] = [
        "detection_ns",
        "hold_ns",
        "translation_ns",
        "arp_ns",
        "first_byte_ns",
    ];

    /// Derives the decomposition from a complete, monotone timeline;
    /// `None` if any phase is unmarked or out of order.
    pub fn from_timeline(t: &FailoverTimeline) -> Option<MttrBreakdown> {
        if !t.is_monotone() {
            return None;
        }
        let mut stamps = [0u64; PHASES];
        for (i, phase) in FailoverPhase::ALL.into_iter().enumerate() {
            stamps[i] = t.at(phase)?;
        }
        Some(MttrBreakdown {
            detection_ns: stamps[1] - stamps[0],
            hold_ns: stamps[2] - stamps[1],
            translation_ns: stamps[3] - stamps[2],
            arp_ns: stamps[4] - stamps[3],
            first_byte_ns: stamps[5] - stamps[4],
            total_ns: stamps[5] - stamps[0],
        })
    }

    /// The deltas in phase order (same order as [`MttrBreakdown::FIELDS`]).
    pub fn deltas(&self) -> [u64; 5] {
        [
            self.detection_ns,
            self.hold_ns,
            self.translation_ns,
            self.arp_ns,
            self.first_byte_ns,
        ]
    }

    /// Renders the decomposition as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, v) in Self::FIELDS.into_iter().zip(self.deltas()) {
            obj.u64(name, v);
        }
        obj.u64("total_ns", self.total_ns);
        obj.render()
    }
}

/// The phases of PR9 tail reprovisioning after a chain takeover, in
/// causal order. Kept separate from [`FailoverPhase`] — the §5 MTTR
/// decomposition is a closed six-phase contract — so redundancy
/// restoration gates independently of client-visible MTTR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RedundancyPhase {
    /// The control plane began provisioning a replacement tail.
    ReprovisionStart,
    /// Per-flow TCB + Δseq + cursor snapshots were handed to the new
    /// tail (it can now participate in the chain).
    HandoffDone,
    /// The replication-lag ledger drained to zero backlog — full
    /// redundancy restored.
    CatchupDone,
}

/// Number of [`RedundancyPhase`]s.
const REDUNDANCY_PHASES: usize = 3;

impl RedundancyPhase {
    /// All phases in causal order.
    pub const ALL: [RedundancyPhase; REDUNDANCY_PHASES] = [
        RedundancyPhase::ReprovisionStart,
        RedundancyPhase::HandoffDone,
        RedundancyPhase::CatchupDone,
    ];

    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            RedundancyPhase::ReprovisionStart => "reprovision_start",
            RedundancyPhase::HandoffDone => "handoff_done",
            RedundancyPhase::CatchupDone => "catchup_done",
        }
    }

    fn index(self) -> usize {
        match self {
            RedundancyPhase::ReprovisionStart => 0,
            RedundancyPhase::HandoffDone => 1,
            RedundancyPhase::CatchupDone => 2,
        }
    }
}

/// Shared record of when each reprovisioning phase first occurred,
/// same first-mark-wins discipline as [`FailoverTimeline`].
#[derive(Debug, Clone, Default)]
pub struct RedundancyTimeline {
    marks: Arc<Mutex<[Option<u64>; REDUNDANCY_PHASES]>>,
}

impl RedundancyTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        RedundancyTimeline::default()
    }

    /// Records `phase` at sim time `now_ns`; first mark wins.
    pub fn mark(&self, phase: RedundancyPhase, now_ns: u64) {
        let mut marks = self.marks.lock().unwrap();
        if marks[phase.index()].is_none() {
            marks[phase.index()] = Some(now_ns);
        }
    }

    /// When `phase` first occurred, if it has.
    pub fn at(&self, phase: RedundancyPhase) -> Option<u64> {
        self.marks.lock().unwrap()[phase.index()]
    }

    /// Whether every phase has been marked.
    pub fn is_complete(&self) -> bool {
        self.marks.lock().unwrap().iter().all(Option::is_some)
    }

    /// Whether the marked phases are in causal order.
    pub fn is_monotone(&self) -> bool {
        let marks = self.marks.lock().unwrap();
        let mut last = 0u64;
        for t in marks.iter().flatten() {
            if *t < last {
                return false;
            }
            last = *t;
        }
        true
    }

    /// Clears all marks (for repeated reprovisioning rounds).
    pub fn reset(&self) {
        *self.marks.lock().unwrap() = [None; REDUNDANCY_PHASES];
    }

    /// The redundancy-restoration decomposition, when complete.
    pub fn restoration(&self) -> Option<RedundancyBreakdown> {
        RedundancyBreakdown::from_timeline(self)
    }

    /// Renders the timeline as a JSON object (unmarked phases `null`);
    /// a complete timeline also carries the `restoration` object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for phase in RedundancyPhase::ALL {
            match self.at(phase) {
                Some(t) => obj.u64(phase.name(), t),
                None => obj.raw(phase.name(), "null"),
            };
        }
        match self.restoration() {
            Some(r) => obj.raw("restoration", r.to_json()),
            None => obj.raw("restoration", "null"),
        };
        obj.render()
    }
}

/// Phase-to-phase deltas (sim nanoseconds) of a complete
/// [`RedundancyTimeline`]: how long reprovisioning spent spawning the
/// standby versus catching it up, and their sum, the time to restored
/// redundancy (`sim.restored_ms` in the benchmark's `failover` workload).
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
    /// Field names in phase order, matching the JSON keys.
    pub const FIELDS: [&'static str; 2] = ["reprovision_ns", "catchup_ns"];

    /// Derives the decomposition from a complete, monotone timeline.
    pub fn from_timeline(t: &RedundancyTimeline) -> Option<RedundancyBreakdown> {
        if !t.is_monotone() {
            return None;
        }
        let start = t.at(RedundancyPhase::ReprovisionStart)?;
        let handoff = t.at(RedundancyPhase::HandoffDone)?;
        let done = t.at(RedundancyPhase::CatchupDone)?;
        Some(RedundancyBreakdown {
            reprovision_ns: handoff - start,
            catchup_ns: done - handoff,
            total_ns: done - start,
        })
    }

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

    #[test]
    fn first_mark_wins() {
        let t = FailoverTimeline::new();
        t.mark(FailoverPhase::FirstClientByte, 100);
        t.mark(FailoverPhase::FirstClientByte, 200);
        assert_eq!(t.at(FailoverPhase::FirstClientByte), Some(100));
    }

    #[test]
    fn completeness_monotonicity_total() {
        let t = FailoverTimeline::new();
        assert!(!t.is_complete());
        assert!(t.is_monotone(), "vacuously monotone when empty");
        t.mark(FailoverPhase::Failure, 10);
        t.mark(FailoverPhase::Detection, 60);
        t.mark(FailoverPhase::EgressHold, 60);
        t.mark(FailoverPhase::TranslationOff, 60);
        t.mark(FailoverPhase::ArpTakeover, 61);
        t.mark(FailoverPhase::FirstClientByte, 90);
        assert!(t.is_complete());
        assert!(t.is_monotone());
        assert_eq!(t.total_ns(), Some(80));
        let m = t.mttr().expect("complete timeline decomposes");
        assert_eq!(m.detection_ns, 50);
        assert_eq!(m.hold_ns, 0);
        assert_eq!(m.translation_ns, 0);
        assert_eq!(m.arp_ns, 1);
        assert_eq!(m.first_byte_ns, 29);
        assert_eq!(m.total_ns, 80);
        assert_eq!(m.deltas().iter().sum::<u64>(), m.total_ns);
        assert!(
            t.to_json().contains("\"translation_ns\": 0"),
            "{}",
            t.to_json()
        );
        t.reset();
        assert!(!t.is_complete());
        assert_eq!(t.mttr(), None);
    }

    #[test]
    fn out_of_order_detected() {
        let t = FailoverTimeline::new();
        t.mark(FailoverPhase::Failure, 100);
        t.mark(FailoverPhase::Detection, 50);
        assert!(!t.is_monotone());
    }

    #[test]
    fn renders() {
        let t = FailoverTimeline::new();
        t.mark(FailoverPhase::Failure, 1_000_000);
        let text = t.breakdown();
        assert!(text.contains("failure"), "{text}");
        assert!(text.contains("1ms"), "{text}");
        let json = t.to_json();
        assert!(json.contains("\"failure\": 1000000"), "{json}");
        assert!(json.contains("\"detection\": null"), "{json}");
    }

    #[test]
    fn redundancy_first_mark_wins_and_decomposes() {
        let t = RedundancyTimeline::new();
        assert!(!t.is_complete());
        assert!(t.is_monotone());
        t.mark(RedundancyPhase::ReprovisionStart, 100);
        t.mark(RedundancyPhase::ReprovisionStart, 500);
        assert_eq!(t.at(RedundancyPhase::ReprovisionStart), Some(100));
        t.mark(RedundancyPhase::HandoffDone, 130);
        t.mark(RedundancyPhase::CatchupDone, 190);
        assert!(t.is_complete());
        let r = t.restoration().expect("complete timeline decomposes");
        assert_eq!(r.reprovision_ns, 30);
        assert_eq!(r.catchup_ns, 60);
        assert_eq!(r.total_ns, 90);
        let json = t.to_json();
        assert!(json.contains("\"handoff_done\": 130"), "{json}");
        assert!(json.contains("\"total_ns\": 90"), "{json}");
        t.reset();
        assert!(!t.is_complete());
        assert_eq!(t.restoration(), None);
    }

    #[test]
    fn redundancy_out_of_order_detected() {
        let t = RedundancyTimeline::new();
        t.mark(RedundancyPhase::ReprovisionStart, 100);
        t.mark(RedundancyPhase::HandoffDone, 50);
        assert!(!t.is_monotone());
        assert_eq!(t.restoration(), None);
        let json = t.to_json();
        assert!(json.contains("\"catchup_done\": null"), "{json}");
    }
}
