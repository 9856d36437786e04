//! PR9 reprovisioning: restoring chain redundancy after a takeover.
//!
//! The paper's two-node system ends §5 with the survivor running alone;
//! ROADMAP item 2 asks for the missing half of production failover —
//! after a promotion, *re-provision* a fresh tail and catch it up on
//! the live connections while client traffic continues.
//!
//! The protocol has three phases (stamped on the
//! [`tcpfo_telemetry::RedundancyTimeline`]):
//!
//! 1. **Reprovision**: a fresh replica is spawned at the end of the
//!    chain. For every live designated flow the old tail snapshots a
//!    [`FlowHandoff`] — the per-flow TCB essentials (cursor in the
//!    tail's sequence space, the client's `rcv_nxt`, negotiated MSS
//!    and window) plus the application-stream offset.
//! 2. **Handoff**: the new tail adopts each flow — a TCB rebuilt at
//!    the cursor ([`tcpfo_tcp::Stack::adopt`]), a §6 entry in its
//!    bridge (`PrimaryBridge::adopt_flow`, which vouches for an
//!    establishment the tail never witnessed), and the application
//!    resumed at the snapshotted offset. The link above it converts
//!    from tail to middle and adopts the same flows into its merge
//!    bridge at `Δseq = 0`: the adopted TCBs are built *in the old
//!    tail's sequence space*, so the client-facing space — and every
//!    `Δseq` already normalised above — never moves.
//! 3. **Catch-up**: the converted link's output queues buffer its own
//!    stream until the new tail's diverted stream matches it; the PR8
//!    `ReplicationLag` ledger on that link proves the backlog drains
//!    to zero while the chain keeps serving the client.
//!
//! A failure *during* catch-up degrades exactly like §6: the converted
//! link flushes and passes through, one link shorter.

use tcpfo_telemetry::json::JsonObject;
use tcpfo_telemetry::{RedundancyPhase, RedundancyTimeline, SpanTrack, Tracer};
use tcpfo_wire::ipv4::Ipv4Addr;

/// Everything the chain needs to rebuild one live designated flow on a
/// freshly provisioned tail: the per-flow TCB snapshot (in the old
/// tail's — i.e. the client-facing — sequence space), the Δseq the
/// adopting middle link starts from, and the application's position in
/// the response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandoff {
    /// The client endpoint of the flow.
    pub client: tcpfo_tcp::types::SocketAddr,
    /// The replicated service port the client connected to.
    pub server_port: u16,
    /// Next sequence number the tail would send (`snd_nxt`), in the
    /// client-facing space. The adopted TCB starts here; bytes below
    /// the cursor are already matched and released.
    pub cursor: u32,
    /// `Δseq` for the link adopting this flow into its merge bridge.
    /// Zero under the adopt-in-tail-space scheme: the new TCB is
    /// built at the cursor, so no normalisation is needed.
    pub delta: u32,
    /// Next client byte the tail expects (`rcv_nxt`).
    pub rcv_nxt: u32,
    /// Effective MSS negotiated on the original flow.
    pub mss: u16,
    /// Client receive window last seen.
    pub win: u16,
    /// Application-stream offset: response payload bytes at/below the
    /// cursor, so a deterministic server resumes mid-response.
    pub offset: u64,
    /// Response bytes the application still owes past `offset`.
    pub remaining: u64,
}

/// Where a reprovisioning round currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprovisionPhase {
    /// No round in progress.
    Idle,
    /// Standby spawned, flow handoffs being applied.
    Handoff,
    /// Handoffs applied; waiting for the lag ledger to drain.
    CatchUp,
    /// Redundancy restored (lag drained to zero).
    Restored,
}

/// Bookkeeping for one reprovisioning round, mirrored onto the
/// telemetry hubs' [`RedundancyTimeline`]s so time to restored
/// redundancy is reported next to the client-visible stall.
#[derive(Debug)]
pub struct ReprovisionTracker {
    phase: ReprovisionPhase,
    /// The replica address being provisioned.
    standby: Option<Ipv4Addr>,
    started_ns: Option<u64>,
    handoff_ns: Option<u64>,
    restored_ns: Option<u64>,
    /// Flows handed off in this round.
    pub flows: usize,
    /// Unmatched backlog on the converted link when handoff finished.
    pub backlog_at_handoff: u64,
    /// Hub timelines to stamp (one per replica that should see the
    /// round).
    timelines: Vec<RedundancyTimeline>,
    /// Span tracers to record the round into (PR10). Spans are written
    /// retroactively at [`ReprovisionTracker::restored`], when all
    /// three phase stamps exist — the tracer's explicit-timestamp API
    /// makes the handoff/catch-up spans exact even though they are
    /// recorded after the fact.
    tracers: Vec<Tracer>,
}

impl Default for ReprovisionTracker {
    fn default() -> Self {
        ReprovisionTracker::new()
    }
}

impl ReprovisionTracker {
    /// An idle tracker with no timelines attached.
    pub fn new() -> Self {
        ReprovisionTracker {
            phase: ReprovisionPhase::Idle,
            standby: None,
            started_ns: None,
            handoff_ns: None,
            restored_ns: None,
            flows: 0,
            backlog_at_handoff: 0,
            timelines: Vec::new(),
            tracers: Vec::new(),
        }
    }

    /// Attaches a hub timeline to stamp as phases complete.
    pub fn attach_timeline(&mut self, t: RedundancyTimeline) {
        self.timelines.push(t);
    }

    /// Attaches a hub span tracer to record the round into.
    pub fn attach_tracer(&mut self, t: Tracer) {
        self.tracers.push(t);
    }

    /// Current phase.
    pub fn phase(&self) -> ReprovisionPhase {
        self.phase
    }

    /// The standby being (or last) provisioned.
    pub fn standby(&self) -> Option<Ipv4Addr> {
        self.standby
    }

    /// Phase 1 begins: a standby is being spawned for the chain.
    pub fn begin(&mut self, standby: Ipv4Addr, now_ns: u64) {
        self.phase = ReprovisionPhase::Handoff;
        self.standby = Some(standby);
        self.started_ns = Some(now_ns);
        self.handoff_ns = None;
        self.restored_ns = None;
        self.flows = 0;
        self.backlog_at_handoff = 0;
        for t in &self.timelines {
            t.mark(RedundancyPhase::ReprovisionStart, now_ns);
        }
        for t in &self.tracers {
            t.instant_args(
                SpanTrack::Control,
                "core.reprovision",
                "reprovision.begin",
                now_ns,
                [
                    Some(("standby", u32::from_be_bytes(standby.octets()) as u64)),
                    None,
                ],
            );
        }
    }

    /// Phase 2 complete: `flows` handoffs applied; the converted link
    /// reports `backlog` unmatched bytes still to catch up.
    pub fn handoff_done(&mut self, flows: usize, backlog: u64, now_ns: u64) {
        self.phase = ReprovisionPhase::CatchUp;
        self.handoff_ns = Some(now_ns);
        self.flows = flows;
        self.backlog_at_handoff = backlog;
        for t in &self.timelines {
            t.mark(RedundancyPhase::HandoffDone, now_ns);
        }
        for t in &self.tracers {
            t.instant_args(
                SpanTrack::Control,
                "core.reprovision",
                "reprovision.handoff_done",
                now_ns,
                [Some(("flows", flows as u64)), Some(("backlog", backlog))],
            );
        }
    }

    /// Phase 3 complete: the lag ledger drained to zero.
    pub fn restored(&mut self, now_ns: u64) {
        self.phase = ReprovisionPhase::Restored;
        self.restored_ns = Some(now_ns);
        for t in &self.timelines {
            t.mark(RedundancyPhase::CatchupDone, now_ns);
        }
        // All three stamps exist now; write the round into each tracer
        // as a root span with exact handoff/catch-up children (the
        // drain-to-zero proof). Explicit timestamps keep the spans
        // truthful even though they are recorded after the fact.
        let (Some(started), Some(handoff)) = (self.started_ns, self.handoff_ns) else {
            return;
        };
        for t in &self.tracers {
            let Some(root) = t.begin_root(
                SpanTrack::Control,
                "core.reprovision",
                "reprovision",
                started,
            ) else {
                continue;
            };
            if let Some(h) = t.begin_child(
                root.ctx,
                SpanTrack::Control,
                "core.reprovision",
                "reprovision.handoff",
                started,
            ) {
                t.end_args(
                    &h,
                    handoff,
                    [
                        Some(("flows", self.flows as u64)),
                        Some(("backlog", self.backlog_at_handoff)),
                    ],
                );
            }
            if let Some(c) = t.begin_child(
                root.ctx,
                SpanTrack::Control,
                "core.reprovision",
                "reprovision.catchup",
                handoff,
            ) {
                t.end_args(&c, now_ns, [Some(("drained_to", 0)), None]);
            }
            t.end(&root, now_ns);
        }
    }

    /// Reprovision start → handoff done, when both happened.
    pub fn reprovision_ns(&self) -> Option<u64> {
        Some(self.handoff_ns?.saturating_sub(self.started_ns?))
    }

    /// Handoff done → lag drained, when both happened.
    pub fn catchup_ns(&self) -> Option<u64> {
        Some(self.restored_ns?.saturating_sub(self.handoff_ns?))
    }

    /// Reprovision start → lag drained: the time to restored
    /// redundancy.
    pub fn total_ns(&self) -> Option<u64> {
        Some(self.restored_ns?.saturating_sub(self.started_ns?))
    }

    /// Renders the round as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        let phase = match self.phase {
            ReprovisionPhase::Idle => "idle",
            ReprovisionPhase::Handoff => "handoff",
            ReprovisionPhase::CatchUp => "catch_up",
            ReprovisionPhase::Restored => "restored",
        };
        obj.string("phase", phase);
        match self.standby {
            Some(a) => obj.string("standby", &a.to_string()),
            None => obj.raw("standby", "null"),
        };
        obj.u64("flows", self.flows as u64);
        obj.u64("backlog_at_handoff", self.backlog_at_handoff);
        for (name, v) in [
            ("reprovision_ns", self.reprovision_ns()),
            ("catchup_ns", self.catchup_ns()),
            ("total_ns", self.total_ns()),
        ] {
            match v {
                Some(v) => obj.u64(name, v),
                None => obj.raw(name, "null"),
            };
        }
        obj.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_walks_phases_and_stamps_timelines() {
        let mut tr = ReprovisionTracker::new();
        let tl = RedundancyTimeline::new();
        tr.attach_timeline(tl.clone());
        assert_eq!(tr.phase(), ReprovisionPhase::Idle);
        assert_eq!(tr.total_ns(), None);

        let b3 = Ipv4Addr::new(10, 0, 0, 5);
        tr.begin(b3, 1_000);
        assert_eq!(tr.phase(), ReprovisionPhase::Handoff);
        assert_eq!(tr.standby(), Some(b3));
        tr.handoff_done(3, 4096, 1_500);
        assert_eq!(tr.phase(), ReprovisionPhase::CatchUp);
        tr.restored(2_200);
        assert_eq!(tr.phase(), ReprovisionPhase::Restored);

        assert_eq!(tr.reprovision_ns(), Some(500));
        assert_eq!(tr.catchup_ns(), Some(700));
        assert_eq!(tr.total_ns(), Some(1_200));
        let r = tl.restoration().expect("timeline stamped complete");
        assert_eq!(r.reprovision_ns, 500);
        assert_eq!(r.catchup_ns, 700);
        assert_eq!(r.total_ns, 1_200);
        let json = tr.to_json();
        assert!(json.contains("\"phase\": \"restored\""), "{json}");
        assert!(json.contains("\"flows\": 3"), "{json}");
    }

    #[test]
    fn begin_resets_previous_round() {
        let mut tr = ReprovisionTracker::new();
        let b3 = Ipv4Addr::new(10, 0, 0, 5);
        tr.begin(b3, 100);
        tr.handoff_done(2, 10, 200);
        tr.restored(300);
        let b4 = Ipv4Addr::new(10, 0, 0, 6);
        tr.begin(b4, 1_000);
        assert_eq!(tr.phase(), ReprovisionPhase::Handoff);
        assert_eq!(tr.standby(), Some(b4));
        assert_eq!(tr.flows, 0);
        assert_eq!(tr.total_ns(), None);
        let json = tr.to_json();
        assert!(json.contains("\"restored_ns\": null") || json.contains("\"total_ns\": null"));
    }
}
