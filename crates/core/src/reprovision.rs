//! Joining a replica below another (an extension; the paper's §6 leaves
//! the survivor alone). There is one way in, for a fresh standby behind
//! a chain's tail and for the pair's rebooted S alike: the replica with
//! nobody below hands every live flow to the joiner, in the
//! client-facing sequence space. Three phases, stamped on the
//! [`tcpfo_telemetry::RedundancyTimeline`] by a chain's
//! [`ReprovisionTracker`]:
//!
//! 1. **Snapshot** ([`snapshot`]): per live flow, a [`FlowHandoff`] of
//!    the survivor's TCB essentials plus the application-stream offset.
//!    After §6 the survivor's stack runs `Δseq` (its flow entry's) away
//!    from the client-facing space; the cursor is mapped through it.
//! 2. **Handoff** ([`adopt`], then [`join`]): the joiner rebuilds each
//!    TCB at the cursor ([`tcpfo_tcp::stack::TcpStack::adopt`]) behind a §6 entry
//!    at `Δseq = 0` ([`PrimaryBridge::adopt_flow`] vouches for an
//!    establishment it never witnessed) and resumes the application.
//!    The survivor leaves §6 in place ([`PrimaryBridge::join_below`])
//!    and merges each handed-off flow at the handoff's `Δseq`, so the
//!    client-facing space never moves; other flows finish on their §6
//!    pass-through.
//! 3. **Catch-up**: the survivor's output queues buffer its own stream
//!    until the joiner's diverted stream matches it; the lag ledger on
//!    that link proves the backlog drains to zero.
//!
//! No simulated time passes between snapshot and join. A failure
//! *during* catch-up degrades exactly like §6, one link shorter.

use crate::chain::merge_bridge;
use crate::designation::ConnKey;
use crate::primary::PrimaryBridge;
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::{SocketAddr, SocketId};
use tcpfo_telemetry::json::JsonObject;
use tcpfo_telemetry::{RedundancyPhase, RedundancyTimeline, SpanTrack, Tracer};
use tcpfo_wire::ipv4::Ipv4Addr;

/// Everything a joiner needs to rebuild one live designated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandoff {
    /// The client endpoint of the flow.
    pub client: SocketAddr,
    /// The replicated service port the client connected to.
    pub server_port: u16,
    /// Next sequence number the survivor would send (`snd_nxt`), in the
    /// client-facing space. The adopted TCB starts here; bytes below
    /// the cursor are already released.
    pub cursor: u32,
    /// The survivor's `Δseq` on this flow (its own space minus the
    /// client-facing one), which it merges the flow at from here on.
    pub delta: u32,
    /// Next client byte the survivor expects (`rcv_nxt`).
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

/// The bridge the replica at `node` runs.
fn bridge(h: &mut Host) -> &mut PrimaryBridge {
    merge_bridge(h.filter_mut()).expect("a replica runs a PrimaryBridge")
}

/// Phase 1 at the survivor `node`: one [`FlowHandoff`] per established
/// connection `progress` names — `(socket, offset, remaining)`, the
/// application half (e.g. `SourceServer::conn_progress`) — whose flow
/// its bridge holds.
pub fn snapshot(
    sim: &mut Simulator,
    node: NodeId,
    progress: &[(SocketId, u64, u64)],
) -> Vec<FlowHandoff> {
    sim.with::<Host, _>(node, |h, _| {
        let mut handoffs = Vec::new();
        for &(sid, offset, remaining) in progress {
            let Some(sock) = h.stack().socket(sid).filter(|s| s.is_established()) else {
                continue;
            };
            let t = sock.four_tuple();
            // The application's progress runs ahead of SND.NXT by what
            // sits unsent in the send buffer; the resume point rewinds
            // by that depth, or the merge releases diverging bytes.
            let unsent = u64::from(sock.unsent_bytes());
            let (snd_nxt, rcv_nxt, mss) = (sock.snd_nxt(), sock.rcv_nxt(), sock.effective_mss());
            let win = sock.snd_wnd().min(u32::from(u16::MAX)) as u16;
            let key = ConnKey::new(t.local.port, t.remote);
            let Some(delta) = bridge(h).flow_delta(&key) else {
                continue;
            };
            handoffs.push(FlowHandoff {
                client: t.remote,
                server_port: t.local.port,
                cursor: snd_nxt.wrapping_sub(delta),
                delta,
                rcv_nxt,
                mss,
                win,
                offset: offset.saturating_sub(unsent),
                remaining: remaining + unsent,
            });
        }
        handoffs
    })
}

/// Phase 2 at the joiner `node`: each flow's socket, `Established` at
/// the handoff's positions on the host's own address, behind a §6 entry
/// in its bridge. Returns the socket IDs, parallel to `handoffs`.
pub fn adopt(sim: &mut Simulator, node: NodeId, handoffs: &[FlowHandoff]) -> Vec<SocketId> {
    let now = sim.now().as_nanos();
    sim.with::<Host, _>(node, |h, _| {
        let own = h.ip();
        let mut ids = Vec::with_capacity(handoffs.len());
        for ho in handoffs {
            bridge(h).adopt_flow(ho, now);
            let local = SocketAddr::new(own, ho.server_port);
            let id = h
                .stack_mut()
                .adopt(local, ho.client, ho.cursor, ho.rcv_nxt, ho.mss, ho.win)
                .expect("adopted tuple unique on a fresh host");
            ids.push(id);
        }
        ids
    })
}

/// Phase 2 at the survivor `node`: the joiner at `below` joins below
/// it, and each handed-off flow is merged at its `Δseq` from the cursor.
pub fn join(sim: &mut Simulator, node: NodeId, below: Ipv4Addr, handoffs: &[FlowHandoff]) {
    let now = sim.now().as_nanos();
    sim.with::<Host, _>(node, |h, _| {
        let b = bridge(h);
        b.join_below(below, now);
        for ho in handoffs {
            b.adopt_flow(ho, now);
        }
    });
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
