//! Joining a replica below another (an extension; the paper's §6 leaves
//! the survivor alone). There is one way in, for a fresh standby behind
//! a chain's tail and for the pair's rebooted S alike: the replica with
//! nobody below hands every live flow to the joiner, in the
//! client-facing sequence space. Three phases, each a moment a chain's
//! [`ReprovisionTracker`] writes to every hub ([`Telemetry::event`]),
//! which is what each hub's [`tcpfo_telemetry::RedundancyTimeline`]
//! reads:
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
use tcpfo_telemetry::{RedundancyPhase, Telemetry};
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

/// Bookkeeping for one reprovisioning round. Its three moments —
/// `reprovision.begin`, `reprovision.handoff_done`,
/// `reprovision.restored` — go to every attached hub, whose redundancy
/// view times the round next to the client-visible stall.
#[derive(Debug)]
pub struct ReprovisionTracker {
    phase: ReprovisionPhase,
    /// The replica address being provisioned.
    standby: Option<Ipv4Addr>,
    /// Flows handed off in this round.
    pub flows: usize,
    /// Unmatched backlog on the converted link when handoff finished.
    pub backlog_at_handoff: u64,
    /// The hubs of the replicas that see the round.
    hubs: Vec<Telemetry>,
}

impl Default for ReprovisionTracker {
    fn default() -> Self {
        ReprovisionTracker::new()
    }
}

impl ReprovisionTracker {
    /// An idle tracker with no hub attached.
    pub fn new() -> Self {
        ReprovisionTracker {
            phase: ReprovisionPhase::Idle,
            standby: None,
            flows: 0,
            backlog_at_handoff: 0,
            hubs: Vec::new(),
        }
    }

    /// Attaches a hub that sees every later moment of a round.
    pub fn attach(&mut self, hub: &Telemetry) {
        self.hubs.push(hub.clone());
    }

    /// Current phase.
    pub fn phase(&self) -> ReprovisionPhase {
        self.phase
    }

    /// The standby being (or last) provisioned.
    pub fn standby(&self) -> Option<Ipv4Addr> {
        self.standby
    }

    fn event(
        &self,
        kind: &'static str,
        now_ns: u64,
        fields: &[(&str, String)],
        args: [Option<(&'static str, u64)>; 2],
    ) {
        for hub in &self.hubs {
            hub.event(now_ns, "core.reprovision", kind, fields, args);
        }
    }

    /// Phase 1 begins: a standby is being spawned for the chain.
    pub fn begin(&mut self, standby: Ipv4Addr, now_ns: u64) {
        self.phase = ReprovisionPhase::Handoff;
        self.standby = Some(standby);
        self.flows = 0;
        self.backlog_at_handoff = 0;
        let fields = [("standby", standby.to_string())];
        let args = [Some(("standby", u64::from(u32::from(standby)))), None];
        self.event("reprovision.begin", now_ns, &fields, args);
    }

    /// Phase 2 complete: `flows` handoffs applied; the converted link
    /// reports `backlog` unmatched bytes still to catch up.
    pub fn handoff_done(&mut self, flows: usize, backlog: u64, now_ns: u64) {
        self.phase = ReprovisionPhase::CatchUp;
        self.flows = flows;
        self.backlog_at_handoff = backlog;
        let fields = [
            ("flows", flows.to_string()),
            ("backlog", backlog.to_string()),
        ];
        let args = [Some(("flows", flows as u64)), Some(("backlog", backlog))];
        self.event("reprovision.handoff_done", now_ns, &fields, args);
    }

    /// Phase 3 complete: the lag ledger drained to zero.
    pub fn restored(&mut self, now_ns: u64) {
        self.phase = ReprovisionPhase::Restored;
        self.event("reprovision.restored", now_ns, &[], [None, None]);
    }

    /// `from` → `to` in the round as the hubs recorded it (every hub
    /// sees all of it), when both happened.
    fn between(&self, from: RedundancyPhase, to: RedundancyPhase) -> Option<u64> {
        let round = &self.hubs.first()?.redundancy;
        Some(round.at(to)?.saturating_sub(round.at(from)?))
    }

    /// Reprovision start → handoff done, when both happened.
    pub fn reprovision_ns(&self) -> Option<u64> {
        self.between(
            RedundancyPhase::ReprovisionStart,
            RedundancyPhase::HandoffDone,
        )
    }

    /// Handoff done → lag drained, when both happened.
    pub fn catchup_ns(&self) -> Option<u64> {
        self.between(RedundancyPhase::HandoffDone, RedundancyPhase::CatchupDone)
    }

    /// Reprovision start → lag drained: the time to restored
    /// redundancy.
    pub fn total_ns(&self) -> Option<u64> {
        self.between(
            RedundancyPhase::ReprovisionStart,
            RedundancyPhase::CatchupDone,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_walks_phases_and_stamps_timelines() {
        let mut tr = ReprovisionTracker::new();
        let hub = Telemetry::new();
        tr.attach(&hub);
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
        let r = hub.redundancy.restoration().expect("view stamped complete");
        assert_eq!(
            (r.reprovision_ns, r.catchup_ns, r.total_ns),
            (500, 700, 1_200)
        );
        let kinds: Vec<String> = hub.journal.events().into_iter().map(|e| e.kind).collect();
        let want = [
            "reprovision.begin",
            "reprovision.handoff_done",
            "reprovision.restored",
        ];
        assert_eq!(kinds, want);
    }

    #[test]
    fn begin_resets_previous_round() {
        let mut tr = ReprovisionTracker::new();
        let hub = Telemetry::new();
        tr.attach(&hub);
        let b3 = Ipv4Addr::new(10, 0, 0, 5);
        tr.begin(b3, 100);
        tr.handoff_done(2, 10, 200);
        tr.restored(300);
        let b4 = Ipv4Addr::new(10, 0, 0, 6);
        tr.begin(b4, 1_000);
        assert_eq!(tr.phase(), ReprovisionPhase::Handoff);
        assert_eq!(tr.standby(), Some(b4));
        assert_eq!(tr.flows, 0);
        assert_eq!((tr.reprovision_ns(), tr.total_ns()), (None, None));
        assert_eq!(
            hub.redundancy.restoration(),
            None,
            "the hub's view is the new round"
        );
    }
}
