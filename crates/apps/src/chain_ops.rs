//! Application-level joins: composes the [`tcpfo_core::reprovision`]
//! primitives with the [`SourceServer`]'s deterministic stream to put a
//! replica back below the survivors — a fresh standby behind a chain's
//! tail ([`reprovision_tail`]), or the pair's rebooted S below P
//! ([`rejoin_secondary`]). Both go through one handoff.
//!
//! The core primitives own the protocol's stack half — snapshotting the
//! survivor's flows, synthesising the adopted TCBs, taking the joiner
//! below. What they cannot know is the *application* half: which
//! connections exist, where each response stream stands, and how to
//! resume it. For the deterministic pattern source that half is two
//! calls — `conn_progress` (snapshot) and `adopt_conn` (resume) —
//! because the pattern is a pure function of the offset.

use crate::stream::SourceServer;
use tcpfo_core::reprovision;
use tcpfo_core::testbed::{addrs, Testbed};
use tcpfo_core::ChainController;
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;

/// How long a joiner runs before the handoff: its host boots, its
/// [`SourceServer`] listens (a socket adopted later belongs to that
/// listener, so the server hears of its events), and a chain's
/// reprovision clock accrues the provisioning cost the tracker
/// separates from catch-up.
const JOINER_BOOT: SimDuration = SimDuration::from_millis(50);

/// Gives `joiner` a [`SourceServer`] on the port the survivor's app 0
/// serves, and lets it boot for `JOINER_BOOT`.
fn boot_source(sim: &mut Simulator, survivor: NodeId, joiner: NodeId) {
    let port = sim.with::<Host, _>(survivor, |h, _| h.app_mut::<SourceServer>(0).port());
    sim.with::<Host, _>(joiner, move |h, _| {
        h.add_app(Box::new(SourceServer::new(port)));
    });
    sim.run_for(JOINER_BOOT);
}

/// The one handoff, with no sim time passing: `survivor` (nobody below
/// it) snapshots its live streams, `joiner` adopts them and resumes each
/// at its handed-off offset, and `survivor` takes `joiner` below it.
/// Both serve [`SourceServer`]s as app 0. Returns the flows handed off.
fn hand_off(sim: &mut Simulator, survivor: NodeId, joiner: NodeId) -> usize {
    let progress = sim.with::<Host, _>(survivor, |h, _| {
        h.app_mut::<SourceServer>(0).conn_progress()
    });
    let handoffs = reprovision::snapshot(sim, survivor, &progress);
    let ids = reprovision::adopt(sim, joiner, &handoffs);
    let below = sim.with::<Host, _>(joiner, |h, _| {
        let app = h.app_mut::<SourceServer>(0);
        for (&id, ho) in ids.iter().zip(&handoffs) {
            app.adopt_conn(id, ho.offset, ho.remaining);
        }
        h.ip()
    });
    reprovision::join(sim, survivor, below, &handoffs);
    handoffs.len()
}

/// Runs one full tail-reprovisioning round against a chain whose
/// replicas serve [`SourceServer`] streams (app 0): spawns a standby
/// and lets it boot for `JOINER_BOOT`, then hands it the tail's live
/// streams and takes it below the tail. Returns the standby's replica
/// index.
///
/// On return the round is in its catch-up phase; drive it with
/// [`Testbed::run_until_restored`] (or poll
/// [`Testbed::catchup_lag`] yourself) until the old tail's backlog
/// drains to zero.
///
/// # Panics
///
/// Panics if the tail host's app 0 is not a [`SourceServer`], or if
/// the testbed has a back-end (it holds the standby's address).
pub fn reprovision_tail(tb: &mut Testbed) -> usize {
    let tail = tb.replicas[tb.tail_index()];
    let standby = tb.spawn_standby();
    let node = tb.replicas[standby];
    boot_source(&mut tb.sim, tail, node);
    let flows = hand_off(&mut tb.sim, tail, node);
    tb.handoff_done(standby, flows);
    standby
}

/// Takes the pair's rebooted S back below P: S gets a [`SourceServer`]
/// on P's port and boots for `JOINER_BOOT`, then P re-admits it and
/// hands it every stream P serves — the flows §6 degraded regain their
/// replica. Call it at the instant of [`Testbed::revive_secondary`]: P
/// does not beat a peer it holds dead, and a revived S that hears
/// nothing from P for three detector timeouts takes the VIP.
///
/// # Panics
///
/// Panics on an unreplicated testbed, or if P's app 0 is not a
/// [`SourceServer`].
pub fn rejoin_secondary(tb: &mut Testbed) {
    let s = tb.secondary.expect("replicated testbed");
    boot_source(&mut tb.sim, tb.primary, s);
    let now = tb.sim.now();
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.controller_mut::<ChainController>()
            .append_replica(addrs::A_S, now);
    });
    hand_off(&mut tb.sim, tb.primary, s);
}
