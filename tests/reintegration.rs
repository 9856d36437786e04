//! Integration: partial reintegration (extension — the paper leaves
//! reintegration out of scope, §1). After the secondary dies and the
//! primary degrades (§6), a freshly rebooted secondary announces
//! itself via heartbeats; from then on *new* connections replicate
//! and can fail over again, while connections from the degraded epoch
//! finish on their Δ-adjusted pass-through tombstones.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainController, PrimaryBridge, PrimaryMode};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn add_download(tb: &mut Testbed, bytes: u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {bytes}\n").into_bytes(),
            bytes,
        )));
    });
}

fn assert_done(tb: &mut Testbed, app: usize) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(app);
        assert!(c.is_done(), "app {app} stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0, "app {app} corrupted");
    });
}

fn primary_mode(tb: &mut Testbed) -> PrimaryMode {
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<PrimaryBridge>()
            .unwrap()
            .mode()
    })
}

#[test]
fn secondary_rejoins_and_new_connections_replicate() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });

    // Connection A starts replicated, then the secondary dies mid-way.
    add_download(&mut tb, 2_000_000); // app 0
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::SecondaryFailed);

    // Connection B is born during the degraded epoch.
    add_download(&mut tb, 600_000); // app 1

    // The secondary reboots; the primary reintegrates on heartbeat.
    tb.run_for(SimDuration::from_millis(200));
    tb.revive_secondary();
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal, "reintegrated");
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        assert_eq!(h.controller_mut::<ChainController>().rejoins, 1);
    });

    // Connection C is born after reintegration: replicated again.
    add_download(&mut tb, 800_000); // app 2
    tb.run_for(SimDuration::from_secs(20));
    for app in 0..3 {
        assert_done(&mut tb, app);
    }
    // The revived secondary actually served connection C.
    tb.sim.with::<Host, _>(s, |h, _| {
        let srv = h.app_mut::<SourceServer>(0);
        assert_eq!(srv.served, 800_000, "revived secondary served C only");
    });
    let pstats = tb.primary_stats();
    assert_eq!(pstats.mismatched_bytes, 0);
}

#[test]
fn post_rejoin_connections_survive_primary_failure() {
    // The full circle: S dies, rejoins, then P dies — the connection
    // opened after the rejoin fails over to the revived secondary.
    let mut tb = Testbed::new(TestbedConfig::default());
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    tb.revive_secondary();
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal);

    add_download(&mut tb, 2_000_000);
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(25));
    assert_done(&mut tb, 0);
    tb.sim.with::<Host, _>(s, |h, _| {
        assert!(
            h.net_mut().local_ips.contains(&addrs::A_P),
            "revived secondary took over after the primary died"
        );
    });
}

#[test]
fn degraded_epoch_connection_unaffected_by_rejoin() {
    // A connection born while degraded keeps working across the
    // rejoin, served by the primary alone (zero-Δ tombstone).
    let mut tb = Testbed::new(TestbedConfig::default());
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    // Born degraded, long enough to straddle the rejoin.
    add_download(&mut tb, 3_000_000);
    tb.run_for(SimDuration::from_millis(150));
    tb.revive_secondary();
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_secs(20));
    assert_done(&mut tb, 0);
    // The revived secondary never participated in that connection —
    // and critically, never reset it.
    tb.sim.with::<Host, _>(s, |h, _| {
        assert_eq!(h.stack().rst_sent, 0, "revived secondary RST a live conn");
        assert_eq!(h.app_mut::<SourceServer>(0).served, 0);
    });
}

#[test]
fn bridge_and_controller_journal_the_rejoin_at_one_instant() {
    // No connection is open, so the degraded bridge filters nothing
    // between the kill and the rejoin: the mode change has to carry
    // the controller's clock, not the time of the last segment.
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::SecondaryFailed);
    tb.revive_secondary();
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal);

    let at = |scope: &str, kind: &str| {
        let events = tb.telemetry.journal.events();
        let mut hits = events.iter().filter(|e| e.scope == scope && e.kind == kind);
        let at_ns = hits.next().map(|e| e.at_ns);
        assert!(hits.next().is_none(), "{scope} {kind} journaled twice");
        at_ns.unwrap_or_else(|| panic!("{scope} {kind} not journaled"))
    };
    let cause = at("core.control.r0", "reintegration");
    let effect = at("core.primary", "reintegrated");
    assert_eq!(
        effect, cause,
        "the bridge stamped its mode change with a stale clock"
    );
}
