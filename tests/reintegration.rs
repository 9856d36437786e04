//! Integration: a rebooted secondary rejoins (extension — the paper
//! leaves reintegration out of scope, §1). After the secondary dies and
//! the primary degrades (§6), a freshly booted secondary is handed every
//! live stream the primary serves, in the client-facing sequence space,
//! and joins below it: connections from before the rejoin regain their
//! replica, new ones replicate, and all of them can fail over again.

use tcp_failover::apps::chain_ops;
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

/// A pair whose replicas both serve the pattern source on port 80.
fn serving_pair() -> Testbed {
    let mut tb = Testbed::new(TestbedConfig::default());
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb
}

/// Boots a fresh S in place of the dead one and rejoins it below P.
fn revive_and_rejoin(tb: &mut Testbed) {
    tb.revive_secondary();
    chain_ops::rejoin_secondary(tb);
}

fn secondary_served(tb: &mut Testbed) -> u64 {
    let s = tb.secondary.unwrap();
    tb.sim
        .with::<Host, _>(s, |h, _| h.app_mut::<SourceServer>(0).served)
}

#[test]
fn secondary_rejoins_and_new_connections_replicate() {
    let mut tb = serving_pair();

    // Connection A starts replicated, then the secondary dies mid-way.
    add_download(&mut tb, 2_000_000); // app 0
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::SecondaryFailed);

    // Connection B is born during the degraded epoch.
    add_download(&mut tb, 600_000); // app 1

    // The secondary reboots and rejoins.
    tb.run_for(SimDuration::from_millis(200));
    revive_and_rejoin(&mut tb);
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal, "rejoined");
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        assert_eq!(h.controller_mut::<ChainController>().rejoins, 1);
    });

    // Connection C is born after the rejoin: replicated again.
    add_download(&mut tb, 800_000); // app 2
    tb.run_for(SimDuration::from_secs(20));
    for app in 0..3 {
        assert_done(&mut tb, app);
    }
    // The revived secondary served all of C, and whatever it was handed
    // of A and B.
    assert!(secondary_served(&mut tb) >= 800_000, "revived S served C");
    let pstats = tb.primary_stats();
    assert_eq!(pstats.mismatched_bytes, 0);
}

#[test]
fn post_rejoin_connections_survive_primary_failure() {
    // The full circle: S dies, rejoins, then P dies — the connection
    // opened after the rejoin fails over to the revived secondary.
    let mut tb = serving_pair();
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    revive_and_rejoin(&mut tb);
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal);

    add_download(&mut tb, 2_000_000);
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(25));
    assert_done(&mut tb, 0);
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        assert!(
            h.net_mut().local_ips.contains(&addrs::A_P),
            "revived secondary took over after the primary died"
        );
    });
}

#[test]
fn degraded_epoch_connection_is_handed_to_the_revived_secondary() {
    // A connection born while degraded is handed to the revived
    // secondary at the rejoin, which serves its remainder — and never
    // resets it.
    let mut tb = serving_pair();
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    // Born degraded, long enough to straddle the rejoin.
    add_download(&mut tb, 3_000_000);
    tb.run_for(SimDuration::from_millis(150));
    revive_and_rejoin(&mut tb);
    tb.run_for(SimDuration::from_secs(20));
    assert_done(&mut tb, 0);
    assert!(secondary_served(&mut tb) > 0, "the handoff reached S");
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        assert_eq!(h.stack().rst_sent, 0, "revived secondary RST a live conn");
    });
}

#[test]
fn flows_degraded_before_a_rejoin_survive_the_primary_failing() {
    // A is replicated when S dies and B is born degraded; both are
    // handed to the revived S. When P dies afterwards, S carries both
    // to the end, byte-exact.
    const TOTAL: u64 = 8_000_000;
    let mut tb = serving_pair();
    add_download(&mut tb, TOTAL); // app 0
    tb.run_for(SimDuration::from_millis(100));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    add_download(&mut tb, TOTAL); // app 1
    tb.run_for(SimDuration::from_millis(100));
    revive_and_rejoin(&mut tb);
    assert_eq!(tb.primary_stats().adopted_flows, 2, "both flows handed off");
    tb.run_for(SimDuration::from_millis(300));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(60));
    for app in 0..2 {
        assert_done(&mut tb, app);
    }
    assert!(secondary_served(&mut tb) > 0);
}

#[test]
fn bridge_and_controller_journal_the_rejoin_at_one_instant() {
    // No connection is open, so the degraded bridge filters nothing
    // between the kill and the rejoin: the mode change has to carry
    // the controller's clock, not the time of the last segment.
    let mut tb = serving_pair();
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::SecondaryFailed);
    revive_and_rejoin(&mut tb);
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal);

    let at = |scope: &str, kind: &str| {
        let events = tb.telemetry.journal.events();
        let mut hits = events.iter().filter(|e| e.scope == scope && e.kind == kind);
        let at_ns = hits.next().map(|e| e.at_ns);
        assert!(hits.next().is_none(), "{scope} {kind} journaled twice");
        at_ns.unwrap_or_else(|| panic!("{scope} {kind} not journaled"))
    };
    let cause = at("core.control.r0", "rejoin");
    let effect = at("core.primary", "joined");
    assert_eq!(
        effect, cause,
        "the bridge stamped its mode change with a stale clock"
    );
}
