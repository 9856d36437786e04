//! The claims about replica health that only a whole testbed can
//! check: the replication-lag ledger is *exact* while bytes are
//! actually held, under staged degradation the controller's miss-count
//! alert journals `warn` strictly before the binary detector fires, and
//! a rebooted replica rejoining raises no alert against a live head.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

/// The incrementally maintained ledger against an oracle that walks
/// every live connection's primary output queue, at a backlog that is
/// provably non-zero: the secondary is fail-stopped mid-download and
/// the sample is taken inside the 50 ms detection window, while the
/// primary still holds every byte its server produces. (After a
/// finished transfer both sides read 0, which proves little.)
#[test]
fn lag_ledger_equals_queue_walk_at_a_held_backlog() {
    const TOTAL: u64 = 1_000_000;
    let mut tb = Testbed::new(TestbedConfig {
        seed: 0xF8,
        health: Some(true),
        ..TestbedConfig::default()
    });
    for node in [tb.primary, tb.secondary.expect("replicated testbed")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {TOTAL}\n").into_bytes(),
            TOTAL,
        )));
    });
    let deadline = tb.sim.now() + SimDuration::from_secs(60);
    while tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len() <= TOTAL / 4
    }) {
        assert!(tb.sim.now() < deadline, "download stalled before the kill");
        tb.run_for(SimDuration::from_millis(5));
    }
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(20));

    let (ledger, oracle, releases) = tb
        .with_primary_bridge(|bridge| {
            let health = bridge.observers().health.as_deref();
            let lag = &health.expect("health attached").lag;
            let mut oracle = (0u64, 0u64);
            for row in bridge.connection_rows() {
                let bytes = row.pq_bytes as u64;
                oracle.0 += bytes;
                oracle.1 += bytes.div_ceil(u64::from(row.mss.max(1)));
            }
            (
                (lag.unmatched_bytes(), lag.unmatched_segments()),
                oracle,
                lag.releases(),
            )
        })
        .expect("primary bridge present");
    assert!(
        oracle.0 > 0 && oracle.1 > 0,
        "nothing held: the sample missed the detection window"
    );
    assert!(releases > 0, "no release before the kill");
    assert_eq!(ledger, oracle, "(bytes, segments): ledger vs queue walk");
}

/// Three escalating stages of loss, latency and jitter on the
/// primary's attachment, then the fail-stop they foreshadow: the
/// secondary must have journalled a `health.alert` to `warn` before its
/// binary detector declares the primary dead.
#[test]
fn warn_is_journalled_before_the_binary_detector_fires() {
    let mut tb = Testbed::new(TestbedConfig {
        health: Some(true),
        ..TestbedConfig::default()
    });
    // Clean baseline.
    tb.run_for(SimDuration::from_millis(500));
    let p = tb.primary;
    // Stage 1: mild — a little extra latency, a trickle of loss.
    tb.reshape_links(p, |l| {
        l.with_loss((l.loss + 0.05).min(1.0))
            .with_propagation(SimDuration::from_millis(2))
    });
    tb.run_for(SimDuration::from_millis(300));
    // Stage 2: degraded — 8 ms each way, visible loss.
    tb.reshape_links(p, |l| {
        l.with_loss(0.15)
            .with_propagation(SimDuration::from_millis(8))
            .with_jitter(SimDuration::from_millis(4))
    });
    tb.run_for(SimDuration::from_millis(300));
    // Stage 3: failing — heartbeats erratic but still (mostly) inside
    // the binary timeout.
    tb.reshape_links(p, |l| {
        l.with_loss(0.30)
            .with_propagation(SimDuration::from_millis(12))
            .with_jitter(SimDuration::from_millis(8))
    });
    tb.run_for(SimDuration::from_millis(300));
    tb.kill_primary();
    tb.run_for(SimDuration::from_millis(500));

    let s = tb.secondary.unwrap();
    let warn = (tb.telemetry.journal.events().into_iter())
        .find(|e| e.kind == "health.alert" && e.fields.contains(&("to".into(), "warn".into())))
        .expect("no warn journalled")
        .at_ns;
    let detected = tb
        .failover_detected_at(s)
        .expect("detector never fired")
        .as_nanos();
    assert!(
        warn < detected,
        "Warn at {warn} ns did not precede detection at {detected} ns"
    );
}

/// A rebooted secondary has never heard the primary, and the primary
/// beats no peer it holds dead until it re-admits it: the secondary's
/// alert waits out the grace its verdict does, so the rejoin journals no
/// `health.alert` against the primary, which never stopped serving.
#[test]
fn a_revived_secondary_raises_no_alert_against_a_live_primary() {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 0x07E5_7BED,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        for bytes in [2_000_000, 800_000] {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                format!("SEND {bytes}\n").into_bytes(),
                bytes,
            )));
        }
    });
    tb.run_for(SimDuration::from_millis(60));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(200));
    let revived_at = tb.sim.now().as_nanos();
    tb.revive_secondary();
    chain_ops::rejoin_secondary(&mut tb);
    tb.run_for(SimDuration::from_secs(1));

    let primary = ("peer".to_string(), addrs::A_P.to_string());
    let alerts: Vec<_> = (tb.hubs.iter())
        .flat_map(|hub| hub.journal.events())
        .filter(|e| {
            e.kind == "health.alert" && e.at_ns >= revived_at && e.fields.contains(&primary)
        })
        .collect();
    assert!(
        alerts.is_empty(),
        "alerts against the live primary: {alerts:?}"
    );
}
