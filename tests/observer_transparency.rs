//! Observers observe: attaching the invariant auditor, the latency
//! observatory, the health observatory, the span tracer, or all four
//! must not move one simulated event. The same 1 MB download and 1 MB
//! upload run once per column; every column must finish both at the
//! same simulated instants, after the same number of simulator events,
//! with the same client byte stream. The pair covers the bare merge
//! bridge and the tail; a 3-replica chain repeats the download over
//! every role (head link, middle link, tail).
//!
//! "Nothing attached" means nothing: every switch here is an explicit
//! `Some(_)`, which beats the environment, so the all-off column has a
//! dormant, empty span ring on every hub even in CI's `TCPFO_TRACE=1`
//! leg — the hub a reprovisioned standby boots with included.
//!
//! What attaching *costs* on the host clock is not asserted here: that
//! is `telemetry.cost_pct.*` in `BENCHMARK.json`.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::chain_testbed::{ChainConfig, ChainTestbed};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{Observers, PrimaryBridge, PrimaryMode};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{ObserverSwitches, Stage, Telemetry};

const BYTES: u64 = 1_000_000;

/// Everything simulated that a column must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Simulated {
    download_done: SimTime,
    upload_acked: SimDuration,
    events: u64,
    client_received: u64,
    server_received: u64,
}

/// Switched off, the span ring is neither armed nor written to.
fn assert_dormant(hub: &Telemetry, which: &str) {
    assert!(!hub.trace.is_attached(), "{which}: span ring armed");
    assert!(hub.trace.is_empty(), "{which}: span ring written to");
}

fn run_until(tb: &mut Testbed, what: &str, mut done: impl FnMut(&mut Testbed) -> bool) {
    let deadline = tb.sim.now() + SimDuration::from_secs(30);
    while !done(tb) {
        assert!(tb.sim.now() < deadline, "{what} did not finish");
        tb.run_for(SimDuration::from_millis(5));
    }
}

/// One download then one upload with exactly `on` attached. Every
/// switch is explicit, so the `TCPFO_*` legs of CI run the same six
/// columns.
fn column(on: ObserverSwitches) -> (Simulated, Testbed) {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 0xF5,
        failover_ports: vec![80, 81],
        audit: Some(on.audit),
        latency: Some(on.latency),
        health: Some(on.health),
        span_trace: Some(on.span_trace),
        ..TestbedConfig::default()
    });
    for node in [tb.primary, tb.secondary.expect("replicated testbed")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
            h.add_app(Box::new(SinkServer::new(81)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {BYTES}\n").into_bytes(),
            BYTES,
        )));
    });
    run_until(&mut tb, "download", |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    });
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 81),
            BYTES,
        )));
    });
    run_until(&mut tb, "upload", |tb| {
        tb.sim
            .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(1).is_done())
    });
    let (download_done, client_received, upload_acked) =
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let down = h.app_mut::<RequestReplyClient>(0);
            assert_eq!(down.mismatches, 0, "download differs from the pattern");
            let (done, received) = (down.t_done.expect("done"), down.received_len());
            let up = h.app_mut::<BulkSendClient>(1);
            (done, received, up.acked_time().expect("acked"))
        });
    let server_received = tb
        .sim
        .with::<Host, _>(tb.primary, |h, _| h.app_mut::<SinkServer>(1).received);
    let simulated = Simulated {
        download_done,
        upload_acked,
        events: tb.sim.events_processed(),
        client_received,
        server_received,
    };
    (simulated, tb)
}

#[test]
fn no_observer_moves_a_simulated_event() {
    let none = ObserverSwitches::default();
    let (baseline, tb) = column(none);
    assert_eq!(baseline.client_received, BYTES);
    assert_eq!(baseline.server_received, BYTES);
    assert_dormant(&tb.telemetry, "the pair's hub");
    let same_as_baseline = |on: ObserverSwitches| {
        let (simulated, tb) = column(on);
        assert_eq!(simulated, baseline, "with {on:?}");
        tb
    };

    // The auditor checked something and found nothing.
    let mut tb = same_as_baseline(ObserverSwitches {
        audit: true,
        ..none
    });
    let checks = tb.with_primary_audit(|a| a.ledger().total_checks());
    assert!(checks.expect("auditor attached") > 0, "no checks performed");
    assert_eq!(tb.audit_violations(), 0, "clean run tripped a rule");

    // Every instrumented datapath stage of the primary fired.
    let mut tb = same_as_baseline(ObserverSwitches {
        latency: true,
        ..none
    });
    let stages = tb
        .with_primary_bridge(|b| *b.observers().stages().expect("observatory attached"))
        .expect("primary bridge");
    for stage in Stage::ALL {
        let count = stages.stage(stage).count();
        assert!(count > 0, "stage {} recorded nothing", stage.name());
    }

    // The lag ledger saw the transfer go by and ended drained.
    let mut tb = same_as_baseline(ObserverSwitches {
        health: true,
        ..none
    });
    let (releases, unmatched) = tb
        .with_primary_health(|o| (o.lag.releases(), o.lag.unmatched_bytes()))
        .expect("observatory attached");
    assert!(releases > 0, "lag ledger saw no release");
    assert_eq!(unmatched, 0, "ledger not drained after a finished transfer");

    // The span ring recorded the run.
    let tb = same_as_baseline(ObserverSwitches {
        span_trace: true,
        ..none
    });
    assert!(
        !tb.telemetry.trace.is_empty(),
        "armed tracer recorded nothing"
    );

    let mut tb = same_as_baseline(ObserverSwitches {
        audit: true,
        latency: true,
        health: true,
        span_trace: true,
    });
    assert_eq!(tb.audit_violations(), 0);
}

// ---------------------------------------------------------------------
// The same columns over every role: head link, middle link, tail
// ---------------------------------------------------------------------

const LINKS: usize = 3;

/// A chain with exactly `on` attached to every link (every switch
/// explicit, as in `column`) and a client downloading `bytes`.
fn chain_download(on: ObserverSwitches, bytes: u64) -> ChainTestbed {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: LINKS,
        seed: 0xF5,
        audit: Some(on.audit),
        latency: Some(on.latency),
        health: Some(on.health),
        span_trace: Some(on.span_trace),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {bytes}\n").into_bytes(),
            bytes,
        )));
    });
    tb
}

/// One 1 MB download through the chain with exactly `on` attached to
/// every link: when it finished, after how many events, with how many
/// bytes at the client.
fn chain_column(on: ObserverSwitches) -> ((SimTime, u64, u64), ChainTestbed) {
    let mut tb = chain_download(on, BYTES);
    let deadline = tb.sim.now() + SimDuration::from_secs(30);
    let done = |tb: &mut ChainTestbed| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    };
    while !done(&mut tb) {
        assert!(tb.sim.now() < deadline, "chain download did not finish");
        tb.run_for(SimDuration::from_millis(5));
    }
    let (download_done, client_received) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let down = h.app_mut::<RequestReplyClient>(0);
        assert_eq!(down.mismatches, 0, "download differs from the pattern");
        (down.t_done.expect("done"), down.received_len())
    });
    let simulated = (download_done, tb.sim.events_processed(), client_received);
    (simulated, tb)
}

/// Reads the observers of link `i`, checking the link's role.
fn on_link<R>(tb: &mut ChainTestbed, i: usize, f: impl FnOnce(&Observers) -> R) -> R {
    tb.sim.with::<Host, _>(tb.replicas[i], |h, _| {
        let filter = h.filter_mut().as_any_mut();
        let link = filter.downcast_mut::<PrimaryBridge>();
        let link = link.expect("a bridge on every replica");
        assert_eq!(link.is_head(), i == 0);
        // The tail has nobody below it: §6 from the start.
        let tail = link.mode() == PrimaryMode::SecondaryFailed;
        assert_eq!(tail, i + 1 == LINKS);
        f(link.observers())
    })
}

#[test]
fn no_observer_moves_a_simulated_event_on_any_role() {
    let none = ObserverSwitches::default();
    let (baseline, tb) = chain_column(none);
    assert_eq!(baseline.2, BYTES);
    for (i, hub) in tb.hubs.iter().enumerate() {
        assert_dormant(hub, &format!("hub of link {i}"));
    }
    let same_as_baseline = |on: ObserverSwitches| {
        let (simulated, tb) = chain_column(on);
        assert_eq!(simulated, baseline, "with {on:?}");
        tb
    };

    // The auditor on every link checked something and found nothing.
    let mut tb = same_as_baseline(ObserverSwitches {
        audit: true,
        ..none
    });
    for i in 0..LINKS {
        let checks = on_link(&mut tb, i, |o| {
            let audit = o.audit.as_deref().expect("auditor attached");
            audit.ledger().total_checks()
        });
        assert!(checks > 0, "link {i}: no checks performed");
    }
    assert_eq!(tb.audit_violations(), 0, "clean run tripped a rule");

    // Every stage of both merge engines fired; the tail translated.
    let mut tb = same_as_baseline(ObserverSwitches {
        latency: true,
        ..none
    });
    for i in 0..LINKS {
        let stages = on_link(&mut tb, i, |o| *o.stages().expect("observatory attached"));
        let merges = i + 1 < LINKS;
        for stage in Stage::ALL {
            let fired = stages.stage(stage).count() > 0;
            let expected = merges || matches!(stage, Stage::IngressParse | Stage::ChecksumFixup);
            assert!(fired || !expected, "link {i}: {} silent", stage.name());
        }
    }

    // Every link's lag ledger ended drained; the merging ones saw the
    // transfer go by (a tail holds nothing to match).
    let mut tb = same_as_baseline(ObserverSwitches {
        health: true,
        ..none
    });
    for i in 0..LINKS {
        let (releases, unmatched) = on_link(&mut tb, i, |o| {
            let lag = &o.health.as_deref().expect("observatory attached").lag;
            (lag.releases(), lag.unmatched_bytes())
        });
        assert_eq!(unmatched, 0, "link {i}: ledger not drained");
        assert_eq!(releases > 0, i + 1 < LINKS, "link {i}: {releases} releases");
    }

    // Every hub's span ring recorded its replica's control plane.
    let tb = same_as_baseline(ObserverSwitches {
        span_trace: true,
        ..none
    });
    for (i, hub) in tb.hubs.iter().enumerate() {
        assert!(!hub.trace.is_empty(), "hub of link {i} recorded nothing");
    }

    let mut tb = same_as_baseline(ObserverSwitches {
        audit: true,
        latency: true,
        health: true,
        span_trace: true,
    });
    assert_eq!(tb.audit_violations(), 0);
    for i in 0..LINKS {
        let unmatched = on_link(&mut tb, i, |o| {
            let health = o.health.as_deref().expect("observatory attached");
            health.lag.unmatched_bytes()
        });
        assert_eq!(unmatched, 0, "link {i}: ledger not drained");
    }
}

/// The switches are resolved once, when the testbed is built: the hub
/// `reprovision_tail` boots long after follows them too, not a second
/// reading of the environment.
#[test]
fn a_reprovisioned_standby_boots_as_detached_as_the_founders() {
    let mut tb = chain_download(ObserverSwitches::default(), 16 * BYTES);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    let standby = chain_ops::reprovision_tail(&mut tb);
    assert!(tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30)));
    assert_eq!(tb.hubs.len(), LINKS + 1, "the standby brought its own hub");
    for (i, hub) in tb.hubs.iter().enumerate() {
        assert_dormant(hub, &format!("hub of replica {i}"));
    }
    let detached = tb.sim.with::<Host, _>(tb.replicas[standby], |h, _| {
        let tail = h.filter_mut().as_any_mut().downcast_mut::<PrimaryBridge>();
        let tail = tail.filter(|b| b.mode() == PrimaryMode::SecondaryFailed);
        let o = tail.expect("the standby is the new tail").observers();
        o.audit.is_none() && o.latency.is_none() && o.health.is_none() && o.trace.is_none()
    });
    assert!(detached, "the standby's bridge has an observer attached");
}
