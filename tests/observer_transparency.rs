//! Observers observe: attaching the invariant auditor, the latency
//! observatory, the health observatory, the span tracer, or all four
//! must not move one simulated event. The same 1 MB download and 1 MB
//! upload run once per column; every column must finish both at the
//! same simulated instants, after the same number of simulator events,
//! with the same client byte stream.
//!
//! What attaching *costs* on the host clock is not asserted here: that
//! is `telemetry.cost_pct.*` in `BENCHMARK.json`.

use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{ObserverSwitches, Stage};

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
    let (baseline, _) = column(none);
    assert_eq!(baseline.client_received, BYTES);
    assert_eq!(baseline.server_received, BYTES);
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
        .with_primary_bridge(|b| *b.latency().expect("observatory attached").stages())
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
