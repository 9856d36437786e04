//! Integration: §7.2 — the replicated application acting as a TCP
//! *client* of an unreplicated back-end T (the paper's "replicated Web
//! server that connects to an unreplicated back-end database"), with T
//! sitting on the server segment.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

const BACKEND_PORT: u16 = 5432;

fn backend_testbed(seed: u64) -> Testbed {
    let mut tb = Testbed::new(TestbedConfig {
        with_backend: true,
        // Method 2 on the *remote* port: every connection the replicas
        // open towards the back-end service is a failover connection.
        failover_ports: vec![BACKEND_PORT],
        seed,
        ..TestbedConfig::default()
    });
    // The unreplicated back-end service.
    let t = tb.backend.expect("backend host");
    tb.sim.with::<Host, _>(t, |h, _| {
        h.add_app(Box::new(SourceServer::new(BACKEND_PORT)));
    });
    // The replicated application, acting as a TCP client of T.
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_T, BACKEND_PORT),
                b"SEND 2000000\n".to_vec(),
                2_000_000,
            )));
        });
    }
    tb
}

#[test]
fn replicated_client_queries_unreplicated_backend() {
    let mut tb = backend_testbed(31);
    tb.run_for(SimDuration::from_secs(10));
    // Both replicas received the full (single) response stream.
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(0);
            assert!(c.is_done(), "replica stalled at {}", c.received_len());
            assert_eq!(c.mismatches, 0);
            assert_eq!(c.received_len(), 2_000_000);
        });
    }
    // The back-end served the request exactly once: the replicas'
    // duplicate request streams were merged by the primary bridge.
    let t = tb.backend.unwrap();
    tb.sim.with::<Host, _>(t, |h, _| {
        let s = h.app_mut::<SourceServer>(0);
        assert_eq!(s.requests, 1, "backend saw a duplicated request");
        assert_eq!(s.served, 2_000_000);
    });
    // The secondary really diverted its copy of the request stream.
    let sstats = tb.secondary_stats();
    assert!(sstats.diverted_upstream > 0);
}

#[test]
fn backend_connection_survives_primary_failure() {
    let mut tb = backend_testbed(32);
    tb.run_for(SimDuration::from_millis(60));
    let before = tb.sim.with::<Host, _>(tb.secondary.unwrap(), |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len()
    });
    assert!(
        before < 2_000_000,
        "kill must land mid-transfer (got {before})"
    );
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));
    // The surviving replica's back-end session completed intact.
    tb.sim.with::<Host, _>(tb.secondary.unwrap(), |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0);
    });
    // And the back-end never noticed: one request, no resets.
    let t = tb.backend.unwrap();
    tb.sim.with::<Host, _>(t, |h, _| {
        assert_eq!(h.app_mut::<SourceServer>(0).requests, 1);
        assert_eq!(h.stack().rst_sent, 0, "backend reset a connection");
    });
}
