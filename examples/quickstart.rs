//! Quickstart: build the paper's testbed, replicate an echo-style
//! service on the primary and the secondary, run a client request
//! through the bridges, kill the primary mid-session, and watch the
//! connection survive.
//!
//! Run with: `cargo run --example quickstart`

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn main() {
    // 1. The paper's Figure-1 topology: client — router — shared
    //    100 Mb/s segment with primary + promiscuous secondary. Port 80
    //    is designated a failover port (§7 method 2) by default.
    let mut tb = Testbed::new(TestbedConfig::default());
    println!(
        "testbed up: client={} primary={} secondary={}",
        addrs::A_C,
        addrs::A_P,
        addrs::A_S
    );

    // 2. Actively replicate the server application: the same
    //    deterministic app runs on both replicas.
    let secondary = tb.secondary.expect("replicated testbed");
    for node in [tb.primary, secondary] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }

    // 3. An unmodified client downloads 1 MB from what it believes is a
    //    single server at a_p.
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 1000000\n".to_vec(),
            1_000_000,
        )));
    });

    // 4. Let part of the transfer happen…
    tb.run_for(SimDuration::from_millis(100));
    let progress = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len()
    });
    println!(
        "t={}: client has {progress} bytes — killing the primary now",
        tb.sim.now()
    );

    // 5. …fail the primary. The secondary's fault detector notices,
    //    performs the §5 takeover (stop egress, drop promiscuous mode,
    //    disable translations, gratuitous ARP for a_p, re-key TCBs)…
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(10));

    // 6. …and the client never noticed.
    let now = tb.sim.now();
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "transfer did not complete");
        assert_eq!(c.mismatches, 0, "stream corrupted");
        println!(
            "t={now}: transfer complete, {} bytes, 0 mismatches — failover was transparent",
            c.received_len(),
        );
    });
    let detected = tb
        .failover_detected_at(secondary)
        .expect("fault detector fired");
    println!("primary failure detected at t={detected}");

    // 7. The telemetry hub recorded the whole thing: the §5 phase
    //    timeline plus per-layer counters (see `tb.metrics_snapshot(i)`
    //    for replica i's table, `tb.export_telemetry_json()` for JSON).
    println!("\n{}", tb.telemetry.timeline.breakdown());
    println!("done: the client's TCP connection survived the server failure.");
}
