//! E8 (extension) — the shared-segment requirement: promiscuous
//! snooping works on a hub and silently fails on a learning switch
//! (where a failover connection cannot even be established), while
//! standard TCP is fine on both.

use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::{header, paper_testbed, row, run_until, Mode};
use tcpfo_core::testbed::{addrs, SegmentKind, Testbed};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

fn attempt(mode: Mode, segment: SegmentKind) -> String {
    let mut cfg = paper_testbed(mode, 0xE8);
    cfg.segment = segment;
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 1000000\n".to_vec(),
            1_000_000,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(15), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    });
    if !ok {
        return "stalled (no snooping)".into();
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        let d = c.transfer_time().expect("timed");
        format!("{:.0}KB/s", 1_000_000.0 / 1000.0 / d.as_secs_f64())
    })
}

fn main() {
    println!("\n## E8: shared hub vs learning switch (snooping requirement)\n");
    header(&["configuration", "hub (paper's setup)", "switch"]);
    for mode in Mode::BOTH {
        row(&[
            mode.label().to_string(),
            attempt(mode, SegmentKind::Hub),
            attempt(mode, SegmentKind::Switch),
        ]);
    }
    println!();
}
