//! `bulk_stream`: one connection downloads from `SourceServer`(80), then
//! one uploads to `SinkServer`(81). Closed loop: TCP's own window paces
//! the single flow; segments are MSS-sized.

use super::{bridge_counters, check_clean, fastest, fatal, span_metrics, RunArgs};
use crate::adapter::{
    pair_config, Mode, Pair, PathCounters, PrimaryStats, SimDuration, SocketAddr, A_P, SINK_PORT,
    SOURCE_PORT,
};
use crate::client::{LoadClient, Planned};
use crate::layers;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::median_f64;
use std::time::Instant;

#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    pub counters: PathCounters,
    /// Request sent → last reply byte, simulated ns.
    pub download_ns: u64,
    /// First byte sent → last byte acknowledged, simulated ns.
    pub upload_ns: u64,
    pub failed: usize,
    pub mismatched_bytes: u64,
    pub stats: Option<PrimaryStats>,
    pub held_bytes_peak: u64,
}

/// Downloads then uploads `bytes` over a fresh testbed.
pub fn run_pass(mode: Mode, seed: u64, bytes: u64, spans: Option<&Spans>) -> Pass {
    let client = LoadClient::new(SocketAddr::new(A_P, SOURCE_PORT));
    let mut pair = Pair::new(pair_config(mode, seed, false), client, spans);
    let start_ns = pair.now_ns() + 1_000_000;
    pair.client(|c| {
        c.schedule([Planned {
            at_ns: start_ns,
            reply_bytes: bytes,
        }])
    });

    let t0 = Instant::now();
    let step = SimDuration::from_millis(100);
    let deadline = SimDuration::from_secs(600);
    let mut failed = 0;
    if !pair.run_until(step, deadline, |c| c.completed + c.failed == 1) {
        failed += 1;
    }
    let up_at = pair.now_ns() + 1_000_000;
    pair.client(|c| c.upload(SocketAddr::new(A_P, SINK_PORT), bytes, up_at));
    if !pair.run_until(step, deadline, |c| c.upload_time_ns().is_some()) {
        failed += 1;
    }
    // Let the sink drain what was acknowledged before counting it.
    pair.run_for(SimDuration::from_millis(50));
    let wall_s = t0.elapsed().as_secs_f64();

    let (download_ns, upload_ns, client_failed, mut mismatched) = pair.client(|c| {
        (
            c.reply_times.clone().max_or_zero(),
            c.upload_time_ns().unwrap_or(0),
            c.failed,
            c.mismatched_bytes,
        )
    });
    failed += client_failed;
    let sunk = pair.sink_received();
    if sunk != bytes {
        mismatched += sunk.abs_diff(bytes);
    }
    Pass {
        wall_s,
        counters: pair.counters(),
        download_ns,
        upload_ns,
        failed: failed.min(2),
        mismatched_bytes: mismatched,
        stats: pair.primary_stats(),
        held_bytes_peak: pair.held_bytes_peak(),
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

const BYTES: u64 = 64 << 20;
const WARM_BYTES: u64 = 8 << 20;
const BASE_REPS: u64 = 7;

fn kbps(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / 1000.0 / (ns as f64 / 1e9)
}

fn check(pass: &Pass, what: &str) {
    check_clean(
        &format!("bulk_stream {what}"),
        pass.mismatched_bytes,
        pass.stats.as_ref(),
    );
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let bytes = args.size(BYTES as usize, 1 << 20) as u64;
    let warm_bytes = args.size(WARM_BYTES as usize, 1 << 18) as u64;
    // Set-up, several times over: build the testbed and warm it with a
    // short download and upload.
    let setup_s = args
        .setup_fastest(|seed| check(&run_pass(Mode::Failover, seed, warm_bytes, None), "warm-up"));
    o.metrics.set("setup_s", setup_s);

    let reps = args.timed_reps(BASE_REPS);
    let (mut walls, mut downs, mut ups) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..reps {
        let p = run_pass(Mode::Failover, args.sub_seed(r), bytes, None);
        check(&p, "timed pass");
        o.attempted += 2;
        o.failed += p.failed as u64;
        walls.push(p.wall_s);
        downs.push(p.download_ns as f64);
        ups.push(p.upload_ns as f64);
    }
    let (down_ns, up_ns) = (median_f64(&downs), median_f64(&ups));
    o.metrics.set("host.run_s", fastest(&walls));
    // Two operations a repetition, so no percentile: the "median" is
    // the mean transfer time, the "tail" the slower direction.
    o.metrics
        .set("client.lat_p50_us", (down_ns + up_ns) / 2.0 / 1e3);
    o.metrics
        .set("client.lat_tail_us", down_ns.max(up_ns) / 1e3);
    o.notes.push(format!(
        "{reps} repetitions of {} MB down + {} MB up: download {:.1} KB/s, upload {:.1} KB/s (simulated)",
        bytes >> 20,
        bytes >> 20,
        kbps(bytes, down_ns as u64),
        kbps(bytes, up_ns as u64)
    ));

    if args.trace {
        let m = &mut o.metrics;
        let spans = Spans::new();
        let traced = run_pass(Mode::Failover, args.sub_seed(0), bytes, Some(&spans));
        check(&traced, "traced pass");
        span_metrics(&spans, traced.wall_s, fastest(&walls), m);
        args.write_trace("bulk_stream", &spans);
        // TimedFilter and TimedApp must be transparent.
        if traced.download_ns as f64 != downs[0] || traced.upload_ns as f64 != ups[0] {
            fatal("bulk_stream: the traced pass changed simulated results");
        }
        m.set("sim.download_KBps", kbps(bytes, traced.download_ns));
        m.set("sim.upload_KBps", kbps(bytes, traced.upload_ns));
        m.set("net.events", traced.counters.events as f64);
        m.set(
            "net.events_per_s",
            traced.counters.events as f64 / fastest(&walls),
        );
        m.set("tcp.retransmits", traced.counters.retransmits as f64);
        m.set("tcp.rto_expiries", traced.counters.rto_expiries as f64);
        m.set("core.held_bytes_peak", traced.held_bytes_peak as f64);
        if let Some(s) = &traced.stats {
            bridge_counters(s, m);
        }
        let std_pass = run_pass(Mode::Standard, args.sub_seed(0), bytes, None);
        check(&std_pass, "standard-TCP pass");
        m.set("tcp.standard_run_s", std_pass.wall_s);
        m.set(
            "tcp.standard_download_KBps",
            kbps(bytes, std_pass.download_ns),
        );
        m.set("tcp.standard_upload_KBps", kbps(bytes, std_pass.upload_ns));
        m.set(
            "core.ratio.download",
            std_pass.download_ns as f64 / traced.download_ns as f64,
        );
        m.set(
            "core.ratio.upload",
            std_pass.upload_ns as f64 / traced.upload_ns as f64,
        );
        layers::net_bare(args, m);
        layers::tcp_stack(args, m);
    }
    o
}
