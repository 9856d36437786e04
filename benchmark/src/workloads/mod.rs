pub mod bridge_datapath;
pub mod bulk_stream;
pub mod conn_churn;
pub mod failover;

use crate::adapter::PrimaryStats;
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::spans::Spans;
use crate::stats::SplitMix64;
use std::time::Instant;

/// Untraced repetitions a traced run makes first: the baseline its
/// `trace.overhead_pct` is measured against.
const TRACED_BASELINE_REPS: u64 = 3;

/// How many times each run sets itself up; `setup_s` is the fastest.
const SETUP_INSTANCES: u64 = 3;

/// Runs `workload`; `None` if there is none of that name.
pub fn run(workload: &str, args: &RunArgs) -> Option<Outcome> {
    let mut o = match workload {
        "bulk_stream" => bulk_stream::run(args),
        "conn_churn" => conn_churn::run(args),
        "bridge_datapath" => bridge_datapath::run(args),
        "failover" => failover::run(args),
        _ => return None,
    };
    o.metrics.set("host.peak_rss_mb", peak_rss_mb());
    Some(o)
}

/// The driver's arguments for one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed section should take; repetition counts scale
    /// with it (10 s is the profile `BENCHMARK.json` records).
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: std::path::PathBuf,
    /// Shrinks every size so the self-tests can drive a whole workload
    /// in a debug build. Not reachable from the command line: there is
    /// one profile, so result rows are always comparable.
    pub smoke: bool,
}

impl RunArgs {
    /// `full`, or `smoke` in the self-tests.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// `base` repetitions at the 10 s profile, scaled, at least one.
    pub fn reps(&self, base: u64) -> u64 {
        ((base * self.seconds + 5) / 10).max(1)
    }

    /// Timed repetitions: `base` scaled, or the traced run's baseline.
    pub fn timed_reps(&self, base: u64) -> u64 {
        if self.trace {
            TRACED_BASELINE_REPS
        } else {
            self.reps(base)
        }
    }

    /// Sets up `SETUP_INSTANCES` times over (`instance` gets a seed of
    /// its own each time) and returns the fastest, for the reason
    /// [`fastest`] gives: over two ten-seed sets the median of three
    /// moved by a third between quarter-hours.
    pub fn setup_fastest(&self, mut instance: impl FnMut(u64)) -> f64 {
        let walls: Vec<f64> = (0..SETUP_INSTANCES)
            .map(|k| {
                let t = Instant::now();
                instance(self.sub_seed(100 + k));
                t.elapsed().as_secs_f64()
            })
            .collect();
        fastest(&walls)
    }

    /// The seed of repetition `r`: repetitions see different inputs of
    /// the same distribution, so pooled quantiles rest on more samples.
    pub fn sub_seed(&self, r: u64) -> u64 {
        SplitMix64::fork(self.seed, 0xAB00 + r).next_u64()
    }

    pub fn write_trace(&self, workload: &str, spans: &Spans) {
        let path = self.out_dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => fatal(&format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// The fastest of the timed repetitions. Interference on a shared
/// machine only ever adds time (a spinning thread here loses the CPU for
/// 0.2–30 ms several times a second, and memory-bound code swings by a
/// quarter between seconds), so the minimum is the steadiest estimate of
/// what the program itself costs: across ten runs its spread was about
/// half the median's.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A violated correctness condition: no result, non-zero exit.
pub fn fatal(msg: &str) -> ! {
    eprintln!("benchmark: FATAL: {msg}");
    std::process::exit(2);
}

/// Aborts unless a pass was clean: every reply byte as `conn::pattern`
/// has it, and nothing mismatched or dropped in the primary's bridge.
pub fn check_clean(what: &str, mismatched_bytes: u64, stats: Option<&PrimaryStats>) {
    let (bridge_mismatched, drops) = stats.map_or((0, 0), |s| (s.mismatched_bytes, s.drops));
    if mismatched_bytes + bridge_mismatched + drops > 0 {
        fatal(&format!(
            "{what}: {mismatched_bytes} mismatched reply bytes; the bridge reports \
             {bridge_mismatched} mismatched bytes and {drops} drops"
        ));
    }
}

/// The primary bridge's own counters.
pub fn bridge_counters(s: &PrimaryStats, m: &mut Metrics) {
    m.set("core.merged_bytes", s.merged_bytes as f64);
    m.set("core.empty_acks", s.empty_acks as f64);
    m.set("core.acks_translated", s.acks_translated as f64);
    m.set("core.retx_forwarded", s.retransmissions_forwarded as f64);
    m.set("core.evicted", s.evicted_flows as f64);
    m.set("core.reaped", s.flows_reaped as f64);
}

/// What the timing wrappers saw in a traced full-path pass.
pub fn span_metrics(spans: &Spans, traced_wall_s: f64, untraced_wall_s: f64, m: &mut Metrics) {
    let s = |ns: u64| ns as f64 / 1e9;
    let run = spans.aggregate("net.run");
    m.set("net.run_self_s", s(run.self_ns));
    let (f_in, f_out, tick) = (
        spans.aggregate("core.filter_in"),
        spans.aggregate("core.filter_out"),
        spans.aggregate("core.tick"),
    );
    let mut filter = f_in.durations.clone();
    filter.extend(&f_out.durations);
    m.set("core.filter_calls", (f_in.count + f_out.count) as f64);
    m.set("core.filter_busy_s", s(f_in.self_ns + f_out.self_ns));
    if !filter.is_empty() {
        m.set("core.filter_ns_p50", filter.median() as f64);
        m.set("core.filter_ns_p99", filter.quantile(0.99) as f64);
    }
    m.set("core.tick_busy_s", s(tick.self_ns));
    m.set(
        "core.tick_max_us",
        tick.durations.clone().max_or_zero() as f64 / 1e3,
    );
    let (server, client) = (
        spans.aggregate("apps.poll.server"),
        spans.aggregate("apps.poll.client"),
    );
    let mut polls = server.durations.clone();
    polls.extend(&client.durations);
    m.set("apps.server_poll_busy_s", s(server.self_ns));
    m.set("apps.client_poll_busy_s", s(client.self_ns));
    m.set("apps.polls", (server.count + client.count) as f64);
    if !polls.is_empty() {
        m.set("apps.poll_ns_p50", polls.median() as f64);
        m.set("apps.poll_ns_p99", polls.quantile(0.99) as f64);
    }
    m.set(
        "trace.overhead_pct",
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
    );
    // Share of the traced wall time the spans account for: net.run's
    // self time plus everything nested in it is net.run's total.
    m.set(
        "trace.span_coverage_pct",
        s(run.total_ns) / traced_wall_s * 100.0,
    );
}
