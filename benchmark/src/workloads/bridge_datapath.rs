//! `bridge_datapath`: no simulator, no stacks: a `PrimaryBridge` fed
//! through `process_batch` with generated segment scripts. The
//! forwarding-device view: per-packet cost at the smallest packet size
//! with a working set far beyond the cache.

use super::{bridge_counters, fastest, fatal, RunArgs};
use crate::adapter::{
    new_primary_bridge, FilterOutput, PrimaryBridge, PrimaryStats, SegmentFilter, ShardExecutor,
};
use crate::layers;
use crate::report::Outcome;
use crate::segments::{digest_segment, Mix, Script, Step, View};
use crate::stats::{poisson_schedule, Digest, Samples, SplitMix64};
use std::time::Instant;

const BATCH: usize = 64;
/// `on_tick` (timer GC, telemetry publish) every this many batches.
const TICK_EVERY: u64 = 1024;
/// Simulated ns credited per segment (1 ms per full batch): keeps the
/// bridge's GC clock moving (TimeWait reaping) without coupling it to
/// the host clock or to how the open loop happens to cut its batches.
const SIM_NS_PER_SEGMENT: u64 = 1_000_000 / BATCH as u64;

/// Section B's tail is the median of per-slice p99s over slices this
/// long (by intended instant). This machine stalls a spinning thread for
/// 0.2–30 ms several times a second (`bench.host_stalls_per_s`); a
/// stall poisons the slices it lands in, and the median over a few
/// hundred short slices reads the bridge's own tail, not the host's.
const SLICE_NS: u64 = 20_000_000;
/// A trailing partial slice counts only with this many samples.
const MIN_SLICE_SAMPLES: usize = 1000;

/// Anything with the bridge's batch surface (`PrimaryBridge`, and
/// `ChainBridge` for the middle-link layer timing).
pub trait BatchBridge {
    fn batch(&mut self, batch: Vec<Step>, now: u64, exec: &ShardExecutor) -> Vec<FilterOutput>;
    fn tick(&mut self, now: u64);
}

pub struct Datapath<B: BatchBridge = PrimaryBridge> {
    pub bridge: B,
    exec: ShardExecutor,
    pub script: Script,
    sim_now: u64,
    batches: u64,
    /// Segments the bridge emitted (to the wire and up to TCP).
    pub outputs: u64,
    /// Longest `on_tick`, host ns.
    pub tick_max_ns: u64,
    pub tick_busy_ns: u64,
    digest: Option<Digest>,
}

pub fn chunk(steps: Vec<Step>) -> Vec<Vec<Step>> {
    let mut out = Vec::with_capacity(steps.len() / BATCH + 1);
    let mut it = steps.into_iter().peekable();
    while it.peek().is_some() {
        out.push(it.by_ref().take(BATCH).collect());
    }
    out
}

impl Datapath<PrimaryBridge> {
    /// A bridge with `residents` established flows.
    pub fn new(seed: u64, residents: usize, shards: usize, capacity: usize) -> Self {
        Datapath::with_bridge(new_primary_bridge(shards, capacity), seed, residents)
    }

    pub fn stats(&self) -> PrimaryStats {
        self.bridge.stats.clone()
    }
}

impl<B: BatchBridge> Datapath<B> {
    pub fn with_bridge(bridge: B, seed: u64, residents: usize) -> Self {
        let mut dp = Datapath {
            bridge,
            exec: ShardExecutor::new(1),
            script: Script::new(seed, residents, View::Primary),
            sim_now: 0,
            batches: 0,
            outputs: 0,
            tick_max_ns: 0,
            tick_busy_ns: 0,
            digest: None,
        };
        let handshakes = dp.script.establish();
        dp.feed(chunk(handshakes));
        dp
    }

    /// Digest every output from now on (verification passes only).
    pub fn digest_outputs(&mut self) {
        self.digest = Some(Digest::default());
    }

    pub fn output_digest(&self) -> u64 {
        self.digest.map_or(0, Digest::value)
    }

    pub fn one_batch(&mut self, batch: Vec<Step>) {
        let segments = batch.len() as u64;
        let outs = self.bridge.batch(batch, self.sim_now, &self.exec);
        for o in &outs {
            self.outputs += (o.to_wire.len() + o.to_tcp.len()) as u64;
        }
        if let Some(d) = self.digest.as_mut() {
            for o in &outs {
                o.to_wire.iter().for_each(|s| digest_segment(d, s));
                d.u64(u64::MAX);
                o.to_tcp.iter().for_each(|s| digest_segment(d, s));
            }
        }
        self.sim_now += segments * SIM_NS_PER_SEGMENT;
        self.batches += 1;
        if self.batches.is_multiple_of(TICK_EVERY) {
            let t = Instant::now();
            self.bridge.tick(self.sim_now);
            let ns = t.elapsed().as_nanos() as u64;
            self.tick_busy_ns += ns;
            self.tick_max_ns = self.tick_max_ns.max(ns);
        }
    }

    /// Closed loop: the next batch goes in when the last one returns.
    pub fn feed(&mut self, batches: Vec<Vec<Step>>) {
        for b in batches {
            self.one_batch(b);
        }
    }

    /// Section A: `n` pre-materialised segments, timed as a whole and
    /// batch by batch.
    pub fn closed_loop(&mut self, n: usize, mix: Mix) -> ClosedRep {
        let steps = self.script.next(n, mix);
        let segments = steps.len();
        let batches = chunk(steps);
        let mut batch_ns = Samples::with_capacity(batches.len());
        let t = Instant::now();
        let mut last = 0u64;
        for b in batches {
            let full = b.len() == BATCH;
            self.one_batch(b);
            let now = t.elapsed().as_nanos() as u64;
            if full {
                batch_ns.push(now - last);
            }
            last = now;
        }
        ClosedRep {
            wall_s: t.elapsed().as_secs_f64(),
            segments,
            batch_ns,
        }
    }

    /// Section B, one window: `steps` injected on `sched` (host ns from
    /// the window's start), the generator spinning to its schedule. Each
    /// segment is timed from its intended instant to the return of the
    /// batch that carried it.
    pub fn open_loop_window(&mut self, steps: Vec<Step>, sched: &[u64]) -> Window {
        assert_eq!(steps.len(), sched.len());
        let n = sched.len();
        // Segments still pending this long after the last intended
        // instant count as end-of-window backlog. A second: a bridge
        // that carries the rate drains what a host stall of tens of
        // milliseconds at the end of a window piles up well within it,
        // so only a bridge that cannot carry the rate is left with any.
        let deadline = sched.last().copied().unwrap_or(0) + 1_000_000_000;
        let mut w = Window {
            latency_ns: Samples::with_capacity(n),
            slice_p99_ns: Vec::new(),
            late_ns: Samples::with_capacity(n),
            backlog_peak: 0,
            backlog_end: 0,
        };
        let mut slice = Samples::default();
        let mut slice_end = SLICE_NS;
        let mut it = steps.into_iter();
        let mut i = 0;
        let t0 = Instant::now();
        while i < n {
            let now = t0.elapsed().as_nanos() as u64;
            if now > deadline {
                break;
            }
            let due = i + sched[i..].partition_point(|&t| t <= now);
            if due == i {
                std::hint::spin_loop();
                continue;
            }
            w.backlog_peak = w.backlog_peak.max(due - i);
            let j = due.min(i + BATCH);
            let batch: Vec<Step> = it.by_ref().take(j - i).collect();
            for &t in &sched[i..j] {
                w.late_ns.push(now - t);
            }
            self.one_batch(batch);
            let done = t0.elapsed().as_nanos() as u64;
            for &t in &sched[i..j] {
                if t >= slice_end {
                    w.slice_p99_ns.push(slice.quantile(0.99));
                    slice = Samples::default();
                    slice_end = (t / SLICE_NS + 1) * SLICE_NS;
                }
                slice.push(done - t);
                w.latency_ns.push(done - t);
            }
            i = j;
        }
        if slice.len() >= MIN_SLICE_SAMPLES {
            w.slice_p99_ns.push(slice.quantile(0.99));
        }
        w.backlog_end = n - i;
        w
    }
}

impl BatchBridge for PrimaryBridge {
    fn batch(&mut self, batch: Vec<Step>, now: u64, exec: &ShardExecutor) -> Vec<FilterOutput> {
        self.process_batch(batch, now, exec)
    }

    fn tick(&mut self, now: u64) {
        self.on_tick(now);
    }
}

#[derive(Debug, Clone)]
pub struct ClosedRep {
    pub wall_s: f64,
    pub segments: usize,
    /// Turnaround of every full batch.
    pub batch_ns: Samples,
}

#[derive(Debug)]
pub struct Window {
    pub latency_ns: Samples,
    /// p99 of each [`SLICE_NS`] slice of intended time.
    pub slice_p99_ns: Vec<u64>,
    /// How late the generator injected each segment.
    pub late_ns: Samples,
    pub backlog_peak: usize,
    pub backlog_end: usize,
}

/// The schedule of one open-loop window: whole rounds from the script,
/// Poisson instants at `rate` segments per second over `window_s`.
pub fn window_input(
    dp_script: &mut Script,
    seed: u64,
    window: u64,
    rate: f64,
    window_s: f64,
) -> (Vec<Step>, Vec<u64>) {
    let steps = dp_script.next((rate * window_s) as usize, Mix::Mixed);
    let mut rng = SplitMix64::fork(seed, 0xB0_0000 + window);
    let sched = poisson_schedule(steps.len(), rate, &mut rng);
    (steps, sched)
}

/// The verification pass: the same mixed script through a small bridge
/// with `shards` shards; returns (output digest, stats). The digest must
/// not depend on the shard count.
pub fn digest_run(seed: u64, shards: usize) -> (u64, PrimaryStats) {
    let mut dp = Datapath::new(seed, 4096, shards, 16_384);
    dp.digest_outputs();
    let steps = dp.script.next(60_000, Mix::Mixed);
    dp.feed(chunk(steps));
    (dp.output_digest(), dp.stats())
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

const RESIDENTS: usize = 1 << 18;
const SHARDS: usize = 16;
const CAPACITY: usize = 1 << 19;
/// Section A: segments a repetition.
const A_SEGMENTS: usize = 1_000_000;
const A_BASE_REPS: u64 = 8;
/// Section B (traced runs): fixed offered rate, ten separately
/// scheduled windows of half a second.
const B_RATE: f64 = 150_000.0;
const B_WINDOWS: u64 = 10;
const WARM_SEGMENTS: usize = 100_000;

fn check(dp: &Datapath, what: &str) {
    let s = dp.stats();
    if s.mismatched_bytes > 0 || s.drops > 0 || s.evicted_flows > 0 {
        fatal(&format!(
            "bridge_datapath {what}: {} mismatched bytes, {} drops, {} evictions",
            s.mismatched_bytes, s.drops, s.evicted_flows
        ));
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    // The bridge's output must not depend on the shard count.
    let ((d1, s1), (d16, s16)) = (digest_run(args.seed, 1), digest_run(args.seed, 16));
    if d1 != d16 {
        fatal(&format!(
            "bridge output digest differs: {d1:#x} at 1 shard, {d16:#x} at 16"
        ));
    }
    if s1.drops + s16.drops + s1.mismatched_bytes + s16.mismatched_bytes > 0 {
        fatal("bridge_datapath verification pass: drops or mismatched bytes");
    }
    let residents = args.size(RESIDENTS, 1 << 12);
    let a_segments = args.size(A_SEGMENTS, 20_000);

    // Set-up, several times over: establish the residents and warm up.
    // One instance at a time is alive; the last one is measured.
    let mut dp = None;
    let setup_s = args.setup_fastest(|_| {
        drop(dp.take());
        let mut d = Datapath::new(args.seed, residents, SHARDS, CAPACITY);
        d.closed_loop(args.size(WARM_SEGMENTS, 2_000), Mix::Mixed);
        dp = Some(d);
    });
    let mut dp = dp.expect("at least one set-up");
    o.metrics.set("setup_s", setup_s);

    // Section A, closed loop: the fixed work, and how long a client's
    // batch of 64 waits for the bridge.
    let reps = args.timed_reps(A_BASE_REPS);
    let (mut walls, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut batches = 0;
    for _ in 0..reps {
        let mut r = dp.closed_loop(a_segments, Mix::Mixed);
        o.attempted += r.segments as u64;
        // The same work every repetition: normalise the few segments a
        // whole round or mouse may add.
        walls.push(r.wall_s * a_segments as f64 / r.segments as f64);
        p50s.push(r.batch_ns.median() as f64);
        p99s.push(r.batch_ns.quantile(0.99) as f64);
        batches = r.batch_ns.len();
    }
    check(&dp, "section A");
    let run_s = fastest(&walls);
    o.metrics.set("host.run_s", run_s);
    o.metrics.set("client.lat_p50_us", fastest(&p50s) / 1e3);
    o.metrics.set("client.lat_tail_us", fastest(&p99s) / 1e3);
    o.notes.push(format!(
        "section A: {reps} repetitions of {a_segments} segments over {residents} residents, \
         {:.0} seg/s closed loop; latency = turnaround of a batch of {BATCH}, {batches} batches a \
         repetition, tail = p99, each the fastest repetition's",
        a_segments as f64 / run_s
    ));

    if args.trace {
        let m = &mut o.metrics;
        // Section B, open loop at a fixed offered rate.
        let window_s = args.size(500, 100) as f64 / 1e3;
        // A debug build (the self-tests) carries far less.
        let rate = args.size(B_RATE as usize, 20_000) as f64;
        let (mut all, mut late, mut slice_p99s) =
            (Samples::default(), Samples::default(), Samples::default());
        let (mut backlog_peak, mut backlog_end) = (0, 0);
        for w in 0..B_WINDOWS {
            let (steps, sched) = window_input(&mut dp.script, args.seed, w, rate, window_s);
            let win = dp.open_loop_window(steps, &sched);
            win.slice_p99_ns.iter().for_each(|&ns| slice_p99s.push(ns));
            all.extend(&win.latency_ns);
            late.extend(&win.late_ns);
            backlog_peak = backlog_peak.max(win.backlog_peak);
            backlog_end += win.backlog_end;
        }
        check(&dp, "section B");
        if backlog_end > 0 {
            fatal(&format!(
                "bridge_datapath: {backlog_end} segments still pending at the end of their \
                 windows: the bridge cannot carry {rate} seg/s here, so the open-loop \
                 latencies mean nothing"
            ));
        }
        m.set("host.lat_p50_us", all.median() as f64 / 1e3);
        m.set("host.lat_p99_us", slice_p99s.median() as f64 / 1e3);
        m.set("bench.late_p99_us", late.quantile(0.99) as f64 / 1e3);
        m.set("bench.backlog_peak", backlog_peak as f64);
        m.set("bench.backlog_end", backlog_end as f64);
        // Here every segment is one filter call and the run is the
        // filter: there is nothing else to subtract.
        m.set("core.filter_calls", (reps as usize * a_segments) as f64);
        m.set("core.filter_busy_s", walls.iter().sum());
        m.set("core.tick_busy_s", dp.tick_busy_ns as f64 / 1e9);
        m.set("core.tick_max_us", dp.tick_max_ns as f64 / 1e3);
        bridge_counters(&dp.stats(), m);
        // 52 bits survive a JSON number exactly.
        m.set("core.output_digest", (d16 & ((1 << 52) - 1)) as f64);
        drop(dp);
        layers::host_stalls(args, m);
        layers::generator_cost(args, m);
        layers::wire(args, m);
        layers::core_structures(args, m);
        layers::core_shapes(args, m);
        layers::telemetry_costs(args, m);
    }
    o
}
