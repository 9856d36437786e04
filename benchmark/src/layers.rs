//! Isolated per-layer timings: tight loops over seeded inputs around
//! single public functions of each crate, run only in traced runs. They
//! split what the full-path spans cannot (the simulator from the stack,
//! parse from fixup) and price the bridge one shape at a time.

use crate::adapter::{
    apply_batch, attach_observer, attach_registry, checksum, filter_one, new_chain_middle,
    new_primary_bridge, new_secondary_bridge, ByteQueue, ChainBridge, ChecksumDelta, Ctx, Device,
    FilterOutput, FlowKey, FlowState, FlowTable, FlowTableConfig, HeaderTemplate, Hub, Ipv4Addr,
    LinkParams, Observer, SegmentFilter, SegmentPatcher, ShardExecutor, SimDuration, SimTime,
    Simulator, SocketAddr, SocketApi, TcpConfig, TcpFlags, TcpSegment, TcpStack, TimerToken, A_P,
};
use crate::alloc;
use crate::report::Metrics;
use crate::segments::{Mix, Script, Step, View};
use crate::stats::{median_f64, SplitMix64};
use crate::workloads::bridge_datapath::{chunk, BatchBridge, Datapath};
use crate::workloads::RunArgs;
use bytes::{Bytes, BytesMut};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn seeded_payload(rng: &mut SplitMix64, len: usize) -> Bytes {
    let mut b = Vec::with_capacity(len + 8);
    while b.len() < len {
        b.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    b.truncate(len);
    Bytes::from(b)
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

pub fn wire(args: &RunArgs, m: &mut Metrics) {
    const POOL: usize = 1024;
    let iters = args.size(200_000, 4 * POOL);
    let mut rng = SplitMix64::fork(args.seed, 0x417E);
    let client = Ipv4Addr::new(192, 168, 0, 9);
    for (len, dec, enc) in [
        (64usize, "wire.decode_ns.64", "wire.encode_ns.64"),
        (1460, "wire.decode_ns.1460", "wire.encode_ns.1460"),
    ] {
        let segs: Vec<TcpSegment> = (0..POOL)
            .map(|_| {
                TcpSegment::builder(80, 40_000)
                    .seq(rng.next_u64() as u32)
                    .ack(rng.next_u64() as u32)
                    .window(50_000)
                    .payload(seeded_payload(&mut rng, len))
                    .build()
            })
            .collect();
        let raw: Vec<Bytes> = segs.iter().map(|s| s.encode(A_P, client)).collect();
        m.set(
            enc,
            ns_per(iters, |i| {
                black_box(segs[i % POOL].encode(A_P, client));
            }),
        );
        m.set(
            dec,
            ns_per(iters, |i| {
                black_box(TcpSegment::decode_shared(&raw[i % POOL]).expect("valid"));
            }),
        );
        if len == 1460 {
            let tmpl = HeaderTemplate::new(A_P, client, 80, 40_000);
            let mut buf = BytesMut::with_capacity(2048);
            m.set(
                "wire.template_emit_ns.1460",
                ns_per(iters, |i| {
                    let s = &segs[i % POOL];
                    black_box(tmpl.emit_parts(
                        &mut buf,
                        s.seq,
                        s.ack,
                        TcpFlags::PSH,
                        s.window,
                        std::iter::once(&s.payload[..]),
                        s.payload.len(),
                        None,
                    ));
                }),
            );
            m.set(
                "wire.csum_full_ns.1460",
                ns_per(iters, |i| {
                    black_box(checksum(&raw[i % POOL]));
                }),
            );
        } else {
            // The ack-translate patch the primary bridge applies to
            // every client segment: takes the buffer over in place.
            let mut pool: Vec<Bytes> = raw.clone();
            m.set(
                "wire.patch_ack_ns",
                ns_per(iters, |i| {
                    let bytes = std::mem::take(&mut pool[i % POOL]);
                    let mut p = SegmentPatcher::new(bytes, A_P, client);
                    p.set_ack(i as u32);
                    pool[i % POOL] = p.finish().0;
                }),
            );
        }
    }
    let deltas: Vec<ChecksumDelta> = (0..POOL)
        .map(|_| {
            let mut d = ChecksumDelta::new();
            d.replace_u32(rng.next_u64() as u32, rng.next_u64() as u32);
            d
        })
        .collect();
    let mut stored: Vec<u16> = (0..POOL).map(|_| rng.next_u64() as u16).collect();
    m.set(
        "wire.fixup_scalar_ns",
        ns_per(iters, |i| {
            let k = i % POOL;
            stored[k] = black_box(deltas[k].apply(stored[k]));
        }),
    );
    let rounds = iters / POOL;
    let per_batch = ns_per(rounds, |_| {
        apply_batch(black_box(&deltas), black_box(&mut stored));
    });
    m.set("wire.fixup_batch8_ns", per_batch / POOL as f64);
}

// ---------------------------------------------------------------------
// net: the bare simulator
// ---------------------------------------------------------------------

/// Transmits one minimum frame per timer tick and ignores what arrives.
struct Blaster {
    label: String,
    frame: Bytes,
    gap: SimDuration,
}

impl Device for Blaster {
    fn label(&self) -> &str {
        &self.label
    }

    fn handle_frame(&mut self, _port: usize, frame: Bytes, _ctx: &mut Ctx<'_>) {
        black_box(frame.len());
    }

    fn handle_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        ctx.transmit(0, self.frame.clone());
        ctx.schedule(self.gap, token);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Events per host second of the event loop and the hub fan-out alone:
/// four null devices on a shared hub, no hosts, no stacks.
pub fn net_bare(args: &RunArgs, m: &mut Metrics) {
    const DEVICES: usize = 4;
    let mut sim = Simulator::new(args.seed);
    let hub = sim.add_device(Box::new(Hub::new("segment", DEVICES, 100_000_000)));
    for i in 0..DEVICES {
        let d = sim.add_device(Box::new(Blaster {
            label: format!("null{i}"),
            frame: Bytes::from(vec![0u8; 64]),
            // 64 B takes 5.12 µs on the shared medium: four senders at
            // this gap keep it about half busy.
            gap: SimDuration::from_micros(40),
        }));
        sim.connect((hub, i), (d, 0), LinkParams::attachment());
        sim.schedule_timer(d, SimDuration::from_micros(i as u64), TimerToken(7));
    }
    let t = Instant::now();
    sim.run_for(SimDuration::from_millis(args.size(4_000, 40) as u64));
    let wall = t.elapsed().as_secs_f64();
    m.set(
        "net.bare_events_per_s",
        sim.events_processed() as f64 / wall,
    );
}

// ---------------------------------------------------------------------
// tcp: two stacks back to back, no simulator
// ---------------------------------------------------------------------

/// Segments per host second through two `TcpStack`s wired outbox to
/// `on_segment`, moving `bytes` one way.
pub fn tcp_stack(args: &RunArgs, m: &mut Metrics) {
    let bytes = args.size(64 << 20, 1 << 20) as u64;
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 9, 0, 1), Ipv4Addr::new(10, 9, 0, 2));
    let cfg = TcpConfig {
        nagle: false,
        ..TcpConfig::default()
    };
    let (mut a, mut b) = (TcpStack::new(cfg.clone()), TcpStack::new(cfg));
    let mut now = SimTime::ZERO;
    let listener = SocketApi::new(&mut b, now, ip_b)
        .listen(9, false)
        .expect("port free");
    let conn = SocketApi::new(&mut a, now, ip_a)
        .connect(SocketAddr::new(ip_b, 9), false)
        .expect("ports free");
    let chunk = vec![0xA5u8; 32 * 1024];
    let (mut sent, mut received, mut segments) = (0u64, 0u64, 0u64);
    let mut accepted = None;
    let t = Instant::now();
    while received < bytes {
        for seg in a.take_outbox() {
            segments += 1;
            b.on_segment(&seg, now);
        }
        for seg in b.take_outbox() {
            segments += 1;
            a.on_segment(&seg, now);
        }
        if accepted.is_none() {
            accepted = SocketApi::new(&mut b, now, ip_b).accept(listener);
        }
        if let Some(s) = accepted {
            received += SocketApi::new(&mut b, now, ip_b)
                .recv(s, usize::MAX)
                .map_or(0, |d| d.len() as u64);
        }
        let mut api = SocketApi::new(&mut a, now, ip_a);
        if api.is_established(conn) && sent < bytes {
            let want = (bytes - sent).min(chunk.len() as u64) as usize;
            sent += api.send(conn, &chunk[..want]).unwrap_or(0) as u64;
        }
        // Keep delayed-ACK and RTO timers moving: 100 µs a turn.
        now += SimDuration::from_micros(100);
        a.on_tick(now);
        b.on_tick(now);
    }
    m.set(
        "tcp.stack_seg_per_s",
        segments as f64 / t.elapsed().as_secs_f64(),
    );
}

// ---------------------------------------------------------------------
// core: flow table and queues
// ---------------------------------------------------------------------

fn flow_key(i: u32) -> FlowKey {
    let ip = Ipv4Addr::new(10, 64, (i >> 14) as u8, (i >> 6) as u8);
    FlowKey::new(80, SocketAddr::new(ip, 10_000 + (i & 0x3FFF) as u16))
}

pub fn core_structures(args: &RunArgs, m: &mut Metrics) {
    let lookups = args.size(500_000, 5_000);
    let large = args.size(18, 12) as u32;
    let mut rng = SplitMix64::fork(args.seed, 0xF10);
    for (n, name) in [
        (1u32 << 10, "core.flow_lookup_ns.small"),
        (1 << large, "core.flow_lookup_ns.large"),
    ] {
        let mut table: FlowTable<u64> = FlowTable::new(FlowTableConfig::new(1, 1 << 19));
        for i in 0..n {
            table.insert(flow_key(i), FlowState::Replicated, u64::from(i), 0);
        }
        let probes: Vec<FlowKey> = (0..4096)
            .map(|_| flow_key(rng.below(n.into()) as u32))
            .collect();
        m.set(
            name,
            ns_per(lookups, |i| {
                black_box(table.get_mut(&probes[i % probes.len()], 1));
            }),
        );
    }
    // Insert into a table already holding 2^18, then reap a TimeWait
    // population in one unbudgeted GC pass.
    let mut table: FlowTable<u64> = FlowTable::new(FlowTableConfig::new(1, 1 << 19));
    for i in 0..1u32 << large {
        table.insert(flow_key(i), FlowState::Replicated, 0, 0);
    }
    let fresh = args.size(100_000, 1_000);
    m.set(
        "core.flow_insert_ns",
        ns_per(fresh, |i| {
            table.insert(flow_key((1 << large) + i as u32), FlowState::TimeWait, 0, 0);
        }),
    );
    let mut reaped = 0u64;
    let t = Instant::now();
    // Past the 60 s TimeWait TTL, short of the 1 h idle TTL.
    table.gc(120_000_000_000, &mut |_| reaped += 1);
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        reaped, fresh as u64,
        "GC reaps exactly the TimeWait entries"
    );
    m.set("core.flow_gc_ns_per_reap", ns / reaped as f64);

    // One MSS through both output queues' primitive: insert, then take.
    let payloads: Vec<Bytes> = (0..256).map(|_| seeded_payload(&mut rng, 1460)).collect();
    let mut q = ByteQueue::new();
    let mut seq = 1000u32;
    m.set(
        "core.queue_match_ns.1460",
        ns_per(lookups, |i| {
            q.insert(seq, payloads[i % payloads.len()].clone(), seq);
            black_box(q.take(seq, 1460));
            seq = seq.wrapping_add(1460);
        }),
    );
}

// ---------------------------------------------------------------------
// core: the bridge one shape at a time
// ---------------------------------------------------------------------

/// (residents, segments) of the one-shape-at-a-time timings.
fn shape_size(args: &RunArgs) -> (usize, usize) {
    (args.size(1 << 16, 1 << 8), args.size(300_000, 3_000))
}

impl BatchBridge for ChainBridge {
    fn batch(&mut self, batch: Vec<Step>, now: u64, exec: &ShardExecutor) -> Vec<FilterOutput> {
        self.process_batch(batch, now, exec)
    }

    fn tick(&mut self, now: u64) {
        self.on_tick(now);
    }
}

/// Feeds a secondary bridge one segment at a time (it has no batch
/// entry point), reusing one output.
fn secondary_seg_per_s(args: &RunArgs) -> f64 {
    let (residents, segments) = shape_size(args);
    let mut bridge = new_secondary_bridge(16, 1 << 18);
    let mut script = Script::new(args.seed, residents, View::Secondary);
    let mut out = FilterOutput::empty();
    let mut now = 0u64;
    let mut run = |steps: Vec<Step>| {
        let n = steps.len();
        let t = Instant::now();
        for (dir, seg) in steps {
            filter_one(&mut bridge, dir, seg, now, &mut out);
            out.clear();
            now += 15_625;
        }
        n as f64 / t.elapsed().as_secs_f64()
    };
    run(script.establish());
    let steps = script.next(segments, Mix::Mixed);
    run(steps)
}

pub fn core_shapes(args: &RunArgs, m: &mut Metrics) {
    let seed = args.seed;
    let (residents, segments) = shape_size(args);
    let mut dp = Datapath::new(seed, residents, 16, 1 << 18);
    for (mix, name) in [
        (Mix::DownloadOnly, "core.seg_per_s.down"),
        (Mix::UploadOnly, "core.seg_per_s.up"),
        (Mix::MiceOnly, "core.seg_per_s.mice"),
    ] {
        let r = dp.closed_loop(segments, mix);
        m.set(name, r.segments as f64 / r.wall_s);
    }
    let mut chain = Datapath::with_bridge(new_chain_middle(16, 1 << 18), seed, residents);
    let r = chain.closed_loop(segments, Mix::Mixed);
    m.set("core.seg_per_s.chain_mid", r.segments as f64 / r.wall_s);
    m.set("core.seg_per_s.secondary", secondary_seg_per_s(args));

    // Steady-state allocations per segment: established flows, download
    // rounds, one reused output, the segments built beforehand.
    let mut bridge = new_primary_bridge(16, 1 << 18);
    let mut script = Script::new(seed, args.size(1024, 64), View::Primary);
    let mut out = FilterOutput::empty();
    let mut feed = |steps: Vec<Step>| {
        let n = steps.len() as u64;
        let before = alloc::count();
        for (dir, seg) in steps {
            filter_one(&mut bridge, dir, seg, 0, &mut out);
            out.clear();
        }
        (alloc::count() - before) as f64 / n as f64
    };
    feed(script.establish());
    feed(script.next(args.size(10_000, 500), Mix::DownloadOnly));
    let steps = script.next(args.size(30_000, 1_500), Mix::DownloadOnly);
    m.set("core.alloc_per_seg", feed(steps));
}

// ---------------------------------------------------------------------
// telemetry: the price list
// ---------------------------------------------------------------------

const COST_PAIRS: usize = 5;

fn mixed_wall(args: &RunArgs, observer: Option<Observer>) -> f64 {
    let mut bridge = new_primary_bridge(16, 1 << 18);
    if let Some(o) = observer {
        attach_observer(&mut bridge, o);
    }
    let mut dp = Datapath::with_bridge(bridge, args.seed, args.size(1 << 14, 1 << 8));
    dp.closed_loop(args.size(200_000, 2_000), Mix::Mixed).wall_s
}

/// Section A's mix with exactly one observer attached against none:
/// alternating pairs, the median ratio.
pub fn telemetry_costs(args: &RunArgs, m: &mut Metrics) {
    for (o, name) in [
        (Observer::Audit, "telemetry.cost_pct.audit"),
        (Observer::Latency, "telemetry.cost_pct.latency"),
        (Observer::Health, "telemetry.cost_pct.health"),
        (Observer::Span, "telemetry.cost_pct.span"),
        (Observer::All, "telemetry.cost_pct.all"),
    ] {
        let ratios: Vec<f64> = (0..COST_PAIRS)
            .map(|k| {
                // Alternate which side runs first.
                if k % 2 == 0 {
                    let base = mixed_wall(args, None);
                    mixed_wall(args, Some(o)) / base
                } else {
                    let with = mixed_wall(args, Some(o));
                    with / mixed_wall(args, None)
                }
            })
            .collect();
        m.set(name, (median_f64(&ratios) - 1.0) * 100.0);
    }
    let mut bridge = new_primary_bridge(16, 1 << 18);
    attach_registry(&mut bridge);
    let mut dp = Datapath::with_bridge(bridge, args.seed, args.size(1 << 12, 1 << 8));
    let steps = dp.script.next(args.size(20_000, 1_000), Mix::Mixed);
    dp.feed(chunk(steps));
    let mut now = 1_000_000_000u64;
    m.set(
        "telemetry.publish_ns",
        ns_per(2_000, |_| {
            now += 1_000_000;
            dp.bridge.sync_telemetry(now);
        }),
    );
}

/// `ns` per segment of the benchmark's own script generator.
pub fn generator_cost(args: &RunArgs, m: &mut Metrics) {
    let mut script = Script::new(args.seed, 1 << 12, View::Primary);
    let t = Instant::now();
    let steps = script.next(args.size(200_000, 2_000), Mix::Mixed);
    let ns = t.elapsed().as_nanos() as f64;
    m.set("bench.gen_ns_per_seg", ns / black_box(&steps).len() as f64);
}

/// How often this machine takes the CPU away from a spinning thread for
/// more than 200 µs: the floor under every host-time tail measured here.
pub fn host_stalls(args: &RunArgs, m: &mut Metrics) {
    let probe_ns = args.size(1_000_000_000, 10_000_000) as u64;
    const STALL_NS: u64 = 200_000;
    let t = Instant::now();
    let (mut last, mut stalls) = (0u64, 0u64);
    while last < probe_ns {
        let now = t.elapsed().as_nanos() as u64;
        stalls += u64::from(now - last > STALL_NS);
        last = now;
    }
    m.set(
        "bench.host_stalls_per_s",
        stalls as f64 / (probe_ns as f64 / 1e9),
    );
}
