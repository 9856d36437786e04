//! E9 — micro-benchmarks (wall-clock, via Criterion):
//!
//! * incremental (RFC 1624) vs full checksum recomputation — the §3.1
//!   fast path the paper's bridge relies on;
//! * full segment encode vs prebuilt header-template emission — the
//!   PR-2 zero-copy release path;
//! * rope output-queue insert/match throughput;
//! * `HashMap` vs dense-table simulator port lookup;
//! * simulator event throughput.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tcpfo_core::queues::ByteQueue;
use tcpfo_wire::checksum::{checksum, raw_sum, ChecksumDelta};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{HeaderTemplate, SegmentPatcher, TcpFlags, TcpSegment};

fn bench_checksums(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    let seg = TcpSegment::builder(80, 51000)
        .seq(1234)
        .ack(5678)
        .window(8192)
        .payload(bytes::Bytes::from(vec![7u8; 1460]))
        .build();
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let cdest = Ipv4Addr::new(192, 168, 0, 9);
    let raw = seg.encode(a, b).to_vec();
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("full_recompute_1460B", |bench| {
        bench.iter(|| checksum(std::hint::black_box(&raw)))
    });
    group.bench_function("incremental_addr_rewrite", |bench| {
        bench.iter(|| {
            let mut d = ChecksumDelta::new();
            d.replace_u32(u32::from(b), u32::from(cdest));
            d.apply(std::hint::black_box(0x1234))
        })
    });
    group.bench_function("patcher_divert_1460B", |bench| {
        bench.iter(|| {
            let mut p = SegmentPatcher::new(raw.clone(), a, b);
            p.push_orig_dest_option(cdest, 51000);
            p.set_pseudo_dst(cdest);
            p.finish()
        })
    });
    group.finish();
}

/// The PR-2 release path: building a fresh `TcpSegment` and encoding it
/// (allocating, full payload scan) vs patching a prebuilt per-connection
/// header template with a cached payload sum (no allocation, no scan).
fn bench_segment_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_release");
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let cdest = Ipv4Addr::new(192, 168, 0, 9);
    let payload = bytes::Bytes::from(vec![42u8; 1460]);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("full_encode_1460B", |bench| {
        bench.iter(|| {
            let seg = TcpSegment::builder(80, 51000)
                .seq(std::hint::black_box(7777))
                .ack(8888)
                .window(8192)
                .payload(payload.clone())
                .build();
            seg.encode(a, cdest)
        })
    });
    let tmpl = HeaderTemplate::new(a, cdest, 80, 51000);
    let sum = raw_sum(&payload);
    let mut buf = bytes::BytesMut::with_capacity(2048);
    group.bench_function("template_emit_1460B", |bench| {
        bench.iter(|| {
            tmpl.emit(
                &mut buf,
                std::hint::black_box(7777),
                8888,
                TcpFlags::ACK,
                8192,
                &payload,
                Some(sum),
            )
        })
    });
    group.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("output_queue");
    let shared = bytes::Bytes::from(vec![42u8; 1460]);
    group.throughput(Throughput::Bytes(1460 * 64));
    group.bench_function("rope_insert_take_64_segments", |bench| {
        bench.iter(|| {
            let mut q = ByteQueue::new();
            let mut seq = 1000u32;
            for _ in 0..64 {
                q.insert(seq, shared.clone(), 1000);
                seq = seq.wrapping_add(1460);
            }
            let mut head = 1000u32;
            while q.contiguous_from(head) > 0 {
                let n = q.contiguous_from(head).min(1460);
                let taken = q.take(head, n);
                std::hint::black_box(&taken);
                head = head.wrapping_add(n as u32);
            }
        })
    });
    group.finish();
}

/// The simulator's per-transmit port→wire resolution: the pre-PR-2
/// `HashMap<(node, port), _>` probe vs the dense
/// `Vec<Vec<Option<_>>>` double index now in `tcpfo_net::sim`.
fn bench_port_lookup(c: &mut Criterion) {
    const NODES: usize = 16;
    const PORTS: usize = 4;
    let mut map: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    let mut dense: Vec<Vec<Option<(usize, usize)>>> = vec![vec![None; PORTS]; NODES];
    for (n, row) in dense.iter_mut().enumerate() {
        for (p, slot) in row.iter_mut().enumerate() {
            map.insert((n, p), (n * PORTS + p, p & 1));
            *slot = Some((n * PORTS + p, p & 1));
        }
    }
    let keys: Vec<(usize, usize)> = (0..256).map(|i| (i % NODES, (i / 3) % PORTS)).collect();
    let mut group = c.benchmark_group("sim_port_lookup");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("hashmap_256_lookups", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for k in std::hint::black_box(&keys) {
                if let Some(&(w, s)) = map.get(k) {
                    acc = acc.wrapping_add(w ^ s);
                }
            }
            acc
        })
    });
    group.bench_function("dense_256_lookups", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for &(n, p) in std::hint::black_box(&keys) {
                if let Some((w, s)) = dense[n][p] {
                    acc = acc.wrapping_add(w ^ s);
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use tcpfo_net::hub::Hub;
    use tcpfo_net::link::LinkParams;
    use tcpfo_net::sim::{Ctx, Device, Simulator, TimerToken};
    use tcpfo_net::time::SimDuration;

    /// Ping-pong device pair for raw event-loop throughput.
    struct Pinger;
    impl Device for Pinger {
        fn label(&self) -> &str {
            "pinger"
        }
        fn handle_frame(&mut self, port: usize, frame: bytes::Bytes, ctx: &mut Ctx<'_>) {
            ctx.transmit(port, frame);
        }
        fn handle_timer(&mut self, _: TimerToken, ctx: &mut Ctx<'_>) {
            ctx.transmit(0, bytes::Bytes::from_static(&[0u8; 64]));
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    c.bench_function("simulator_100k_events", |bench| {
        bench.iter(|| {
            let mut sim = Simulator::new(1);
            let hub = sim.add_device(Box::new(Hub::new("h", 2, 100_000_000)));
            let a = sim.add_device(Box::new(Pinger));
            let b = sim.add_device(Box::new(Pinger));
            sim.connect((hub, 0), (a, 0), LinkParams::attachment());
            sim.connect((hub, 1), (b, 0), LinkParams::attachment());
            sim.schedule_timer(a, SimDuration::ZERO, TimerToken(0));
            sim.run_until_idle(100_000);
            std::hint::black_box(sim.events_processed())
        })
    });
}

criterion_group!(
    benches,
    bench_checksums,
    bench_segment_release,
    bench_queues,
    bench_port_lookup,
    bench_simulator
);
criterion_main!(benches);
