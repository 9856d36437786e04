//! Proof of the PR-2 hot-path invariant: once a connection is
//! established and the scratch buffers are warm, releasing matched
//! bytes through the primary bridge touches the allocator **zero**
//! times — no segment copies, no fresh checksum buffers, no per-packet
//! telemetry strings.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! test drives the steady-state echo cycle (P data held → S data
//! released via the header template → client ACK translated in place)
//! for many rounds with prebuilt inputs and asserts the allocation
//! counter does not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tcpfo_core::designation::FailoverConfig;
use tcpfo_core::primary::PrimaryBridge;
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput, SegmentFilter};
use tcpfo_telemetry::HealthObservatory;
use tcpfo_wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

struct CountingAlloc;

// Per-thread counter so concurrently running tests (and the libtest
// harness's own thread spawns) cannot bleed allocations into another
// test's measured window. Const-init Cell<u64> has no destructor, so
// accessing it from inside the allocator never itself allocates;
// `try_with` covers the TLS-teardown edge.
std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_SMALL: Cell<i64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Below a frame's size: per-flow state, never a recycled frame
/// storage (those go to `bytes`' free list instead of back to us).
const SMALL: usize = 1024;

/// Live allocations smaller than [`SMALL`] bytes.
fn live_small() -> i64 {
    LIVE_SMALL.with(Cell::get)
}

fn count_live(size: usize, by: i64) {
    if size < SMALL {
        let _ = LIVE_SMALL.try_with(|c| c.set(c.get() + by));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        count_live(layout.size(), 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        count_live(layout.size(), -1);
        count_live(new_size, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(layout.size(), -1);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ISS_P: u32 = 5_000;
const ISS_S: u32 = 9_000;
const ISS_C: u32 = 100;
const PAYLOAD: &[u8] = b"steady-state echo cycle payload!"; // 32 bytes
const WARMUP: usize = 8;
const MEASURED: usize = 64;

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst).to_vec())
}

/// Builds a segment exactly as the secondary bridge would divert it.
fn diverted(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(A_S, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, A_S, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(A_P);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

fn established() -> PrimaryBridge {
    let mut b = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    let syn = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    );
    let _ = b.on_inbound(syn, 0);
    let p_synack = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50_000)
            .build(),
    );
    let _ = b.on_outbound(p_synack, 0);
    let s_synack = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1200)
            .window(40_000)
            .build(),
    );
    let merged = b.on_inbound(s_synack, 0);
    assert_eq!(merged.to_wire.len(), 1, "handshake must complete");
    b
}

/// One round of inputs: P's copy of the echo, S's diverted copy, and
/// the client's acknowledgement of the released bytes.
fn round_inputs(i: u32) -> (AddressedSegment, AddressedSegment, AddressedSegment) {
    let off = i * PAYLOAD.len() as u32;
    let p = raw(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1 + off)
            .ack(ISS_C + 1)
            .window(50_000)
            .payload(PAYLOAD.to_vec().into())
            .build(),
    );
    let s = diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1 + off)
            .ack(ISS_C + 1)
            .window(40_000)
            .payload(PAYLOAD.to_vec().into())
            .build(),
    );
    let c = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1)
            .ack(ISS_S + 1 + off + PAYLOAD.len() as u32)
            .window(60_000)
            .build(),
    );
    (p, s, c)
}

/// Drives `rounds` of the steady-state echo cycle and returns the
/// allocation delta measured after the warm-up rounds.
fn measure_rounds(bridge: &mut PrimaryBridge) -> u64 {
    let total = WARMUP + MEASURED;
    let mut inputs = Vec::with_capacity(total);
    for i in 0..total as u32 {
        inputs.push(round_inputs(i));
    }

    let mut out = FilterOutput::empty();
    let mut released = 0usize;
    let mut measured_base = 0u64;
    for (i, (p, s, c)) in inputs.into_iter().enumerate() {
        if i == WARMUP {
            measured_base = allocs();
        }
        bridge.on_outbound_into(p, 0, &mut out);
        assert!(out.to_wire.is_empty(), "P-only bytes are held");
        bridge.on_inbound_into(s, 0, &mut out);
        assert_eq!(out.to_wire.len(), 1, "matched bytes are released");
        released += 1;
        bridge.on_inbound_into(c, 0, &mut out);
        assert_eq!(out.to_tcp.len(), 1, "client ACK passes up");
        out.clear();
    }
    assert_eq!(released, total, "every round must release its bytes");
    allocs() - measured_base
}

#[test]
fn steady_state_release_path_does_not_allocate() {
    let mut bridge = established();
    let delta = measure_rounds(&mut bridge);
    assert_eq!(
        bridge.stats.merged_bytes,
        ((WARMUP + MEASURED) * PAYLOAD.len()) as u64,
        "all payload bytes matched and released"
    );
    assert_eq!(
        delta, 0,
        "steady-state echo path allocated {delta} times in {MEASURED} rounds"
    );
}

/// The PR-8 extension of the proof: the same steady-state cycle with
/// the replica health observatory *attached* still never touches the
/// allocator — the lag ledger and its per-class log2 histograms are
/// fixed-size arrays updated in place.
#[test]
fn steady_state_release_path_with_health_attached_does_not_allocate() {
    let mut bridge = established();
    bridge.set_health(Some(Box::new(HealthObservatory::new())));
    let delta = measure_rounds(&mut bridge);
    let obs = bridge.observers().health.as_deref().expect("attached");
    assert!(
        obs.lag.releases() >= (WARMUP + MEASURED) as u64,
        "lag ledger saw every release"
    );
    assert_eq!(
        obs.lag.unmatched_bytes(),
        0,
        "fully acknowledged cycle leaves no unmatched bytes"
    );
    assert_eq!(
        delta, 0,
        "attached-health echo path allocated {delta} times in {MEASURED} rounds"
    );
}

// ---------------------------------------------------------------------
// PR9: the same proof for a chain middle link. The divert-upstream
// rewrite (orig-dest option splice + incremental checksum) runs out of
// a recycled buffer, so a warm middle link releases matched bytes and
// climbs them up the chain without touching the allocator.
// ---------------------------------------------------------------------

const B_OWN: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4); // the middle itself
const B_DOWN: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5); // its downstream

/// Builds a segment exactly as the middle's downstream would divert it.
fn chain_diverted(seg: TcpSegment) -> AddressedSegment {
    let bytes = seg.encode(B_DOWN, A_C).to_vec();
    let mut p = SegmentPatcher::new(bytes, B_DOWN, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(B_OWN);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

fn established_middle() -> PrimaryBridge {
    let mut b = PrimaryBridge::link(
        A_P,
        B_OWN,
        Some(A_P),
        Some(B_DOWN),
        FailoverConfig::from_ports([80]),
    );
    let syn = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    );
    let _ = b.on_inbound(syn, 0);
    let own_synack = raw(
        B_OWN,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50_000)
            .build(),
    );
    let _ = b.on_outbound(own_synack, 0);
    let down_synack = chain_diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(1200)
            .window(40_000)
            .build(),
    );
    let merged = b.on_inbound(down_synack, 0);
    assert_eq!(merged.to_wire.len(), 1, "handshake must complete");
    b
}

/// One chain round: the middle's own copy, the downstream's diverted
/// copy, and the client's acknowledgement arriving on the VIP.
fn chain_round_inputs(i: u32) -> (AddressedSegment, AddressedSegment, AddressedSegment) {
    let off = i * PAYLOAD.len() as u32;
    let p = raw(
        B_OWN,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(ISS_P + 1 + off)
            .ack(ISS_C + 1)
            .window(50_000)
            .payload(PAYLOAD.to_vec().into())
            .build(),
    );
    let s = chain_diverted(
        TcpSegment::builder(80, 5555)
            .seq(ISS_S + 1 + off)
            .ack(ISS_C + 1)
            .window(40_000)
            .payload(PAYLOAD.to_vec().into())
            .build(),
    );
    let c = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1)
            .ack(ISS_S + 1 + off + PAYLOAD.len() as u32)
            .window(60_000)
            .build(),
    );
    (p, s, c)
}

fn measure_chain_rounds(bridge: &mut PrimaryBridge) -> u64 {
    let total = WARMUP + MEASURED;
    let mut inputs = Vec::with_capacity(total);
    for i in 0..total as u32 {
        inputs.push(chain_round_inputs(i));
    }

    let mut out = FilterOutput::empty();
    let mut released = 0usize;
    let mut measured_base = 0u64;
    for (i, (p, s, c)) in inputs.into_iter().enumerate() {
        if i == WARMUP {
            measured_base = allocs();
        }
        bridge.on_outbound_into(p, 0, &mut out);
        assert!(out.to_wire.is_empty(), "own-only bytes are held");
        bridge.on_inbound_into(s, 0, &mut out);
        assert_eq!(out.to_wire.len(), 1, "matched bytes are released");
        assert_eq!(out.to_wire[0].dst, A_P, "release climbs to the upstream");
        released += 1;
        bridge.on_inbound_into(c, 0, &mut out);
        assert_eq!(out.to_tcp.len(), 1, "client ACK passes up");
        out.clear();
    }
    assert_eq!(released, total, "every round must release its bytes");
    allocs() - measured_base
}

#[test]
fn chain_middle_release_path_does_not_allocate() {
    let mut bridge = established_middle();
    let delta = measure_chain_rounds(&mut bridge);
    assert_eq!(
        bridge.stats.diverted_upstream as usize,
        // The merged SYN+ACK also climbed the chain.
        WARMUP + MEASURED + 1,
        "every release was diverted upstream"
    );
    assert!(bridge.stats.ingress_rewrites > 0, "client ACKs rewritten");
    assert_eq!(
        delta, 0,
        "chain middle release path allocated {delta} times in {MEASURED} rounds"
    );
}

#[test]
fn chain_middle_release_path_with_health_attached_does_not_allocate() {
    let mut bridge = established_middle();
    bridge.set_health(Some(Box::new(HealthObservatory::new())));
    let delta = measure_chain_rounds(&mut bridge);
    let obs = bridge.observers().health.as_deref().expect("attached");
    assert!(
        obs.lag.releases() >= (WARMUP + MEASURED) as u64,
        "lag ledger saw every release"
    );
    assert_eq!(
        delta, 0,
        "attached-health chain path allocated {delta} times in {MEASURED} rounds"
    );
}

// ---------------------------------------------------------------------
// PR10: the span layer under the same counting allocator. Detached, a
// tracer is one relaxed atomic load per site; attached, every record
// lands in the pre-allocated ring (drop-oldest eviction included) and
// the hot-path batch sampler's begin/end cycle stays allocation-free.
// ---------------------------------------------------------------------

use tcpfo_telemetry::{SpanSampler, SpanTrack, StageLatency, Tracer};

#[test]
fn span_recording_attached_does_not_allocate() {
    let tracer = Tracer::attached(64);
    // Warm past capacity so the measured window exercises the
    // drop-oldest eviction path, not just the fill path.
    for i in 0..100u64 {
        if let Some(s) = tracer.begin(SpanTrack::Control, "warm", "span", i) {
            tracer.end(&s, i + 1);
        }
    }
    assert!(tracer.dropped() > 0, "ring must already be evicting");
    let base = allocs();
    for i in 0..256u64 {
        if let Some(s) = tracer.begin(SpanTrack::Control, "lane", "span", i) {
            tracer.end_args(&s, i + 1, [Some(("k", i)), None]);
        }
        tracer.instant(SpanTrack::Control, "lane", "tick", i);
    }
    let delta = allocs() - base;
    assert_eq!(
        delta, 0,
        "attached span recording allocated {delta} times in 256 cycles"
    );
}

#[test]
fn span_recording_detached_does_not_allocate() {
    let tracer = Tracer::new();
    let base = allocs();
    for i in 0..256u64 {
        assert!(tracer
            .begin(SpanTrack::Control, "lane", "span", i)
            .is_none());
        tracer.instant(SpanTrack::Control, "lane", "tick", i);
    }
    let delta = allocs() - base;
    assert_eq!(delta, 0, "detached tracer allocated {delta} times");
}

#[test]
fn span_sampler_batch_cycle_does_not_allocate() {
    let tracer = Tracer::attached(64);
    let mut sampler = SpanSampler::new(tracer.clone(), 1);
    let mut stages = StageLatency::new();
    for _ in 0..4 {
        // Warm-up: first cycles may fault in clock plumbing.
        let sampled = sampler.start_batch();
        let before = stages.totals();
        stages.record(tcpfo_telemetry::Stage::QueueMatch, 500);
        if sampled {
            sampler.finish_batch(8, Some(&before), Some(&stages.totals()));
        }
    }
    let base = allocs();
    for _ in 0..64 {
        let sampled = sampler.start_batch();
        let before = stages.totals();
        stages.record(tcpfo_telemetry::Stage::QueueMatch, 500);
        stages.record(tcpfo_telemetry::Stage::EgressEmit, 300);
        if sampled {
            sampler.finish_batch(8, Some(&before), Some(&stages.totals()));
        }
    }
    let delta = allocs() - base;
    assert!(sampler.sampled() >= 64, "every batch sampled at period 1");
    assert!(
        sampler.last_ctx().is_some(),
        "sampled batches expose an exemplar context"
    );
    assert_eq!(
        delta, 0,
        "sampler batch cycle allocated {delta} times in 64 batches"
    );
}

// ---------------------------------------------------------------------
// The host tick. `on_tick` runs once per simulated millisecond on every
// bridge whether or not a segment moved, so with a hub and every
// observer attached it may copy and store but never format a name,
// render a snapshot or build a scope: an idle tick leaves the allocator
// alone.
// ---------------------------------------------------------------------

use tcpfo_telemetry::{AuditConfig, InvariantAuditor, LatencyObservatory, Telemetry};

const TICK_NS: u64 = 1_000_000;

fn idle_ticks(bridge: &mut dyn SegmentFilter) -> u64 {
    // The first tick creates the flow-table and per-observer gauges.
    bridge.on_tick(TICK_NS);
    let base = allocs();
    for i in 2..1_002 {
        bridge.on_tick(i * TICK_NS);
    }
    allocs() - base
}

#[test]
fn idle_tick_with_every_observer_attached_does_not_allocate() {
    let hub = Telemetry::new();
    let auditor = |label| Box::new(InvariantAuditor::new(AuditConfig::new(label)).with_hub(&hub));

    let mut primary = established();
    primary.set_telemetry(&hub);
    primary.set_audit(Some(auditor("tick-p")));
    primary.set_latency(Some(Box::new(LatencyObservatory::new())));
    primary.set_health(Some(Box::new(HealthObservatory::new())));
    primary.set_trace(Some(Box::new(SpanSampler::with_default_period(
        Tracer::attached(64),
    ))));
    let delta = idle_ticks(&mut primary);
    assert_eq!(
        delta, 0,
        "primary allocated {delta} times in 1000 idle ticks"
    );

    let fo = FailoverConfig::from_ports([80]);
    let mut secondary = PrimaryBridge::link(A_P, A_S, Some(A_P), None, fo);
    secondary.set_telemetry(&hub);
    secondary.set_audit(Some(auditor("tick-s")));
    secondary.observers_mut().latency = Some(Box::new(LatencyObservatory::new()));
    secondary.set_health(Some(Box::new(HealthObservatory::new())));
    let delta = idle_ticks(&mut secondary);
    assert_eq!(
        delta, 0,
        "secondary allocated {delta} times in 1000 idle ticks"
    );
}

// ---------------------------------------------------------------------
// The journal narrates control only. With a hub attached, a warm bridge
// that synthesises a §3.4 bare ACK and forwards a §4 retransmission in
// every round counts both and leaves the allocator alone.
// ---------------------------------------------------------------------

/// One round: the client's data (handed up), P's ack of it (held), S's
/// ack of it (min(ack_P, ack_S) advances: a bare ACK), and P resending
/// the bytes released before the first round (forwarded at once).
fn bare_ack_round_inputs(i: u32) -> [AddressedSegment; 4] {
    let len = PAYLOAD.len() as u32;
    let acked = ISS_C + 1 + (i + 1) * len;
    let client = raw(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1 + i * len)
            .ack(ISS_S + 1 + len)
            .window(60_000)
            .payload(PAYLOAD.to_vec().into())
            .build(),
    );
    let server_ack = |seq: u32, window: u16| {
        TcpSegment::builder(80, 5555)
            .seq(seq)
            .ack(acked)
            .window(window)
    };
    let p_ack = raw(A_P, A_C, server_ack(ISS_P + 1 + len, 50_000).build());
    let s_ack = diverted(server_ack(ISS_S + 1 + len, 40_000).build());
    let p_resent = server_ack(ISS_P + 1, 50_000)
        .payload(PAYLOAD.to_vec().into())
        .build();
    [client, p_ack, s_ack, raw(A_P, A_C, p_resent)]
}

#[test]
fn bare_ack_and_retransmission_with_hub_attached_do_not_allocate() {
    let hub = Telemetry::new();
    let mut bridge = established();
    bridge.set_telemetry(&hub);
    let (p, s, _) = round_inputs(0);
    let mut out = FilterOutput::empty();
    bridge.on_outbound_into(p, 0, &mut out);
    bridge.on_inbound_into(s, 0, &mut out);
    assert_eq!(out.to_wire.len(), 1, "the bytes to resend are released");
    out.clear();

    let total = WARMUP + MEASURED;
    let rounds: Vec<_> = (0..total as u32).map(bare_ack_round_inputs).collect();
    let (acks, retransmissions) = (
        bridge.stats.empty_acks,
        bridge.stats.retransmissions_forwarded,
    );
    let mut measured_base = 0;
    for (i, [client, p_ack, s_ack, p_resent]) in rounds.into_iter().enumerate() {
        if i == WARMUP {
            measured_base = allocs();
        }
        bridge.on_inbound_into(client, 0, &mut out);
        assert_eq!(out.to_tcp.len(), 1, "client data passes up");
        bridge.on_outbound_into(p_ack, 0, &mut out);
        assert!(out.to_wire.is_empty(), "P-only ack advance is held");
        bridge.on_inbound_into(s_ack, 0, &mut out);
        assert_eq!(out.to_wire.len(), 1, "min(ack) advanced: a bare ACK");
        // Each frame leaves before the next is built, as in the other
        // rounds here: the egress scratch is reclaimed, not regrown.
        out.clear();
        bridge.on_outbound_into(p_resent, 0, &mut out);
        assert_eq!(out.to_wire.len(), 1, "the retransmission is forwarded");
        out.clear();
    }
    let delta = allocs() - measured_base;
    assert_eq!(bridge.stats.empty_acks - acks, total as u64);
    assert_eq!(
        bridge.stats.retransmissions_forwarded - retransmissions,
        total as u64
    );
    assert_eq!(
        delta, 0,
        "bare ACK and retransmission rounds allocated {delta} times in {MEASURED} rounds"
    );
}

// ---------------------------------------------------------------------
// The auditor on its own, driven through its public API: behind a
// bridge the count would include the bridge's own copies. Its shadow
// streams hold views of the replica segments, its flight recorder keeps
// headers, so a warm auditor checks a round without allocating.
// ---------------------------------------------------------------------

use tcpfo_telemetry::audit::SegmentRole;
use tcpfo_telemetry::{Rule, TraceId};

const MS: u64 = 1_000_000;

/// One audited round of the echo cycle, as the bridge reports it: the
/// client's ACK in and handed up Δseq-translated, P's copy out, S's copy
/// diverted in, and the matched release.
struct AuditedRound {
    client_ack: AddressedSegment,
    delivered_up: AddressedSegment,
    p: AddressedSegment,
    s: AddressedSegment,
    released: AddressedSegment,
}

fn audited_round(i: u32) -> AuditedRound {
    let off = i * PAYLOAD.len() as u32;
    let trace = TraceId(u64::from(i) + 2);
    let client_ack = |ack: u32| {
        let seg = TcpSegment::builder(5555, 80)
            .seq(ISS_C + 1)
            .ack(ack)
            .window(60_000)
            .build();
        raw(A_C, A_P, seg).traced(trace)
    };
    let data = |seq: u32, win: u16| {
        TcpSegment::builder(80, 5555)
            .seq(seq)
            .ack(ISS_C + 1)
            .window(win)
            .payload(PAYLOAD.to_vec().into())
            .build()
    };
    AuditedRound {
        client_ack: client_ack(ISS_S + 1 + off),
        delivered_up: client_ack(ISS_P + 1 + off),
        p: raw(A_P, A_C, data(ISS_P + 1 + off, 50_000)).traced(trace),
        s: diverted(data(ISS_S + 1 + off, 40_000)).traced(trace),
        released: raw(A_P, A_C, data(ISS_S + 1 + off, 40_000)).traced(trace),
    }
}

/// What a pair's head put out for one segment: `wire`, then `tcp`.
fn egress(
    aud: &mut InvariantAuditor,
    now: u64,
    wire: &[AddressedSegment],
    tcp: &[AddressedSegment],
) {
    aud.egress(now, Some(A_S), [wire, tcp], None);
}

#[test]
fn auditor_steady_state_does_not_allocate() {
    let mut aud = InvariantAuditor::new(AuditConfig::new("zero-alloc"));
    let syn = |seq: u32, mss: u16, window: u16| {
        TcpSegment::builder(80, 5555)
            .seq(seq)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(mss)
            .window(window)
            .build()
    };
    let client_syn = TcpSegment::builder(5555, 80)
        .seq(ISS_C)
        .flags(TcpFlags::SYN)
        .window(60_000)
        .build();
    let client = SegmentRole::Client { merged: true };
    aud.ingress(0, client, &raw(A_C, A_P, client_syn));
    egress(&mut aud, 0, &[], &[]);
    aud.ingress(
        0,
        SegmentRole::Ours,
        &raw(A_P, A_C, syn(ISS_P, 1460, 50_000)),
    );
    egress(&mut aud, 0, &[], &[]);
    let s_synack = diverted(syn(ISS_S, 1200, 40_000));
    aud.ingress(0, SegmentRole::Diverted, &s_synack);
    let merged = raw(A_P, A_C, syn(ISS_S, 1200, 40_000)).traced(TraceId(1));
    egress(&mut aud, 0, &[merged], &[]);

    // Seven ring entries a round: a warm-up long enough that the trace
    // ring (1 024 entries) is full and evicting before the measurement.
    let warmup = 150;
    let total = warmup + MEASURED;
    let rounds: Vec<AuditedRound> = (0..total as u32).map(audited_round).collect();
    let mut measured_base = 0;
    for (i, r) in rounds.iter().enumerate() {
        if i == warmup {
            measured_base = allocs();
        }
        let now = i as u64 * MS;
        aud.ingress(now, client, &r.client_ack);
        egress(&mut aud, now, &[], std::slice::from_ref(&r.delivered_up));
        aud.ingress(now, SegmentRole::Ours, &r.p);
        egress(&mut aud, now, &[], &[]);
        aud.ingress(now, SegmentRole::Diverted, &r.s);
        egress(&mut aud, now, std::slice::from_ref(&r.released), &[]);
    }
    let delta = allocs() - measured_base;
    assert_eq!(aud.ledger().total_violations(), 0, "{}", aud.report());
    for rule in [
        Rule::MatchedOnly,
        Rule::QueueAgree,
        Rule::Translate,
        Rule::BareAck,
    ] {
        assert!(
            aud.ledger().stat(rule).checks >= total as u64,
            "{} not checked every round:\n{}",
            rule.id(),
            aud.report()
        );
    }
    assert_eq!(
        aud.dropped(),
        (7 * total + 4 - 1024) as u64,
        "trace ring full"
    );
    assert_eq!(
        delta, 0,
        "the auditor allocated {delta} times in {MEASURED} rounds"
    );
}

// ---------------------------------------------------------------------
// Per-flow state: one allocation a connection
// ---------------------------------------------------------------------

/// Opens the flow of client port `port` (client SYN, P's SYN+ACK held,
/// S's diverted SYN+ACK merging them), then runs one matched data
/// round on it and the client's ACK of it.
fn open_and_echo(bridge: &mut PrimaryBridge, port: u16, out: &mut FilterOutput) {
    let to_client = |src: Ipv4Addr, seg: TcpSegment| {
        if src == A_P {
            return raw(A_P, A_C, seg);
        }
        let mut p = SegmentPatcher::new(seg.encode(A_S, A_C).to_vec(), A_S, A_C);
        p.push_orig_dest_option(A_C, port);
        p.set_pseudo_dst(A_P);
        let (bytes, src, dst) = p.finish();
        AddressedSegment::new(src, dst, bytes)
    };
    let syn_ack = |src, iss, mss| {
        let seg = TcpSegment::builder(80, port)
            .seq(iss)
            .ack(ISS_C + 1)
            .flags(TcpFlags::SYN)
            .mss(mss)
            .window(50_000)
            .build();
        to_client(src, seg)
    };
    let data = |src, iss: u32| {
        let seg = TcpSegment::builder(80, port)
            .seq(iss + 1)
            .ack(ISS_C + 1)
            .window(50_000)
            .payload(PAYLOAD.to_vec().into())
            .build();
        to_client(src, seg)
    };
    let from_client = |seg: TcpSegment| raw(A_C, A_P, seg);
    let syn = TcpSegment::builder(port, 80)
        .seq(ISS_C)
        .flags(TcpFlags::SYN)
        .mss(1460)
        .window(60_000)
        .build();
    bridge.on_inbound_into(from_client(syn), 0, out);
    bridge.on_outbound_into(syn_ack(A_P, ISS_P, 1460), 0, out);
    bridge.on_inbound_into(syn_ack(A_S, ISS_S, 1200), 0, out);
    bridge.on_outbound_into(data(A_P, ISS_P), 0, out);
    bridge.on_inbound_into(data(A_S, ISS_S), 0, out);
    let ack = TcpSegment::builder(port, 80)
        .seq(ISS_C + 1)
        .ack(ISS_S + 1 + PAYLOAD.len() as u32)
        .window(60_000)
        .build();
    bridge.on_inbound_into(from_client(ack), 0, out);
    assert_eq!(out.to_wire.len(), 2, "merged SYN+ACK and matched bytes");
    out.clear();
}

/// A resident flow costs the bridge one allocation, its `Box<Conn>`:
/// a held SYN is a record, and an output queue holding one chunk holds
/// it inline.
#[test]
fn a_resident_flow_is_one_allocation() {
    const FLOWS: u16 = 256;
    let mut bridge = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    let mut out = FilterOutput::empty();
    // Warm the scratch buffers on a first flow.
    open_and_echo(&mut bridge, 1_000, &mut out);
    let base = live_small();
    for i in 1..=FLOWS {
        open_and_echo(&mut bridge, 1_000 + i, &mut out);
    }
    let grown = live_small() - base;
    assert_eq!(bridge.conn_count(), usize::from(FLOWS) + 1);
    assert!(
        grown <= i64::from(FLOWS),
        "{FLOWS} resident flows hold {grown} allocations"
    );
}
