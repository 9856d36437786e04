//! Proof that a segment's TCP options cost the allocator nothing: the
//! primary decodes every segment a replica diverts to it (each carries
//! the original-destination option, §3.1) and every client SYN (each
//! carries an MSS), so an option block must be read where it lies.
//!
//! A counting `#[global_allocator]` wraps the system allocator, as in
//! `zero_alloc.rs`. Decoding a SYN with MSS and a diverted segment with
//! orig-dest allocates nothing; building and encoding a SYN-ACK with MSS
//! allocates once, for the buffer the segment travels in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use bytes::Bytes;
use tcpfo_wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

struct CountingAlloc;

// Per-thread, so the harness's other test threads cannot bleed
// allocations into a measured window.
std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const ROUNDS: u64 = 64;

/// Allocations `f` makes, counted over [`ROUNDS`] calls after one
/// warm-up call.
fn allocs_per_round(mut f: impl FnMut()) -> u64 {
    f();
    let before = allocs();
    for _ in 0..ROUNDS {
        f();
    }
    (allocs() - before) / ROUNDS
}

#[test]
fn decoding_a_syn_with_mss_and_a_diverted_segment_does_not_allocate() {
    let syn = TcpSegment::builder(5555, 80)
        .seq(100)
        .flags(TcpFlags::SYN)
        .mss(1460)
        .window(65535)
        .build()
        .encode(A_C, A_P);
    // A reply as the secondary bridge diverts it to the primary.
    let reply = TcpSegment::builder(80, 5555)
        .seq(9_001)
        .ack(101)
        .payload(Bytes::from_static(b"diverted reply"))
        .build();
    let mut p = SegmentPatcher::new(reply.encode(A_S, A_C), A_S, A_C);
    p.push_orig_dest_option(A_C, 5555);
    p.set_pseudo_dst(A_P);
    let (diverted, ..) = p.finish();

    let n = allocs_per_round(|| {
        let seg = TcpSegment::decode_shared(&syn).expect("well-formed SYN");
        assert_eq!(std::hint::black_box(seg).mss(), Some(1460));
    });
    assert_eq!(n, 0, "decoding a SYN with MSS allocated {n} times");
    let n = allocs_per_round(|| {
        let seg = TcpSegment::decode_shared(&diverted).expect("well-formed segment");
        assert_eq!(std::hint::black_box(seg).orig_dest(), Some((A_C, 5555)));
    });
    assert_eq!(n, 0, "decoding a diverted segment allocated {n} times");
}

#[test]
fn building_and_encoding_a_syn_ack_with_mss_allocates_only_its_buffer() {
    let n = allocs_per_round(|| {
        let syn_ack = TcpSegment::builder(80, 5555)
            .seq(9_000)
            .ack(101)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(65535)
            .build();
        let bytes = syn_ack.encode(A_P, A_C);
        assert_eq!(std::hint::black_box(bytes).len(), 24);
    });
    assert_eq!(n, 1, "a SYN-ACK with MSS allocated {n} times");
}
