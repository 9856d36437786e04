//! One buffer per frame: once a bulk download through the replicated
//! pair is warm, a frame's buffers come off the per-thread free list of
//! the vendored `bytes` crate instead of the allocator. Each MSS segment
//! the client receives was written as a TCP segment by both replicas,
//! framed, forwarded, matched and released by the primary's bridge and
//! routed to the client; with one allocation per buffer and recycling,
//! none of that reaches `malloc` with a frame-sized request.
//!
//! A counting `#[global_allocator]` counts, per thread, the allocations
//! of at least 1 KB. The client reads at most 512 bytes a call, so its
//! own reads stay below that size; what remains is the server's
//! 16 KB pattern slabs, well under one per segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use tcp_failover::apps::conn::pattern_mismatches;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::app::{SocketApi, SocketApp};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::{SocketAddr, SocketId};

struct CountingAlloc;

const LARGE: usize = 1024;

std::thread_local! {
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

fn note(size: usize) {
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it from inside the allocator cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const MSS: u64 = 1460;
const READ_AT_MOST: usize = 512;

/// Asks for one long download and reads it back in small bites,
/// checking every byte against the pattern.
struct SmallReader {
    conn: Option<SocketId>,
    request: &'static [u8],
    sent: usize,
    received: u64,
    mismatches: u64,
}

impl SocketApp for SmallReader {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        let Some(c) = self.conn else {
            self.conn = api.connect(SocketAddr::new(addrs::A_P, 80), false).ok();
            return;
        };
        if !api.is_established(c) {
            return;
        }
        if self.sent < self.request.len() {
            self.sent += api.send(c, &self.request[self.sent..]).unwrap_or(0);
        }
        loop {
            let data = api.recv(c, READ_AT_MOST).unwrap_or_default();
            if data.is_empty() {
                break;
            }
            self.mismatches += pattern_mismatches(self.received, &data);
            self.received += data.len() as u64;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn received(tb: &mut Testbed) -> (u64, u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let r = h.app_mut::<SmallReader>(0);
        (r.received, r.mismatches)
    })
}

#[test]
fn a_delivered_segment_costs_at_most_one_large_allocation() {
    let mut tb = Testbed::new(TestbedConfig::default());
    for replica in [Some(tb.primary), tb.secondary] {
        let replica = replica.expect("a replicated pair");
        tb.sim.with::<Host, _>(replica, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(SmallReader {
            conn: None,
            request: b"SEND 100000000\n",
            sent: 0,
            received: 0,
            mismatches: 0,
        }));
    });

    tb.run_for(SimDuration::from_millis(300));
    let (before, _) = received(&mut tb);
    assert!(before > 0, "the download never started");
    let allocs_before = large_allocs();
    tb.run_for(SimDuration::from_millis(500));
    let large = large_allocs() - allocs_before;
    let (after, mismatches) = received(&mut tb);

    assert_eq!(mismatches, 0, "the merged stream is corrupt");
    let segments = (after - before) / MSS;
    assert!(segments >= 500, "only {segments} segments in the window");
    let per_segment = large as f64 / segments as f64;
    assert!(
        per_segment <= 1.0,
        "{large} allocations of at least {LARGE} B for {segments} delivered segments \
         ({per_segment:.2} a segment)"
    );
}
