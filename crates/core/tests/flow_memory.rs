//! A flow table holds what it serves: the memory behind a bridge's
//! flows follows the flows resident, not the capacity it is configured
//! for.
//!
//! A counting `#[global_allocator]` keeps the live heap bytes of each
//! thread, as `zero_alloc.rs` keeps its allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tcpfo_core::designation::FailoverConfig;
use tcpfo_core::flow::FlowTableConfig;
use tcpfo_core::primary::PrimaryBridge;
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput, SegmentFilter};
use tcpfo_wire::tcp::{TcpFlags, TcpSegment};

struct CountingAlloc;

std::thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn count(by: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + by));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

/// The limit every testbed configures.
const CAPACITY: usize = 65_536;

fn client_syn(port: u16) -> AddressedSegment {
    let seg = TcpSegment::builder(port, 80)
        .seq(100)
        .flags(TcpFlags::SYN)
        .mss(1460)
        .window(60_000)
        .build();
    AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec())
}

#[test]
fn a_flow_table_holds_what_it_serves() {
    const FLOWS: u16 = 1_000;
    let syns: Vec<_> = (0..FLOWS).map(|i| client_syn(10_000 + i)).collect();
    let mut out = FilterOutput::empty();
    let base = live();
    let mut bridge = PrimaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
    bridge.set_flow_config(FlowTableConfig::new(1, CAPACITY));
    let empty = live() - base;
    for syn in syns {
        bridge.on_inbound_into(syn, 0, &mut out);
        out.clear();
    }
    let held = live() - base;
    assert_eq!(bridge.conn_count(), usize::from(FLOWS));
    assert!(
        empty < 64 * 1024,
        "a bridge configured for {CAPACITY} flows holds {empty} B before the first"
    );
    assert!(
        held < 1 << 20,
        "a bridge holding {FLOWS} of {CAPACITY} flows holds {held} B"
    );
}
