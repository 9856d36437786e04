//! Anatomy of the bridge: drive the primary's and the secondary's
//! bridges — the head and the tail of a pair, one type at two places —
//! directly with hand-built segments and print what they do at each
//! step of §3 — diversion with the orig-dest option, Δseq
//! normalisation, output-queue matching, min-ack/min-window merging,
//! and the §3.4 empty-ACK rule. No network, no hosts: just the
//! sublayer the paper adds between TCP and IP.
//!
//! Run with: `cargo run --example bridge_anatomy`

use bytes::Bytes;
use tcp_failover::core::{FailoverConfig, PrimaryBridge};
use tcp_failover::tcp::filter::{AddressedSegment, SegmentFilter};
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::tcp::{TcpFlags, TcpSegment};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

fn seg(src: Ipv4Addr, dst: Ipv4Addr, s: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, s.encode(src, dst).to_vec())
}

fn show(prefix: &str, out: &tcp_failover::tcp::filter::FilterOutput) {
    for w in &out.to_wire {
        let p = TcpSegment::decode(&w.bytes).unwrap();
        println!(
            "{prefix} → wire {}→{} seq={} ack={} win={} len={} [{}]{}",
            w.src,
            w.dst,
            p.seq,
            p.ack,
            p.window,
            p.payload.len(),
            p.flags,
            p.orig_dest()
                .map(|(a, po)| format!(" orig-dest={a}:{po}"))
                .unwrap_or_default(),
        );
    }
    for t in &out.to_tcp {
        let p = TcpSegment::decode(&t.bytes).unwrap();
        println!(
            "{prefix} → tcp  {}→{} seq={} ack={} len={} [{}]",
            t.src,
            t.dst,
            p.seq,
            p.ack,
            p.payload.len(),
            p.flags
        );
    }
    if out.to_wire.is_empty() && out.to_tcp.is_empty() {
        println!("{prefix} → (held)");
    }
}

fn main() {
    let cfg = FailoverConfig::from_ports([80]);
    let mut primary = PrimaryBridge::new(A_P, A_S, cfg.clone());
    // The secondary's bridge: a link at A_S below the head, nobody below it.
    let mut secondary = PrimaryBridge::link(A_P, A_S, Some(A_P), None, cfg);

    println!("== handshake (§7.1): client SYN, ISNs P=5000 S=9000, Δseq=-4000 ==");
    let client_syn = seg(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(100)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60000)
            .build(),
    );
    show(
        "P.in  client SYN     ",
        &primary.on_inbound(client_syn.clone(), 0),
    );
    show(
        "S.in  client SYN     ",
        &secondary.on_inbound(client_syn, 0),
    );
    // Both TCP layers answer; the primary bridge holds P's SYN+ACK…
    let p_synack = seg(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(5000)
            .ack(101)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(50000)
            .build(),
    );
    show("P.out P SYN+ACK      ", &primary.on_outbound(p_synack, 0));
    // …the secondary's is diverted to P with the orig-dest option…
    let s_synack = seg(
        A_S,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(9000)
            .ack(101)
            .flags(TcpFlags::SYN)
            .mss(1200)
            .window(40000)
            .build(),
    );
    let diverted = secondary.on_outbound(s_synack, 0);
    show("S.out S SYN+ACK      ", &diverted);
    // …and on arrival the bridge merges: seq from S's space, MSS=min.
    show(
        "P.in  S SYN+ACK      ",
        &primary.on_inbound(diverted.to_wire.into_iter().next().unwrap(), 0),
    );

    println!("\n== client ACK: translated +Δseq for P's TCP layer ==");
    let client_ack = seg(
        A_C,
        A_P,
        TcpSegment::builder(5555, 80)
            .seq(101)
            .ack(9001)
            .window(60000)
            .build(),
    );
    show(
        "P.in  client ACK     ",
        &primary.on_inbound(client_ack.clone(), 0),
    );
    show(
        "S.in  client ACK     ",
        &secondary.on_inbound(client_ack, 0),
    );

    println!("\n== data (§3.4, Figure 2): released only when both replicas produced it ==");
    let p_data = seg(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(5001)
            .ack(101)
            .window(50000)
            .payload(Bytes::from_static(b"hello from the replicated service"))
            .build(),
    );
    show("P.out P data         ", &primary.on_outbound(p_data, 0));
    let s_data = seg(
        A_S,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(9001)
            .ack(101)
            .window(40000)
            .payload(Bytes::from_static(b"hello from the replicated service"))
            .build(),
    );
    let s_div = secondary.on_outbound(s_data, 0);
    show("S.out S data         ", &s_div);
    show(
        "P.in  S data (match!)",
        &primary.on_inbound(s_div.to_wire.into_iter().next().unwrap(), 0),
    );

    println!("\n== delayed-ACK deadlock prevention (§3.4): min(ack) advance → bare ACK ==");
    let p_ack = seg(
        A_P,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(5035)
            .ack(161)
            .window(50000)
            .build(),
    );
    show("P.out P delayed ack  ", &primary.on_outbound(p_ack, 0));
    let s_ack = seg(
        A_S,
        A_C,
        TcpSegment::builder(80, 5555)
            .seq(9035)
            .ack(161)
            .window(40000)
            .build(),
    );
    let s_ack_div = secondary.on_outbound(s_ack, 0);
    show(
        "P.in  S delayed ack  ",
        &primary.on_inbound(s_ack_div.to_wire.into_iter().next().unwrap(), 0),
    );

    println!("\nstats: {:?}", primary.stats);
}
