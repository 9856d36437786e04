//! Two-stack scenario tests for behaviours the in-module unit tests do
//! not reach: simultaneous open, asymmetric MSS negotiation, listener
//! backlogs, TIME-WAIT tuple retirement, and mid-stream RST.

use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::config::{TcpConfig, TIME_WAIT};
use tcpfo_tcp::socket::{SocketError, TcpState};
use tcpfo_tcp::stack::TcpStack;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_wire::ipv4::Ipv4Addr;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn cfg(seed: u64) -> TcpConfig {
    TcpConfig {
        delayed_ack: None,
        nagle: false,
        ..TcpConfig::default().with_isn_seed(seed)
    }
}

fn exchange(a: &mut TcpStack, b: &mut TcpStack, now: SimTime) {
    for _ in 0..500 {
        let fa = a.take_outbox();
        let fb = b.take_outbox();
        if fa.is_empty() && fb.is_empty() {
            return;
        }
        for s in fa {
            b.on_segment(&s, now);
        }
        for s in fb {
            a.on_segment(&s, now);
        }
    }
    panic!("exchange did not quiesce");
}

/// Deliver segments with explicit control: returns (a_out, b_out).
fn tick_both(a: &mut TcpStack, b: &mut TcpStack, now: SimTime) {
    a.on_tick(now);
    b.on_tick(now);
}

#[test]
fn simultaneous_open_establishes() {
    // Both sides actively connect to each other's pre-agreed ports.
    // RFC 793's simultaneous open: SYN crossing SYN.
    let now = SimTime::ZERO;
    let mut a = TcpStack::new(TcpConfig {
        ephemeral_start: 7000,
        ..cfg(1)
    });
    let mut b = TcpStack::new(TcpConfig {
        ephemeral_start: 7000,
        ..cfg(2)
    });
    // Same deterministic ephemeral port (7000) on both sides.
    let ca = a.connect(A, SocketAddr::new(B, 7000), false, now).unwrap();
    let cb = b.connect(B, SocketAddr::new(A, 7000), false, now).unwrap();
    // Cross-deliver the SYNs simultaneously.
    let syn_a = a.take_outbox();
    let syn_b = b.take_outbox();
    for s in syn_b {
        a.on_segment(&s, now);
    }
    for s in syn_a {
        b.on_segment(&s, now);
    }
    exchange(&mut a, &mut b, now);
    assert!(
        a.socket(ca).unwrap().is_established(),
        "a: {:?}",
        a.socket(ca).unwrap().state
    );
    assert!(
        b.socket(cb).unwrap().is_established(),
        "b: {:?}",
        b.socket(cb).unwrap().state
    );
    // Data flows in both directions afterwards.
    a.send(ca, b"from a", now).unwrap();
    b.send(cb, b"from b", now).unwrap();
    exchange(&mut a, &mut b, now);
    assert_eq!(b.recv(cb, 100, now).unwrap(), b"from a");
    assert_eq!(a.recv(ca, 100, now).unwrap(), b"from b");
}

#[test]
fn asymmetric_mss_uses_minimum() {
    let now = SimTime::ZERO;
    let mut server = TcpStack::new(TcpConfig { mss: 700, ..cfg(1) });
    server.listen(80, false).unwrap();
    let mut client = TcpStack::new(TcpConfig {
        mss: 1460,
        ..cfg(2)
    });
    let cs = client
        .connect(A, SocketAddr::new(B, 80), false, now)
        .unwrap();
    exchange(&mut client, &mut server, now);
    assert_eq!(client.socket(cs).unwrap().effective_mss(), 700);
    // A 2 KB write goes out in ≤700-byte segments.
    client.send(cs, &vec![9u8; 2000], now).unwrap();
    let segs = client.peek_outbox();
    assert!(!segs.is_empty());
    for (_, _, seg) in &segs {
        assert!(seg.payload.len() <= 700, "segment of {}", seg.payload.len());
    }
}

#[test]
fn listener_backlog_holds_multiple_pending_accepts() {
    let now = SimTime::ZERO;
    let mut server = TcpStack::new(cfg(1));
    let l = server.listen(80, false).unwrap();
    let mut client = TcpStack::new(cfg(2));
    let mut conns = Vec::new();
    for _ in 0..5 {
        conns.push(
            client
                .connect(A, SocketAddr::new(B, 80), false, now)
                .unwrap(),
        );
    }
    exchange(&mut client, &mut server, now);
    // The server app accepts them all, in order, after the fact.
    let mut accepted = 0;
    while server.accept(l).is_some() {
        accepted += 1;
    }
    assert_eq!(accepted, 5);
    for c in conns {
        assert!(client.socket(c).unwrap().is_established());
    }
}

#[test]
fn time_wait_blocks_then_frees_tuple() {
    let now = SimTime::ZERO;
    let mut server = TcpStack::new(cfg(1));
    let l = server.listen(80, false).unwrap();
    let mut client = TcpStack::new(TcpConfig {
        ephemeral_start: 9000,
        ..cfg(2)
    });
    let c1 = client
        .connect(A, SocketAddr::new(B, 80), false, now)
        .unwrap();
    exchange(&mut client, &mut server, now);
    let s1 = server.accept(l).unwrap();
    client.close(c1, now).unwrap();
    exchange(&mut client, &mut server, now);
    server.close(s1, now).unwrap();
    exchange(&mut client, &mut server, now);
    assert_eq!(client.socket(c1).unwrap().state, TcpState::TimeWait);
    // The same 4-tuple cannot be reused while TIME-WAIT holds it...
    let tuple_port = client.socket(c1).unwrap().tuple.local.port;
    let retry = client.connect_from(A, Some(tuple_port), SocketAddr::new(B, 80), false, now);
    assert!(retry.is_err(), "tuple reuse during TIME-WAIT");
    // ...but after expiry it can.
    let later = now + TIME_WAIT + SimDuration::from_millis(5);
    tick_both(&mut client, &mut server, later);
    let retry = client.connect_from(A, Some(tuple_port), SocketAddr::new(B, 80), false, later);
    assert!(retry.is_ok(), "tuple must be free after TIME-WAIT");
    exchange(&mut client, &mut server, later);
    assert!(client.socket(retry.unwrap()).unwrap().is_established());
}

#[test]
fn rst_mid_stream_resets_both_reader_and_writer() {
    let now = SimTime::ZERO;
    let mut server = TcpStack::new(cfg(1));
    let l = server.listen(80, false).unwrap();
    let mut client = TcpStack::new(cfg(2));
    let cs = client
        .connect(A, SocketAddr::new(B, 80), false, now)
        .unwrap();
    exchange(&mut client, &mut server, now);
    let ss = server.accept(l).unwrap();
    client.send(cs, b"some data", now).unwrap();
    exchange(&mut client, &mut server, now);
    server.abort(ss, now).unwrap();
    exchange(&mut client, &mut server, now);
    let sock = client.socket(cs).unwrap();
    assert_eq!(sock.state, TcpState::Closed);
    assert_eq!(sock.error, Some(SocketError::Reset));
}

#[test]
fn half_close_keeps_reverse_stream_flowing() {
    let now = SimTime::ZERO;
    let mut server = TcpStack::new(cfg(1));
    let l = server.listen(80, false).unwrap();
    let mut client = TcpStack::new(cfg(2));
    let cs = client
        .connect(A, SocketAddr::new(B, 80), false, now)
        .unwrap();
    exchange(&mut client, &mut server, now);
    let ss = server.accept(l).unwrap();
    // Client closes its direction immediately (a request/response
    // pattern with early shutdown, §8's half-closed state).
    client.send(cs, b"REQUEST", now).unwrap();
    client.close(cs, now).unwrap();
    exchange(&mut client, &mut server, now);
    assert_eq!(server.recv(ss, 100, now).unwrap(), b"REQUEST");
    assert!(server.socket(ss).unwrap().peer_closed());
    // The server may stream a long response into the half-closed pipe.
    for chunk in 0..10 {
        server.send(ss, &vec![chunk as u8; 5000], now).unwrap();
        exchange(&mut client, &mut server, now);
        let got = client.recv(cs, usize::MAX, now).unwrap();
        assert_eq!(got.len(), 5000, "chunk {chunk}");
        assert!(got.iter().all(|&b| b == chunk as u8));
    }
    server.close(ss, now).unwrap();
    exchange(&mut client, &mut server, now);
    assert_eq!(server.socket(ss).unwrap().state, TcpState::Closed);
    assert_eq!(client.socket(cs).unwrap().state, TcpState::TimeWait);
}
