//! What lets the stack skip idle sockets: `Socket::output` is a fixed
//! point. After any mutation (a segment, an application call, a tick)
//! one `output` emits everything the connection owes the network; a
//! second one, at the same instant, emits nothing and changes nothing,
//! the timer deadlines included. A socket nothing has happened to can
//! therefore be left alone until its `next_deadline()`.

use proptest::prelude::*;
use std::collections::VecDeque;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::socket::Socket;
use tcpfo_tcp::types::{FourTuple, SocketAddr};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::TcpSegment;

/// One step of the script; `bool` picks the side (client = `false`).
#[derive(Debug, Clone)]
enum Op {
    Send(bool, usize),
    Recv(bool, usize),
    Close(bool),
    /// Advances the clock by this many ms and ticks both sides.
    Tick(u64),
    /// Delivers up to this many of the side's in-flight segments.
    Deliver(bool, usize),
    /// Loses the side's oldest in-flight segment.
    Lose(bool),
    /// Delivers the side's oldest in-flight segment twice.
    Duplicate(bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let side = any::<bool>;
    prop_oneof![
        3 => (side(), 1usize..6000).prop_map(|(s, n)| Op::Send(s, n)),
        2 => (side(), 1usize..9000).prop_map(|(s, n)| Op::Recv(s, n)),
        1 => side().prop_map(Op::Close),
        3 => prop_oneof![1u64..5, 30u64..60, 200u64..4000].prop_map(Op::Tick),
        6 => (side(), 1usize..8).prop_map(|(s, n)| Op::Deliver(s, n)),
        1 => side().prop_map(Op::Lose),
        1 => side().prop_map(Op::Duplicate),
    ]
}

/// A socket and the segments it has emitted that are still in flight.
struct End {
    sock: Socket,
    wire: VecDeque<TcpSegment>,
}

impl End {
    /// Runs `output`, then checks that running it again is a no-op.
    fn settle(&mut self, now: SimTime, cfg: &TcpConfig) {
        let mut out = Vec::new();
        self.sock.output(now, cfg, &mut out);
        self.wire.extend(out);
        let before = format!("{:?}", self.sock);
        let deadline = self.sock.next_deadline();
        let mut again = Vec::new();
        self.sock.output(now, cfg, &mut again);
        assert!(again.is_empty(), "second output emitted {again:?}");
        assert_eq!(self.sock.next_deadline(), deadline);
        assert_eq!(format!("{:?}", self.sock), before);
    }
}

fn run(ops: &[Op], cfg: &TcpConfig) {
    let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
    let b = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let mut now = SimTime::ZERO;
    let mut client = End {
        sock: Socket::client(FourTuple::new(a, b), 1_000, cfg),
        wire: VecDeque::new(),
    };
    client.settle(now, cfg);
    let syn = client.wire.pop_front().expect("SYN");
    let mut server = End {
        sock: Socket::server(FourTuple::new(b, a), 9_000, &syn, cfg),
        wire: VecDeque::new(),
    };
    server.settle(now, cfg);
    for op in ops {
        let pick = |s: bool| if s { 1 } else { 0 };
        let mut ends = [&mut client, &mut server];
        match *op {
            Op::Send(s, n) => {
                ends[pick(s)].sock.send(&vec![0x5a; n]);
            }
            Op::Recv(s, n) => {
                ends[pick(s)].sock.recv(n, cfg);
            }
            Op::Close(s) => ends[pick(s)].sock.close(),
            Op::Tick(ms) => {
                now += SimDuration::from_millis(ms);
                for end in ends.iter_mut() {
                    end.sock.on_tick(now);
                }
            }
            Op::Deliver(s, n) => {
                for _ in 0..n {
                    let Some(seg) = ends[pick(s)].wire.pop_front() else {
                        break;
                    };
                    let to = &mut ends[pick(!s)];
                    to.sock.on_segment(&seg, now, cfg);
                    to.settle(now, cfg);
                }
            }
            Op::Lose(s) => {
                ends[pick(s)].wire.pop_front();
            }
            Op::Duplicate(s) => {
                if let Some(seg) = ends[pick(s)].wire.pop_front() {
                    for _ in 0..2 {
                        let to = &mut ends[pick(!s)];
                        to.sock.on_segment(&seg, now, cfg);
                        to.settle(now, cfg);
                    }
                }
            }
        }
        for end in ends {
            end.settle(now, cfg);
        }
    }
}

proptest! {
    #[test]
    fn second_output_is_a_no_op(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run(&ops, &TcpConfig::default());
    }

    /// The configuration the paper-calibrated testbeds and most unit
    /// tests use: immediate ACKs, no Nagle, and a small receive buffer
    /// so zero windows and persist probes occur.
    #[test]
    fn second_output_is_a_no_op_without_delayed_ack(
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let cfg = TcpConfig {
            delayed_ack: None,
            nagle: false,
            recv_buffer: 4096,
            ..TcpConfig::default()
        };
        run(&ops, &cfg);
    }
}
