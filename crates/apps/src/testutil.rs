//! In-crate test harness: two TCP stacks wired back-to-back with zero
//! loss, driving apps through the same `SocketApi` the real host uses.

use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_tcp::app::{SocketApi, SocketApp};
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::filter::AddressedSegment;
use tcpfo_tcp::stack::TcpStack;
use tcpfo_wire::ipv4::Ipv4Addr;

/// Client-side address used by the harness.
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Server-side address used by the harness.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A lossless, zero-latency stack pair.
pub struct Duplex {
    /// Client stack.
    pub a: TcpStack,
    /// Server stack.
    pub b: TcpStack,
    /// Simulated clock, advanced 1 ms per step.
    pub now: SimTime,
    /// FNV-1a over every segment exchanged, in delivery order, and each
    /// step's `send` call counts: equal digests mean the same calls and
    /// the same bytes on the wire.
    pub wire: u64,
}

impl Duplex {
    /// Creates the pair with deterministic, distinct ISN seeds.
    pub fn new() -> Self {
        let cfg = TcpConfig {
            delayed_ack: None,
            nagle: false,
            ..TcpConfig::default()
        };
        Duplex {
            a: TcpStack::new(cfg.clone().with_isn_seed(11)),
            b: TcpStack::new(cfg.with_isn_seed(22)),
            now: SimTime::ZERO,
            wire: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn record(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.wire = (self.wire ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn deliver(&mut self, from_a: Vec<AddressedSegment>, from_b: Vec<AddressedSegment>) {
        for seg in from_a {
            self.record(&seg.bytes);
            self.b.on_segment(&seg, self.now);
        }
        for seg in from_b {
            self.record(&seg.bytes);
            self.a.on_segment(&seg, self.now);
        }
    }

    /// One round: poll both apps, exchange all queued segments until
    /// quiescent, then advance the clock and fire timers.
    pub fn step(&mut self, client: &mut dyn SocketApp, server: &mut dyn SocketApp) {
        self.step_multi(&mut [client], server);
    }

    /// Like [`Duplex::step`] with several client apps sharing stack `a`.
    pub fn step_multi(&mut self, clients: &mut [&mut dyn SocketApp], server: &mut dyn SocketApp) {
        for _ in 0..64 {
            for c in clients.iter_mut() {
                let mut api = SocketApi::new(&mut self.a, self.now, CLIENT_IP);
                c.poll(&mut api);
            }
            {
                let mut api = SocketApi::new(&mut self.b, self.now, SERVER_IP);
                server.poll(&mut api);
            }
            let from_a = self.a.take_outbox();
            let from_b = self.b.take_outbox();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            self.deliver(from_a, from_b);
        }
        self.now += SimDuration::from_millis(1);
        self.a.on_tick(self.now);
        self.b.on_tick(self.now);
        // Deliver anything the timers produced.
        let (from_a, from_b) = (self.a.take_outbox(), self.b.take_outbox());
        self.deliver(from_a, from_b);
        let calls = [self.a.send_calls, self.b.send_calls];
        self.record(&calls.map(u64::to_le_bytes).concat());
    }
}

impl Default for Duplex {
    fn default() -> Self {
        Duplex::new()
    }
}
