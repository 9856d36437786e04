//! Idle connections cost nothing (counts, not clocks): the same 200
//! short request/reply connections through the replicated pair, once on
//! an empty server and once beside 512 established connections that
//! have nothing to do. What the stacks' timers and the server
//! application look at must follow the traffic, not the number of open
//! sockets — and the residents must be none the worse for being
//! ignored.

use std::any::Any;
use tcp_failover::apps::conn::pattern;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::app::{SocketApi, SocketApp};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::socket::TcpState;
use tcp_failover::tcp::types::{SocketAddr, SocketId};

const SHORTS: usize = 200;
const REPLY: usize = 2_000;
const PROBE_REPLY: usize = 100;
/// Short connections in flight at once.
const WINDOW: usize = 4;

/// One request/reply exchange on a connection.
struct Exchange {
    id: SocketId,
    want: usize,
    requested: bool,
    got: Vec<u8>,
}

impl Exchange {
    fn new(id: SocketId, want: usize) -> Self {
        Exchange {
            id,
            want,
            requested: false,
            got: Vec::new(),
        }
    }

    /// Sends the request once established and collects the reply;
    /// `true` once it is complete.
    fn drive(&mut self, api: &mut SocketApi<'_>) -> bool {
        if !self.requested && api.is_established(self.id) {
            let req = format!("SEND {}\n", self.want);
            assert_eq!(api.send(self.id, req.as_bytes()), Ok(req.len()));
            self.requested = true;
        }
        self.got
            .extend(api.recv(self.id, usize::MAX).unwrap_or_default());
        self.got.len() >= self.want
    }
}

/// Opens the residents, then (when told to) runs the short connections
/// `WINDOW` at a time, then (when told to) asks every resident for a
/// small reply.
struct Load {
    server: SocketAddr,
    residents_target: usize,
    residents: Vec<SocketId>,
    shorts_target: usize,
    started: usize,
    active: Vec<Exchange>,
    closing: Vec<SocketId>,
    replies: Vec<Vec<u8>>,
    probes: Option<Vec<Exchange>>,
}

impl Load {
    fn new(server: SocketAddr, residents: usize) -> Self {
        Load {
            server,
            residents_target: residents,
            residents: Vec::new(),
            shorts_target: 0,
            started: 0,
            active: Vec::new(),
            closing: Vec::new(),
            replies: Vec::new(),
            probes: None,
        }
    }

    fn probe_residents(&mut self) {
        let probes = self.residents.iter();
        self.probes = Some(probes.map(|&id| Exchange::new(id, PROBE_REPLY)).collect());
    }
}

impl SocketApp for Load {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        for _ in 0..4 {
            if self.residents.len() < self.residents_target {
                self.residents
                    .push(api.connect(self.server, false).unwrap());
            }
        }
        while self.active.len() < WINDOW && self.started < self.shorts_target {
            let id = api.connect(self.server, false).unwrap();
            self.active.push(Exchange::new(id, REPLY));
            self.started += 1;
        }
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].drive(api) {
                let done = self.active.remove(i);
                api.close(done.id).unwrap();
                self.closing.push(done.id);
                self.replies.push(done.got);
            } else {
                i += 1;
            }
        }
        self.closing.retain(|&id| {
            let gone = api
                .state(id)
                .is_none_or(|s| matches!(s, TcpState::Closed | TcpState::TimeWait));
            if gone {
                api.release(id);
            }
            !gone
        });
        for probe in self.probes.iter_mut().flatten() {
            probe.drive(api);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the churn phase cost, in things looked at.
#[derive(Debug)]
struct Cost {
    /// `SourceServer::services` on the primary and the secondary.
    services: [u64; 2],
    /// `TcpStack::timer_visits` on the client, primary and secondary.
    timer_visits: [u64; 3],
}

fn counters(tb: &mut Testbed) -> Cost {
    let servers = [tb.primary, tb.secondary.unwrap()];
    let hosts = [tb.client, servers[0], servers[1]];
    Cost {
        services: servers.map(|n| {
            tb.sim
                .with::<Host, _>(n, |h, _| h.app_mut::<SourceServer>(0).services)
        }),
        timer_visits: hosts.map(|n| tb.sim.with::<Host, _>(n, |h, _| h.stack().timer_visits)),
    }
}

fn churn_beside(residents: usize) -> Cost {
    let mut tb = Testbed::new(TestbedConfig::default());
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    let client = tb.client;
    let load = tb.sim.with::<Host, _>(client, |h, _| {
        h.add_app(Box::new(Load::new(
            SocketAddr::new(addrs::A_P, 80),
            residents,
        )))
    });
    let established = |tb: &mut Testbed| {
        tb.sim.with::<Host, _>(client, |h, _| {
            let ids = h.app_mut::<Load>(load).residents.clone();
            let up = |id: &SocketId| h.stack().socket(*id).unwrap().state == TcpState::Established;
            ids.iter().filter(|id| up(id)).count()
        })
    };

    tb.run_for(SimDuration::from_secs(3));
    assert_eq!(established(&mut tb), residents, "residents never came up");

    let before = counters(&mut tb);
    tb.sim.with::<Host, _>(client, |h, _| {
        h.app_mut::<Load>(load).shorts_target = SHORTS;
    });
    tb.run_for(SimDuration::from_secs(10));
    let after = counters(&mut tb);

    let expected = pattern(0, REPLY);
    tb.sim.with::<Host, _>(client, |h, _| {
        let l = h.app_mut::<Load>(load);
        assert_eq!(l.replies.len(), SHORTS, "short connections incomplete");
        assert!(l.closing.is_empty(), "short connections never closed");
        assert!(l.replies.iter().all(|r| *r == expected), "reply corrupted");
    });
    assert_eq!(established(&mut tb), residents, "a resident was disturbed");

    // Ignored all this while, every resident still answers.
    tb.sim
        .with::<Host, _>(client, |h, _| h.app_mut::<Load>(load).probe_residents());
    tb.run_for(SimDuration::from_secs(3));
    let expected = pattern(0, PROBE_REPLY);
    tb.sim.with::<Host, _>(client, |h, _| {
        let probes = h.app_mut::<Load>(load).probes.take().unwrap();
        assert_eq!(probes.len(), residents);
        assert!(
            probes.iter().all(|p| p.got == expected),
            "a resident is deaf"
        );
    });
    assert_eq!(tb.primary_stats().mismatched_bytes, 0);

    Cost {
        services: [0, 1].map(|i| after.services[i] - before.services[i]),
        timer_visits: [0, 1, 2].map(|i| after.timer_visits[i] - before.timer_visits[i]),
    }
}

#[test]
fn churn_costs_the_same_beside_512_idle_residents() {
    let alone = churn_beside(0);
    let beside = churn_beside(512);
    // Serving everything on every poll, or ticking every socket, would
    // multiply these by hundreds; the slack covers a different
    // interleaving, not a scan.
    for (a, b) in alone.services.iter().zip(beside.services) {
        assert!(*a > 0 && b <= 2 * a, "services: {alone:?} → {beside:?}");
    }
    for (a, b) in alone.timer_visits.iter().zip(beside.timer_visits) {
        assert!(b <= 2 * a + 16, "timer visits: {alone:?} → {beside:?}");
    }
    // A few looks per segment exchanged, whoever else is connected.
    assert!(beside.services.iter().all(|&s| s < 40 * SHORTS as u64));
}
