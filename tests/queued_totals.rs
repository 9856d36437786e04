//! The output-queue depths every bridge publishes, held to a walk over
//! its connection table: after every simulated millisecond of a scene,
//! each living replica's bridge publishes (`sync_telemetry`), and its
//! `pq_depth` / `sq_depth` gauges must equal the sums of
//! `connection_rows()`' `pq_bytes` / `sq_bytes` while it merges
//! (`Normal`), and read 0 in §6.
//!
//! The scenes cover every way queued bytes arrive and leave: a plain
//! pair download, loss towards the primary (the two queues drift
//! apart), the secondary killed (§6 flushes the primary's queues) and
//! then rejoined (the bridge merges, and publishes, again), a chain's
//! head killed and its tail reprovisioned (adoption), a flow table
//! small enough to evict live flows, TimeWait and idle GC on short
//! TTLs, and a server that resets its connections mid-transfer. In the
//! last three, and in two scenes where only the primary's server sends
//! (its bytes are never matched), flows leave while holding bytes.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::flow::GcPolicy;
use tcp_failover::core::reprovision::ReprovisionPhase;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainController, FlowTableConfig, PrimaryBridge, PrimaryMode};
use tcp_failover::net::sim::{NodeId, Simulator};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::app::{SocketApi, SocketApp};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::{ListenerId, SocketAddr, SocketId};

const MS: SimDuration = SimDuration::from_millis(1);

/// A pair (or chain of `replicas`) with its observers pinned off, so
/// the environment's switches cannot change what a scene does.
fn config(replicas: usize) -> TestbedConfig {
    TestbedConfig {
        seed: 0x07E5_7BED,
        replicas,
        audit: Some(false),
        latency: Some(false),
        health: Some(false),
        span_trace: Some(false),
        ..TestbedConfig::default()
    }
}

/// Every replica serves the pattern source on port 80; the client runs
/// one download of each size in `downloads`.
fn serving(config: TestbedConfig, downloads: &[u64]) -> Testbed {
    let mut tb = Testbed::new(config);
    tb.install_servers(|| SourceServer::new(80));
    add_downloads(&mut tb.sim, tb.client, downloads);
    tb
}

fn add_downloads(sim: &mut Simulator, client: NodeId, downloads: &[u64]) {
    sim.with::<Host, _>(client, |h, _| {
        for &bytes in downloads {
            let request = format!("SEND {bytes}\n").into_bytes();
            let vip = SocketAddr::new(addrs::A_P, 80);
            h.add_app(Box::new(RequestReplyClient::new(vip, request, bytes)));
        }
    });
}

/// Runs `f` against replica `i`'s bridge.
fn with_bridge<R>(tb: &mut Testbed, i: usize, f: impl FnOnce(&mut PrimaryBridge) -> R) -> R {
    let node = tb.replicas[i];
    tb.sim.with::<Host, _>(node, |h, _| {
        let bridge = h.filter_mut().as_any_mut().downcast_mut::<PrimaryBridge>();
        f(bridge.expect("every replica runs a bridge"))
    })
}

/// The check, on every living replica: publish now, then compare the
/// gauges with the table walk. Returns the bytes the walk found queued
/// across the replicas, so a scene can show it queued some.
fn check(tb: &mut Testbed) -> u64 {
    let now = tb.sim.now().as_nanos();
    let mut seen = 0;
    for i in 0..tb.replicas.len() {
        if tb.is_dead(i) {
            continue;
        }
        let (mode, pq, sq) = with_bridge(tb, i, |b| {
            b.sync_telemetry(now);
            let rows = b.connection_rows();
            let pq: usize = rows.iter().map(|r| r.pq_bytes).sum();
            let sq: usize = rows.iter().map(|r| r.sq_bytes).sum();
            (b.mode(), pq as u64, sq as u64)
        });
        seen += pq + sq;
        let want = match mode {
            PrimaryMode::Normal => (pq, sq),
            PrimaryMode::SecondaryFailed => (0, 0),
        };
        let snap = tb.hubs[i].registry.snapshot(now);
        let gauge = |field: &str| {
            ["core.primary", "core.secondary"]
                .iter()
                .find_map(|scope| snap.gauge(&format!("{scope}.{field}")))
                .unwrap_or_else(|| panic!("replica {i} publishes {field}"))
                .value
        };
        let got = (gauge("pq_depth"), gauge("sq_depth"));
        assert_eq!(
            got, want,
            "replica {i} at {now} ns ({mode:?}): published (pq, sq) against the walk"
        );
    }
    seen
}

/// Runs `ms` simulated milliseconds, checking after each; returns the
/// most bytes any one check found queued.
fn run_checked(tb: &mut Testbed, ms: u64) -> u64 {
    let mut most = 0;
    for _ in 0..ms {
        tb.run_for(MS);
        most = most.max(check(tb));
    }
    most
}

#[test]
fn a_pair_download() {
    let mut tb = serving(config(2), &[2_000_000, 800_000]);
    let most = run_checked(&mut tb, 700);
    assert!(most > 0, "the scene must queue bytes");
}

/// §4: the primary misses client segments and the secondary's diverted
/// ones, so the two queues hold different bytes for a while.
#[test]
fn loss_towards_the_primary() {
    let mut tb = serving(
        TestbedConfig {
            loss_to_primary: 0.03,
            ..config(2)
        },
        &[2_000_000, 800_000],
    );
    let most = run_checked(&mut tb, 2_000);
    assert!(most > 0, "the scene must queue bytes");
}

/// §6: the secondary dies mid-stream; the primary flushes its queues
/// and publishes 0 from then on.
#[test]
fn secondary_killed_mid_stream() {
    let mut tb = serving(config(2), &[2_000_000, 800_000]);
    run_checked(&mut tb, 80);
    tb.kill_secondary();
    run_checked(&mut tb, 500);
    assert_eq!(
        with_bridge(&mut tb, 0, |b| b.mode()),
        PrimaryMode::SecondaryFailed
    );
}

/// §6 and back: the secondary dies while the primary's queues hold
/// what it produced ahead of it (and keeps producing through the
/// detection timeout), then is rebooted and rejoins below.
#[test]
fn secondary_killed_then_rejoined() {
    let mut tb = serving(config(2), &[2_000_000, 800_000]);
    run_checked(&mut tb, 60);
    tb.kill_secondary();
    run_checked(&mut tb, 200);
    tb.revive_secondary();
    chain_ops::rejoin_secondary(&mut tb);
    run_checked(&mut tb, 600);
    assert_eq!(with_bridge(&mut tb, 0, |b| b.mode()), PrimaryMode::Normal);
}

/// A chain of three loses its head; once the successor has taken over,
/// the tail is reprovisioned, handed the flows and caught up.
#[test]
fn chain_head_killed_then_tail_reprovisioned() {
    let mut tb = serving(config(3), &[2_000_000, 800_000]);
    run_checked(&mut tb, 80);
    tb.kill_replica(0);
    let promoted = |tb: &mut Testbed| {
        let node = tb.replicas[1];
        (tb.sim).with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().promoted_at
        })
    };
    while promoted(&mut tb).is_none() {
        run_checked(&mut tb, 1);
    }
    chain_ops::reprovision_tail(&mut tb);
    let mut waited = 0;
    while tb.tracker.phase() != ReprovisionPhase::Restored {
        run_checked(&mut tb, 10);
        tb.poll_reprovision();
        waited += 10;
        assert!(waited < 10_000, "reprovisioning never restored redundancy");
    }
    run_checked(&mut tb, 300);
}

/// A table of two flows under four downloads: opening a flow evicts a
/// live one (reset towards its client).
#[test]
fn a_small_flow_table_evicts() {
    let mut tb = serving(
        TestbedConfig {
            flow_cap: Some(2),
            ..config(2)
        },
        &[300_000, 300_000, 300_000, 300_000],
    );
    run_checked(&mut tb, 600);
    let evicted = with_bridge(&mut tb, 0, |b| b.stats.evicted_flows);
    assert!(evicted > 0, "the table must evict");
}

/// TimeWait residue and idle flows reaped on short TTLs: finished
/// downloads leave TimeWait entries, and the client dies mid-transfer
/// of a third, whose flow then idles out.
#[test]
fn gc_reaps_timewait_and_idle_flows() {
    let mut tb = serving(config(2), &[200_000, 100_000, 4_000_000]);
    for i in 0..2 {
        with_bridge(&mut tb, i, |b| {
            b.set_flow_config(FlowTableConfig {
                gc: GcPolicy {
                    timewait_ttl: 100_000_000,
                    idle_ttl: 400_000_000,
                },
                ..FlowTableConfig::default()
            })
        });
    }
    run_checked(&mut tb, 150);
    let client = tb.client;
    tb.sim.kill(client);
    run_checked(&mut tb, 2_600);
    let reaped = with_bridge(&mut tb, 0, |b| b.stats.flows_reaped);
    assert!(
        reaped >= 3,
        "GC must reap the finished and the idle flows, reaped {reaped}"
    );
}

/// A server that streams zeros to every connection it accepts, if it
/// `sends`, and resets them all at `abort_at`.
struct ResettingServer {
    listener: Option<ListenerId>,
    conns: Vec<SocketId>,
    abort_at: SimTime,
    sends: bool,
}

impl ResettingServer {
    fn new(abort_at: SimTime, sends: bool) -> Self {
        ResettingServer {
            listener: None,
            conns: Vec::new(),
            abort_at,
            sends,
        }
    }
}

impl SocketApp for ResettingServer {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        let l = *self
            .listener
            .get_or_insert_with(|| api.listen(80, true).expect("port 80 free"));
        while let Some(c) = api.accept(l) {
            self.conns.push(c);
        }
        if api.now() >= self.abort_at {
            for c in self.conns.drain(..) {
                let _ = api.abort(c);
                api.release(c);
            }
            return;
        }
        for &c in &self.conns {
            let _ = api.recv(c, usize::MAX);
            let n = api.send_space(c).min(ZEROS.len()) * usize::from(self.sends);
            if n > 0 {
                let _ = api.send(c, &ZEROS[..n]);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

static ZEROS: [u8; 16 * 1024] = [0; 16 * 1024];

/// Both replicas reset their connections mid-transfer: the primary's
/// RST removes each flow with whatever its queues held.
#[test]
fn a_reset_mid_transfer() {
    let mut tb = Testbed::new(config(2));
    let abort_at = SimTime::ZERO + SimDuration::from_millis(120);
    for node in tb.replicas.clone() {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(ResettingServer::new(abort_at, true)))
        });
    }
    add_downloads(&mut tb.sim, tb.client, &[2_000_000, 2_000_000]);
    let most = run_checked(&mut tb, 400);
    assert!(most > 0, "the scene must queue bytes");
    let (closed, live) = with_bridge(&mut tb, 0, |b| (b.stats.conns_closed, b.conn_count()));
    assert!(
        closed >= 2 && live == 0,
        "the resets close both flows: {closed} closed, {live} live"
    );
}

/// A pair where only the primary's server sends: every byte it sends
/// waits in its own queue for a copy that never comes.
fn unmatched(config: TestbedConfig) -> Testbed {
    let mut tb = Testbed::new(config);
    let never = SimTime::ZERO + SimDuration::from_secs(3_600);
    for (i, node) in tb.replicas.clone().into_iter().enumerate() {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(ResettingServer::new(never, i == 0)))
        });
    }
    add_downloads(&mut tb.sim, tb.client, &[100_000, 100_000]);
    tb
}

/// Two flows hold unmatched bytes when two more open in a table of two:
/// each opening evicts a flow with its queue full.
#[test]
fn eviction_of_flows_holding_bytes() {
    let mut tb = unmatched(TestbedConfig {
        flow_cap: Some(2),
        ..config(2)
    });
    let most = run_checked(&mut tb, 100);
    assert!(most > 0, "the scene must queue bytes");
    add_downloads(&mut tb.sim, tb.client, &[100_000, 100_000]);
    run_checked(&mut tb, 200);
    let evicted = with_bridge(&mut tb, 0, |b| b.stats.evicted_flows);
    assert!(evicted >= 2, "the table must evict, evicted {evicted}");
}

/// Flows holding unmatched bytes idle out: the primary's retransmission
/// timer backs off past a 300 ms idle TTL, and GC reaps what it finds
/// idle, full.
#[test]
fn idle_gc_of_flows_holding_bytes() {
    let mut tb = unmatched(config(2));
    for i in 0..2 {
        with_bridge(&mut tb, i, |b| {
            b.set_flow_config(FlowTableConfig {
                gc: GcPolicy {
                    timewait_ttl: 100_000_000,
                    idle_ttl: 300_000_000,
                },
                ..FlowTableConfig::default()
            })
        });
    }
    let most = run_checked(&mut tb, 2_500);
    assert!(most > 0, "the scene must queue bytes");
    let reaped = with_bridge(&mut tb, 0, |b| b.stats.flows_reaped);
    assert!(reaped >= 1, "GC must reap a flow");
}
