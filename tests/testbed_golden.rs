//! Golden runs of the testbed: every pair scene the paper's §4–§6
//! exercise — fault-free, the primary killed mid-stream, the secondary
//! killed (§6) and later rebooted and rejoined, a §4 loss case, the
//! back-end of §7.2 on the segment, the switched segment of the
//! ablation — and a chain of three whose head is killed and whose tail
//! is reprovisioned. Each scene is pinned by what a run leaves behind:
//! the simulator's event count, a digest of the bytes each client
//! connection received, when each connection completed, and the
//! control-plane story its journals tell.
//!
//! The journal is read as one record over every hub of the scene: the
//! entries are merged in `Event` order, equal entries kept once, and
//! the testbed's own `kill` entries reduced to their instant. The view
//! is then the same whether the replicas publish into one shared hub or
//! into one hub each; a pair's hubs are reached as `tb.telemetry` and
//! the simulator's hub, which between them are every hub a pair has.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::reprovision::ReprovisionPhase;
use tcp_failover::core::testbed::{addrs, SegmentKind, Testbed, TestbedConfig};
use tcp_failover::core::{ChainConfig, ChainController, ChainTestbed};
use tcp_failover::net::sim::{NodeId, Simulator};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{Event, Telemetry};

/// What one scene leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `Simulator::events_processed` at the end.
    events: u64,
    /// FNV-1a over every byte each client connection received, in
    /// connection order.
    bytes: u64,
    /// Each client connection's completion instant (ns).
    done_ns: [u64; 2],
    /// Entries of the merged journal projection, and their digest.
    journal: (usize, u64),
}

const FAULT_FREE: Golden = Golden {
    events: 36_115,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [546_797_060, 350_275_350],
    journal: (8, 8_713_194_560_495_700_142),
};
/// Past the takeover's own story: its repeated announcement, 2 s after
/// the commit, is one more journal entry (`takeover.announce`), and its
/// frame's way across the segment three more events.
const KILL_PRIMARY: Golden = Golden {
    events: 35_537,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [441_473_020, 333_693_460],
    journal: (15, 1_425_358_619_301_745_772),
};
const KILL_SECONDARY: Golden = Golden {
    events: 23_374,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [395_473_020, 249_804_212],
    journal: (9, 3_507_065_325_291_768_613),
};
const REJOIN: Golden = Golden {
    events: 53_441,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [413_797_060, 281_272_028],
    journal: (22, 7_464_278_489_695_867_007),
};
const LOSS_TO_PRIMARY: Golden = Golden {
    events: 137_293,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [7_218_797_060, 4_274_699_080],
    journal: (46, 11_365_492_050_485_697_551),
};
const BACKEND: Golden = Golden {
    events: 46_268,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [560_801_772, 363_643_974],
    journal: (9, 13_829_615_432_543_547_124),
};
/// Unicast client traffic never reaches the secondary's NIC through a
/// learning switch: neither download completes (the E8 ablation).
const SWITCH: Golden = Golden {
    events: 13_710,
    bytes: 763_862_646_787_557_219,
    done_ns: [u64::MAX, u64::MAX],
    journal: (1, 6_956_427_207_257_564_175),
};
const CHAIN_HEAD_KILL_REPROVISION: Golden = Golden {
    events: 117_897,
    bytes: 17_622_872_390_946_642_133,
    done_ns: [753_771_788, 363_467_964],
    journal: (101, 12_656_707_960_611_364_258),
};

const SEED: u64 = 0x07E5_7BED;
/// The two downloads every scene's client runs, in bytes.
const DOWNLOADS: [u64; 2] = [2_000_000, 800_000];
const BACKEND_PORT: u16 = 5432;
const MS: SimDuration = SimDuration::from_millis(1);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Observers pinned off, so the environment's switches cannot move a
/// scene.
fn pair_config() -> TestbedConfig {
    TestbedConfig {
        seed: SEED,
        audit: Some(false),
        latency: Some(false),
        health: Some(false),
        span_trace: Some(false),
        journal_capacity: Some(1 << 16),
        ..TestbedConfig::default()
    }
}

/// Both downloads from the client, towards the service address.
fn add_downloads(sim: &mut Simulator, client: NodeId) {
    sim.with::<Host, _>(client, |h, _| {
        for bytes in DOWNLOADS {
            let request = format!("SEND {bytes}\n").into_bytes();
            let vip = SocketAddr::new(addrs::A_P, 80);
            h.add_app(Box::new(RequestReplyClient::new(vip, request, bytes)));
        }
    });
}

/// A pair built from `config`, both replicas serving the pattern source
/// on port 80 (as app 0), the client running both downloads.
fn serving_pair(config: TestbedConfig) -> Testbed {
    let mut tb = Testbed::new(config);
    for node in [tb.primary, tb.secondary.expect("replicated")] {
        tb.sim
            .with::<Host, _>(node, |h, _| h.add_app(Box::new(SourceServer::new(80))));
    }
    add_downloads(&mut tb.sim, tb.client);
    tb
}

/// The merged journal projection of `hubs`, as `(at, scope, kind)`, the
/// testbed's `kill` entries as `(at, "", "kill")`.
fn projection(hubs: &[Telemetry]) -> Vec<(u64, String, String)> {
    for hub in hubs {
        assert_eq!(hub.journal.dropped(), 0, "the journal must hold the run");
    }
    let mut events: Vec<Event> = hubs.iter().flat_map(|h| h.journal.events()).collect();
    events.sort();
    events.dedup();
    let testbed = |e: &Event| matches!(e.scope.as_str(), "testbed" | "chain_testbed");
    (events.into_iter())
        .map(|e| match e.kind == "kill" && testbed(&e) {
            true => (e.at_ns, String::new(), e.kind),
            false => (e.at_ns, e.scope, e.kind),
        })
        .collect()
}

/// What the scene left behind, its journal read over `hubs`.
fn golden(sim: &mut Simulator, client: NodeId, hubs: &[Telemetry]) -> Golden {
    let (bytes, done_ns) = sim.with::<Host, _>(client, |h, _| {
        let mut digest = Fnv::new();
        let done = std::array::from_fn(|i| {
            let c = h.app_mut::<RequestReplyClient>(i);
            assert_eq!(c.mismatches, 0, "download {i} corrupted");
            let got: Vec<u8> = (0..c.received_len() as usize)
                .map(|at| c.received_byte(at))
                .collect();
            digest.bytes(&got);
            digest.bytes(&[0xFF]);
            c.t_done.map_or(u64::MAX, |t| t.as_nanos())
        });
        (digest.0, done)
    });
    let projection = projection(hubs);
    let mut digest = Fnv::new();
    for (at, scope, kind) in &projection {
        digest.bytes(&at.to_le_bytes());
        digest.bytes(scope.as_bytes());
        digest.bytes(&[0]);
        digest.bytes(kind.as_bytes());
        digest.bytes(&[0]);
    }
    Golden {
        events: sim.events_processed(),
        bytes,
        done_ns,
        journal: (projection.len(), digest.0),
    }
}

/// The pair's scene as [`golden`] reads it.
fn pair_golden(tb: &mut Testbed) -> Golden {
    let sim_hub = tb.sim.telemetry().expect("the simulator publishes").clone();
    let hubs = [tb.telemetry.clone(), sim_hub];
    golden(&mut tb.sim, tb.client, &hubs)
}

#[track_caller]
fn check(name: &str, got: Golden, want: Golden) {
    assert_eq!(got, want, "{name}");
}

#[test]
fn pair_fault_free() {
    let mut tb = serving_pair(pair_config());
    tb.run_for(SimDuration::from_secs(4));
    check("fault-free", pair_golden(&mut tb), FAULT_FREE);
}

#[test]
fn pair_primary_killed_mid_stream() {
    let mut tb = serving_pair(pair_config());
    tb.run_for(SimDuration::from_millis(80));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(10));
    check("kill primary", pair_golden(&mut tb), KILL_PRIMARY);
}

#[test]
fn pair_secondary_killed_mid_stream() {
    let mut tb = serving_pair(pair_config());
    tb.run_for(SimDuration::from_millis(80));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_secs(4));
    check("kill secondary", pair_golden(&mut tb), KILL_SECONDARY);
}

#[test]
fn pair_secondary_revived_and_rejoined() {
    let mut tb = serving_pair(pair_config());
    tb.run_for(SimDuration::from_millis(60));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(200));
    tb.revive_secondary();
    chain_ops::rejoin_secondary(&mut tb);
    tb.run_for(SimDuration::from_secs(10));
    check("rejoin", pair_golden(&mut tb), REJOIN);
}

/// §4: the primary misses client segments, and the secondary's diverted
/// segments on their way to it.
#[test]
fn pair_loss_towards_the_primary() {
    let mut tb = serving_pair(TestbedConfig {
        loss_to_primary: 0.03,
        ..pair_config()
    });
    tb.run_for(SimDuration::from_secs(30));
    check("loss to primary", pair_golden(&mut tb), LOSS_TO_PRIMARY);
}

/// §7.2: both replicas query the unreplicated back-end on the segment
/// while the client downloads.
#[test]
fn pair_with_backend() {
    let mut tb = serving_pair(TestbedConfig {
        with_backend: true,
        failover_ports: vec![80, BACKEND_PORT],
        ..pair_config()
    });
    let t = tb.backend.expect("backend host");
    tb.sim.with::<Host, _>(t, |h, _| {
        h.add_app(Box::new(SourceServer::new(BACKEND_PORT)));
    });
    for node in [tb.primary, tb.secondary.expect("replicated")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            let server = SocketAddr::new(addrs::A_T, BACKEND_PORT);
            let query = b"SEND 100000\n".to_vec();
            h.add_app(Box::new(RequestReplyClient::new(server, query, 100_000)));
        });
    }
    tb.run_for(SimDuration::from_secs(4));
    check("backend", pair_golden(&mut tb), BACKEND);
}

#[test]
fn pair_on_a_switch() {
    let mut tb = serving_pair(TestbedConfig {
        segment: SegmentKind::Switch,
        ..pair_config()
    });
    tb.run_for(SimDuration::from_secs(4));
    check("switch", pair_golden(&mut tb), SWITCH);
}

/// A chain of three loses its head mid-stream; once the successor has
/// taken over, the tail is reprovisioned and caught up.
#[test]
fn chain_head_killed_then_tail_reprovisioned() {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        seed: SEED,
        audit: Some(false),
        latency: Some(false),
        health: Some(false),
        span_trace: Some(false),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    add_downloads(&mut tb.sim, tb.client);
    tb.run_for(SimDuration::from_millis(80));
    tb.kill_replica(0);
    let promoted = |tb: &mut ChainTestbed| {
        let node = tb.replicas[1];
        (tb.sim).with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().promoted_at
        })
    };
    while promoted(&mut tb).is_none() {
        tb.run_for(MS);
    }
    chain_ops::reprovision_tail(&mut tb);
    let step = SimDuration::from_millis(10);
    let restored = tb.run_until_restored(step, SimDuration::from_secs(10));
    assert!(restored && tb.tracker.phase() == ReprovisionPhase::Restored);
    tb.run_for(SimDuration::from_secs(10));
    let hubs = tb.hubs.clone();
    let got = golden(&mut tb.sim, tb.client, &hubs);
    check("chain", got, CHAIN_HEAD_KILL_REPROVISION);
}
