//! Golden verdicts of the invariant auditor: three testbed scenes run
//! with every replica audited — the pair losing its primary mid-stream,
//! the pair losing segments towards the primary (§4), and a chain of
//! three losing its head and reprovisioning its tail — each pinned by
//! what every replica's auditor concluded: per rule, how often it was
//! checked and how often it fired, and how full its causal trace ring
//! ended and how much it evicted. A change to how the bridge hands the auditor its
//! segments must leave every figure where it is.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainConfig, ChainController, ChainTestbed};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{InvariantAuditor, Rule};

const SEED: u64 = 0x07E5_7BED;
const DOWNLOADS: [u64; 2] = [2_000_000, 800_000];

/// One auditor's verdicts: `(checks, violations)` per rule in
/// [`Rule::ALL`] order, then `(len, dropped)` of the trace ring.
type Verdicts = ([(u64, u64); 11], (u64, u64));

fn verdicts(a: &InvariantAuditor) -> Verdicts {
    let rules = Rule::ALL.map(|r| {
        let s = a.ledger().stat(r);
        (s.checks, s.violations)
    });
    // The report's first line states the ring as `<len> (+<dropped>
    // dropped)`; `dropped()` cross-checks the second figure.
    let report = a.report();
    let line = report.lines().next().expect("report line");
    let at = line.find(", ring ").expect("ring in report") + ", ring ".len();
    let len = line[at..].split_whitespace().next().expect("len");
    (rules, (len.parse().expect("ring length"), a.dropped()))
}

/// Every replica audited, no other observer, the journal large enough
/// to hold the run.
fn pair_config() -> TestbedConfig {
    TestbedConfig {
        seed: SEED,
        audit: Some(true),
        latency: Some(false),
        health: Some(false),
        span_trace: Some(false),
        journal_capacity: Some(1 << 16),
        ..TestbedConfig::default()
    }
}

fn add_downloads(tb: &mut Testbed) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        for bytes in DOWNLOADS {
            let request = format!("SEND {bytes}\n").into_bytes();
            let vip = SocketAddr::new(addrs::A_P, 80);
            h.add_app(Box::new(RequestReplyClient::new(vip, request, bytes)));
        }
    });
}

fn serving_pair(config: TestbedConfig) -> Testbed {
    let mut tb = Testbed::new(config);
    for node in [tb.primary, tb.secondary.expect("replicated")] {
        tb.sim
            .with::<Host, _>(node, |h, _| h.add_app(Box::new(SourceServer::new(80))));
    }
    add_downloads(&mut tb);
    tb
}

/// Every replica's verdicts, head first.
fn all_verdicts(tb: &mut Testbed) -> Vec<Verdicts> {
    (0..tb.replicas.len())
        .map(|i| tb.with_audit(i, verdicts).expect("auditor attached"))
        .collect()
}

#[track_caller]
fn check(name: &str, got: Vec<Verdicts>, want: &[Verdicts]) {
    assert_eq!(got, want, "{name}: {got:?}");
}

/// P, then S (which takes over).
#[rustfmt::skip]
const KILL_PRIMARY: [Verdicts; 2] = [
    ([
        (342, 0), (342, 0), (342, 0), (2, 0), (340, 0), (340, 0),
        (870, 0), (21, 0), (150, 0), (0, 0), (0, 0),
    ], (1024, 1062)),
    ([
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        (0, 0), (160, 0), (554, 0), (1, 0), (1, 0),
    ], (1024, 3239)),
];

/// P, then S.
#[rustfmt::skip]
const LOSS_TO_PRIMARY: [Verdicts; 2] = [
    ([
        (2398, 0), (2398, 0), (2398, 0), (2, 0), (1920, 0), (1918, 0),
        (5769, 0), (149, 0), (1380, 0), (0, 0), (0, 0),
    ], (1024, 12908)),
    ([
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        (0, 0), (368, 0), (3660, 0), (0, 0), (0, 0),
    ], (1024, 6456)),
];

/// The killed head, the successor that takes over, the old tail, and
/// the tail reprovisioned below it.
#[rustfmt::skip]
const CHAIN_HEAD_KILL_REPROVISION: [Verdicts; 4] = [
    ([
        (208, 0), (208, 0), (208, 0), (2, 0), (206, 0), (206, 0),
        (570, 0), (13, 0), (95, 0), (0, 0), (0, 0),
    ], (1024, 328)),
    ([
        (2010, 0), (2010, 0), (2010, 0), (2, 0), (1920, 0), (1918, 0),
        (4899, 0), (311, 0), (3946, 0), (1, 0), (1, 0),
    ], (1024, 12420)),
    ([
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        (0, 0), (301, 0), (2893, 0), (0, 0), (0, 0),
    ], (1024, 8208)),
    ([
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        (0, 0), (226, 0), (2189, 0), (0, 0), (0, 0),
    ], (1024, 5376)),
];

#[test]
fn pair_primary_killed_mid_stream() {
    let mut tb = serving_pair(pair_config());
    tb.run_for(SimDuration::from_millis(80));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(10));
    check("kill primary", all_verdicts(&mut tb), &KILL_PRIMARY);
}

#[test]
fn pair_loss_towards_the_primary() {
    let mut tb = serving_pair(TestbedConfig {
        loss_to_primary: 0.03,
        ..pair_config()
    });
    tb.run_for(SimDuration::from_secs(30));
    check("loss to primary", all_verdicts(&mut tb), &LOSS_TO_PRIMARY);
}

#[test]
fn chain_head_killed_then_tail_reprovisioned() {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        seed: SEED,
        audit: Some(true),
        latency: Some(false),
        health: Some(false),
        span_trace: Some(false),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    add_downloads(&mut tb);
    tb.run_for(SimDuration::from_millis(80));
    tb.kill_replica(0);
    let promoted = |tb: &mut ChainTestbed| {
        let node = tb.replicas[1];
        (tb.sim).with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().promoted_at
        })
    };
    while promoted(&mut tb).is_none() {
        tb.run_for(SimDuration::from_millis(1));
    }
    chain_ops::reprovision_tail(&mut tb);
    let step = SimDuration::from_millis(10);
    assert!(tb.run_until_restored(step, SimDuration::from_secs(10)));
    tb.run_for(SimDuration::from_secs(10));
    check("chain", all_verdicts(&mut tb), &CHAIN_HEAD_KILL_REPROVISION);
}
