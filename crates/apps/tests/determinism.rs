//! Property tests for the §1 replication requirement: every server
//! application must be a pure function of its per-connection request
//! *byte stream* — independent instances fed the same bytes in any
//! chunking must produce identical reply streams.

use proptest::prelude::*;
use tcpfo_apps::conn::{pattern, LineBuf};
use tcpfo_apps::store::{respond, StoreConnState};

/// Chunks `data` according to `cuts` (cyclic) and feeds it through a
/// LineBuf, returning the recovered lines.
fn lines_chunked(data: &[u8], cuts: &[usize]) -> Vec<String> {
    let mut lb = LineBuf::new();
    let mut out = Vec::new();
    let mut off = 0;
    let mut i = 0;
    while off < data.len() {
        let len = cuts[i % cuts.len()].max(1).min(data.len() - off);
        lb.push(&data[off..off + len]);
        while let Some(line) = lb.pop_line() {
            out.push(line);
        }
        off += len;
        i += 1;
    }
    out
}

fn arb_command() -> impl Strategy<Value = String> {
    prop_oneof![
        ("[a-z]{1,8}", 1u64..5).prop_map(|(item, qty)| format!("BUY {item} {qty}")),
        "[a-z]{1,8}".prop_map(|item| format!("BROWSE {item}")),
        Just("QUIT".to_string()),
        "[A-Z]{1,6}".prop_map(|junk| junk), // unknown commands
    ]
}

proptest! {
    /// Two independent store instances answering the same command
    /// stream produce byte-identical replies — the §1 determinism that
    /// active replication rests on.
    #[test]
    fn store_replicas_agree(script in proptest::collection::vec(arb_command(), 1..40)) {
        let mut a = StoreConnState::default();
        let mut b = StoreConnState::default();
        for cmd in &script {
            prop_assert_eq!(respond(&mut a, cmd), respond(&mut b, cmd));
        }
        prop_assert_eq!(a.next_order, b.next_order);
    }

    /// Line reassembly is chunking-invariant: however TCP happened to
    /// segment the stream, the commands recovered are the same.
    #[test]
    fn linebuf_chunking_invariant(
        script in proptest::collection::vec("[ -~]{0,30}", 1..30),
        cuts_a in proptest::collection::vec(1usize..17, 1..8),
        cuts_b in proptest::collection::vec(1usize..17, 1..8),
    ) {
        let wire: Vec<u8> = script.iter().flat_map(|l| format!("{l}\n").into_bytes()).collect();
        prop_assert_eq!(lines_chunked(&wire, &cuts_a), lines_chunked(&wire, &cuts_b));
    }

    /// The stream pattern is position-determined: any two windows over
    /// the same offsets agree (so replicas generating a response in
    /// different slab sizes still emit identical bytes).
    #[test]
    fn pattern_windows_agree(
        start in 0u64..10_000,
        len in 1usize..500,
        split in 1usize..499,
    ) {
        let whole = pattern(start, len);
        let split = split.min(len - 1).max(1);
        let mut pieces = pattern(start, split);
        pieces.extend(pattern(start + split as u64, len - split));
        prop_assert_eq!(whole, pieces);
    }
}

// ---------------------------------------------------------------------
// The simulation itself repeats: same scene, same process, same events
// ---------------------------------------------------------------------

mod repeat {
    use tcpfo_apps::chain_ops;
    use tcpfo_apps::driver::RequestReplyClient;
    use tcpfo_apps::stream::SourceServer;
    use tcpfo_core::chain_testbed::{ChainConfig, ChainTestbed};
    use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
    use tcpfo_net::sim::{NodeId, Simulator};
    use tcpfo_net::time::{SimDuration, SimTime};
    use tcpfo_tcp::host::Host;
    use tcpfo_tcp::types::SocketAddr;

    const DOWNLOADS: usize = 8;
    const BYTES: u64 = 400_000;

    /// What one run of a scene must reproduce exactly.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        events: u64,
        done_at: Vec<Option<SimTime>>,
    }

    fn start_downloads(sim: &mut Simulator, client: NodeId) {
        sim.with::<Host, _>(client, |h, _| {
            for _ in 0..DOWNLOADS {
                h.add_app(Box::new(RequestReplyClient::new(
                    SocketAddr::new(addrs::A_P, 80),
                    format!("SEND {BYTES}\n").into_bytes(),
                    BYTES,
                )));
            }
        });
    }

    fn outcome(sim: &mut Simulator, client: NodeId) -> Outcome {
        let done_at = sim.with::<Host, _>(client, |h, _| {
            (0..DOWNLOADS)
                .map(|i| {
                    let c = h.app_mut::<RequestReplyClient>(i);
                    assert_eq!(c.mismatches, 0, "download {i} corrupted");
                    c.t_done
                })
                .collect::<Vec<_>>()
        });
        assert!(done_at.iter().all(Option::is_some), "{done_at:?}");
        Outcome {
            events: sim.events_processed(),
            done_at,
        }
    }

    /// §5 on the pair: the primary dies while all eight downloads are
    /// in flight.
    fn pair_scene() -> Outcome {
        let mut tb = Testbed::new(TestbedConfig {
            seed: 21,
            ..TestbedConfig::default()
        });
        for node in [tb.primary, tb.secondary.unwrap()] {
            tb.sim.with::<Host, _>(node, |h, _| {
                h.add_app(Box::new(SourceServer::new(80)));
            });
        }
        let client = tb.client;
        start_downloads(&mut tb.sim, client);
        tb.run_for(SimDuration::from_millis(150));
        tb.kill_primary();
        tb.run_for(SimDuration::from_secs(20));
        outcome(&mut tb.sim, client)
    }

    /// Three-replica chain: the head dies, B1 promotes, and the tail's
    /// eight live flows are handed to a fresh standby — in the order
    /// `SourceServer::conn_progress` lists them.
    fn chain_scene() -> Outcome {
        let mut tb = ChainTestbed::new(ChainConfig {
            replicas: 3,
            seed: 22,
            ..ChainConfig::default()
        });
        tb.install_servers(|| SourceServer::new(80));
        let client = tb.client;
        start_downloads(&mut tb.sim, client);
        tb.run_for(SimDuration::from_millis(150));
        tb.kill_replica(0);
        tb.run_for(SimDuration::from_millis(300));
        chain_ops::reprovision_tail(&mut tb);
        assert!(
            tb.run_until_restored(SimDuration::from_millis(1), SimDuration::from_secs(30)),
            "catch-up never drained"
        );
        tb.run_for(SimDuration::from_secs(20));
        outcome(&mut tb.sim, client)
    }

    /// Idle residents and short connections side by side, no failure:
    /// what reaches the wire first is decided by the order the stacks'
    /// timer index and the servers' ready lists are served in, so that
    /// order must be a function of the scene and of nothing else.
    fn residents_and_churn_scene() -> Outcome {
        const RESIDENTS: usize = 64;
        const ROUNDS: usize = 25;
        const PER_ROUND: usize = 4;
        let mut tb = Testbed::new(TestbedConfig {
            seed: 23,
            ..TestbedConfig::default()
        });
        for node in [tb.primary, tb.secondary.unwrap()] {
            tb.sim.with::<Host, _>(node, |h, _| {
                h.add_app(Box::new(SourceServer::new(80)));
            });
        }
        let client = tb.client;
        let server = SocketAddr::new(addrs::A_P, 80);
        // Nothing to ask and nothing expected: connects and stays idle.
        tb.sim.with::<Host, _>(client, |h, _| {
            for _ in 0..RESIDENTS {
                h.add_app(Box::new(RequestReplyClient::new(server, Vec::new(), 0)));
            }
        });
        tb.run_for(SimDuration::from_millis(200));
        for _ in 0..ROUNDS {
            tb.sim.with::<Host, _>(client, |h, _| {
                for _ in 0..PER_ROUND {
                    h.add_app(Box::new(RequestReplyClient::new(
                        server,
                        b"SEND 2000\n".to_vec(),
                        2000,
                    )));
                }
            });
            tb.run_for(SimDuration::from_millis(10));
        }
        tb.run_for(SimDuration::from_secs(2));
        let done_at = tb.sim.with::<Host, _>(client, |h, _| {
            (0..RESIDENTS + ROUNDS * PER_ROUND)
                .map(|i| {
                    let c = h.app_mut::<RequestReplyClient>(i);
                    assert_eq!(c.mismatches, 0, "connection {i} corrupted");
                    assert!(c.t_established.is_some(), "connection {i} never opened");
                    c.t_done
                })
                .collect::<Vec<_>>()
        });
        let (residents, churn) = done_at.split_at(RESIDENTS);
        assert!(residents.iter().all(Option::is_none));
        assert!(churn.iter().all(Option::is_some), "{churn:?}");
        Outcome {
            events: tb.sim.events_processed(),
            done_at,
        }
    }

    /// Every `HashMap` in a process hashes with its own keys, so two
    /// runs of one scene here iterate any such map in two different
    /// orders: the applications must not let that reach the wire.
    #[test]
    fn concurrent_downloads_repeat_exactly_through_a_pair_failover() {
        let first = pair_scene();
        assert_eq!(pair_scene(), first);
        assert_eq!(pair_scene(), first);
    }

    #[test]
    fn concurrent_downloads_repeat_exactly_through_a_chain_reprovision() {
        let first = chain_scene();
        assert_eq!(chain_scene(), first);
        assert_eq!(chain_scene(), first);
    }

    #[test]
    fn churn_beside_idle_residents_repeats_exactly() {
        let first = residents_and_churn_scene();
        assert_eq!(residents_and_churn_scene(), first);
        assert_eq!(residents_and_churn_scene(), first);
    }
}
