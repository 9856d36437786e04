//! Integration: daisy-chained N-way replication (the §1 extension).
//! Three or more replicas; the client-facing stream is the tail's
//! sequence space; head, middle and tail failures each heal while a
//! transfer is in flight.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::chain_testbed::{ChainConfig, ChainTestbed};
use tcp_failover::core::reprovision::ReprovisionPhase;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainController, PrimaryBridge};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn vip(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

/// A depth-`replicas` chain with the invariant auditor and health
/// observatory attached to every bridge — the PR9 "observed" setup.
fn observed_config(replicas: usize, seed: u64) -> ChainConfig {
    ChainConfig {
        replicas,
        seed,
        audit: Some(true),
        health: Some(true),
        ..ChainConfig::default()
    }
}

fn download_testbed_with(config: ChainConfig, total: u64) -> ChainTestbed {
    let mut tb = ChainTestbed::new(config);
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            vip(80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb
}

fn download_testbed(replicas: usize, total: u64, seed: u64) -> ChainTestbed {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas,
        seed,
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            vip(80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb
}

fn assert_download_done(tb: &mut ChainTestbed, total: u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(
            c.is_done(),
            "download stalled at {} of {total}",
            c.received_len()
        );
        assert_eq!(c.mismatches, 0, "stream corrupted");
    });
}

#[test]
fn three_way_chain_fault_free() {
    let mut tb = download_testbed(3, 300_000, 1);
    tb.run_for(SimDuration::from_secs(10));
    assert_download_done(&mut tb, 300_000);
    // Every replica actually served the stream (active replication).
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let served = tb
            .sim
            .with::<Host, _>(node, |h, _| h.app_mut::<SourceServer>(0).served);
        assert_eq!(served, 300_000, "replica {i} did not serve");
    }
}

#[test]
fn five_way_chain_fault_free() {
    let mut tb = download_testbed(5, 120_000, 2);
    tb.run_for(SimDuration::from_secs(20));
    assert_download_done(&mut tb, 120_000);
}

#[test]
fn head_failure_promotes_first_backup() {
    let mut tb = download_testbed(3, 2_000_000, 3);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0); // the head
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    // The first backup promoted itself and owns the VIP now.
    let b1 = tb.replicas[1];
    tb.sim.with::<Host, _>(b1, |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P), "VIP takeover");
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_some(), "B1 promoted");
    });
}

#[test]
fn middle_failure_heals_around_it() {
    let mut tb = download_testbed(3, 2_000_000, 4);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(1); // the middle
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    // The head still holds the VIP; nobody promoted.
    tb.sim.with::<Host, _>(tb.replicas[2], |h, _| {
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_none(), "tail must not promote");
    });
}

#[test]
fn tail_failure_degrades_last_link() {
    let mut tb = download_testbed(3, 2_000_000, 5);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(2); // the tail
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
}

#[test]
fn sequential_failures_down_to_one() {
    // Kill the head, then the new head: the last replica standing
    // serves the connection to completion (two §5-style takeovers).
    let mut tb = download_testbed(3, 4_000_000, 6);
    tb.run_for(SimDuration::from_millis(150));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(5));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_secs(40));
    assert_download_done(&mut tb, 4_000_000);
    tb.sim.with::<Host, _>(tb.replicas[2], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
        assert!(!h.net_mut().promiscuous, "classic §5 takeover at the tail");
    });
}

#[test]
fn chain_upload_acked_only_when_all_replicas_have_it() {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        seed: 7,
        ..ChainConfig::default()
    });
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(vip(80), 300_000)));
    });
    tb.run_for(SimDuration::from_secs(15));
    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "upload did not finish");
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let got = tb
            .sim
            .with::<Host, _>(node, |h, _| h.app_mut::<SinkServer>(0).received);
        assert_eq!(got, 300_000, "replica {i} missed bytes");
    }
}

#[test]
fn chain_store_session_survives_head_failure() {
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: 3,
        seed: 8,
        ..ChainConfig::default()
    });
    tb.install_servers(|| StoreServer::new(80));
    let mut script: Vec<String> = Vec::new();
    for i in 0..30 {
        script.push(format!("BROWSE item{i}"));
        script.push(format!("BUY item{i} 2"));
    }
    script.push("QUIT".into());
    let n_cmds = script.len() as u64;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(vip(80), script)));
    });
    tb.run_for(SimDuration::from_millis(40));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(30));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(c.is_done(), "stalled at {} replies", c.replies.len());
        assert_eq!(c.mismatches, 0);
    });
    // The surviving replicas each executed the full command stream.
    for &node in &tb.replicas.clone()[1..] {
        tb.sim.with::<Host, _>(node, |h, _| {
            assert_eq!(h.app_mut::<StoreServer>(0).commands, n_cmds);
        });
    }
}

// ---------------------------------------------------------------------
// PR9: depth-4 chains under the auditor, and standby reprovisioning.
// ---------------------------------------------------------------------

#[test]
fn four_way_head_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 9), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P), "VIP takeover");
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_some(), "B1 promoted");
    });
    assert_eq!(tb.audit_violations(), 0, "auditor fired during takeover");
}

#[test]
fn four_way_middle_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 10), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(2); // second middle
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    for i in [1, 3] {
        tb.sim.with::<Host, _>(tb.replicas[i], |h, _| {
            let c = h.controller_mut::<tcp_failover::core::ChainController>();
            assert!(c.promoted_at.is_none(), "replica {i} must not promote");
        });
    }
    assert_eq!(tb.audit_violations(), 0, "auditor fired during heal");
}

#[test]
fn four_way_tail_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 11), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(3); // tail
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    assert_eq!(tb.audit_violations(), 0, "auditor fired on tail loss");
}

/// A chain of three loses replica `victim` 200 ms into an 8 MB download
/// and a standby is reprovisioned behind the tail 300 ms later, all with
/// the auditor attached. The lag ledger proves catch-up drained to zero,
/// the download is byte-exact, the standby served the adopted stream and
/// no rule fired. After a tail loss the survivor above it hands off from
/// its own sequence space, `Δseq` away from the client-facing one.
fn reprovision_restores_redundancy_after_losing(victim: usize, seed: u64) {
    let mut tb = download_testbed_with(observed_config(3, seed), 8_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(victim);
    tb.run_for(SimDuration::from_millis(300));
    if victim == 0 {
        tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
            let c = h.controller_mut::<tcp_failover::core::ChainController>();
            assert!(c.promoted_at.is_some(), "B1 promoted before reprovision");
        });
    }

    let standby = chain_ops::reprovision_tail(&mut tb);
    assert_eq!(standby, 3, "standby appended after the founders");
    assert_eq!(tb.tracker.phase(), ReprovisionPhase::CatchUp);
    assert!(
        tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30)),
        "catch-up never drained (lag {})",
        tb.catchup_lag()
    );
    assert_eq!(tb.catchup_lag(), 0, "restored with residual lag");
    assert!(tb.tracker.reprovision_ns().unwrap() > 0);
    assert!(tb.tracker.catchup_ns().unwrap() > 0);
    assert_eq!(
        tb.hubs[0].redundancy.restoration().unwrap().total_ns,
        tb.tracker.reprovision_ns().unwrap() + tb.tracker.catchup_ns().unwrap()
    );

    tb.run_for(SimDuration::from_secs(60));
    assert_download_done(&mut tb, 8_000_000);
    // The standby actually took over the tail's serving duties.
    let served = tb
        .sim
        .with::<Host, _>(tb.replicas[3], |h, _| h.app_mut::<SourceServer>(0).served);
    assert!(served > 0, "standby never served the adopted stream");
    assert_eq!(tb.audit_violations(), 0, "auditor fired during round");
}

#[test]
fn reprovision_restores_redundancy_after_head_failure() {
    reprovision_restores_redundancy_after_losing(0, 12);
}

#[test]
fn reprovision_restores_redundancy_after_middle_failure() {
    reprovision_restores_redundancy_after_losing(1, 12);
}

#[test]
fn reprovision_restores_redundancy_after_tail_failure() {
    reprovision_restores_redundancy_after_losing(2, 12);
}

#[test]
fn reprovision_restores_redundancy_after_tail_failure_seed_13() {
    reprovision_restores_redundancy_after_losing(2, 13);
}

#[test]
fn failure_during_reprovision_catchup_degrades_gracefully() {
    // The converted middle (the old tail) dies while the standby is
    // still catching up: the chain heals around it (§6 degradation)
    // and the transfer completes on the survivors.
    let mut tb = download_testbed_with(observed_config(3, 13), 8_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));

    let standby = chain_ops::reprovision_tail(&mut tb);
    assert_eq!(tb.tracker.phase(), ReprovisionPhase::CatchUp);
    // Give the standby a moment to join the flow, then kill the link
    // whose lag ledger was proving catch-up.
    tb.run_for(SimDuration::from_millis(30));
    tb.kill_replica(2);
    tb.run_for(SimDuration::from_secs(60));
    assert_download_done(&mut tb, 8_000_000);
    // The promoted head and the standby survive as a two-link chain.
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
    });
    let served = tb.sim.with::<Host, _>(tb.replicas[standby], |h, _| {
        h.app_mut::<SourceServer>(0).served
    });
    assert!(served > 0, "standby never served after the second failure");
    assert_eq!(tb.audit_violations(), 0);
}

/// Round one of a chain of three (seed 12, auditor and health on)
/// serving a 20 MB download: the head killed at 200 ms, a standby
/// reprovisioned at 500 ms and caught up.
fn first_round() -> ChainTestbed {
    let ms = SimDuration::from_millis;
    let mut tb = download_testbed_with(observed_config(3, 12), 20_000_000);
    tb.run_for(ms(200));
    tb.kill_replica(0);
    tb.run_for(ms(300));
    chain_ops::reprovision_tail(&mut tb);
    assert!(tb.run_until_restored(ms(10), SimDuration::from_secs(30)));
    tb
}

/// Kills replica 1, the head since round one, at 5 300 ms; replica 2
/// takes over.
fn second_failure(tb: &mut ChainTestbed) {
    let second = SimTime::ZERO + SimDuration::from_millis(5_300);
    tb.run_for(second.duration_since(tb.sim.now()));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
}

/// Every hub's redundancy view times the latest round as the tracker
/// does.
fn assert_rounds_agree(tb: &ChainTestbed) {
    let tracker = (tb.tracker.reprovision_ns(), tb.tracker.catchup_ns());
    assert!(tracker.1.is_some(), "round not restored");
    for (i, hub) in tb.hubs.iter().enumerate() {
        let view = hub.redundancy.restoration();
        let view = view.map(|r| (Some(r.reprovision_ns), Some(r.catchup_ns)));
        assert_eq!(view, Some(tracker), "hub {i} disagrees with the tracker");
    }
}

/// A hub that sees two failures reports the latest episode: replica 2
/// detected the second kill and took over within one detector timeout,
/// and its §5 view is that takeover, not a mix with the first kill.
#[test]
fn a_hub_that_sees_two_failures_reports_the_latest() {
    let mut tb = first_round();
    second_failure(&mut tb);
    let (detected, promoted) = tb.sim.with::<Host, _>(tb.replicas[2], |h, _| {
        let c = h.controller_mut::<ChainController>();
        (
            c.detected_at.unwrap().as_nanos(),
            c.promoted_at.unwrap().as_nanos(),
        )
    });
    let view = &tb.hubs[2].timeline;
    let mttr = view.mttr().expect("replica 2 took over and served");
    let kill = SimDuration::from_millis(5_300).as_nanos();
    let [detection, hold, translation, arp, _] = mttr.deltas();
    assert_eq!(detection, detected - kill, "{}", view.breakdown());
    assert_eq!((hold, translation), (0, 0));
    assert_eq!(kill + detection + arp, promoted, "{}", view.breakdown());
    assert!(mttr.total_ns < SimDuration::from_millis(100).as_nanos());
    assert_eq!(tb.audit_violations(), 0);
}

/// Each reprovisioning round is the one every hub reports: after the
/// second, too — the standby's own hub included.
#[test]
fn every_hub_times_each_reprovisioning_round_as_the_tracker_does() {
    let mut tb = first_round();
    assert_rounds_agree(&tb);
    second_failure(&mut tb);
    chain_ops::reprovision_tail(&mut tb);
    let ms = SimDuration::from_millis;
    assert!(tb.run_until_restored(ms(10), SimDuration::from_secs(30)));
    assert_rounds_agree(&tb);
    assert_eq!(tb.audit_violations(), 0);
}

/// A chain of three loses `first` at 150 ms and `second` at 400 ms of a
/// 20 MB download (seed 6, auditor attached). The replica left serves the
/// stream to the end, byte-exact, and from the moment of the second kill
/// every frame the client receives from the servers comes from the VIP —
/// never from a replica's own address — and no rule fires.
fn a_chain_of_three_survives_losing(first: usize, second: usize) {
    use tcp_failover::net::trace::TraceKind;
    use tcp_failover::wire::eth::EthernetFrame;
    use tcp_failover::wire::ipv4::{Ipv4Packet, PROTO_TCP};

    const TOTAL: u64 = 20_000_000;
    let mut tb = download_testbed_with(observed_config(3, 6), TOTAL);
    tb.run_for(SimDuration::from_millis(150));
    tb.kill_replica(first);
    tb.run_for(SimDuration::from_millis(250));
    tb.kill_replica(second);
    tb.sim.set_trace_enabled(true);
    let own = tb.replica_addrs[1..].to_vec();
    let client = tb.client;
    let mut from_own = 0;
    let done = |tb: &mut ChainTestbed| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    };
    for _ in 0..30 {
        tb.run_for(SimDuration::from_secs(1));
        from_own += (tb.sim.take_trace().iter())
            .filter(|e| e.node == client && matches!(e.kind, TraceKind::Rx { .. }))
            .filter_map(|e| EthernetFrame::decode_shared(e.frame.clone()?).ok())
            .filter_map(|eth| Ipv4Packet::decode_shared(eth.payload).ok())
            .filter(|ip| ip.protocol == PROTO_TCP && own.contains(&ip.src))
            .count();
        if done(&mut tb) {
            break;
        }
    }
    assert_download_done(&mut tb, TOTAL);
    assert_eq!(from_own, 0, "the client heard a replica's own address");
    assert_eq!(tb.audit_violations(), 0);
}

#[test]
fn a_chain_of_three_survives_losing_its_tail_then_its_head() {
    a_chain_of_three_survives_losing(2, 0);
}

#[test]
fn a_chain_of_three_survives_losing_its_head_then_its_tail() {
    a_chain_of_three_survives_losing(0, 2);
}

/// The `Δseq` of every live flow on the merging bridge of `node`.
fn live_deltas(sim: &mut tcp_failover::net::sim::Simulator, node: usize) -> Vec<Option<u32>> {
    sim.with::<Host, _>(node, |h, _| {
        let b = h.filter_mut().as_any_mut().downcast_mut::<PrimaryBridge>();
        let rows = b.expect("a merging bridge").connection_rows();
        rows.iter().map(|r| r.delta).collect()
    })
}

#[test]
fn every_live_flow_carries_a_nonzero_delta_seq() {
    // Replicas draw their ISNs independently (§3.3), so the merge has a
    // Δseq to translate on every flow: on the pair's P and on every
    // link of a chain of three that has a replica below it.
    for seed in [1, 12] {
        let mut pair = Testbed::new(TestbedConfig {
            seed,
            ..TestbedConfig::default()
        });
        for node in [pair.primary, pair.secondary.unwrap()] {
            pair.sim.with::<Host, _>(node, |h, _| {
                h.add_app(Box::new(SourceServer::new(80)));
            });
        }
        let mut chain = ChainTestbed::new(ChainConfig {
            replicas: 3,
            seed,
            ..ChainConfig::default()
        });
        chain.install_servers(|| SourceServer::new(80));
        fn downloads(h: &mut Host) {
            for _ in 0..4 {
                let request = b"SEND 2000000\n".to_vec();
                h.add_app(Box::new(RequestReplyClient::new(
                    vip(80),
                    request,
                    2_000_000,
                )));
            }
        }
        pair.sim.with::<Host, _>(pair.client, |h, _| downloads(h));
        chain.sim.with::<Host, _>(chain.client, |h, _| downloads(h));
        pair.run_for(SimDuration::from_millis(100));
        chain.run_for(SimDuration::from_millis(100));
        let merging = [
            ("pair P", live_deltas(&mut pair.sim, pair.primary)),
            ("head", live_deltas(&mut chain.sim, chain.replicas[0])),
            ("middle", live_deltas(&mut chain.sim, chain.replicas[1])),
        ];
        for (who, deltas) in merging {
            assert_eq!(deltas.len(), 4, "seed {seed}: {who} holds every flow");
            for d in deltas {
                assert!(d.is_some_and(|d| d != 0), "seed {seed}: {who} Δseq {d:?}");
            }
        }
    }
}

#[test]
fn traffic_that_is_not_failover_traffic_is_the_heads_alone() {
    // While a port-80 download streams through the chain, the client
    // completes an echo exchange on a port only the head serves and
    // nobody designated. The links below the head snoop every segment
    // of it; none of them may answer, divert or claim one.
    use tcp_failover::apps::echo::EchoServer;
    use tcp_failover::net::trace::TraceKind;
    use tcp_failover::wire::eth::EthernetFrame;
    use tcp_failover::wire::ipv4::{Ipv4Packet, PROTO_TCP};
    use tcp_failover::wire::tcp::TcpView;

    const TOTAL: u64 = 300_000;
    const ECHO_PORT: u16 = 7;
    let message: Vec<u8> = (0..5_000u32).map(|i| (i * 31 % 251) as u8).collect();

    let mut tb = download_testbed_with(observed_config(3, 21), TOTAL);
    tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        h.add_app(Box::new(EchoServer::new(ECHO_PORT)));
    });
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let len = message.len() as u64;
        let mut echo = RequestReplyClient::new(vip(ECHO_PORT), message.clone(), len);
        echo.verify = false;
        h.add_app(Box::new(echo));
    });
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(1 << 20);
    tb.run_for(SimDuration::from_secs(10));

    assert_download_done(&mut tb, TOTAL);
    assert_eq!(tb.sim.trace_dropped(), 0, "the trace holds the whole run");
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let echo = h.app_mut::<RequestReplyClient>(1);
        assert!(echo.is_done(), "echo stalled at {}", echo.received_len());
        let echoed = (0..message.len()).map(|i| echo.received_byte(i));
        assert!(echoed.eq(message.iter().copied()), "echo corrupted");
    });
    let below_head = &tb.replicas[1..];
    let claimed = (tb.sim.trace_tail(usize::MAX).iter())
        .filter(|e| below_head.contains(&e.node) && matches!(e.kind, TraceKind::Tx { .. }))
        .filter_map(|e| EthernetFrame::decode_shared(e.frame.clone()?).ok())
        .filter_map(|eth| Ipv4Packet::decode_shared(eth.payload).ok())
        .filter(|ip| ip.protocol == PROTO_TCP)
        .filter(|ip| {
            TcpView::new(&ip.payload)
                .is_ok_and(|v| v.src_port() == ECHO_PORT || v.dst_port() == ECHO_PORT)
        })
        .count();
    assert_eq!(claimed, 0, "a link below the head sent echo-port frames");
    assert_eq!(tb.audit_violations(), 0);
}
