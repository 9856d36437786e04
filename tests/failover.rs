//! Integration: §5 (primary failure → secondary IP takeover) and §6
//! (secondary failure → primary degrades), at various points in a
//! connection's lifetime — the paper's headline property is that the
//! failover can happen *at any time* and the client never notices.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::chain_testbed::{ChainConfig, ChainTestbed};
use tcp_failover::core::testbed::{addrs, macs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainController, DetectorConfig, ReprovisionPhase};
use tcp_failover::net::router::Router;
use tcp_failover::net::sim::{NodeId, Simulator};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::net::trace::TraceKind;
use tcp_failover::tcp::app::{SocketApi, SocketApp};
use tcp_failover::tcp::config::TcpConfig;
use tcp_failover::tcp::host::{CpuModel, Host};
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{FailoverPhase, Telemetry};

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

macro_rules! replicate {
    ($tb:expr, $mk:expr) => {{
        let tb: &mut Testbed = $tb;
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.add_app(Box::new($mk));
        });
        let s = tb.secondary.expect("replicated testbed");
        tb.sim.with::<Host, _>(s, |h, _| {
            h.add_app(Box::new($mk));
        });
    }};
}

/// §5: kill the primary mid-download; the secondary takes over the
/// primary's IP and finishes the transfer; the client's byte stream is
/// intact.
#[test]
fn primary_fails_mid_download() {
    let mut tb = Testbed::new(TestbedConfig::default());
    // Keep the packet trace so a failure dumps its tail (bounded by
    // the ring, so a long run cannot exhaust memory).
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    // Let roughly half the transfer happen, then fail the primary.
    tb.run_for(SimDuration::from_millis(120));
    let before = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len()
    });
    assert!(
        before > 0 && before < 2_000_000,
        "failover must hit mid-transfer, got {before}"
    );
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    // Headline assertions go through `tb.expect`, which dumps the
    // trace tail, timeline and metrics snapshot on failure so a CI
    // log alone is enough to diagnose a regression.
    let (done, received, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {received} bytes"));
    tb.expect(mismatches == 0, "stream corrupted across failover");
    // The secondary detected the failure and took over.
    let s = tb.secondary.unwrap();
    let detected = tb.failover_detected_at(s);
    tb.expect(detected.is_some(), "fault detector never fired");
    let (promiscuous, owns_a_p) = tb.sim.with::<Host, _>(s, |h, _| {
        (
            h.net_mut().promiscuous,
            h.net_mut().local_ips.contains(&addrs::A_P),
        )
    });
    tb.expect(!promiscuous, "promiscuous mode disabled (§5 step 2)");
    tb.expect(owns_a_p, "IP takeover (§5 step 5)");
}

/// §5 again, but for a client→server upload: no byte the primary acked
/// may be lost (requirement 2 of §2).
#[test]
fn primary_fails_mid_upload() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), 2_000_000)));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    tb.expect(done, "upload did not finish after failover");
    // The surviving replica has the complete stream.
    let s_received = tb.sim.with::<Host, _>(tb.secondary.unwrap(), |h, _| {
        h.app_mut::<SinkServer>(0).received
    });
    tb.expect(
        s_received == 2_000_000,
        &format!("secondary missed acknowledged bytes: got {s_received}"),
    );
}

/// §5 with an interactive session: the store keeps answering after the
/// takeover, with per-connection state (stock, order ids) intact.
#[test]
fn primary_fails_mid_store_session() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, StoreServer::new(80));
    let mut script: Vec<String> = Vec::new();
    for i in 0..40 {
        script.push(format!("BROWSE item{i}"));
        script.push(format!("BUY item{i} 1"));
    }
    script.push("QUIT".into());
    let expected_cmds = script.len() as u64;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(server_addr(80), script)));
    });
    tb.run_for(SimDuration::from_millis(40));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(
            c.is_done(),
            "session stalled after {} replies",
            c.replies.len()
        );
        assert_eq!(c.mismatches, 0, "post-failover replies diverged");
    });
    tb.sim.with::<Host, _>(tb.secondary.unwrap(), |h, _| {
        assert_eq!(h.app_mut::<StoreServer>(0).commands, expected_cmds);
    });
}

/// §6: kill the secondary mid-download; the primary flushes its output
/// queue, stops delaying, and the transfer completes — with `Δseq`
/// still subtracted from every outgoing sequence number.
#[test]
fn secondary_fails_mid_download() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_secs(20));

    let (done, received, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {received} bytes"));
    tb.expect(mismatches == 0, "Δseq compensation broke the stream");
    let detected = tb.failover_detected_at(tb.primary);
    tb.expect(detected.is_some(), "primary never noticed");
    assert_eq!(
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.filter_mut()
                .as_any_mut()
                .downcast_mut::<tcp_failover::core::PrimaryBridge>()
                .unwrap()
                .mode()
        }),
        tcp_failover::core::PrimaryMode::SecondaryFailed
    );
}

/// §6 for an upload.
#[test]
fn secondary_fails_mid_upload() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), 2_000_000)));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_secs(20));

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "upload did not finish after secondary failure");
    let p_received = tb
        .sim
        .with::<Host, _>(tb.primary, |h, _| h.app_mut::<SinkServer>(0).received);
    assert_eq!(p_received, 2_000_000);
}

/// Failover before any connection exists: connections opened *after*
/// the takeover go straight to the secondary (now owning a_p).
#[test]
fn connection_opened_after_takeover() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    tb.run_for(SimDuration::from_millis(20));
    tb.kill_primary();
    // Wait out detection + takeover.
    tb.run_for(SimDuration::from_millis(500));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 50000\n".to_vec(),
            50_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(10));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "post-takeover connect failed");
        assert_eq!(c.mismatches, 0);
    });
}

/// The detector's rule, measured from the kill: silence since the last
/// beat *heard* exceeds the timeout. A killed host sends nothing more, so
/// that beat left up to one interval before the kill, and the verdict
/// falls on the first tick past the timeout.
#[test]
fn detection_latency_tracks_timeout() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SinkServer::new(80));
    tb.run_for(SimDuration::from_millis(100));
    let kill_time = tb.sim.now();
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(1));
    let s = tb.secondary.unwrap();
    let detected = tb.failover_detected_at(s).expect("detected");
    let latency = detected.duration_since(kill_time);
    let DetectorConfig { timeout, interval } = tb.config.detector;
    assert!(
        latency + interval >= timeout,
        "detected on less than a timeout of silence: {latency}"
    );
    assert!(
        latency <= timeout + interval + MS,
        "detection too slow: {latency}"
    );
    // The controller counted heartbeats both ways before the failure.
    tb.sim.with::<Host, _>(s, |h, _| {
        let c = h.controller_mut::<ChainController>();
        assert!(c.heartbeats_sent > 0);
        assert!(c.heartbeats_received > 0);
        assert!(c.promoted_at.is_some());
    });
}

/// After declaring the primary dead the survivor stops heartbeating
/// it. (After §5 a beat "to the peer" is a datagram to `a_p` — the
/// survivor's own address now — resolved through the stale ARP entry
/// to the dead primary's NIC: one frame on the shared segment every
/// interval, for nobody.)
#[test]
fn survivor_stops_heartbeating_the_dead_primary() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_primary();
    tb.run_for(SimDuration::from_millis(300));
    let s = tb.secondary.unwrap();
    let sent = |tb: &mut Testbed| {
        tb.sim.with::<Host, _>(s, |h, _| {
            let c = h.controller_mut::<ChainController>();
            assert!(c.promoted_at.is_some(), "takeover did not commit");
            c.heartbeats_sent
        })
    };
    let before = sent(&mut tb);
    tb.sim.set_trace_enabled(true);
    tb.run_for(SimDuration::from_millis(500));
    assert_eq!(sent(&mut tb), before, "still heartbeating a dead peer");
    let to_dead_nic = tb
        .sim
        .trace_tail(usize::MAX)
        .iter()
        .filter(|e| e.node == s && matches!(e.kind, TraceKind::Tx { .. }))
        .filter_map(|e| e.frame.as_ref())
        .filter(|f| f[..6] == macs::PRIMARY.0)
        .count();
    assert_eq!(to_dead_nic, 0, "frames addressed to the dead primary's NIC");
}

/// A pair is a chain of length two. Same seed, same 1 MB download,
/// head killed at the same instant: the §5 phases are stamped in the
/// same order within one tick, detection meets the same bound, and the
/// client's stream is byte-exact.
#[test]
fn pair_and_chain_of_two_fail_over_alike() {
    const TOTAL: u64 = 1_000_000;
    let kill_after = SimDuration::from_millis(60);
    let download = || {
        RequestReplyClient::new(
            server_addr(80),
            format!("SEND {TOTAL}\n").into_bytes(),
            TOTAL,
        )
    };
    let received = |h: &mut Host| h.app_mut::<RequestReplyClient>(0).received_len();
    // What the promoted successor's hub and the client must show.
    let check = |name: &str, hub: &Telemetry, client: &mut Host, detector: DetectorConfig| {
        let c = client.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "{name}: stalled at {} bytes", c.received_len());
        assert_eq!(c.mismatches, 0, "{name}: client stream corrupted");
        let at = |p| {
            let t = hub.timeline.at(p);
            t.unwrap_or_else(|| panic!("{name}: no {p:?} mark"))
        };
        let steps = [at(FailoverPhase::Detection), at(FailoverPhase::ArpTakeover)];
        assert!(steps.is_sorted(), "{name}: §5 out of order: {steps:?}");
        assert!(
            steps[1] - steps[0] < SimDuration::from_millis(1).as_nanos(),
            "{name}: takeover spread over more than one tick: {steps:?}"
        );
        let lat = steps[0] - at(FailoverPhase::Failure);
        let (timeout, interval) = (detector.timeout.as_nanos(), detector.interval.as_nanos());
        assert!(
            lat + interval >= timeout,
            "{name}: detected early, {lat} ns"
        );
        assert!(
            lat <= timeout + interval + SimDuration::from_millis(20).as_nanos(),
            "{name}: detected late, {lat} ns"
        );
    };

    let mut pair = Testbed::new(TestbedConfig::default());
    replicate!(&mut pair, SourceServer::new(80));
    pair.sim.with::<Host, _>(pair.client, |h, _| {
        h.add_app(Box::new(download()));
    });
    pair.run_for(kill_after);
    let got = pair.sim.with::<Host, _>(pair.client, |h, _| received(h));
    assert!(0 < got && got < TOTAL, "pair: kill must hit mid-transfer");
    pair.kill_primary();
    pair.run_for(SimDuration::from_secs(20));
    let (hub, detector) = (pair.telemetry.clone(), pair.config.detector);
    pair.sim
        .with::<Host, _>(pair.client, |h, _| check("pair", &hub, h, detector));

    let mut chain = ChainTestbed::new(ChainConfig {
        replicas: 2,
        ..ChainConfig::default()
    });
    assert_eq!(chain.config.seed, pair.config.seed);
    chain.install_servers(|| SourceServer::new(80));
    chain.sim.with::<Host, _>(chain.client, |h, _| {
        h.add_app(Box::new(download()));
    });
    chain.run_for(kill_after);
    let got = chain.sim.with::<Host, _>(chain.client, |h, _| received(h));
    assert!(
        0 < got && got < TOTAL,
        "chain of 2: kill must hit mid-transfer"
    );
    chain.kill_replica(0);
    chain.run_for(SimDuration::from_secs(20));
    let (hub, detector) = (chain.hubs[1].clone(), chain.config.detector);
    chain
        .sim
        .with::<Host, _>(chain.client, |h, _| check("chain of 2", &hub, h, detector));
}

// ---------------------------------------------------------------------
// Takeover ends the stall: eight concurrent downloads, the serving
// replica killed mid-stream, auditor and lag ledger attached.
// ---------------------------------------------------------------------

const FLOWS: usize = 8;
const EACH: u64 = 1_000_000;

/// One download, noting the instant of every payload arrival: a 1 ms
/// poll from outside cannot see into `chain_ops::reprovision_tail`,
/// which runs the simulator for the standby's 50 ms boot by itself.
struct Download {
    inner: RequestReplyClient,
    arrivals: Vec<SimTime>,
}

impl SocketApp for Download {
    fn poll(&mut self, api: &mut SocketApi<'_>) {
        let before = self.inner.received_len();
        self.inner.poll(api);
        if self.inner.received_len() > before {
            self.arrivals.push(api.now());
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn add_downloads(sim: &mut Simulator, client: NodeId) {
    sim.with::<Host, _>(client, |h, _| {
        for _ in 0..FLOWS {
            let request = format!("SEND {EACH}\n").into_bytes();
            h.add_app(Box::new(Download {
                inner: RequestReplyClient::new(server_addr(80), request, EACH),
                arrivals: Vec::new(),
            }));
        }
    });
}

/// Whether every download is complete, and byte-exact so far.
fn downloads_done(sim: &mut Simulator, client: NodeId) -> bool {
    sim.with::<Host, _>(client, |h, _| {
        (0..FLOWS).fold(true, |done, i| {
            let c = &h.app_mut::<Download>(i).inner;
            assert_eq!(c.mismatches, 0, "download {i} corrupted");
            done && c.is_done()
        })
    })
}

/// Runs the scene up to the kill instant, which must fall mid-stream.
fn run_to_kill(sim: &mut Simulator, client: NodeId, kill_after: SimDuration) -> SimTime {
    sim.run_for(kill_after);
    assert!(!downloads_done(sim, client), "the kill must hit mid-stream");
    sim.now()
}

/// One download across the takeover. From its last byte before the
/// commit to its first byte after it is, to the nanosecond, `pre_kill +
/// detection + post_commit`: how long before the kill that last byte
/// came (zero if it was still crossing the segment at the kill), what of
/// the detection latency the download then sat out (all of it, but for
/// that crossing), and how long after the commit the successor's first
/// byte came.
#[derive(Debug)]
struct Stall {
    pre_kill: SimDuration,
    detection: SimDuration,
    post_commit: SimDuration,
    /// The longest wait for payload that ended after the kill, wherever
    /// in the stream.
    longest: SimDuration,
}

fn stalls(sim: &mut Simulator, client: NodeId, kill: SimTime, commit: SimTime) -> Vec<Stall> {
    sim.with::<Host, _>(client, |h, _| {
        let stall = |i| {
            let at = &h.app_mut::<Download>(i).arrivals;
            let last = *at.iter().rev().find(|&&t| t <= commit).expect("streaming");
            let next = *at.iter().find(|&&t| t > commit).expect("resumed");
            let waits = at.windows(2).filter(|w| w[1] > kill).map(|w| w[1] - w[0]);
            Stall {
                pre_kill: kill.max(last) - last,
                detection: commit - kill.max(last),
                post_commit: next - commit,
                longest: waits.max().expect("resumed"),
            }
        };
        (0..FLOWS).map(stall).collect()
    })
}

/// Frames the simulator took back from `node`'s queue: all of it at the
/// kill for the dead host, what was addressed to the dead peer at the
/// commit for its successor.
fn frames_recalled(hub: &Telemetry, sim: &Simulator, node: NodeId) -> u64 {
    let snap = hub.registry.snapshot(sim.now().as_nanos());
    let name = format!("net.n{node}.p0.drops.withdrawn");
    snap.counter(&name).unwrap_or(0)
}

/// What a scene leaves behind for the caller to judge.
struct Scene {
    events: u64,
    /// Kill → takeover committed.
    takeover: SimDuration,
    /// Frames recalled from the killed host and from its successor.
    recalled: [u64; 2],
    stalls: Vec<Stall>,
}

/// The hosts' protocol-processing cost with scheduling noise on it, as
/// the benchmark's scenes run it. The noise is what spreads the
/// replicas' transmit backlogs apart — without it a standby's first
/// heartbeats happen to arrive just inside one timeout.
fn loaded_cpu() -> CpuModel {
    CpuModel::server_2003().with_jitter(0.35)
}

fn loaded_tcp() -> TcpConfig {
    TcpConfig {
        nagle: false,
        ..TcpConfig::default()
    }
}

const MS: SimDuration = SimDuration::from_millis(1);
const DEADLINE: SimDuration = SimDuration::from_secs(20);

/// The pair under load: P killed `kill_after` into the downloads.
fn loaded_pair_scene(seed: u64, kill_after: SimDuration) -> Scene {
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        cpu: loaded_cpu(),
        client_cpu: loaded_cpu().scaled(0.6),
        tcp: loaded_tcp(),
        audit: Some(true),
        health: Some(true),
        ..TestbedConfig::default()
    });
    replicate!(&mut tb, SourceServer::new(80));
    add_downloads(&mut tb.sim, tb.client);
    let kill = run_to_kill(&mut tb.sim, tb.client, kill_after);
    tb.kill_primary();
    while !downloads_done(&mut tb.sim, tb.client) {
        tb.run_for(MS);
        let stalled = tb.sim.now() > kill + DEADLINE;
        tb.expect(!stalled, "downloads did not survive the failover");
    }
    let violations = tb.audit_violations();
    tb.expect(violations == 0, "the auditor fired");
    let s = tb.secondary.unwrap();
    let promoted = tb
        .sim
        .with::<Host, _>(s, |h, _| h.controller_mut::<ChainController>().promoted_at);
    let committed = tb.telemetry.journal.events();
    let committed: Vec<_> = committed.iter().filter(|e| e.kind == "promoted").collect();
    assert_eq!(committed.len(), 1, "{committed:?}");
    assert_eq!(committed[0].scope, "core.control.r1", "who took the VIP");
    let commit = promoted.expect("takeover committed");
    Scene {
        events: tb.sim.events_processed(),
        takeover: commit - kill,
        recalled: [tb.primary, s].map(|n| frames_recalled(&tb.hubs[0], &tb.sim, n)),
        stalls: stalls(&mut tb.sim, tb.client, kill, commit),
    }
}

/// A chain of three under the same load: the head killed, the tail
/// reprovisioned at the first 1 ms poll after the promotion commits,
/// run until redundancy is restored and the downloads are complete.
/// Exactly one replica may ever hold the VIP.
fn loaded_chain_scene(seed: u64, kill_after: SimDuration) -> Scene {
    let mut tb = ChainTestbed::new(ChainConfig {
        seed,
        cpu: loaded_cpu(),
        tcp: loaded_tcp(),
        audit: Some(true),
        health: Some(true),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    add_downloads(&mut tb.sim, tb.client);
    let promoted_at = |tb: &mut ChainTestbed, i: usize| {
        let node = tb.replicas[i];
        (tb.sim).with::<Host, _>(node, |h, _| {
            h.controller_mut::<ChainController>().promoted_at
        })
    };
    let kill = run_to_kill(&mut tb.sim, tb.client, kill_after);
    tb.kill_replica(0);
    let mut standby = None;
    let mut finished = false;
    while !finished && tb.sim.now() < kill + DEADLINE {
        tb.run_for(MS);
        match standby {
            None if promoted_at(&mut tb, 1).is_some() => {
                standby = Some(chain_ops::reprovision_tail(&mut tb));
            }
            None => {}
            Some(_) => tb.poll_reprovision(),
        }
        finished = downloads_done(&mut tb.sim, tb.client)
            && tb.tracker.phase() == ReprovisionPhase::Restored;
    }

    // Exactly one replica ever held the VIP: the dead head's successor.
    // (Checked first: a second head is why a scene does not finish.)
    let head = promoted_at(&mut tb, 1).expect("replica 1 promoted");
    let standby = standby.expect("reprovisioned once promoted");
    let journaled = |hub: &Telemetry, kind: &str| {
        let events = hub.journal.events();
        events.iter().filter(|e| e.kind == kind).count()
    };
    for i in [2, standby] {
        let promoted = promoted_at(&mut tb, i);
        assert_eq!(promoted, None, "replica {i} also took the VIP");
        assert_eq!(
            journaled(&tb.hubs[i], "promoted"),
            0,
            "replica {i}'s journal"
        );
    }
    assert_eq!(journaled(&tb.hubs[1], "promoted"), 1, "the successor's");
    assert_eq!(
        journaled(&tb.hubs[standby], "peer_dead"),
        0,
        "the standby's verdicts"
    );
    assert_eq!(
        journaled(&tb.hubs[1], "peer_dead"),
        1,
        "the successor's: the head"
    );
    let successor_mac = tb.sim.with::<Host, _>(tb.replicas[1], |h, _| h.mac());
    let vip_at = (tb.sim).with::<Router, _>(tb.router, |r, _| r.cached_mac(addrs::A_P));
    assert_eq!(vip_at, Some(successor_mac), "who answers for the VIP");

    assert!(finished, "not restored, or the downloads stalled");
    assert_eq!(tb.audit_violations(), 0, "the auditor fired");
    assert_eq!(tb.catchup_lag(), 0, "the lag ledger did not drain");
    Scene {
        events: tb.sim.events_processed(),
        takeover: head - kill,
        recalled: [0, 1].map(|i| frames_recalled(&tb.hubs[0], &tb.sim, tb.replicas[i])),
        stalls: stalls(&mut tb.sim, tb.client, kill, head),
    }
}

/// Takeover clears its own road. A killed host is silent: past what was
/// crossing the segment at the kill, nothing of its backlog reaches the
/// client, so detection is not held up by beats from the grave and the
/// stall starts when the host dies. The promoted replica takes back what
/// it had queued for the dead peer, announces the VIP and retransmits in
/// the same instant, so every download's first new byte follows the
/// commit by a few CPU slots and one crossing of the segment — not by
/// the 20–62 ms of frames for nobody that used to stand ahead of it, and
/// not by an RTO on the flow whose late ACK undid the kick. What is left
/// of the stall is `pre_kill`, the load's own burst period (eight 64 KB
/// windows crossing one hub twice, under 100 ms), and the detector.
fn assert_stalls_end_with_the_takeover(what: &str, scene: &Scene) {
    let [at_kill, at_commit] = scene.recalled;
    assert!(at_kill > 0 && at_commit > 0, "{what}: {:?}", scene.recalled);
    for (i, s) in scene.stalls.iter().enumerate() {
        assert!(
            s.detection + MS >= scene.takeover,
            "{what}: flow {i} still heard the dead host: {s:?}"
        );
        assert!(
            s.post_commit < SimDuration::from_millis(10),
            "{what}: flow {i} resumed late: {s:?}"
        );
        let across = s.pre_kill + s.detection + s.post_commit;
        assert!(across <= s.longest, "{what}: flow {i}: {s:?}");
        assert!(
            s.longest < scene.takeover + SimDuration::from_millis(100),
            "{what}: takeover after {}, flow {i}: {s:?}",
            scene.takeover
        );
    }
}

/// Kill offsets into the downloads, in ms.
const KILLS: [u64; 3] = [400, 770, 1100];

#[test]
fn loaded_pair_stall_ends_with_the_takeover() {
    for ms in KILLS {
        let scene = loaded_pair_scene(0xF0, SimDuration::from_millis(ms));
        assert_stalls_end_with_the_takeover(&format!("pair +{ms} ms"), &scene);
    }
}

/// Only a real head may commit: the reprovisioned standby joins a
/// loaded chain whose first heartbeats reach it later than one timeout,
/// and must not call the survivors dead and take the VIP itself.
#[test]
fn loaded_chain_keeps_one_head_through_reprovisioning() {
    for ms in KILLS {
        let scene = loaded_chain_scene(0xF0, SimDuration::from_millis(ms));
        assert_stalls_end_with_the_takeover(&format!("chain +{ms} ms"), &scene);
    }
}

/// Both scenes are reproducible to the event.
#[test]
fn loaded_scenes_repeat_to_the_event() {
    let at = SimDuration::from_millis(700);
    let (a, b) = (loaded_pair_scene(7, at), loaded_pair_scene(7, at));
    assert_eq!(a.events, b.events, "pair");
    let (a, b) = (loaded_chain_scene(7, at), loaded_chain_scene(7, at));
    assert_eq!(a.events, b.events, "chain");
}

/// Churn through a reprovisioning round: the loaded chain of three
/// loses its head 400 ms into eight 1 MB downloads, the tail is
/// reprovisioned once the successor commits, and a new 2 000 B request
/// opens every 5 ms (200 conn/s) from the start until well after the
/// adopted downloads have finished. Every connection is answered,
/// byte-exact, and no auditor rule fires.
#[test]
fn churn_through_a_chain_reprovision_is_answered() {
    const CHURN_EVERY: SimDuration = SimDuration::from_millis(5);
    const CHURN_UNTIL: SimDuration = SimDuration::from_millis(2_500);
    let mut tb = ChainTestbed::new(ChainConfig {
        seed: 0xF0,
        cpu: loaded_cpu(),
        tcp: loaded_tcp(),
        audit: Some(true),
        health: Some(true),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    add_downloads(&mut tb.sim, tb.client);
    let kill_at = SimTime::ZERO + SimDuration::from_millis(400);
    let (mut next_churn, mut churned) = (SimTime::ZERO, 0);
    let mut standby = None;
    while tb.sim.now() < SimTime::ZERO + CHURN_UNTIL + DEADLINE {
        if tb.sim.now() >= next_churn && tb.sim.now() < SimTime::ZERO + CHURN_UNTIL {
            tb.sim.with::<Host, _>(tb.client, |h, _| {
                let request = b"SEND 2000\n".to_vec();
                h.add_app(Box::new(RequestReplyClient::new(
                    server_addr(80),
                    request,
                    2000,
                )));
            });
            churned += 1;
            next_churn += CHURN_EVERY;
        }
        if tb.sim.now() == kill_at {
            assert!(!downloads_done(&mut tb.sim, tb.client), "kill mid-stream");
            tb.kill_replica(0);
        }
        tb.run_for(MS);
        let promoted = (tb.sim).with::<Host, _>(tb.replicas[1], |h, _| {
            h.controller_mut::<ChainController>().promoted_at
        });
        match standby {
            None if promoted.is_some() => standby = Some(chain_ops::reprovision_tail(&mut tb)),
            None => {}
            Some(_) => tb.poll_reprovision(),
        }
    }
    assert!(standby.is_some(), "reprovisioned once promoted");
    assert_eq!(tb.tracker.phase(), ReprovisionPhase::Restored);
    assert!(downloads_done(&mut tb.sim, tb.client), "downloads stalled");
    let unanswered: Vec<usize> = tb.sim.with::<Host, _>(tb.client, |h, _| {
        (0..churned)
            .filter(|&i| {
                let c = h.app_mut::<RequestReplyClient>(FLOWS + i);
                assert_eq!(c.mismatches, 0, "request {i} corrupted");
                !c.is_done()
            })
            .collect()
    });
    assert!(
        unanswered.is_empty(),
        "of {churned}, unanswered: {unanswered:?}"
    );
    assert_eq!(tb.audit_violations(), 0, "the auditor fired");
}

/// §5 when the takeover's one announcement is lost: every frame to and
/// from the secondary is dropped from 30 ms after the primary dies until
/// 2 ms after the secondary commits, so its gratuitous ARP never reaches
/// the router, which keeps sending the client's segments to the dead
/// primary's NIC. The new holder repeats the announcement once, 2 s
/// after the commit (RFC 5227 §1.1: `ANNOUNCE_NUM` = 2,
/// `ANNOUNCE_INTERVAL` = 2 s).
///
/// Predicted recovery, from the timers alone: the takeover's
/// retransmission at the commit is lost, and with `r` the socket's RTO
/// (at least RTO_MIN, 200 ms) the backed-off retransmissions follow at
/// commit + r, 3r, 7r and 15r. Each one reaches the client, whose ACK
/// goes to the dead NIC — until the repeat at commit + 2 s re-points
/// the router. The fourth, at commit + 15r, is then acknowledged: the
/// stream moves past where it stood within the repeat plus one
/// backed-off RTO (8r, at most 2 s for r up to 250 ms), and the download
/// completes. (Seed 1: r = 234 ms, the stream moves at commit + 3.51 s;
/// before the repeat existed it never moved again.)
#[test]
fn a_takeover_survives_the_loss_of_its_announcement() {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 1,
        ..TestbedConfig::default()
    });
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    let received = |tb: &mut Testbed| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).received_len()
        })
    };
    let ms = SimDuration::from_millis(1);
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_millis(30));
    let s = tb.secondary.expect("replicated testbed");
    tb.reshape_links(s, |l| l.with_loss(1.0));
    let promoted = |tb: &mut Testbed| {
        (tb.sim).with::<Host, _>(s, |h, _| h.controller_mut::<ChainController>().promoted_at)
    };
    while promoted(&mut tb).is_none() {
        tb.run_for(ms);
    }
    let commit = promoted(&mut tb).expect("promoted");
    tb.run_for(SimDuration::from_millis(2));
    tb.reshape_links(s, |l| l.with_loss(0.0));
    let repeat = commit + SimDuration::from_secs(2);
    tb.run_for(repeat.duration_since(tb.sim.now()));
    let stalled = received(&mut tb);
    assert!(stalled < 2_000_000, "the loss must strand the download");
    let bound = repeat + SimDuration::from_secs(2);
    let mut moved = None;
    while moved.is_none() && tb.sim.now() < commit + SimDuration::from_secs(60) {
        tb.run_for(ms);
        if received(&mut tb) > stalled {
            moved = Some(tb.sim.now());
        }
    }
    let moved = moved.unwrap_or_else(|| panic!("the stream never moved past {stalled} bytes"));
    assert!(
        moved <= bound,
        "moved at {moved:?}, predicted by {bound:?} (commit {commit:?})"
    );
    tb.run_for(SimDuration::from_secs(20));
    let (done, got, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {got} bytes"));
    tb.expect(mismatches == 0, "stream corrupted across failover");
}
