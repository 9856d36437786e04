//! The sharded datapath must be an implementation detail: the same
//! scripted segment stream, run through `process_batch` at any shard
//! count, must produce byte-identical output in identical order.

use tcp_failover::apps::manyflow::{ManyFlowConfig, ManyFlowNet, ManyFlowWorkload};
use tcp_failover::core::flow::FlowTableConfig;
use tcp_failover::core::{FailoverConfig, PrimaryBridge};
use tcp_failover::net::ShardExecutor;
use tcp_failover::tcp::filter::FilterOutput;
use tcp_failover::wire::ipv4::Ipv4Addr;

/// The pair's head, or — given an upstream — a link below the head
/// (the workload addresses the VIP, so the link answers to it).
fn link(shards: usize, upstream: Option<Ipv4Addr>) -> PrimaryBridge {
    let net = ManyFlowNet::default();
    let ports = FailoverConfig::from_ports([80]);
    let mut b = PrimaryBridge::link(net.a_p, net.a_p, upstream, Some(net.a_s), ports);
    b.set_flow_config(FlowTableConfig::new(shards, 65_536));
    b
}

/// Runs the workload through `process_batch` and flattens the output.
fn run(shards: usize, threads: usize, batch: usize) -> (Vec<FilterOutput>, u64) {
    run_through(link(shards, None), threads, batch)
}

fn run_through(mut b: PrimaryBridge, threads: usize, batch: usize) -> (Vec<FilterOutput>, u64) {
    let cfg = ManyFlowConfig {
        flows: 60,
        offset: 0,
        rounds: 3,
        payload: 256,
        close: true,
        seed: 0xD00D,
    };
    let workload = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
    let exec = ShardExecutor::new(threads);
    let mut outs = Vec::new();
    let mut now = 0u64;
    for chunk in workload.into_batches(batch) {
        now += 1_000_000;
        outs.extend(b.process_batch(chunk, now, &exec));
    }
    let merged = b.stats.merged_bytes;
    (outs, merged)
}

/// FNV-1a over every emitted byte, with direction/lane markers so a
/// reordering cannot hash equal.
fn digest(outs: &[FilterOutput]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for out in outs {
        eat(b"W");
        for seg in &out.to_wire {
            eat(&seg.bytes);
        }
        eat(b"T");
        for seg in &out.to_tcp {
            eat(&seg.bytes);
        }
    }
    h
}

#[test]
fn output_is_identical_across_shard_counts() {
    let (base, merged) = run(1, 1, 16);
    assert!(merged > 0, "workload must exercise the merge path");
    let reference = digest(&base);
    for shards in [2usize, 8] {
        for threads in [1usize, 4] {
            let (outs, m) = run(shards, threads, 16);
            assert_eq!(
                digest(&outs),
                reference,
                "shards={shards} threads={threads} diverged from the 1-shard run"
            );
            assert_eq!(m, merged, "stats totals must also be identical");
        }
    }
}

#[test]
fn a_link_routes_its_output_the_same_on_every_lane() {
    // The chain routing runs after the merge, outside the shard
    // workers: what a link below the head diverts upstream must not
    // depend on which path the batch took.
    let net = ManyFlowNet::default();
    let up = Ipv4Addr::new(10, 0, 0, 9);
    let (base, merged) = run_through(link(1, Some(up)), 1, 16);
    let wire: Vec<_> = base.iter().flat_map(|o| &o.to_wire).collect();
    assert!(merged > 0 && !wire.is_empty());
    assert!(wire.iter().all(|s| s.dst == up || s.dst == net.a_s));
    assert_ne!(digest(&base), digest(&run(1, 1, 16).0), "the head's");
    let (outs, m) = run_through(link(8, Some(up)), 4, 16);
    assert_eq!(digest(&outs), digest(&base), "8 shards on 4 threads");
    assert_eq!(m, merged);
}

#[test]
fn batch_size_does_not_change_output() {
    let (base, _) = run(4, 4, 16);
    let reference = digest(&base);
    for batch in [1usize, 7, 500] {
        let (outs, _) = run(4, 4, batch);
        assert_eq!(digest(&outs), reference, "batch={batch} diverged");
    }
}

#[test]
fn workload_tears_down_every_flow() {
    let (_, _) = run(1, 1, 32);
    let cfg = ManyFlowConfig {
        flows: 25,
        offset: 0,
        rounds: 1,
        payload: 100,
        close: true,
        seed: 3,
    };
    let workload = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
    let mut b = link(2, None);
    let exec = ShardExecutor::new(2);
    let mut now = 0;
    for chunk in workload.into_batches(64) {
        now += 1_000_000;
        b.process_batch(chunk, now, &exec);
    }
    assert_eq!(b.conn_count(), 0, "all scripted flows reach teardown");
    assert_eq!(b.stats.conns_closed, 25);
    assert!(b.flow_count() >= 25, "TimeWait tombstones remain until GC");
}
