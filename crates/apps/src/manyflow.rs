//! Deterministic many-flow workload generator for the flow table.
//!
//! The paper's testbed measures one connection at a time; the flow
//! table exists for the regime it does not measure — thousands of
//! concurrent connections churning through the bridge. This module
//! scripts that regime *at the segment level*: for each of `flows`
//! connections it emits the exact `(direction, segment)` sequence a
//! primary bridge would see — client SYN, held primary SYN+ACK,
//! diverted secondary SYN+ACK, `rounds` of matching replica data with
//! client ACKs, and a full §8 teardown — and interleaves the flows
//! round-robin so every batch touches many flows at once.
//!
//! Everything is derived from [`ManyFlowConfig::seed`] with a SplitMix
//! generator: same config, same bytes, always. That property is what
//! lets `tests/shard_determinism.rs` assert byte-identical bridge
//! output across batch sizes.

use bytes::{BufMut, Bytes, BytesMut};
use tcpfo_tcp::filter::{AddressedSegment, BatchDir, FlowKey};
use tcpfo_tcp::types::SocketAddr;
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment};

/// Parameters of a generated many-flow workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManyFlowConfig {
    /// Number of concurrent connections to script.
    pub flows: usize,
    /// First flow index. Two workloads with disjoint
    /// `offset..offset+flows` ranges use disjoint client tuples, so
    /// they can be replayed back-to-back into one bridge (e.g. a
    /// second wave evicting the first under capacity pressure).
    pub offset: usize,
    /// Server→client data exchanges per connection.
    pub rounds: usize,
    /// Payload bytes per data segment.
    pub payload: usize,
    /// Whether each connection ends with a full §8 teardown. When
    /// `false` the flows are left established — the shape a capacity /
    /// eviction experiment wants.
    pub close: bool,
    /// Seed for all derived sequence numbers and payload bytes.
    pub seed: u64,
}

impl Default for ManyFlowConfig {
    fn default() -> Self {
        Self {
            flows: 100,
            offset: 0,
            rounds: 2,
            payload: 512,
            close: true,
            seed: 0xF4,
        }
    }
}

/// The server port every scripted connection targets.
pub const SERVER_PORT: u16 = 80;

/// Addresses the scripted segments assume, mirroring the paper's
/// testbed: primary bridge `a_p`, secondary bridge `a_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManyFlowNet {
    /// Primary server / bridge address (segments from P and from C
    /// arrive addressed here).
    pub a_p: Ipv4Addr,
    /// Secondary server address (diverted segments carry this source).
    pub a_s: Ipv4Addr,
}

impl Default for ManyFlowNet {
    fn default() -> Self {
        Self {
            a_p: Ipv4Addr::new(10, 0, 0, 2),
            a_s: Ipv4Addr::new(10, 0, 0, 3),
        }
    }
}

/// SplitMix64 — the repo's standard deterministic scalar generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-flow identity and initial sequence numbers, all seed-derived.
#[derive(Debug, Clone, Copy)]
struct FlowPlan {
    client: SocketAddr,
    iss_c: u32,
    iss_p: u32,
    iss_s: u32,
}

impl FlowPlan {
    /// Ports per client IP. With 16 384 ports per host and the full
    /// 10.64.0.0/16 host space below, the mapping is injective up to
    /// ~10⁹ flows — the old 192.168.x.y scheme wrapped its octets past
    /// ~50k flows and silently aliased 4-tuples, which at 10⁶ flows
    /// would collapse distinct flows onto shared flow-table entries.
    const PORTS_PER_IP: usize = 16_384;

    fn new(index: usize, seed: u64) -> Self {
        let mut st = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let host = index / Self::PORTS_PER_IP;
        // 10.64.h.l keeps clear of the testbed's own 10.0.0.x
        // addresses for any realistic flow count.
        let ip = Ipv4Addr::new(10, 64 + (host >> 16) as u8, (host >> 8) as u8, host as u8);
        let port = 10_000 + (index % Self::PORTS_PER_IP) as u16;
        Self {
            client: SocketAddr::new(ip, port),
            iss_c: splitmix(&mut st) as u32,
            iss_p: splitmix(&mut st) as u32,
            iss_s: splitmix(&mut st) as u32,
        }
    }
}

/// One scripted step: a direction plus the wire segment.
pub type Step = (BatchDir, AddressedSegment);

/// A fully scripted many-flow workload.
#[derive(Debug)]
pub struct ManyFlowWorkload {
    steps: Vec<Step>,
    keys: Vec<FlowKey>,
    steps_per_flow: usize,
}

impl ManyFlowWorkload {
    /// Scripts the workload: `flows` interleaved connection scripts
    /// against a bridge at `net.a_p` / `net.a_s`.
    pub fn generate(cfg: &ManyFlowConfig, net: ManyFlowNet) -> Self {
        let mut per_flow: Vec<Vec<Step>> = Vec::with_capacity(cfg.flows);
        let mut keys = Vec::with_capacity(cfg.flows);
        for i in 0..cfg.flows {
            let script = FlowScript::new(cfg, net, i);
            keys.push(script.key());
            per_flow.push((0..script.len()).map(|k| script.step_at(k)).collect());
        }
        let steps_per_flow = per_flow.first().map_or(0, Vec::len);
        // Round-robin interleave: step 0 of every flow, then step 1 of
        // every flow, … — every batch touches many flows, so every
        // call merges many connections side by side.
        let mut steps = Vec::with_capacity(cfg.flows * steps_per_flow);
        for step in 0..steps_per_flow {
            for flow in &per_flow {
                steps.push(flow[step].clone());
            }
        }
        Self {
            steps,
            keys,
            steps_per_flow,
        }
    }

    /// The interleaved steps, in deterministic order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Consumes the workload into batches of at most `batch` steps,
    /// preserving order.
    pub fn into_batches(self, batch: usize) -> Vec<Vec<Step>> {
        assert!(batch > 0, "batch size must be positive");
        let mut out = Vec::new();
        let mut it = self.steps.into_iter().peekable();
        while it.peek().is_some() {
            out.push(it.by_ref().take(batch).collect());
        }
        out
    }

    /// Flow keys, in flow-index order.
    pub fn keys(&self) -> &[FlowKey] {
        &self.keys
    }

    /// Steps scripted per connection.
    pub fn steps_per_flow(&self) -> usize {
        self.steps_per_flow
    }
}

fn raw(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> AddressedSegment {
    AddressedSegment::new(src, dst, seg.encode(src, dst))
}

/// Builds a segment as the secondary bridge would divert it to the
/// primary: source rewritten metadata via the ORIG_DEST option, the
/// checksum patched for the primary's pseudo-header.
fn diverted(net: ManyFlowNet, client: SocketAddr, seg: TcpSegment) -> AddressedSegment {
    let mut p = SegmentPatcher::new(seg.encode(net.a_s, client.ip), net.a_s, client.ip);
    p.push_orig_dest_option(client.ip, client.port);
    p.set_pseudo_dst(net.a_p);
    let (bytes, src, dst) = p.finish();
    AddressedSegment::new(src, dst, bytes)
}

/// Deterministic payload: same for P and S (the bridge requires the
/// replicas to produce identical byte streams), distinct per flow and
/// round so cross-flow aliasing bugs cannot cancel out.
fn round_payload(cfg: &ManyFlowConfig, flow: usize, round: usize) -> Bytes {
    let mut st = cfg
        .seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add((flow as u64) << 20)
        .wrapping_add(round as u64);
    let mut bytes = BytesMut::with_capacity(cfg.payload.next_multiple_of(8));
    while bytes.len() < cfg.payload {
        bytes.put_slice(&splitmix(&mut st).to_le_bytes());
    }
    bytes.truncate(cfg.payload);
    bytes.freeze()
}

/// One connection's script with **O(1) random access**: any step can
/// be materialised directly from `(flow index, step index)` without
/// building the preceding ones. This is what lets the PR 6 open-loop
/// harness schedule millions of flows as flat `(intended_ns, flow,
/// step)` tokens and encode segments lazily at injection time — a
/// pre-built 1M-flow workload would hold gigabytes of frames.
///
/// The step sequence is exactly the one [`ManyFlowWorkload::generate`]
/// emits (generation is now implemented on top of this type): a
/// 3-step handshake, three steps per data round (P data, diverted S
/// data, client ACK), and — when [`ManyFlowConfig::close`] is set — a
/// 4-step §8 teardown. Random access is possible because the
/// cumulative stream position at round `r` is simply
/// `r × payload` (every data segment carries the same byte count).
#[derive(Debug, Clone, Copy)]
pub struct FlowScript {
    cfg: ManyFlowConfig,
    net: ManyFlowNet,
    plan: FlowPlan,
    /// Local flow index (payload derivation), as distinct from the
    /// offset-shifted identity index in `plan`.
    index: usize,
}

impl FlowScript {
    /// The script of local flow `flow` under `cfg` (identity index
    /// `cfg.offset + flow`, like [`ManyFlowWorkload::generate`]).
    pub fn new(cfg: &ManyFlowConfig, net: ManyFlowNet, flow: usize) -> Self {
        FlowScript {
            cfg: *cfg,
            net,
            plan: FlowPlan::new(cfg.offset + flow, cfg.seed),
            index: flow,
        }
    }

    /// The connection's flow-table key.
    pub fn key(&self) -> FlowKey {
        FlowKey::new(SERVER_PORT, self.plan.client)
    }

    /// Number of steps in the script.
    pub fn len(&self) -> usize {
        3 + 3 * self.cfg.rounds + if self.cfg.close { 4 } else { 0 }
    }

    /// Whether the script has no steps (never: the handshake is
    /// always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Materialises step `k` (panics when `k ≥ len()`). Stream
    /// positions are computed in closed form, so cost is independent
    /// of `k`.
    pub fn step_at(&self, k: usize) -> Step {
        let FlowPlan {
            client,
            iss_c,
            iss_p,
            iss_s,
        } = self.plan;
        let (cfg, net) = (&self.cfg, self.net);
        let seg_to = |dst_port: u16| TcpSegment::builder(SERVER_PORT, dst_port);
        // Bytes on the wire after `r` complete data rounds.
        let sent_after = |r: usize| (r as u64 * cfg.payload as u64) as u32;
        match k {
            // --- Handshake ---------------------------------------
            0 => (
                BatchDir::Inbound,
                raw(
                    client.ip,
                    net.a_p,
                    TcpSegment::builder(client.port, SERVER_PORT)
                        .seq(iss_c)
                        .flags(TcpFlags::SYN)
                        .mss(1460)
                        .window(60_000)
                        .build(),
                ),
            ),
            1 => (
                BatchDir::Outbound,
                raw(
                    net.a_p,
                    client.ip,
                    seg_to(client.port)
                        .seq(iss_p)
                        .ack(iss_c.wrapping_add(1))
                        .flags(TcpFlags::SYN)
                        .mss(1460)
                        .window(50_000)
                        .build(),
                ),
            ),
            2 => (
                BatchDir::Inbound,
                diverted(
                    net,
                    client,
                    seg_to(client.port)
                        .seq(iss_s)
                        .ack(iss_c.wrapping_add(1))
                        .flags(TcpFlags::SYN)
                        .mss(1460)
                        .window(40_000)
                        .build(),
                ),
            ),
            // --- Data rounds (server → client, replicas in
            // lockstep) ---------------------------------------------
            k if k < 3 + 3 * cfg.rounds => {
                let round = (k - 3) / 3;
                let sent = sent_after(round);
                match (k - 3) % 3 {
                    0 => (
                        BatchDir::Outbound,
                        raw(
                            net.a_p,
                            client.ip,
                            seg_to(client.port)
                                .seq(iss_p.wrapping_add(1).wrapping_add(sent))
                                .ack(iss_c.wrapping_add(1))
                                .window(50_000)
                                .payload(round_payload(cfg, self.index, round))
                                .build(),
                        ),
                    ),
                    1 => (
                        BatchDir::Inbound,
                        diverted(
                            net,
                            client,
                            seg_to(client.port)
                                .seq(iss_s.wrapping_add(1).wrapping_add(sent))
                                .ack(iss_c.wrapping_add(1))
                                .window(40_000)
                                .payload(round_payload(cfg, self.index, round))
                                .build(),
                        ),
                    ),
                    // Client ACKs the merged release (client speaks S
                    // space).
                    _ => (
                        BatchDir::Inbound,
                        raw(
                            client.ip,
                            net.a_p,
                            TcpSegment::builder(client.port, SERVER_PORT)
                                .seq(iss_c.wrapping_add(1))
                                .ack(iss_s.wrapping_add(1).wrapping_add(sent_after(round + 1)))
                                .flags(TcpFlags::ACK)
                                .window(60_000)
                                .build(),
                        ),
                    ),
                }
            }
            // --- §8 teardown -------------------------------------
            // Client closes first; both replicas ACK past the FIN,
            // then FIN themselves; the client ACKs the merged FIN.
            k if cfg.close && k < self.len() => {
                let sent = sent_after(cfg.rounds);
                let client_fin_end = iss_c.wrapping_add(2);
                match k - (3 + 3 * cfg.rounds) {
                    0 => (
                        BatchDir::Inbound,
                        raw(
                            client.ip,
                            net.a_p,
                            TcpSegment::builder(client.port, SERVER_PORT)
                                .seq(iss_c.wrapping_add(1))
                                .ack(iss_s.wrapping_add(1).wrapping_add(sent))
                                .flags(TcpFlags::FIN | TcpFlags::ACK)
                                .window(60_000)
                                .build(),
                        ),
                    ),
                    replica @ (1 | 2) => {
                        let iss = if replica == 1 { iss_p } else { iss_s };
                        let seg = seg_to(client.port)
                            .seq(iss.wrapping_add(1).wrapping_add(sent))
                            .ack(client_fin_end)
                            .flags(TcpFlags::FIN | TcpFlags::ACK)
                            .window(if replica == 1 { 50_000 } else { 40_000 })
                            .build();
                        if replica == 1 {
                            (BatchDir::Outbound, raw(net.a_p, client.ip, seg))
                        } else {
                            (BatchDir::Inbound, diverted(net, client, seg))
                        }
                    }
                    // Final client ACK of the merged FIN (S space,
                    // FIN takes one).
                    _ => (
                        BatchDir::Inbound,
                        raw(
                            client.ip,
                            net.a_p,
                            TcpSegment::builder(client.port, SERVER_PORT)
                                .seq(client_fin_end)
                                .ack(iss_s.wrapping_add(2).wrapping_add(sent))
                                .flags(TcpFlags::ACK)
                                .window(60_000)
                                .build(),
                        ),
                    ),
                }
            }
            _ => panic!(
                "step {k} out of range for a {}-step flow script",
                self.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct() {
        let cfg = ManyFlowConfig {
            flows: 1000,
            offset: 0,
            ..Default::default()
        };
        let w = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
        let mut keys = w.keys().to_vec();
        keys.sort_by_key(|k| (k.peer.ip.octets(), k.peer.port));
        keys.dedup();
        assert_eq!(keys.len(), 1000, "every flow has a distinct 4-tuple");
    }

    #[test]
    fn addressing_is_injective_at_million_flow_scale() {
        // Indices straddling every carry boundary of the addressing
        // scheme (port wrap at 16 384, IP octet carries at 2^8 and
        // 2^16 hosts) plus the old scheme's known collision pairs.
        let indices = [
            0usize, 199, 200, 16_383, 16_384, 16_385, 50_000, 51_000, 65_535, 65_536, 200_000,
            1_048_575, 1_048_576, 4_194_304,
        ];
        let cfg = ManyFlowConfig::default();
        let mut seen = std::collections::HashSet::new();
        for &i in &indices {
            let cfg_i = ManyFlowConfig { offset: i, ..cfg };
            let s = FlowScript::new(&cfg_i, ManyFlowNet::default(), 0);
            let key = s.key();
            assert!(
                seen.insert((key.peer.ip.octets(), key.peer.port)),
                "index {i} aliased another flow's 4-tuple"
            );
            assert_ne!(
                key.peer.ip.octets()[0..2],
                [10, 0],
                "client IPs must avoid the testbed's 10.0.0.x block"
            );
        }
        // Dense check across a port-wrap boundary.
        let mut dense = std::collections::HashSet::new();
        for i in 16_000..17_000 {
            let cfg_i = ManyFlowConfig { offset: i, ..cfg };
            let key = FlowScript::new(&cfg_i, ManyFlowNet::default(), 0).key();
            assert!(dense.insert((key.peer.ip.octets(), key.peer.port)), "{i}");
        }
    }

    #[test]
    fn flow_script_matches_generated_workload() {
        let cfg = ManyFlowConfig {
            flows: 6,
            offset: 3,
            rounds: 2,
            payload: 96,
            close: true,
            seed: 0xAB,
        };
        let net = ManyFlowNet::default();
        let w = ManyFlowWorkload::generate(&cfg, net);
        for flow in 0..cfg.flows {
            let script = FlowScript::new(&cfg, net, flow);
            assert!(!script.is_empty());
            assert_eq!(script.len(), w.steps_per_flow());
            assert_eq!(script.key(), w.keys()[flow]);
            for k in 0..script.len() {
                // generate() interleaves round-robin: step k of flow f
                // sits at position k * flows + f.
                let (dir, seg) = &w.steps()[k * cfg.flows + flow];
                let (sdir, sseg) = script.step_at(k);
                assert_eq!(sdir, *dir, "flow {flow} step {k}");
                assert_eq!(sseg.bytes, seg.bytes, "flow {flow} step {k}");
            }
        }
        // Without teardown the script is exactly 3 + 3·rounds steps.
        let open = ManyFlowConfig {
            close: false,
            ..cfg
        };
        assert_eq!(FlowScript::new(&open, net, 0).len(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flow_script_rejects_out_of_range_step() {
        let cfg = ManyFlowConfig {
            close: false,
            ..ManyFlowConfig::default()
        };
        let s = FlowScript::new(&cfg, ManyFlowNet::default(), 0);
        let _ = s.step_at(s.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ManyFlowConfig {
            flows: 7,
            offset: 0,
            rounds: 2,
            payload: 64,
            close: true,
            seed: 42,
        };
        let a = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
        let b = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
        assert_eq!(a.steps().len(), b.steps().len());
        for (x, y) in a.steps().iter().zip(b.steps()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.bytes, y.1.bytes);
        }
    }

    #[test]
    fn interleave_covers_all_flows_per_cycle() {
        let cfg = ManyFlowConfig {
            flows: 5,
            offset: 0,
            rounds: 1,
            payload: 8,
            close: false,
            seed: 1,
        };
        let w = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
        assert_eq!(w.steps().len(), 5 * w.steps_per_flow());
        // First cycle is every flow's SYN.
        for step in &w.steps()[..5] {
            assert_eq!(step.0, BatchDir::Inbound);
        }
    }
}
