//! Golden run: one fixed, seeded segment script through
//! `PrimaryBridge::process_batch`, reaching the paths the benchmark's
//! `bridge_datapath` workload does not — LRU eviction with its RST at a
//! small capacity, a replica RST, §4 retransmissions, a replica re-ACK,
//! §6 `secondary_failed` mid-stream, §8 teardown followed by late
//! client and secondary FINs, tuple reuse over a tombstone, GC of the
//! residue. Every output segment, the counters, the lag ledger and the
//! final connection table are folded into constants captured before
//! the engine learned to mutate flows in place; a refactor of the
//! per-segment path must reproduce them to the bit. A second script
//! drives the tail — the pair's S — one segment at a time, before and
//! after its §5 takeover.

use bytes::Bytes;
use tcp_failover::core::flow::FlowTableConfig;
use tcp_failover::core::{FailoverConfig, PrimaryBridge, PrimaryMode};
use tcp_failover::net::ShardExecutor;
use tcp_failover::tcp::filter::{AddressedSegment, BatchDir, FilterOutput, SegmentFilter};
use tcp_failover::telemetry::{HealthObservatory, LatencyObservatory};
use tcp_failover::wire::ipv4::Ipv4Addr;
use tcp_failover::wire::tcp::{SegmentPatcher, TcpFlags, TcpSegment, TcpSegmentBuilder};

const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
const A_T: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// A middle link's own address (`A_P` is then the VIP its upstream, the
/// head, owns; `A_S` its downstream).
const A_L: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);
const SEED: u64 = 0x60_1DE2;

const GOLDEN_DIGEST: u64 = 0x01c1_7c48_a82f_9e7a;
/// `PrimaryStats` in declaration order.
const GOLDEN_STATS: [u64; 13] = [39, 17_999, 4, 3, 29, 2, 64, 3, 3, 3, 3, 1, 1];
/// The lag ledger, health observatory attached: unmatched bytes and
/// segments just before §6, unmatched bytes at the end, releases.
const GOLDEN_LAG: [u64; 4] = [2733, 3, 0, 36];
/// Flow-table occupancy / evictions / reaps.
const GOLDEN_TABLE: [u64; 3] = [4, 3, 1];
/// The same script through a middle link (own address `A_L`, diverting
/// up to the head at `A_P`), captured while a link was a wrapper type
/// around the merge engine, before the engine learned its chain role.
const GOLDEN_MIDDLE_DIGEST: u64 = 0x9d3e_3bdd_5dd3_3c53;
/// Through that link after `promote_to_head`. Captured as
/// `0xacfa_e234_50b7_2bb4` with two of its 102 segments sent to the
/// client from the link's own address — its §6 pass-through once the
/// secondary died, the defect of a chain that loses head and tail; they
/// now leave from the VIP, and nothing else moved (EXPERIMENTS E27).
const GOLDEN_PROMOTED_DIGEST: u64 = 0x5579_252c_0524_9518;
/// Diverted upstream / ingress rewrites / divert fallbacks, middle and
/// promoted.
const GOLDEN_MIDDLE_CHAIN: [u64; 3] = [63, 38, 0];
const GOLDEN_PROMOTED_CHAIN: [u64; 3] = [0, 38, 0];
/// The tail script (below) through the pair's S at `A_S`, captured
/// while the tail was a bridge type of its own.
const GOLDEN_TAIL_DIGEST: u64 = 0x2702_3827_4643_37df;
/// Its client datagrams readdressed / segments diverted up / entries
/// evicted / reaped / unwitnessed segments dropped.
const GOLDEN_TAIL_COUNTS: [u64; 5] = [27, 31, 1, 1, 3];
/// The same tail taking over (§5) halfway through the script.
const GOLDEN_TAKEN_OVER_DIGEST: u64 = 0x59ce_b445_2c85_d1ef;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a with markers, so neither a reordering nor a segment moving
/// between `to_wire` and `to_tcp` can hash equal.
struct Digest(u64);

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn segment(&mut self, s: &AddressedSegment) {
        self.eat(&s.src.octets());
        self.eat(&s.dst.octets());
        self.eat(&(s.bytes.len() as u32).to_be_bytes());
        self.eat(&s.bytes);
    }

    fn output(&mut self, out: &FilterOutput) {
        self.eat(b"W");
        out.to_wire.iter().for_each(|s| self.segment(s));
        self.eat(b"T");
        out.to_tcp.iter().for_each(|s| self.segment(s));
    }
}

/// One scripted connection: the unreplicated peer, the server port and
/// where each party's stream stands.
#[derive(Clone, Copy)]
struct Flow {
    /// The address the bridge's own TCP layer sends from and the
    /// downstream diverts to: `A_P` on a head that owns the VIP.
    own: Ipv4Addr,
    peer: Ipv4Addr,
    peer_port: u16,
    server_port: u16,
    iss_p: u32,
    iss_s: u32,
    iss_c: u32,
    /// Server-stream bytes produced so far.
    sent: u32,
    /// Peer-stream bytes produced so far.
    peer_sent: u32,
}

type Step = (BatchDir, AddressedSegment);

impl Flow {
    fn client(rng: &mut SplitMix64, own: Ipv4Addr, port: u16) -> Flow {
        Flow {
            own,
            peer: A_C,
            peer_port: port,
            server_port: 80,
            iss_p: rng.next() as u32,
            iss_s: rng.next() as u32,
            iss_c: rng.next() as u32,
            sent: 0,
            peer_sent: 0,
        }
    }

    fn sent_by_primary(&self, seg: TcpSegment) -> Step {
        let bytes = seg.encode(self.own, self.peer);
        (
            BatchDir::Outbound,
            AddressedSegment::new(self.own, self.peer, bytes),
        )
    }

    /// As the secondary bridge diverts it: orig-dest option appended,
    /// pseudo-header destination rewritten to the bridge's host.
    fn sent_by_secondary(&self, seg: TcpSegment) -> Step {
        let bytes = seg.encode(A_S, self.peer);
        let mut p = SegmentPatcher::new(bytes, A_S, self.peer);
        p.push_orig_dest_option(self.peer, self.peer_port);
        p.set_pseudo_dst(self.own);
        let (bytes, src, dst) = p.finish();
        (BatchDir::Inbound, AddressedSegment::new(src, dst, bytes))
    }

    fn sent_by_peer(&self, seg: TcpSegment) -> Step {
        let bytes = seg.encode(self.peer, A_P);
        (
            BatchDir::Inbound,
            AddressedSegment::new(self.peer, A_P, bytes),
        )
    }

    fn peer_next(&self) -> u32 {
        self.iss_c.wrapping_add(1).wrapping_add(self.peer_sent)
    }

    /// A segment of the server's at `seq`, acknowledging the peer's
    /// stream so far.
    fn server(&self, seq: u32) -> TcpSegmentBuilder {
        TcpSegment::builder(self.server_port, self.peer_port)
            .seq(seq)
            .ack(self.peer_next())
    }

    fn peer_syn(&self) -> Step {
        self.sent_by_peer(
            TcpSegment::builder(self.peer_port, self.server_port)
                .seq(self.iss_c)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(60_000)
                .build(),
        )
    }

    fn p_synack(&self) -> Step {
        self.sent_by_primary(
            self.server(self.iss_p)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(50_000)
                .build(),
        )
    }

    fn s_synack(&self) -> Step {
        self.sent_by_secondary(
            self.server(self.iss_s)
                .flags(TcpFlags::SYN)
                .mss(1200)
                .window(40_000)
                .build(),
        )
    }

    /// The peer's segment acknowledging `acked` server-stream bytes
    /// (plus `fin` for the server's FIN), carrying `len` payload bytes.
    fn peer_seg(&mut self, acked: u32, fin_acked: bool, len: usize, flags: TcpFlags) -> Step {
        let ack = self
            .iss_s
            .wrapping_add(1)
            .wrapping_add(acked)
            .wrapping_add(u32::from(fin_acked));
        let seg = TcpSegment::builder(self.peer_port, self.server_port)
            .seq(self.peer_next())
            .ack(ack)
            .window(60_000)
            .flags(flags)
            .payload(pattern(u32::from(self.peer_port) << 8, self.peer_sent, len))
            .build();
        self.peer_sent += len as u32;
        self.sent_by_peer(seg)
    }

    fn p_data(&self, off: u32, len: usize) -> Step {
        self.sent_by_primary(
            self.server(self.iss_p.wrapping_add(1).wrapping_add(off))
                .window(50_000)
                .payload(pattern(u32::from(self.peer_port), off, len))
                .build(),
        )
    }

    fn s_data(&self, off: u32, len: usize) -> Step {
        self.sent_by_secondary(
            self.server(self.iss_s.wrapping_add(1).wrapping_add(off))
                .window(40_000)
                .payload(pattern(u32::from(self.peer_port), off, len))
                .build(),
        )
    }

    /// A bare segment from P at the stream's current end (`+ past` for
    /// one sent after P's FIN).
    fn p_bare(&self, past: u32, flags: TcpFlags) -> Step {
        let seq = self.iss_p.wrapping_add(1 + self.sent + past);
        self.sent_by_primary(self.server(seq).window(50_000).flags(flags).build())
    }

    fn s_bare(&self, past: u32, flags: TcpFlags) -> Step {
        let seq = self.iss_s.wrapping_add(1 + self.sent + past);
        self.sent_by_secondary(self.server(seq).window(40_000).flags(flags).build())
    }
}

/// Stream content: a function of the flow, the stream offset and
/// nothing else, so P's and S's copies agree however each cuts them.
fn pattern(flow: u32, off: u32, len: usize) -> Bytes {
    let v: Vec<u8> = (0..len as u32)
        .map(|i| {
            let x = (off + i).wrapping_mul(0x9E37_79B1) ^ flow.wrapping_mul(0x85EB_CA6B);
            (x >> 13) as u8
        })
        .collect();
    Bytes::from(v)
}

fn config() -> FailoverConfig {
    FailoverConfig::from_ports([80, 20])
}

struct Run {
    bridge: PrimaryBridge,
    exec: ShardExecutor,
    rng: SplitMix64,
    now: u64,
    digest: Digest,
}

impl Run {
    fn new(mut bridge: PrimaryBridge, observed: bool) -> Run {
        bridge.set_flow_config(FlowTableConfig::new(1, 4));
        if observed {
            bridge.set_health(Some(Box::new(HealthObservatory::new())));
            bridge.set_latency(Some(Box::new(LatencyObservatory::new())));
        }
        Run {
            bridge,
            exec: ShardExecutor::new(1),
            rng: SplitMix64(SEED),
            now: 0,
            digest: Digest(0xcbf2_9ce4_8422_2325),
        }
    }

    /// One batch, 1 ms of simulated time after the last; returns how
    /// many segments came out.
    fn feed(&mut self, batch: Vec<Step>) -> usize {
        self.now += 1_000_000;
        let outs = self.bridge.process_batch(batch, self.now, &self.exec);
        outs.iter().for_each(|o| self.digest.output(o));
        outs.iter().map(|o| o.to_wire.len() + o.to_tcp.len()).sum()
    }

    fn establish(&mut self, f: &Flow, s_first: bool) {
        let mut batch = vec![f.peer_syn()];
        if s_first {
            batch.extend([f.s_synack(), f.p_synack()]);
        } else {
            batch.extend([f.p_synack(), f.s_synack()]);
        }
        assert_eq!(self.feed(batch), 2, "SYN up, merged SYN+ACK out");
    }

    /// `len` more bytes of server stream: P and S each cut them into
    /// one to three segments of their own choosing and the copies
    /// arrive interleaved (Figure 2's partial matches); then the peer
    /// acknowledges everything.
    fn data_round(&mut self, f: &mut Flow, len: u32) {
        let cut = |rng: &mut SplitMix64| {
            let mut cuts = vec![0, len];
            for _ in 0..rng.below(3) {
                cuts.push(rng.below(u64::from(len)) as u32);
            }
            cuts.sort_unstable();
            cuts.dedup();
            cuts
        };
        let (p_cuts, s_cuts) = (cut(&mut self.rng), cut(&mut self.rng));
        let mut p = p_cuts
            .windows(2)
            .map(|w| f.p_data(f.sent + w[0], (w[1] - w[0]) as usize))
            .peekable();
        let mut s = s_cuts
            .windows(2)
            .map(|w| f.s_data(f.sent + w[0], (w[1] - w[0]) as usize))
            .peekable();
        let mut batch = Vec::new();
        while p.peek().is_some() || s.peek().is_some() {
            let take_p = s.peek().is_none() || (p.peek().is_some() && self.rng.below(2) == 0);
            batch.extend(if take_p { p.next() } else { s.next() });
        }
        f.sent += len;
        batch.push(f.peer_seg(f.sent, false, 0, TcpFlags::EMPTY));
        self.feed(batch);
    }

    /// §8: both replicas close, the peer closes, both acknowledge.
    fn close(&mut self, f: &mut Flow) {
        let closed = self.bridge.stats.conns_closed;
        self.feed(vec![
            f.p_bare(0, TcpFlags::FIN),
            f.s_bare(0, TcpFlags::FIN),
            f.peer_seg(f.sent, true, 0, TcpFlags::FIN),
        ]);
        f.peer_sent += 1;
        self.feed(vec![
            f.p_bare(1, TcpFlags::EMPTY),
            f.s_bare(1, TcpFlags::EMPTY),
        ]);
        assert_eq!(self.bridge.stats.conns_closed, closed + 1, "§8 teardown");
    }

    fn next_len(&mut self) -> u32 {
        1 + self.rng.below(2800) as u32
    }
}

/// Runs the script through `bridge`, whose host sends from `own`;
/// returns (digest, stats, lag ledger, table stats, chain counters).
fn script(
    bridge: PrimaryBridge,
    own: Ipv4Addr,
    observed: bool,
) -> (u64, [u64; 13], [u64; 4], [u64; 3], [u64; 3]) {
    let mut r = Run::new(bridge, observed);
    let mut rng = SplitMix64(SEED ^ 0xF10E);
    let mut flows: Vec<Flow> = (0..4)
        .map(|i| Flow::client(&mut rng, own, 6000 + i))
        .collect();

    // Handshakes: S's SYN+ACK ahead of P's on one flow, a SYN+ACK
    // retransmitted after the merge on another.
    for (i, f) in flows.iter().enumerate() {
        r.establish(f, i == 1);
    }
    assert_eq!(
        r.feed(vec![flows[2].p_synack()]),
        1,
        "merged SYN+ACK re-sent"
    );
    let acks: Vec<Step> = flows
        .iter_mut()
        .map(|f| f.peer_seg(0, false, 0, TcpFlags::EMPTY))
        .collect();
    r.feed(acks);

    // Steady state, with one replica divergence in the middle.
    for round in 0..3 {
        for f in &mut flows {
            let len = r.next_len();
            r.data_round(f, len);
        }
        if round == 1 {
            let f = &mut flows[3];
            let mut s = f.s_data(f.sent, 64);
            let mut raw = s.1.bytes.to_vec();
            let last = raw.len() - 1;
            raw[last] ^= 0x40;
            s.1.bytes = Bytes::from(raw);
            r.feed(vec![f.p_data(f.sent, 64), s]);
            f.sent += 64;
            assert_eq!(r.bridge.stats.mismatched_bytes, 64);
        }
    }

    // §4: both replicas retransmit bytes already released.
    let f = flows[0];
    assert_eq!(r.feed(vec![f.p_data(0, 200), f.s_data(100, 300)]), 2);
    assert_eq!(r.bridge.stats.retransmissions_forwarded, 3);

    // Replica re-ACK: the peer sends data, both replicas acknowledge
    // it, then S repeats its acknowledgment.
    let f = &mut flows[1];
    r.feed(vec![f.peer_seg(f.sent, false, 700, TcpFlags::PSH)]);
    let acks = r.bridge.stats.empty_acks;
    let emitted = r.feed(vec![
        f.p_bare(0, TcpFlags::EMPTY),
        f.s_bare(0, TcpFlags::EMPTY),
        f.s_bare(0, TcpFlags::EMPTY),
    ]);
    assert_eq!(emitted, 2, "min(ack) advance, then the forwarded re-ACK");
    assert_eq!(r.bridge.stats.empty_acks, acks + 2);

    // LRU eviction at capacity 4: flow 0 is the least recently used
    // once the others are touched; a fifth connection resets it.
    let touches: Vec<Step> = (1..4)
        .map(|i| {
            let sent = flows[i].sent;
            flows[i].peer_seg(sent, false, 0, TcpFlags::EMPTY)
        })
        .collect();
    r.feed(touches);
    flows.push(Flow::client(&mut rng, own, 6004));
    let f4 = flows[4];
    assert_eq!(r.feed(vec![f4.peer_syn()]), 2, "SYN up, RST to the evicted");
    assert_eq!(r.bridge.stats.evicted_rsts, 1);
    // The evicted flow's replica output now finds no state, and data
    // ahead of the merged handshake cannot be normalised.
    let drops = r.bridge.stats.drops;
    r.feed(vec![
        flows[0].p_data(flows[0].sent, 10),
        f4.p_synack(),
        f4.p_data(0, 10),
    ]);
    assert_eq!(r.bridge.stats.drops, drops + 2);
    r.feed(vec![
        f4.s_synack(),
        flows[4].peer_seg(0, false, 0, TcpFlags::EMPTY),
    ]);

    // Replica RST: forwarded in client sequence space, state dropped.
    let live = r.bridge.conn_count();
    assert_eq!(r.feed(vec![flows[1].p_bare(0, TcpFlags::RST)]), 1);
    assert_eq!(r.bridge.conn_count(), live - 1);

    // §8 teardown, then late FINs from both sides and late data.
    let mut f2 = flows[2];
    r.close(&mut f2);
    let late = r.feed(vec![
        f2.sent_by_peer(
            TcpSegment::builder(f2.peer_port, 80)
                .seq(f2.peer_next().wrapping_sub(1))
                .ack(f2.iss_s.wrapping_add(2 + f2.sent))
                .window(60_000)
                .flags(TcpFlags::FIN)
                .build(),
        ),
        f2.s_bare(0, TcpFlags::FIN),
        f2.p_data(0, 50),
    ]);
    assert_eq!(late, 2, "each late FIN is ACKed from the tombstone");
    assert_eq!(r.bridge.stats.late_fin_acks, 2);

    // Tuple reuse: a fresh SYN supersedes the tombstone in place.
    flows[2] = Flow::client(&mut rng, own, 6002);
    r.establish(&flows[2], false);
    let mut f2 = flows[2];
    r.feed(vec![f2.peer_seg(0, false, 0, TcpFlags::EMPTY)]);
    let len = r.next_len();
    r.data_round(&mut f2, len);
    flows[2] = f2;

    // Residue is reaped on its TTL by the per-batch GC.
    let mut f3 = flows[3];
    r.close(&mut f3);
    r.now += 61_000_000_000;
    let sent = flows[4].sent;
    r.feed(vec![flows[4].peer_seg(sent, false, 0, TcpFlags::EMPTY)]);
    assert_eq!(r.bridge.stats.flows_reaped, 1);

    // §7.2: both replicas open toward a back-end, S's SYN first.
    let mut ft = Flow {
        own,
        peer: A_T,
        peer_port: 7000,
        server_port: 20,
        iss_p: rng.next() as u32,
        iss_s: rng.next() as u32,
        iss_c: rng.next() as u32,
        sent: 0,
        peer_sent: 0,
    };
    let syn = |f: &Flow, iss: u32, mss: u16| {
        TcpSegment::builder(f.server_port, f.peer_port)
            .seq(iss)
            .flags(TcpFlags::SYN)
            .mss(mss)
            .window(30_000)
            .build()
    };
    let merged = r.feed(vec![
        ft.sent_by_secondary(syn(&ft, ft.iss_s, 1000)),
        ft.sent_by_primary(syn(&ft, ft.iss_p, 1460)),
    ]);
    assert_eq!(merged, 1, "merged SYN toward the back-end");
    r.feed(vec![ft.sent_by_peer(
        TcpSegment::builder(ft.peer_port, ft.server_port)
            .seq(ft.iss_c)
            .ack(ft.iss_s.wrapping_add(1))
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000)
            .build(),
    )]);
    let len = r.next_len();
    r.data_round(&mut ft, len);

    // §6 mid-stream: P ahead of S on two flows, a handshake only P has
    // answered on a third; then the secondary dies.
    let f6 = Flow::client(&mut rng, own, 6006);
    r.feed(vec![
        flows[2].p_data(flows[2].sent, 1500),
        flows[2].p_data(flows[2].sent + 1500, 900),
        flows[4].p_data(0, 333),
        flows[4].p_bare(333, TcpFlags::FIN),
        f6.peer_syn(),
        f6.p_synack(),
    ]);
    let held = r.bridge.observers().health.as_deref().map_or([0; 2], |h| {
        [h.lag.unmatched_bytes(), h.lag.unmatched_segments()]
    });
    r.now += 1_000_000;
    let flush = r.bridge.secondary_failed(r.now);
    r.digest.output(&flush);
    assert_eq!(r.bridge.mode(), PrimaryMode::SecondaryFailed);
    assert_eq!(
        flush.to_wire.len(),
        5,
        "2 + 1 segments, a FIN, a held SYN+ACK"
    );
    flows[2].sent += 2400;
    // Degraded pass-through both ways, the dead secondary ignored, and
    // connections born degraded on either side (the second insert finds
    // the table full and evicts its least recently used residue).
    let f7 = Flow::client(&mut rng, own, 6007);
    let sent = flows[2].sent;
    let evicted = r.bridge.stats.evicted_flows;
    r.feed(vec![
        flows[2].p_data(sent, 40),
        flows[2].peer_seg(sent + 40, false, 0, TcpFlags::EMPTY),
        flows[2].s_data(sent, 40),
        f7.peer_syn(),
        ft.sent_by_primary(
            TcpSegment::builder(20, 7001)
                .seq(9)
                .flags(TcpFlags::SYN)
                .build(),
        ),
    ]);
    assert_eq!(r.bridge.stats.evicted_flows, evicted + 1);
    assert_eq!(
        r.bridge.stats.evicted_rsts, 1,
        "residue is evicted silently"
    );

    // A replica joins below: new connections replicate again.
    r.bridge.join_below(A_S, r.now);
    let f8 = Flow::client(&mut rng, own, 6008);
    r.establish(&f8, true);

    for row in r.bridge.connection_rows() {
        r.digest.eat(&row.client.port.to_be_bytes());
        r.digest.eat(&row.send_next.to_be_bytes());
        r.digest.eat(&(row.pq_bytes as u32).to_be_bytes());
        r.digest.eat(&(row.sq_bytes as u32).to_be_bytes());
    }
    let s = &r.bridge.stats;
    let stats = [
        s.merged_segments,
        s.merged_bytes,
        s.empty_acks,
        s.retransmissions_forwarded,
        s.acks_translated,
        s.late_fin_acks,
        s.mismatched_bytes,
        s.drops,
        s.fins_sent,
        s.conns_closed,
        s.evicted_flows,
        s.evicted_rsts,
        s.flows_reaped,
    ];
    let lag = r.bridge.observers().health.as_deref().map_or([0; 4], |h| {
        [held[0], held[1], h.lag.unmatched_bytes(), h.lag.releases()]
    });
    let t = r.bridge.flow_stats();
    let table = [t.occupancy, t.evicted, t.reaped];
    let chain = [s.diverted_upstream, s.ingress_rewrites, s.divert_fallbacks];
    (r.digest.0, stats, lag, table, chain)
}

fn pair_head() -> PrimaryBridge {
    PrimaryBridge::new(A_P, A_S, config())
}

#[test]
fn scripted_run_matches_parent_capture() {
    let (digest, stats, _, table, _) = script(pair_head(), A_P, false);
    assert_eq!(stats, GOLDEN_STATS);
    assert_eq!(table, GOLDEN_TABLE);
    assert_eq!(digest, GOLDEN_DIGEST, "an output byte moved");
}

#[test]
fn observers_do_not_move_it_and_the_lag_ledger_matches() {
    let (digest, stats, lag, table, _) = script(pair_head(), A_P, true);
    assert_eq!(stats, GOLDEN_STATS);
    assert_eq!(table, GOLDEN_TABLE);
    assert_eq!(digest, GOLDEN_DIGEST);
    assert_eq!(lag, GOLDEN_LAG);
}

// ---------------------------------------------------------------------
// The same script through a chain link. The merge engine sees the same
// streams (so the counters, the table and the lag ledger are the
// pair's); what differs is where its output is addressed.
// ---------------------------------------------------------------------

/// A middle link at `A_L`: merges against `A_S` below it, diverts up
/// to the head, which owns the VIP `A_P`.
fn middle() -> PrimaryBridge {
    PrimaryBridge::link(A_P, A_L, Some(A_P), Some(A_S), config())
}

#[test]
fn a_head_built_as_a_link_is_the_pair_head() {
    let head = PrimaryBridge::link(A_P, A_P, None, Some(A_S), config());
    assert!(head.is_head());
    let (digest, stats, _, table, chain) = script(head, A_P, false);
    assert_eq!(stats, GOLDEN_STATS);
    assert_eq!(table, GOLDEN_TABLE);
    assert_eq!(chain, [0; 3], "a head that owns the VIP routes nothing");
    assert_eq!(digest, GOLDEN_DIGEST);
}

#[test]
fn middle_link_matches_parent_capture() {
    let (digest, stats, lag, table, chain) = script(middle(), A_L, true);
    assert_eq!(stats, GOLDEN_STATS);
    assert_eq!(table, GOLDEN_TABLE);
    assert_eq!(lag, GOLDEN_LAG);
    assert_eq!(chain, GOLDEN_MIDDLE_CHAIN);
    assert_eq!(digest, GOLDEN_MIDDLE_DIGEST, "an output byte moved");
}

#[test]
fn promoted_link_matches_parent_capture() {
    let mut link = middle();
    link.promote_to_head(0);
    assert!(link.is_head());
    let (digest, stats, lag, table, chain) = script(link, A_L, true);
    assert_eq!(stats, GOLDEN_STATS);
    assert_eq!(table, GOLDEN_TABLE);
    assert_eq!(lag, GOLDEN_LAG);
    assert_eq!(chain, GOLDEN_PROMOTED_CHAIN);
    assert_eq!(digest, GOLDEN_PROMOTED_DIGEST, "an output byte moved");
}

// ---------------------------------------------------------------------
// The tail: the pair's S at `A_S`, below the head that owns the VIP
// `A_P`. It merges nothing, so the script is its own: what it snoops
// from the client, what its own stack sends (in the client-facing
// space, `iss_s`), one segment at a time.
// ---------------------------------------------------------------------

impl Flow {
    fn t_synack(&self) -> Step {
        self.sent_by_primary(
            self.server(self.iss_s)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(40_000)
                .build(),
        )
    }

    fn t_data(&self, off: u32, len: usize) -> Step {
        self.sent_by_primary(
            self.server(self.iss_s.wrapping_add(1).wrapping_add(off))
                .window(40_000)
                .payload(pattern(u32::from(self.peer_port), off, len))
                .build(),
        )
    }

    fn t_bare(&self, past: u32, flags: TcpFlags) -> Step {
        let seq = self.iss_s.wrapping_add(1 + self.sent + past);
        self.sent_by_primary(self.server(seq).window(40_000).flags(flags).build())
    }
}

struct TailRun<B> {
    bridge: B,
    now: u64,
    digest: Digest,
}

impl<B: SegmentFilter> TailRun<B> {
    /// One segment at a time, 1 ms after the last call; returns how
    /// many segments came out.
    fn feed(&mut self, steps: Vec<Step>) -> usize {
        self.now += 1_000_000;
        let mut n = 0;
        for (dir, seg) in steps {
            let out = match dir {
                BatchDir::Outbound => self.bridge.on_outbound(seg, self.now),
                BatchDir::Inbound => self.bridge.on_inbound(seg, self.now),
            };
            self.digest.output(&out);
            n += out.to_wire.len() + out.to_tcp.len();
        }
        n
    }
}

/// Handshakes, data both ways, then — when `takeover` is given — the
/// §5 takeover, after which the tail's stack sends from the VIP (its
/// TCBs re-keyed). Then traffic nobody designated, an unwitnessed
/// mid-stream segment, a §7.2 open toward a back-end, FINs both ways, a
/// tuple reuse, an eviction at capacity 6 and the TimeWait TTL.
fn tail_script<B: SegmentFilter>(bridge: B, takeover: Option<fn(&mut B, u64)>) -> (u64, B) {
    let mut r = TailRun {
        bridge,
        now: 0,
        digest: Digest(0xcbf2_9ce4_8422_2325),
    };
    let mut rng = SplitMix64(SEED ^ 0x7A11);
    let mut flows: Vec<Flow> = (0..4)
        .map(|i| Flow::client(&mut rng, A_S, 7000 + i))
        .collect();
    for f in &mut flows {
        assert_eq!(r.feed(vec![f.peer_syn(), f.t_synack()]), 2);
        let ack = f.peer_seg(0, false, 0, TcpFlags::EMPTY);
        r.feed(vec![ack]);
    }
    for round in 0..2 {
        for f in &mut flows {
            let len = 1 + rng.below(1400) as usize;
            let data = f.t_data(f.sent, len);
            f.sent += len as u32;
            let up = if round == 1 {
                rng.below(300) as usize
            } else {
                0
            };
            let ack = f.peer_seg(f.sent, false, up, TcpFlags::PSH);
            let own_ack = f.t_bare(0, TcpFlags::EMPTY);
            assert_eq!(r.feed(vec![data, ack, own_ack]), 3);
        }
    }
    let own = match takeover {
        Some(takeover) => {
            r.now += 1_000_000;
            takeover(&mut r.bridge, r.now);
            flows.iter_mut().for_each(|f| f.own = A_P);
            A_P
        }
        None => A_S,
    };

    // Nobody designated port 22, and 10.0.0.50 is not the VIP.
    let ssh = TcpSegment::builder(5555, 22)
        .seq(1)
        .flags(TcpFlags::SYN)
        .build();
    let other = Ipv4Addr::new(10, 0, 0, 50);
    let reply = TcpSegment::builder(22, 5555).seq(7).ack(2).build();
    r.feed(vec![
        (
            BatchDir::Inbound,
            AddressedSegment::new(A_C, A_P, ssh.encode(A_C, A_P)),
        ),
        (
            BatchDir::Outbound,
            AddressedSegment::new(own, A_C, reply.encode(own, A_C)),
        ),
        (
            BatchDir::Inbound,
            AddressedSegment::new(A_C, other, ssh.encode(A_C, other)),
        ),
    ]);
    // A connection established before this replica booted.
    let mut stranger = Flow::client(&mut rng, own, 7100);
    r.feed(vec![stranger.peer_seg(0, false, 40, TcpFlags::PSH)]);

    // §7.2: the tail's own open toward a back-end, answered at the VIP.
    let mut ft = Flow {
        own,
        peer: A_T,
        peer_port: 7000,
        server_port: 20,
        iss_p: 0,
        iss_s: rng.next() as u32,
        iss_c: rng.next() as u32,
        sent: 0,
        peer_sent: 0,
    };
    let t_syn = TcpSegment::builder(20, 7000)
        .seq(ft.iss_s)
        .flags(TcpFlags::SYN)
        .mss(1460)
        .window(30_000)
        .build();
    let t_synack = TcpSegment::builder(7000, 20)
        .seq(ft.iss_c)
        .ack(ft.iss_s.wrapping_add(1))
        .flags(TcpFlags::SYN)
        .mss(1460)
        .window(60_000)
        .build();
    r.feed(vec![ft.sent_by_primary(t_syn), ft.sent_by_peer(t_synack)]);
    let data = ft.t_data(0, 500);
    ft.sent = 500;
    let ack = ft.peer_seg(500, false, 0, TcpFlags::EMPTY);
    r.feed(vec![data, ack]);

    // FINs both ways: the tail closes first on flow 0 (the client then
    // retransmits its FIN), the client first on flow 1.
    let f = &mut flows[0];
    let fin = f.t_bare(0, TcpFlags::FIN);
    let client_fin = f.peer_seg(f.sent, true, 0, TcpFlags::FIN);
    f.peer_sent += 1;
    let last = f.t_bare(1, TcpFlags::EMPTY);
    r.feed(vec![fin, client_fin.clone(), last, client_fin]);
    let f = &mut flows[1];
    let client_fin = f.peer_seg(f.sent, false, 0, TcpFlags::FIN);
    f.peer_sent += 1;
    let fin = f.t_bare(0, TcpFlags::FIN);
    let last = f.peer_seg(f.sent, true, 0, TcpFlags::EMPTY);
    r.feed(vec![client_fin, fin, last]);

    // Tuple reuse: flow 0's port comes back with a fresh connection.
    flows[0] = Flow::client(&mut rng, own, 7000);
    let f = &mut flows[0];
    r.feed(vec![f.peer_syn(), f.t_synack()]);
    let ack = f.peer_seg(0, false, 120, TcpFlags::PSH);
    r.feed(vec![ack, f.t_data(0, 64)]);

    // Capacity 6: a fifth and a sixth connection; the sixth pushes out
    // the least recently heard-from entry, flow 2's.
    for port in [7004, 7005] {
        let f = Flow::client(&mut rng, own, port);
        r.feed(vec![f.peer_syn(), f.t_synack()]);
    }
    let f = &mut flows[2];
    let data = f.peer_seg(f.sent, false, 30, TcpFlags::PSH);
    r.feed(vec![data]);

    // 61 s on: flow 1's TimeWait residue is reaped; flow 3 lives on.
    r.now += 61_000_000_000;
    r.bridge.on_tick(r.now);
    for i in [1, 3] {
        let f = &mut flows[i];
        let data = f.peer_seg(f.sent, false, 10, TcpFlags::PSH);
        let own_data = f.t_data(f.sent, 10);
        f.sent += 10;
        r.feed(vec![data, own_data]);
    }
    (r.digest.0, r.bridge)
}

/// The pair's S: a link at `A_S` below the VIP's owner, nobody below it.
fn tail() -> PrimaryBridge {
    let mut b = PrimaryBridge::link(A_P, A_S, Some(A_P), None, config());
    b.set_flow_config(FlowTableConfig::new(1, 6));
    b
}

#[test]
fn tail_matches_parent_capture() {
    let (digest, b) = tail_script(tail(), None);
    let s = &b.stats;
    let counts = [
        s.ingress_rewrites,
        s.diverted_upstream,
        s.evicted_flows,
        s.flows_reaped,
        s.unwitnessed_dropped,
    ];
    assert_eq!(counts, GOLDEN_TAIL_COUNTS);
    assert_eq!(digest, GOLDEN_TAIL_DIGEST, "an output byte moved");
}

#[test]
fn taken_over_tail_matches_parent_capture() {
    let takeover: fn(&mut PrimaryBridge, u64) = |b, now| {
        assert_eq!(
            b.promote_to_head(now),
            Some(A_S),
            "TCBs re-keyed to the VIP"
        );
    };
    let (digest, _) = tail_script(tail(), Some(takeover));
    assert_eq!(digest, GOLDEN_TAKEN_OVER_DIGEST, "an output byte moved");
}
