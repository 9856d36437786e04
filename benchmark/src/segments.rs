//! Segment scripts for driving a bridge directly: the exact
//! `(direction, segment)` sequence a bridge would see from its own TCP
//! layer, its peer replica and its clients. Everything derives from the
//! seed; the same seed gives the same bytes.
//!
//! Shapes, three segments a round (as the primary's bridge sees them):
//! * **download round**: primary data (held), diverted secondary data
//!   (matched and released), client ACK (translated up);
//! * **upload round**: client data (translated up), primary ACK (held:
//!   the minimum has not advanced), diverted secondary ACK (minimum
//!   advances, bare ACK synthesised);
//! * **mouse**: handshake, one download round, §8 teardown: ten
//!   segments, full flow-table lifecycle.

use crate::adapter::{
    AddressedSegment, BatchDir, Ipv4Addr, SegmentPatcher, SocketAddr, TcpFlags, TcpSegment,
    TcpSegmentBuilder, A_P, A_S, SOURCE_PORT,
};
use crate::stats::{Digest, SplitMix64};
use bytes::Bytes;

pub type Step = (BatchDir, AddressedSegment);

pub const PAYLOAD: usize = 64;
const PORTS_PER_IP: usize = 16_384;
/// Rounds between two mice in the mixed script.
const ROUNDS_PER_MOUSE: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Download,
    Upload,
}

/// Whose bridge the script is for. The secondary's bridge sees the
/// client's segments (snooped) and its own TCP layer's output before
/// diversion; it never sees the primary's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    Primary,
    Secondary,
}

/// One scripted connection: identity, initial sequence numbers and how
/// far each direction of its stream has progressed.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    index: u32,
    view: View,
    client: SocketAddr,
    iss_c: u32,
    iss_p: u32,
    iss_s: u32,
    down: u32,
    up: u32,
    rounds: u32,
}

impl Flow {
    /// Flow `index` under `seed`. 10.64.h.l × 16 384 ports is injective
    /// for any realistic flow count and clear of the testbed's 10.0.0.x.
    pub fn new(seed: u64, index: u32, view: View) -> Self {
        let mut rng = SplitMix64::fork(seed, 0x5E6_0000_0000 + u64::from(index));
        let host = index as usize / PORTS_PER_IP;
        let ip = Ipv4Addr::new(10, 64 + (host >> 16) as u8, (host >> 8) as u8, host as u8);
        let port = 10_000 + (index as usize % PORTS_PER_IP) as u16;
        Flow {
            index,
            view,
            client: SocketAddr::new(ip, port),
            iss_c: rng.next_u64() as u32,
            iss_p: rng.next_u64() as u32,
            iss_s: rng.next_u64() as u32,
            down: 0,
            up: 0,
            rounds: 0,
        }
    }

    /// The round's payload: identical from both replicas (the bridge
    /// matches them), distinct per flow and round so cross-flow aliasing
    /// cannot cancel out.
    fn payload(&self, seed: u64) -> Bytes {
        let mut rng =
            SplitMix64::fork(seed, (u64::from(self.index) << 32) | u64::from(self.rounds));
        let mut b = Vec::with_capacity(PAYLOAD);
        while b.len() < PAYLOAD {
            b.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        b.truncate(PAYLOAD);
        Bytes::from(b)
    }

    fn client_seq(&self) -> u32 {
        self.iss_c.wrapping_add(1).wrapping_add(self.up)
    }

    fn p_seq(&self) -> u32 {
        self.iss_p.wrapping_add(1).wrapping_add(self.down)
    }

    fn s_seq(&self) -> u32 {
        self.iss_s.wrapping_add(1).wrapping_add(self.down)
    }

    fn toward_client(&self) -> TcpSegmentBuilder {
        TcpSegment::builder(SOURCE_PORT, self.client.port)
    }

    fn toward_server(&self) -> TcpSegmentBuilder {
        TcpSegment::builder(self.client.port, SOURCE_PORT)
    }

    fn emit_client(&self, seg: TcpSegmentBuilder, out: &mut Vec<Step>) {
        let bytes = seg.build().encode(self.client.ip, A_P);
        let seg = AddressedSegment::new(self.client.ip, A_P, bytes);
        out.push((BatchDir::Inbound, seg));
    }

    fn emit_primary(&self, seg: TcpSegmentBuilder, out: &mut Vec<Step>) {
        if self.view == View::Secondary {
            return;
        }
        let bytes = seg.build().encode(A_P, self.client.ip);
        let seg = AddressedSegment::new(A_P, self.client.ip, bytes);
        out.push((BatchDir::Outbound, seg));
    }

    /// For the primary's bridge, as the secondary's bridge diverts it:
    /// original destination in a TCP option, checksum patched for the
    /// primary's pseudo-header. For the secondary's own bridge, as its
    /// TCP layer emits it.
    fn emit_secondary(&self, seg: TcpSegmentBuilder, out: &mut Vec<Step>) {
        let bytes = seg.build().encode(A_S, self.client.ip);
        if self.view == View::Secondary {
            let seg = AddressedSegment::new(A_S, self.client.ip, bytes);
            out.push((BatchDir::Outbound, seg));
            return;
        }
        let mut p = SegmentPatcher::new(bytes, A_S, self.client.ip);
        p.push_orig_dest_option(self.client.ip, self.client.port);
        p.set_pseudo_dst(A_P);
        let (bytes, src, dst) = p.finish();
        out.push((BatchDir::Inbound, AddressedSegment::new(src, dst, bytes)));
    }

    /// SYN, primary SYN+ACK (held), diverted secondary SYN+ACK (merged).
    pub fn handshake(&self, out: &mut Vec<Step>) {
        let syn = self
            .toward_server()
            .seq(self.iss_c)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(60_000);
        let syn_ack = |iss: u32, win: u16| {
            self.toward_client()
                .seq(iss)
                .ack(self.iss_c.wrapping_add(1))
                .flags(TcpFlags::SYN)
                .mss(1460)
                .window(win)
        };
        self.emit_client(syn, out);
        self.emit_primary(syn_ack(self.iss_p, 50_000), out);
        self.emit_secondary(syn_ack(self.iss_s, 40_000), out);
    }

    /// A bare client segment at the current stream position. The client
    /// speaks the secondary's sequence space.
    fn client_segment(&self, flags: TcpFlags) -> TcpSegmentBuilder {
        self.toward_server()
            .seq(self.client_seq())
            .ack(self.s_seq())
            .flags(flags)
            .window(60_000)
    }

    /// One round of `shape`; advances the flow's stream position.
    pub fn round(&mut self, shape: Shape, seed: u64, out: &mut Vec<Step>) {
        let payload = self.payload(seed);
        let n = PAYLOAD as u32;
        match shape {
            Shape::Download => {
                let data = |seq: u32, win: u16| {
                    self.toward_client()
                        .seq(seq)
                        .ack(self.client_seq())
                        .window(win)
                        .payload(payload.clone())
                };
                self.emit_primary(data(self.p_seq(), 50_000), out);
                self.emit_secondary(data(self.s_seq(), 40_000), out);
                self.down = self.down.wrapping_add(n);
                self.emit_client(self.client_segment(TcpFlags::ACK), out);
            }
            Shape::Upload => {
                self.emit_client(self.client_segment(TcpFlags::ACK).payload(payload), out);
                self.up = self.up.wrapping_add(n);
                let ack = |seq: u32, win: u16| {
                    self.toward_client()
                        .seq(seq)
                        .ack(self.client_seq())
                        .flags(TcpFlags::ACK)
                        .window(win)
                };
                self.emit_primary(ack(self.p_seq(), 50_000), out);
                self.emit_secondary(ack(self.s_seq(), 40_000), out);
            }
        }
        self.rounds += 1;
    }

    /// §8: client FIN, both replicas FIN past it, client ACKs the merged
    /// FIN.
    pub fn teardown(&self, out: &mut Vec<Step>) {
        let fin_end = self.client_seq().wrapping_add(1);
        let fin = |seq: u32, win: u16| {
            self.toward_client()
                .seq(seq)
                .ack(fin_end)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .window(win)
        };
        self.emit_client(self.client_segment(TcpFlags::FIN | TcpFlags::ACK), out);
        self.emit_primary(fin(self.p_seq(), 50_000), out);
        self.emit_secondary(fin(self.s_seq(), 40_000), out);
        let last_ack = self
            .toward_server()
            .seq(fin_end)
            .ack(self.s_seq().wrapping_add(1))
            .flags(TcpFlags::ACK)
            .window(60_000);
        self.emit_client(last_ack, out);
    }
}

/// Which rounds a script is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Alternating download and upload rounds, one mouse per eight.
    Mixed,
    DownloadOnly,
    UploadOnly,
    MiceOnly,
}

/// The resident population plus the generator state of one bridge's
/// script.
#[derive(Debug)]
pub struct Script {
    seed: u64,
    view: View,
    residents: Vec<Flow>,
    order: Vec<u32>,
    cursor: usize,
    next_mouse: u32,
    rounds_since_mouse: u32,
}

impl Script {
    pub fn new(seed: u64, residents: usize, view: View) -> Self {
        let flows = (0..residents as u32)
            .map(|i| Flow::new(seed, i, view))
            .collect();
        let mut order: Vec<u32> = (0..residents as u32).collect();
        SplitMix64::fork(seed, 0x5E6_0BDE).shuffle(&mut order);
        Script {
            seed,
            view,
            residents: flows,
            order,
            cursor: 0,
            next_mouse: residents as u32,
            rounds_since_mouse: 0,
        }
    }

    /// The handshakes that establish every resident.
    pub fn establish(&self) -> Vec<Step> {
        let mut out = Vec::with_capacity(self.residents.len() * 3);
        for f in &self.residents {
            f.handshake(&mut out);
        }
        out
    }

    fn mouse(&mut self, out: &mut Vec<Step>) {
        let mut f = Flow::new(self.seed, self.next_mouse, self.view);
        self.next_mouse += 1;
        f.handshake(out);
        f.round(Shape::Download, self.seed, out);
        f.teardown(out);
    }

    /// The next `n` or slightly more segments of the script (whole
    /// rounds and mice only), visiting residents in the seeded order.
    pub fn next(&mut self, n: usize, mix: Mix) -> Vec<Step> {
        let mut out = Vec::with_capacity(n + 16);
        while out.len() < n {
            if mix == Mix::MiceOnly {
                self.mouse(&mut out);
                continue;
            }
            let i = self.order[self.cursor] as usize;
            self.cursor = (self.cursor + 1) % self.order.len();
            let f = &mut self.residents[i];
            let shape = match mix {
                Mix::DownloadOnly => Shape::Download,
                Mix::UploadOnly => Shape::Upload,
                _ if f.rounds.is_multiple_of(2) => Shape::Download,
                _ => Shape::Upload,
            };
            f.round(shape, self.seed, &mut out);
            self.rounds_since_mouse += 1;
            if mix == Mix::Mixed && self.rounds_since_mouse == ROUNDS_PER_MOUSE {
                self.rounds_since_mouse = 0;
                self.mouse(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
fn digest_steps(steps: &[Step]) -> u64 {
    let mut d = Digest::default();
    for (dir, seg) in steps {
        d.u64(match dir {
            BatchDir::Inbound => 1,
            BatchDir::Outbound => 2,
        });
        digest_segment(&mut d, seg);
    }
    d.value()
}

pub fn digest_segment(d: &mut Digest, seg: &AddressedSegment) {
    d.u64(u64::from(u32::from(seg.src)));
    d.u64(u64::from(u32::from(seg.dst)));
    d.bytes(&seg.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_segments_different_seed_differs() {
        let gen = |seed| {
            let mut s = Script::new(seed, 64, View::Primary);
            let mut steps = s.establish();
            steps.extend(s.next(2000, Mix::Mixed));
            digest_steps(&steps)
        };
        assert_eq!(gen(11), gen(11));
        assert_ne!(gen(11), gen(12));
    }

    #[test]
    fn mixed_script_alternates_shapes_and_inserts_mice() {
        let mut s = Script::new(5, 4, View::Primary);
        let steps = s.next(8 * 3 + 10, Mix::Mixed);
        assert_eq!(steps.len(), 34);
        // Eight rounds over four residents: each did one download and
        // one upload round.
        assert!(s
            .residents
            .iter()
            .all(|f| f.rounds == 2 && f.down == 64 && f.up == 64));
        // The mouse is a fresh flow beyond the residents.
        assert_eq!(s.next_mouse, 5);
    }

    #[test]
    fn secondary_view_drops_the_primarys_segments() {
        let mut p = Script::new(5, 4, View::Primary);
        let mut s = Script::new(5, 4, View::Secondary);
        assert_eq!(p.establish().len(), 12);
        assert_eq!(s.establish().len(), 8);
        assert_eq!(p.next(30, Mix::DownloadOnly).len(), 30);
        assert_eq!(s.next(30, Mix::DownloadOnly).len(), 30);
        assert!(s
            .next(30, Mix::Mixed)
            .iter()
            .all(|(dir, seg)| (*dir == BatchDir::Outbound) == (seg.src == A_S)));
    }
}
