//! §5 and the chain routing: where a link's output goes by its place in
//! the chain — one hop up from below the head, to the client from the
//! VIP at the head — and the promotion that makes a link the head and
//! closes the §5 timeline at the first byte it sends the client.

use super::{PrimaryBridge, PrimaryMode};
use tcpfo_tcp::filter::{AddressedSegment, FilterOutput};
use tcpfo_telemetry::audit::LinkPlace;
use tcpfo_telemetry::Stage;
use tcpfo_wire::checksum::ChecksumDelta;
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{SegmentPatcher, TcpView, OPT_KIND_ORIG_DEST, TCP_HEADER_LEN};

impl PrimaryBridge {
    /// Whether this link is currently the head.
    pub fn is_head(&self) -> bool {
        self.upstream.is_none()
    }

    /// The next replica toward the head; `None` on the head.
    pub fn upstream(&self) -> Option<Ipv4Addr> {
        self.upstream
    }

    /// §5 at this link: it becomes the head (the controller performs the
    /// IP takeover) and the next payload released to the client stamps
    /// the first-client-byte phase. What else it does follows from what
    /// is below it. With a replica below, it stops diverting and keeps
    /// merging and translating — the TCBs stay keyed to `own`. With
    /// nobody below (§6 mode: a tail, or a link whose downstream died)
    /// it takes the VIP outright, as the pair's S does: it returns
    /// `own`, whose failover TCBs the caller re-keys to the VIP, and
    /// from then on it is the VIP owner's pass-through. Either way the
    /// auditor notes the takeover.
    pub fn promote_to_head(&mut self, now_nanos: u64) -> Option<Ipv4Addr> {
        self.observers.takeover(now_nanos);
        self.upstream = None;
        self.watch_first_byte = true;
        let rekey = self.mode == PrimaryMode::SecondaryFailed && self.own != self.a_p;
        rekey.then(|| std::mem::replace(&mut self.own, self.a_p))
    }

    /// Re-targets the upstream neighbour (the link above this one died).
    pub fn set_upstream(&mut self, upstream: Ipv4Addr) {
        self.upstream = Some(upstream);
    }

    /// Re-targets the expected downstream replica (daisy-chain healing:
    /// when the direct downstream dies, its own downstream takes over
    /// as our stream source — `Δseq` and all queue state stay valid
    /// because the client-facing space is the tail's space).
    pub fn set_downstream(&mut self, addr: Ipv4Addr) {
        self.a_s = Some(addr);
    }

    /// Whether output is routed at all: not on a head that owns the VIP
    /// (the pair's P), whose segments pay this one branch for the chain.
    #[inline]
    pub(super) fn is_link(&self) -> bool {
        self.upstream.is_some() || self.own != self.a_p || self.watch_first_byte
    }

    /// Routes what a failover segment's step appended to `out` (from
    /// index `w0` of `to_wire`, `t0` of `to_tcp`) by this link's place
    /// in the chain, in place: below the head, output not addressed to
    /// the downstream climbs one hop up; at the head it leaves from the
    /// VIP (the merge template's source already; a §6 pass-through sent
    /// from a link's own address is re-stamped); off the host that owns
    /// the VIP, client datagrams are re-addressed to the local TCBs.
    /// Returns the place it routed by, against which an attached auditor
    /// judges the result. Kept out of line: the head's per-segment path
    /// stays the size it was.
    #[inline(never)]
    pub(super) fn route_as_link(
        &mut self,
        (w0, t0): (usize, usize),
        now_nanos: u64,
        out: &mut FilterOutput,
    ) -> LinkPlace {
        let (vip, own, downstream) = (self.a_p, self.own, self.a_s);
        for seg in out.to_wire[w0..]
            .iter_mut()
            .filter(|s| Some(s.dst) != downstream)
        {
            if let Some(up) = self.upstream {
                self.divert_up(seg, up);
                continue;
            }
            if seg.src != vip {
                self.readdress(seg, |p| p.set_pseudo_src(vip));
            }
            if self.watch_first_byte {
                self.first_client_byte(seg, now_nanos);
            }
        }
        if own != vip {
            for seg in out.to_tcp[t0..].iter_mut().filter(|s| s.dst == vip) {
                self.readdress(seg, |p| p.set_pseudo_dst(own));
                self.stats.ingress_rewrites += 1;
            }
        }
        LinkPlace {
            vip,
            own,
            upstream: self.upstream,
            downstream,
        }
    }

    /// Rewrites one segment's addresses in place (RFC 1624 fixup).
    fn readdress(&mut self, seg: &mut AddressedSegment, set: impl FnOnce(&mut SegmentPatcher)) {
        let t0 = self.observers.clock().start();
        let mut p = SegmentPatcher::new(std::mem::take(&mut seg.bytes), seg.src, seg.dst);
        set(&mut p);
        (seg.bytes, seg.src, seg.dst) = p.finish();
        self.observers.clock().end(Stage::ChecksumFixup, t0);
    }

    /// The first payload a promoted head sends the client closes the §5
    /// timeline.
    fn first_client_byte(&mut self, seg: &AddressedSegment, now_nanos: u64) {
        let Some(view) = TcpView::new(&seg.bytes)
            .ok()
            .filter(|v| !v.payload().is_empty())
        else {
            return;
        };
        self.watch_first_byte = false;
        let Some(t) = &self.telemetry else {
            return;
        };
        let len = view.payload().len();
        let fields = [("seq", view.seq().to_string()), ("len", len.to_string())];
        let args = [Some(("len", len as u64)), None];
        (t.hub).event(now_nanos, t.name, "first_client_byte", &fields, args);
    }

    /// Diverts one merged segment to the upstream neighbour: append the
    /// orig-dest option, patch data offset / pseudo length / addresses
    /// with RFC 1624 deltas, and assemble into the recycled divert
    /// buffer — spliced by hand because a [`SegmentPatcher`] would
    /// reallocate to grow the segment.
    fn divert_up(&mut self, seg: &mut AddressedSegment, up: Ipv4Addr) {
        let t0 = self.observers.clock().start();
        let bytes: &[u8] = &seg.bytes;
        let len = bytes.len();
        let header_len = bytes.get(12).map_or(0, |b| usize::from(b >> 4) * 4);
        if header_len < TCP_HEADER_LEN || header_len > len || header_len + 8 > 60 {
            self.stats.divert_fallbacks += 1;
            return;
        }

        // The 8-byte orig-dest option: kind, len, client IP, client
        // port (already big-endian on the wire).
        let mut opt = [OPT_KIND_ORIG_DEST, 8, 0, 0, 0, 0, bytes[2], bytes[3]];
        opt[2..6].copy_from_slice(&seg.dst.octets());

        let mut delta = ChecksumDelta::new();
        // New words: the option itself (inserted at header_len, an even
        // offset, so parity of everything after it is preserved).
        delta.append_bytes(&opt);
        // Data offset grows by two words.
        let old_word = u16::from_be_bytes([bytes[12], bytes[13]]);
        let new_word = ((u16::from(bytes[12] >> 4) + 2) << 12) | (old_word & 0x0fff);
        delta.replace_u16(old_word, new_word);
        // Pseudo-header TCP length grows by the option.
        delta.replace_u16(len as u16, (len + 8) as u16);
        // Pseudo-header addresses: destination becomes the upstream
        // replica; a VIP-stamped source is rewritten to our own address
        // (the head re-stamps the VIP on final release).
        if seg.src == self.a_p {
            delta.replace_u32(u32::from(self.a_p), u32::from(self.own));
            seg.src = self.own;
        }
        delta.replace_u32(u32::from(seg.dst), u32::from(up));
        let new_ck = delta.apply(u16::from_be_bytes([bytes[16], bytes[17]]));

        // The grown header is composed on the stack and appended once
        // (every append to a `BytesMut` first proves it unshared).
        let mut header = [0u8; 60];
        header[..header_len].copy_from_slice(&bytes[..header_len]);
        header[12..14].copy_from_slice(&new_word.to_be_bytes());
        header[16..18].copy_from_slice(&new_ck.to_be_bytes());
        header[header_len..header_len + 8].copy_from_slice(&opt);
        let buf = &mut self.divert_buf;
        buf.reserve(len + 8);
        buf.extend_from_slice(&header[..header_len + 8]);
        buf.extend_from_slice(&bytes[header_len..]);
        seg.bytes = buf.split().freeze();
        seg.dst = up;
        self.stats.diverted_upstream += 1;
        self.observers.clock().end(Stage::ChecksumFixup, t0);
    }
}
