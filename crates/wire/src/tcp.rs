//! TCP segments (RFC 793) with options, plus raw-byte views and patching
//! helpers for the failover bridges.
//!
//! Three representations are provided:
//!
//! * [`TcpSegment`] — fully parsed, used by the TCP stack itself.
//! * [`TcpView`] — zero-copy read access to a raw segment, used by the
//!   bridges to inspect segments cheaply on the fast path.
//! * [`SegmentPatcher`] — edits a raw segment in place (address/port/
//!   sequence/ack/window rewrites, option insertion/removal) while
//!   maintaining the checksum *incrementally* per RFC 1624, which is the
//!   technique the paper describes in §3.1.

use crate::checksum::{raw_sum, swap_sum, Checksum, ChecksumDelta};
use crate::error::WireError;
use crate::ipv4::{pseudo_header_sum, Ipv4Addr, PROTO_TCP};
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Minimum TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// Most option bytes a header carries: its data offset counts at most
/// 15 words, 60 bytes, of which 20 are fixed.
pub const MAX_OPTIONS_LEN: usize = 40;

/// Option kind for the *original destination* option the secondary
/// bridge appends to diverted segments (§3.1: "The original destination
/// address of the segment is included in the segment as a TCP header
/// option"). Kind 253 is reserved for experiments by RFC 4727.
pub const OPT_KIND_ORIG_DEST: u8 = 253;

/// TCP header flags.
///
/// A deliberate small bitset type rather than six `bool`s (the flags
/// travel together on every segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronise sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Returns `true` if every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if any flag in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// A TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), carried on SYN segments. The
    /// primary bridge advertises `min(MSS_P, MSS_S)` to the client (§7.1).
    Mss(u16),
    /// Original destination of a diverted segment (kind
    /// [`OPT_KIND_ORIG_DEST`]): the client address/port the secondary's
    /// TCP layer addressed before the bridge rewrote it to the primary.
    OrigDest {
        /// Original destination IP (the client's address `a_c`).
        addr: Ipv4Addr,
        /// Original destination port (the client's port).
        port: u16,
    },
    /// An option this implementation does not interpret, preserved
    /// verbatim (kind, payload after the length byte).
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    /// Encoded length in bytes (kind + length + payload).
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::OrigDest { .. } => 8,
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }

    /// Writes the option's [`TcpOption::wire_len`] bytes to the front
    /// of `out`.
    fn write(&self, out: &mut [u8]) {
        match self {
            TcpOption::Mss(mss) => {
                out[..2].copy_from_slice(&[2, 4]);
                out[2..4].copy_from_slice(&mss.to_be_bytes());
            }
            TcpOption::OrigDest { addr, port } => {
                out[..2].copy_from_slice(&[OPT_KIND_ORIG_DEST, 8]);
                out[2..6].copy_from_slice(&addr.octets());
                out[6..8].copy_from_slice(&port.to_be_bytes());
            }
            TcpOption::Unknown(kind, data) => {
                out[..2].copy_from_slice(&[*kind, (2 + data.len()) as u8]);
                out[2..2 + data.len()].copy_from_slice(data);
            }
        }
    }

    /// The parsed view of one well-formed option.
    fn parse(kind: u8, body: &[u8]) -> TcpOption {
        if let Some(mss) = mss_of(kind, body) {
            TcpOption::Mss(mss)
        } else if let Some((addr, port)) = orig_dest_of(kind, body) {
            TcpOption::OrigDest { addr, port }
        } else {
            TcpOption::Unknown(kind, body.to_vec())
        }
    }
}

/// Encodes `options` into the padded option block of a TCP header: the
/// `Vec` twin of [`TcpOptions`], for tests and tooling. An empty list
/// yields an empty `Vec`, which owns no allocation.
pub fn encode_options(options: &[TcpOption]) -> Vec<u8> {
    let mut buf = Vec::new();
    for opt in options {
        let at = buf.len();
        buf.resize(at + opt.wire_len(), 0);
        opt.write(&mut buf[at..]);
    }
    // Pad to a 4-byte boundary with NOPs (kind 1) — unlike end-of-list
    // padding, this keeps the block parseable if options are appended.
    buf.resize(buf.len().next_multiple_of(4), 1);
    buf
}

/// A segment's options as they travel: each option's kind, length and
/// body, back to back, held inline in at most [`MAX_OPTIONS_LEN`]
/// bytes. NOP padding is not held: decoding drops it, and encoding pads
/// the block to a 4-byte boundary with NOPs. An option this
/// implementation does not interpret keeps its bytes exactly.
///
/// A push that would take the block past [`MAX_OPTIONS_LEN`] bytes is
/// refused by a panic, in release builds too: no data offset could
/// describe the header, so the segment could not be sent.
///
/// ```
/// use tcpfo_wire::tcp::{TcpOption, TcpOptions};
///
/// let mut opts = TcpOptions::default();
/// opts.push(TcpOption::Mss(1460));
/// opts.push(TcpOption::Unknown(99, vec![1, 2, 3]));
/// assert_eq!(opts.as_bytes(), [2, 4, 0x05, 0xb4, 99, 5, 1, 2, 3]);
/// assert_eq!(opts.wire_len(), 12);
/// assert_eq!(opts.mss(), Some(1460));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    len: u8,
    /// The options in `..len`; the bytes past it stay zero, so two
    /// blocks are equal when their options are.
    bytes: [u8; MAX_OPTIONS_LEN],
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            len: 0,
            bytes: [0; MAX_OPTIONS_LEN],
        }
    }
}

impl TcpOptions {
    /// Appends `opt`.
    ///
    /// # Panics
    ///
    /// If the block would pass [`MAX_OPTIONS_LEN`] bytes.
    pub fn push(&mut self, opt: TcpOption) {
        let at = usize::from(self.len);
        let end = at + opt.wire_len();
        assert!(
            end <= MAX_OPTIONS_LEN,
            "TCP options past {MAX_OPTIONS_LEN} bytes: {end}"
        );
        opt.write(&mut self.bytes[at..end]);
        self.len = end as u8;
    }

    /// Copies the well-formed options of a received block, its NOPs
    /// dropped, stopping at end-of-list.
    ///
    /// # Errors
    ///
    /// [`WireError::BadOption`] as [`decode_options`].
    fn decode(block: &[u8]) -> Result<Self, WireError> {
        let mut opts = TcpOptions::default();
        for opt in walk_options(block) {
            let (at, _, body) = opt?;
            let (from, len) = (usize::from(opts.len), 2 + body.len());
            // The block is at most `MAX_OPTIONS_LEN` bytes, and what is
            // copied out of it is no longer.
            opts.bytes[from..from + len].copy_from_slice(&block[at..at + len]);
            opts.len += len as u8;
        }
        Ok(opts)
    }

    /// The options' bytes, without padding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Bytes the block takes in a header: padded to a 4-byte boundary.
    pub fn wire_len(&self) -> usize {
        usize::from(self.len).next_multiple_of(4)
    }

    /// The options, parsed.
    pub fn iter(&self) -> impl Iterator<Item = TcpOption> + '_ {
        walk_options(self.as_bytes())
            .map_while(Result::ok)
            .map(|(_, kind, body)| TcpOption::parse(kind, body))
    }

    /// The first MSS option's value, if one is present.
    pub fn mss(&self) -> Option<u16> {
        walk_options(self.as_bytes())
            .map_while(Result::ok)
            .find_map(|(_, kind, body)| mss_of(kind, body))
    }

    /// The first original-destination option, if one is present.
    pub fn orig_dest(&self) -> Option<(Ipv4Addr, u16)> {
        find_orig_dest(self.as_bytes()).map(|(_, dest)| dest)
    }
}

impl fmt::Debug for TcpOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Walks a TCP option block without allocating: yields `(offset, kind,
/// body)` for each option, NOPs skipped, and stops at end-of-list or the
/// block's end. A malformed entry (no length byte, a length under 2 or
/// past the block) yields one [`WireError::BadOption`] and ends the walk.
/// Every reader of the block is built on this one walk.
fn walk_options(block: &[u8]) -> impl Iterator<Item = Result<(usize, u8, &[u8]), WireError>> {
    let mut off = 0;
    std::iter::from_fn(move || loop {
        let kind = *block.get(off)?;
        match kind {
            0 => return None,
            1 => off += 1,
            _ => {
                let at = off;
                let len = block.get(at + 1).map_or(0, |&len| usize::from(len));
                if len < 2 || at + len > block.len() {
                    off = block.len();
                    return Some(Err(WireError::BadOption { kind }));
                }
                off = at + len;
                return Some(Ok((at, kind, &block[at + 2..off])));
            }
        }
    })
}

/// The MSS an option carries, if it is a well-formed MSS option.
fn mss_of(kind: u8, body: &[u8]) -> Option<u16> {
    match (kind, body) {
        (2, &[hi, lo]) => Some(u16::from_be_bytes([hi, lo])),
        _ => None,
    }
}

/// The address and port an option carries, if it is a well-formed
/// original-destination option.
fn orig_dest_of(kind: u8, body: &[u8]) -> Option<(Ipv4Addr, u16)> {
    match (kind, body) {
        (OPT_KIND_ORIG_DEST, &[a, b, c, d, hi, lo]) => {
            Some((Ipv4Addr::new(a, b, c, d), u16::from_be_bytes([hi, lo])))
        }
        _ => None,
    }
}

/// The first well-formed original-destination option in `block` before
/// any malformed entry, with its offset: the datapath's lenient rule.
fn find_orig_dest(block: &[u8]) -> Option<(usize, (Ipv4Addr, u16))> {
    walk_options(block)
        .map_while(Result::ok)
        .find_map(|(at, kind, body)| orig_dest_of(kind, body).map(|dest| (at, dest)))
}

/// Decodes the option block of a TCP header: the `Vec` twin of
/// [`TcpOptions`], for tests and tooling.
///
/// # Errors
///
/// Returns [`WireError::BadOption`] if a length byte is shorter than 2
/// or runs past the block.
pub fn decode_options(bytes: &[u8]) -> Result<Vec<TcpOption>, WireError> {
    walk_options(bytes)
        .map(|opt| opt.map(|(_, kind, body)| TcpOption::parse(kind, body)))
        .collect()
}

/// Sequence-space length of a segment: payload bytes plus one for SYN
/// and one for FIN ("SYN and FIN each occupy one sequence number").
fn seq_space(payload_len: usize, flags: TcpFlags) -> u32 {
    payload_len as u32
        + u32::from(flags.contains(TcpFlags::SYN))
        + u32::from(flags.contains(TcpFlags::FIN))
}

/// A parsed TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (valid when `flags` contains ACK).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Options carried in the header.
    pub options: TcpOptions,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Starts building a segment between the given ports.
    pub fn builder(src_port: u16, dst_port: u16) -> TcpSegmentBuilder {
        TcpSegmentBuilder {
            segment: TcpSegment {
                src_port,
                dst_port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::EMPTY,
                window: 0,
                options: TcpOptions::default(),
                payload: Bytes::new(),
            },
        }
    }

    /// Sequence-space length: payload bytes plus one for SYN and one for
    /// FIN ("SYN and FIN each occupy one sequence number").
    pub fn seq_len(&self) -> u32 {
        seq_space(self.payload.len(), self.flags)
    }

    /// Returns the MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.mss()
    }

    /// Returns the original-destination option, if present.
    pub fn orig_dest(&self) -> Option<(Ipv4Addr, u16)> {
        self.options.orig_dest()
    }

    /// Header length including options, in bytes.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.wire_len()
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Encodes the segment, computing the checksum over the pseudo
    /// header for `src`/`dst`.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        self.encode_parts(src, dst, &[&self.payload])
    }

    /// Encodes the segment's header with `parts`, written back to back,
    /// as its payload: how a sender writes payload bytes from its send
    /// ring straight into the one buffer the segment travels in. The
    /// segment's own payload must be empty.
    pub fn encode_with_payload(&self, src: Ipv4Addr, dst: Ipv4Addr, parts: &[&[u8]]) -> Bytes {
        debug_assert!(self.payload.is_empty(), "payload given twice");
        self.encode_parts(src, dst, parts)
    }

    fn encode_parts(&self, src: Ipv4Addr, dst: Ipv4Addr, parts: &[&[u8]]) -> Bytes {
        let header_len = self.header_len();
        let total = header_len + parts.iter().map(|p| p.len()).sum::<usize>();
        // Checksum and urgent pointer (bytes 16..20) stay zero while
        // the sum is taken.
        let mut header = [0u8; TCP_HEADER_LEN + MAX_OPTIONS_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..8].copy_from_slice(&self.seq.to_be_bytes());
        header[8..12].copy_from_slice(&self.ack.to_be_bytes());
        header[12] = ((header_len / 4) as u8) << 4;
        header[13] = self.flags.0;
        header[14..16].copy_from_slice(&self.window.to_be_bytes());
        let opts = self.options.as_bytes();
        if !opts.is_empty() {
            let end = TCP_HEADER_LEN + opts.len();
            header[TCP_HEADER_LEN..end].copy_from_slice(opts);
            header[end..header_len].fill(1);
        }
        let header = &mut header[..header_len];
        // The header has an even length, so the payload starts at an
        // even offset.
        let mut ck = pseudo_header_sum(src, dst, PROTO_TCP, total);
        ck.add_bytes(header);
        add_parts(&mut ck, parts.iter().copied());
        header[16..18].copy_from_slice(&ck.finish().to_be_bytes());
        let mut buf = BytesMut::with_capacity(total);
        buf.put_slice(header);
        for p in parts {
            buf.put_slice(p);
        }
        buf.freeze()
    }

    /// Decodes a segment, copying `bytes` first; for callers that do
    /// not hold the segment as [`Bytes`] (tests, capture tooling). The
    /// checksum is *not* verified — see [`TcpSegment::decode_shared`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TcpSegment::decode_shared`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Self::decode_shared(&Bytes::copy_from_slice(bytes))
    }

    /// Decodes a segment whose bytes are already refcounted, slicing
    /// the payload out of the shared buffer instead of copying it, so
    /// queued payload bytes stay shared all the way from the wire to
    /// the bridge's output queue. The checksum is *not* verified here
    /// (the IP addresses are needed for that) — call
    /// [`verify_segment_checksum`] or [`TcpSegment::verify_checksum`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated buffers, a data offset
    /// smaller than 5 or past the end of the buffer, or malformed
    /// options.
    pub fn decode_shared(bytes: &Bytes) -> Result<Self, WireError> {
        let view = TcpView::new(bytes)?;
        let data_offset = view.header_len();
        Ok(TcpSegment {
            src_port: view.src_port(),
            dst_port: view.dst_port(),
            seq: view.seq(),
            ack: view.ack(),
            flags: view.flags(),
            window: view.window(),
            options: TcpOptions::decode(view.option_block())?,
            // Empty payloads get a detached empty `Bytes` so pure ACKs
            // never pin the arriving buffer's refcount (the inbound hot
            // path wants to take the buffer over in place).
            payload: if data_offset < bytes.len() {
                bytes.slice(data_offset..)
            } else {
                Bytes::new()
            },
        })
    }

    /// Verifies the checksum the segment was encoded with against the
    /// pseudo header for `src`/`dst`.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        // Re-encoding is canonical because our encoder is deterministic.
        let bytes = self.encode(src, dst);
        verify_segment_checksum(src, dst, &bytes)
    }
}

/// Verifies the checksum of raw TCP segment bytes against the pseudo
/// header for `src`/`dst`.
pub fn verify_segment_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
    let mut ck = pseudo_header_sum(src, dst, PROTO_TCP, segment.len());
    ck.add_bytes(segment);
    ck.finish() == 0
}

/// Builder for [`TcpSegment`].
#[derive(Debug, Clone)]
pub struct TcpSegmentBuilder {
    segment: TcpSegment,
}

impl TcpSegmentBuilder {
    /// Sets the sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.segment.seq = seq;
        self
    }

    /// Sets the acknowledgment number and the ACK flag.
    pub fn ack(mut self, ack: u32) -> Self {
        self.segment.ack = ack;
        self.segment.flags |= TcpFlags::ACK;
        self
    }

    /// Ors in header flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.segment.flags |= flags;
        self
    }

    /// Sets the advertised window.
    pub fn window(mut self, window: u16) -> Self {
        self.segment.window = window;
        self
    }

    /// Appends an MSS option.
    ///
    /// # Panics
    ///
    /// As [`TcpOptions::push`], past [`MAX_OPTIONS_LEN`] option bytes.
    pub fn mss(mut self, mss: u16) -> Self {
        self.segment.options.push(TcpOption::Mss(mss));
        self
    }

    /// Appends an original-destination option.
    ///
    /// # Panics
    ///
    /// As [`TcpOptions::push`], past [`MAX_OPTIONS_LEN`] option bytes.
    pub fn orig_dest(mut self, addr: Ipv4Addr, port: u16) -> Self {
        self.segment
            .options
            .push(TcpOption::OrigDest { addr, port });
        self
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Bytes) -> Self {
        self.segment.payload = payload;
        self
    }

    /// Finishes building.
    pub fn build(self) -> TcpSegment {
        self.segment
    }
}

/// Zero-copy read access to a raw TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    bytes: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Wraps raw segment bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for a buffer shorter than the fixed header
    /// or a data offset smaller than 5 or past the end of the buffer.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "tcp",
                needed: TCP_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let off = usize::from(bytes[12] >> 4) * 4;
        if off < TCP_HEADER_LEN {
            return Err(WireError::BadField {
                layer: "tcp",
                field: "data_offset",
                value: (off / 4) as u32,
            });
        }
        if off > bytes.len() {
            return Err(WireError::BadLength {
                layer: "tcp",
                what: "data offset past end of segment",
            });
        }
        Ok(TcpView { bytes })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.bytes[0], self.bytes[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.bytes[2], self.bytes[3]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes([self.bytes[4], self.bytes[5], self.bytes[6], self.bytes[7]])
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        u32::from_be_bytes([self.bytes[8], self.bytes[9], self.bytes[10], self.bytes[11]])
    }

    /// Header flags.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.bytes[13] & 0x3f)
    }

    /// Advertised window.
    pub fn window(&self) -> u16 {
        u16::from_be_bytes([self.bytes[14], self.bytes[15]])
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        usize::from(self.bytes[12] >> 4) * 4
    }

    /// The option block: the header after its fixed 20 bytes.
    fn option_block(&self) -> &'a [u8] {
        &self.bytes[TCP_HEADER_LEN..self.header_len()]
    }

    /// Payload bytes.
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[self.header_len()..]
    }

    /// Sequence-space length (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        seq_space(self.payload().len(), self.flags())
    }

    /// Returns the original-destination option, if present, without
    /// allocating: the datapath's reader, [`peek_orig_dest`].
    pub fn orig_dest(&self) -> Option<(Ipv4Addr, u16)> {
        find_orig_dest(self.option_block()).map(|(_, dest)| dest)
    }

    /// Returns the MSS option value, without allocating. As strict as
    /// [`TcpSegment::decode_shared`]: `None` when the option block is
    /// malformed anywhere.
    pub fn mss(&self) -> Option<u16> {
        walk_options(self.option_block())
            .try_fold(None, |mss, opt| {
                let (_, kind, body) = opt.ok()?;
                Some(mss.or(mss_of(kind, body)))
            })
            .flatten()
    }
}

/// Prebuilt per-connection egress header for the primary bridge's
/// release path.
///
/// The paper's bridge never recomputes a checksum from scratch (§3.1);
/// for segments the bridge *originates* (releasing matched bytes,
/// synthesising §3.4 empty ACKs, answering recognised retransmissions)
/// the equivalent trick is to sum the invariant parts of the header —
/// pseudo-header addresses, protocol, ports — once at connection setup
/// and fold in only the per-segment fields at emit time. Combined with
/// a recycled [`BytesMut`] scratch buffer, [`HeaderTemplate::emit`]
/// builds a fully checksummed option-less segment with no allocation
/// and no full checksum pass over the header.
///
/// # Example
///
/// ```
/// use bytes::{Bytes, BytesMut};
/// use tcpfo_wire::ipv4::Ipv4Addr;
/// use tcpfo_wire::tcp::{HeaderTemplate, TcpFlags, TcpSegment, verify_segment_checksum};
///
/// let a_p = Ipv4Addr::new(10, 0, 0, 1);
/// let a_c = Ipv4Addr::new(192, 168, 0, 9);
/// let tpl = HeaderTemplate::new(a_p, a_c, 80, 4242);
/// let mut scratch = BytesMut::with_capacity(1500);
/// let flags = TcpFlags::ACK | TcpFlags::PSH;
/// let bytes = tpl.emit(&mut scratch, 7, 9, flags, 8192, b"reply", None);
/// assert!(verify_segment_checksum(a_p, a_c, &bytes));
/// let seg = TcpSegment::decode(&bytes).unwrap();
/// assert_eq!((seg.seq, seg.ack, &seg.payload[..]), (7, 9, &b"reply"[..]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderTemplate {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    /// Sum of everything that never changes per segment: pseudo-header
    /// addresses + protocol, source and destination ports. (The
    /// pseudo-header length, data offset and urgent pointer are folded
    /// in at emit time.)
    static_sum: u32,
}

impl HeaderTemplate {
    /// Builds a template for segments from `(src, src_port)` to
    /// `(dst, dst_port)`.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> Self {
        let mut ck = Checksum::new();
        ck.add_u32(u32::from(src));
        ck.add_u32(u32::from(dst));
        ck.add_u16(u16::from(PROTO_TCP));
        ck.add_u16(src_port);
        ck.add_u16(dst_port);
        HeaderTemplate {
            src,
            dst,
            src_port,
            dst_port,
            static_sum: ck.raw(),
        }
    }

    /// The pseudo-header source address (IP source for emitted bytes).
    pub fn src(&self) -> Ipv4Addr {
        self.src
    }

    /// The pseudo-header destination address.
    pub fn dst(&self) -> Ipv4Addr {
        self.dst
    }

    /// Emits one option-less segment into `buf` and returns the frozen
    /// bytes.
    ///
    /// `payload_sum`, when given, must be the even-offset unfolded
    /// ones-complement sum of `payload` (see
    /// [`crate::checksum::raw_sum`]); the payload is then never scanned
    /// for checksumming. `buf` is reserved, written, split and frozen —
    /// once the previously emitted `Bytes` has been dropped downstream,
    /// the allocation is recycled and emission touches no allocator.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        buf: &mut BytesMut,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
        payload: &[u8],
        payload_sum: Option<u32>,
    ) -> Bytes {
        self.emit_parts(
            buf,
            seq,
            ack,
            flags,
            window,
            std::iter::once(payload),
            payload.len(),
            payload_sum,
        )
    }

    /// Like [`HeaderTemplate::emit`], but the payload arrives as a
    /// chain of slices (the rope queue's [`bytes::Bytes`] chunks)
    /// written back to back. `payload_len` must equal the summed length
    /// of `parts`; `payload_sum`, when given, their even-offset
    /// one's-complement sum.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_parts<'a>(
        &self,
        buf: &mut BytesMut,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
        parts: impl Iterator<Item = &'a [u8]> + Clone,
        payload_len: usize,
        payload_sum: Option<u32>,
    ) -> Bytes {
        let total = TCP_HEADER_LEN + payload_len;
        let offset_flags = (((TCP_HEADER_LEN / 4) as u16) << 12) | u16::from(flags.0);
        let mut ck = Checksum::new();
        ck.add_raw(self.static_sum);
        ck.add_u16(total as u16);
        ck.add_u32(seq);
        ck.add_u32(ack);
        ck.add_u16(offset_flags);
        ck.add_u16(window);
        match payload_sum {
            Some(sum) => ck.add_raw(sum),
            None => add_parts(&mut ck, parts.clone()),
        }
        let mut header = [0u8; TCP_HEADER_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..8].copy_from_slice(&seq.to_be_bytes());
        header[8..12].copy_from_slice(&ack.to_be_bytes());
        header[12..14].copy_from_slice(&offset_flags.to_be_bytes());
        header[14..16].copy_from_slice(&window.to_be_bytes());
        header[16..18].copy_from_slice(&ck.finish().to_be_bytes());
        // Bytes 18..20, the urgent pointer, stay zero. One append for
        // the header, one per payload part: every append to a
        // `BytesMut` first proves the storage unshared.
        buf.reserve(total);
        buf.put_slice(&header);
        let mut written = 0usize;
        for p in parts {
            buf.put_slice(p);
            written += p.len();
        }
        debug_assert_eq!(written, payload_len, "payload_len must match parts");
        buf.split().freeze()
    }
}

/// Adds payload parts written back to back from an even offset: a part
/// that starts at an odd offset has its sum byte-swapped.
fn add_parts<'a>(ck: &mut Checksum, parts: impl Iterator<Item = &'a [u8]>) {
    let mut at_odd = false;
    for p in parts {
        if at_odd {
            ck.add_raw(swap_sum(raw_sum(p)));
        } else {
            ck.add_bytes(p);
        }
        at_odd ^= p.len() % 2 == 1;
    }
}

/// Reads the source and destination ports off raw segment bytes
/// without decoding (and without allocating). The bridges derive their
/// flow keys from this before deciding whether a full decode is
/// worthwhile; returns `None` when the buffer is too short to carry a
/// TCP header.
pub fn peek_ports(bytes: &[u8]) -> Option<(u16, u16)> {
    if bytes.len() < TCP_HEADER_LEN {
        return None;
    }
    Some((
        u16::from_be_bytes([bytes[0], bytes[1]]),
        u16::from_be_bytes([bytes[2], bytes[3]]),
    ))
}

/// Scans raw segment bytes for the original-destination option without
/// decoding the segment (and without allocating). The inbound hot path
/// uses this to classify diverted secondary segments before deciding
/// whether the buffer needs patching.
pub fn peek_orig_dest(bytes: &[u8]) -> Option<(Ipv4Addr, u16)> {
    TcpView::new(bytes).ok()?.orig_dest()
}

/// In-place editor for raw TCP segment bytes that keeps the checksum
/// consistent via RFC 1624 incremental updates (§3.1 of the paper).
///
/// The patcher is created from the segment bytes plus the pseudo-header
/// addresses that the checksum currently reflects. Every mutation
/// records its delta; [`SegmentPatcher::finish`] writes the patched
/// checksum and returns the bytes together with the (possibly updated)
/// pseudo-header addresses.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use tcpfo_wire::ipv4::Ipv4Addr;
/// use tcpfo_wire::tcp::{SegmentPatcher, TcpSegment, TcpFlags, verify_segment_checksum};
///
/// let a_c = Ipv4Addr::new(192, 168, 0, 9);
/// let a_s = Ipv4Addr::new(10, 0, 0, 2);
/// let a_p = Ipv4Addr::new(10, 0, 0, 1);
/// // The secondary's TCP layer addressed this segment to the client…
/// let seg = TcpSegment::builder(80, 4242)
///     .seq(7)
///     .ack(9)
///     .payload(Bytes::from_static(b"reply"))
///     .build();
/// let raw = seg.encode(a_s, a_c);
/// // …and the secondary bridge diverts it to the primary, patching the
/// // pseudo-header destination and appending the orig-dest option.
/// let mut p = SegmentPatcher::new(raw, a_s, a_c);
/// p.set_pseudo_dst(a_p);
/// p.push_orig_dest_option(a_c, 4242);
/// let (bytes, src, dst) = p.finish();
/// assert_eq!((src, dst), (a_s, a_p));
/// assert!(verify_segment_checksum(src, dst, &bytes));
/// ```
#[derive(Debug)]
pub struct SegmentPatcher {
    bytes: BytesMut,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    delta: ChecksumDelta,
}

impl SegmentPatcher {
    /// Wraps raw segment bytes whose checksum currently covers the
    /// pseudo header `(src, dst)`. When the caller holds the only
    /// reference to the buffer it is taken over in place; otherwise the
    /// bytes are copied out once.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than a TCP header (bridges only
    /// patch segments they have already validated).
    pub fn new(bytes: impl Into<Bytes>, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        let bytes = bytes.into();
        assert!(bytes.len() >= TCP_HEADER_LEN, "segment too short to patch");
        let bytes = bytes
            .try_into_mut()
            .unwrap_or_else(|shared| BytesMut::from(&shared[..]));
        SegmentPatcher {
            bytes,
            src,
            dst,
            delta: ChecksumDelta::new(),
        }
    }

    /// Read-only view of the current bytes.
    pub fn view(&self) -> TcpView<'_> {
        TcpView::new(&self.bytes).expect("patcher holds a valid segment")
    }

    fn replace_u32_at(&mut self, offset: usize, new: u32) {
        let field = &mut self.bytes[offset..offset + 4];
        let old = u32::from_be_bytes([field[0], field[1], field[2], field[3]]);
        self.delta.replace_u32(old, new);
        field.copy_from_slice(&new.to_be_bytes());
    }

    /// Rewrites the sequence number (primary bridge: `seq − Δseq`).
    pub fn set_seq(&mut self, seq: u32) {
        self.replace_u32_at(4, seq);
    }

    /// Rewrites the acknowledgment number (primary bridge ingress:
    /// `ack + Δseq`; egress: `min(ack_P, ack_S)`).
    pub fn set_ack(&mut self, ack: u32) {
        self.replace_u32_at(8, ack);
    }

    /// Changes the pseudo-header *source* address the checksum covers
    /// (used together with rewriting the IP header's source field).
    pub fn set_pseudo_src(&mut self, new: Ipv4Addr) {
        self.delta.replace_u32(u32::from(self.src), u32::from(new));
        self.src = new;
    }

    /// Changes the pseudo-header *destination* address the checksum
    /// covers (the `a_p → a_s` and `a_c → a_p` translations of §3.1).
    pub fn set_pseudo_dst(&mut self, new: Ipv4Addr) {
        self.delta.replace_u32(u32::from(self.dst), u32::from(new));
        self.dst = new;
    }

    /// Appends an original-destination option to the header, shifting
    /// the payload and updating data offset, pseudo-header length and
    /// checksum incrementally.
    pub fn push_orig_dest_option(&mut self, addr: Ipv4Addr, port: u16) {
        let mut opt = [OPT_KIND_ORIG_DEST, 8, 0, 0, 0, 0, 0, 0];
        opt[2..6].copy_from_slice(&addr.octets());
        opt[6..8].copy_from_slice(&port.to_be_bytes());
        self.insert_option_bytes(&opt);
    }

    /// Removes an original-destination option if present (primary bridge
    /// strips it before segments could ever reach the client).
    ///
    /// Returns the option's value when one was removed.
    pub fn strip_orig_dest_option(&mut self) -> Option<(Ipv4Addr, u16)> {
        let (at, dest) = find_orig_dest(self.view().option_block())?;
        self.remove_option_bytes(TCP_HEADER_LEN + at, 8);
        Some(dest)
    }

    /// Inserts raw option bytes (length a multiple of 4) at the end of
    /// the option area.
    fn insert_option_bytes(&mut self, opt: &[u8]) {
        assert_eq!(opt.len() % 4, 0, "options must keep 4-byte alignment");
        let header_len = self.view().header_len();
        assert!(header_len + opt.len() <= 60, "no room for option");
        // The option lands at `header_len`, which is a multiple of 4 —
        // an even offset — so parity of all following bytes is kept and
        // the incremental sum stays valid.
        let old_len = self.bytes.len();
        self.bytes.extend_from_slice(opt); // grow, content fixed below
        let bytes: &mut [u8] = &mut self.bytes;
        bytes.copy_within(header_len..old_len, header_len + opt.len());
        bytes[header_len..header_len + opt.len()].copy_from_slice(opt);
        self.delta.append_bytes(opt);
        bump_data_offset(bytes, &mut self.delta, old_len);
    }

    fn remove_option_bytes(&mut self, offset: usize, len: usize) {
        assert_eq!(len % 4, 0);
        let bytes: &mut [u8] = &mut self.bytes;
        // Subtract the removed bytes from the checksum. The option
        // area is outside input: behind a NOP the option sits at an odd
        // offset, where each byte has the other weight in its 16-bit
        // word. The bytes after it move by a multiple of 4 either way.
        for chunk in bytes[offset..offset + len].chunks_exact(2) {
            let word = if offset.is_multiple_of(2) {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_le_bytes([chunk[0], chunk[1]])
            };
            self.delta.replace_u16(word, 0);
        }
        let total = bytes.len();
        bytes.copy_within(offset + len..total, offset);
        bump_data_offset(&mut bytes[..total - len], &mut self.delta, total);
        self.bytes.truncate(total - len);
    }

    /// Writes the patched checksum and returns the segment bytes plus
    /// the pseudo-header addresses the checksum now covers (which the
    /// caller must use as the IP source/destination).
    pub fn finish(mut self) -> (Bytes, Ipv4Addr, Ipv4Addr) {
        let old = u16::from_be_bytes([self.bytes[16], self.bytes[17]]);
        let new = self.delta.apply(old);
        self.bytes[16..18].copy_from_slice(&new.to_be_bytes());
        (self.bytes.freeze(), self.src, self.dst)
    }
}

/// Adjusts the data-offset nibble and the pseudo-header length after an
/// option splice changed the segment from `old_total` bytes to the
/// length of `bytes` (which already reflects the splice).
fn bump_data_offset(bytes: &mut [u8], delta: &mut ChecksumDelta, old_total: usize) {
    let new_total = bytes.len();
    // Patch the offset/flags 16-bit word.
    let old_word = u16::from_be_bytes([bytes[12], bytes[13]]);
    let old_offset_words = usize::from(bytes[12] >> 4);
    let new_offset_words = (old_offset_words * 4 + new_total - old_total) / 4;
    let new_word = ((new_offset_words as u16) << 12) | (old_word & 0x0fff);
    delta.replace_u16(old_word, new_word);
    bytes[12..14].copy_from_slice(&new_word.to_be_bytes());
    // Patch the pseudo-header TCP length.
    delta.replace_u16(old_total as u16, new_total as u16);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 168, 7, 9))
    }

    fn sample() -> TcpSegment {
        TcpSegment::builder(80, 51000)
            .seq(0xdead_beef)
            .ack(0x0102_0304)
            .flags(TcpFlags::PSH)
            .window(8192)
            .payload(Bytes::from_static(b"hello, failover"))
            .build()
    }

    #[test]
    fn round_trip_plain() {
        let (src, dst) = addrs();
        let seg = sample();
        let bytes = seg.encode(src, dst);
        let back = TcpSegment::decode(&bytes).unwrap();
        assert_eq!(back, seg);
        assert!(verify_segment_checksum(src, dst, &bytes));
    }

    #[test]
    fn round_trip_with_options() {
        let (src, dst) = addrs();
        let seg = TcpSegment::builder(21, 1024)
            .seq(1)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .orig_dest(Ipv4Addr::new(172, 16, 0, 8), 3333)
            .build();
        let bytes = seg.encode(src, dst);
        let back = TcpSegment::decode(&bytes).unwrap();
        assert_eq!(back.mss(), Some(1460));
        assert_eq!(back.orig_dest(), Some((Ipv4Addr::new(172, 16, 0, 8), 3333)));
        assert!(verify_segment_checksum(src, dst, &bytes));
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let syn = TcpSegment::builder(1, 2).flags(TcpFlags::SYN).build();
        assert_eq!(syn.seq_len(), 1);
        let finseg = TcpSegment::builder(1, 2)
            .flags(TcpFlags::FIN)
            .payload(Bytes::from_static(b"xy"))
            .build();
        assert_eq!(finseg.seq_len(), 3);
        assert_eq!(sample().seq_len(), 15);
    }

    #[test]
    fn view_matches_decode() {
        let (src, dst) = addrs();
        let seg = sample();
        let bytes = seg.encode(src, dst);
        let view = TcpView::new(&bytes).unwrap();
        assert_eq!(view.src_port(), seg.src_port);
        assert_eq!(view.dst_port(), seg.dst_port);
        assert_eq!(view.seq(), seg.seq);
        assert_eq!(view.ack(), seg.ack);
        assert_eq!(view.window(), seg.window);
        assert_eq!(view.payload(), &seg.payload[..]);
        assert_eq!(view.seq_len(), seg.seq_len());
        assert!(view.flags().contains(TcpFlags::PSH | TcpFlags::ACK));
    }

    #[test]
    fn patcher_field_rewrites_keep_checksum_valid() {
        let (src, dst) = addrs();
        let bytes = sample().encode(src, dst).to_vec();
        let mut p = SegmentPatcher::new(bytes, src, dst);
        p.set_seq(0x1111_2222);
        p.set_ack(0x3333_4444);
        let (out, s, d) = p.finish();
        assert!(verify_segment_checksum(s, d, &out));
        let back = TcpSegment::decode(&out).unwrap();
        assert_eq!(back.seq, 0x1111_2222);
        assert_eq!(back.ack, 0x3333_4444);
        assert_eq!(back.payload, sample().payload);
    }

    #[test]
    fn patcher_pseudo_dst_rewrite_matches_full_encode() {
        // The secondary bridge's a_p -> a_s ingress translation.
        let a_c = Ipv4Addr::new(192, 168, 0, 9);
        let a_p = Ipv4Addr::new(10, 0, 0, 1);
        let a_s = Ipv4Addr::new(10, 0, 0, 2);
        let seg = sample();
        let bytes = seg.encode(a_c, a_p).to_vec();
        let mut p = SegmentPatcher::new(bytes, a_c, a_p);
        p.set_pseudo_dst(a_s);
        let (out, s, d) = p.finish();
        assert_eq!((s, d), (a_c, a_s));
        assert!(verify_segment_checksum(s, d, &out));
        assert_eq!(out, seg.encode(a_c, a_s).to_vec());
    }

    #[test]
    fn patcher_option_insert_and_strip_round_trip() {
        let a_c = Ipv4Addr::new(192, 168, 0, 9);
        let a_s = Ipv4Addr::new(10, 0, 0, 2);
        let a_p = Ipv4Addr::new(10, 0, 0, 1);
        let seg = sample();
        let original = seg.encode(a_s, a_c).to_vec();

        let mut p = SegmentPatcher::new(original.clone(), a_s, a_c);
        p.set_pseudo_dst(a_p);
        p.push_orig_dest_option(a_c, 51000);
        let (diverted, s, d) = p.finish();
        assert!(verify_segment_checksum(s, d, &diverted));
        let view = TcpView::new(&diverted).unwrap();
        assert_eq!(view.orig_dest(), Some((a_c, 51000)));
        assert_eq!(view.payload(), &seg.payload[..]);

        // Primary bridge strips the option back off.
        let mut p2 = SegmentPatcher::new(diverted, a_s, a_p);
        let stripped = p2.strip_orig_dest_option();
        assert_eq!(stripped, Some((a_c, 51000)));
        p2.set_pseudo_dst(a_c);
        let (restored, s2, d2) = p2.finish();
        assert!(verify_segment_checksum(s2, d2, &restored));
        assert_eq!(restored, original);
    }

    #[test]
    fn strip_absent_option_is_noop() {
        let (src, dst) = addrs();
        let bytes = sample().encode(src, dst).to_vec();
        let mut p = SegmentPatcher::new(bytes.clone(), src, dst);
        assert_eq!(p.strip_orig_dest_option(), None);
        let (out, ..) = p.finish();
        assert_eq!(out, bytes);
    }

    #[test]
    fn decode_rejects_bad_data_offset() {
        let (src, dst) = addrs();
        let mut bytes = sample().encode(src, dst).to_vec();
        bytes[12] = 0x40; // data offset 4 words < 5
        assert!(matches!(
            TcpSegment::decode(&bytes),
            Err(WireError::BadField {
                field: "data_offset",
                ..
            })
        ));
        bytes[12] = 0xf0; // 60-byte header on a short segment
        let short = &bytes[..30];
        assert!(TcpSegment::decode(short).is_err());
    }

    #[test]
    fn decode_rejects_bad_option_length() {
        let (src, dst) = addrs();
        let seg = TcpSegment::builder(1, 2)
            .flags(TcpFlags::SYN)
            .mss(536)
            .build();
        let mut bytes = seg.encode(src, dst).to_vec();
        bytes[21] = 0; // MSS option length byte -> 0
        assert!(matches!(
            TcpSegment::decode(&bytes),
            Err(WireError::BadOption { kind: 2 })
        ));
    }

    #[test]
    fn header_template_matches_full_encode() {
        let (src, dst) = addrs();
        let tpl = HeaderTemplate::new(src, dst, 80, 51000);
        assert_eq!((tpl.src(), tpl.dst()), (src, dst));
        let mut scratch = BytesMut::with_capacity(128);
        let flags = TcpFlags::PSH | TcpFlags::ACK;
        let emitted = tpl.emit(
            &mut scratch,
            0xdead_beef,
            0x0102_0304,
            flags,
            8192,
            b"hello, failover",
            None,
        );
        assert_eq!(emitted, sample().encode(src, dst));
        assert!(verify_segment_checksum(src, dst, &emitted));
    }

    #[test]
    fn header_template_recycles_scratch() {
        let (src, dst) = addrs();
        let tpl = HeaderTemplate::new(src, dst, 1, 2);
        let mut scratch = BytesMut::with_capacity(64);
        let first = tpl.emit(&mut scratch, 1, 2, TcpFlags::ACK, 10, b"aa", None);
        drop(first);
        let second = tpl.emit(&mut scratch, 3, 4, TcpFlags::ACK, 10, b"bb", None);
        assert!(verify_segment_checksum(src, dst, &second));
        let seg = TcpSegment::decode(&second).unwrap();
        assert_eq!((seg.seq, &seg.payload[..]), (3, &b"bb"[..]));
    }

    #[test]
    fn decode_shared_slices_payload_without_copy() {
        let (src, dst) = addrs();
        let bytes = sample().encode(src, dst);
        let shared = TcpSegment::decode_shared(&bytes).unwrap();
        assert_eq!(shared, TcpSegment::decode(&bytes).unwrap());
        // The payload is a view into the segment buffer, not a copy:
        // slicing the buffer at the same offsets yields equal bytes and
        // both survive dropping the original handle.
        let hl = shared.header_len();
        assert_eq!(shared.payload, bytes.slice(hl..));
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "(none)");
    }

    /// Ten MSS options fill the 40 bytes a header has for options; an
    /// eleventh is refused where it is pushed, rather than encoded
    /// under a data offset of 0 that no receiver decodes.
    #[test]
    #[should_panic(expected = "TCP options past 40 bytes")]
    fn an_option_block_past_40_bytes_is_refused() {
        let (src, dst) = addrs();
        let full = (0..10).fold(TcpSegment::builder(1, 2), |b, i| b.mss(536 + i));
        let seg = full.clone().build();
        let bytes = seg.encode(src, dst);
        assert_eq!((bytes.len(), bytes[12]), (60, 0xf0));
        assert_eq!(TcpSegment::decode(&bytes).unwrap(), seg);
        full.mss(1460);
    }

    #[test]
    fn unknown_options_preserved() {
        let opts = vec![TcpOption::Unknown(99, vec![1, 2, 3])];
        let encoded = encode_options(&opts);
        assert_eq!(decode_options(&encoded).unwrap(), opts);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_flags() -> impl Strategy<Value = TcpFlags> {
        (0u8..0x40).prop_map(TcpFlags)
    }

    proptest! {
        /// encode/decode is the identity on the parsed representation.
        #[test]
        fn prop_round_trip(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u32>(),
            ack in any::<u32>(),
            window in any::<u16>(),
            flags in arb_flags(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            mss in proptest::option::of(any::<u16>()),
        ) {
            let mut b = TcpSegment::builder(src_port, dst_port)
                .seq(seq)
                .window(window)
                .flags(flags)
                .payload(Bytes::from(payload));
            if flags.contains(TcpFlags::ACK) {
                b = b.ack(ack);
            }
            if let Some(m) = mss {
                b = b.mss(m);
            }
            let seg = b.build();
            let (s, d) = (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8));
            let bytes = seg.encode(s, d);
            let back = TcpSegment::decode(&bytes).unwrap();
            prop_assert_eq!(back, seg);
            prop_assert!(verify_segment_checksum(s, d, &bytes));
        }

        /// Any sequence of patcher edits leaves a checksum identical to
        /// a full re-encode of the edited segment — the bridge's
        /// incremental path can never corrupt a segment.
        #[test]
        fn prop_patcher_equals_reencode(
            seq in any::<u32>(),
            ack in any::<u32>(),
            new_seq in any::<u32>(),
            new_ack in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            swap_dst in any::<bool>(),
        ) {
            let a = Ipv4Addr::new(10, 0, 0, 1);
            let b = Ipv4Addr::new(10, 0, 0, 2);
            let c = Ipv4Addr::new(172, 16, 5, 5);
            let seg = TcpSegment::builder(1000, 2000)
                .seq(seq).ack(ack).window(1).payload(Bytes::from(payload.clone()))
                .build();
            let mut p = SegmentPatcher::new(seg.encode(a, b).to_vec(), a, b);
            p.set_seq(new_seq);
            p.set_ack(new_ack);
            if swap_dst {
                p.set_pseudo_dst(c);
            }
            let (out, s, d) = p.finish();
            let expected = TcpSegment::builder(1000, 2000)
                .seq(new_seq).ack(new_ack).window(1)
                .payload(Bytes::from(payload))
                .build()
                .encode(s, d);
            prop_assert_eq!(out, expected.clone());
            prop_assert!(verify_segment_checksum(s, d, &expected));
        }

        /// A header-template emission is byte-identical to a full
        /// builder + encode of the same option-less segment, with or
        /// without a cached payload sum — the primary bridge's release
        /// path can never diverge from the canonical encoder.
        #[test]
        fn prop_template_emit_equals_encode(
            seq in any::<u32>(),
            ack in any::<u32>(),
            window in any::<u16>(),
            fin in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            use_cached_sum in any::<bool>(),
        ) {
            let (s, d) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 168, 7, 9));
            let mut flags = TcpFlags::ACK | TcpFlags::PSH;
            if fin {
                flags |= TcpFlags::FIN;
            }
            let expected = TcpSegment::builder(80, 51000)
                .seq(seq)
                .ack(ack)
                .flags(flags)
                .window(window)
                .payload(Bytes::from(payload.clone()))
                .build()
                .encode(s, d);
            let tpl = HeaderTemplate::new(s, d, 80, 51000);
            let mut scratch = BytesMut::new();
            let cached = use_cached_sum.then(|| crate::checksum::raw_sum(&payload));
            let emitted = tpl.emit(&mut scratch, seq, ack, flags, window, &payload, cached);
            prop_assert_eq!(emitted, expected);
        }
    }
}
