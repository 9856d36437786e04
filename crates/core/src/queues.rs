//! The primary and secondary server output queues (§3.2, Figure 2).
//!
//! Each queue holds payload bytes one replica has produced for the
//! client, addressed in the *client-facing* sequence space (the
//! secondary's space; the primary's bytes are normalised by `Δseq`
//! before insertion). The bridge releases to the client exactly the
//! bytes present in **both** queues, in order.
//!
//! The queue is a *rope*: a sorted run of refcounted [`Bytes`] chunks,
//! each a sub-slice of the parsed segment payload it arrived in.
//! Inserting buffers a slice (no copy), releasing hands the same slice
//! back out ([`TakenBytes`]), and each chunk carries its Internet
//! checksum contribution, computed once at insert time, so the egress
//! path never rescans payload bytes. Adjacent chunks stay separate;
//! contiguity is implied by `prev.end() == next.start`.
//!
//! A queue holds its first chunk inline and allocates a vector only
//! once it holds two or more: a connection whose replicas stay in step
//! never has more than one segment's payload waiting on either side,
//! so its queues never touch the allocator.

use bytes::Bytes;
use std::ops::Range;
use tcpfo_tcp::seq::{seq_diff, seq_le, seq_lt};
use tcpfo_wire::checksum::{fold_sum, raw_sum, sub_sum, swap_sum};

/// One rope chunk: a slice of a received segment's payload positioned
/// in the client-facing sequence space.
#[derive(Debug, Clone)]
struct Chunk {
    start: u32,
    data: Bytes,
    /// Raw one's-complement sum of `data`, as if at an even byte
    /// offset. Cached when the chunk is created.
    sum: u32,
}

impl Chunk {
    fn end(&self) -> u32 {
        self.start.wrapping_add(self.data.len() as u32)
    }
}

/// A rope's chunks, in order: none, one held inline, or a vector once
/// a second arrives (kept, capacity and all, for the queue's life).
#[derive(Debug, Clone, Default)]
enum Chunks {
    #[default]
    Empty,
    One(Chunk),
    Many(Vec<Chunk>),
}

impl Chunks {
    fn as_slice(&self) -> &[Chunk] {
        match self {
            Chunks::Empty => &[],
            Chunks::One(c) => std::slice::from_ref(c),
            Chunks::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Chunk] {
        match self {
            Chunks::Empty => &mut [],
            Chunks::One(c) => std::slice::from_mut(c),
            Chunks::Many(v) => v,
        }
    }

    fn push(&mut self, c: Chunk) {
        *self = match std::mem::take(self) {
            Chunks::Empty => Chunks::One(c),
            Chunks::One(first) => Chunks::Many(vec![first, c]),
            Chunks::Many(mut v) => {
                v.push(c);
                Chunks::Many(v)
            }
        };
    }

    /// Removes the chunks in `range`, handing each to `f` in order.
    fn remove(&mut self, range: Range<usize>, mut f: impl FnMut(Chunk)) {
        match self {
            Chunks::Many(v) => v.drain(range).for_each(f),
            Chunks::One(_) if !range.is_empty() => {
                if let Chunks::One(c) = std::mem::take(self) {
                    f(c);
                }
            }
            _ => {}
        }
    }
}

/// Bytes removed from a [`ByteQueue`]: a chain of refcounted payload
/// slices plus their cached checksum sum.
///
/// In the steady state a release consumes exactly one chunk, so the
/// chain has a single part and building it never allocates. Multi-part
/// chains (a release spanning several buffered segments) push the
/// extra parts into a spill vector.
#[derive(Debug, Clone, Default)]
pub struct TakenBytes {
    first: Option<Bytes>,
    rest: Vec<Bytes>,
    sum: u32,
    len: usize,
}

impl TakenBytes {
    /// An empty chain.
    pub fn empty() -> Self {
        TakenBytes::default()
    }

    /// Total bytes in the chain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chain holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw one's-complement sum of the chained content, as if at an
    /// even byte offset — ready to feed a checksum accumulator without
    /// touching the payload again.
    pub fn sum(&self) -> u32 {
        self.sum
    }

    /// The chain's parts in order, as plain slices.
    pub fn parts(&self) -> impl Iterator<Item = &[u8]> + Clone {
        self.first
            .as_deref()
            .into_iter()
            .chain(self.rest.iter().map(|b| b.as_ref()))
    }

    /// Copies the chained bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for p in self.parts() {
            v.extend_from_slice(p);
        }
        v
    }

    fn push_part(&mut self, data: Bytes, raw: u32) {
        let contrib = if self.len.is_multiple_of(2) {
            u32::from(fold_sum(raw))
        } else {
            swap_sum(raw)
        };
        self.sum = u32::from(fold_sum(self.sum)) + contrib;
        self.len += data.len();
        if self.first.is_none() {
            self.first = Some(data);
        } else {
            self.rest.push(data);
        }
    }
}

/// Whether two sequences of parts spell the same bytes, wherever each
/// is cut: walks both a common run at a time with slice equality.
fn parts_eq<'a>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'a [u8]>,
) -> bool {
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some(p), Some(q)) => {
                let n = p.len().min(q.len());
                if p[..n] != q[..n] {
                    return false;
                }
                x = if n < p.len() { Some(&p[n..]) } else { a.next() };
                y = if n < q.len() { Some(&q[n..]) } else { b.next() };
            }
            (None, None) => return true,
            // One side ran out first: the lengths differ.
            _ => return false,
        }
    }
}

impl PartialEq for TakenBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && parts_eq(self.parts(), other.parts())
    }
}

impl Eq for TakenBytes {}

impl PartialEq<[u8]> for TakenBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && parts_eq(self.parts(), std::iter::once(other))
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for TakenBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self == other[..]
    }
}

/// A sparse byte buffer keyed by sequence number.
///
/// # Example
///
/// ```
/// use tcpfo_core::queues::ByteQueue;
///
/// // The bridge releases only bytes present contiguously from the
/// // next client-facing sequence number.
/// let mut q = ByteQueue::new();
/// q.insert(1000, b"he", 1000);
/// q.insert(1005, b"tail", 1000);        // a gap at 1002..1005
/// assert_eq!(q.contiguous_from(1000), 2);
/// q.insert(1002, b"llo", 1000);         // gap filled
/// assert_eq!(q.contiguous_from(1000), 9);
/// assert_eq!(q.take(1000, 9), b"hellotail");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ByteQueue {
    /// Sorted, non-overlapping chunks. Adjacent chunks are *not*
    /// physically merged — a contiguous run is a maximal series of
    /// chunks with `prev.end() == next.start`.
    chunks: Chunks,
    /// Maintained byte total, so [`ByteQueue::len`] is O(1).
    total: usize,
    /// Bytes that arrived twice with *different* contents — evidence of
    /// replica non-determinism, which the paper's §1 assumption rules
    /// out. Counted, never silently ignored.
    pub mismatched_bytes: u64,
}

impl ByteQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ByteQueue::default()
    }

    /// Total buffered bytes.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the queue holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.chunks().is_empty()
    }

    fn chunks(&self) -> &[Chunk] {
        self.chunks.as_slice()
    }

    /// Index of the first chunk whose end lies beyond `seq`.
    fn search(&self, seq: u32) -> usize {
        self.chunks().partition_point(|c| seq_le(c.end(), seq))
    }

    /// Inserts `data` at `seq`, discarding any portion below `floor`
    /// (bytes already released to the client). The queue keeps a
    /// refcounted slice of `data` — no copy. Overlaps with existing
    /// chunks are deduplicated; differing overlap content increments
    /// [`ByteQueue::mismatched_bytes`].
    pub fn insert(&mut self, seq: u32, data: impl Into<Bytes>, floor: u32) {
        let mut data = data.into();
        let mut seq = seq;
        if data.is_empty() {
            return;
        }
        if seq_lt(seq, floor) {
            let skip = seq_diff(floor, seq) as usize;
            if skip >= data.len() {
                return;
            }
            data = data.slice(skip..);
            seq = floor;
        }
        // Fast path (in-order arrival): strictly beyond everything
        // buffered. No clipping, no sort, no allocation beyond vector
        // growth.
        let fits_at_tail = match self.chunks().last() {
            None => true,
            Some(c) => seq_le(c.end(), seq),
        };
        if fits_at_tail {
            self.total += data.len();
            let sum = raw_sum(&data);
            self.chunks.push(Chunk {
                start: seq,
                data,
                sum,
            });
            return;
        }
        // Slow path: clip against each existing chunk, inserting only
        // fresh spans (still slices of `data`, never copies).
        let mut spans: Vec<(u32, Bytes)> = vec![(seq, data)];
        for c in self.chunks.as_slice() {
            let rstart = c.start;
            let rend = c.end();
            let mut next = Vec::new();
            for (s, d) in spans {
                let e = s.wrapping_add(d.len() as u32);
                // No overlap?
                if seq_le(e, rstart) || seq_le(rend, s) {
                    next.push((s, d));
                    continue;
                }
                // Verify overlapping content matches.
                let ov_start = if seq_lt(s, rstart) { rstart } else { s };
                let ov_end = if seq_lt(e, rend) { e } else { rend };
                let ov_len = seq_diff(ov_end, ov_start) as usize;
                let in_new = seq_diff(ov_start, s) as usize;
                let in_run = seq_diff(ov_start, rstart) as usize;
                let differing = d[in_new..in_new + ov_len]
                    .iter()
                    .zip(&c.data[in_run..in_run + ov_len])
                    .filter(|(a, b)| a != b)
                    .count();
                self.mismatched_bytes += differing as u64;
                // Keep the non-overlapping head/tail of the new span.
                if seq_lt(s, rstart) {
                    let head = seq_diff(rstart, s) as usize;
                    next.push((s, d.slice(..head)));
                }
                if seq_lt(rend, e) {
                    let tail = seq_diff(rend, s) as usize;
                    next.push((rend, d.slice(tail..)));
                }
            }
            spans = next;
            if spans.is_empty() {
                return;
            }
        }
        for (s, d) in spans {
            self.total += d.len();
            let sum = raw_sum(&d);
            self.chunks.push(Chunk {
                start: s,
                data: d,
                sum,
            });
        }
        self.chunks.as_mut_slice().sort_by(|a, b| {
            if a.start == b.start {
                std::cmp::Ordering::Equal
            } else if seq_lt(a.start, b.start) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
    }

    /// Length of the contiguous run starting exactly at `seq` (0 if the
    /// queue does not contain that byte).
    pub fn contiguous_from(&self, seq: u32) -> usize {
        let idx = self.search(seq);
        let Some(c) = self.chunks().get(idx) else {
            return 0;
        };
        if !seq_le(c.start, seq) {
            return 0;
        }
        let mut n = seq_diff(c.end(), seq) as usize;
        let mut end = c.end();
        for c in &self.chunks()[idx + 1..] {
            if c.start != end {
                break;
            }
            n += c.data.len();
            end = c.end();
        }
        n
    }

    /// Removes and returns `n` bytes starting at `seq`, as a chain of
    /// the same refcounted slices that were inserted (no copy). The
    /// chain carries the cached checksum sum of its content.
    ///
    /// # Panics
    ///
    /// Panics if the bytes are not present contiguously (callers gate
    /// on [`ByteQueue::contiguous_from`]).
    pub fn take(&mut self, seq: u32, n: usize) -> TakenBytes {
        assert!(
            n > 0 && self.contiguous_from(seq) >= n,
            "take of absent bytes"
        );
        let idx = self.search(seq);
        let chunks = self.chunks.as_mut_slice();
        debug_assert_eq!(
            chunks[idx].start, seq,
            "take must start at a chunk head after floor discipline"
        );
        // Count whole chunks consumed; pre-split a trailing partial one.
        let mut whole = 0usize;
        let mut acc = 0usize;
        while acc < n {
            let clen = chunks[idx + whole].data.len();
            if acc + clen > n {
                break;
            }
            acc += clen;
            whole += 1;
        }
        let mut split: Option<(Bytes, u32)> = None;
        if acc < n {
            let need = n - acc;
            let c = &mut chunks[idx + whole];
            let part = c.data.slice(..need);
            let part_sum = raw_sum(&part);
            // Derive the remainder's sum from the cached whole-chunk
            // sum (RFC 1624 algebra) instead of rescanning it. An odd
            // split shifts the remainder's byte-pair alignment, which
            // swaps the bytes of its one's-complement sum.
            let rem = sub_sum(c.sum, part_sum);
            c.sum = if need % 2 == 1 {
                swap_sum(rem)
            } else {
                u32::from(fold_sum(rem))
            };
            c.data = c.data.slice(need..);
            c.start = c.start.wrapping_add(need as u32);
            split = Some((part, part_sum));
        }
        let mut out = TakenBytes::empty();
        self.chunks
            .remove(idx..idx + whole, |c| out.push_part(c.data, c.sum));
        if let Some((part, part_sum)) = split {
            out.push_part(part, part_sum);
        }
        self.total -= n;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Folds `raw` into a nonzero base so congruent one's-complement
    /// sums (0 vs 0xffff) compare equal.
    fn contrib(raw: u32) -> u16 {
        fold_sum(0x1234 + u32::from(fold_sum(raw)))
    }

    #[test]
    fn insert_and_take_in_order() {
        let mut q = ByteQueue::new();
        q.insert(100, b"abcd", 100);
        assert_eq!(q.contiguous_from(100), 4);
        assert_eq!(q.take(100, 2), b"ab");
        assert_eq!(q.contiguous_from(102), 2);
        assert_eq!(q.take(102, 2), b"cd");
        assert!(q.is_empty());
    }

    #[test]
    fn floor_discards_already_sent() {
        let mut q = ByteQueue::new();
        q.insert(100, b"abcdef", 103);
        assert_eq!(q.contiguous_from(100), 0);
        assert_eq!(q.contiguous_from(103), 3);
        assert_eq!(q.take(103, 3), b"def");
        // Entirely below floor: no-op.
        q.insert(50, b"zz", 103);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_insert_ignored() {
        // "In case the bridge receives P's copy first, it finds m in
        // P's queue and discards the second copy" (§4).
        let mut q = ByteQueue::new();
        q.insert(10, b"hello", 10);
        q.insert(10, b"hello", 10);
        assert_eq!(q.len(), 5);
        assert_eq!(q.mismatched_bytes, 0);
    }

    #[test]
    fn overlapping_extension_coalesces() {
        let mut q = ByteQueue::new();
        q.insert(10, b"abc", 10);
        q.insert(12, b"cde", 10); // overlaps 1 byte, extends 2
        assert_eq!(q.contiguous_from(10), 5);
        assert_eq!(q.take(10, 5), b"abcde");
    }

    #[test]
    fn gap_then_fill() {
        let mut q = ByteQueue::new();
        q.insert(20, b"late", 10);
        assert_eq!(q.contiguous_from(10), 0);
        q.insert(10, b"0123456789", 10);
        assert_eq!(q.contiguous_from(10), 14);
    }

    #[test]
    fn mismatch_detected() {
        let mut q = ByteQueue::new();
        q.insert(10, b"aaaa", 10);
        q.insert(10, b"aaXa", 10);
        assert_eq!(q.mismatched_bytes, 1, "one byte differs");
        // Original content is kept.
        assert_eq!(q.take(10, 4), b"aaaa");
    }

    #[test]
    fn wrapping_sequence_space() {
        let start = u32::MAX - 2;
        let mut q = ByteQueue::new();
        q.insert(start, b"abcdef", start);
        assert_eq!(q.contiguous_from(start), 6);
        assert_eq!(q.take(start, 4), b"abcd");
        assert_eq!(q.contiguous_from(1), 2);
    }

    #[test]
    fn insert_keeps_slice_without_copy() {
        let seg = Bytes::from(b"0123456789".to_vec());
        let payload = seg.slice(4..);
        let mut q = ByteQueue::new();
        q.insert(100, payload, 100);
        let taken = q.take(100, 6);
        let parts: Vec<&[u8]> = taken.parts().collect();
        // Same backing storage: the slice views the original segment.
        assert_eq!(parts, [&seg[4..]]);
        assert_eq!(parts[0].as_ptr(), seg[4..].as_ptr());
    }

    #[test]
    fn take_sum_matches_content_across_chunks() {
        let mut q = ByteQueue::new();
        q.insert(10, b"abc", 10);
        q.insert(13, b"defgh", 10);
        q.insert(18, b"i", 10);
        let taken = q.take(10, 7); // "abc" + "defg" (split "defgh")
        assert_eq!(taken, b"abcdefg");
        assert_eq!(contrib(taken.sum()), contrib(raw_sum(b"abcdefg")));
        let rest = q.take(17, 2); // remainder of split + "i"
        assert_eq!(rest, b"hi");
        assert_eq!(contrib(rest.sum()), contrib(raw_sum(b"hi")));
    }

    #[test]
    fn len_is_maintained_total() {
        let mut q = ByteQueue::new();
        q.insert(10, b"abc", 10);
        q.insert(20, b"xyz", 10);
        assert_eq!(q.len(), 6);
        q.take(10, 2);
        assert_eq!(q.len(), 4);
    }

    /// The chain `take` hands out when `bytes` arrived cut at `cuts`.
    fn taken(bytes: &[u8], cuts: &[usize]) -> TakenBytes {
        let mut q = ByteQueue::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            q.insert(from as u32, bytes[from..to].to_vec(), 0);
            from = to;
        }
        q.take(0, bytes.len())
    }

    #[test]
    fn taken_bytes_compare_by_content_not_by_cut() {
        let bytes: Vec<u8> = (0..100).collect();
        let whole = taken(&bytes, &[]);
        let three = taken(&bytes, &[1, 60]);
        let four = taken(&bytes, &[33, 34, 99]);
        assert_eq!(three.parts().count(), 3);
        for (a, b) in [(&whole, &three), (&three, &four), (&four, &whole)] {
            assert_eq!(a, b);
            assert_eq!(b, a);
            assert_eq!(*a, bytes[..]);
        }
        // One flipped byte: first, last, and on either side of a cut.
        for flip in [0, 32, 33, 34, 59, 60, 99] {
            let mut other = bytes.clone();
            other[flip] ^= 0x40;
            assert_ne!(taken(&other, &[1, 60]), four, "byte {flip}");
            assert_ne!(four, taken(&other, &[]), "byte {flip}");
            assert_ne!(four, other[..], "byte {flip}");
        }
        // One byte shorter or longer, the common prefix equal.
        assert_ne!(taken(&bytes[..99], &[33, 34]), four);
        assert_ne!(four, taken(&bytes[..99], &[33, 34]));
        assert_ne!(four, bytes[..99]);
        assert_eq!(TakenBytes::empty(), TakenBytes::empty());
        assert_ne!(TakenBytes::empty(), taken(&bytes[..1], &[]));
    }

    /// A naive reference model: one cell per sequence number.
    struct Model {
        base: u32,
        cells: Vec<Option<u8>>,
    }

    impl Model {
        fn new(base: u32) -> Self {
            Model {
                base,
                cells: Vec::new(),
            }
        }

        fn off(&self, seq: u32) -> usize {
            seq_diff(seq, self.base) as usize
        }

        fn insert(&mut self, seq: u32, data: &[u8], floor: u32) {
            for (i, &b) in data.iter().enumerate() {
                let s = seq.wrapping_add(i as u32);
                if seq_lt(s, floor) {
                    continue;
                }
                let o = self.off(s);
                if self.cells.len() <= o {
                    self.cells.resize(o + 1, None);
                }
                if self.cells[o].is_none() {
                    self.cells[o] = Some(b);
                }
            }
        }

        fn contiguous_from(&self, seq: u32) -> usize {
            let mut o = self.off(seq);
            let mut n = 0;
            while o < self.cells.len() && self.cells[o].is_some() {
                n += 1;
                o += 1;
            }
            n
        }

        fn take(&mut self, seq: u32, n: usize) -> Vec<u8> {
            let o = self.off(seq);
            (o..o + n)
                .map(|i| self.cells[i].take().expect("model take of absent byte"))
                .collect()
        }

        fn len(&self) -> usize {
            self.cells.iter().filter(|c| c.is_some()).count()
        }
    }

    proptest! {
        /// Whatever the fragmentation, the queue releases the original
        /// stream exactly once, in order.
        #[test]
        fn prop_release_equals_stream(
            base in any::<u32>(),
            len in 1usize..300,
            frags in proptest::collection::vec((0usize..30, 1usize..50), 1..40),
        ) {
            let stream: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut q = ByteQueue::new();
            let mut floor = base;
            let mut released = Vec::new();
            for (off_factor, flen) in frags {
                let off = (off_factor * 13) % len;
                let end = (off + flen).min(len);
                q.insert(base.wrapping_add(off as u32), stream[off..end].to_vec(), floor);
                // Release whatever became contiguous.
                let n = q.contiguous_from(floor);
                if n > 0 {
                    released.extend(q.take(floor, n).to_vec());
                    floor = floor.wrapping_add(n as u32);
                }
            }
            // Feed remaining sequentially to finish.
            let mut off = 0usize;
            while off < len {
                let end = (off + 11).min(len);
                q.insert(base.wrapping_add(off as u32), stream[off..end].to_vec(), floor);
                let n = q.contiguous_from(floor);
                if n > 0 {
                    released.extend(q.take(floor, n).to_vec());
                    floor = floor.wrapping_add(n as u32);
                }
                off = end;
            }
            prop_assert_eq!(q.mismatched_bytes, 0);
            prop_assert_eq!(released, stream);
        }

        /// Chain equality is `to_vec()` equality, whatever the cuts.
        #[test]
        fn prop_taken_bytes_eq_is_to_vec_eq(
            bytes in proptest::collection::vec(any::<u8>(), 1..200),
            cuts_a in proptest::collection::vec(1usize..200, 0..6),
            cuts_b in proptest::collection::vec(1usize..200, 0..6),
            flip in proptest::option::of(0usize..200),
            shorter in any::<bool>(),
        ) {
            let cuts = |mut c: Vec<usize>, len: usize| {
                c.retain(|&x| x < len);
                c.sort_unstable();
                c.dedup();
                c
            };
            let mut other = bytes.clone();
            if let Some(i) = flip {
                other[i % bytes.len()] ^= 1;
            }
            if shorter && other.len() > 1 {
                other.pop();
            }
            let a = taken(&bytes, &cuts(cuts_a, bytes.len()));
            let b = taken(&other, &cuts(cuts_b, other.len()));
            prop_assert_eq!(a == b, a.to_vec() == b.to_vec());
            prop_assert_eq!(b == a, a.to_vec() == b.to_vec());
            prop_assert_eq!(a == other[..], a.to_vec() == other);
        }

        /// The rope agrees with a naive cell-per-byte reference model
        /// under random insert / take interleavings, including
        /// wrap-around sequence numbers, and every take's cached sum is
        /// congruent to its content's checksum sum.
        #[test]
        fn prop_rope_matches_reference_model(
            base in any::<u32>(),
            ops in proptest::collection::vec(
                (0u8..2, 0usize..200, 1usize..40),
                1..60,
            ),
        ) {
            let mut q = ByteQueue::new();
            let mut m = Model::new(base);
            let mut floor = base;
            for (kind, off, arg) in ops {
                match kind {
                    // Insert a fragment of the canonical stream.
                    0 => {
                        let data: Vec<u8> =
                            (off..off + arg).map(|i| (i * 37 % 253) as u8).collect();
                        let seq = base.wrapping_add(off as u32);
                        q.insert(seq, data.clone(), floor);
                        m.insert(seq, &data, floor);
                    }
                    // Take part of what is contiguous at the floor.
                    _ => {
                        let avail = q.contiguous_from(floor);
                        prop_assert_eq!(avail, m.contiguous_from(floor));
                        if avail > 0 {
                            let k = arg.min(avail);
                            let got = q.take(floor, k);
                            let want = m.take(floor, k);
                            prop_assert_eq!(&got, &want[..]);
                            prop_assert_eq!(
                                contrib(got.sum()),
                                contrib(raw_sum(&want)),
                                "cached sum must match content sum"
                            );
                            floor = floor.wrapping_add(k as u32);
                        }
                    }
                }
                prop_assert_eq!(q.len(), m.len());
                prop_assert_eq!(q.mismatched_bytes, 0);
            }
        }
    }
}
