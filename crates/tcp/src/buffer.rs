//! Send and receive buffers.
//!
//! [`SendBuffer`] holds the unacknowledged-plus-unsent byte stream
//! (`send` returns when bytes are accepted here — the paper points at
//! this exact behaviour to explain the knee in Fig. 3). [`RecvBuffer`]
//! reassembles possibly out-of-order segments into the in-order stream
//! the application reads, and its free space bounds the advertised
//! window.

use crate::seq::{seq_diff, seq_le, seq_lt};
use std::collections::VecDeque;

/// The `len` bytes starting `off` bytes into `ring`, as at most two
/// slices, since the ring's storage wraps at most once.
fn range_slices(ring: &VecDeque<u8>, off: usize, len: usize) -> (&[u8], &[u8]) {
    let (front, back) = ring.as_slices();
    if off < front.len() {
        let n = len.min(front.len() - off);
        (&front[off..off + n], &back[..len - n])
    } else {
        let off = off - front.len();
        (&back[off..off + len], &[])
    }
}

/// Ring of bytes awaiting acknowledgment, addressed by sequence number.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// Sequence number of `data[0]` (== SND.UNA while in sync).
    base: u32,
    data: VecDeque<u8>,
    capacity: usize,
}

impl SendBuffer {
    /// Creates an empty buffer whose first byte will carry `base`.
    pub fn new(base: u32, capacity: usize) -> Self {
        SendBuffer {
            base,
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Sequence number of the first buffered (= oldest unacknowledged)
    /// byte.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Sequence number one past the last buffered byte.
    pub fn end_seq(&self) -> u32 {
        self.base.wrapping_add(self.data.len() as u32)
    }

    /// Buffered byte count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Remaining capacity.
    pub fn free(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// Appends as much of `bytes` as fits; returns the count accepted.
    pub fn write(&mut self, bytes: &[u8]) -> usize {
        let n = bytes.len().min(self.free());
        self.data.extend(&bytes[..n]);
        n
    }

    /// The `len` bytes starting at sequence number `seq`, as the one or
    /// two runs the ring holds them in (for transmission or
    /// retransmission: the encoder copies them into the segment).
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully buffered.
    pub fn slices(&self, seq: u32, len: usize) -> (&[u8], &[u8]) {
        let off = seq_diff(seq, self.base);
        assert!(off >= 0, "slice before SND.UNA");
        let off = off as usize;
        assert!(off + len <= self.data.len(), "slice past buffered data");
        range_slices(&self.data, off, len)
    }

    /// Discards bytes acknowledged up to (not including) `ack`.
    /// Returns the number of bytes released. Acks at or before `base`
    /// are no-ops; acks beyond the buffered data release everything.
    pub fn ack_to(&mut self, ack: u32) -> usize {
        if seq_le(ack, self.base) {
            return 0;
        }
        let n = (seq_diff(ack, self.base) as usize).min(self.data.len());
        self.data.drain(..n);
        self.base = self.base.wrapping_add(n as u32);
        n
    }
}

/// One out-of-order fragment held for reassembly.
#[derive(Debug, Clone)]
struct OooSegment {
    seq: u32,
    data: Vec<u8>,
}

/// Reassembly buffer for the receive side.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Next expected sequence number (RCV.NXT for the data stream).
    next_seq: u32,
    /// In-order bytes the application may read.
    ready: VecDeque<u8>,
    /// Out-of-order fragments, kept sorted by sequence, non-overlapping
    /// with `[next_seq, …)` handled lazily at drain time.
    ooo: Vec<OooSegment>,
    capacity: usize,
}

impl RecvBuffer {
    /// Creates a buffer expecting `next_seq` first.
    pub fn new(next_seq: u32, capacity: usize) -> Self {
        RecvBuffer {
            next_seq,
            ready: VecDeque::new(),
            ooo: Vec::new(),
            capacity,
        }
    }

    /// Next expected in-order sequence number.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Bytes available for the application to read.
    pub fn available(&self) -> usize {
        self.ready.len()
    }

    /// Free space (bounds the advertised window). Out-of-order bytes
    /// are charged to a *separate* reassembly budget, not the window —
    /// otherwise every out-of-order arrival would change the advertised
    /// window and defeat the sender's duplicate-ACK counting.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.ready.len())
    }

    fn ooo_budget(&self) -> usize {
        let used: usize = self.ooo.iter().map(|s| s.data.len()).sum();
        self.capacity.saturating_sub(used)
    }

    /// Whether any out-of-order data is parked (a hole exists).
    pub fn has_holes(&self) -> bool {
        !self.ooo.is_empty()
    }

    /// Inserts segment payload starting at `seq`. Duplicate and
    /// already-received bytes are discarded; bytes beyond the window
    /// are truncated. Returns `true` if `next_seq` advanced.
    pub fn insert(&mut self, mut seq: u32, mut data: &[u8]) -> bool {
        // Trim the prefix that was already received.
        if seq_lt(seq, self.next_seq) {
            let skip = seq_diff(self.next_seq, seq) as usize;
            if skip >= data.len() {
                return false;
            }
            data = &data[skip..];
            seq = self.next_seq;
        }
        // Refuse fragments that start beyond any window we could have
        // advertised (segments are window-checked upstream; be safe).
        let offset = seq_diff(seq, self.next_seq);
        if offset < 0 || offset as usize > self.capacity {
            return false;
        }
        if data.is_empty() {
            return false;
        }
        if seq == self.next_seq {
            let take = data.len().min(self.free());
            self.ready.extend(&data[..take]);
            self.next_seq = self.next_seq.wrapping_add(take as u32);
            self.drain_ooo();
            true
        } else {
            self.stash_ooo(seq, data);
            false
        }
    }

    fn stash_ooo(&mut self, seq: u32, data: &[u8]) {
        // Bound memory: drop if no space (sender will retransmit).
        let budget = self.ooo_budget();
        if budget == 0 {
            return;
        }
        let take = data.len().min(budget);
        self.ooo.push(OooSegment {
            seq,
            data: data[..take].to_vec(),
        });
        self.ooo.sort_by(|a, b| {
            if a.seq == b.seq {
                std::cmp::Ordering::Equal
            } else if seq_lt(a.seq, b.seq) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
    }

    fn drain_ooo(&mut self) {
        loop {
            let mut advanced = false;
            let mut remaining = Vec::new();
            for seg in std::mem::take(&mut self.ooo) {
                let end = seg.seq.wrapping_add(seg.data.len() as u32);
                if seq_le(end, self.next_seq) {
                    continue; // fully duplicate
                }
                if seq_le(seg.seq, self.next_seq) {
                    let skip = seq_diff(self.next_seq, seg.seq) as usize;
                    let fresh = &seg.data[skip..];
                    let take = fresh.len().min(self.free());
                    self.ready.extend(&fresh[..take]);
                    self.next_seq = self.next_seq.wrapping_add(take as u32);
                    advanced = take > 0;
                } else {
                    remaining.push(seg);
                }
            }
            self.ooo = remaining;
            if !advanced {
                break;
            }
        }
    }

    /// Reads up to `max` in-order bytes for the application.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.ready.len());
        let (head, tail) = range_slices(&self.ready, 0, n);
        let out = [head, tail].concat();
        self.ready.drain(..n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod send {
        use super::*;

        impl SendBuffer {
            /// The range `slices` names, joined.
            pub(crate) fn slice(&self, seq: u32, len: usize) -> Vec<u8> {
                let (a, b) = self.slices(seq, len);
                [a, b].concat()
            }
        }

        #[test]
        fn write_respects_capacity() {
            let mut b = SendBuffer::new(100, 8);
            assert_eq!(b.write(&[1, 2, 3, 4, 5]), 5);
            assert_eq!(b.write(&[6, 7, 8, 9, 10]), 3);
            assert_eq!(b.len(), 8);
            assert_eq!(b.free(), 0);
            assert_eq!(b.end_seq(), 108);
        }

        #[test]
        fn slice_addresses_by_seq() {
            let mut b = SendBuffer::new(1000, 64);
            b.write(b"abcdefgh");
            assert_eq!(b.slice(1000, 3), b"abc");
            assert_eq!(b.slice(1004, 4), b"efgh");
        }

        #[test]
        fn ack_releases_and_rebases() {
            let mut b = SendBuffer::new(1000, 64);
            b.write(b"abcdefgh");
            assert_eq!(b.ack_to(1003), 3);
            assert_eq!(b.base(), 1003);
            assert_eq!(b.slice(1003, 2), b"de");
            // Old ack ignored.
            assert_eq!(b.ack_to(1000), 0);
            // Over-ack releases everything that exists.
            assert_eq!(b.ack_to(2000), 5);
            assert!(b.is_empty());
        }

        #[test]
        fn wrapping_base() {
            let mut b = SendBuffer::new(u32::MAX - 2, 64);
            b.write(b"abcdef");
            assert_eq!(b.end_seq(), 3); // wrapped
            assert_eq!(b.slice(u32::MAX, 2), b"cd"); // bytes at offset 2..4
            assert_eq!(b.ack_to(1), 4);
            assert_eq!(b.base(), 1);
            assert_eq!(b.slice(1, 2), b"ef");
        }

        /// A full 64-byte ring whose storage has wrapped: stream bytes
        /// 40..104, the first 24 before the seam and 40 after it.
        fn wrapped() -> SendBuffer {
            let stream: Vec<u8> = (0..104).collect();
            let mut b = SendBuffer::new(0, 64);
            assert_eq!(b.write(&stream[..64]), 64);
            assert_eq!(b.ack_to(40), 40);
            assert_eq!(b.write(&stream[64..]), 40);
            let (front, back) = b.data.as_slices();
            assert_eq!((front.len(), back.len()), (24, 40), "ring must wrap");
            b
        }

        #[test]
        fn slice_inside_the_first_half() {
            assert_eq!(wrapped().slice(45, 10), (45..55).collect::<Vec<u8>>());
            assert_eq!(wrapped().slice(40, 24), (40..64).collect::<Vec<u8>>());
        }

        #[test]
        fn slice_inside_the_second_half() {
            assert_eq!(wrapped().slice(64, 40), (64..104).collect::<Vec<u8>>());
            assert_eq!(wrapped().slice(70, 5), (70..75).collect::<Vec<u8>>());
            assert_eq!(wrapped().slice(104, 0), b"");
        }

        #[test]
        fn slice_across_the_seam() {
            assert_eq!(wrapped().slice(60, 10), (60..70).collect::<Vec<u8>>());
            assert_eq!(wrapped().slice(40, 64), (40..104).collect::<Vec<u8>>());
            assert_eq!(wrapped().slice(63, 2), [63, 64]);
        }

        #[test]
        fn slices_split_only_at_the_seam() {
            let b = wrapped();
            assert_eq!(b.slices(60, 10).0, [60, 61, 62, 63]);
            assert_eq!(b.slices(60, 10).1, (64..70).collect::<Vec<u8>>());
            assert!(b.slices(45, 10).1.is_empty());
            assert!(b.slices(70, 5).1.is_empty());
        }

        #[test]
        #[should_panic(expected = "slice past buffered data")]
        fn slice_past_end_panics() {
            let mut b = SendBuffer::new(0, 16);
            b.write(b"ab");
            let _ = b.slice(0, 5);
        }
    }

    mod recv {
        use super::*;

        #[test]
        fn in_order_delivery() {
            let mut b = RecvBuffer::new(500, 64);
            assert!(b.insert(500, b"hello"));
            assert_eq!(b.next_seq(), 505);
            assert_eq!(b.read(64), b"hello");
            assert!(b.insert(505, b" world"));
            assert_eq!(b.read(3), b" wo");
            assert_eq!(b.read(64), b"rld");
        }

        #[test]
        fn out_of_order_reassembly() {
            let mut b = RecvBuffer::new(0, 64);
            assert!(!b.insert(5, b"fghij")); // hole at 0..5
            assert!(b.has_holes());
            assert!(b.insert(0, b"abcde"));
            assert!(!b.has_holes());
            assert_eq!(b.next_seq(), 10);
            assert_eq!(b.read(64), b"abcdefghij");
        }

        #[test]
        fn duplicate_and_overlap_trimmed() {
            let mut b = RecvBuffer::new(0, 64);
            b.insert(0, b"abcd");
            // Retransmission overlapping received data.
            assert!(b.insert(2, b"cdEF"));
            assert_eq!(b.read(64), b"abcdEF");
            // Pure duplicate.
            assert!(!b.insert(0, b"abcd"));
            assert_eq!(b.available(), 0);
        }

        #[test]
        fn overlapping_ooo_fragments() {
            let mut b = RecvBuffer::new(0, 64);
            b.insert(4, b"eeff");
            b.insert(6, b"ffgg"); // overlaps previous
            b.insert(0, b"aabb");
            assert_eq!(b.next_seq(), 10);
            assert_eq!(b.read(64), b"aabbeeffgg");
        }

        #[test]
        fn ooo_bytes_do_not_shrink_the_window() {
            let mut b = RecvBuffer::new(0, 10);
            b.insert(5, b"xx");
            assert_eq!(b.free(), 10, "reassembly space is separate");
            b.insert(0, b"aaaaa");
            assert_eq!(b.available(), 7);
            assert_eq!(b.free(), 3);
        }

        #[test]
        fn capacity_enforced_on_ready() {
            let mut b = RecvBuffer::new(0, 4);
            assert!(b.insert(0, b"abcdefgh"));
            assert_eq!(b.available(), 4);
            assert_eq!(b.next_seq(), 4, "only accepted bytes are acked");
            assert_eq!(b.read(64), b"abcd");
        }

        #[test]
        fn wrapping_sequence_numbers() {
            let start = u32::MAX - 3;
            let mut b = RecvBuffer::new(start, 64);
            assert!(!b.insert(2, b"gh")); // post-wrap fragment
            assert!(b.insert(start, b"abcdef")); // crosses the wrap
            assert_eq!(b.next_seq(), 4);
            assert_eq!(b.read(64), b"abcdefgh");
        }

        #[test]
        fn read_across_the_seam() {
            let stream: Vec<u8> = (0..104).collect();
            let mut b = RecvBuffer::new(0, 64);
            assert!(b.insert(0, &stream[..64]));
            assert_eq!(b.read(40), &stream[..40]);
            assert!(b.insert(64, &stream[64..]));
            let (front, back) = b.ready.as_slices();
            assert_eq!((front.len(), back.len()), (24, 40), "ring must wrap");
            assert_eq!(b.read(10), &stream[40..50], "inside the first half");
            assert_eq!(b.read(20), &stream[50..70], "across the seam");
            assert_eq!(b.read(usize::MAX), &stream[70..], "inside the second half");
            assert_eq!(b.available(), 0);
        }

        #[test]
        fn multiple_holes_fill_in_any_order() {
            let mut b = RecvBuffer::new(0, 128);
            b.insert(10, b"cc");
            b.insert(20, b"ee");
            b.insert(5, b"bb");
            assert_eq!(b.next_seq(), 0);
            b.insert(0, b"aaaaa");
            // aaaaa fills 0..5, bb drains to fill 5..7, hole at 7..10.
            assert_eq!(b.next_seq(), 7);
            assert_eq!(b.read(64), b"aaaaabb");
            b.insert(7, b"xxx");
            assert_eq!(b.next_seq(), 12);
            assert_eq!(b.read(64), b"xxxcc");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Feeding a stream's segments in any order with arbitrary
            /// duplication reassembles exactly the original stream.
            #[test]
            fn prop_reassembly_is_exact(
                len in 1usize..400,
                start in any::<u32>(),
                order in proptest::collection::vec((0usize..20, 1usize..40), 1..60),
            ) {
                let stream: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let mut b = RecvBuffer::new(start, 4096);
                // Deliver pseudo-random (offset, len) chunks, repeating
                // until a final sequential pass guarantees completion.
                for (frag_off, frag_len) in order {
                    let off = (frag_off * 23) % len;
                    let end = (off + frag_len).min(len);
                    b.insert(start.wrapping_add(off as u32), &stream[off..end]);
                }
                // Sequential pass to fill any remaining holes.
                let mut off = 0;
                while off < len {
                    let end = (off + 7).min(len);
                    b.insert(start.wrapping_add(off as u32), &stream[off..end]);
                    off = end;
                }
                prop_assert_eq!(b.next_seq(), start.wrapping_add(len as u32));
                prop_assert_eq!(b.read(usize::MAX), stream);
            }

            /// A 64-byte send ring under interleaved `write` / `ack_to`
            /// / `slice`, long enough that its storage wraps many
            /// times, always agrees with a plain `Vec` of the
            /// unacknowledged bytes.
            #[test]
            fn prop_send_ring_matches_shadow(
                base in any::<u32>(),
                ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..65), 200..400),
            ) {
                let mut b = SendBuffer::new(base, 64);
                let mut shadow: Vec<u8> = Vec::new();
                let (mut written, mut acked) = (0usize, 0usize);
                for (kind, x, y) in ops {
                    match kind {
                        0 => {
                            let data: Vec<u8> =
                                (written..written + x + 1).map(|i| (i % 251) as u8).collect();
                            let n = b.write(&data);
                            prop_assert_eq!(n, data.len().min(64 - shadow.len()));
                            shadow.extend_from_slice(&data[..n]);
                            written += n;
                        }
                        1 => {
                            let n = x % (shadow.len() + 1);
                            let ack = b.base().wrapping_add(n as u32);
                            prop_assert_eq!(b.ack_to(ack), n);
                            shadow.drain(..n);
                            acked += n;
                        }
                        _ => {
                            let off = x % (shadow.len() + 1);
                            let len = y % (shadow.len() - off + 1);
                            let seq = b.base().wrapping_add(off as u32);
                            prop_assert_eq!(&b.slice(seq, len)[..], &shadow[off..off + len]);
                        }
                    }
                    prop_assert_eq!(b.len(), shadow.len());
                    prop_assert_eq!(b.base(), base.wrapping_add(acked as u32));
                }
                prop_assert_eq!(b.slice(b.base(), shadow.len()), shadow);
            }

            /// The same for the receive ring under in-order `insert`
            /// and bounded `read`.
            #[test]
            fn prop_recv_ring_matches_shadow(
                start in any::<u32>(),
                ops in proptest::collection::vec((0u8..2, 0usize..64), 200..400),
            ) {
                let mut b = RecvBuffer::new(start, 64);
                let mut shadow: Vec<u8> = Vec::new();
                let mut received = 0usize;
                for (kind, x) in ops {
                    if kind == 0 {
                        let data: Vec<u8> =
                            (received..received + x + 1).map(|i| (i % 251) as u8).collect();
                        let take = data.len().min(64 - shadow.len());
                        b.insert(start.wrapping_add(received as u32), &data);
                        shadow.extend_from_slice(&data[..take]);
                        received += take;
                    } else {
                        let n = x.min(shadow.len());
                        prop_assert_eq!(b.read(x), shadow.drain(..n).collect::<Vec<u8>>());
                    }
                    prop_assert_eq!(b.available(), shadow.len());
                    prop_assert_eq!(b.next_seq(), start.wrapping_add(received as u32));
                }
                prop_assert_eq!(b.read(usize::MAX), shadow);
            }

            /// SendBuffer: ack_to never over-releases and slice returns
            /// the bytes that were written.
            #[test]
            fn prop_send_buffer_integrity(
                base in any::<u32>(),
                writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..50), 1..10),
                ack_step in 1u32..40,
            ) {
                let mut b = SendBuffer::new(base, 4096);
                let mut shadow: Vec<u8> = Vec::new();
                for w in &writes {
                    let n = b.write(w);
                    shadow.extend_from_slice(&w[..n]);
                }
                prop_assert_eq!(b.len(), shadow.len());
                if !shadow.is_empty() {
                    let got = b.slice(base, shadow.len());
                    prop_assert_eq!(&got, &shadow);
                }
                let ack = base.wrapping_add(ack_step.min(shadow.len() as u32));
                let released = b.ack_to(ack);
                prop_assert_eq!(released, ack_step.min(shadow.len() as u32) as usize);
                if released < shadow.len() {
                    let got = b.slice(ack, shadow.len() - released);
                    prop_assert_eq!(&got, &shadow[released..]);
                }
            }
        }
    }
}
