//! Internet checksums (RFC 1071) and incremental updates (RFC 1624).
//!
//! The paper's bridges rewrite addresses and sequence/acknowledgment
//! numbers inside TCP segments as they pass the TCP/IP boundary. §3.1:
//! *"it is not necessary to recompute the checksum from scratch. Instead,
//! we subtract the original bytes from the checksum, and add the new
//! bytes to the checksum."* [`ChecksumDelta`] implements exactly that,
//! using the `HC' = ~(~HC + ~m + m')` formulation of RFC 1624 which is
//! correct even in the `0xffff` corner cases that tripped up RFC 1141.

/// Accumulates the ones-complement sum of a byte stream.
///
/// Feed any number of byte slices (odd lengths are handled by virtual
/// zero padding of the *final* partial word of each slice, so callers
/// must only split input at even offsets — the layered encoders in this
/// crate always do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an accumulator with an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a big-endian 16-bit word to the sum.
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Adds a 32-bit value as two 16-bit big-endian words.
    pub fn add_u32(&mut self, value: u32) {
        self.add_u16((value >> 16) as u16);
        self.add_u16(value as u16);
    }

    /// Adds a byte slice; an odd final byte is padded with zero.
    ///
    /// Eight bytes at a step, as RFC 1071 §2 allows: the native-order
    /// 32-bit halves of each 8-byte word go into a 64-bit accumulator
    /// whose carries are deferred, the total folds once to 16 bits, and
    /// one byte swap turns the native-order sum into the big-endian one
    /// (§2(B): the sum is byte-order independent up to that swap).
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut acc = 0u64;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
            acc += (v & 0xffff_ffff) + (v >> 32);
        }
        // The tail starts at an even offset, so its 4- and 2-byte steps
        // and the odd last byte, zero-padded, keep every byte at its
        // weight.
        let mut rest = words.remainder();
        if let Some((w, more)) = rest.split_first_chunk::<4>() {
            acc += u64::from(u32::from_ne_bytes(*w));
            rest = more;
        }
        if let Some((w, more)) = rest.split_first_chunk::<2>() {
            acc += u64::from(u16::from_ne_bytes(*w));
            rest = more;
        }
        if let [last] = rest {
            acc += u64::from(u16::from_ne_bytes([*last, 0]));
        }
        // Each step added less than 2^33, so `acc` cannot overflow below
        // 2^31 words. 2^16 ≡ 1 (mod 0xffff): the fold keeps the residue
        // and a nonzero sum stays nonzero, as the 16-bit loop's would.
        while acc >> 16 != 0 {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        self.sum += u32::from(u16::from_be(acc as u16));
    }

    /// Adds a raw unfolded accumulator (as returned by [`raw_sum`] or
    /// [`Checksum::raw`]) to the sum.
    pub fn add_raw(&mut self, acc: u32) {
        self.sum += u32::from(fold_sum(acc));
    }

    /// The unfolded accumulator — a position-independent partial sum
    /// that can be cached and later combined with [`Checksum::add_raw`],
    /// [`sub_sum`] and [`swap_sum`].
    pub fn raw(&self) -> u32 {
        self.sum
    }

    /// Folds the accumulated sum and returns the ones-complement
    /// checksum, as stored in protocol headers.
    pub fn finish(self) -> u16 {
        !fold_sum(self.sum)
    }
}

/// Ones-complement sum of `bytes` as if placed at an *even* offset in
/// the checksummed stream (odd final byte padded with zero), returned
/// unfolded. This is the cacheable per-chunk quantity the output queues
/// store so that segment emission never re-scans payload bytes.
pub fn raw_sum(bytes: &[u8]) -> u32 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.raw()
}

/// Folds an unfolded accumulator into its 16-bit ones-complement sum
/// (without the final complement).
pub fn fold_sum(acc: u32) -> u16 {
    let mut sum = acc;
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Converts an even-offset sum into the sum of the same bytes placed at
/// an *odd* offset (and vice versa — the operation is an involution).
///
/// Ones-complement addition is byte-order symmetric: shifting a byte
/// stream by one byte swaps the two bytes of its 16-bit sum. The output
/// queues use this to combine cached chunk sums across chunks of odd
/// length.
pub fn swap_sum(acc: u32) -> u32 {
    u32::from(fold_sum(acc).swap_bytes())
}

/// Ones-complement subtraction: the sum of a byte range with the sum of
/// a sub-range removed (`whole = part ⊕ rest ⟹ rest = sub_sum(whole,
/// part)`). Both inputs and the result are even-offset sums, so when
/// the removed prefix has odd length the caller must [`swap_sum`] the
/// result to re-align the remainder.
pub fn sub_sum(whole: u32, part: u32) -> u32 {
    u32::from(fold_sum(whole)) + u32::from(!fold_sum(part))
}

/// Computes the RFC 1071 checksum of `bytes` in one call.
///
/// The checksum field itself must be zeroed (or excluded) by the caller,
/// as protocol specifications require.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Incremental checksum update per RFC 1624 (equation 3).
///
/// Record every 16-bit (or 32-bit) field you overwrite with
/// [`ChecksumDelta::replace_u16`] / [`ChecksumDelta::replace_u32`], then
/// patch the stored checksum with [`ChecksumDelta::apply`]. The result
/// equals a full recomputation (verified by property test below).
///
/// # Example
///
/// ```
/// use tcpfo_wire::checksum::{checksum, ChecksumDelta};
///
/// let mut data = vec![0x12, 0x34, 0x56, 0x78];
/// let mut stored = checksum(&data);
/// // Rewrite the first word 0x1234 -> 0xabcd, fixing the checksum
/// // incrementally instead of re-summing the whole buffer.
/// let mut delta = ChecksumDelta::new();
/// delta.replace_u16(0x1234, 0xabcd);
/// data[0] = 0xab;
/// data[1] = 0xcd;
/// stored = delta.apply(stored);
/// assert_eq!(stored, checksum(&data));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChecksumDelta {
    /// Accumulated `~m + m'` terms.
    acc: u32,
}

impl ChecksumDelta {
    /// Creates an empty (identity) delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if no replacement has been recorded.
    pub fn is_empty(&self) -> bool {
        self.acc == 0
    }

    /// Records the replacement of 16-bit field value `old` by `new`.
    pub fn replace_u16(&mut self, old: u16, new: u16) {
        self.acc += u32::from(!old);
        self.acc += u32::from(new);
    }

    /// Records the replacement of a 32-bit field (e.g. an IPv4 address
    /// or a TCP sequence number) as two 16-bit replacements.
    pub fn replace_u32(&mut self, old: u32, new: u32) {
        self.replace_u16((old >> 16) as u16, (new >> 16) as u16);
        self.replace_u16(old as u16, new as u16);
    }

    /// Records the *addition* of bytes not previously covered by the
    /// checksum (e.g. a TCP option appended by the secondary bridge).
    /// `bytes` must start at an even offset within the checksummed data.
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            self.replace_u16(0, u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.replace_u16(0, u16::from_be_bytes([*last, 0]));
        }
    }

    /// Patches a stored checksum, returning the updated value
    /// (`HC' = ~(~HC + ~m + m')`).
    pub fn apply(&self, stored: u16) -> u16 {
        let mut sum = u32::from(!stored) + self.acc;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Patches a whole batch of stored checksums in place, one delta per
/// slot: `stored[i] = deltas[i].apply(stored[i])`.
///
/// The bridges rewrite the same fields in every segment of a batch, so
/// the fixups are naturally columnar. This routine processes eight
/// (delta, checksum) pairs per pass with branch-free fixed-round
/// folding so the compiler can keep the lanes in vector registers — no
/// `unsafe`, no intrinsics, just an autovectorisation-friendly shape.
///
/// Each lane computes `!stored + acc` in 64-bit arithmetic. `acc` is a
/// `u32` and `!stored < 2^16`, so the lane value is below `2^33`; one
/// `(x & 0xffff) + (x >> 16)` fold brings it under `2^17 + 2^16`, the
/// second under `2^16 + 2`, and two more reach the 16-bit fixed point.
/// Extra folds of an already-folded value are no-ops, so four
/// unconditional rounds produce exactly the same result as
/// [`ChecksumDelta::apply`]'s data-dependent loop (the property test
/// below pins the equivalence).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn apply_batch(deltas: &[ChecksumDelta], stored: &mut [u16]) {
    assert_eq!(
        deltas.len(),
        stored.len(),
        "apply_batch: {} deltas for {} checksums",
        deltas.len(),
        stored.len()
    );
    const LANES: usize = 8;
    let mut d_chunks = deltas.chunks_exact(LANES);
    let mut s_chunks = stored.chunks_exact_mut(LANES);
    for (d8, s8) in d_chunks.by_ref().zip(s_chunks.by_ref()) {
        let mut lanes = [0u64; LANES];
        for j in 0..LANES {
            lanes[j] = u64::from(!s8[j]) + u64::from(d8[j].acc);
        }
        for _round in 0..4 {
            for lane in &mut lanes {
                *lane = (*lane & 0xffff) + (*lane >> 16);
            }
        }
        for j in 0..LANES {
            s8[j] = !(lanes[j] as u16);
        }
    }
    for (d, s) in d_chunks.remainder().iter().zip(s_chunks.into_remainder()) {
        *s = d.apply(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 16-bit loop `add_bytes` replaced: the reference its wide
    /// words are checked against.
    fn reference_sum(bytes: &[u8]) -> u32 {
        let mut c = Checksum::new();
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            c.add_u16(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            c.add_u16(u16::from_be_bytes([*last, 0]));
        }
        c.raw()
    }

    #[test]
    fn wide_sum_keeps_an_all_ones_word_nonzero() {
        // 0 and 0xffff are both ones-complement zero, but a sum of
        // nonzero bytes folds to 0xffff in the 16-bit loop; so must the
        // wide one, or a checksum over it would read 0xffff instead of 0.
        for len in [2usize, 7, 8, 9, 16, 64] {
            let ones = vec![0xffu8; len];
            assert_eq!(fold_sum(raw_sum(&ones)), fold_sum(reference_sum(&ones)));
            assert_eq!(fold_sum(raw_sum(&vec![0u8; len])), 0);
        }
    }

    #[test]
    fn rfc1071_example() {
        // Example sequence from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // The ones-complement sum is 0xddf2, checksum is its complement.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn empty_buffer_checksum_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn checksum_of_data_including_correct_checksum_verifies() {
        // A receiver sums the data *with* the checksum field in place
        // and expects the folded sum to be 0xffff (i.e. finish() == 0).
        let mut data = vec![0xde, 0xad, 0xbe, 0xef, 0x01, 0x02];
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn delta_identity() {
        let delta = ChecksumDelta::new();
        assert!(delta.is_empty());
        assert_eq!(delta.apply(0x1234), 0x1234);
    }

    #[test]
    fn delta_matches_recompute_for_simple_replacement() {
        let mut data = vec![0u8; 20];
        data[4] = 0x99;
        let before = checksum(&data);
        let mut delta = ChecksumDelta::new();
        delta.replace_u16(u16::from_be_bytes([data[4], data[5]]), 0x1357);
        data[4] = 0x13;
        data[5] = 0x57;
        assert_eq!(delta.apply(before), checksum(&data));
    }

    #[test]
    fn rfc1624_corner_case() {
        // RFC 1624 §4 worked example: header checksum 0xdd2f, field
        // changes 0x5555 -> 0x3285; new checksum must be 0x0000 per the
        // corrected (eqn 3) arithmetic.
        let mut delta = ChecksumDelta::new();
        delta.replace_u16(0x5555, 0x3285);
        assert_eq!(delta.apply(0xdd2f), 0x0000);
    }

    #[test]
    fn apply_batch_handles_corner_case_in_every_lane_position() {
        // The RFC 1624 §4 corner case placed at each position of a
        // batch long enough to exercise both the 8-lane body and the
        // scalar remainder.
        for len in [0usize, 1, 7, 8, 9, 16, 19] {
            for hot in 0..len {
                let mut deltas = vec![ChecksumDelta::new(); len];
                deltas[hot].replace_u16(0x5555, 0x3285);
                let mut stored = vec![0xdd2fu16; len];
                let expect: Vec<u16> = deltas
                    .iter()
                    .zip(&stored)
                    .map(|(d, s)| d.apply(*s))
                    .collect();
                apply_batch(&deltas, &mut stored);
                assert_eq!(stored, expect, "len={len} hot={hot}");
                assert_eq!(stored[hot], 0x0000);
            }
        }
    }

    #[test]
    #[should_panic(expected = "apply_batch")]
    fn apply_batch_rejects_length_mismatch() {
        let deltas = vec![ChecksumDelta::new(); 3];
        let mut stored = vec![0u16; 2];
        apply_batch(&deltas, &mut stored);
    }

    #[test]
    fn append_bytes_matches_recompute() {
        let mut data = vec![1, 2, 3, 4, 5, 6];
        let before = checksum(&data);
        let mut delta = ChecksumDelta::new();
        let extra = [9, 8, 7, 6];
        delta.append_bytes(&extra);
        data.extend_from_slice(&extra);
        assert_eq!(delta.apply(before), checksum(&data));
    }

    proptest! {
        /// Eight bytes at a step sums to the 16-bit loop's folded sum:
        /// for any length, odd ones included; fed in pieces split at
        /// even offsets; and through the cached-sum algebra the output
        /// queues use (`raw_sum` of the parts combined with `sub_sum`
        /// and `swap_sum`).
        #[test]
        fn prop_wide_sum_equals_16_bit_loop(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(any::<u16>(), 0..4),
            odd_cut in any::<u16>(),
        ) {
            let want = fold_sum(reference_sum(&data));
            prop_assert_eq!(fold_sum(raw_sum(&data)), want);

            let mut at: Vec<usize> = cuts
                .iter()
                .map(|&c| (usize::from(c) % (data.len() + 1)) & !1)
                .collect();
            at.sort_unstable();
            let mut pieces = Checksum::new();
            let mut from = 0;
            for &to in at.iter().chain(std::iter::once(&data.len())) {
                pieces.add_bytes(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(fold_sum(pieces.raw()), want);

            let k = usize::from(odd_cut) % (data.len() + 1);
            let (a, b) = data.split_at(k);
            let b_contrib = if k % 2 == 0 { raw_sum(b) } else { swap_sum(raw_sum(b)) };
            let mut rest = sub_sum(raw_sum(&data), raw_sum(a));
            if k % 2 == 1 {
                rest = swap_sum(rest);
            }
            let base = 0x1234u32;
            let folded = |raw: u32| fold_sum(base + u32::from(fold_sum(raw)));
            prop_assert_eq!(folded(raw_sum(a) + b_contrib), folded(u32::from(want)));
            prop_assert_eq!(folded(rest), folded(reference_sum(b)));
        }

        /// Incremental update must equal full recomputation for
        /// arbitrary data and arbitrary 16-bit field rewrites at even
        /// offsets — this is the §3.1 bridge fast path.
        #[test]
        fn prop_incremental_equals_full(
            mut data in proptest::collection::vec(any::<u8>(), 2..256),
            word_index in 0usize..128,
            new_value in any::<u16>(),
        ) {
            if data.len() % 2 == 1 { data.push(0); }
            let words = data.len() / 2;
            let idx = (word_index % words) * 2;
            let old = u16::from_be_bytes([data[idx], data[idx + 1]]);
            let before = checksum(&data);

            let mut delta = ChecksumDelta::new();
            delta.replace_u16(old, new_value);
            let [hi, lo] = new_value.to_be_bytes();
            data[idx] = hi;
            data[idx + 1] = lo;

            prop_assert_eq!(delta.apply(before), checksum(&data));
        }

        /// Two stacked deltas applied in sequence equal one combined
        /// recomputation (bridges may patch a segment more than once:
        /// address rewrite, then ack adjustment).
        #[test]
        fn prop_deltas_compose(
            mut data in proptest::collection::vec(any::<u8>(), 4..64),
            a in any::<u16>(),
            b in any::<u16>(),
        ) {
            if data.len() % 2 == 1 { data.push(0); }
            let before = checksum(&data);
            let w0 = u16::from_be_bytes([data[0], data[1]]);
            let w1 = u16::from_be_bytes([data[2], data[3]]);

            let mut d1 = ChecksumDelta::new();
            d1.replace_u16(w0, a);
            let mut d2 = ChecksumDelta::new();
            d2.replace_u16(w1, b);

            data[..2].copy_from_slice(&a.to_be_bytes());
            data[2..4].copy_from_slice(&b.to_be_bytes());

            prop_assert_eq!(d2.apply(d1.apply(before)), checksum(&data));
        }

        /// The eight-lane batched fixup must agree with the scalar
        /// `apply` path for arbitrary deltas and stored checksums — the
        /// fixed four-round fold is exactly equivalent to the
        /// data-dependent fold loop.
        #[test]
        fn prop_apply_batch_equals_scalar(
            pairs in proptest::collection::vec(
                (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>(), any::<u32>()),
                0..40,
            ),
        ) {
            let mut deltas = Vec::new();
            let mut stored = Vec::new();
            for (old_a, new_a, old_b, stored0, wide) in pairs {
                let mut d = ChecksumDelta::new();
                d.replace_u16(old_a, new_a);
                d.replace_u16(old_b, wide as u16);
                d.replace_u32(wide, wide.rotate_left(13));
                deltas.push(d);
                stored.push(stored0);
            }
            let expect: Vec<u16> = deltas
                .iter()
                .zip(&stored)
                .map(|(d, s)| d.apply(*s))
                .collect();
            apply_batch(&deltas, &mut stored);
            prop_assert_eq!(stored, expect);
        }

        /// u32 replacement is equivalent to two u16 replacements.
        #[test]
        fn prop_u32_replacement(old in any::<u32>(), new in any::<u32>(), stored in any::<u16>()) {
            let mut d32 = ChecksumDelta::new();
            d32.replace_u32(old, new);
            let mut d16 = ChecksumDelta::new();
            d16.replace_u16((old >> 16) as u16, (new >> 16) as u16);
            d16.replace_u16(old as u16, new as u16);
            prop_assert_eq!(d32.apply(stored), d16.apply(stored));
        }

        /// Cached-sum algebra: the sum of a concatenation equals the
        /// first chunk's sum plus the second chunk's sum, byte-swapped
        /// when the first chunk has odd length. This is the identity the
        /// rope output queue relies on to emit checksums without
        /// re-scanning payload bytes.
        #[test]
        fn prop_raw_sum_concat_with_parity(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut whole = a.clone();
            whole.extend_from_slice(&b);
            let b_contrib = if a.len() % 2 == 0 { raw_sum(&b) } else { swap_sum(raw_sum(&b)) };
            // Sums only carry meaning as contributions to a checksum
            // (0 and 0xffff are both ones-complement zero), so compare
            // through a non-trivial base.
            let base = 0x1234u32;
            prop_assert_eq!(
                fold_sum(base + u32::from(fold_sum(raw_sum(&whole)))),
                fold_sum(base + u32::from(fold_sum(raw_sum(&a) + b_contrib)))
            );
        }

        /// Cached-sum subtraction: removing a prefix's sum from a whole
        /// sum leaves the remainder's sum (swapped when the prefix is
        /// odd) — how the rope splits a chunk without re-summing the
        /// kept half.
        #[test]
        fn prop_sub_sum_splits(
            data in proptest::collection::vec(any::<u8>(), 1..128),
            cut in any::<u16>(),
        ) {
            let k = usize::from(cut) % (data.len() + 1);
            let (a, b) = data.split_at(k);
            let mut rest = sub_sum(raw_sum(&data), raw_sum(a));
            if k % 2 == 1 {
                rest = swap_sum(rest);
            }
            let base = 0x0101u32;
            prop_assert_eq!(
                fold_sum(base + u32::from(fold_sum(raw_sum(b)))),
                fold_sum(base + u32::from(fold_sum(rest)))
            );
        }
    }
}
