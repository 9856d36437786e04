//! Wrapping 32-bit sequence-number arithmetic (RFC 793 §3.3).
//!
//! Sequence numbers live on a circle of size 2³². All comparisons are
//! relative: `a` is "before" `b` when the signed distance from `a` to
//! `b` is positive. The failover bridge leans on this arithmetic
//! everywhere — the Δseq offset between the two replicas' sequence
//! spaces is itself a wrapping difference (§3.3 of the paper).

/// Signed distance from `a` to `b` on the sequence circle.
#[inline]
pub fn seq_diff(b: u32, a: u32) -> i32 {
    b.wrapping_sub(a) as i32
}

/// `a < b` in sequence space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    seq_diff(b, a) > 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    seq_diff(b, a) >= 0
}

/// `a > b` in sequence space.
#[inline]
pub fn seq_gt(a: u32, b: u32) -> bool {
    seq_diff(a, b) > 0
}

/// `a >= b` in sequence space.
#[inline]
pub fn seq_ge(a: u32, b: u32) -> bool {
    seq_diff(a, b) >= 0
}

/// The earlier of two sequence numbers.
#[inline]
pub fn seq_min(a: u32, b: u32) -> u32 {
    if seq_le(a, b) {
        a
    } else {
        b
    }
}

/// The later of two sequence numbers.
#[inline]
pub fn seq_max(a: u32, b: u32) -> u32 {
    if seq_ge(a, b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ordering() {
        assert!(seq_lt(1, 2));
        assert!(seq_le(2, 2));
        assert!(seq_gt(2, 1));
        assert!(seq_ge(2, 2));
        assert!(!seq_lt(2, 1));
    }

    #[test]
    fn wraparound_ordering() {
        // 0xffff_fff0 is "before" 0x10 (it wrapped).
        assert!(seq_lt(0xffff_fff0, 0x10));
        assert!(seq_gt(0x10, 0xffff_fff0));
        assert_eq!(seq_diff(0x10, 0xffff_fff0), 0x20);
        assert_eq!(seq_min(0xffff_fff0, 0x10), 0xffff_fff0);
        assert_eq!(seq_max(0xffff_fff0, 0x10), 0x10);
    }

    #[test]
    fn window_test_wraps() {
        // `low <= x < high` on the circle: the RFC 793 window test.
        let in_window = |x, low, high| seq_le(low, x) && seq_lt(x, high);
        assert!(in_window(0x5, 0xffff_fffa, 0x10));
        assert!(in_window(0xffff_fffb, 0xffff_fffa, 0x10));
        assert!(!in_window(0x10, 0xffff_fffa, 0x10));
        assert!(!in_window(0xffff_fff0, 0xffff_fffa, 0x10));
    }

    proptest! {
        /// Shifting both operands by any offset preserves ordering —
        /// this is exactly why the bridge's Δseq normalisation is sound.
        #[test]
        fn prop_shift_invariance(a in any::<u32>(), b in any::<u32>(), shift in any::<u32>()) {
            // Only meaningful when the distance is well inside the
            // signed range (real windows are tiny compared to 2^31).
            prop_assume!(seq_diff(b, a).unsigned_abs() < 1 << 30);
            prop_assert_eq!(
                seq_lt(a, b),
                seq_lt(a.wrapping_add(shift), b.wrapping_add(shift))
            );
            prop_assert_eq!(
                seq_diff(b, a),
                seq_diff(b.wrapping_add(shift), a.wrapping_add(shift))
            );
        }

        /// min/max are consistent with the ordering predicates.
        #[test]
        fn prop_min_max(a in any::<u32>(), b in any::<u32>()) {
            prop_assume!(seq_diff(b, a).unsigned_abs() < 1 << 30);
            let lo = seq_min(a, b);
            let hi = seq_max(a, b);
            prop_assert!(seq_le(lo, hi));
            prop_assert!(lo == a || lo == b);
            prop_assert!(hi == a || hi == b);
        }
    }
}
