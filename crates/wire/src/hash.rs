//! One seeded fast hasher for the maps a segment is looked up in: the
//! flow table, the stack's demultiplexer, the neighbour table, the
//! switch and the auditor.
//!
//! Their keys are addresses and ports, which an off-path sender picks,
//! so the hash stays seeded: each map draws its two seeds once from
//! std's [`RandomState`], and iteration order stays unspecified as with
//! std's own maps. The hash is a folded multiply (the 128-bit product's
//! halves xored), foldhash-style: the integers a key writes are packed
//! into a 128-bit sponge, and each full sponge costs one multiply, so a
//! 4-tuple costs one where SipHash-1-3 costs several rounds per word.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};

/// A `HashMap` hashed by [`FoldHasher`].
pub type FastMap<K, V> = HashMap<K, V, SeededState>;
/// A `HashSet` hashed by [`FoldHasher`].
pub type FastSet<T> = HashSet<T, SeededState>;

/// One map's seeds: the hasher's starting accumulator and the value
/// folded into every multiply. The same size as [`RandomState`].
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
    fold: u64,
}

impl Default for SeededState {
    fn default() -> Self {
        let keys = RandomState::new();
        SeededState {
            seed: keys.hash_one(0u8),
            fold: keys.hash_one(1u8),
        }
    }
}

impl BuildHasher for SeededState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            fold: self.fold,
            sponge: 0,
            bits: 0,
        }
    }
}

/// The hasher [`SeededState`] builds.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    fold: u64,
    sponge: u128,
    bits: u32,
}

/// The avalanche step's factor: the fractional digits of pi.
const AVALANCHE: u64 = 0x243f_6a88_85a3_08d3;

/// The 128-bit product of `x` and `y`, its halves xored.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

impl FoldHasher {
    #[inline]
    fn fold_sponge(&self) -> u64 {
        folded_multiply(
            self.sponge as u64 ^ self.acc,
            (self.sponge >> 64) as u64 ^ self.fold,
        )
    }

    #[inline]
    fn absorb(&mut self, x: u64, bits: u32) {
        if self.bits + bits > 128 {
            self.acc = self.fold_sponge();
            self.sponge = u128::from(x);
            self.bits = bits;
        } else {
            self.sponge |= u128::from(x) << self.bits;
            self.bits += bits;
        }
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word), 64);
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.absorb(x.into(), 8);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.absorb(x.into(), 16);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.absorb(x.into(), 32);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.absorb(x, 64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.absorb(x as u64, 64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = if self.bits == 0 {
            self.acc
        } else {
            self.fold_sponge()
        };
        // One more fold, so that a key of a few bits (a port) reaches
        // every bit: a single product by a fixed factor leaves the low
        // bits of sequential keys in step.
        folded_multiply(h, AVALANCHE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed seeds, so the assertions below do not depend on a draw.
    const FIXED: SeededState = SeededState {
        seed: 0x1319_8a2e_0370_7344,
        fold: 0xa409_3822_299f_31d0,
    };

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        let tuple = |port: u16| (std::net::Ipv4Addr::new(10, 0, 0, 1), port, 80u16);
        assert_eq!(FIXED.hash_one(tuple(4242)), FIXED.hash_one(tuple(4242)));
        // Keys one port apart differ in both ends of the hash: the high
        // bits pick hashbrown's control byte, the low ones the bucket.
        let (a, b) = (FIXED.hash_one(tuple(4242)), FIXED.hash_one(tuple(4243)));
        assert_ne!(a >> 57, b >> 57);
        assert_ne!(a & 0xffff, b & 0xffff);
        // Each map draws its own seeds.
        let (s, t) = (SeededState::default(), SeededState::default());
        assert_ne!(s.hash_one(tuple(1)), t.hash_one(tuple(1)));
    }

    #[test]
    fn a_map_spreads_sequential_ports() {
        let mut m = FastMap::default();
        for port in 0..4096u16 {
            m.insert(port, u32::from(port));
        }
        assert!((0..4096u16).all(|p| m[&p] == u32::from(p)));
        // 4096 random keys fill about 63 % of 4096 buckets.
        let buckets: FastSet<u64> = (0..4096u16).map(|p| FIXED.hash_one(p) & 4095).collect();
        assert!(buckets.len() > 2_400, "{} of 4096 buckets", buckets.len());
    }
}
