//! Seeded randomness, open-loop schedules and exact quantiles.
//!
//! Quantiles come from raw samples kept in a sorted `Vec<u64>`: a
//! log-bucketed histogram moves a p99 by 0 % or 100 %, which is useless
//! against a 1 % bound.

/// SplitMix64: the benchmark's only entropy source. Everything a
/// workload generates derives from `--seed` through this.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, never zero so `ln()` stays finite.
    pub fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// An independent stream for a named sub-purpose of one seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `n` Poisson arrival instants (ns from 0) at `rate_per_s`.
pub fn poisson_schedule(n: usize, rate_per_s: f64, rng: &mut SplitMix64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.next_unit().ln() * mean_gap_ns;
            t as u64
        })
        .collect()
}

/// Raw-sample recorder.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    xs: Vec<u64>,
    sorted: bool,
}

/// The highest percentile a sample supports and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `(50, 100]`, e.g. 99.0; 100.0 means "the maximum"
    /// (fewer than 20 samples: no percentile has ten beyond it).
    pub percentile: f64,
    pub value: u64,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            xs: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, x: u64) {
        self.xs.push(x);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.xs.extend_from_slice(&other.xs);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.xs.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least
    /// `q × n` samples at or below it. `q` in `(0, 1]`.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!(!self.xs.is_empty(), "quantile of no samples");
        self.sort();
        let rank = (q * self.xs.len() as f64).ceil() as usize;
        self.xs[rank.clamp(1, self.xs.len()) - 1]
    }

    pub fn median(&mut self) -> u64 {
        self.quantile(0.5)
    }

    pub fn max(&mut self) -> u64 {
        self.quantile(1.0)
    }

    pub fn max_or_zero(mut self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.max()
        }
    }

    /// The highest of p99.9 / p99 / p95 / p90 with at least ten samples
    /// beyond it, else the maximum.
    pub fn tail(&mut self) -> Tail {
        let n = self.xs.len() as f64;
        for p in [99.9, 99.0, 95.0, 90.0] {
            if n * (100.0 - p) / 100.0 >= 10.0 {
                return Tail {
                    percentile: p,
                    value: self.quantile(p / 100.0),
                };
            }
        }
        Tail {
            percentile: 100.0,
            value: self.max(),
        }
    }
}

/// Median of a small set of floats (timed repetitions).
pub fn median_f64(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// FNV-1a, the digest used for generated inputs and bridge output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let a = poisson_schedule(1000, 500.0, &mut SplitMix64::fork(7, 1));
        let b = poisson_schedule(1000, 500.0, &mut SplitMix64::fork(7, 1));
        let c = poisson_schedule(1000, 500.0, &mut SplitMix64::fork(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap within 10 % of 2 ms.
        let mean = *a.last().unwrap() as f64 / 1000.0;
        assert!((1.8e6..2.2e6).contains(&mean), "{mean}");
    }

    #[test]
    fn quantiles_match_a_sorted_oracle() {
        let mut rng = SplitMix64::fork(3, 0);
        for n in [1usize, 2, 3, 10, 19, 20, 101, 1000, 5000] {
            let mut s = Samples::default();
            let mut oracle = Vec::new();
            for _ in 0..n {
                let x = rng.below(10_000);
                s.push(x);
                oracle.push(x);
            }
            oracle.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                // Oracle: count-based definition, computed the slow way.
                let need = (q * n as f64).ceil().max(1.0) as usize;
                let want = *oracle
                    .iter()
                    .find(|&&v| oracle.iter().filter(|&&w| w <= v).count() >= need)
                    .unwrap();
                assert_eq!(s.quantile(q), want, "n={n} q={q}");
            }
            assert_eq!(s.max(), *oracle.last().unwrap());
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        (0..5000).for_each(|i| s.push(i));
        assert_eq!(s.tail().percentile, 99.0);
        assert_eq!(s.tail().value, 4949);
        let mut s = Samples::default();
        (0..24).for_each(|i| s.push(i));
        assert_eq!(s.tail().percentile, 100.0);
        assert_eq!(s.tail().value, 23);
        let mut s = Samples::default();
        (0..100_000).for_each(|i| s.push(i));
        assert_eq!(s.tail().percentile, 99.9);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
