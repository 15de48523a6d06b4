//! The suite's one small, dependency-free, seedable pseudo-random
//! generator.
//!
//! The suite must build and test with no network access, so the pattern
//! generators cannot pull in the `rand` crate. This xorshift64* generator
//! (Vigna, "An experimental exploration of Marsaglia's xorshift
//! generators") is more than adequate for test-pattern sampling and Monte
//! Carlo process corners: period 2^64 − 1, passes BigCrush when the output
//! is multiplied out, and — the property the suite actually relies on —
//! a given seed always reproduces the same sequence on every platform.

/// A xorshift64* generator. Streams from different seeds are decorrelated
/// by a SplitMix64 seed scramble, so nearby seeds (0, 1, 2…) do not
/// produce visibly related sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from a seed. Any seed is acceptable, including
    /// zero (the internal state is scrambled to be nonzero).
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 finalizer: guarantees a nonzero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64Star {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The `counter`-th independent stream of `seed` (*counter seeding*):
    /// stream `k` depends on `(seed, k)` alone, so Monte Carlo corners can
    /// run in any order on any thread.
    pub fn for_stream(seed: u64, counter: u64) -> Self {
        // SplitMix64 finalizer over the (seed, counter) pair; the final
        // `| 1` keeps the state nonzero.
        let mut z = seed ^ counter.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64Star { state: z | 1 }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Pseudo-Gaussian: the sum of three `[-1, 1)` uniforms scaled to unit
    /// variance.
    pub fn gauss(&mut self) -> f64 {
        (self.gen_range_f64(-1.0, 1.0)
            + self.gen_range_f64(-1.0, 1.0)
            + self.gen_range_f64(-1.0, 1.0))
            / 1.732
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range upper bound must be positive");
        // Multiply-shift rejection (Lemire): unbiased without division in
        // the common case.
        let n = n as u64;
        let mut m = (self.next_u64() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        // Use a high bit; low bits of xorshift outputs are weaker.
        self.next_u64() >> 63 == 1
    }

    /// A biased coin flip with probability `p` of `true`.
    pub fn gen_bool_p(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = XorShift64Star::seed_from_u64(42);
        let mut b = XorShift64Star::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64Star::seed_from_u64(1);
        let mut b = XorShift64Star::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64Star::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift64Star::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = XorShift64Star::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.gen_range(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = XorShift64Star::seed_from_u64(11);
        let ones = (0..10_000).filter(|_| r.gen_bool()).count();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }

    /// Outputs of the Monte Carlo engine's former private generator
    /// (splitmix64 counter seeding, uniforms as `2u - 1`), captured bit
    /// for bit: 8 words, then 4 `gauss().to_bits()`, per `(seed, k)`.
    /// `for_stream` must keep every sampled corner in place.
    #[test]
    fn for_stream_reproduces_the_pinned_monte_streams() {
        let pinned = [
            (
                0x0BD0_DA7E,
                0,
                "d35ac50200e76bf5 df8d6fe47886ada0 acb5abac76f1eaa8 49a6eb7b2747dfb1 \
                26cfe1526c607d8a db5cca979596270e 949abd8cd2121ce0 19cb8d782ec9c4c4 \
                bfce27059e5897f5 bfc708d7cdf92f3e bfe2d505723ff6de 3fe25578e08ecd85",
            ),
            (
                0xFAB5,
                63,
                "d464be0d898fa1df f09f15202b4aadc9 24b0c458d8e40a34 2e5871b4b0f986ab \
                ed91266ab23d5240 d2210bfc237c5540 965600779354f592 74bcc1f531f3fee3 \
                3fe7c37a16ce2972 3fe7f6ba70dcb87b bfe25ad776033cdb bff2d9c77bce8e2f",
            ),
            // The counter wraps to a zero scramble here; `| 1` rescues it.
            (
                0,
                u64::MAX,
                "47e4ce4b896cdd1d abcfa6a8e079651d b9d10d8feb731f57 4db418a0bb1b019d \
                0e6199b04d5aa600 c8674bcb42e3aad9 d052b2d8d46e7181 ac718cf8ce31398d \
                3fb9d7057ed0339d bfdfeb17d9a8077c 3fcc4641d0648481 bf9b951b940f0d6e",
            ),
        ];
        for (seed, k, expected) in pinned {
            let mut r = XorShift64Star::for_stream(seed, k);
            let words: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            let gauss = (0..4).map(|_| r.gauss().to_bits());
            let got: Vec<String> = words
                .into_iter()
                .chain(gauss)
                .map(|w| format!("{w:016x}"))
                .collect();
            assert_eq!(got.join(" "), expected, "({seed:#x}, {k:#x})");
        }
    }

    #[test]
    fn biased_bool_tracks_probability() {
        let mut r = XorShift64Star::seed_from_u64(13);
        let ones = (0..10_000).filter(|_| r.gen_bool_p(0.9)).count();
        assert!((8_700..9_300).contains(&ones), "ones = {ones}");
    }
}
