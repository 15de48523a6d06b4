//! `[u64; N]` super-lane pattern words and wide pattern blocks.
//!
//! A [`LaneWord`] carries `64 * N` patterns at once: lane word `i` holds
//! patterns `64*i .. 64*i + 63`. All bitwise operations are elementwise
//! over the fixed-size array, which the compiler autovectorizes (N = 4
//! is one AVX2 register, N = 8 is one AVX-512 register or two AVX2 ops),
//! so widening the word amortizes the per-gate bookkeeping of a packed
//! simulation sweep over eight times as many patterns.
//!
//! [`WideBlock`] is the `[u64; N]` generalization of the classic
//! 64-pattern block (`WideBlock<1>`): up to `64 * N` fully-specified
//! input vectors packed one [`LaneWord`] per primary input. The packing entry points all enforce the block capacity and
//! vector-width invariants — including [`WideBlock::pack_unchecked`],
//! which (despite the legacy name) now *panics* on ragged or oversized
//! input rather than silently truncating the pattern set.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

use crate::value::Lv;
use crate::LogicError;

/// A super-lane word: `N` packed 64-pattern lanes, `64 * N` patterns
/// total. Pattern `k` lives at bit `k % 64` of lane `k / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWord<const N: usize>(pub [u64; N]);

impl<const N: usize> LaneWord<N> {
    /// All patterns 0.
    pub const ZERO: Self = Self([0; N]);
    /// All patterns 1.
    pub const ONES: Self = Self([!0; N]);
    /// Patterns per word.
    pub const BITS: usize = 64 * N;

    /// Lane `i` (patterns `64*i .. 64*i + 63`).
    #[inline]
    pub fn lane(self, i: usize) -> u64 {
        self.0[i]
    }

    /// Whether any pattern bit is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Whether no pattern bit is set.
    #[inline]
    pub fn is_zero(self) -> bool {
        !self.any()
    }

    /// Number of set pattern bits.
    #[inline]
    pub fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Pattern bit `k`.
    #[inline]
    pub fn bit(self, k: usize) -> bool {
        (self.0[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Sets pattern bit `k`.
    #[inline]
    pub fn set_bit(&mut self, k: usize) {
        self.0[k / 64] |= 1u64 << (k % 64);
    }

    /// The valid-lane mask for a block of `count` patterns: the first
    /// `count` bits set.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the word's `64 * N` capacity.
    pub fn mask(count: usize) -> Self {
        assert!(
            count <= Self::BITS,
            "mask of {count} exceeds {}",
            Self::BITS
        );
        let mut w = [0u64; N];
        for (i, lane) in w.iter_mut().enumerate() {
            let lo = i * 64;
            *lane = if count >= lo + 64 {
                !0
            } else if count > lo {
                (1u64 << (count - lo)) - 1
            } else {
                0
            };
        }
        Self(w)
    }

    /// Indices of set pattern bits, ascending.
    pub fn set_bits(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(lane, word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| lane * 64 + w.trailing_zeros() as usize)
        })
    }
}

impl<const N: usize> Default for LaneWord<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> BitAnd for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        self &= rhs;
        self
    }
}

impl<const N: usize> BitAndAssign for LaneWord<N> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a &= *b;
        }
    }
}

impl<const N: usize> BitOr for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl<const N: usize> BitOrAssign for LaneWord<N> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a |= *b;
        }
    }
}

impl<const N: usize> BitXor for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        self ^= rhs;
        self
    }
}

impl<const N: usize> BitXorAssign for LaneWord<N> {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a ^= *b;
        }
    }
}

impl<const N: usize> Not for LaneWord<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

/// A block of up to `64 * N` fully-specified input patterns, one
/// [`LaneWord`] per primary input.
#[derive(Debug, Clone, Default)]
pub struct WideBlock<const N: usize> {
    /// `words[i]` is the packed values of primary input `i` across the
    /// block's patterns.
    words: Vec<LaneWord<N>>,
    count: usize,
}

impl<const N: usize> WideBlock<N> {
    /// Patterns per block.
    pub const CAPACITY: usize = 64 * N;

    fn check_shape<V: AsRef<[Lv]>>(vectors: &[V]) -> Result<usize, LogicError> {
        if vectors.len() > Self::CAPACITY {
            return Err(LogicError::PatternBlockTooLarge {
                found: vectors.len(),
                capacity: Self::CAPACITY,
            });
        }
        let n_inputs = vectors.first().map_or(0, |v| v.as_ref().len());
        if let Some(v) = vectors.iter().find(|v| v.as_ref().len() != n_inputs) {
            return Err(LogicError::InputCountMismatch {
                expected: n_inputs,
                found: v.as_ref().len(),
            });
        }
        Ok(n_inputs)
    }

    fn pack_checked<V: AsRef<[Lv]>>(vectors: &[V], n_inputs: usize) -> Self {
        let mut words = vec![LaneWord::ZERO; n_inputs];
        for (k, v) in vectors.iter().enumerate() {
            let (lane, bit) = (k / 64, k % 64);
            for (i, &lv) in v.as_ref().iter().enumerate() {
                if lv == Lv::One {
                    words[i].0[lane] |= 1u64 << bit;
                }
            }
        }
        WideBlock {
            words,
            count: vectors.len(),
        }
    }

    /// Packs up to `64 * N` vectors (each `vectors[k][i]` is PI `i` of
    /// pattern `k`). Unknown (`X`) values are treated as 0.
    ///
    /// # Errors
    ///
    /// * [`LogicError::PatternBlockTooLarge`] if more than `64 * N`
    ///   vectors are supplied.
    /// * [`LogicError::InputCountMismatch`] if the vectors have
    ///   inconsistent lengths (ragged input).
    pub fn pack(vectors: &[Vec<Lv>]) -> Result<Self, LogicError> {
        let n_inputs = Self::check_shape(vectors)?;
        Ok(Self::pack_checked(vectors, n_inputs))
    }

    /// [`WideBlock::pack`] over borrowed vector slices, so callers packing
    /// a projection of a larger structure (e.g. the launch frames of a
    /// two-pattern test set) need not copy each vector first.
    ///
    /// # Errors
    ///
    /// Same shape checks as [`WideBlock::pack`].
    pub fn pack_slices(vectors: &[&[Lv]]) -> Result<Self, LogicError> {
        let n_inputs = Self::check_shape(vectors)?;
        Ok(Self::pack_checked(vectors, n_inputs))
    }

    /// [`WideBlock::pack`] for hot paths whose chunking already guarantees
    /// the shape invariants (e.g. `chunks(64 * N)` over uniform vectors).
    ///
    /// The legacy name survives from when the shape checks were
    /// debug-only; excess or ragged vectors would *silently corrupt the
    /// packing* in release builds, so the checks are now unconditional.
    ///
    /// # Panics
    ///
    /// Panics if more than `64 * N` vectors are supplied or the vectors
    /// are ragged.
    pub fn pack_unchecked(vectors: &[Vec<Lv>]) -> Self {
        let n_inputs = match Self::check_shape(vectors) {
            Ok(n) => n,
            Err(e) => panic!("pack_unchecked shape violation: {e}"),
        };
        Self::pack_checked(vectors, n_inputs)
    }

    /// Number of patterns in the block.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of primary inputs the block was packed for.
    pub fn num_inputs(&self) -> usize {
        self.words.len()
    }

    /// Mask with one bit set per valid pattern.
    pub fn mask(&self) -> LaneWord<N> {
        LaneWord::mask(self.count)
    }

    /// Packed word for primary input `i`.
    pub fn word(&self, i: usize) -> LaneWord<N> {
        self.words[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::all_vectors;

    #[test]
    fn laneword_ops_are_elementwise() {
        let a = LaneWord::<4>([0b1100, 1, !0, 0]);
        let b = LaneWord::<4>([0b1010, 3, 0, !0]);
        assert_eq!((a & b).0, [0b1000, 1, 0, 0]);
        assert_eq!((a | b).0, [0b1110, 3, !0, !0]);
        assert_eq!((a ^ b).0, [0b0110, 2, !0, !0]);
        assert_eq!((!a).0, [!0b1100u64, !1, 0, !0]);
        assert!(a.any());
        assert!(LaneWord::<4>::ZERO.is_zero());
        assert_eq!(LaneWord::<4>::ONES.count_ones(), 256);
        assert_eq!(a.count_ones(), 2 + 1 + 64);
    }

    #[test]
    fn laneword_bit_addressing_crosses_lanes() {
        let mut w = LaneWord::<2>::ZERO;
        w.set_bit(3);
        w.set_bit(64);
        w.set_bit(127);
        assert!(w.bit(3) && w.bit(64) && w.bit(127));
        assert!(!w.bit(4) && !w.bit(63));
        assert_eq!(w.lane(0), 0b1000);
        assert_eq!(w.lane(1), 1 | (1 << 63));
        assert_eq!(w.set_bits().collect::<Vec<_>>(), vec![3, 64, 127]);
    }

    #[test]
    fn mask_covers_partial_lanes() {
        assert_eq!(LaneWord::<2>::mask(0).0, [0, 0]);
        assert_eq!(LaneWord::<2>::mask(5).0, [0b11111, 0]);
        assert_eq!(LaneWord::<2>::mask(64).0, [!0, 0]);
        assert_eq!(LaneWord::<2>::mask(65).0, [!0, 1]);
        assert_eq!(LaneWord::<2>::mask(128).0, [!0, !0]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn mask_rejects_overflow() {
        let _ = LaneWord::<1>::mask(65);
    }

    #[test]
    fn pack_spreads_patterns_across_lanes() {
        // 70 patterns of 1 input: pattern k is (k % 3 == 0).
        let vectors: Vec<Vec<Lv>> = (0..70).map(|k| vec![Lv::from_bool(k % 3 == 0)]).collect();
        let block = WideBlock::<2>::pack(&vectors).unwrap();
        assert_eq!(block.len(), 70);
        assert_eq!(block.num_inputs(), 1);
        let w = block.word(0);
        for k in 0..70 {
            assert_eq!(w.bit(k), k % 3 == 0, "pattern {k}");
        }
        assert_eq!(block.mask(), LaneWord::mask(70));
    }

    #[test]
    fn pack_rejects_over_capacity_at_every_width() {
        fn over<const N: usize>() {
            let vectors: Vec<Vec<Lv>> = (0..(64 * N + 1)).map(|_| vec![Lv::One]).collect();
            match WideBlock::<N>::pack(&vectors) {
                Err(LogicError::PatternBlockTooLarge { found, capacity }) => {
                    assert_eq!(found, 64 * N + 1);
                    assert_eq!(capacity, 64 * N);
                }
                other => panic!("expected PatternBlockTooLarge, got {other:?}"),
            }
        }
        over::<1>();
        over::<4>();
        over::<8>();
    }

    #[test]
    fn pack_rejects_ragged_vectors() {
        let vectors = vec![vec![Lv::One, Lv::Zero], vec![Lv::One]];
        assert!(matches!(
            WideBlock::<4>::pack(&vectors),
            Err(LogicError::InputCountMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "pack_unchecked shape violation")]
    fn pack_unchecked_panics_instead_of_truncating() {
        let vectors: Vec<Vec<Lv>> = (0..65).map(|_| vec![Lv::One]).collect();
        let _ = WideBlock::<1>::pack_unchecked(&vectors);
    }

    #[test]
    #[should_panic(expected = "pack_unchecked shape violation")]
    fn pack_unchecked_panics_on_ragged() {
        let vectors = vec![vec![Lv::One, Lv::Zero], vec![Lv::One]];
        let _ = WideBlock::<8>::pack_unchecked(&vectors);
    }

    #[test]
    fn pack_slices_matches_pack() {
        let vectors: Vec<_> = all_vectors(3).collect();
        let slices: Vec<&[Lv]> = vectors.iter().map(Vec::as_slice).collect();
        let a = WideBlock::<4>::pack(&vectors).unwrap();
        let b = WideBlock::<4>::pack_slices(&slices).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..3 {
            assert_eq!(a.word(i), b.word(i));
        }
        let ragged: Vec<&[Lv]> = vec![&vectors[0], &vectors[1][..2]];
        assert!(matches!(
            WideBlock::<1>::pack_slices(&ragged),
            Err(LogicError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn pack_treats_x_as_zero() {
        let block = WideBlock::<1>::pack(&[vec![Lv::X, Lv::One], vec![Lv::Zero, Lv::X]]).unwrap();
        // PI 0: X,0 -> both bits clear; PI 1: 1,X -> only bit 0 set.
        assert_eq!(block.word(0).lane(0), 0b00);
        assert_eq!(block.word(1).lane(0), 0b01);
    }

    #[test]
    fn empty_pack_is_empty() {
        let block = WideBlock::<8>::pack(&[]).unwrap();
        assert!(block.is_empty());
        assert!(block.mask().is_zero());
    }
}
