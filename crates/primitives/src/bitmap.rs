//! Dense bitmaps.
//!
//! The paper's "Design Details" (§III) call for n-bit dense bitmaps for the
//! sets `U` and `R` (O(1) membership) and per-vertex forbidden-color bitmaps
//! `B_v` of size `⌈(1+µ)kd⌉+1` bits for DEC-ADG (§IV-B).
//!
//! * [`AtomicBitmap`] — concurrently writable bitmap (CRCW-style), used when
//!   many threads mark vertices/colors simultaneously.
//! * [`FixedBitmap`] — single-owner bitmap with a fast
//!   `first_zero_from(1)` scan, used by `GetColor` (Alg. 3) and the
//!   first-fit variant of SIM-COL in DEC-ADG-ITR.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// A fixed-size bitmap supporting concurrent `set` from many threads.
///
/// Relaxed ordering is sufficient for all uses here: readers only consume
/// the bits after a rayon join (which is a full synchronization point), so
/// no cross-bit happens-before edges are required within a phase.
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Create a bitmap of `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(WORD_BITS);
        let mut words = Vec::with_capacity(n_words);
        words.resize_with(n_words, || AtomicU64::new(0));
        Self { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically set bit `i`. Returns the previous value.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % WORD_BITS);
        let prev = self.words[i / WORD_BITS].fetch_or(mask, Ordering::Relaxed);
        prev & mask != 0
    }

    /// Atomically clear bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        let mask = !(1u64 << (i % WORD_BITS));
        self.words[i / WORD_BITS].fetch_and(mask, Ordering::Relaxed);
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = self.words[i / WORD_BITS].load(Ordering::Relaxed);
        w & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Reset all bits to zero (single-threaded phase boundary).
    pub fn reset(&mut self) {
        for w in &mut self.words {
            *w = AtomicU64::new(0);
        }
    }

    /// Population count over the whole bitmap.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// A small, single-owner bitmap with first-zero search.
///
/// `GetColor` (Alg. 3, lines 25–28) needs "the smallest color not taken by
/// any predecessor": mark each predecessor color `c ≤ capacity`, then scan
/// for the first zero word-by-word — `O(deg/64 + 1)` per query.
#[derive(Clone, Debug, Default)]
pub struct FixedBitmap {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitmap {
    /// Create a bitmap with `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are addressable.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow (never shrink) to at least `len` bits, preserving contents.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.len {
            self.words.resize(len.div_ceil(WORD_BITS), 0);
            self.len = len;
        }
    }

    /// Set bit `i`; out-of-range bits are ignored (a neighbor's color larger
    /// than our own palette can never be the smallest free color, so DEC-ADG
    /// safely drops it — see §IV-B bitmap sizing discussion).
    #[inline]
    pub fn set_saturating(&mut self, i: usize) {
        if i < self.len {
            self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
        }
    }

    /// Set bit `i` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Read bit `i`; out-of-range reads return `false`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Clear all bits, keeping capacity (workhorse-collection reuse).
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Clear bits `[0, len)` — whole words, so bits sharing their last word
    /// clear too — leaving later words untouched: `O(len / 64)` where
    /// [`clear_all`](Self::clear_all) pays for the whole capacity.
    #[inline]
    pub fn clear_prefix(&mut self, len: usize) {
        let words = len.div_ceil(WORD_BITS).min(self.words.len());
        self.words[..words].fill(0);
    }

    /// The smallest index `>= from` whose bit is zero, or `self.len` if all
    /// of `[from, len)` is set.
    pub fn first_zero_from(&self, from: usize) -> usize {
        if from >= self.len {
            return self.len;
        }
        let mut wi = from / WORD_BITS;
        // Mask off bits below `from` in the first word (treat them as set).
        let mut word = self.words[wi] | ((1u64 << (from % WORD_BITS)) - 1);
        loop {
            if word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                let idx = wi * WORD_BITS + bit;
                return idx.min(self.len);
            }
            wi += 1;
            if wi >= self.words.len() {
                return self.len;
            }
            word = self.words[wi];
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn atomic_set_get_clear() {
        let b = AtomicBitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(129));
        assert!(!b.set(129));
        assert!(b.get(129));
        assert!(b.set(129), "second set sees previous value");
        b.clear(129);
        assert!(!b.get(129));
    }

    #[test]
    fn atomic_concurrent_sets() {
        let b = AtomicBitmap::new(10_000);
        (0..10_000usize).into_par_iter().for_each(|i| {
            if i % 2 == 0 {
                b.set(i);
            }
        });
        assert_eq!(b.count_ones(), 5_000);
        for i in 0..10_000 {
            assert_eq!(b.get(i), i % 2 == 0);
        }
    }

    #[test]
    fn atomic_reset() {
        let mut b = AtomicBitmap::new(100);
        b.set(3);
        b.set(64);
        b.reset();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn fixed_first_zero_basics() {
        let mut b = FixedBitmap::new(10);
        assert_eq!(b.first_zero_from(0), 0);
        b.set(0);
        b.set(1);
        b.set(3);
        assert_eq!(b.first_zero_from(0), 2);
        assert_eq!(b.first_zero_from(2), 2);
        assert_eq!(b.first_zero_from(3), 4);
    }

    #[test]
    fn fixed_first_zero_across_words() {
        let mut b = FixedBitmap::new(200);
        for i in 0..130 {
            b.set(i);
        }
        assert_eq!(b.first_zero_from(0), 130);
        assert_eq!(b.first_zero_from(64), 130);
        assert_eq!(b.first_zero_from(131), 131);
    }

    #[test]
    fn fixed_first_zero_all_set() {
        let mut b = FixedBitmap::new(65);
        for i in 0..65 {
            b.set(i);
        }
        assert_eq!(b.first_zero_from(0), 65);
        assert_eq!(b.first_zero_from(70), 65, "from beyond len clamps to len");
    }

    #[test]
    fn fixed_saturating_ignores_out_of_range() {
        let mut b = FixedBitmap::new(8);
        b.set_saturating(100);
        assert_eq!(b.count_ones(), 0);
        b.set_saturating(7);
        assert!(b.get(7));
        assert!(!b.get(100), "out-of-range get is false");
    }

    #[test]
    fn fixed_clear_and_grow() {
        let mut b = FixedBitmap::new(4);
        b.set(2);
        b.ensure_len(100);
        assert!(b.get(2), "growth preserves contents");
        assert_eq!(b.len(), 100);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
        b.ensure_len(10);
        assert_eq!(b.len(), 100, "never shrinks");
    }

    #[test]
    fn fixed_clear_prefix_keeps_later_words() {
        let mut b = FixedBitmap::new(200);
        for i in [0, 5, 63, 64, 130, 199] {
            b.set(i);
        }
        b.clear_prefix(6);
        assert!(!b.get(0) && !b.get(5) && !b.get(63), "first word cleared");
        assert!(b.get(64) && b.get(130) && b.get(199), "later words kept");
        b.clear_prefix(65);
        assert!(!b.get(64) && b.get(130));
        b.clear_prefix(10_000);
        assert_eq!(b.count_ones(), 0, "past the end clears everything");
    }

    #[test]
    fn fixed_empty() {
        let b = FixedBitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.first_zero_from(0), 0);
    }
}
