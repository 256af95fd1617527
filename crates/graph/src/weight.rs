//! The edge payload abstraction behind the payload-generic graph layer.
//!
//! Every stage of the ingestion stack — [`EdgeSource`](crate::EdgeSource)
//! replays, the two-pass streaming builder, the buffered
//! [`EdgeListBuilder`](crate::EdgeListBuilder), the readers and the seeded
//! generators — is generic over one type parameter `W:` [`EdgeWeight`].
//! Two instantiations matter:
//!
//! * `W = ()` — the **unweighted** graph. `()` is a zero-sized type, so
//!   every weights array is allocation-free (`Vec<()>` never touches the
//!   heap), every weight scatter/permute compiles to nothing, and the
//!   builder's unweighted fast path is *bit-identical by construction* to
//!   the pre-generic engine. [`EdgeWeight::IS_UNIT`] lets the builder
//!   statically skip the weight-carrying sort path too.
//! * `W = f32 / f64 / u32` — real edge weights, stored struct-of-arrays
//!   next to the neighbor array (see [`CompactCsr`](crate::CompactCsr))
//!   so the unweighted traversal loops never stream weight bytes through
//!   the cache.
//!
//! Duplicate arcs merge by [`EdgeWeight::merge_parallel`] (the **max**, an
//! order-insensitive fold, so parallel scatter order cannot leak into the
//! result), mirroring how the unweighted builder collapses duplicates.

use crate::storage::Pod;
use std::cmp::Ordering;

/// An edge payload the ingestion stack can carry: copyable, thread-safe,
/// mergeable across duplicate arcs, and convertible to `f64` for the
/// weighted workloads (matching weight, weighted density).
///
/// Implementations: `()` (unweighted; zero-sized, [`IS_UNIT`] = true),
/// `u32`, `f32`, and `f64`.
///
/// [`IS_UNIT`]: EdgeWeight::IS_UNIT
pub trait EdgeWeight: Pod + PartialEq + Send + Sync + std::fmt::Debug {
    /// True only for `()`: lets generic code statically skip weight work
    /// (the compiler erases the dead branch, keeping the unweighted path
    /// zero-cost).
    const IS_UNIT: bool = false;

    /// Identifier of this payload type in the binary snapshot header
    /// ([`crate::snapshot`]): `0` = unit, `1` = `u32`, `2` = `f32`,
    /// `3` = `f64`. A snapshot written with one payload type refuses to
    /// load as a different non-unit one.
    const SNAPSHOT_KIND: u8;

    /// Combine the payloads of duplicate (parallel) arcs. Must be
    /// commutative and associative — the builder folds duplicates in a
    /// thread-schedule-dependent order. All provided impls keep the
    /// **maximum**.
    fn merge_parallel(self, other: Self) -> Self;

    /// A total order (used to rank edges by weight; `f32`/`f64` use
    /// IEEE `total_cmp`, so even NaNs order deterministically).
    fn total_cmp(&self, other: &Self) -> Ordering;

    /// Numeric value of this weight; `()` counts as `1.0`, making every
    /// weighted quantity (weighted degree, matching weight, weighted
    /// density) collapse to its unweighted meaning on unit graphs.
    fn to_f64(self) -> f64;

    /// Construct from a numeric value (seeded weight generation). Lossy
    /// for narrow types (`u32` truncates, `f32` rounds).
    fn from_f64(x: f64) -> Self;

    /// Parse one ASCII token (an edge-list or Matrix Market value field).
    /// `None` on malformed input; `()` accepts anything and ignores it.
    fn parse_ascii(token: &[u8]) -> Option<Self>;
}

impl EdgeWeight for () {
    const IS_UNIT: bool = true;
    const SNAPSHOT_KIND: u8 = 0;

    #[inline]
    fn merge_parallel(self, _other: Self) -> Self {}

    #[inline]
    fn total_cmp(&self, _other: &Self) -> Ordering {
        Ordering::Equal
    }

    #[inline]
    fn to_f64(self) -> f64 {
        1.0
    }

    #[inline]
    fn from_f64(_x: f64) -> Self {}

    #[inline]
    fn parse_ascii(_token: &[u8]) -> Option<Self> {
        Some(())
    }
}

impl EdgeWeight for u32 {
    const SNAPSHOT_KIND: u8 = 1;

    #[inline]
    fn merge_parallel(self, other: Self) -> Self {
        self.max(other)
    }

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        if x.is_finite() {
            x.clamp(0.0, u32::MAX as f64) as u32
        } else {
            0
        }
    }

    #[inline]
    fn parse_ascii(token: &[u8]) -> Option<Self> {
        let s = std::str::from_utf8(token).ok()?;
        // Integer Matrix Market files store plain integers, but tolerate a
        // numeric-but-fractional field the way `from_f64` does.
        s.parse::<u32>().ok().or_else(|| {
            s.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .map(Self::from_f64)
        })
    }
}

impl EdgeWeight for f32 {
    const SNAPSHOT_KIND: u8 = 2;

    #[inline]
    fn merge_parallel(self, other: Self) -> Self {
        if other.total_cmp(&self) == Ordering::Greater {
            other
        } else {
            self
        }
    }

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f32::total_cmp(self, other)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline]
    fn parse_ascii(token: &[u8]) -> Option<Self> {
        let x = std::str::from_utf8(token).ok()?.parse::<f32>().ok()?;
        (!x.is_nan()).then_some(x)
    }
}

impl EdgeWeight for f64 {
    const SNAPSHOT_KIND: u8 = 3;

    #[inline]
    fn merge_parallel(self, other: Self) -> Self {
        if other.total_cmp(&self) == Ordering::Greater {
            other
        } else {
            self
        }
    }

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline]
    fn parse_ascii(token: &[u8]) -> Option<Self> {
        let x = std::str::from_utf8(token).ok()?.parse::<f64>().ok()?;
        (!x.is_nan()).then_some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weight_is_free_and_counts_as_one() {
        const { assert!(<() as EdgeWeight>::IS_UNIT) };
        assert_eq!(std::mem::size_of::<()>(), 0);
        assert_eq!(().to_f64(), 1.0);
        assert_eq!(<()>::parse_ascii(b"garbage"), Some(()));
        // A unit weights array allocates nothing.
        let v = vec![(); 1 << 20];
        assert_eq!(v.capacity() * std::mem::size_of::<()>(), 0);
    }

    #[test]
    fn merge_keeps_max() {
        assert_eq!(3u32.merge_parallel(7), 7);
        assert_eq!(7u32.merge_parallel(3), 7);
        assert_eq!(2.5f32.merge_parallel(2.25), 2.5);
        assert_eq!((-1.0f64).merge_parallel(-2.0), -1.0);
    }

    #[test]
    fn parse_ascii_accepts_numbers_rejects_junk() {
        assert_eq!(u32::parse_ascii(b"42"), Some(42));
        assert_eq!(u32::parse_ascii(b"4.9"), Some(4));
        assert_eq!(f32::parse_ascii(b"-2e3"), Some(-2000.0));
        assert_eq!(f64::parse_ascii(b"0.5"), Some(0.5));
        assert_eq!(f64::parse_ascii(b"x"), None);
        assert_eq!(u32::parse_ascii(b""), None);
        assert_eq!(f32::parse_ascii(b"nan"), None, "NaN weights rejected");
    }

    #[test]
    fn total_cmp_orders_floats_totally() {
        let mut v = vec![2.0f64, -1.0, f64::INFINITY, 0.5];
        v.sort_by(EdgeWeight::total_cmp);
        assert_eq!(v, vec![-1.0, 0.5, 2.0, f64::INFINITY]);
    }

    #[test]
    fn from_f64_round_trips_reasonably() {
        assert_eq!(u32::from_f64(3.7), 3);
        assert_eq!(u32::from_f64(-1.0), 0);
        assert_eq!(u32::from_f64(f64::NAN), 0);
        assert_eq!(f32::from_f64(1.5), 1.5);
    }
}
