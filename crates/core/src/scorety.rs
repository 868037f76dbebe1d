//! Score cell types for the antidiagonal kernels.
//!
//! §4.1.4 of the paper describes the *dual instruction issuing*
//! optimization: the IPU tile has separate integer and floating-point
//! pipelines, and the integer registers spilled in the inner loop, so
//! the authors reformulated `Sim` to return floats and moved the score
//! arithmetic to the FP pipeline. To mirror that design choice the
//! kernels here are generic over [`ScoreTy`], with an `i32` and an
//! `f32` instantiation that must produce identical alignments (all
//! realistic scores are small integers, exactly representable in
//! `f32`).

use crate::NEG_INF;

/// A DP score cell: either `i32` (integer pipeline) or `f32`
/// (floating-point pipeline, the paper's dual-issue variant).
pub trait ScoreTy: Copy + PartialOrd + std::fmt::Debug {
    /// The `-∞` sentinel.
    fn neg_inf() -> Self;
    /// Conversion from an integer score.
    fn from_i32(v: i32) -> Self;
    /// Conversion back to an integer score (exact for valid scores).
    fn to_i32(self) -> i32;
    /// Adds an integer penalty/bonus, keeping `-∞` absorbing.
    fn add_i32(self, v: i32) -> Self;
    /// Elementwise maximum.
    fn maxv(self, o: Self) -> Self;
    /// Whether this cell counts as pruned.
    fn is_dropped(self) -> bool;

    /// Views a cell buffer as raw `i32` lanes when the concrete cell
    /// type *is* `i32`.
    ///
    /// This is the hook the chunked kernel's `i32` compare-and-select
    /// sweep uses to reach integer lanes without `unsafe` transmutes
    /// or specialization: the `i32` impl returns the slice unchanged,
    /// every other cell type returns `None` and the caller falls back
    /// to the type-generic chunked sweep.
    #[inline(always)]
    fn as_i32_slice(cells: &[Self]) -> Option<&[i32]>
    where
        Self: Sized,
    {
        let _ = cells;
        None
    }

    /// Mutable variant of [`ScoreTy::as_i32_slice`].
    #[inline(always)]
    fn as_i32_slice_mut(cells: &mut [Self]) -> Option<&mut [i32]>
    where
        Self: Sized,
    {
        let _ = cells;
        None
    }
}

impl ScoreTy for i32 {
    #[inline(always)]
    fn neg_inf() -> Self {
        NEG_INF
    }

    #[inline(always)]
    fn from_i32(v: i32) -> Self {
        v
    }

    #[inline(always)]
    fn to_i32(self) -> i32 {
        self
    }

    #[inline(always)]
    fn add_i32(self, v: i32) -> Self {
        self.saturating_add(v)
    }

    #[inline(always)]
    fn maxv(self, o: Self) -> Self {
        self.max(o)
    }

    #[inline(always)]
    fn is_dropped(self) -> bool {
        crate::is_dropped(self)
    }

    #[inline(always)]
    fn as_i32_slice(cells: &[Self]) -> Option<&[i32]> {
        Some(cells)
    }

    #[inline(always)]
    fn as_i32_slice_mut(cells: &mut [Self]) -> Option<&mut [i32]> {
        Some(cells)
    }
}

impl ScoreTy for f32 {
    #[inline(always)]
    fn neg_inf() -> Self {
        f32::NEG_INFINITY
    }

    #[inline(always)]
    fn from_i32(v: i32) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_i32(self) -> i32 {
        if self.is_dropped() {
            NEG_INF
        } else {
            self as i32
        }
    }

    #[inline(always)]
    fn add_i32(self, v: i32) -> Self {
        // -∞ + x = -∞ in IEEE arithmetic: absorbing without a branch,
        // exactly the property the IPU kernel exploits.
        self + v as f32
    }

    #[inline(always)]
    fn maxv(self, o: Self) -> Self {
        // IEEE max; NaN cannot occur because -∞ is only ever added to
        // finite values.
        if self >= o {
            self
        } else {
            o
        }
    }

    #[inline(always)]
    fn is_dropped(self) -> bool {
        self == f32::NEG_INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_neg_inf_absorbs() {
        let v = <i32 as ScoreTy>::neg_inf();
        assert!(v.add_i32(-100).is_dropped());
        assert!(v.add_i32(100).is_dropped());
    }

    #[test]
    fn f32_neg_inf_absorbs() {
        let v = <f32 as ScoreTy>::neg_inf();
        assert!(v.add_i32(-100).is_dropped());
        assert!(v.add_i32(100).is_dropped());
        assert_eq!(v.to_i32(), NEG_INF);
    }

    #[test]
    fn roundtrip_exact_for_scores() {
        for s in [-100_000, -1, 0, 1, 42, 100_000] {
            assert_eq!(<i32 as ScoreTy>::from_i32(s).to_i32(), s);
            assert_eq!(<f32 as ScoreTy>::from_i32(s).to_i32(), s);
        }
    }

    #[test]
    fn i32_downcast_hook() {
        let mut a = [1i32, 2, 3];
        assert_eq!(<i32 as ScoreTy>::as_i32_slice(&a), Some(&[1, 2, 3][..]));
        assert!(<i32 as ScoreTy>::as_i32_slice_mut(&mut a).is_some());
        let mut b = [1.0f32, 2.0];
        assert!(<f32 as ScoreTy>::as_i32_slice(&b).is_none());
        assert!(<f32 as ScoreTy>::as_i32_slice_mut(&mut b).is_none());
    }

    #[test]
    fn max_prefers_larger() {
        assert_eq!(5i32.maxv(3), 5);
        assert_eq!(3.0f32.maxv(5.0), 5.0);
        assert_eq!(<f32 as ScoreTy>::neg_inf().maxv(1.0), 1.0);
    }
}
