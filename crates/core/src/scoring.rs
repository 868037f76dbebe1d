//! Scoring schemes.
//!
//! The paper evaluates DNA alignment with a match/mismatch score and
//! a linear gap penalty, and protein alignment (for PASTIS) with
//! BLOSUM62 and gap −2. Both are expressed through the [`Scorer`]
//! trait, which the aligners accept generically so the inner loop
//! monomorphizes to a direct table lookup.

use crate::alphabet::{Alphabet, PROTEIN_CODES};

/// A substitution scoring scheme with a linear gap penalty.
///
/// Implementors must be cheap to call: `sim` sits in the innermost
/// DP loop and is expected to inline to a comparison or a table load.
pub trait Scorer {
    /// Similarity score of aligning codes `a` and `b`.
    fn sim(&self, a: u8, b: u8) -> i32;

    /// Linear gap penalty (a negative number).
    fn gap(&self) -> i32;

    /// The alphabet this scorer is defined over.
    fn alphabet(&self) -> Alphabet;

    /// Score of a perfect `len`-symbol seed match, used when stitching
    /// the left and right extensions of a seed back together.
    ///
    /// The default assumes every seed symbol scores like a best-case
    /// match; [`Blosum62`] overrides this because residue self-scores
    /// differ.
    fn seed_score(&self, seed_h: &[u8], seed_v: &[u8]) -> i32 {
        debug_assert_eq!(seed_h.len(), seed_v.len());
        seed_h
            .iter()
            .zip(seed_v)
            .map(|(&a, &b)| self.sim(a, b))
            .sum()
    }

    /// Returns the scheme's parameters if it is a plain
    /// match/mismatch scheme.
    ///
    /// The chunked and batched kernels use this to replace the
    /// per-cell `sim` call (a table gather for matrix scorers) with a
    /// vector compare-and-select. Matrix scorers return `None` and
    /// keep the generic per-cell path.
    #[inline(always)]
    fn as_match_mismatch(&self) -> Option<MatchMismatch> {
        None
    }
}

/// Match/mismatch scoring for DNA with a linear gap penalty.
///
/// The paper's DNA experiments use `(+1, −1, −1)`; LOGAN's defaults
/// are the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MatchMismatch {
    /// Score for `a == b` (positive).
    pub match_score: i32,
    /// Score for `a != b` (negative).
    pub mismatch_score: i32,
    /// Linear gap penalty (negative).
    pub gap_penalty: i32,
}

impl MatchMismatch {
    /// Creates a scheme; `mat` should be positive, `mis` and `gap`
    /// negative.
    pub fn new(mat: i32, mis: i32, gap: i32) -> Self {
        Self {
            match_score: mat,
            mismatch_score: mis,
            gap_penalty: gap,
        }
    }

    /// The paper's DNA defaults: `+1 / −1 / −1`.
    pub fn dna_default() -> Self {
        Self::new(1, -1, -1)
    }
}

impl Scorer for MatchMismatch {
    #[inline(always)]
    fn sim(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.match_score
        } else {
            self.mismatch_score
        }
    }

    #[inline(always)]
    fn gap(&self) -> i32 {
        self.gap_penalty
    }

    fn alphabet(&self) -> Alphabet {
        Alphabet::Dna
    }

    #[inline(always)]
    fn as_match_mismatch(&self) -> Option<MatchMismatch> {
        Some(*self)
    }
}

/// The standard 24×24 BLOSUM62 substitution matrix in
/// `ARNDCQEGHILKMFPSTWYVBZX*` order (Henikoff & Henikoff 1992, as
/// shipped by NCBI).
#[rustfmt::skip]
pub const BLOSUM62: [[i8; PROTEIN_CODES]; PROTEIN_CODES] = [
    //A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
    [ 4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4], // A
    [-1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4], // R
    [-2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4], // N
    [-2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4], // D
    [ 0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4], // C
    [-1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4], // Q
    [-1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // E
    [ 0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4], // G
    [-2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4], // H
    [-1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4], // I
    [-1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4], // L
    [-1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4], // K
    [-1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4], // M
    [-2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4], // F
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4], // P
    [ 1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4], // S
    [ 0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4], // T
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4], // W
    [-2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4], // Y
    [ 0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4], // V
    [-2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4], // B
    [-1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // Z
    [ 0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4], // X
    [-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1], // *
];

/// BLOSUM62 protein scoring with a linear gap penalty.
///
/// The paper's PASTIS experiments use gap −2 (Selvitopi et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Blosum62 {
    /// Linear gap penalty (negative).
    pub gap_penalty: i32,
}

impl Blosum62 {
    /// BLOSUM62 with the given linear gap penalty.
    pub fn new(gap: i32) -> Self {
        Self { gap_penalty: gap }
    }

    /// The PASTIS configuration from the paper: gap −2.
    pub fn pastis_default() -> Self {
        Self::new(-2)
    }
}

impl Scorer for Blosum62 {
    #[inline(always)]
    fn sim(&self, a: u8, b: u8) -> i32 {
        BLOSUM62[a as usize][b as usize] as i32
    }

    #[inline(always)]
    fn gap(&self) -> i32 {
        self.gap_penalty
    }

    fn alphabet(&self) -> Alphabet {
        Alphabet::Protein
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_protein;

    #[test]
    fn match_mismatch_basics() {
        let s = MatchMismatch::dna_default();
        assert_eq!(s.sim(0, 0), 1);
        assert_eq!(s.sim(0, 1), -1);
        assert_eq!(s.gap(), -1);
        assert_eq!(s.alphabet(), Alphabet::Dna);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // symmetry check reads (a, b) and (b, a)
    fn blosum62_is_symmetric() {
        for a in 0..PROTEIN_CODES {
            for b in 0..PROTEIN_CODES {
                assert_eq!(BLOSUM62[a][b], BLOSUM62[b][a], "asymmetric at ({a},{b})");
            }
        }
    }

    #[test]
    fn blosum62_known_values() {
        let s = Blosum62::pastis_default();
        let w = encode_protein(b"W")[0];
        let a = encode_protein(b"A")[0];
        let c = encode_protein(b"C")[0];
        let e = encode_protein(b"E")[0];
        let q = encode_protein(b"Q")[0];
        assert_eq!(s.sim(w, w), 11);
        assert_eq!(s.sim(a, a), 4);
        assert_eq!(s.sim(c, c), 9);
        assert_eq!(s.sim(e, q), 2);
        assert_eq!(s.sim(a, w), -3);
        assert_eq!(s.gap(), -2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // diagonal check
    fn blosum62_diagonal_positive_for_residues() {
        // Every concrete residue must have a positive self-score.
        for a in 0..20 {
            assert!(BLOSUM62[a][a] > 0, "self-score of residue {a} not positive");
        }
    }

    #[test]
    fn match_mismatch_downcast_hook() {
        let s = MatchMismatch::new(2, -3, -4);
        assert_eq!(s.as_match_mismatch(), Some(s));
        assert_eq!(Blosum62::pastis_default().as_match_mismatch(), None);
    }

    #[test]
    fn seed_score_sums_sim() {
        let s = MatchMismatch::dna_default();
        assert_eq!(s.seed_score(&[0, 1, 2], &[0, 1, 2]), 3);
        assert_eq!(s.seed_score(&[0, 1, 2], &[0, 3, 2]), 1);

        let p = Blosum62::pastis_default();
        let h = encode_protein(b"WAC");
        assert_eq!(p.seed_score(&h, &h), 11 + 4 + 9);
    }
}
