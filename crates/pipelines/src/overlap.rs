//! Overlap detection as sparse matrix algebra (`A Aᵀ` / `A S Aᵀ`).
//!
//! `A` is the |sequences| × |reliable k-mers| matrix whose nonzero
//! `(s, m)` stores the first position of k-mer `m` on sequence `s`.
//! The sparse product `C = A Aᵀ` then has a nonzero `(i, j)` exactly
//! when sequences `i` and `j` share a reliable k-mer; the semiring
//! accumulates the number of shared k-mers and the first two seed
//! position pairs. Pairs with at least `min_seeds` shared k-mers
//! (both pipelines use 2, §5.3) become workload comparisons.
//!
//! For PASTIS, each sequence also emits *substitute* k-mers
//! (BLOSUM62-conservative single substitutions) — the `S` in
//! `A S Aᵀ` — so quasi-exact protein seeds are found too.

use crate::kmer;
use crate::spmat::{spgemm, Csr};
use xdrop_core::extension::SeedMatch;
use xdrop_core::workload::{Comparison, SeqSet, Workload};

/// Overlap-detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OverlapConfig {
    /// k-mer length (ELBA: 17/31 on DNA; PASTIS: 6 on protein).
    pub k: usize,
    /// Minimum shared k-mers per pair (both pipelines require 2).
    pub min_seeds: u32,
    /// Reliable-range lower bound: k-mers must occur in ≥ this many
    /// sequences.
    pub min_kmer_freq: u32,
    /// Reliable-range upper bound (repeat masking).
    pub max_kmer_freq: u32,
    /// For protein: minimum BLOSUM62 score for a position to be
    /// substituted when emitting quasi-exact k-mers (`None` = exact
    /// k-mers only).
    pub substitute_min_score: Option<i32>,
    /// Emit one comparison per *distinct* seed (up to two per pair)
    /// instead of one per pair. Real pipelines align a pair from
    /// several seeds and keep the best; the paper's detached tile
    /// data structures exist precisely so these extra seeds do not
    /// retransmit the sequences (§4.1.1) — they become parallel
    /// edges in the comparison graph.
    pub multi_seed: bool,
}

impl OverlapConfig {
    /// ELBA-style DNA configuration.
    pub fn elba(k: usize) -> Self {
        Self {
            k,
            min_seeds: 2,
            min_kmer_freq: 2,
            max_kmer_freq: 64,
            substitute_min_score: None,
            multi_seed: false,
        }
    }

    /// PASTIS-style protein configuration (k = 6, substitute
    /// k-mers on).
    pub fn pastis() -> Self {
        Self {
            k: 6,
            min_seeds: 2,
            min_kmer_freq: 2,
            max_kmer_freq: 256,
            substitute_min_score: Some(2),
            multi_seed: false,
        }
    }
}

/// Accumulator for one overlap-candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OverlapAcc {
    count: u32,
    first: (u32, u32),
    second: (u32, u32),
}

/// Builds the |sequences| × |reliable k-mers| position matrix.
///
/// Returns the matrix and the number of reliable k-mers. With
/// substitution enabled, a sequence's row also contains entries for
/// the reliable k-mers its k-mers seed by one conservative
/// substitution (at the same position). Counting sorts, and each
/// sequence k-mer costs one probe of the inverted [`kmer::KmerIndex`].
///
/// # Panics
/// If `cfg.k` is outside `1..=kmer::max_k(seqs.alphabet)`.
pub fn build_kmer_matrix(seqs: &SeqSet, cfg: &OverlapConfig) -> (Csr<u32>, usize) {
    let alphabet = seqs.alphabet;
    let reliable = kmer::reliable_kmers(
        seqs.iter().map(|(_, s)| s),
        cfg.k,
        alphabet,
        cfg.min_kmer_freq,
        cfg.max_kmer_freq,
    );
    let index = kmer::KmerIndex::build(&reliable, cfg.k, alphabet, cfg.substitute_min_score);
    let mut triplets: Vec<(u32, u32, u32)> = Vec::new();
    for (sid, s) in seqs.iter() {
        for (km, pos) in kmer::kmers(s, cfg.k, alphabet) {
            triplets.extend(index.get(km).iter().map(|&mid| (sid, mid, pos)));
        }
    }
    // Keep the *first* position when a k-mer repeats in a sequence.
    let n = reliable.len();
    let m = Csr::from_triplets(seqs.len(), n, triplets, |a, b| *a = (*a).min(b));
    (m, n)
}

/// Detects overlaps and returns them as an alignment [`Workload`]
/// sharing the input sequence pool.
///
/// # Panics
/// If `cfg.k` is outside `1..=kmer::max_k(seqs.alphabet)` (32 for
/// DNA, 12 for protein): a longer k-mer does not fit the packed
/// `u64`, and truncating it would seed on a shorter k than labelled.
pub fn detect_overlaps(seqs: &SeqSet, cfg: &OverlapConfig) -> Workload {
    kmer::assert_k(cfg.k, seqs.alphabet);
    let (a, _) = build_kmer_matrix(seqs, cfg);
    overlaps_from_matrix(seqs, cfg, &a)
}

/// The overlap stage after [`build_kmer_matrix`]: forms `C = A Aᵀ`
/// from the k-mer position matrix `a` and keeps the pairs with at
/// least `cfg.min_seeds` shared k-mers as comparisons.
pub fn overlaps_from_matrix(seqs: &SeqSet, cfg: &OverlapConfig, a: &Csr<u32>) -> Workload {
    let at = a.transpose();
    let c = spgemm(
        a,
        &at,
        |&pa, &pb| OverlapAcc {
            count: 1,
            first: (pa, pb),
            second: (u32::MAX, u32::MAX),
        },
        |acc, v| {
            if acc.count == 1 && v.first != acc.first {
                acc.second = v.first;
            }
            acc.count += 1;
        },
    );
    let mut w = Workload {
        seqs: seqs.clone(),
        comparisons: Vec::new(),
    };
    for i in 0..c.rows {
        for (j, acc) in c.row(i) {
            // Upper triangle only; no self-overlaps.
            if (j as usize) <= i || acc.count < cfg.min_seeds {
                continue;
            }
            // Seed(s): the first shared k-mer always, the second
            // distinct one too under multi_seed (a parallel edge in
            // the comparison graph — no sequence retransmission).
            let (h, v) = (i as u32, j);
            let mut seeds = vec![acc.first];
            if cfg.multi_seed && acc.second != (u32::MAX, u32::MAX) {
                seeds.push(acc.second);
            }
            for (hp, vp) in seeds {
                let seed = SeedMatch::new(hp as usize, vp as usize, cfg.k);
                // Validate defensively: substitution seeds are
                // quasi-exact but must stay in bounds.
                if seed.validate(w.seqs.seq_len(h), w.seqs.seq_len(v)).is_ok() {
                    w.comparisons.push(Comparison::new(h, v, seed));
                }
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;

    /// Three reads from one genome: 0–600, 400–1000, 1200–1800.
    /// Reads 0 and 1 overlap by 200 bp; read 2 overlaps nothing.
    fn read_set() -> SeqSet {
        let mut rng = StdRng::seed_from_u64(99);
        let genome: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..4)).collect();
        let mut set = SeqSet::new(Alphabet::Dna);
        set.push(genome[0..600].to_vec());
        set.push(genome[400..1000].to_vec());
        set.push(genome[1200..1800].to_vec());
        set
    }

    #[test]
    fn overlapping_reads_detected() {
        let set = read_set();
        let w = detect_overlaps(&set, &OverlapConfig::elba(17));
        assert_eq!(w.comparisons.len(), 1, "exactly the 0–1 pair");
        let c = &w.comparisons[0];
        assert_eq!((c.h, c.v), (0, 1));
        // Seed must be an exact shared 17-mer.
        let h = w.seqs.get(c.h);
        let v = w.seqs.get(c.v);
        assert_eq!(
            &h[c.seed.h_pos..c.seed.h_pos + 17],
            &v[c.seed.v_pos..c.seed.v_pos + 17]
        );
        // And the positions must be consistent with the 400-offset.
        assert_eq!(c.seed.h_pos as i64 - c.seed.v_pos as i64, 400);
    }

    #[test]
    fn multi_seed_emits_parallel_edges() {
        let set = read_set();
        let mut cfg = OverlapConfig::elba(17);
        cfg.multi_seed = true;
        let w = detect_overlaps(&set, &cfg);
        assert_eq!(w.comparisons.len(), 2, "two seeds for the 0–1 pair");
        assert_eq!(
            (w.comparisons[0].h, w.comparisons[0].v),
            (w.comparisons[1].h, w.comparisons[1].v)
        );
        assert_ne!(w.comparisons[0].seed, w.comparisons[1].seed);
        // Both seeds are exact and consistent with the genomic
        // offset.
        for c in &w.comparisons {
            let h = w.seqs.get(c.h);
            let v = w.seqs.get(c.v);
            assert_eq!(
                &h[c.seed.h_pos..c.seed.h_pos + 17],
                &v[c.seed.v_pos..c.seed.v_pos + 17]
            );
            assert_eq!(c.seed.h_pos as i64 - c.seed.v_pos as i64, 400);
        }
    }

    #[test]
    fn min_seeds_threshold() {
        let set = read_set();
        let mut cfg = OverlapConfig::elba(17);
        // An overlap of 200 bp shares ~184 17-mers; demanding more
        // kills it.
        cfg.min_seeds = 1_000;
        let w = detect_overlaps(&set, &cfg);
        assert!(w.comparisons.is_empty());
    }

    #[test]
    fn repeat_masking_suppresses_repeats() {
        // All sequences share a repeat; reliable-range filtering with
        // max_kmer_freq below the repeat count must suppress it.
        //
        // Each prefix is forced to end in a distinct base so that
        // the k-mers straddling the prefix/repeat junction are
        // unique per sequence; otherwise two prefixes agreeing on
        // their last j bases (probability 4^-j per pair) would share
        // a junction k-mer of sub-repeat frequency and witness a
        // legitimate (non-repeat) overlap, turning this into a test
        // of RNG luck.
        let mut set = SeqSet::new(Alphabet::Dna);
        let repeat: Vec<u8> = (0..60).map(|i| ((i * 7) % 4) as u8).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..4u8 {
            let mut s: Vec<u8> = (0..100).map(|_| rng.gen_range(0..4)).collect();
            s[99] = i;
            s.extend_from_slice(&repeat);
            set.push(s);
        }
        let mut cfg = OverlapConfig::elba(17);
        cfg.max_kmer_freq = 3; // repeat occurs in 4 sequences
        let w = detect_overlaps(&set, &cfg);
        assert!(
            w.comparisons.is_empty(),
            "repeat-only matches must be masked"
        );
    }

    #[test]
    fn protein_substitute_kmers_find_quasi_exact_overlaps() {
        use xdrop_core::alphabet::encode_protein;
        // Two proteins identical except one conservative substitution
        // (W→Y, BLOSUM62 = 2) inside every shared k-mer window.
        let mut set = SeqSet::new(Alphabet::Protein);
        let a = encode_protein(b"MKTAYIAKQRQISFVKSHFSRQWEERLGLIEV");
        let mut b = a.clone();
        let w_code = encode_protein(b"W")[0];
        let y_code = encode_protein(b"Y")[0];
        let wpos = a.iter().position(|&c| c == w_code).unwrap();
        b[wpos] = y_code;
        set.push(a);
        set.push(b);
        let mut cfg = OverlapConfig::pastis();
        cfg.min_kmer_freq = 1; // tiny example: most k-mers unique
        let exact_only = OverlapConfig {
            substitute_min_score: None,
            ..cfg
        };
        let w_exact = detect_overlaps(&set, &exact_only);
        let w_sub = detect_overlaps(&set, &cfg);
        // Both find the pair (plenty of exact seeds away from the
        // substitution), but substitution finds strictly more seeds.
        assert_eq!(w_exact.comparisons.len(), 1);
        assert_eq!(w_sub.comparisons.len(), 1);
    }

    #[test]
    fn empty_input() {
        let set = SeqSet::new(Alphabet::Dna);
        let w = detect_overlaps(&set, &OverlapConfig::elba(17));
        assert!(w.comparisons.is_empty());
    }
}
