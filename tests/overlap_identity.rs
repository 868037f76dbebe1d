//! Differential test of overlap detection against the HashMap oracle.
//!
//! `pipelines::overlap` counts k-mers by sorting and answers every
//! sequence k-mer with one probe of an inverted substitute index. The
//! oracle below is the straightforward path it replaced: SipHash
//! counting, per-k-mer repacking, and a `HashMap` lookup for every
//! BLOSUM62 substitute of every sequence k-mer. The property asserts
//! that both build the same k-mer matrix (same `Csr`, same reliable
//! count) and the same `detect_overlaps` comparisons over DNA and
//! protein, with substitution on and off, repeat masking, multi-seed,
//! sequences shorter than k, duplicate sequences and empty sets.
//!
//! DNA inputs are concrete bases only: on `N` the two paths differ on
//! purpose. The oracle packs `N` (code 4) into 2 bits, where `AN`
//! aliases `CA`; the new path skips every window holding an `N`.
//! `dna_n_never_aliases_a_concrete_base` pins that difference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::alphabet::{encode_dna, Alphabet, DNA_N, PROTEIN_CODES};
use xdrop_ipu::core::scoring::BLOSUM62;
use xdrop_ipu::core::workload::SeqSet;
use xdrop_ipu::pipelines::kmer::{self, KmerIndex};
use xdrop_ipu::pipelines::overlap::{
    build_kmer_matrix, detect_overlaps, overlaps_from_matrix, OverlapConfig,
};
use xdrop_ipu::pipelines::spmat::Csr;

/// The HashMap k-mer matrix builder overlap detection used before the
/// sort-based rewrite.
mod oracle {
    use super::*;
    use std::collections::HashMap;

    fn bits(alphabet: Alphabet) -> u32 {
        match alphabet {
            Alphabet::Dna => 2,
            Alphabet::Protein => 5,
        }
    }

    fn pack(seq: &[u8], pos: usize, k: usize, alphabet: Alphabet) -> u64 {
        let b = bits(alphabet);
        let mut out = 0u64;
        for &s in &seq[pos..pos + k] {
            out = (out << b) | s as u64;
        }
        out
    }

    fn unpack(kmer: u64, k: usize, alphabet: Alphabet) -> Vec<u8> {
        let b = bits(alphabet);
        let mask = (1u64 << b) - 1;
        let mut out = vec![0u8; k];
        let mut km = kmer;
        for i in (0..k).rev() {
            out[i] = (km & mask) as u8;
            km >>= b;
        }
        out
    }

    pub fn kmers_of(seq: &[u8], k: usize, alphabet: Alphabet) -> Vec<(u64, u32)> {
        if seq.len() < k || k == 0 {
            return Vec::new();
        }
        (0..=seq.len() - k)
            .map(|p| (pack(seq, p, k, alphabet), p as u32))
            .collect()
    }

    fn count_kmers(seqs: &SeqSet, k: usize) -> HashMap<u64, u32> {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (si, s) in seqs.iter() {
            for (km, _) in kmers_of(s, k, seqs.alphabet) {
                if seen.insert(km, si) != Some(si) {
                    *counts.entry(km).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    fn reliable_kmers(counts: &HashMap<u64, u32>, min: u32, max: u32) -> HashMap<u64, u32> {
        let mut keep: Vec<u64> = counts
            .iter()
            .filter(|&(_, &c)| c >= min && c <= max)
            .map(|(&km, _)| km)
            .collect();
        keep.sort_unstable();
        keep.into_iter()
            .enumerate()
            .map(|(i, km)| (km, i as u32))
            .collect()
    }

    fn substitute_kmers(kmer: u64, k: usize, min_sub_score: i32) -> Vec<u64> {
        let alphabet = Alphabet::Protein;
        let syms = unpack(kmer, k, alphabet);
        let mut out = vec![kmer];
        let b = bits(alphabet);
        for (pos, &a) in syms.iter().enumerate() {
            for r in 0..20u8 {
                if r != a && BLOSUM62[a as usize][r as usize] as i32 >= min_sub_score {
                    let shift = b * (k - 1 - pos) as u32;
                    let mask = ((1u64 << b) - 1) << shift;
                    out.push((kmer & !mask) | ((r as u64) << shift));
                }
            }
        }
        out
    }

    /// Dense ids of the reliable k-mers, assigned in sorted order.
    pub fn reliable_ids(seqs: &SeqSet, cfg: &OverlapConfig) -> HashMap<u64, u32> {
        let counts = count_kmers(seqs, cfg.k);
        reliable_kmers(&counts, cfg.min_kmer_freq, cfg.max_kmer_freq)
    }

    /// The ids sequence k-mer `km` emits into its row, in emission
    /// order.
    pub fn seeded_ids(
        km: u64,
        alphabet: Alphabet,
        cfg: &OverlapConfig,
        ids: &HashMap<u64, u32>,
    ) -> Vec<u32> {
        let emit: Vec<u64> = match (cfg.substitute_min_score, alphabet) {
            (Some(th), Alphabet::Protein) => substitute_kmers(km, cfg.k, th),
            _ => vec![km],
        };
        emit.iter().filter_map(|e| ids.get(e).copied()).collect()
    }

    pub fn build_kmer_matrix(seqs: &SeqSet, cfg: &OverlapConfig) -> (Csr<u32>, usize) {
        let alphabet = seqs.alphabet;
        let ids = reliable_ids(seqs, cfg);
        let mut triplets: Vec<(u32, u32, u32)> = Vec::new();
        for (sid, s) in seqs.iter() {
            for (km, pos) in kmers_of(s, cfg.k, alphabet) {
                for mid in seeded_ids(km, alphabet, cfg, &ids) {
                    triplets.push((sid, mid, pos));
                }
            }
        }
        let n = ids.len();
        let m = Csr::from_triplets(seqs.len(), n, triplets, |a, b| *a = (*a).min(b));
        (m, n)
    }
}

/// A sequence set drawn from a few roots: each sequence is a
/// substring of a root with point substitutions (half of them
/// BLOSUM62-conservative for protein, so substitute seeds occur),
/// and some are exact duplicates of an earlier sequence.
fn seq_set(alphabet: Alphabet, seed: u64, n: usize, max_len: usize, err: f64) -> SeqSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let codes = match alphabet {
        Alphabet::Dna => alphabet.concrete_codes(),
        Alphabet::Protein => PROTEIN_CODES,
    };
    let roots: Vec<Vec<u8>> = (0..rng.gen_range(1..4))
        .map(|_| {
            (0..max_len)
                .map(|_| rng.gen_range(0..codes) as u8)
                .collect()
        })
        .collect();
    let mut set = SeqSet::new(alphabet);
    for i in 0..n {
        if i > 0 && rng.gen_bool(0.15) {
            let dup = set.get(rng.gen_range(0..i) as u32).to_vec();
            set.push(dup);
            continue;
        }
        let root = &roots[rng.gen_range(0..roots.len())];
        let lo = rng.gen_range(0..=max_len);
        let hi = rng.gen_range(lo..=max_len);
        let mut s = root[lo..hi].to_vec();
        for c in &mut s {
            if rng.gen_bool(err) {
                let close: Vec<u8> = match alphabet {
                    Alphabet::Protein => (0..PROTEIN_CODES as u8)
                        .filter(|&a| a != *c && BLOSUM62[a as usize][*c as usize] >= 1)
                        .collect(),
                    Alphabet::Dna => Vec::new(),
                };
                *c = if !close.is_empty() && rng.gen_bool(0.5) {
                    close[rng.gen_range(0..close.len())]
                } else {
                    rng.gen_range(0..codes) as u8
                };
            }
        }
        set.push(s);
    }
    set
}

fn config() -> impl Strategy<Value = (u32, u32, u32, Option<i32>, bool)> {
    (
        1u32..4,
        1u32..3,
        max_freq(),
        (0usize..4).prop_map(|i| [None, Some(1), Some(2), Some(4)][i]),
        any::<bool>(),
    )
}

/// Small repeat-masking bounds most of the time, the PASTIS default
/// otherwise.
fn max_freq() -> impl Strategy<Value = u32> {
    (0usize..5).prop_map(|i| [1, 2, 3, 4, 256][i])
}

fn check(set: &SeqSet, cfg: &OverlapConfig) -> Result<(), TestCaseError> {
    // Layer by layer: rolled k-mers, reliable ids, and the id list
    // each sequence k-mer's single index probe returns — which must
    // hold no duplicates, though the matrix merge would hide them.
    let alphabet = set.alphabet;
    let ids = oracle::reliable_ids(set, cfg);
    let reliable = kmer::reliable_kmers(
        set.iter().map(|(_, s)| s),
        cfg.k,
        alphabet,
        cfg.min_kmer_freq,
        cfg.max_kmer_freq,
    );
    let mut want_reliable: Vec<u64> = ids.keys().copied().collect();
    want_reliable.sort_unstable();
    prop_assert_eq!(&reliable, &want_reliable, "reliable k-mers for {:?}", cfg);
    let index = KmerIndex::build(&reliable, cfg.k, alphabet, cfg.substitute_min_score);
    for (_, s) in set.iter() {
        let rolled: Vec<(u64, u32)> = kmer::kmers(s, cfg.k, alphabet).collect();
        prop_assert_eq!(&rolled, &oracle::kmers_of(s, cfg.k, alphabet));
        for (x, _) in rolled {
            let mut got = index.get(x).to_vec();
            let mut want = oracle::seeded_ids(x, alphabet, cfg, &ids);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "ids seeded by {:#x} under {:?}", x, cfg);
        }
    }

    let (want, want_n) = oracle::build_kmer_matrix(set, cfg);
    let (got, got_n) = build_kmer_matrix(set, cfg);
    prop_assert_eq!(got_n, want_n, "reliable count for {:?}", cfg);
    prop_assert_eq!(&got, &want, "k-mer matrix for {:?}", cfg);
    let want_w = overlaps_from_matrix(set, cfg, &want);
    let got_w = detect_overlaps(set, cfg);
    prop_assert_eq!(got_w.comparisons, want_w.comparisons, "{:?}", cfg);
    Ok(())
}

fn overlap_config(k: usize, c: (u32, u32, u32, Option<i32>, bool)) -> OverlapConfig {
    OverlapConfig {
        k,
        min_seeds: c.0,
        min_kmer_freq: c.1,
        max_kmer_freq: c.2,
        substitute_min_score: c.3,
        multi_seed: c.4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dna_matrix_matches_hashmap_oracle(
        seed: u64,
        n in 0usize..14,
        k in (0usize..4).prop_map(|i| [5, 17, 31, 32][i]),
        err in 0.0f64..0.05,
        c in config(),
    ) {
        let set = seq_set(Alphabet::Dna, seed, n, 160, err);
        check(&set, &overlap_config(k, c))?;
    }

    #[test]
    fn protein_matrix_matches_hashmap_oracle(
        seed: u64,
        n in 0usize..14,
        k in (0usize..3).prop_map(|i| [3, 6, 12][i]),
        err in 0.0f64..0.2,
        c in config(),
    ) {
        let set = seq_set(Alphabet::Protein, seed, n, 100, err);
        check(&set, &overlap_config(k, c))?;
    }
}

#[test]
fn empty_and_short_sets_match_oracle() {
    for alphabet in [Alphabet::Dna, Alphabet::Protein] {
        let mut set = SeqSet::new(alphabet);
        let mut cfg = OverlapConfig::pastis();
        cfg.min_kmer_freq = 1;
        check(&set, &cfg).unwrap();
        // Every sequence shorter than k, one of them empty.
        set.push(Vec::new());
        set.push(vec![1, 2, 3]);
        set.push(vec![1, 2, 3]);
        check(&set, &cfg).unwrap();
        assert_eq!(build_kmer_matrix(&set, &cfg).1, 0);
    }
}

/// `N` (code 4) needs 3 bits; the oracle's 2-bit packing ORs it into
/// the previous base, so `AN` packs like `CA` and the two reads below
/// share sixteen 17-mers that do not match. The new path skips every
/// window holding an `N`, so it emits no comparison, while a read
/// with an `N` still overlaps its true mate through its `N`-free
/// k-mers.
#[test]
fn dna_n_never_aliases_a_concrete_base() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut random = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4)).collect() };
    let (p, s) = (random(15), random(15));
    let read = |pair: &[u8], left: Vec<u8>, right: Vec<u8>| {
        [left, p.clone(), encode_dna(pair), s.clone(), right].concat()
    };
    let mut set = SeqSet::new(Alphabet::Dna);
    set.push(read(b"AN", random(40), random(40)));
    set.push(read(b"CA", random(40), random(40)));
    assert!(set.get(0).contains(&DNA_N));
    let cfg = OverlapConfig::elba(17);
    let (aliased, _) = oracle::build_kmer_matrix(&set, &cfg);
    assert_eq!(
        overlaps_from_matrix(&set, &cfg, &aliased).comparisons.len(),
        1,
        "the 2-bit packing aliases AN and CA"
    );
    assert!(detect_overlaps(&set, &cfg).comparisons.is_empty());

    // Reads 0–600 and 400–1000 of one genome, an N inside the
    // overlap of the second read.
    let genome = random(1000);
    let mut mate = genome[400..1000].to_vec();
    mate[100] = DNA_N;
    let mut set = SeqSet::new(Alphabet::Dna);
    set.push(genome[0..600].to_vec());
    set.push(mate);
    let w = detect_overlaps(&set, &cfg);
    assert_eq!(w.comparisons.len(), 1);
    let c = w.comparisons[0];
    assert_eq!((c.h, c.v), (0, 1));
    let (h, v) = (set.get(c.h), set.get(c.v));
    let seed_h = &h[c.seed.h_pos..c.seed.h_pos + 17];
    assert_eq!(seed_h, &v[c.seed.v_pos..c.seed.v_pos + 17]);
    assert!(!seed_h.contains(&DNA_N));
    assert_eq!(c.seed.h_pos as i64 - c.seed.v_pos as i64, 400);
}

#[test]
#[should_panic(expected = "outside 1..=32")]
fn detect_overlaps_rejects_k_beyond_packed_width() {
    let mut set = SeqSet::new(Alphabet::Dna);
    set.push(vec![0; 64]);
    detect_overlaps(&set, &OverlapConfig::elba(40));
}
