//! k-mer extraction, counting, and the substitute-k-mer index.
//!
//! ELBA extracts DNA k-mers (k = 17 or 31) into a
//! |k-mers| × |sequences| matrix; PASTIS uses protein k-mers
//! (k = 6) and additionally *substitute* k-mers — near-identical
//! k-mers under BLOSUM62 — because exact protein seeds lose too much
//! sensitivity (§2.4, the `S` in `A S Aᵀ`).
//!
//! Everything here is hash-library-free and allocates per call, not
//! per k-mer: k-mers are rolled into a packed `u64` one symbol at a
//! time ([`kmers`]), counted by sorting ([`reliable_kmers`]), and
//! looked up in an inverted substitute index ([`KmerIndex`]) that
//! answers every sequence k-mer with one table probe.

use xdrop_core::alphabet::{Alphabet, PROTEIN_CODES};
use xdrop_core::scoring::BLOSUM62;

/// Bits per symbol for packing (2 for DNA, 5 for protein).
fn bits(alphabet: Alphabet) -> u32 {
    match alphabet {
        Alphabet::Dna => 2,
        Alphabet::Protein => 5,
    }
}

/// Symbol codes at or above this bound end a k-mer run. DNA packs 2
/// bits per base, so `N` (code 4) would alias a concrete base and is
/// skipped; every protein code (ambiguous `B`/`Z`/`X`/`*` included)
/// fits its 5 bits and is kept.
fn symbol_limit(alphabet: Alphabet) -> u8 {
    match alphabet {
        Alphabet::Dna => alphabet.concrete_codes() as u8,
        Alphabet::Protein => 1 << bits(alphabet),
    }
}

/// Maximum k that fits a packed `u64` for this alphabet.
pub fn max_k(alphabet: Alphabet) -> usize {
    (64 / bits(alphabet)) as usize
}

/// Panics unless `k` is in `1..=max_k(alphabet)`: a longer k-mer does
/// not fit the packed `u64`, and truncating it would seed on a
/// shorter k than labelled.
pub(crate) fn assert_k(k: usize, alphabet: Alphabet) {
    let max = max_k(alphabet);
    assert!((1..=max).contains(&k), "k = {k} outside 1..={max}");
}

/// Rolling iterator over the `(packed k-mer, position)` pairs of a
/// sequence; see [`kmers`].
#[derive(Debug, Clone)]
pub struct Kmers<'a> {
    seq: &'a [u8],
    /// Index of the next symbol to roll in.
    pos: usize,
    k: usize,
    bits: u32,
    mask: u64,
    limit: u8,
    kmer: u64,
    run: usize,
}

impl Iterator for Kmers<'_> {
    type Item = (u64, u32);

    #[inline]
    fn next(&mut self) -> Option<(u64, u32)> {
        while let Some(&c) = self.seq.get(self.pos) {
            self.pos += 1;
            if c >= self.limit {
                self.run = 0;
                continue;
            }
            self.kmer = ((self.kmer << self.bits) | c as u64) & self.mask;
            self.run += 1;
            if self.run >= self.k {
                return Some((self.kmer, (self.pos - self.k) as u32));
            }
        }
        None
    }
}

/// All `(packed k-mer, position)` pairs of a sequence, rolled one
/// symbol at a time (`kmer = ((kmer << bits) | code) & mask`). DNA
/// windows that contain an `N` are skipped and the roll restarts
/// after it; see `symbol_limit`.
///
/// # Panics
/// If `k` is outside `1..=max_k(alphabet)`.
pub fn kmers(seq: &[u8], k: usize, alphabet: Alphabet) -> Kmers<'_> {
    assert_k(k, alphabet);
    let bits = bits(alphabet);
    let width = bits * k as u32;
    Kmers {
        seq,
        pos: 0,
        k,
        bits,
        mask: if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        },
        limit: symbol_limit(alphabet),
        kmer: 0,
        run: 0,
    }
}

/// The reliable k-mers, sorted ascending: those present in at least
/// `min` and at most `max` distinct sequences (k-mers above `max` are
/// repeats that blow up the overlap matrix; below `min` they cannot
/// witness an overlap). A k-mer's index in the result is its dense
/// id.
///
/// This is the ELBA k-mer counting stage done by sorting: each
/// sequence contributes its distinct k-mers once (so repeats inside
/// one read don't inflate the count), one sort groups them, and a
/// run's length is the k-mer's sequence count.
pub fn reliable_kmers<'a>(
    seqs: impl Iterator<Item = &'a [u8]>,
    k: usize,
    alphabet: Alphabet,
    min: u32,
    max: u32,
) -> Vec<u64> {
    let mut all: Vec<u64> = Vec::new();
    let mut one: Vec<u64> = Vec::new();
    for s in seqs {
        one.clear();
        one.extend(kmers(s, k, alphabet).map(|(km, _)| km));
        one.sort_unstable();
        one.dedup();
        all.extend_from_slice(&one);
    }
    all.sort_unstable();
    let mut kept = 0;
    let mut start = 0;
    while start < all.len() {
        let km = all[start];
        let end = start + all[start..].partition_point(|&x| x == km);
        let count = end - start;
        if (min as usize..=max as usize).contains(&count) {
            all[kept] = km;
            kept += 1;
        }
        start = end;
    }
    all.truncate(kept);
    all.shrink_to_fit();
    all
}

/// Reverse complement of a packed DNA k-mer.
pub fn revcomp_kmer(kmer: u64, k: usize) -> u64 {
    let mut out = 0u64;
    let mut km = kmer;
    for _ in 0..k {
        out = (out << 2) | (3 - (km & 0b11));
        km >>= 2;
    }
    out
}

/// Canonical form of a packed DNA k-mer: the lexicographic minimum of
/// the k-mer and its reverse complement. Strand-aware pipelines
/// (real ELBA) index canonical k-mers so that overlaps between reads
/// sequenced from opposite strands are found too.
pub fn canonical_kmer(kmer: u64, k: usize) -> u64 {
    kmer.min(revcomp_kmer(kmer, k))
}

/// Calls `f(x)` for every sequence k-mer `x` that seeds `y`: `y`
/// itself, then `y` with the residue `r` at one position replaced by
/// each code of `subs[r]` (`subs` is empty when substitution is off,
/// and has no entry for the ambiguous codes).
#[inline]
fn for_each_seed(y: u64, k: usize, b: u32, subs: &[Vec<u64>], mut f: impl FnMut(u64)) {
    f(y);
    if subs.is_empty() {
        return;
    }
    let sym_mask = (1u64 << b) - 1;
    for p in 0..k as u32 {
        let shift = b * p;
        let r = ((y >> shift) & sym_mask) as usize;
        let hole = y & !(sym_mask << shift);
        for &a in subs.get(r).map_or(&[][..], Vec::as_slice) {
            f(hole | (a << shift));
        }
    }
}

/// One slot of [`KmerIndex`]'s table: a key and its id range
/// `ids[lo..hi]`. An occupied slot always has `hi > 0`.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    lo: u32,
    hi: u32,
}

/// Inverted substitute-k-mer index: maps a sequence k-mer `x` to the
/// ids of every reliable k-mer `y` it seeds.
///
/// Exact-only, `x` seeds `y` iff `x = y`. With substitution (PASTIS,
/// protein only), `x` also seeds every `y` one conservative
/// substitution away: at one position `y` has a residue `r < 20`
/// where `x` has a code `a ≠ r` with `BLOSUM62[a][r] ≥ min_sub_score`
/// — the `S` in `A S Aᵀ`. The expansion runs once over the reliable
/// k-mers instead of once per sequence k-mer, and the table is open
/// addressing with linear probing and a multiplicative (Fibonacci)
/// hash, at most two-thirds full. The hash is unkeyed: k-mers crafted
/// to collide lengthen probes but never change the ids returned.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    slots: Vec<Slot>,
    shift: u32,
    ids: Vec<u32>,
}

impl KmerIndex {
    /// Builds the index over `reliable` (id = index). `min_sub_score`
    /// turns substitution on; it is ignored for DNA.
    ///
    /// # Panics
    /// If `k` is outside `1..=max_k(alphabet)`.
    pub fn build(
        reliable: &[u64],
        k: usize,
        alphabet: Alphabet,
        min_sub_score: Option<i32>,
    ) -> Self {
        assert_k(k, alphabet);
        // subs[r] = the codes a ≠ r with BLOSUM62[a][r] ≥ threshold,
        // for the concrete residues r < 20 only.
        let subs: Vec<Vec<u64>> = match (min_sub_score, alphabet) {
            (Some(th), Alphabet::Protein) => (0..alphabet.concrete_codes())
                .map(|r| {
                    (0..PROTEIN_CODES)
                        .filter(|&a| a != r && i32::from(BLOSUM62[a][r]) >= th)
                        .map(|a| a as u64)
                        .collect()
                })
                .collect(),
            _ => Vec::new(),
        };
        let b = bits(alphabet);
        let mut pairs = 0usize;
        for &y in reliable {
            for_each_seed(y, k, b, &subs, |_| pairs += 1);
        }
        assert!(u32::try_from(pairs).is_ok(), "substitute index too large");
        let log2 = (pairs + pairs / 2)
            .max(2)
            .next_power_of_two()
            .trailing_zeros();
        let mut index = Self {
            slots: vec![Slot::default(); 1 << log2],
            shift: 64 - log2,
            ids: vec![0; pairs],
        };
        // Pass 1 counts each key's ids in `hi`; the prefix sum turns
        // the counts into ranges with `lo` at the end, and pass 2
        // fills each range back to front, leaving `lo` at its start.
        for &y in reliable {
            for_each_seed(y, k, b, &subs, |x| {
                let slot = index.find_or_insert(x);
                index.slots[slot].hi += 1;
            });
        }
        let mut end = 0u32;
        for s in index.slots.iter_mut().filter(|s| s.hi > 0) {
            end += s.hi;
            (s.lo, s.hi) = (end, end);
        }
        for (id, &y) in reliable.iter().enumerate() {
            for_each_seed(y, k, b, &subs, |x| {
                let slot = index.find(x).expect("inserted in pass 1");
                let s = &mut index.slots[slot];
                s.lo -= 1;
                index.ids[s.lo as usize] = id as u32;
            });
        }
        index
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or `None`.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = &self.slots[i];
            if s.hi == 0 {
                return None;
            }
            if s.key == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn find_or_insert(&mut self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].hi != 0 && self.slots[i].key != key {
            i = (i + 1) & mask;
        }
        self.slots[i].key = key;
        i
    }

    /// The ids of the reliable k-mers that sequence k-mer `x` seeds
    /// (empty when it seeds none).
    #[inline]
    pub fn get(&self, x: u64) -> &[u32] {
        match self.find(x) {
            Some(i) => &self.ids[self.slots[i].lo as usize..self.slots[i].hi as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::{encode_dna, encode_protein, DNA_N};

    /// Packs `seq[pos .. pos + k]` window by window: the reference
    /// for the rolling iterator.
    fn pack(seq: &[u8], pos: usize, k: usize, alphabet: Alphabet) -> u64 {
        let b = bits(alphabet);
        let mut out = 0u64;
        for &s in &seq[pos..pos + k] {
            out = (out << b) | s as u64;
        }
        out
    }

    #[test]
    fn max_k_values() {
        assert_eq!(max_k(Alphabet::Dna), 32);
        assert_eq!(max_k(Alphabet::Protein), 12);
    }

    #[test]
    fn rolling_kmers_match_pack() {
        let dna = encode_dna(b"ACGTTGCACAGTCCATGACGTTGCACAGTCCATGAC");
        for k in [1, 4, 17, 32] {
            let got: Vec<(u64, u32)> = kmers(&dna, k, Alphabet::Dna).collect();
            let want: Vec<(u64, u32)> = (0..=dna.len() - k)
                .map(|p| (pack(&dna, p, k, Alphabet::Dna), p as u32))
                .collect();
            assert_eq!(got, want, "k = {k}");
        }
        // Protein keeps the ambiguous codes B/Z/X/*.
        let prot = encode_protein(b"MKTAYBZX*IAKQR");
        for k in [1, 6, 12] {
            let got: Vec<(u64, u32)> = kmers(&prot, k, Alphabet::Protein).collect();
            assert_eq!(got.len(), prot.len() + 1 - k);
            for (km, p) in got {
                assert_eq!(km, pack(&prot, p as usize, k, Alphabet::Protein));
            }
        }
        assert_eq!(kmers(&dna[..3], 4, Alphabet::Dna).count(), 0);
    }

    #[test]
    fn dna_n_windows_are_skipped() {
        let s = encode_dna(b"ACGNTTGCA");
        assert_eq!(s[3], DNA_N);
        let got: Vec<u32> = kmers(&s, 3, Alphabet::Dna).map(|(_, p)| p).collect();
        // Windows 0 (ACG) and 4.. (TTG, TGC, GCA); none spans the N.
        assert_eq!(got, vec![0, 4, 5, 6]);
        // `AN` no longer packs to the value of `CA`.
        let an = encode_dna(b"AN");
        assert_eq!(kmers(&an, 2, Alphabet::Dna).count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=32")]
    fn kmers_reject_oversized_k() {
        let _ = kmers(&[0; 40], 33, Alphabet::Dna);
    }

    #[test]
    fn counting_dedups_within_sequence_and_filters_range() {
        let k4 = |s: &[u8]| pack(&encode_dna(s), 0, 4, Alphabet::Dna);
        let a = encode_dna(b"AAAAAAAA"); // one distinct 4-mer, many copies
        let b = encode_dna(b"AAAACCCC");
        let seqs = [a.as_slice(), b.as_slice()];
        // AAAA is in both sequences, counted once each; CCCC in one.
        let two = reliable_kmers(seqs.into_iter(), 4, Alphabet::Dna, 2, 2);
        assert_eq!(two, vec![k4(b"AAAA")]);
        let one = reliable_kmers(seqs.into_iter(), 4, Alphabet::Dna, 1, 1);
        assert!(one.contains(&k4(b"CCCC")) && !one.contains(&k4(b"AAAA")));
        assert!(one.windows(2).all(|w| w[0] < w[1]), "sorted ids");
        assert!(reliable_kmers(seqs.into_iter(), 4, Alphabet::Dna, 3, 9).is_empty());
    }

    #[test]
    fn revcomp_kmer_matches_sequence_revcomp() {
        use xdrop_core::alphabet::reverse_complement;
        let s = encode_dna(b"ACGTTGCA");
        let km = pack(&s, 0, 8, Alphabet::Dna);
        let rc_seq = reverse_complement(&s);
        let rc_km = pack(&rc_seq, 0, 8, Alphabet::Dna);
        assert_eq!(revcomp_kmer(km, 8), rc_km);
        // Involution.
        assert_eq!(revcomp_kmer(revcomp_kmer(km, 8), 8), km);
    }

    #[test]
    fn canonical_kmer_is_strand_invariant() {
        let s = encode_dna(b"ACGTTGCACAGTCCATG");
        for pos in 0..=s.len() - 9 {
            let km = pack(&s, pos, 9, Alphabet::Dna);
            let rc = revcomp_kmer(km, 9);
            assert_eq!(canonical_kmer(km, 9), canonical_kmer(rc, 9));
            assert!(canonical_kmer(km, 9) <= km);
        }
    }

    #[test]
    fn substitute_index_seeds_conservative_neighbours() {
        let p6 = |s: &[u8]| pack(&encode_protein(s), 0, 6, Alphabet::Protein);
        let reliable = vec![p6(b"WWWWWW")];
        let idx = KmerIndex::build(&reliable, 6, Alphabet::Protein, Some(2));
        assert_eq!(idx.get(p6(b"WWWWWW")), &[0]);
        // W–Y scores 2: a sequence k-mer with one Y seeds WWWWWW.
        assert_eq!(idx.get(p6(b"WWWYWW")), &[0]);
        // W–A scores −3; two substitutions are never seeds.
        assert!(idx.get(p6(b"AWWWWW")).is_empty());
        assert!(idx.get(p6(b"WYWYWW")).is_empty());
        // A high threshold or DNA leaves only the exact k-mer.
        let exact = KmerIndex::build(&reliable, 6, Alphabet::Protein, Some(100));
        assert!(exact.get(p6(b"WWWYWW")).is_empty());
        assert_eq!(exact.get(p6(b"WWWWWW")), &[0]);
    }

    #[test]
    fn index_handles_all_ones_and_empty_keys() {
        // TTTT…T packs to u64::MAX at k = 32; key 0 is AAAA…A.
        let reliable = vec![0, u64::MAX];
        let idx = KmerIndex::build(&reliable, 32, Alphabet::Dna, Some(1));
        assert_eq!(idx.get(0), &[0]);
        assert_eq!(idx.get(u64::MAX), &[1]);
        assert!(idx.get(1).is_empty());
        let empty = KmerIndex::build(&[], 32, Alphabet::Dna, None);
        assert!(empty.get(0).is_empty());
    }
}
