//! `experiments overlap` — the overlap-detection layer alone.
//!
//! Times `overlap::detect_overlaps` (k-mer counting, the substitute
//! index, one probe per sequence k-mer, then `A Aᵀ`) on the two
//! pipelines' inputs: the PASTIS protein families of
//! `PastisConfig::small(3000)` (substitute k-mers on, the
//! `pastis-x49` benchmark input at seed 7) and the `experiments
//! elba` HiFi read set (exact DNA 17-mers). The counts in each row —
//! reliable k-mers, probes and candidates — are deterministic; only
//! `seconds` depends on the host.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- overlap --bench-json
//! ```

use crate::exp::realworld::elba_config;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::reads::simulate_reads;
use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::kernel;
use xdrop_core::workload::SeqSet;
use xdrop_pipelines::kmer;
use xdrop_pipelines::overlap::{build_kmer_matrix, detect_overlaps, OverlapConfig};
use xdrop_pipelines::pastis::{generate_families, PastisConfig};

/// One measured overlap-detection input.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OverlapBenchRow {
    /// `"pastis"` or `"elba"`.
    pub dataset: String,
    /// Sequences in the input set.
    pub sequences: usize,
    /// Reliable k-mers (columns of the k-mer matrix).
    pub reliable_kmers: usize,
    /// Sequence k-mers, each one probe of the substitute index.
    pub probes: u64,
    /// Overlap candidates (`Workload::comparisons`).
    pub candidates: usize,
    /// Best-of-iterations host seconds for `detect_overlaps`.
    pub seconds: f64,
    /// CPU cores available on the measuring host (the layer is
    /// single-threaded).
    pub host_cores: usize,
}

/// The `overlap` section of `BENCH_xdrop.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OverlapSection {
    /// The command that regenerates this section.
    pub command: String,
    /// `kernel::host_simd()` on the host that produced the section.
    pub host_simd: String,
    /// One row per dataset, `pastis` first.
    pub rows: Vec<OverlapBenchRow>,
}

/// The command documented to regenerate the overlap section of
/// `BENCH_xdrop.json`.
pub const OVERLAP_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- overlap --bench-json";

/// Proteins in the PASTIS input at scale 1.
pub const OVERLAP_PASTIS_PROTEINS: usize = 3_000;

/// Seed of the PASTIS input (the `pastis-x49` benchmark's seed 7).
const OVERLAP_PASTIS_SEED: u64 = 7;

/// Seed of the ELBA read set (the `experiments elba` seed).
const OVERLAP_ELBA_SEED: u64 = 5;

fn measure(dataset: &str, seqs: &SeqSet, cfg: &OverlapConfig, iters: usize) -> OverlapBenchRow {
    let reliable_kmers = build_kmer_matrix(seqs, cfg).1;
    let probes = seqs
        .iter()
        .map(|(_, s)| kmer::kmers(s, cfg.k, seqs.alphabet).count() as u64)
        .sum();
    let mut best = f64::INFINITY;
    let mut candidates = 0;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let w = detect_overlaps(seqs, cfg);
        best = best.min(t0.elapsed().as_secs_f64());
        candidates = w.comparisons.len();
    }
    OverlapBenchRow {
        dataset: dataset.to_string(),
        sequences: seqs.len(),
        reliable_kmers,
        probes,
        candidates,
        seconds: best,
        host_cores: super::host_cores(),
    }
}

/// Runs both datasets. `scale` multiplies the protein count and the
/// ELBA genome length; `iters` is how many timed calls each gets
/// (best wins).
pub fn run(scale: f64, iters: usize) -> OverlapSection {
    let pc = PastisConfig::small(((OVERLAP_PASTIS_PROTEINS as f64 * scale) as usize).max(40));
    let (proteins, _) = generate_families(&mut StdRng::seed_from_u64(OVERLAP_PASTIS_SEED), &pc);
    let ec = elba_config(scale);
    let sim = simulate_reads(&mut StdRng::seed_from_u64(OVERLAP_ELBA_SEED), &ec.read_sim);
    let mut reads = SeqSet::new(Alphabet::Dna);
    for r in sim.reads {
        reads.push(r);
    }
    OverlapSection {
        command: OVERLAP_REPRO_COMMAND.to_string(),
        host_simd: kernel::host_simd().to_string(),
        rows: vec![
            measure("pastis", &proteins, &pc.overlap, iters),
            measure("elba", &reads, &ec.overlap, iters),
        ],
    }
}

/// Renders the section as an aligned text table.
pub fn render(section: &OverlapSection) -> String {
    let cores = section.rows.first().map_or(0, |r| r.host_cores);
    let mut s = format!(
        "dataset  sequences  reliable k-mers     probes  candidates   seconds   ({cores} host cores)\n"
    );
    for r in &section.rows {
        s.push_str(&format!(
            "{:<8} {:>9} {:>16} {:>10} {:>11} {:>9.4}\n",
            r.dataset, r.sequences, r.reliable_kmers, r.probes, r.candidates, r.seconds
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_rows_cover_both_datasets() {
        let section = run(0.05, 1);
        assert_eq!(section.command, OVERLAP_REPRO_COMMAND);
        let names: Vec<&str> = section.rows.iter().map(|r| r.dataset.as_str()).collect();
        assert_eq!(names, ["pastis", "elba"]);
        for r in &section.rows {
            assert!(r.sequences > 0 && r.reliable_kmers > 0 && r.candidates > 0);
            assert!(r.probes >= r.reliable_kmers as u64);
            assert!(r.seconds > 0.0);
        }
        assert!(render(&section).contains("pastis"));
    }
}
