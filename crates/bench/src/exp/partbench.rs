//! `experiments partition --bench-json` — partitioner front-end
//! benchmark.
//!
//! Measures real host wall-clock (graph build + edge walk) of the
//! serial greedy partitioner versus the sharded parallel one
//! ([`xdrop_partition::shard::sharded_partitions`]) on a synthetic
//! ELBA-shaped workload: a ring of ~100 k sequences each overlapping
//! its 10 nearest neighbours, ~1 M comparisons at scale 1.0 — one
//! giant connected component, the worst case for component-guided
//! shard cuts. Reports edges/second at 1/2/4/8 host threads (fixed
//! default shard count) plus a shard-count sweep, with the sequence
//! `reuse_factor` of every configuration so the reuse lost to
//! cross-shard sequence duplication is *measured*, not assumed.
//!
//! Every iteration asserts the determinism contract: one shard is
//! byte-identical to the serial walk, and the sharded output is
//! byte-identical across every measured thread count.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- partition --bench-json
//! ```

use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
use xdrop_core::workload::{Comparison, Workload};
use xdrop_partition::greedy::greedy_partitions_with_load_cap;
use xdrop_partition::plan::reuse_stats;
use xdrop_partition::shard::{sharded_partitions, DEFAULT_SHARD_COUNT};

/// One measured partitioner configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PartitionBenchRow {
    /// `"serial"` (the oracle walk) or `"sharded"`.
    pub mode: String,
    /// Host pool threads the front-end was asked to use.
    pub threads: usize,
    /// Shard count of the parallel walk (1 for serial).
    pub shards: usize,
    /// Comparisons (graph edges) in the workload.
    pub comparisons: usize,
    /// Best-of-iterations wall-clock: graph build + edge walk.
    pub seconds: f64,
    /// `comparisons / seconds`.
    pub edges_per_sec: f64,
    /// Serial seconds divided by this row's seconds (1.0 for the
    /// serial row itself).
    pub speedup_vs_serial: f64,
    /// Sequence reuse factor (`naive / unique` transfer bytes) of
    /// the produced partitioning — how much reuse survives sharding.
    pub reuse_factor: f64,
    /// CPU cores available on the measuring host. Speedups above 1×
    /// at high thread counts require real cores; readers (and the
    /// baseline test) gate on this.
    pub host_cores: usize,
}

/// The command documented to regenerate the partition section of
/// `BENCH_xdrop.json`.
pub const PARTITION_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- partition --bench-json";

/// Thread counts measured at the default shard count.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts swept (at 4 threads) for the reuse-loss column.
pub const SHARD_SWEEP: [usize; 3] = [1, 4, 64];

/// Tile budget / kernel threads / δ_b matching the criterion
/// partitioner benchmark (`benches/partition.rs`).
const BUDGET: usize = 500_000;
const TILE_THREADS: usize = 6;
const DELTA_B: usize = 256;

/// The ELBA-shaped ring workload: `~100_000 × scale` sequences of
/// 500–2000 symbols, each compared against its 10 successors (mod
/// n) — a single giant overlap component, as in long-read data.
pub fn elba_workload(scale: f64) -> Workload {
    let n = ((100_000.0 * scale) as usize).max(64);
    let degree = 10usize;
    let mut w = Workload::new(Alphabet::Dna);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    for _ in 0..n {
        let len = 500 + next(1_500) as usize;
        w.seqs.push(vec![0u8; len]);
    }
    let s = SeedMatch::new(0, 0, 1);
    for i in 0..n {
        for d in 1..=degree {
            w.comparisons
                .push(Comparison::new(i as u32, ((i + d) % n) as u32, s));
        }
    }
    w
}

fn time_best<F: FnMut() -> Vec<xdrop_partition::Partition>>(
    iters: usize,
    mut f: F,
) -> (Vec<xdrop_partition::Partition>, f64) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

/// Runs the benchmark. `scale` multiplies the workload size; `iters`
/// is how many times each configuration runs (best time wins).
pub fn run(scale: f64, iters: usize) -> Vec<PartitionBenchRow> {
    let w = elba_workload(scale);
    let m = w.comparisons.len();
    let cores = super::host_cores();
    let mut rows = Vec::new();

    let (serial_parts, serial_s) = time_best(iters, || {
        greedy_partitions_with_load_cap(&w, BUDGET, TILE_THREADS, DELTA_B, None)
            .expect("ring comparisons fit the budget")
    });
    let row = |mode: &str, threads, shards, seconds, reuse| PartitionBenchRow {
        mode: mode.to_string(),
        threads,
        shards,
        comparisons: m,
        seconds,
        edges_per_sec: m as f64 / seconds,
        speedup_vs_serial: serial_s / seconds,
        reuse_factor: reuse,
        host_cores: cores,
    };
    rows.push(row(
        "serial",
        1,
        1,
        serial_s,
        reuse_stats(&w, &serial_parts).reuse_factor,
    ));

    // Thread scaling at the default shard count. Output must be
    // byte-identical across thread counts — asserted in-run.
    let mut oracle: Option<Vec<xdrop_partition::Partition>> = None;
    for &threads in &THREAD_COUNTS {
        let (parts, secs) = time_best(iters, || {
            sharded_partitions(
                &w,
                BUDGET,
                TILE_THREADS,
                DELTA_B,
                None,
                DEFAULT_SHARD_COUNT,
                threads,
            )
            .expect("ring comparisons fit the budget")
        });
        let reuse = reuse_stats(&w, &parts).reuse_factor;
        match &oracle {
            None => oracle = Some(parts),
            Some(o) => assert_eq!(
                o, &parts,
                "sharded output must not depend on thread count ({threads})"
            ),
        }
        rows.push(row("sharded", threads, DEFAULT_SHARD_COUNT, secs, reuse));
    }

    // Shard sweep at 4 threads: how much reuse each cut costs. One
    // shard must reproduce the serial walk byte for byte.
    for &shards in &SHARD_SWEEP {
        let (parts, secs) = time_best(iters, || {
            sharded_partitions(&w, BUDGET, TILE_THREADS, DELTA_B, None, shards, 4)
                .expect("ring comparisons fit the budget")
        });
        if shards == 1 {
            assert_eq!(
                parts, serial_parts,
                "one shard must be bit-identical to the serial walk"
            );
        }
        let reuse = reuse_stats(&w, &parts).reuse_factor;
        rows.push(row("sharded", 4, shards, secs, reuse));
    }
    rows
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[PartitionBenchRow]) -> String {
    let cores = rows.first().map_or(0, |r| r.host_cores);
    let mut s = format!(
        "mode      threads  shards        edges    seconds     Medges/s   vs serial      reuse   ({cores} host cores)\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<9} {:>7} {:>7} {:>12} {:>10.4} {:>12.2} {:>10.2}x {:>10.3}\n",
            r.mode,
            r.threads,
            r.shards,
            r.comparisons,
            r.seconds,
            r.edges_per_sec / 1e6,
            r.speedup_vs_serial,
            r.reuse_factor
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_rows_cover_grid_and_hold_the_determinism_contract() {
        // Tiny scale: the structure and the in-run bit-identity
        // assertions are the test, not the timing.
        let rows = run(0.003, 1);
        assert_eq!(rows.len(), 1 + THREAD_COUNTS.len() + SHARD_SWEEP.len());
        assert_eq!(rows[0].mode, "serial");
        assert!((rows[0].speedup_vs_serial - 1.0).abs() < 1e-12);
        let serial_reuse = rows[0].reuse_factor;
        assert!(serial_reuse >= 1.0);
        for r in &rows {
            assert!(r.seconds > 0.0 && r.edges_per_sec > 0.0);
            assert!(r.reuse_factor >= 1.0);
            // Sharding can only lose reuse, never gain transfer-free
            // bytes out of thin air beyond the serial walk's own
            // seal-point noise; allow a hair of slack.
            assert!(r.reuse_factor <= serial_reuse * 1.05 + 1e-9);
        }
        // The single-shard sweep row reproduces the serial reuse
        // exactly (it is the identical partitioning).
        let one_shard = rows.iter().find(|r| r.shards == 1 && r.mode == "sharded");
        assert_eq!(one_shard.expect("sweep row").reuse_factor, serial_reuse);
        assert!(render(&rows).contains("vs serial"));
    }
}
