//! Host-kernel A/B benchmark and the machine-readable perf baseline
//! (`BENCH_xdrop.json`).
//!
//! Measures cells/second of every [`KernelKind`] on a deterministic
//! DNA grid: per steady band width (pinned via
//! `BandPolicy::Saturate(w)` on identical sequences with an
//! effectively unbounded X, so every kernel sweeps exactly `w` cells
//! per antidiagonal) and per sequence length, plus one realistic
//! 10%-error `Grow` configuration. All kernels are bit-identical —
//! the `kernel_bit_identity` proptest enforces that — so the only
//! thing measured here is host wall-clock.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::gen::{generate_pair, MutationProfile, PairSpec};
use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::kernel::{self, KernelKind};
use xdrop_core::seqview::Fwd;
use xdrop_core::xdrop2::{BandPolicy, Workspace};
use xdrop_core::XDropParams;

/// One measured (kernel × configuration) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Kernel name (`scalar` / `chunked` / `batched`).
    pub kernel: String,
    /// Benchmark configuration label.
    pub config: String,
    /// Sequence length (symbols per side).
    pub len: usize,
    /// Steady band width (δ_b for Saturate; 0 for the Grow config,
    /// where the band follows the live width).
    pub band: usize,
    /// X-Drop threshold used.
    pub x: i32,
    /// DP cells computed per alignment (identical across kernels).
    pub cells: u64,
    /// Wall-clock seconds per alignment (mean over iterations).
    pub seconds: f64,
    /// Throughput in DP cells per second.
    pub cells_per_sec: f64,
    /// Throughput relative to the scalar kernel on this config.
    pub speedup_vs_scalar: f64,
}

/// Top-level schema of `BENCH_xdrop.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchFile {
    /// Schema tag for downstream readers.
    pub schema: String,
    /// The exact command that regenerates the kernel rows.
    pub command: String,
    /// What `KernelKind::detect()` picked on the producing host.
    pub detected_kernel: String,
    /// The widest SIMD capability `kernel::host_simd()` detected on
    /// the producing host (`"avx512bw"`, `"avx2"`, `"sse4.1"`,
    /// `"sse2"`, `"neon"`, or `"generic"`). Readers gate
    /// absolute-speedup expectations on this, not on core counts:
    /// the batched kernel's win is lane-level and single-threaded.
    pub host_simd: String,
    /// The kernel measurements.
    pub rows: Vec<Row>,
    /// The command that regenerates the end-to-end section.
    pub e2e_command: String,
    /// End-to-end host-pipeline measurements (`experiments e2e`):
    /// reference vs streaming wall-clock at 1/2/4/8 threads.
    pub e2e: Vec<super::e2e::E2eRow>,
    /// The command that regenerates the partition section.
    pub partition_command: String,
    /// Partitioner front-end measurements (`experiments partition`):
    /// serial vs sharded edge walk at 1/2/4/8 threads plus a
    /// shard-count reuse sweep.
    pub partition: Vec<super::partbench::PartitionBenchRow>,
    /// The command that regenerates the faults section.
    pub faults_command: String,
    /// Fault-recovery overhead measurements (`experiments faults`):
    /// fault-free vs one device lost mid-run.
    pub faults: Vec<super::faultbench::FaultBenchRow>,
    /// The command that regenerates the batched section.
    pub batched_command: String,
    /// Batched inter-sequence kernel measurements (`experiments
    /// bench`): lanes × length-dispersion sweep of
    /// `batched::align_batch` vs the scalar per-comparison loop.
    pub batched: Vec<super::batchbench::BatchedRow>,
    /// The command that regenerates the scaling section.
    pub scaling_command: String,
    /// Fleet-scale strong scaling (`experiments scaling`): modeled
    /// GCUPS vs device count at {4, 16, 64, 256, 512} with and
    /// without host-link contention, produced through the windowed
    /// out-of-core pipeline.
    pub scaling: super::fleetscale::ScalingSection,
    /// Overlap-detection layer measurements (`experiments overlap`):
    /// `detect_overlaps` on the PASTIS and ELBA inputs. Optional, so a
    /// v7 file (which predates it) still parses; `None` until the
    /// section's command has run.
    pub overlap: Option<super::overlapbench::OverlapSection>,
}

/// The batched-row shape of schema v6, before the fused sweep grew
/// explicit per-backend dispatch and the rows a `sweep_backend`
/// column. Parsed only to recognize a v6 file; the rows measured the
/// row-granular SSE2-only dispatch kernel and are dropped on upgrade
/// so the documented command regenerates per-backend rows.
#[derive(Debug, Clone, serde::Deserialize)]
#[allow(dead_code)]
struct LegacyBatchedRowV6 {
    config: String,
    lanes: usize,
    dispersion_pct: u32,
    len: usize,
    comparisons: usize,
    cells: u64,
    seconds_scalar: f64,
    seconds_batched: f64,
    speedup_vs_scalar: f64,
    reruns: u64,
    occupancy: f64,
    staged_bytes_per_cell: f64,
    refills: u64,
    rounds: u64,
    hw_lanes: usize,
    host_cores: usize,
    avx2: bool,
}

/// The v6 on-disk shape: same sections as v7, but no top-level
/// `host_simd` capability field and batched rows without the
/// `sweep_backend` column (the vendored serde has no
/// `#[serde(default)]`, so the missing fields fail the v7 parse).
/// The stale batched rows are dropped on upgrade — an empty section
/// forces regeneration via the documented command — while every
/// other section is preserved; `host_simd` is stamped from the
/// current host's detection, which is the host any regeneration runs
/// on.
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyBenchFileV6 {
    #[allow(dead_code)]
    schema: String,
    command: String,
    detected_kernel: String,
    rows: Vec<Row>,
    e2e_command: String,
    e2e: Vec<super::e2e::E2eRow>,
    partition_command: String,
    partition: Vec<super::partbench::PartitionBenchRow>,
    faults_command: String,
    faults: Vec<super::faultbench::FaultBenchRow>,
    batched_command: String,
    #[allow(dead_code)]
    batched: Vec<LegacyBatchedRowV6>,
    scaling_command: String,
    scaling: super::fleetscale::ScalingSection,
}

impl From<LegacyBenchFileV6> for BenchFile {
    fn from(v6: LegacyBenchFileV6) -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            command: v6.command,
            detected_kernel: v6.detected_kernel,
            host_simd: kernel::host_simd().to_string(),
            rows: v6.rows,
            e2e_command: v6.e2e_command,
            e2e: v6.e2e,
            partition_command: v6.partition_command,
            partition: v6.partition,
            faults_command: v6.faults_command,
            faults: v6.faults,
            batched_command: v6.batched_command,
            batched: Vec::new(),
            scaling_command: v6.scaling_command,
            scaling: v6.scaling,
            overlap: None,
        }
    }
}

/// The batched-row shape of schema v5, before the persistent-staging
/// kernel's occupancy/staging counters were added. Parsed only to
/// recognize a v5 file; the rows themselves measured a kernel that no
/// longer exists and are dropped on upgrade.
#[derive(Debug, Clone, serde::Deserialize)]
#[allow(dead_code)]
struct LegacyBatchedRowV5 {
    config: String,
    lanes: usize,
    dispersion_pct: u32,
    len: usize,
    comparisons: usize,
    cells: u64,
    seconds_scalar: f64,
    seconds_batched: f64,
    speedup_vs_scalar: f64,
    reruns: u64,
    hw_lanes: usize,
    host_cores: usize,
    avx2: bool,
}

/// The v5 on-disk shape: same sections as v6, but its `batched` rows
/// predate the occupancy/staging counters of the persistent-staging
/// kernel (the vendored serde has no `#[serde(default)]`, so the
/// missing fields fail the v6 parse). The stale batched rows are
/// dropped on upgrade — an empty section forces regeneration via the
/// documented command — while every other section is preserved.
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyBenchFileV5 {
    #[allow(dead_code)]
    schema: String,
    command: String,
    detected_kernel: String,
    rows: Vec<Row>,
    e2e_command: String,
    e2e: Vec<super::e2e::E2eRow>,
    partition_command: String,
    partition: Vec<super::partbench::PartitionBenchRow>,
    faults_command: String,
    faults: Vec<super::faultbench::FaultBenchRow>,
    batched_command: String,
    #[allow(dead_code)]
    batched: Vec<LegacyBatchedRowV5>,
    scaling_command: String,
    scaling: super::fleetscale::ScalingSection,
}

impl From<LegacyBenchFileV5> for BenchFile {
    fn from(v5: LegacyBenchFileV5) -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            command: v5.command,
            detected_kernel: v5.detected_kernel,
            host_simd: kernel::host_simd().to_string(),
            rows: v5.rows,
            e2e_command: v5.e2e_command,
            e2e: v5.e2e,
            partition_command: v5.partition_command,
            partition: v5.partition,
            faults_command: v5.faults_command,
            faults: v5.faults,
            batched_command: v5.batched_command,
            batched: Vec::new(),
            scaling_command: v5.scaling_command,
            scaling: v5.scaling,
            overlap: None,
        }
    }
}

/// The v4 on-disk shape, kept so a baseline written before the
/// fleet-scaling section existed still parses (the vendored serde
/// has no `#[serde(default)]`, so missing fields fail the v5 parse)
/// and can be upgraded in place instead of silently discarded.
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyBenchFileV4 {
    #[allow(dead_code)]
    schema: String,
    command: String,
    detected_kernel: String,
    rows: Vec<Row>,
    e2e_command: String,
    e2e: Vec<super::e2e::E2eRow>,
    partition_command: String,
    partition: Vec<super::partbench::PartitionBenchRow>,
    faults_command: String,
    faults: Vec<super::faultbench::FaultBenchRow>,
    batched_command: String,
    #[allow(dead_code)]
    batched: Vec<LegacyBatchedRowV5>,
}

impl From<LegacyBenchFileV4> for BenchFile {
    fn from(v4: LegacyBenchFileV4) -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            command: v4.command,
            detected_kernel: v4.detected_kernel,
            host_simd: kernel::host_simd().to_string(),
            rows: v4.rows,
            e2e_command: v4.e2e_command,
            e2e: v4.e2e,
            partition_command: v4.partition_command,
            partition: v4.partition,
            faults_command: v4.faults_command,
            faults: v4.faults,
            batched_command: v4.batched_command,
            batched: Vec::new(),
            scaling_command: super::fleetscale::SCALING_REPRO_COMMAND.to_string(),
            scaling: super::fleetscale::ScalingSection::default(),
            overlap: None,
        }
    }
}

/// The v3 on-disk shape, kept for the same upgrade-in-place reason
/// (v3 predates the batched and scaling sections).
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyBenchFileV3 {
    #[allow(dead_code)]
    schema: String,
    command: String,
    detected_kernel: String,
    rows: Vec<Row>,
    e2e_command: String,
    e2e: Vec<super::e2e::E2eRow>,
    partition_command: String,
    partition: Vec<super::partbench::PartitionBenchRow>,
    faults_command: String,
    faults: Vec<super::faultbench::FaultBenchRow>,
}

impl From<LegacyBenchFileV3> for BenchFile {
    fn from(v3: LegacyBenchFileV3) -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            command: v3.command,
            detected_kernel: v3.detected_kernel,
            host_simd: kernel::host_simd().to_string(),
            rows: v3.rows,
            e2e_command: v3.e2e_command,
            e2e: v3.e2e,
            partition_command: v3.partition_command,
            partition: v3.partition,
            faults_command: v3.faults_command,
            faults: v3.faults,
            batched_command: super::batchbench::BATCHED_REPRO_COMMAND.to_string(),
            batched: Vec::new(),
            scaling_command: super::fleetscale::SCALING_REPRO_COMMAND.to_string(),
            scaling: super::fleetscale::ScalingSection::default(),
            overlap: None,
        }
    }
}

/// The v2 on-disk shape, kept for the same upgrade-in-place reason
/// (v2 predates both the faults and the batched sections).
#[derive(Debug, Clone, serde::Deserialize)]
struct LegacyBenchFileV2 {
    #[allow(dead_code)]
    schema: String,
    command: String,
    detected_kernel: String,
    rows: Vec<Row>,
    e2e_command: String,
    e2e: Vec<super::e2e::E2eRow>,
    partition_command: String,
    partition: Vec<super::partbench::PartitionBenchRow>,
}

impl From<LegacyBenchFileV2> for BenchFile {
    fn from(v2: LegacyBenchFileV2) -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            command: v2.command,
            detected_kernel: v2.detected_kernel,
            host_simd: kernel::host_simd().to_string(),
            rows: v2.rows,
            e2e_command: v2.e2e_command,
            e2e: v2.e2e,
            partition_command: v2.partition_command,
            partition: v2.partition,
            faults_command: super::faultbench::FAULTS_REPRO_COMMAND.to_string(),
            faults: Vec::new(),
            batched_command: super::batchbench::BATCHED_REPRO_COMMAND.to_string(),
            batched: Vec::new(),
            scaling_command: super::fleetscale::SCALING_REPRO_COMMAND.to_string(),
            scaling: super::fleetscale::ScalingSection::default(),
            overlap: None,
        }
    }
}

fn pair(len: usize, err: f64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = PairSpec {
        len,
        seed_len: 17,
        seed_frac: 0.0,
        errors: MutationProfile::uniform_mismatch(err),
        alphabet: Alphabet::Dna,
    };
    let p = generate_pair(&mut rng, &spec);
    (p.h, p.v)
}

/// Times one (kernel, config): repeats the alignment until ≥ 0.2 s
/// or ≥ 3 iterations, whichever is later, and reports the mean.
fn measure(
    kind: KernelKind,
    h: &[u8],
    v: &[u8],
    params: XDropParams,
    policy: BandPolicy,
) -> (u64, f64) {
    let sc = super::dna_scorer();
    let mut ws = Workspace::<i32>::new();
    // Warm-up (also grows the workspace so allocation is excluded).
    let out = kernel::align_views(kind, &Fwd(h), &Fwd(v), &sc, params, policy, &mut ws)
        .expect("bench alignment");
    let cells = out.stats.cells_computed;
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        let o = kernel::align_views(kind, &Fwd(h), &Fwd(v), &sc, params, policy, &mut ws)
            .expect("bench alignment");
        std::hint::black_box(&o);
        iters += 1;
        if iters >= 3 && start.elapsed().as_secs_f64() >= 0.2 {
            break;
        }
        if iters >= 10_000 {
            break;
        }
    }
    (cells, start.elapsed().as_secs_f64() / f64::from(iters))
}

/// Runs the full grid. `scale` multiplies the sequence lengths.
pub fn run(scale: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    let lens: Vec<usize> = [1_000usize, 10_000]
        .iter()
        .map(|&l| ((l as f64 * scale) as usize).max(64))
        .collect();

    // Axis 1: steady band width × length (identical sequences,
    // saturated band, unbounded X → exactly `w` cells per sweep).
    for &len in &lens {
        let (h, _) = pair(len, 0.0);
        for w in [16usize, 64, 256] {
            let params = XDropParams::unbounded();
            let policy = BandPolicy::Saturate(w);
            push_config(
                &mut rows,
                &format!("band{w}/len{len}"),
                len,
                w,
                params.x,
                |kind| measure(kind, &h, &h, params.with_kernel(kind), policy),
            );
        }
    }

    // Axis 2: realistic X-Drop extension (10% error, growing band).
    for &len in &lens {
        let (h, v) = pair(len, 0.10);
        let params = XDropParams::new(50);
        let policy = BandPolicy::Grow(256);
        push_config(
            &mut rows,
            &format!("grow10pct/len{len}"),
            len,
            0,
            params.x,
            |kind| measure(kind, &h, &v, params.with_kernel(kind), policy),
        );
    }
    rows
}

fn push_config(
    rows: &mut Vec<Row>,
    config: &str,
    len: usize,
    band: usize,
    x: i32,
    mut measure_one: impl FnMut(KernelKind) -> (u64, f64),
) {
    let mut scalar_cps = 0.0;
    for kind in KernelKind::ALL {
        let (cells, seconds) = measure_one(kind);
        let cps = cells as f64 / seconds;
        if kind == KernelKind::Scalar {
            scalar_cps = cps;
        }
        rows.push(Row {
            kernel: kind.name().to_string(),
            config: config.to_string(),
            len,
            band,
            x,
            cells,
            seconds,
            cells_per_sec: cps,
            speedup_vs_scalar: if scalar_cps > 0.0 {
                cps / scalar_cps
            } else {
                1.0
            },
        });
    }
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "config               kernel    cells/align      s/align     Mcells/s   vs scalar\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:<8} {:>12} {:>12.6} {:>12.2} {:>10.2}x\n",
            r.config,
            r.kernel,
            r.cells,
            r.seconds,
            r.cells_per_sec / 1e6,
            r.speedup_vs_scalar
        ));
    }
    s
}

/// The command documented to regenerate the kernel rows of
/// `BENCH_xdrop.json`.
pub const REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json";

/// Schema tag of `BENCH_xdrop.json` (v2 added the `e2e` section, v3
/// the fault-recovery `faults` section, v4 the batched
/// inter-sequence kernel section and the `batched` kernel rows, v5
/// the fleet-scale `scaling` section, v6 the batched rows'
/// `occupancy`/`staged_bytes_per_cell`/`refills`/`rounds` counters
/// from the persistent-staging kernel, v7 the top-level `host_simd`
/// capability string and the batched rows' `sweep_backend` column
/// from the multiversioned sweep dispatch, v8 the optional
/// overlap-detection `overlap` section).
pub const SCHEMA: &str = "xdrop-kernel-bench/v8";

fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_xdrop.json")
}

/// The committed baseline, if present and parseable at the current
/// schema — or at the legacy v2 shape, which is upgraded with an
/// empty faults section. Used to preserve the sections the caller is
/// *not* regenerating.
fn read_existing() -> Option<BenchFile> {
    let text = std::fs::read_to_string(bench_json_path()).ok()?;
    serde_json::from_str::<BenchFile>(&text)
        .ok()
        .or_else(|| {
            serde_json::from_str::<LegacyBenchFileV6>(&text)
                .ok()
                .map(BenchFile::from)
        })
        .or_else(|| {
            serde_json::from_str::<LegacyBenchFileV5>(&text)
                .ok()
                .map(BenchFile::from)
        })
        .or_else(|| {
            serde_json::from_str::<LegacyBenchFileV4>(&text)
                .ok()
                .map(BenchFile::from)
        })
        .or_else(|| {
            serde_json::from_str::<LegacyBenchFileV3>(&text)
                .ok()
                .map(BenchFile::from)
        })
        .or_else(|| {
            serde_json::from_str::<LegacyBenchFileV2>(&text)
                .ok()
                .map(BenchFile::from)
        })
}

fn write_file(file: &BenchFile) -> std::io::Result<std::path::PathBuf> {
    let path = bench_json_path();
    let json =
        serde_json::to_string_pretty(file).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path.canonicalize().unwrap_or(path))
}

/// A freshly-tagged file holding the committed sections (or empty
/// ones when no parseable baseline exists). Always stamped with the
/// current [`SCHEMA`], so regenerating any one section upgrades a
/// legacy file in place.
fn base_file() -> BenchFile {
    let mut file = read_existing().unwrap_or_else(|| BenchFile {
        schema: SCHEMA.to_string(),
        command: REPRO_COMMAND.to_string(),
        detected_kernel: KernelKind::detect().name().to_string(),
        host_simd: kernel::host_simd().to_string(),
        rows: Vec::new(),
        e2e_command: super::e2e::E2E_REPRO_COMMAND.to_string(),
        e2e: Vec::new(),
        partition_command: super::partbench::PARTITION_REPRO_COMMAND.to_string(),
        partition: Vec::new(),
        faults_command: super::faultbench::FAULTS_REPRO_COMMAND.to_string(),
        faults: Vec::new(),
        batched_command: super::batchbench::BATCHED_REPRO_COMMAND.to_string(),
        batched: Vec::new(),
        scaling_command: super::fleetscale::SCALING_REPRO_COMMAND.to_string(),
        scaling: super::fleetscale::ScalingSection::default(),
        overlap: None,
    });
    file.schema = SCHEMA.to_string();
    // Any write happens on the current host, so the capability string
    // always reflects the machine that last touched the baseline.
    file.host_simd = kernel::host_simd().to_string();
    file
}

/// Writes the kernel rows of the machine-readable baseline at the
/// repository root, preserving any committed e2e and partition
/// sections.
pub fn write_bench_json(rows: &[Row]) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.detected_kernel = KernelKind::detect().name().to_string();
    file.rows = rows.to_vec();
    write_file(&file)
}

/// Writes the e2e section of the baseline, preserving any committed
/// kernel rows and partition section.
pub fn write_e2e_json(e2e: &[super::e2e::E2eRow]) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.e2e = e2e.to_vec();
    write_file(&file)
}

/// Writes the partition section of the baseline, preserving any
/// committed kernel rows and e2e section.
pub fn write_partition_json(
    partition: &[super::partbench::PartitionBenchRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.partition = partition.to_vec();
    write_file(&file)
}

/// Writes the faults section of the baseline, preserving every other
/// committed section.
pub fn write_faults_json(
    faults: &[super::faultbench::FaultBenchRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.faults_command = super::faultbench::FAULTS_REPRO_COMMAND.to_string();
    file.faults = faults.to_vec();
    write_file(&file)
}

/// Writes the batched section of the baseline, preserving every
/// other committed section.
pub fn write_batched_json(
    batched: &[super::batchbench::BatchedRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.batched_command = super::batchbench::BATCHED_REPRO_COMMAND.to_string();
    file.batched = batched.to_vec();
    write_file(&file)
}

/// Writes the fleet-scaling section of the baseline, preserving
/// every other committed section.
pub fn write_scaling_json(
    scaling: &super::fleetscale::ScalingSection,
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.scaling_command = super::fleetscale::SCALING_REPRO_COMMAND.to_string();
    file.scaling = scaling.clone();
    write_file(&file)
}

/// Writes the overlap section of the baseline, preserving every
/// other committed section.
pub fn write_overlap_json(
    overlap: &super::overlapbench::OverlapSection,
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.overlap = Some(overlap.clone());
    write_file(&file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_kernels_and_reports_identical_cells() {
        // Tiny scale so the test stays fast; the structure (not the
        // timing) is what's asserted.
        let rows = run(0.08);
        assert_eq!(rows.len() % KernelKind::ALL.len(), 0);
        for chunk in rows.chunks(KernelKind::ALL.len()) {
            assert_eq!(chunk[0].kernel, "scalar");
            for r in chunk {
                assert_eq!(r.cells, chunk[0].cells, "bit-identity implies equal work");
                assert!(r.cells_per_sec > 0.0);
                assert!(r.speedup_vs_scalar > 0.0);
            }
        }
        let txt = render(&rows);
        assert!(txt.contains("vs scalar"));
    }
}
