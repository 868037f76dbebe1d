//! `experiments faults` — fault-injection recovery overhead.
//!
//! Measures what losing a device mid-run costs on a Figure-7-style
//! workload: the fault-free streaming pipeline versus the same
//! pipeline with one device killed halfway through the fault-free
//! modeled makespan. Both scenarios must produce bit-identical
//! alignment results and per-batch reports — asserted on every
//! iteration, it is the `tests/fault_recovery.rs` headline claim —
//! so the rows record only what recovery costs: the modeled makespan
//! stretch, the recovery counters, and the host wall-clock (which
//! barely moves, because recovery is a scheduling decision, not a
//! recompute of finished work).
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- faults --bench-json
//! ```

use crate::exp::dna_scorer;
use crate::exp::scaling::FIG7_MACHINE_SCALE;
use ipu_sim::fault::{DeviceDeath, FaultPlan};
use ipu_sim::spec::IpuSpec;
use seqdata::{Dataset, DatasetKind};
use std::time::Instant;
use xdrop_partition::pipeline::{run_pipeline_faulty, PipelineConfig};
use xdrop_partition::plan::PlanConfig;

/// One measured fault scenario.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FaultBenchRow {
    /// `"fault-free"` or `"device-lost"`.
    pub scenario: String,
    /// Devices the cluster started with.
    pub devices: usize,
    /// Batches executed.
    pub batches: usize,
    /// Modeled cluster makespan in seconds.
    pub modeled_seconds: f64,
    /// Modeled recovery overhead (`ClusterReport::recovery_seconds`).
    pub recovery_seconds: f64,
    /// Transient retries performed.
    pub retries: u64,
    /// Batches requeued after a mid-attempt device death.
    pub requeues: u64,
    /// Devices retired during the run.
    pub devices_lost: u64,
    /// Modeled makespan relative to the fault-free scenario (1.0 for
    /// the fault-free row itself).
    pub overhead_vs_fault_free: f64,
    /// Best-of-iterations host wall-clock for the full pipeline.
    pub host_seconds: f64,
    /// CPU cores available on the measuring host.
    pub host_cores: usize,
}

/// The command documented to regenerate the faults section of
/// `BENCH_xdrop.json`.
pub const FAULTS_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- faults --bench-json";

/// Devices in both scenarios.
pub const FAULT_DEVICES: usize = 4;

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(15);
    cfg.exec.host_threads = 4;
    cfg.plan = PlanConfig::partitioned(512).with_min_batches(16);
    cfg.devices = FAULT_DEVICES;
    cfg.streaming = true;
    cfg
}

/// Runs the benchmark. `scale` multiplies the workload size; `iters`
/// is how many times each scenario runs (best host time wins; the
/// modeled numbers are identical on every iteration by construction).
pub fn run(scale: f64, iters: usize) -> Vec<FaultBenchRow> {
    let iters = iters.max(1);
    let ds = Dataset::new(DatasetKind::Ecoli100, 0.06 * scale)
        .with_max_comparisons(((400.0 * scale) as usize).max(32));
    let w = ds.generate();
    let sc = dna_scorer();
    let spec = IpuSpec::bow().scaled(FIG7_MACHINE_SCALE);
    let cfg = config();
    let cores = super::host_cores();

    // Fault-free oracle first: its makespan positions the death.
    let oracle = run_pipeline_faulty(&w, &sc, &spec, &cfg, &FaultPlan::none())
        .expect("fault-free run cannot fail");
    let death_at = oracle.report.total_seconds * 0.5;
    let lost = FaultPlan {
        deaths: vec![DeviceDeath {
            device: FAULT_DEVICES as u32 - 1,
            at_seconds: death_at,
        }],
        ..FaultPlan::none()
    };

    let mut rows = Vec::new();
    for (scenario, plan) in [("fault-free", FaultPlan::none()), ("device-lost", lost)] {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..iters {
            let t0 = Instant::now();
            let out = run_pipeline_faulty(&w, &sc, &spec, &cfg, &plan)
                .expect("a single death among FAULT_DEVICES devices is recoverable");
            best = best.min(t0.elapsed().as_secs_f64());
            // The headline invariant, re-checked on the bench path:
            // faults move the timeline, never the results.
            assert_eq!(out.exec.results, oracle.exec.results, "{scenario}");
            assert_eq!(
                out.report.batch_reports, oracle.report.batch_reports,
                "{scenario}"
            );
            report = Some(out.report);
        }
        let report = report.expect("iters >= 1");
        rows.push(FaultBenchRow {
            scenario: scenario.to_string(),
            devices: FAULT_DEVICES,
            batches: report.batches,
            modeled_seconds: report.total_seconds,
            recovery_seconds: report.recovery_seconds,
            retries: report.retries,
            requeues: report.requeues,
            devices_lost: report.devices_lost,
            overhead_vs_fault_free: report.total_seconds / oracle.report.total_seconds,
            host_seconds: best,
            host_cores: cores,
        });
    }
    rows
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[FaultBenchRow]) -> String {
    let cores = rows.first().map_or(0, |r| r.host_cores);
    let mut s = format!(
        "scenario      devices  batches  modeled s  recovery s  lost  requeues  \
         overhead   host s   ({cores} host cores)\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<13} {:>6} {:>8} {:>10.4} {:>11.6} {:>5} {:>9} {:>9.3}x {:>8.3}\n",
            r.scenario,
            r.devices,
            r.batches,
            r.modeled_seconds,
            r.recovery_seconds,
            r.devices_lost,
            r.requeues,
            r.overhead_vs_fault_free,
            r.host_seconds
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rows_cover_both_scenarios_and_show_the_loss() {
        // Full scale, one iteration: every asserted quantity below is
        // modeled (deterministic on any host), and the default-scale
        // workload is what guarantees the mid-run death is *observed*
        // — at tiny scales all batches can bind before the death time,
        // leaving devices_lost honestly at 0.
        let rows = run(1.0, 1);
        assert_eq!(rows.len(), 2);
        let (clean, lost) = (&rows[0], &rows[1]);
        assert_eq!(clean.scenario, "fault-free");
        assert_eq!(lost.scenario, "device-lost");
        assert_eq!(
            (clean.retries, clean.requeues, clean.devices_lost),
            (0, 0, 0)
        );
        assert!((clean.overhead_vs_fault_free - 1.0).abs() < 1e-12);
        assert_eq!(clean.recovery_seconds, 0.0);
        assert_eq!(lost.devices_lost, 1);
        // Losing 1 of 4 devices halfway can only stretch the modeled
        // makespan.
        assert!(lost.overhead_vs_fault_free >= 1.0);
        assert_eq!(clean.batches, lost.batches);
        assert!(render(&rows).contains("device-lost"));
    }
}
