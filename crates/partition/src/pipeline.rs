//! The streaming host pipeline: `Workload` → [`ClusterReport`] with
//! no full-phase barriers.
//!
//! The pre-pipeline driver ran four serial phases — align everything,
//! build the graph, plan all batches, replay every batch kernel —
//! each finishing before the next began. The paper's §4.4 point is
//! that these stages *overlap* on the real machine: batches stream to
//! devices while others are still being preprocessed. This module
//! reproduces that shape on the host:
//!
//! 1. Worker threads claim comparisons one at a time (LPT order) from
//!    an [`IndexQueue`] and align them, writing units/results into
//!    [`SharedSlots`] keyed by comparison index. Under
//!    [`KernelKind::Batched`](xdrop_core::kernel::KernelKind) with a
//!    DNA scorer each claim is a *run* of the LPT order instead
//!    ([`claim_grain`]), aligned by one batch-kernel call whose
//!    results are bit-identical to the per-comparison path.
//! 2. *While they align*, the main thread plans batches from workload
//!    metadata alone ([`planning_units`]) — both planners read only
//!    `cmp` and `est_complexity`, which don't depend on alignment
//!    outcomes, so the plan is identical to the barriered one.
//! 3. Each finished comparison is announced over a channel; when the
//!    last comparison a batch touches is aligned, the batch index is
//!    pushed onto a [`ReadyQueue`]. Workers that run out of
//!    alignments switch to replaying ready batches.
//! 4. Batch reports stream back over the same channel; the main
//!    thread reorders them to batch order and feeds the incremental
//!    [`BatchScheduler`], so scheduling (and trace emission) overlaps
//!    replay.
//!
//! Determinism argument: every array is keyed by task index, the
//! scheduler consumes reports strictly in batch order, and the plan
//! depends only on metadata — so `ExecOutput`, the batch list, and
//! every `ClusterReport` field (including the trace) are bit-identical
//! to [`run_pipeline_reference`], the barriered four-phase oracle,
//! for any thread count and any steal interleaving. The differential
//! proptest `tests/pipeline_determinism.rs` enforces exactly that.

use crate::error::{PartitionError, PipelineError};
use crate::plan::{plan_batches_timed, PlanConfig, PlanTimings};
use ipu_sim::batch::Batch;
use ipu_sim::cluster::{run_cluster_faulty, BatchScheduler, ClusterOptions, ClusterReport};
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::device::{run_batch_on_device_scratch, BatchReport, BatchScratch};
use ipu_sim::exec::{
    align_comparison, align_comparisons_batched, claim_grain, execute_workload,
    execute_workload_reference, lpt_order, planning_units, ExecConfig, ExecOutput, UnitResult,
    WorkUnit,
};
use ipu_sim::fault::{ClusterError, FaultPlan};
use ipu_sim::pool::{resolve_threads, IndexQueue, ReadyQueue, SharedSlots};
use ipu_sim::spec::IpuSpec;
use ipu_sim::trace::ChromeTrace;
use std::sync::{mpsc, OnceLock};
use xdrop_core::error::AlignError;
use xdrop_core::extension::ExtenderPool;
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::Workload;

/// Configuration of the full host pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Kernel execution configuration (threads, band policy, LR
    /// split). `exec.host_threads` sizes the shared pool used by
    /// both the alignment and batch-replay stages (`0` = auto).
    pub exec: ExecConfig,
    /// Batch planning configuration.
    pub plan: PlanConfig,
    /// Devices of the simulated cluster.
    pub devices: usize,
    /// Optimization flags.
    pub flags: OptFlags,
    /// Cost calibration.
    pub cost: CostModel,
    /// Record a Chrome-trace timeline of the modeled run.
    pub collect_trace: bool,
    /// Use the streaming pipeline; `false` runs the barriered
    /// four-phase reference. Output is bit-identical either way.
    pub streaming: bool,
}

impl PipelineConfig {
    /// Defaults: X-Drop threshold `x`, partitioned planning with
    /// δ_b = 512, one device, all optimizations, streaming on.
    pub fn new(x: i32) -> Self {
        Self {
            exec: ExecConfig::new(xdrop_core::XDropParams::new(x)),
            plan: PlanConfig::partitioned(512),
            devices: 1,
            flags: OptFlags::full(),
            cost: CostModel::default(),
            collect_trace: false,
            streaming: true,
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Exact alignment results and schedulable units.
    pub exec: ExecOutput,
    /// The planned batches.
    pub batches: Vec<Batch>,
    /// The modeled cluster run.
    pub report: ClusterReport,
    /// Chrome trace, when requested.
    pub trace: Option<ChromeTrace>,
}

/// Appends `partition`/`plan` host phase spans to the trace, laid
/// out back to back from t = 0 on the [`ipu_sim::trace::TID_HOST`]
/// track. These are host wall-clock, so determinism comparisons
/// filter `cat == "host"`.
pub(crate) fn annotate_host_phases(trace: &mut Option<ChromeTrace>, t: &PlanTimings) {
    if let Some(tr) = trace.as_mut() {
        if t.partition_s > 0.0 {
            tr.push_host_phase("partition", 0.0, t.partition_s);
        }
        tr.push_host_phase("plan", t.partition_s, t.partition_s + t.plan_s);
    }
}

/// The barriered four-phase pipeline, kept verbatim as the
/// differential oracle (and the baseline the `experiments e2e`
/// benchmark measures the streaming pipeline against): static-chunk
/// alignment, full plan, pre-pass batch replay, then scheduling.
pub fn run_pipeline_reference<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_reference_faulty(w, scorer, spec, cfg, &FaultPlan::none())
}

/// [`run_pipeline_reference`] under an injected [`FaultPlan`] — the
/// barriered oracle of the chaos-conformance harness.
pub fn run_pipeline_reference_faulty<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    plan: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    let exec = execute_workload_reference(w, scorer, &cfg.exec)?;
    let (batches, timings) = plan_batches_timed(w, &exec.units, spec, &cfg.plan)?;
    let (report, mut trace) = run_cluster_faulty(
        &exec.units,
        &batches,
        cfg.devices,
        spec,
        &cfg.flags,
        &cfg.cost,
        &ClusterOptions {
            host_threads: cfg.exec.host_threads,
            collect_trace: cfg.collect_trace,
            streaming: false,
        },
        plan,
    )?;
    annotate_host_phases(&mut trace, &timings);
    Ok(PipelineOutput {
        exec,
        batches,
        report,
        trace,
    })
}

/// Messages flowing from the pool workers to the coordinator.
enum Msg {
    /// Comparison `ci` is aligned (its slots are written).
    Aligned(u32),
    /// Batch `bi` has been replayed.
    Report(u32, BatchReport),
    /// Comparison `ci` failed to align.
    Failed(u32, AlignError),
}

/// Picks the lowest-index failure so the reported error does not
/// depend on thread interleaving.
fn min_index_error(mut errors: Vec<(u32, AlignError)>) -> Option<AlignError> {
    errors.sort_unstable_by_key(|(ci, _)| *ci);
    errors.into_iter().next().map(|(_, e)| e)
}

/// Runs the full pipeline: align → plan → replay → schedule, with
/// stages overlapped on a shared work-stealing pool when
/// `cfg.streaming` is on and more than one thread is available.
pub fn run_pipeline<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_faulty(w, scorer, spec, cfg, &FaultPlan::none())
}

/// [`run_pipeline`] under an injected [`FaultPlan`]: the cluster
/// stage replays the plan's deterministic fault schedule, requeuing
/// failed batches onto surviving devices. With a recoverable plan
/// every output except the modeled timeline and the recovery
/// counters is bit-identical to the fault-free run; an unrecoverable
/// plan surfaces [`PipelineError::Cluster`] naming the smallest
/// batch index that could not complete. When several failure kinds
/// occur in one run the priority is fixed (plan error, then
/// smallest-index alignment error, then cluster error), so the
/// surfaced error never depends on thread interleaving.
pub fn run_pipeline_faulty<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    plan: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    if !cfg.streaming {
        return run_pipeline_reference_faulty(w, scorer, spec, cfg, plan);
    }
    let n = w.comparisons.len();
    let resolved = resolve_threads(cfg.exec.host_threads);
    let threads = resolved.min(n.max(1));
    if threads <= 1 || n < 16 {
        // Too little work to overlap: serial streaming (which the
        // cluster layer further degrades to a plain loop). Output is
        // identical by the same slot-keyed argument.
        let exec = execute_workload(w, scorer, &cfg.exec)?;
        let (batches, timings) = plan_batches_timed(w, &exec.units, spec, &cfg.plan)?;
        let (report, mut trace) = run_cluster_faulty(
            &exec.units,
            &batches,
            cfg.devices,
            spec,
            &cfg.flags,
            &cfg.cost,
            &ClusterOptions {
                host_threads: cfg.exec.host_threads,
                collect_trace: cfg.collect_trace,
                streaming: true,
            },
            plan,
        )?;
        annotate_host_phases(&mut trace, &timings);
        return Ok(PipelineOutput {
            exec,
            batches,
            report,
            trace,
        });
    }

    let exec_cfg = cfg.exec;
    let grain = claim_grain(&exec_cfg, scorer, n, threads);
    let upc = if exec_cfg.lr_split { 2 } else { 1 };
    let queue = IndexQueue::with_order(lpt_order(w));
    let units = SharedSlots::new(n * upc, WorkUnit::default());
    let results = SharedSlots::new(n, UnitResult::default());
    let ready = ReadyQueue::new();
    let extenders = ExtenderPool::new(exec_cfg.params, exec_cfg.backend());
    let batches_cell: OnceLock<Vec<Batch>> = OnceLock::new();
    let (tx, rx) = mpsc::channel::<Msg>();

    let mut sched =
        BatchScheduler::with_faults(cfg.devices, spec, cfg.collect_trace, resolved, plan)
            .with_link_contention(cfg.cost.host_link_contention);
    let mut errors: Vec<(u32, AlignError)> = Vec::new();
    let mut plan_err: Option<PartitionError> = None;
    let mut cluster_err: Option<ClusterError> = None;
    let mut plan_timings = PlanTimings::default();

    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (queue, units, results, ready, extenders, batches_cell) =
                (&queue, &units, &results, &ready, &extenders, &batches_cell);
            s.spawn(move |_| {
                // Phase 1: steal alignments until the queue is dry.
                // Under the batched kernel each claim is a run of the
                // LPT order, aligned in one batch call so similar-cost
                // comparisons share lane groups.
                if grain > 1 {
                    while let Some(claim) = queue.claim(grain) {
                        for (ci, outcome) in align_comparisons_batched(w, scorer, &exec_cfg, claim)
                        {
                            match outcome {
                                // SAFETY: same single-writer argument
                                // as the per-comparison loop below.
                                Ok((result, u0, u1)) => {
                                    unsafe {
                                        results.write(ci as usize, result);
                                        units.write(ci as usize * upc, u0);
                                        if let Some(u1) = u1 {
                                            units.write(ci as usize * upc + 1, u1);
                                        }
                                    }
                                    if tx.send(Msg::Aligned(ci)).is_err() {
                                        return;
                                    }
                                }
                                Err(e) => {
                                    queue.cancel();
                                    let _ = tx.send(Msg::Failed(ci, e));
                                }
                            }
                        }
                    }
                } else {
                    let mut ext = extenders.checkout();
                    while let Some(claim) = queue.claim(1) {
                        for &ci in claim {
                            match align_comparison(w, &mut ext, scorer, &exec_cfg, ci as usize) {
                                Ok((result, u0, u1)) => {
                                    // SAFETY: `ci` is claimed by
                                    // exactly one worker; readers are
                                    // ordered behind this write by the
                                    // channel send below (replay) or
                                    // the scope join (final assembly).
                                    unsafe {
                                        results.write(ci as usize, result);
                                        units.write(ci as usize * upc, u0);
                                        if let Some(u1) = u1 {
                                            units.write(ci as usize * upc + 1, u1);
                                        }
                                    }
                                    if tx.send(Msg::Aligned(ci)).is_err() {
                                        return;
                                    }
                                }
                                Err(e) => {
                                    queue.cancel();
                                    let _ = tx.send(Msg::Failed(ci, e));
                                }
                            }
                        }
                    }
                }
                // Phase 2: replay batches as they become ready. The
                // coordinator publishes `batches_cell` before the
                // first push, and only pushes a batch once every
                // comparison it touches is aligned.
                let mut scratch = BatchScratch::default();
                while let Some(bi) = ready.pop() {
                    let batches = batches_cell.get().expect("published before any push");
                    // SAFETY: all units of batch `bi` were written
                    // before their Aligned messages, which the
                    // coordinator consumed before pushing `bi`; the
                    // ReadyQueue mutex carries the happens-before.
                    let batch_units = unsafe { units.as_slice() };
                    let report = run_batch_on_device_scratch(
                        batch_units,
                        &batches[bi as usize],
                        spec,
                        &cfg.flags,
                        &cfg.cost,
                        &mut scratch,
                    );
                    if tx.send(Msg::Report(bi, report)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);

        // Plan while the workers align: metadata-only planning units
        // yield exactly the batches the aligned units would.
        let punits = planning_units(w, exec_cfg.lr_split);
        let planned = match plan_batches_timed(w, &punits, spec, &cfg.plan) {
            Ok((planned, timings)) => {
                plan_timings = timings;
                planned
            }
            Err(e) => {
                // Planning failed: stop handing out alignments and
                // release the workers (the replay queue never gets a
                // batch). The error is deterministic — the prepass
                // reports the smallest offending comparison — so the
                // caller sees the same failure for any thread count.
                plan_err = Some(e);
                queue.cancel();
                ready.close();
                return;
            }
        };
        let nb = planned.len();
        // Distinct comparisons pending per batch, and which batches
        // each comparison unblocks.
        let mut pending = vec![0usize; nb];
        let mut cmp_batches: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut stamp = vec![u32::MAX; n];
        for (bi, b) in planned.iter().enumerate() {
            for tile in &b.tiles {
                for &ui in &tile.units {
                    let ci = punits[ui as usize].cmp as usize;
                    if stamp[ci] != bi as u32 {
                        stamp[ci] = bi as u32;
                        pending[bi] += 1;
                        cmp_batches[ci].push(bi as u32);
                    }
                }
            }
        }
        batches_cell.set(planned).expect("published once");
        for (bi, &p) in pending.iter().enumerate() {
            if p == 0 {
                ready.push(bi as u32);
            }
        }

        // Consume completions: reorder replayed reports to batch
        // order and bind each as soon as its predecessors are bound.
        let mut pending_reports: Vec<Option<BatchReport>> = vec![None; nb];
        let mut next = 0usize;
        'consume: while next < nb && errors.is_empty() {
            match rx.recv() {
                Ok(Msg::Aligned(ci)) => {
                    for &bi in &cmp_batches[ci as usize] {
                        pending[bi as usize] -= 1;
                        if pending[bi as usize] == 0 {
                            ready.push(bi);
                        }
                    }
                }
                Ok(Msg::Report(bi, report)) => {
                    pending_reports[bi as usize] = Some(report);
                    while next < nb {
                        match pending_reports[next].take() {
                            Some(r) => {
                                // Binding strictly in batch order
                                // keeps a fault-induced abort
                                // deterministic: the error always
                                // names the smallest batch that
                                // could not complete. Cancel the
                                // claim queue so workers stop
                                // aligning; `ready` closes below.
                                if let Err(e) = sched.bind(r) {
                                    cluster_err = Some(e);
                                    queue.cancel();
                                    break 'consume;
                                }
                                next += 1;
                            }
                            None => break,
                        }
                    }
                }
                Ok(Msg::Failed(ci, e)) => {
                    errors.push((ci, e));
                }
                Err(_) => break,
            }
        }
        ready.close();
        // Collect any straggler failure notices (without blocking:
        // the queue is closed, so workers are draining out).
        for msg in rx.try_iter() {
            if let Msg::Failed(ci, e) = msg {
                errors.push((ci, e));
            }
        }
    })
    .expect("scope");

    if let Some(e) = plan_err {
        return Err(e.into());
    }
    if let Some(e) = min_index_error(errors) {
        return Err(e.into());
    }
    if let Some(e) = cluster_err {
        return Err(e.into());
    }
    let exec = ExecOutput {
        units: units.into_vec(),
        results: results.into_vec(),
    };
    let batches = batches_cell.into_inner().expect("planning always runs");
    let (report, mut trace) = sched.finish();
    annotate_host_phases(&mut trace, &plan_timings);
    Ok(PipelineOutput {
        exec,
        batches,
        report,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;
    use xdrop_core::xdrop2::BandPolicy;
    use xdrop_core::XDropParams;

    fn workload(n: usize) -> Workload {
        let mut rng = StdRng::seed_from_u64(23);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..n {
            let root: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1) % 4;
                }
            }
            let pos = rng.gen_range(0..350);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    fn cfg(threads: usize, streaming: bool) -> PipelineConfig {
        let mut c = PipelineConfig::new(15);
        c.exec.policy = BandPolicy::Grow(64);
        c.exec.host_threads = threads;
        c.plan = PlanConfig::partitioned(64).with_min_batches(4);
        c.devices = 3;
        c.collect_trace = true;
        c.streaming = streaming;
        c
    }

    #[test]
    fn streaming_is_bit_identical_to_reference() {
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle = run_pipeline_reference(&w, &sc, &spec, &cfg(1, false)).unwrap();
        for threads in [1usize, 3, 8] {
            for streaming in [false, true] {
                let out = run_pipeline(&w, &sc, &spec, &cfg(threads, streaming)).unwrap();
                assert_eq!(
                    out.exec.units, oracle.exec.units,
                    "t={threads} s={streaming}"
                );
                assert_eq!(
                    out.exec.results, oracle.exec.results,
                    "t={threads} s={streaming}"
                );
                assert_eq!(out.batches, oracle.batches, "t={threads} s={streaming}");
                assert_eq!(out.report, oracle.report, "t={threads} s={streaming}");
                // Traces agree once the host-meta annotation (which
                // records the *requested* pool size) and the
                // wall-clock host phase spans are filtered; compare
                // modeled span events only.
                let spans = |t: &ChromeTrace| {
                    t.traceEvents
                        .iter()
                        .filter(|e| e.cat != "meta" && e.cat != "host")
                        .cloned()
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    spans(&out.trace.clone().unwrap()),
                    spans(&oracle.trace.clone().unwrap()),
                    "t={threads} s={streaming}"
                );
            }
        }
    }

    #[test]
    fn batched_kernel_pipeline_is_bit_identical_to_scalar() {
        use xdrop_core::kernel::KernelKind;
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle = run_pipeline_reference(&w, &sc, &spec, &cfg(1, false)).unwrap();
        for threads in [1usize, 3, 8] {
            let mut c = cfg(threads, true);
            c.exec.params = c.exec.params.with_kernel(KernelKind::Batched);
            let out = run_pipeline(&w, &sc, &spec, &c).unwrap();
            assert_eq!(out.exec.units, oracle.exec.units, "t={threads}");
            assert_eq!(out.exec.results, oracle.exec.results, "t={threads}");
            assert_eq!(out.batches, oracle.batches, "t={threads}");
            assert_eq!(out.report, oracle.report, "t={threads}");
        }
    }

    #[test]
    fn naive_planning_also_streams_identically() {
        let w = workload(20);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let mut a = cfg(8, true);
        a.plan = PlanConfig::naive(64).with_min_batches(4);
        let mut b = a;
        b.streaming = false;
        b.exec.host_threads = 1;
        let streamed = run_pipeline(&w, &sc, &spec, &a).unwrap();
        let oracle = run_pipeline(&w, &sc, &spec, &b).unwrap();
        assert_eq!(streamed.report, oracle.report);
        assert_eq!(streamed.batches, oracle.batches);
    }

    #[test]
    fn errors_propagate_with_deterministic_variant() {
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let mut c = cfg(8, true);
        c.exec.policy = BandPolicy::Exact(1);
        c.exec.params = XDropParams::new(1000);
        let err = run_pipeline(&w, &sc, &spec, &c).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Align(AlignError::BandExceeded { .. })
        ));
    }

    #[test]
    fn recoverable_faults_keep_pipeline_output_bit_identical() {
        use ipu_sim::fault::{DeviceDeath, TransientFault};
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let clean = run_pipeline(&w, &sc, &spec, &cfg(1, true)).unwrap();
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 1,
            at_seconds: 0.0,
        }];
        plan.transients = vec![TransientFault {
            batch: 0,
            failures: 1,
        }];
        assert!(plan.is_recoverable(3));
        for threads in [1usize, 8] {
            let out = run_pipeline_faulty(&w, &sc, &spec, &cfg(threads, true), &plan).unwrap();
            assert_eq!(out.exec.units, clean.exec.units, "t={threads}");
            assert_eq!(out.exec.results, clean.exec.results, "t={threads}");
            assert_eq!(out.batches, clean.batches, "t={threads}");
            assert_eq!(
                out.report.batch_reports, clean.report.batch_reports,
                "t={threads}"
            );
            assert_eq!(out.report.retries, 1, "t={threads}");
            assert_eq!(out.report.devices_lost, 1, "t={threads}");
        }
    }

    #[test]
    fn cluster_errors_surface_through_the_streaming_coordinator() {
        use ipu_sim::fault::TransientFault;
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        // Every batch fails more often than the cap allows: the
        // smallest batch index is blamed regardless of threads or
        // streaming mode, and the coordinator aborts without
        // deadlocking the pool.
        let mut plan = FaultPlan::none();
        plan.max_retries = 1;
        plan.transients = (0..64)
            .map(|b| TransientFault {
                batch: b,
                failures: 2,
            })
            .collect();
        for threads in [1usize, 8] {
            for streaming in [false, true] {
                let err = run_pipeline_faulty(&w, &sc, &spec, &cfg(threads, streaming), &plan)
                    .unwrap_err();
                assert_eq!(
                    err,
                    PipelineError::Cluster(ClusterError::RetriesExhausted {
                        batch: 0,
                        attempts: 2
                    }),
                    "t={threads} s={streaming}"
                );
            }
        }
    }

    #[test]
    fn plan_errors_surface_through_the_streaming_coordinator() {
        // One comparison too big for any tile: alignment itself is
        // cheap (the sequences disagree immediately, so X-Drop gives
        // up fast), but planning must fail — deterministically naming
        // the smallest offending comparison — without deadlocking the
        // worker pool or panicking the coordinator.
        let mut w = workload(24);
        let budget = ipu_sim::batch::BatchConfig::new(64).tile_budget(&IpuSpec::gc200());
        let a = w.seqs.push(vec![0; budget]);
        let b = w.seqs.push(vec![1; budget]);
        w.comparisons[7] = Comparison::new(a, b, SeedMatch::new(0, 0, 1));
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        for threads in [1usize, 8] {
            let err = run_pipeline(&w, &sc, &spec, &cfg(threads, true)).unwrap_err();
            assert!(
                matches!(
                    err,
                    PipelineError::Partition(crate::error::PartitionError::OversizedComparison {
                        comparison: 7,
                        ..
                    })
                ),
                "threads {threads}: {err}"
            );
        }
    }
}
