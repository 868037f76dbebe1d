//! Kernel execution: real alignments, measured work.
//!
//! The simulator's timing inputs are not synthetic estimates — every
//! comparison of the workload is aligned for real with the
//! memory-restricted kernel, and the per-unit [`AlignStats`] drive
//! the cost model. Scores are therefore exact, and the timing model
//! sees precisely the irregularity (early X-Drop terminations, band
//! growth on noisy pairs) that makes load balancing hard on the real
//! machine.

use crate::pool::{resolve_threads, IndexQueue, SharedSlots};
use crossbeam::thread;
use std::cmp::Reverse;
use std::sync::Mutex;
use xdrop_core::aligner::AlignerKind;
use xdrop_core::batched::{self, BatchTask, TaskView};
use xdrop_core::error::{AlignError, Result};
use xdrop_core::extension::{Backend, Extender, ExtenderPool, Side};
use xdrop_core::kernel::KernelKind;
use xdrop_core::scoring::Scorer;
use xdrop_core::stats::AlignStats;
use xdrop_core::workload::Workload;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// X-Drop parameters. The embedded [`XDropParams::kernel`]
    /// choice (scalar / chunked / batched) only changes host wall-clock
    /// while replaying the kernels — all kernels are bit-identical,
    /// so modeled time and every reported statistic are unaffected.
    pub params: XDropParams,
    /// Band policy for the memory-restricted kernel.
    pub policy: BandPolicy,
    /// Which alignment engine serves the extensions (per-request
    /// engine selection of the [`xdrop_core::aligner`] facade).
    /// Defaults to the paper's [`AlignerKind::XDrop2`].
    pub aligner: AlignerKind,
    /// Emit two work units (left, right) per comparison instead of
    /// one fused unit — the LR-splitting optimization (§4.1.2).
    pub lr_split: bool,
    /// Host threads used to run the kernels (simulation-side
    /// parallelism only; does not affect results or modeled time).
    /// `0` means "auto": [`std::thread::available_parallelism`].
    pub host_threads: usize,
}

impl ExecConfig {
    /// Defaults: X = 15, growing band from δ_b = 256, the paper's
    /// two-antidiagonal engine, LR split on, host threads
    /// auto-detected.
    pub fn new(params: XDropParams) -> Self {
        Self {
            params,
            policy: BandPolicy::Grow(256),
            aligner: AlignerKind::XDrop2,
            lr_split: true,
            host_threads: 0,
        }
    }

    /// Selects the alignment engine.
    pub fn with_aligner(mut self, aligner: AlignerKind) -> Self {
        self.aligner = aligner;
        self
    }

    /// The extension backend this configuration resolves to.
    pub fn backend(&self) -> Backend {
        Backend::for_kind(self.aligner, self.params.x, self.policy)
    }
}

/// One schedulable unit of work: a whole comparison, or one side of
/// it under LR splitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkUnit {
    /// Index of the comparison in the workload.
    pub cmp: u32,
    /// Which side (`None` = fused left+right unit).
    pub side: Option<Side>,
    /// Measured kernel work.
    pub stats: AlignStats,
    /// Score contributed by this unit (extension score only; seed
    /// score is accounted in [`UnitResult`]).
    pub score: i32,
    /// Worst-case work estimate `|H|×|V|` used by the batchers
    /// (§4.2: actual runtime is unknowable in advance, so the
    /// quadratic bound is used).
    pub est_complexity: u64,
}

/// Final per-comparison alignment outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UnitResult {
    /// Total score: left + seed + right.
    pub score: i32,
    /// Combined stats of both extensions.
    pub stats: AlignStats,
}

/// Output of [`execute_workload`].
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Schedulable units, in deterministic order (comparison order;
    /// under LR splitting left precedes right).
    pub units: Vec<WorkUnit>,
    /// Per-comparison results, parallel to `workload.comparisons`.
    pub results: Vec<UnitResult>,
}

impl ExecOutput {
    /// Total DP cells actually computed across all units.
    pub fn total_cells_computed(&self) -> u64 {
        self.units.iter().map(|u| u.stats.cells_computed).sum()
    }

    /// Largest live band width observed — the `δ_w` a static `δ_b`
    /// must dominate for the whole workload.
    pub fn max_delta_w(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.stats.delta_w)
            .max()
            .unwrap_or(0)
    }
}

/// Aligns one comparison and returns its result plus the one or two
/// work units it produces (two under LR splitting: left then right).
///
/// This is the per-task body of every execution path — serial,
/// static-chunk reference, and the work-stealing pool — so the unit
/// contents cannot depend on which path (or thread) ran the task.
pub fn align_comparison<S: Scorer>(
    w: &Workload,
    ext: &mut Extender,
    scorer: &S,
    cfg: &ExecConfig,
    ci: usize,
) -> Result<(UnitResult, WorkUnit, Option<WorkUnit>)> {
    let c = w.comparisons[ci];
    let h = w.seqs.get(c.h);
    let v = w.seqs.get(c.v);
    let out = ext.extend(h, v, c.seed, scorer)?;
    let mut stats = out.left.stats;
    stats.merge(&out.right.stats);
    let result = UnitResult {
        score: out.score,
        stats,
    };
    if cfg.lr_split {
        let (lh, lv) = w.left_lens(&c);
        let (rh, rv) = w.right_lens(&c);
        Ok((
            result,
            WorkUnit {
                cmp: ci as u32,
                side: Some(Side::Left),
                stats: out.left.stats,
                score: out.left.result.best_score,
                est_complexity: lh as u64 * lv as u64,
            },
            Some(WorkUnit {
                cmp: ci as u32,
                side: Some(Side::Right),
                stats: out.right.stats,
                score: out.right.result.best_score,
                est_complexity: rh as u64 * rv as u64,
            }),
        ))
    } else {
        Ok((
            result,
            WorkUnit {
                cmp: ci as u32,
                side: None,
                stats,
                score: out.score,
                est_complexity: w.complexity(&c),
            },
            None,
        ))
    }
}

/// Work units derivable from workload *metadata alone*: same `cmp`,
/// `side` and `est_complexity` as the real units, but default stats
/// and zero score.
///
/// Both batch planners ([`crate::batch::naive_batches`] and the
/// graph-partitioned planner) read only `cmp` and `est_complexity`,
/// so planning over these placeholders yields exactly the batches
/// planning over the aligned units would — which is what lets the
/// streaming pipeline plan *while* alignment is still running.
pub fn planning_units(w: &Workload, lr_split: bool) -> Vec<WorkUnit> {
    let mut units = Vec::with_capacity(w.comparisons.len() * if lr_split { 2 } else { 1 });
    for (ci, c) in w.comparisons.iter().enumerate() {
        if lr_split {
            let (lh, lv) = w.left_lens(c);
            let (rh, rv) = w.right_lens(c);
            units.push(WorkUnit {
                cmp: ci as u32,
                side: Some(Side::Left),
                stats: AlignStats::default(),
                score: 0,
                est_complexity: lh as u64 * lv as u64,
            });
            units.push(WorkUnit {
                cmp: ci as u32,
                side: Some(Side::Right),
                stats: AlignStats::default(),
                score: 0,
                est_complexity: rh as u64 * rv as u64,
            });
        } else {
            units.push(WorkUnit {
                cmp: ci as u32,
                side: None,
                stats: AlignStats::default(),
                score: 0,
                est_complexity: w.complexity(c),
            });
        }
    }
    units
}

/// How many consecutive LPT-order claims one worker's batch call
/// spans, as a multiple of the lane width. The batched kernel's
/// mid-flight refill turns the surplus beyond one lane group into a
/// pending queue: a lane that X-Drop retires early is refilled from
/// the same claim instead of idling, so oversizing the claim raises
/// lane occupancy. 4× keeps the per-claim task spread inside one LPT
/// run (similar costs) while leaving ~3 refill waves per slot.
pub const REFILL_CLAIM_FACTOR: usize = 4;

/// How many comparisons each queue claim should hand one of
/// `threads` workers sharing `n` comparisons.
///
/// Under [`KernelKind::Batched`] with a scorer its `i16` lanes can
/// model, a claim is [`REFILL_CLAIM_FACTOR`] × the hardware lane width
/// (one lane group plus a refill queue — and, because claims are
/// consecutive runs of the LPT order, its comparisons already have
/// similar cost), capped at the per-thread share `⌈n / threads⌉` so a
/// small workload (one out-of-core window) still spreads over every
/// worker. A grain above 1 selects the batch-call path
/// ([`align_comparisons_batched`]).
///
/// Everything else claims one comparison at a time and runs it
/// through a reused [`Extender`]: the other engines, the other
/// kernels, and ineligible scorers (BLOSUM62), which the batched
/// kernel would only hand to the chunked sweep per task anyway.
pub fn claim_grain<S: Scorer>(cfg: &ExecConfig, scorer: &S, n: usize, threads: usize) -> usize {
    let lanes_apply = cfg.params.kernel == KernelKind::Batched
        && cfg.aligner == AlignerKind::XDrop2
        && batched::eligible(scorer).is_some();
    if lanes_apply {
        (batched::lane_width() * REFILL_CLAIM_FACTOR).min(n.div_ceil(threads.max(1)))
    } else {
        1
    }
}

/// What aligning one comparison yields: its result plus the one or
/// two work units it produces (see [`align_comparison`]).
pub type ComparisonOutcome = Result<(UnitResult, WorkUnit, Option<WorkUnit>)>;

/// Batched analogue of [`align_comparison`] over a whole claim: the
/// left and right extensions of every claimed comparison become tasks
/// of a single [`batched::align_batch`] call, so up to `2 × grain`
/// alignments share the kernel's lane groups. Outcomes are returned
/// in claim order and each is bit-identical to what
/// [`align_comparison`] produces for that comparison alone — seed
/// validation first, then the left extension's error takes precedence
/// over the right's, exactly like `Extender::extend`'s early returns.
pub fn align_comparisons_batched<S: Scorer>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
    claim: &[u32],
) -> Vec<(u32, ComparisonOutcome)> {
    // Task layout: comparisons with a valid seed contribute two
    // consecutive tasks (left, right) at their recorded base index.
    let mut tasks: Vec<BatchTask<'_>> = Vec::with_capacity(claim.len() * 2);
    let mut bases: Vec<Result<usize>> = Vec::with_capacity(claim.len());
    for &ci in claim {
        let c = w.comparisons[ci as usize];
        let h = w.seqs.get(c.h);
        let v = w.seqs.get(c.v);
        match c.seed.validate(h.len(), v.len()) {
            Ok(()) => {
                bases.push(Ok(tasks.len()));
                tasks.push(BatchTask {
                    h: TaskView::Rev(&h[..c.seed.h_pos]),
                    v: TaskView::Rev(&v[..c.seed.v_pos]),
                });
                tasks.push(BatchTask {
                    h: TaskView::Fwd(&h[c.seed.h_pos + c.seed.k..]),
                    v: TaskView::Fwd(&v[c.seed.v_pos + c.seed.k..]),
                });
            }
            Err(e) => bases.push(Err(e)),
        }
    }
    let (outs, _report) = batched::align_batch(&tasks, scorer, cfg.params, cfg.policy);
    claim
        .iter()
        .zip(bases)
        .map(|(&ci, base)| {
            let outcome = base.and_then(|base| {
                let left = outs[base].clone()?;
                let right = outs[base + 1].clone()?;
                let c = w.comparisons[ci as usize];
                let h = w.seqs.get(c.h);
                let v = w.seqs.get(c.v);
                let seed_score = scorer.seed_score(
                    &h[c.seed.h_pos..c.seed.h_pos + c.seed.k],
                    &v[c.seed.v_pos..c.seed.v_pos + c.seed.k],
                );
                let mut stats = left.stats;
                stats.merge(&right.stats);
                let result = UnitResult {
                    score: left.result.best_score + seed_score + right.result.best_score,
                    stats,
                };
                if cfg.lr_split {
                    let (lh, lv) = w.left_lens(&c);
                    let (rh, rv) = w.right_lens(&c);
                    Ok((
                        result,
                        WorkUnit {
                            cmp: ci,
                            side: Some(Side::Left),
                            stats: left.stats,
                            score: left.result.best_score,
                            est_complexity: lh as u64 * lv as u64,
                        },
                        Some(WorkUnit {
                            cmp: ci,
                            side: Some(Side::Right),
                            stats: right.stats,
                            score: right.result.best_score,
                            est_complexity: rh as u64 * rv as u64,
                        }),
                    ))
                } else {
                    Ok((
                        result,
                        WorkUnit {
                            cmp: ci,
                            side: None,
                            stats,
                            score: result.score,
                            est_complexity: w.complexity(&c),
                        },
                        None,
                    ))
                }
            });
            (ci, outcome)
        })
        .collect()
}

/// Serial batched execution over a contiguous range: grain-sized runs
/// of comparisons go through [`align_comparisons_batched`] in index
/// order, so the first failing index raises the same error as the
/// per-comparison serial pass.
fn exec_range_batched<S: Scorer>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
    range: std::ops::Range<usize>,
    grain: usize,
) -> Result<(Vec<WorkUnit>, Vec<UnitResult>)> {
    let indices: Vec<u32> = range.map(|ci| ci as u32).collect();
    let mut units = Vec::with_capacity(indices.len() * if cfg.lr_split { 2 } else { 1 });
    let mut results = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(grain.max(1)) {
        for (_, outcome) in align_comparisons_batched(w, scorer, cfg, chunk) {
            let (result, u0, u1) = outcome?;
            results.push(result);
            units.push(u0);
            if let Some(u1) = u1 {
                units.push(u1);
            }
        }
    }
    Ok((units, results))
}

fn exec_range<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
    range: std::ops::Range<usize>,
) -> Result<(Vec<WorkUnit>, Vec<UnitResult>)> {
    let mut ext = Extender::new(cfg.params, cfg.backend());
    let mut units = Vec::with_capacity(range.len() * if cfg.lr_split { 2 } else { 1 });
    let mut results = Vec::with_capacity(range.len());
    for ci in range {
        let (result, u0, u1) = align_comparison(w, &mut ext, scorer, cfg, ci)?;
        results.push(result);
        units.push(u0);
        if let Some(u1) = u1 {
            units.push(u1);
        }
    }
    Ok((units, results))
}

/// The pre-pool executor: serial below 64 comparisons, otherwise
/// static contiguous chunks, one fresh [`Extender`] per chunk.
/// Retained verbatim as the differential oracle for
/// [`execute_workload`] — and as the baseline the `experiments e2e`
/// benchmark measures the streaming pipeline against.
pub fn execute_workload_reference<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
) -> Result<ExecOutput> {
    let n = w.comparisons.len();
    let threads = resolve_threads(cfg.host_threads).min(n.max(1));
    if threads <= 1 || n < 64 {
        let (units, results) = exec_range(w, scorer, cfg, 0..n)?;
        return Ok(ExecOutput { units, results });
    }
    let chunk = n.div_ceil(threads);
    let pieces: Vec<Result<(Vec<WorkUnit>, Vec<UnitResult>)>> = thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            handles.push(s.spawn(move |_| exec_range(w, scorer, cfg, lo..hi)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread panicked"))
            .collect()
    })
    .expect("scope");
    let mut units = Vec::new();
    let mut results = Vec::new();
    for piece in pieces {
        let (u, r) = piece?;
        units.extend(u);
        results.extend(r);
    }
    Ok(ExecOutput { units, results })
}

/// The descending-estimate (LPT) claim order used by the
/// work-stealing executors: largest `|H|×|V|` bound first, index as
/// tiebreak. Claim order only affects host wall-clock — results land
/// in per-index slots — so any permutation is legal; LPT bounds the
/// tail imbalance by a single comparison.
pub fn lpt_order(w: &Workload) -> Vec<u32> {
    let mut order: Vec<u32> = (0..w.comparisons.len() as u32).collect();
    order.sort_unstable_by_key(|&ci| (Reverse(w.complexity(&w.comparisons[ci as usize])), ci));
    order
}

/// Picks the lowest-index failure so the reported error does not
/// depend on thread interleaving.
pub(crate) fn min_index_error(mut errors: Vec<(u32, AlignError)>) -> Option<AlignError> {
    errors.sort_unstable_by_key(|(ci, _)| *ci);
    errors.into_iter().next().map(|(_, e)| e)
}

/// Aligns every comparison of `w` and returns the schedulable units
/// plus per-comparison results. Deterministic regardless of
/// `cfg.host_threads`.
///
/// Multi-threaded runs use a work-stealing pool: comparisons are
/// claimed one at a time in [`lpt_order`] from an [`IndexQueue`] and
/// written into [`SharedSlots`] keyed by comparison index, so the
/// output is identical to the serial pass for any thread count and
/// any claim interleaving. Each worker checks out one extender from
/// an [`ExtenderPool`] for its whole lifetime, instead of the
/// per-chunk rebuild the reference executor pays.
pub fn execute_workload<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
) -> Result<ExecOutput> {
    let n = w.comparisons.len();
    let threads = resolve_threads(cfg.host_threads).min(n.max(1));
    if threads <= 1 || n < 16 {
        let grain = claim_grain(cfg, scorer, n, 1);
        let (units, results) = if grain > 1 {
            exec_range_batched(w, scorer, cfg, 0..n, grain)?
        } else {
            exec_range(w, scorer, cfg, 0..n)?
        };
        return Ok(ExecOutput { units, results });
    }
    let grain = claim_grain(cfg, scorer, n, threads);
    let upc = if cfg.lr_split { 2 } else { 1 };
    let queue = IndexQueue::with_order(lpt_order(w));
    let units = SharedSlots::new(n * upc, WorkUnit::default());
    let results = SharedSlots::new(n, UnitResult::default());
    let extenders = ExtenderPool::new(cfg.params, cfg.backend());
    let errors: Mutex<Vec<(u32, AlignError)>> = Mutex::new(Vec::new());
    thread::scope(|s| {
        for _ in 0..threads {
            let (queue, units, results, extenders, errors) =
                (&queue, &units, &results, &extenders, &errors);
            s.spawn(move |_| {
                if grain > 1 {
                    // Batched kernel: claim a run of the LPT order at
                    // a time and align the whole run in one batch
                    // call, so comparisons of similar cost share lane
                    // groups.
                    while let Some(claim) = queue.claim(grain) {
                        for (ci, outcome) in align_comparisons_batched(w, scorer, cfg, claim) {
                            match outcome {
                                // SAFETY: same single-writer argument
                                // as the per-comparison loop below.
                                Ok((result, u0, u1)) => unsafe {
                                    results.write(ci as usize, result);
                                    units.write(ci as usize * upc, u0);
                                    if let Some(u1) = u1 {
                                        units.write(ci as usize * upc + 1, u1);
                                    }
                                },
                                Err(e) => {
                                    queue.cancel();
                                    errors.lock().expect("error log poisoned").push((ci, e));
                                }
                            }
                        }
                    }
                    return;
                }
                let mut ext = extenders.checkout();
                while let Some(claim) = queue.claim(1) {
                    for &ci in claim {
                        match align_comparison(w, &mut ext, scorer, cfg, ci as usize) {
                            // SAFETY: `ci` is claimed by exactly one
                            // worker, so each slot is written once;
                            // the scope join below orders the writes
                            // before the `into_vec` reads.
                            Ok((result, u0, u1)) => unsafe {
                                results.write(ci as usize, result);
                                units.write(ci as usize * upc, u0);
                                if let Some(u1) = u1 {
                                    units.write(ci as usize * upc + 1, u1);
                                }
                            },
                            Err(e) => {
                                queue.cancel();
                                errors.lock().expect("error log poisoned").push((ci, e));
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("scope");
    if let Some(e) = min_index_error(errors.into_inner().expect("error log poisoned")) {
        return Err(e);
    }
    Ok(ExecOutput {
        units: units.into_vec(),
        results: results.into_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;

    fn small_workload() -> Workload {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..40 {
            let root: Vec<u8> = (0..500).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1) % 4;
                }
            }
            // Protect an exact seed.
            let pos = rng.gen_range(0..450);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    fn cfg(lr: bool) -> ExecConfig {
        ExecConfig {
            params: XDropParams::new(15),
            policy: BandPolicy::Grow(64),
            aligner: AlignerKind::XDrop2,
            lr_split: lr,
            host_threads: 4,
        }
    }

    #[test]
    fn fused_units_one_per_comparison() {
        let w = small_workload();
        let out = execute_workload(&w, &MatchMismatch::dna_default(), &cfg(false)).unwrap();
        assert_eq!(out.units.len(), w.comparisons.len());
        assert_eq!(out.results.len(), w.comparisons.len());
        assert!(out.units.iter().all(|u| u.side.is_none()));
    }

    #[test]
    fn split_units_two_per_comparison() {
        let w = small_workload();
        let out = execute_workload(&w, &MatchMismatch::dna_default(), &cfg(true)).unwrap();
        assert_eq!(out.units.len(), 2 * w.comparisons.len());
        // Left/right alternate and reference the right comparison.
        for (i, pair) in out.units.chunks(2).enumerate() {
            assert_eq!(pair[0].cmp as usize, i);
            assert_eq!(pair[0].side, Some(Side::Left));
            assert_eq!(pair[1].side, Some(Side::Right));
        }
    }

    #[test]
    fn split_and_fused_agree_on_scores() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let a = execute_workload(&w, &sc, &cfg(false)).unwrap();
        let b = execute_workload(&w, &sc, &cfg(true)).unwrap();
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.score, rb.score);
        }
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let mut c1 = cfg(true);
        c1.host_threads = 1;
        let mut c8 = cfg(true);
        c8.host_threads = 8;
        let a = execute_workload(&w, &sc, &c1).unwrap();
        let b = execute_workload(&w, &sc, &c8).unwrap();
        assert_eq!(a.units, b.units);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn work_stealing_matches_reference_executor() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for lr in [false, true] {
            for threads in [1usize, 3, 8] {
                let mut c = cfg(lr);
                c.host_threads = threads;
                let a = execute_workload_reference(&w, &sc, &c).unwrap();
                let b = execute_workload(&w, &sc, &c).unwrap();
                assert_eq!(a.units, b.units, "lr={lr} threads={threads}");
                assert_eq!(a.results, b.results, "lr={lr} threads={threads}");
            }
        }
    }

    #[test]
    fn planning_units_match_real_unit_metadata() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for lr in [false, true] {
            let real = execute_workload(&w, &sc, &cfg(lr)).unwrap();
            let planned = planning_units(&w, lr);
            assert_eq!(planned.len(), real.units.len());
            for (p, r) in planned.iter().zip(&real.units) {
                assert_eq!(p.cmp, r.cmp);
                assert_eq!(p.side, r.side);
                assert_eq!(p.est_complexity, r.est_complexity);
            }
        }
    }

    #[test]
    fn lpt_order_is_descending_and_complete() {
        let w = small_workload();
        let order = lpt_order(&w);
        assert_eq!(order.len(), w.comparisons.len());
        let est: Vec<u64> = order
            .iter()
            .map(|&ci| w.complexity(&w.comparisons[ci as usize]))
            .collect();
        assert!(est.windows(2).all(|p| p[0] >= p[1]));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn errors_surface_smallest_failing_comparison() {
        use xdrop_core::xdrop2::BandPolicy;
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        // Exact(1) band cannot hold 5% error flanks: every comparison
        // fails, and both executors must blame a comparison
        // deterministically (the work-stealing pool reports the
        // smallest failing index it recorded).
        let mut c = cfg(true);
        c.policy = BandPolicy::Exact(1);
        c.host_threads = 8;
        let err = execute_workload(&w, &sc, &c).unwrap_err();
        assert!(matches!(
            err,
            xdrop_core::error::AlignError::BandExceeded { .. }
        ));
        let err = execute_workload_reference(&w, &sc, &c).unwrap_err();
        assert!(matches!(
            err,
            xdrop_core::error::AlignError::BandExceeded { .. }
        ));
    }

    #[test]
    fn batched_kernel_matches_scalar_executor_bit_for_bit() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for lr in [false, true] {
            let mut scalar = cfg(lr);
            scalar.params = scalar.params.with_kernel(KernelKind::Scalar);
            scalar.host_threads = 1;
            assert_eq!(claim_grain(&scalar, &sc, w.comparisons.len(), 1), 1);
            let oracle = execute_workload_reference(&w, &sc, &scalar).unwrap();
            for threads in [1usize, 3, 8] {
                let mut c = cfg(lr);
                c.params = c.params.with_kernel(KernelKind::Batched);
                c.host_threads = threads;
                assert!(claim_grain(&c, &sc, w.comparisons.len(), 1) >= 8);
                let got = execute_workload(&w, &sc, &c).unwrap();
                assert_eq!(oracle.units, got.units, "lr={lr} threads={threads}");
                assert_eq!(oracle.results, got.results, "lr={lr} threads={threads}");
            }
        }
    }

    /// A DNA scorer that records which worker threads score seeds,
    /// and holds each worker in `seed_score` until a second worker
    /// has shown up (or a deadline passes) — so a claim that could
    /// have gone to the other worker is never swallowed by the first
    /// one racing ahead.
    struct TwoWorkerProbe {
        inner: MatchMismatch,
        seen: Mutex<Vec<std::thread::ThreadId>>,
        arrived: std::sync::Condvar,
    }

    impl Scorer for TwoWorkerProbe {
        fn sim(&self, a: u8, b: u8) -> i32 {
            self.inner.sim(a, b)
        }
        fn gap(&self) -> i32 {
            self.inner.gap()
        }
        fn alphabet(&self) -> Alphabet {
            Alphabet::Dna
        }
        fn as_match_mismatch(&self) -> Option<MatchMismatch> {
            Some(self.inner)
        }
        fn seed_score(&self, seed_h: &[u8], seed_v: &[u8]) -> i32 {
            let me = std::thread::current().id();
            let mut seen = self.seen.lock().expect("probe lock poisoned");
            if !seen.contains(&me) {
                seen.push(me);
                self.arrived.notify_all();
            }
            let timeout = std::time::Duration::from_secs(2);
            let _ = self
                .arrived
                .wait_timeout_while(seen, timeout, |seen| seen.len() < 2)
                .expect("probe lock poisoned");
            self.inner.seed_score(seed_h, seed_v)
        }
    }

    #[test]
    fn small_window_claims_spread_over_both_workers() {
        // One out-of-core window's worth of comparisons at two
        // threads: the claim grain is capped at the per-thread share,
        // so both workers get a claim — and the output still bit-
        // matches the scalar executor.
        let mut w = small_workload();
        w.comparisons.truncate(16);
        let mut c = cfg(true);
        c.params = c.params.with_kernel(KernelKind::Batched);
        c.host_threads = 2;
        let probe = TwoWorkerProbe {
            inner: MatchMismatch::dna_default(),
            seen: Mutex::new(Vec::new()),
            arrived: std::sync::Condvar::new(),
        };
        assert_eq!(claim_grain(&c, &probe, 16, 2), 8);
        let got = execute_workload(&w, &probe, &c).unwrap();
        assert_eq!(probe.seen.lock().unwrap().len(), 2, "one worker idled");
        let mut scalar = c;
        scalar.params = scalar.params.with_kernel(KernelKind::Scalar);
        scalar.host_threads = 1;
        let want = execute_workload_reference(&w, &MatchMismatch::dna_default(), &scalar).unwrap();
        assert_eq!(want.units, got.units);
        assert_eq!(want.results, got.results);
    }

    #[test]
    fn ineligible_scorer_claims_one_comparison_at_a_time() {
        use xdrop_core::scoring::Blosum62;
        let mut c = cfg(true);
        c.params = c.params.with_kernel(KernelKind::Batched);
        assert_eq!(claim_grain(&c, &Blosum62::pastis_default(), 1000, 2), 1);
        assert!(claim_grain(&c, &MatchMismatch::dna_default(), 1000, 2) > 1);
    }

    #[test]
    fn batched_kernel_errors_match_scalar_executor() {
        use xdrop_core::xdrop2::BandPolicy;
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let mut scalar = cfg(true);
        scalar.policy = BandPolicy::Exact(1);
        scalar.params = scalar.params.with_kernel(KernelKind::Scalar);
        scalar.host_threads = 1;
        let want = execute_workload_reference(&w, &sc, &scalar).unwrap_err();
        for threads in [1usize, 8] {
            let mut c = cfg(true);
            c.policy = BandPolicy::Exact(1);
            c.params = c.params.with_kernel(KernelKind::Batched);
            c.host_threads = threads;
            let got = execute_workload(&w, &sc, &c).unwrap_err();
            assert_eq!(want, got, "threads={threads}");
        }
    }

    #[test]
    fn batched_claim_handles_invalid_seed_without_poisoning_lanes() {
        // An out-of-bounds seed in the middle of a claim must fail
        // that comparison alone; its neighbours in the same batch
        // still bit-match the scalar path.
        let mut w = small_workload();
        let bad = 7usize;
        let c = &mut w.comparisons[bad];
        c.seed = SeedMatch::new(10_000, 10_000, 17);
        let sc = MatchMismatch::dna_default();
        let mut batchedc = cfg(true);
        batchedc.params = batchedc.params.with_kernel(KernelKind::Batched);
        let claim: Vec<u32> = (0..16).collect();
        let outcomes = align_comparisons_batched(&w, &sc, &batchedc, &claim);
        assert_eq!(outcomes.len(), claim.len());
        let mut ext = Extender::new(batchedc.params, Backend::TwoDiag(batchedc.policy));
        let mut scalarc = batchedc;
        scalarc.params = scalarc.params.with_kernel(KernelKind::Scalar);
        for (ci, outcome) in outcomes {
            let scalar = align_comparison(&w, &mut ext, &sc, &scalarc, ci as usize);
            match (ci as usize == bad, outcome, scalar) {
                (true, Err(a), Err(b)) => assert_eq!(a, b),
                (false, Ok(a), Ok(b)) => assert_eq!(a, b, "ci={ci}"),
                (at_bad, a, b) => panic!("ci={ci} at_bad={at_bad}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn scores_are_plausible() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let out = execute_workload(&w, &sc, &cfg(true)).unwrap();
        for r in &out.results {
            // 5% error, 500 bp: score must be solidly positive.
            assert!(r.score > 100, "score {}", r.score);
        }
        assert!(out.total_cells_computed() > 0);
        assert!(out.max_delta_w() >= 1);
    }
}
