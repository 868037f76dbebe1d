//! The benchmark workloads.
//!
//! Each workload builds its input from the seed (the timed set-up),
//! exposes one timed `solve` through the library's public entry
//! points in the default configuration, an `oracle` run of the same
//! entry point with the scalar `xdrop2` kernel, and a traced `staged`
//! run that calls the layers one after another on the same input so
//! each layer gets its own span.

use crate::trace::Tracer;
use ipu_sim::batch::Batch;
use ipu_sim::cluster::{run_cluster, ClusterReport};
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::exec::{execute_workload, ExecConfig, ExecOutput, UnitResult, WorkUnit};
use ipu_sim::spec::IpuSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::{Dataset, DatasetKind};
use xdrop_bench::exp::scaling::FIG7_MACHINE_SCALE;
use xdrop_core::batched::{align_batch, BatchReport, BatchTask, TaskView};
use xdrop_core::kernel::KernelKind;
use xdrop_core::scoring::{Blosum62, MatchMismatch, Scorer};
use xdrop_core::workload::{Comparison, SeqSet, Workload};
use xdrop_core::XDropParams;
use xdrop_partition::plan::{plan_batches_timed, PlanConfig, PlanTimings};
use xdrop_partition::{run_pipeline, run_pipeline_out_of_core, PipelineConfig, WorkloadWindow};
use xdrop_pipelines::overlap::{detect_overlaps, OverlapConfig};
use xdrop_pipelines::pastis::{generate_families, PastisConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["sim85-x100-ooc", "pastis-x49", "fleet-plan"];

/// `sim85-x100-ooc`: dataset scale (40 000 pairs × scale).
const SIM85_SCALE: f64 = 0.0025;
/// `sim85-x100-ooc`: comparisons per generation window.
const SIM85_WINDOW: usize = 16;
/// `sim85-x100-ooc`: devices of the modeled cluster.
const SIM85_DEVICES: usize = 4;
/// `pastis-x49`: generated proteins.
const PASTIS_PROTEINS: usize = 3000;
/// `fleet-plan`: dataset scale (500 000 proteins × scale).
const FLEET_SCALE: f64 = 0.025;
/// `fleet-plan`: device counts of the sweep.
const FLEET_DEVICES: [usize; 5] = [4, 16, 64, 256, 512];
/// `fleet-plan`: host-link contention coefficients of the sweep.
const FLEET_ETAS: [f64; 2] = [0.0, 0.02];

/// What one solve produced, reduced to what the correctness gate
/// compares bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solved {
    /// Detected candidate comparisons (`pastis-x49` only).
    pub candidates: Vec<Comparison>,
    /// Per-comparison score and `AlignStats`.
    pub results: Vec<UnitResult>,
    /// Work units (alignment stats per extension side).
    pub units: Vec<WorkUnit>,
    /// One batch list per modeled cluster run.
    pub batches: Vec<Vec<Batch>>,
    /// One report per modeled cluster run.
    pub reports: Vec<ClusterReport>,
}

impl Solved {
    /// Σ batches over every planned cluster run.
    pub fn batch_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Σ host→device bytes over every cluster run.
    pub fn host_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.host_bytes).sum()
    }

    /// Σ modeled makespan over every cluster run.
    pub fn modeled_seconds(&self) -> f64 {
        self.reports.iter().map(|r| r.total_seconds).sum()
    }

    /// Σ computed DP cells over the units.
    pub fn cells_computed(&self) -> u64 {
        self.units.iter().map(|u| u.stats.cells_computed).sum()
    }

    /// Every unit must land in exactly one batch of each plan.
    pub fn units_covered_once(&self, n_units: usize) -> bool {
        self.batches.iter().all(|plan| {
            let mut seen = vec![0u32; n_units];
            for b in plan {
                for t in &b.tiles {
                    for &u in &t.units {
                        match seen.get_mut(u as usize) {
                            Some(s) => *s += 1,
                            None => return false,
                        }
                    }
                }
            }
            seen.iter().all(|&s| s == 1)
        })
    }
}

/// Per-solve layer timings and counts gathered by a staged run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub window_s: f64,
    pub windows: usize,
    pub detect_s: f64,
    pub candidates: usize,
    pub same_family: usize,
    pub align_s: f64,
    pub plan: PlanTimings,
    pub plan_calls: usize,
    pub plan_call_s: f64,
    pub cluster_s: f64,
}

impl StageTimes {
    /// Sum of the layer spans that ran one after another.
    pub fn stage_sum(&self) -> f64 {
        self.window_s + self.detect_s + self.align_s + self.plan_call_s + self.cluster_s
    }
}

/// A benchmark workload.
pub trait Bench {
    /// Order-sensitive hash of the generated input.
    fn fingerprint(&self) -> u64;
    /// Size parameters, as `key=value` pairs.
    fn sizes(&self) -> String;
    /// The timed call, in the default configuration.
    fn solve(&self) -> Result<Solved, String>;
    /// The same entry point with the scalar kernel; `None` when the
    /// solve aligns nothing and the first solve is the reference.
    fn oracle(&self) -> Option<Result<Solved, String>>;
    /// The layers one after another on the same input, each inside a
    /// span of `tr`.
    fn staged(&self, tr: &mut Tracer) -> Result<(Solved, StageTimes), String>;
    /// Layer probes on a resident copy of the aligned workload, each
    /// call inside a span of `tr`.
    fn probe(&self, tr: &mut Tracer) -> Result<Probe, String>;
    /// Comparisons one solve aligns or schedules.
    fn attempted(&self, reference: &Solved) -> usize {
        reference.results.len()
    }
    /// Work units every plan must cover exactly once.
    fn plan_units(&self, reference: &Solved) -> usize {
        reference.units.len()
    }
    /// Computed cells of the set-up alignment, for a workload whose
    /// solve schedules units aligned in set-up.
    fn setup_cells(&self) -> Option<u64> {
        None
    }
    /// Percentile `solve_s_tail` reports. It is fixed per workload, so
    /// a faster commit that fits more solves into a run is compared at
    /// the same percentile; a run makes enough solves to leave ten
    /// samples above it.
    fn tail_percentile(&self) -> usize {
        90
    }
}

/// What the layer probes measured on a workload's input.
pub struct Probe {
    /// `execute_workload` at the default thread count.
    pub exec: ExecOutput,
    pub align_s: f64,
    /// Seconds of the same call at one thread.
    pub align_s_1t: f64,
    /// `align_batch` over the extension tasks, at one thread.
    pub batched: BatchReport,
    pub batched_s: f64,
    pub tasks: usize,
    pub theoretical_cells: u64,
    /// Σ (|H| + |V|) over the comparisons: what a layout without
    /// sequence reuse ships.
    pub naive_bytes: u64,
    /// Disagreements between the probes and the default-thread units.
    pub failures: Vec<String>,
}

fn probe<S: Scorer + Sync>(
    tr: &mut Tracer,
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
) -> Result<Probe, String> {
    let at = |host_threads| ExecConfig {
        host_threads,
        ..*cfg
    };
    let (exec, align_s) = tr.span("exec.align", |_| execute_workload(w, scorer, &at(0)));
    let (exec_1t, align_s_1t) = tr.span("exec.align_1t", |_| execute_workload(w, scorer, &at(1)));
    let (exec, exec_1t) = (
        exec.map_err(|e| e.to_string())?,
        exec_1t.map_err(|e| e.to_string())?,
    );
    let mut failures = Vec::new();
    if exec.units != exec_1t.units || exec.results != exec_1t.results {
        failures.push("execute_workload output depends on the thread count".to_string());
    }
    // The workload's own extension tasks, left then right per
    // comparison: the executor's unit order.
    let mut tasks = Vec::with_capacity(2 * w.comparisons.len());
    for c in &w.comparisons {
        let (h, v) = (w.seqs.get(c.h), w.seqs.get(c.v));
        tasks.push(BatchTask {
            h: TaskView::Rev(&h[..c.seed.h_pos]),
            v: TaskView::Rev(&v[..c.seed.v_pos]),
        });
        tasks.push(BatchTask {
            h: TaskView::Fwd(&h[c.seed.h_pos + c.seed.k..]),
            v: TaskView::Fwd(&v[c.seed.v_pos + c.seed.k..]),
        });
    }
    let ((outs, batched), batched_s) = tr.span("kernel.batched", |_| {
        align_batch(&tasks, scorer, cfg.params, cfg.policy)
    });
    let agree = outs.len() == exec.units.len()
        && outs.iter().zip(&exec.units).all(|(o, u)| {
            o.as_ref()
                .is_ok_and(|o| o.stats == u.stats && o.result.best_score == u.score)
        });
    if !agree {
        failures.push("align_batch differs from execute_workload".to_string());
    }
    Ok(Probe {
        exec,
        align_s,
        align_s_1t,
        batched,
        batched_s,
        tasks: tasks.len(),
        theoretical_cells: w.theoretical_cells(),
        naive_bytes: w
            .comparisons
            .iter()
            .map(|c| (w.seqs.seq_len(c.h) + w.seqs.seq_len(c.v)) as u64)
            .sum(),
        failures,
    })
}

/// The modeled machine of every workload: BOW scaled like Figure 7.
pub fn spec() -> IpuSpec {
    IpuSpec::bow().scaled(FIG7_MACHINE_SCALE)
}

/// Builds the named workload from `seed`.
pub fn build(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "sim85-x100-ooc" => Box::new(OutOfCore::sim85(seed, tr)),
        "pastis-x49" => Box::new(Pastis::new(seed, tr)),
        "fleet-plan" => Box::new(Fleet::new(seed, tr)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Hash of the comparisons and sequence lengths (works on skeletons).
fn shape_fingerprint(w: &Workload) -> u64 {
    let mut h = FNV_OFFSET;
    for id in 0..w.seqs.len() as u32 {
        fnv(&mut h, &(w.seqs.seq_len(id) as u64).to_le_bytes());
    }
    for c in &w.comparisons {
        for x in [
            c.h as u64,
            c.v as u64,
            c.seed.h_pos as u64,
            c.seed.v_pos as u64,
        ] {
            fnv(&mut h, &x.to_le_bytes());
        }
    }
    h
}

/// Hash of the sequence payloads.
fn payload_fingerprint(h: &mut u64, seqs: &SeqSet) {
    for (_, s) in seqs.iter() {
        fnv(h, s);
        fnv(h, &[0xff]);
    }
}

fn fingerprint(w: &Workload) -> u64 {
    let mut h = shape_fingerprint(w);
    payload_fingerprint(&mut h, &w.seqs);
    h
}

fn scalar(mut cfg: PipelineConfig) -> PipelineConfig {
    cfg.exec.params = cfg.exec.params.with_kernel(KernelKind::Scalar);
    cfg
}

fn from_pipeline(out: xdrop_partition::PipelineOutput, candidates: Vec<Comparison>) -> Solved {
    Solved {
        candidates,
        results: out.exec.results,
        units: out.exec.units,
        batches: vec![out.batches],
        reports: vec![out.report],
    }
}

/// partition/plan → cluster on aligned units, each in its own span.
fn finish_staged(
    tr: &mut Tracer,
    plan_on: &Workload,
    exec: ExecOutput,
    cfg: &PipelineConfig,
    st: &mut StageTimes,
) -> Result<Solved, String> {
    let spec = spec();
    let (planned, dt) = tr.span("partition.plan", |_| {
        plan_batches_timed(plan_on, &exec.units, &spec, &cfg.plan)
    });
    let (batches, timings) = planned.map_err(|e| e.to_string())?;
    st.plan_calls += 1;
    st.plan_call_s += dt;
    st.plan.partition_s += timings.partition_s;
    st.plan.plan_s += timings.plan_s;
    tr.count("partition.batches", batches.len() as f64);
    let (report, dt) = tr.span("cluster.run", |_| {
        run_cluster(
            &exec.units,
            &batches,
            cfg.devices,
            &spec,
            &cfg.flags,
            &cfg.cost,
        )
    });
    st.cluster_s += dt;
    tr.count("cluster.host_bytes", report.host_bytes as f64);
    Ok(Solved {
        results: exec.results,
        units: exec.units,
        batches: vec![batches],
        reports: vec![report],
        ..Solved::default()
    })
}

/// `sim85-x100-ooc`: `run_pipeline_out_of_core` over generated
/// windows, planned from a lengths-only skeleton.
pub struct OutOfCore {
    ds: Dataset,
    skeleton: Workload,
    scorer: MatchMismatch,
    cfg: PipelineConfig,
}

impl OutOfCore {
    fn sim85(seed: u64, tr: &mut Tracer) -> Self {
        let ds = Dataset::new(DatasetKind::Simulated85, SIM85_SCALE).with_seed(seed);
        let (skeleton, _) = tr.span("seqdata.generate", |_| ds.meta().into_skeleton());
        let mut cfg = PipelineConfig::new(100);
        cfg.devices = SIM85_DEVICES;
        cfg.plan = PlanConfig::partitioned(512).with_window(SIM85_WINDOW);
        Self {
            ds,
            skeleton,
            scorer: MatchMismatch::dna_default(),
            cfg,
        }
    }

    fn windows(&self) -> impl Iterator<Item = WorkloadWindow> + Send {
        self.ds.windows(SIM85_WINDOW).map(|w| WorkloadWindow {
            cmp_base: w.cmp_base,
            seq_ids: w.seq_ids,
            workload: w.workload,
        })
    }

    fn run(&self, cfg: &PipelineConfig) -> Result<Solved, String> {
        run_pipeline_out_of_core(
            &self.skeleton,
            self.windows(),
            &self.scorer,
            &spec(),
            cfg,
            2,
        )
        .map(|o| from_pipeline(o, Vec::new()))
        .map_err(|e| e.to_string())
    }
}

impl Bench for OutOfCore {
    fn fingerprint(&self) -> u64 {
        // The skeleton holds lengths only; hash the payload stream.
        let mut h = shape_fingerprint(&self.skeleton);
        for w in self.ds.windows(SIM85_WINDOW) {
            payload_fingerprint(&mut h, &w.workload.seqs);
        }
        h
    }
    fn sizes(&self) -> String {
        format!(
            "comparisons={} sequences={} theoretical_cells={} x=100 window={} devices={}",
            self.skeleton.comparisons.len(),
            self.skeleton.seqs.len(),
            self.skeleton.theoretical_cells(),
            SIM85_WINDOW,
            self.cfg.devices
        )
    }
    fn solve(&self) -> Result<Solved, String> {
        self.run(&self.cfg)
    }
    fn oracle(&self) -> Option<Result<Solved, String>> {
        Some(self.run(&scalar(self.cfg)))
    }
    fn staged(&self, tr: &mut Tracer) -> Result<(Solved, StageTimes), String> {
        let mut st = StageTimes::default();
        let n = self.skeleton.comparisons.len();
        let mut units = vec![WorkUnit::default(); 2 * n];
        let mut results = vec![UnitResult::default(); n];
        let mut it = self.ds.windows(SIM85_WINDOW);
        loop {
            // The span wraps `WindowIter::next` itself.
            let (next, dt) = tr.span("seqdata.window", |_| it.next());
            st.window_s += dt;
            let Some(win) = next else { break };
            st.windows += 1;
            let (out, dt) = tr.span("exec.align", |_| {
                execute_workload(&win.workload, &self.scorer, &self.cfg.exec)
            });
            st.align_s += dt;
            let out = out.map_err(|e| e.to_string())?;
            tr.count("seqdata.windows", 1.0);
            tr.count("exec.cells_computed", out.total_cells_computed() as f64);
            for (local, r) in out.results.into_iter().enumerate() {
                results[win.cmp_base + local] = r;
            }
            for (slot, mut u) in out.units.into_iter().enumerate() {
                u.cmp += win.cmp_base as u32;
                units[2 * win.cmp_base + slot] = u;
            }
        }
        let exec = ExecOutput { units, results };
        let s = finish_staged(tr, &self.skeleton, exec, &self.cfg, &mut st)?;
        Ok((s, st))
    }
    fn probe(&self, tr: &mut Tracer) -> Result<Probe, String> {
        probe(tr, &self.ds.generate(), &self.scorer, &self.cfg.exec)
    }
    fn tail_percentile(&self) -> usize {
        // 60 to 90 solves fit into a 30-s run on a 2-core host.
        80
    }
}

/// `pastis-x49`: substitute k-mer overlap detection, then
/// `run_pipeline` with BLOSUM62.
pub struct Pastis {
    seqs: SeqSet,
    families: Vec<usize>,
    overlap: OverlapConfig,
    scorer: Blosum62,
    cfg: PipelineConfig,
}

impl Pastis {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        let pc = PastisConfig::small(PASTIS_PROTEINS);
        let ((seqs, families), _) = tr.span("seqdata.generate", |_| {
            generate_families(&mut StdRng::seed_from_u64(seed), &pc)
        });
        Self {
            seqs,
            families,
            overlap: pc.overlap,
            scorer: Blosum62::new(pc.gap),
            cfg: PipelineConfig::new(pc.x),
        }
    }

    fn run(&self, cfg: &PipelineConfig) -> Result<Solved, String> {
        let w = detect_overlaps(&self.seqs, &self.overlap);
        let out = run_pipeline(&w, &self.scorer, &spec(), cfg).map_err(|e| e.to_string())?;
        Ok(from_pipeline(out, w.comparisons))
    }
}

impl Bench for Pastis {
    fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        payload_fingerprint(&mut h, &self.seqs);
        h
    }
    fn sizes(&self) -> String {
        format!(
            "proteins={} families={} residues={} k={} x={}",
            self.seqs.len(),
            self.families.last().map_or(0, |f| f + 1),
            self.seqs.total_bytes(),
            self.overlap.k,
            self.cfg.exec.params.x
        )
    }
    fn solve(&self) -> Result<Solved, String> {
        self.run(&self.cfg)
    }
    fn oracle(&self) -> Option<Result<Solved, String>> {
        Some(self.run(&scalar(self.cfg)))
    }
    fn staged(&self, tr: &mut Tracer) -> Result<(Solved, StageTimes), String> {
        let mut st = StageTimes::default();
        let (w, dt) = tr.span("overlap.detect", |_| {
            detect_overlaps(&self.seqs, &self.overlap)
        });
        st.detect_s = dt;
        st.candidates = w.comparisons.len();
        st.same_family = w
            .comparisons
            .iter()
            .filter(|c| self.families[c.h as usize] == self.families[c.v as usize])
            .count();
        tr.count("overlap.candidates", st.candidates as f64);
        tr.count("overlap.same_family", st.same_family as f64);
        let (exec, dt) = tr.span("exec.align", |_| {
            execute_workload(&w, &self.scorer, &self.cfg.exec)
        });
        let exec = exec.map_err(|e| e.to_string())?;
        st.align_s = dt;
        tr.count("exec.cells_computed", exec.total_cells_computed() as f64);
        let mut s = finish_staged(tr, &w, exec, &self.cfg, &mut st)?;
        s.candidates = w.comparisons;
        Ok((s, st))
    }
    fn probe(&self, tr: &mut Tracer) -> Result<Probe, String> {
        probe(
            tr,
            &detect_overlaps(&self.seqs, &self.overlap),
            &self.scorer,
            &self.cfg.exec,
        )
    }
    fn tail_percentile(&self) -> usize {
        // 25 to 50 solves fit into a 30-s run on a 2-core host.
        75
    }
}

/// `fleet-plan`: metaclust-shaped protein comparisons aligned once in
/// set-up; each solve plans and schedules the whole fleet sweep.
pub struct Fleet {
    w: Workload,
    exec: ExecOutput,
    scorer: Blosum62,
    exec_cfg: ExecConfig,
}

impl Fleet {
    fn new(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let ds = Dataset::new(DatasetKind::Metaclust500k, FLEET_SCALE).with_seed(seed);
        let (w, _) = tr.span("seqdata.generate", |_| ds.generate());
        let scorer = Blosum62::new(-2);
        let exec_cfg = ExecConfig::new(XDropParams::new(49));
        let (exec, _) = tr.span("exec.align", |_| execute_workload(&w, &scorer, &exec_cfg));
        Ok(Self {
            exec: exec.map_err(|e| e.to_string())?,
            w,
            scorer,
            exec_cfg,
        })
    }

    /// The sweep: for each fleet size, plan coarse and fine batches,
    /// schedule both under each contention model and keep the faster.
    fn sweep(&self, tr: &mut Tracer, st: &mut StageTimes) -> Result<Solved, String> {
        let spec = spec();
        let mut out = Solved::default();
        let units = &self.exec.units;
        for devices in FLEET_DEVICES {
            let fine = (2 * devices).min(units.len().max(2)).max(2);
            let mut plans = Vec::with_capacity(2);
            for min_batches in [2, fine] {
                let cfg = PlanConfig::partitioned(512).with_min_batches(min_batches);
                let (planned, dt) = tr.span("partition.plan", |_| {
                    plan_batches_timed(&self.w, units, &spec, &cfg)
                });
                let (batches, timings) = planned.map_err(|e| e.to_string())?;
                st.plan_calls += 1;
                st.plan_call_s += dt;
                st.plan.partition_s += timings.partition_s;
                st.plan.plan_s += timings.plan_s;
                tr.count("partition.batches", batches.len() as f64);
                plans.push(batches);
            }
            for eta in FLEET_ETAS {
                let cost = CostModel {
                    host_link_contention: eta,
                    ..CostModel::default()
                };
                let mut best: Option<(usize, ClusterReport)> = None;
                for (pi, batches) in plans.iter().enumerate() {
                    let (r, dt) = tr.span("cluster.run", |_| {
                        run_cluster(units, batches, devices, &spec, &OptFlags::full(), &cost)
                    });
                    st.cluster_s += dt;
                    tr.count("cluster.host_bytes", r.host_bytes as f64);
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| r.total_seconds < b.total_seconds)
                    {
                        best = Some((pi, r));
                    }
                }
                let (pi, r) = best.expect("two candidate plans");
                out.batches.push(plans[pi].clone());
                out.reports.push(r);
            }
        }
        Ok(out)
    }
}

impl Bench for Fleet {
    fn fingerprint(&self) -> u64 {
        fingerprint(&self.w)
    }
    fn sizes(&self) -> String {
        format!(
            "comparisons={} sequences={} units={} devices={:?} etas={:?}",
            self.w.comparisons.len(),
            self.w.seqs.len(),
            self.exec.units.len(),
            FLEET_DEVICES,
            FLEET_ETAS
        )
    }
    fn solve(&self) -> Result<Solved, String> {
        self.sweep(&mut Tracer::new(false), &mut StageTimes::default())
    }
    fn oracle(&self) -> Option<Result<Solved, String>> {
        None
    }
    fn staged(&self, tr: &mut Tracer) -> Result<(Solved, StageTimes), String> {
        let mut st = StageTimes::default();
        let s = self.sweep(tr, &mut st)?;
        Ok((s, st))
    }
    fn probe(&self, tr: &mut Tracer) -> Result<Probe, String> {
        probe(tr, &self.w, &self.scorer, &self.exec_cfg)
    }
    fn attempted(&self, _reference: &Solved) -> usize {
        self.w.comparisons.len()
    }
    fn plan_units(&self, _reference: &Solved) -> usize {
        self.exec.units.len()
    }
    fn setup_cells(&self) -> Option<u64> {
        Some(self.exec.total_cells_computed())
    }
}
