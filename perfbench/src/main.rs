//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload (see `workloads.rs` and `perfbench/README.md`) as
//! a closed loop — one client, the next solve starts when the previous
//! one returns, after one untimed warm-up — checks every solve against
//! the scalar-kernel oracle and prints the metrics. The last line of
//! standard output is the JSON result. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` reports the
//! per-layer metrics from a traced run and writes the spans as Chrome
//! `trace_event` JSON plus a self-time table under `--out`.

mod trace;
mod workloads;

use std::time::Instant;
use trace::Tracer;
use workloads::{Bench, Solved, StageTimes};
use xdrop_bench::alloc::{self, TrackingAllocator};
use xdrop_core::batched::SweepBackend;
use xdrop_core::kernel::{self, KernelKind};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Bursts of set-ups rebuilt during the timed solve loop, at evenly
/// spaced points of `--seconds`.
const SPREAD_BURSTS: usize = 6;
/// A burst runs set-ups back to back, at least one, until they took
/// this long, so a set-up of milliseconds is sampled many times.
const BURST_S: f64 = 0.1;
/// Traced solves per traced run at least.
const MIN_TRACED: usize = 3;
/// Mismatch lines printed before the rest are only counted.
const MAX_MISMATCH_LINES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = std::path::PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out" => out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile of `v` (`q` in [0, 1]).
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Solves a run needs so that ten samples lie above percentile `pct`.
fn min_solves(pct: usize) -> usize {
    1000_usize.div_ceil(100 - pct)
}

/// The nearest-rank `pct`th percentile of the solve times.
fn tail(v: &[f64], pct: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[(pct * s.len()).div_ceil(100).clamp(1, s.len()) - 1]
}

/// The set-ups of one run, in bursts. The first burst builds the
/// input every solve uses; the others are rebuilt and dropped between
/// solves, spread over the whole solve loop, so their median `setup_s`
/// samples the host over the same span of time as the solve metrics.
#[derive(Default)]
struct Setups {
    times: Vec<f64>,
    fingerprints: Vec<(u64, Option<u64>)>,
    bursts: usize,
}

impl Setups {
    fn build(&mut self, args: &Args, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
        let (b, dt) = tr.span("setup", |tr| {
            workloads::build(&args.workload, args.seed, tr)
        });
        let b = b?;
        self.times.push(dt);
        self.fingerprints.push((b.fingerprint(), b.setup_cells()));
        Ok(b)
    }

    /// One burst of set-ups; returns the input the last one built.
    fn burst(&mut self, args: &Args, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
        self.bursts += 1;
        let t0 = Instant::now();
        loop {
            let b = self.build(args, tr)?;
            if t0.elapsed().as_secs_f64() >= BURST_S {
                return Ok(b);
            }
        }
    }

    /// Runs a burst when the next of `SPREAD_BURSTS` evenly spaced
    /// points since `start` is due; returns whether it did.
    fn spread(&mut self, args: &Args, tr: &mut Tracer, start: Instant) -> Result<bool, String> {
        let k = self.bursts;
        let due = k as f64 * args.seconds / (SPREAD_BURSTS + 1) as f64;
        if k > SPREAD_BURSTS || start.elapsed().as_secs_f64() < due {
            return Ok(false);
        }
        self.burst(args, tr)?;
        Ok(true)
    }

    /// Tops the set-ups up to `MIN_SETUPS` and reports whether every
    /// one built the same input (and, in `fleet-plan`, the same set-up
    /// alignment).
    fn finish(&mut self, args: &Args, tr: &mut Tracer) -> Result<bool, String> {
        while self.times.len() < MIN_SETUPS {
            self.build(args, tr)?;
        }
        let same = self.fingerprints.windows(2).all(|w| w[0] == w[1]);
        if !same {
            eprintln!(
                "MISMATCH setup: input or set-up alignment differs across set-ups: {:?}",
                self.fingerprints
            );
        }
        Ok(same)
    }
}

/// Correctness gate: every solve must equal the reference bit for
/// bit; a mismatch counts the comparisons it touches as failed.
struct Gate {
    reference: Solved,
    /// Comparisons one solve attempts.
    per_solve: usize,
    attempted: u64,
    failed: u64,
    lines: usize,
}

impl Gate {
    fn report(&mut self, what: &str, msg: String) {
        if self.lines < MAX_MISMATCH_LINES {
            eprintln!("MISMATCH {what}: {msg}");
        }
        self.lines += 1;
    }

    fn check(&mut self, what: &str, got: &Result<Solved, String>) {
        let n = self.per_solve as u64;
        self.attempted += n;
        let s = match got {
            Ok(s) => s,
            Err(e) => {
                self.failed += n;
                return self.report(what, format!("solve failed: {e}"));
            }
        };
        let r = &self.reference;
        let whole = [
            (s.candidates != r.candidates, "candidate list"),
            (s.batches != r.batches, "batch list"),
            (s.reports != r.reports, "cluster report"),
            (s.results.len() != r.results.len(), "result count"),
            (s.units.len() != r.units.len(), "unit count"),
        ];
        if let Some((_, name)) = whole.iter().find(|(bad, _)| *bad) {
            self.failed += n;
            return self.report(what, format!("{name} differs from the oracle"));
        }
        let upc = if r.results.is_empty() {
            0
        } else {
            r.units.len() / r.results.len()
        };
        let bad: Vec<String> = s
            .results
            .iter()
            .zip(&r.results)
            .enumerate()
            .filter(|&(i, (a, b))| {
                a != b || s.units[i * upc..(i + 1) * upc] != r.units[i * upc..(i + 1) * upc]
            })
            .map(|(i, (a, b))| format!("comparison {i}: got {a:?}, oracle {b:?}"))
            .collect();
        self.failed += bad.len() as u64;
        for msg in bad {
            self.report(what, msg);
        }
    }
}

fn labels(args: &Args, b: &dyn Bench, threads: usize) -> String {
    format!(
        "workload={} seed={} host_cores={} host_simd={} kernel={} sweep={} threads={} input_fingerprint={:016x} {}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel::host_simd(),
        KernelKind::auto().name(),
        SweepBackend::resolved().name(),
        threads,
        b.fingerprint(),
        b.sizes(),
    )
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn print_result(correct: bool, gate: &Gate, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.name, m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity: such a value is reported as 0 with a
/// warning.
fn json_num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        eprintln!("warning: {name} is {v}; reported as 0");
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    // Only the default configuration counts: refuse overrides.
    for var in [kernel::KERNEL_ENV, xdrop_core::batched::SWEEP_ENV] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: {var} is set; the benchmark measures the default configuration only. Unset it and rerun.");
            std::process::exit(2);
        }
    }
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new(args.trace);
    let threads = ipu_sim::pool::resolve_threads(0);

    // Set-up: build the input from the seed.
    let mut setups = Setups::default();
    let bench = setups.burst(args, &mut tr)?;
    println!("# {}", labels(args, bench.as_ref(), threads));

    // Oracle (outside set-up time) and the untimed warm-up solve.
    let warm = bench.solve();
    let reference = match bench.oracle() {
        Some(o) => o.map_err(|e| format!("oracle failed: {e}"))?,
        None => warm
            .clone()
            .map_err(|e| format!("reference solve failed: {e}"))?,
    };
    let covered = reference.units_covered_once(bench.plan_units(&reference));
    if !covered {
        eprintln!("MISMATCH reference: a unit is missing from a plan or lands in two batches");
    }
    let mut gate = Gate {
        per_solve: bench.attempted(&reference),
        reference,
        attempted: 0,
        failed: 0,
        lines: 0,
    };
    gate.check("warm-up", &warm);
    drop(warm);
    let r = &gate.reference;
    // Computed cells one solve produces, or schedules when its units
    // were aligned in set-up.
    let cells = bench.setup_cells().unwrap_or_else(|| r.cells_computed());
    println!(
        "# exact counts: cells_computed={cells} batches={} host_bytes={} modeled_device_s={:?}",
        r.batch_count(),
        r.host_bytes(),
        r.modeled_seconds(),
    );

    if !args.trace {
        // Closed loop with tracing off.
        let pct = bench.tail_percentile();
        let mut times = Vec::new();
        let mut heaps = Vec::new();
        let t_run = Instant::now();
        while times.len() < min_solves(pct) || t_run.elapsed().as_secs_f64() < args.seconds {
            if setups.spread(args, &mut tr, t_run)? {
                // Untimed: the rebuild left the caches cold.
                gate.check("re-warm", &bench.solve());
            }
            alloc::reset_peak();
            let live = alloc::current_bytes();
            let t0 = Instant::now();
            let got = std::hint::black_box(bench.solve());
            let dt = t0.elapsed().as_secs_f64();
            heaps.push(alloc::peak_bytes().saturating_sub(live) as f64 / (1024.0 * 1024.0));
            times.push(dt);
            gate.check(&format!("solve {}", times.len()), &got);
        }
        let correct = setups.finish(args, &mut tr)? && gate.failed == 0 && covered;
        println!(
            "# solve_s_tail is p{pct} of {} solves; setup_s is the median of {} set-ups",
            times.len(),
            setups.times.len()
        );
        let solve_p50 = median(&times);
        let rate = cells as f64 / solve_p50;
        let metrics = [
            Metric {
                name: "solve_s_p50",
                value: solve_p50,
                unit: "s",
            },
            Metric {
                name: "solve_s_tail",
                value: tail(&times, pct),
                unit: "s",
            },
            Metric {
                name: "computed_gcups",
                value: rate / 1e9,
                unit: "Gcell/s",
            },
            Metric {
                name: "setup_s",
                value: median(&setups.times),
                unit: "s",
            },
            Metric {
                name: "peak_heap_mib",
                value: median(&heaps),
                unit: "MiB",
            },
            Metric {
                name: "modeled_device_s",
                value: gate.reference.modeled_seconds(),
                unit: "modeled_s",
            },
        ];
        print_result(correct, &gate, &metrics);
        return Ok(());
    }

    let steady_input = setups.finish(args, &mut tr)?;

    // Traced loop: the entry point, then the layers one by one, once
    // with spans recorded and once with a disabled recorder, in
    // alternating order; the ratio of the two is the tracing overhead.
    let mut entry = Vec::new();
    let mut stages: Vec<StageTimes> = Vec::new();
    let (mut staged_on, mut staged_off) = (Vec::new(), Vec::new());
    let mut last_staged = None;
    let t_traced = Instant::now();
    while stages.len() < MIN_TRACED || t_traced.elapsed().as_secs_f64() < args.seconds {
        let i = stages.len();
        tr.set_solve(Some(i as u64));
        let (got, dt) = tr.span("pipeline.entry", |_| bench.solve());
        entry.push(dt);
        gate.check(&format!("traced solve {i}"), &got);
        let mut untraced = || {
            let (s, dt) = Tracer::new(false).span("pipeline.staged", |off| bench.staged(off));
            staged_off.push(dt);
            s
        };
        let off_first = i % 2 == 1;
        let early = off_first.then(&mut untraced);
        let (staged, dt) = tr.span("pipeline.staged", |tr| bench.staged(tr));
        staged_on.push(dt);
        let off = early.unwrap_or_else(untraced);
        gate.check(&format!("untraced staged solve {i}"), &off.map(|(s, _)| s));
        let (s, st) = match staged {
            Ok((s, st)) => (Ok(s), st),
            Err(e) => (Err(e), StageTimes::default()),
        };
        gate.check(&format!("staged solve {i}"), &s);
        stages.push(st);
        last_staged = s.ok();
    }
    tr.set_solve(None);
    let staged = last_staged.unwrap_or_else(|| gate.reference.clone());
    let med = |f: &dyn Fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());

    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    let generate: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "seqdata.generate")
        .map(|s| s.end - s.start)
        .collect();
    put("seqdata.generate_s", median(&generate), "s");
    put("seqdata.window_s", med(&|s| s.window_s), "s");
    put("seqdata.windows", med(&|s| s.windows as f64), "count");
    put("overlap.detect_s", med(&|s| s.detect_s), "s");
    let candidates = med(&|s| s.candidates as f64);
    put("overlap.candidates", candidates, "count");
    put(
        "overlap.same_family_share",
        if candidates > 0.0 {
            med(&|s| s.same_family as f64) / candidates
        } else {
            0.0
        },
        "ratio",
    );

    // Layer probes outside the solves: exec at the default thread
    // count and at one thread, and the batched kernel at one thread.
    let p = bench.probe(&mut tr)?;
    let cells = p.exec.total_cells_computed();
    let bands: Vec<f64> = p
        .exec
        .units
        .iter()
        .filter(|u| u.stats.antidiagonals > 0)
        .map(|u| u.stats.cells_computed as f64 / u.stats.antidiagonals as f64)
        .collect();
    put("exec.align_s", p.align_s, "s");
    put("exec.align_s_1t", p.align_s_1t, "s");
    put(
        "exec.parallel_efficiency",
        p.align_s_1t / (threads as f64 * p.align_s),
        "ratio",
    );
    put("exec.cells_computed", cells as f64, "cells");
    put(
        "exec.cells_theoretical",
        p.theoretical_cells as f64,
        "cells",
    );
    put(
        "exec.computed_gcups",
        cells as f64 / p.align_s / 1e9,
        "Gcell/s",
    );
    put("exec.live_band_p50", percentile(&bands, 0.5), "cells");
    put("exec.live_band_p90", percentile(&bands, 0.9), "cells");
    let work_bytes = p.exec.units.iter().map(|u| u.stats.work_bytes).max();
    put("exec.work_bytes_max", work_bytes.unwrap_or(0) as f64, "B");
    let lane_tasks = p.tasks.saturating_sub(p.batched.fallbacks).max(1);
    put("kernel.batched.align_s", p.batched_s, "s");
    put("kernel.batched.occupancy", p.batched.occupancy(), "ratio");
    put(
        "kernel.batched.rerun_share",
        p.batched.reruns as f64 / lane_tasks as f64,
        "ratio",
    );
    put(
        "kernel.batched.fallback_share",
        p.batched.fallbacks as f64 / p.tasks.max(1) as f64,
        "ratio",
    );
    for f in &p.failures {
        gate.attempted += gate.per_solve as u64;
        gate.failed += gate.per_solve as u64;
        eprintln!("MISMATCH probe: {f}");
    }

    let plan_calls = med(&|s| s.plan_calls as f64);
    let plan_s = med(&|s| s.plan.partition_s + s.plan.plan_s);
    let unique_bytes: u64 = staged
        .batches
        .iter()
        .flatten()
        .flat_map(|b| &b.tiles)
        .map(|t| t.transfer_bytes)
        .sum();
    put("partition.partition_s", med(&|s| s.plan.partition_s), "s");
    put("partition.plan_s", med(&|s| s.plan.plan_s), "s");
    put(
        "partition.comparisons_per_s",
        gate.per_solve as f64 * plan_calls / plan_s,
        "1/s",
    );
    put("partition.batches", staged.batch_count() as f64, "count");
    put(
        "partition.reuse_factor",
        p.naive_bytes as f64 * staged.batches.len() as f64 / unique_bytes.max(1) as f64,
        "ratio",
    );

    let mean = |f: &dyn Fn(&ipu_sim::cluster::ClusterReport) -> f64| {
        staged.reports.iter().map(f).sum::<f64>() / staged.reports.len().max(1) as f64
    };
    put("cluster.run_s", med(&|s| s.cluster_s), "s");
    put("cluster.host_bytes", staged.host_bytes() as f64, "B");
    put(
        "cluster.link_busy",
        mean(&|r| r.link_busy_fraction),
        "ratio",
    );
    put(
        "cluster.device_busy",
        mean(&|r| r.device_busy_fraction),
        "ratio",
    );
    put(
        "cluster.queue_wait_p99",
        mean(&|r| r.queue_wait_p99),
        "modeled_s",
    );

    let stage_sum = med(&|s| s.stage_sum());
    let entry_p50 = median(&entry);
    put("pipeline.stage_sum_s", stage_sum, "s");
    put("pipeline.overlap_s", stage_sum - entry_p50, "s");
    put(
        "pipeline.non_align_share",
        1.0 - med(&|s| s.align_s) / stage_sum,
        "ratio",
    );
    put(
        "trace.overhead_share",
        median(&staged_on) / median(&staged_off) - 1.0,
        "ratio",
    );

    write_trace(args, &tr)?;
    print_result(gate.failed == 0 && steady_input && covered, &gate, &m);
    Ok(())
}

/// Writes the Chrome trace and the self-time table, and prints the
/// table with the dominant layer of the staged solves.
fn write_trace(args: &Args, tr: &Tracer) -> Result<(), String> {
    let rows = tr.self_time_table();
    let mut table = String::from("span                      count     total_s      self_s\n");
    for (name, count, total, own) in &rows {
        table.push_str(&format!(
            "{name:<24} {count:>6} {total:>11.4} {own:>11.4}\n"
        ));
    }
    let layers = ["seqdata.", "overlap.", "exec.", "partition.", "cluster."];
    let mut by_layer: Vec<(&str, f64)> = layers
        .iter()
        .map(|l| {
            let own = rows
                .iter()
                .filter(|r| r.0.starts_with(l))
                .fold(0.0, |a, r| a + r.3);
            (l.trim_end_matches('.'), own)
        })
        .collect();
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = by_layer.iter().map(|l| l.1).sum();
    table.push_str("\nlayer self time in the staged solves:\n");
    for (l, own) in &by_layer {
        table.push_str(&format!(
            "{l:<24} {own:>11.4} {:>7.1}%\n",
            100.0 * own / total.max(1e-12)
        ));
    }
    table.push_str(&format!("dominant layer: {}\n", by_layer[0].0));
    eprint!("{table}");
    println!("# dominant layer: {}", by_layer[0].0);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    let write = |ext: &str, body: &str| {
        let p = stem.with_extension(ext);
        std::fs::write(&p, body).map_err(|e| format!("{}: {e}", p.display()))
    };
    write("trace.json", &tr.chrome_json())?;
    write("selftime.txt", &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above_at_min_solves() {
        for (pct, n) in [(75, 40), (80, 50), (90, 100)] {
            assert_eq!(min_solves(pct), n);
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(tail(&v, pct), (n - 10) as f64);
        }
        let many: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&many, 90), 360.0);
    }
}
