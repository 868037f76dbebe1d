//! Peak-heap regression test for the batched lane kernel's working
//! set.
//!
//! The paper's space claim is that Algorithm 1 keeps two antidiagonals
//! of bounded length δ_b, whatever the sequence lengths. The batched
//! kernel's lanes must keep that property: three arena rows of pitch
//! `stride` per lane plus one per-burst sequence window, never a copy
//! of a whole sequence. This binary installs
//! [`xdrop_bench::alloc::TrackingAllocator`] as its global allocator
//! (integration tests are their own crate, so the override is local)
//! and measures the peak heap of one `align_batch` call over 32 DNA
//! tasks at 1 kb and at 50 kb, same X and band policy. The peak must
//! not grow with the sequences, and it must fit a bound stated in
//! lanes × (stride + `BURST_ROUNDS`).
//!
//! The file holds a single test so no sibling test allocates while
//! the counters are read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_bench::alloc::{self, TrackingAllocator};
use xdrop_ipu::core::batched::{align_batch, lane_width, BatchTask, TaskView, BURST_ROUNDS};
use xdrop_ipu::core::scoring::MatchMismatch;
use xdrop_ipu::core::xdrop2::BandPolicy;
use xdrop_ipu::core::XDropParams;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const TASKS: usize = 32;

/// Bytes of per-task bookkeeping a batch may hold whatever the
/// sequence lengths: the result vector, the task order and the lane
/// slots. Generous: about 1 KiB per task.
const PER_TASK_BYTES: u64 = 1024;

/// `TASKS` pairs of `len` symbols: a random root and a copy with 22%
/// substitutions. At X = 30 the alignment spans the whole pair (the
/// score drifts up by ~0.56 per symbol, far from an X drop), and its
/// best score stays under the `i16` guard band, so every lane stays on
/// the fast path to the end.
fn pairs(len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..TASKS as u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let v = h
                .iter()
                .map(|&b| if rng.gen_bool(0.22) { (b + 1) % 4 } else { b })
                .collect();
            (h, v)
        })
        .collect()
}

/// Peak heap above the live baseline during one `align_batch` call,
/// plus the widest band capacity any task reached (from its
/// `work_bytes = 2 · cap · 4`) and the number of overflow reruns.
fn measure(len: usize, policy: BandPolicy) -> (u64, usize, usize) {
    let data = pairs(len);
    let tasks: Vec<BatchTask<'_>> = data
        .iter()
        .enumerate()
        .map(|(i, (h, v))| {
            // Mix both directions, as the executor does.
            if i % 2 == 0 {
                BatchTask {
                    h: TaskView::Fwd(h),
                    v: TaskView::Fwd(v),
                }
            } else {
                BatchTask {
                    h: TaskView::Rev(h),
                    v: TaskView::Rev(v),
                }
            }
        })
        .collect();
    let sc = MatchMismatch::dna_default();
    let params = XDropParams::new(30);
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let (outs, report) = align_batch(&tasks, &sc, params, policy);
    let peak = alloc::peak_bytes() - base;
    let mut cap = 0usize;
    for o in &outs {
        let o = o.as_ref().expect("alignment succeeds");
        assert!(
            o.result.end_h + o.result.end_v > len,
            "the alignment must run through most of the pair"
        );
        cap = cap.max(o.stats.work_bytes / 8);
    }
    (peak, cap, report.reruns)
}

#[test]
fn lane_working_set_is_independent_of_sequence_length() {
    assert!(
        alloc::current_bytes() > 0,
        "the tracking allocator must be installed"
    );
    let policy = BandPolicy::Grow(64);
    let (short_peak, short_cap, short_reruns) = measure(1_000, policy);
    let (long_peak, long_cap, long_reruns) = measure(50_000, policy);
    assert_eq!((short_reruns, long_reruns), (0, 0), "no lane may overflow");
    eprintln!("peak heap: {short_peak} B at 1 kb (cap {short_cap}), {long_peak} B at 50 kb (cap {long_cap})");

    // Not growing with the sequences: 50× longer sequences, same peak
    // up to the window buffers' doubling slack.
    assert!(
        long_peak <= short_peak + 4096,
        "peak heap grew with sequence length: {short_peak} B at 1 kb, {long_peak} B at 50 kb"
    );

    // The bound: three arena planes of `i16` cells at pitch
    // `stride = cap + 2` per lane, one shared window of at most
    // 2 · (stride + BURST_ROUNDS + 1) bytes, and per-task bookkeeping.
    let lanes = lane_width().min(TASKS) as u64;
    let stride = (short_cap.max(long_cap) + 2) as u64;
    let bound = 8 * lanes * (stride + BURST_ROUNDS as u64) + PER_TASK_BYTES * TASKS as u64;
    assert!(
        long_peak <= bound,
        "peak heap {long_peak} B exceeds 8 · lanes · (stride + BURST_ROUNDS) + bookkeeping = \
         {bound} B (lanes {lanes}, stride {stride})"
    );
}
