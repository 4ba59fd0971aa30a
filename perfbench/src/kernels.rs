//! Kernel costs on the active SIMD backend, at the shapes a workload's
//! model runs: S rows through the 128-wide hidden layer and the widest
//! output head, and S rows of softmax over that head.
//!
//! Bytes moved are computed from tensor sizes (inputs, weights once,
//! outputs), not measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_tensor::simd;

/// Per-call cost of the two kernels.
#[derive(Debug, Clone)]
pub struct KernelCost {
    /// Microseconds for S rows of hidden plus head matmul (median call).
    pub matmul_us: f64,
    /// Floating-point operations per matmul call, in millions.
    pub matmul_mflop: f64,
    /// Bytes a matmul call moves, in KiB.
    pub matmul_kb: f64,
    /// Microseconds for S rows of softmax over the head (median call).
    pub softmax_us: f64,
    /// Elements a softmax call exponentiates and normalizes, in thousands.
    pub softmax_kelems: f64,
    /// Bytes a softmax call moves, in KiB.
    pub softmax_kb: f64,
    /// Calls timed per kernel.
    pub calls: usize,
}

/// Time both kernels for `rows` rows, a `hidden`-wide layer and a
/// `head`-wide output head, for about `budget` in total.
pub fn measure(rows: usize, hidden: usize, head: usize, budget: Duration) -> KernelCost {
    let mut rng = StdRng::seed_from_u64(0x6b65726e);
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random::<f32>() - 0.5).collect() };
    let acts = fill(rows * hidden);
    let w_hidden = fill(hidden * hidden);
    let w_head = fill(hidden * head);
    let mut h = vec![0.0f32; hidden];
    let mut logits = vec![0.0f32; rows * head];
    let mut probs = vec![0.0f32; head];

    let mut matmul = |logits: &mut [f32]| {
        for r in 0..rows {
            h.fill(0.0);
            simd::matmul_row(&acts[r * hidden..(r + 1) * hidden], &w_hidden, hidden, None, &mut h);
            let out = &mut logits[r * head..(r + 1) * head];
            out.fill(0.0);
            simd::matmul_row(black_box(&h), &w_head, head, None, out);
        }
        black_box(&logits);
    };
    let mut softmax = |logits: &[f32]| {
        for r in 0..rows {
            simd::softmax_into(&logits[r * head..(r + 1) * head], &mut probs);
            black_box(&probs);
        }
    };

    // Warm caches and the backend choice before timing.
    matmul(&mut logits);
    softmax(&logits);
    let half = budget / 2;
    let matmul_us = time_calls(half, || matmul(&mut logits));
    let softmax_us = time_calls(half, || softmax(&logits));
    let f = 4.0 / 1024.0;
    KernelCost {
        matmul_us: matmul_us.0,
        matmul_mflop: 2.0 * (rows * hidden * (hidden + head)) as f64 / 1e6,
        matmul_kb: f * (rows * hidden + hidden * (hidden + head) + rows * (hidden + head)) as f64,
        softmax_us: softmax_us.0,
        softmax_kelems: (rows * head) as f64 / 1e3,
        softmax_kb: f * (2 * rows * head) as f64,
        calls: matmul_us.1.min(softmax_us.1),
    }
}

/// Median microseconds per call of `f`, called repeatedly for `budget`
/// (at least 5 calls), and the number of calls.
fn time_calls(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (crate::stats::median(&times), times.len())
}
