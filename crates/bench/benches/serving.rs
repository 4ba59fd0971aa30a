//! Closed- vs open-loop serving study: how much of the batched engine's
//! throughput (BENCH_inference.json) survives when queries arrive one at
//! a time from independent clients and must be coalesced by the
//! micro-batching front-end. Writes `BENCH_serving.json` at the repo
//! root.
//!
//! Three traffic shapes, all at S = 1000 progressive samples:
//!
//! 1. **Batch-1 closed loop** — one caller, `try_estimate_card` per
//!    query: the batched engine with a batch of one. The floor every
//!    concurrent design must beat.
//! 2. **Concurrent closed loop** — a few submitter threads, each keeping
//!    one request in flight through the server. Batches form only from
//!    submitter concurrency.
//! 3. **Open loop** — Poisson arrivals at a swept offered rate; the
//!    dispatcher's size-or-deadline flush turns backlog into batches.
//!    The top offered rate exceeds engine capacity, so the run also
//!    demonstrates bounded-queue rejection and the SLO degradation
//!    ladder engaging (counted in `ServerStats`).
//!
//! Single-core note: the speedups here are *algorithmic* (cross-query
//! batched sampling amortizes model passes), not parallelism — the
//! sweep holds one executor and the default tensor pool.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_core::{Uae, UaeConfig};
use uae_query::{generate_workload, Query, WorkloadSpec};
use uae_server::{DegradeConfig, Registry, Server, ServerConfig, ServerStats, SubmitError};

const SAMPLES: usize = 1000;
const TENANT: &str = "census";

fn setup() -> (Arc<Registry>, Vec<Query>) {
    let table = uae_data::census_like(6000, 0x5E4E);
    let mut cfg = UaeConfig::default();
    cfg.model.hidden = 128;
    cfg.estimate_samples = SAMPLES;
    let mut uae = Uae::new(&table, cfg);
    eprintln!("[serving] training 1 epoch on {} rows…", table.num_rows());
    uae.train_data(1);
    let queries: Vec<Query> =
        generate_workload(&table, &WorkloadSpec::random(512, 0xA11CE), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect();
    let registry = Arc::new(Registry::new());
    registry.register(TENANT, uae);
    (registry, queries)
}

/// Closed-loop batch-1 baseline: one caller, one query per call, straight
/// into the engine (no front-end). Returns queries/sec.
fn batch1_qps(registry: &Registry, queries: &[Query], n: usize) -> f64 {
    let model = registry.get(TENANT).expect("registered").model();
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..n {
        if let Ok(est) = model.try_estimate_card(&queries[i % queries.len()]) {
            acc += est.card;
        }
    }
    black_box(acc);
    n as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn serving_config(latency_window: usize) -> ServerConfig {
    ServerConfig {
        max_batch: 64,
        max_delay: Duration::from_millis(4),
        queue_capacity: 512,
        executors: 1,
        kernel_threads: None,
        degrade: DegradeConfig {
            queue_depth_threshold: 128,
            p99_target_ms: 0.0,
            ..DegradeConfig::default()
        },
        latency_window,
        ..ServerConfig::default()
    }
}

/// Concurrent closed loop: `threads` submitters, each submit → wait →
/// repeat. Returns (throughput qps, final stats).
fn closed_loop(
    registry: &Arc<Registry>,
    queries: &[Query],
    threads: usize,
    per_thread: usize,
) -> (f64, ServerStats) {
    let server = Server::start(registry.clone(), serving_config(threads * per_thread));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let q = queries[(t * per_thread + i) % queries.len()].clone();
                    match server.submit(TENANT, q) {
                        Ok(ticket) => {
                            let _ = ticket.wait();
                        }
                        Err(e) => panic!("closed loop never overloads: {e}"),
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    let qps = stats.completed as f64 / t0.elapsed().as_secs_f64().max(1e-12);
    (qps, stats)
}

/// One open-loop run: Poisson arrivals at `offered_qps` for `n`
/// requests, tickets collected and drained at the end. Returns the
/// measured offered rate, sustained throughput, and final stats.
fn open_loop(
    registry: &Arc<Registry>,
    queries: &[Query],
    offered_qps: f64,
    n: usize,
    seed: u64,
) -> (f64, f64, ServerStats) {
    let server = Server::start(registry.clone(), serving_config(n));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(n);
    let t0 = Instant::now();
    let mut next_arrival = 0.0f64; // seconds since t0
    for i in 0..n {
        // Exponential inter-arrival: -ln(1-u)/λ.
        let u: f64 = rng.random();
        next_arrival += -(1.0 - u).ln() / offered_qps;
        let target = t0 + Duration::from_secs_f64(next_arrival);
        loop {
            let now = Instant::now();
            if now >= target {
                break;
            }
            std::thread::sleep(target - now);
        }
        match server.submit(TENANT, queries[i % queries.len()].clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded) => {} // counted server-side
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let submit_secs = t0.elapsed().as_secs_f64();
    let stats = server.shutdown();
    let total_secs = t0.elapsed().as_secs_f64();
    for ticket in tickets {
        let _ = ticket.wait();
    }
    let measured_offered = n as f64 / submit_secs.max(1e-12);
    let sustained = stats.completed as f64 / total_secs.max(1e-12);
    (measured_offered, sustained, stats)
}

fn stats_row(label: &str, offered: f64, sustained: f64, s: &ServerStats) -> String {
    format!(
        "    {{\"load\": \"{label}\", \"offered_qps\": {offered:.1}, \
         \"sustained_qps\": {sustained:.1}, \"submitted\": {}, \"accepted\": {}, \
         \"rejected_overloaded\": {}, \"completed\": {}, \"degraded\": {}, \
         \"batches\": {}, \"mean_batch\": {:.1}, \"flush_size\": {}, \
         \"flush_deadline\": {}, \"flush_drain\": {}, \"max_queue_depth\": {}, \
         \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}",
        s.submitted,
        s.accepted,
        s.rejected_overloaded,
        s.completed,
        s.degraded_requests,
        s.batches,
        s.mean_batch_size(),
        s.flush_size,
        s.flush_deadline,
        s.flush_drain,
        s.max_queue_depth,
        s.p50_ms,
        s.p99_ms,
    )
}

fn emit_serving_json(registry: &Arc<Registry>, queries: &[Query]) {
    // 1. The batch-1 closed-loop floor.
    batch1_qps(registry, queries, 20); // warm snapshot + scratch
    let b1_qps = batch1_qps(registry, queries, 120);
    eprintln!("[serving] batch-1 closed loop: {b1_qps:.1} qps");

    // 2. Concurrent closed loop: batches form only from concurrency.
    let (closed_qps, closed_stats) = closed_loop(registry, queries, 4, 120);
    eprintln!(
        "[serving] closed loop x4 threads: {closed_qps:.1} qps \
         (mean batch {:.1})",
        closed_stats.mean_batch_size()
    );

    // 3. Open loop at increasing offered load. The top rate is chosen
    //    above engine capacity so backpressure + degradation engage.
    let multipliers = [2.0f64, 4.0, 8.0, 16.0];
    let mut rows = Vec::new();
    let mut best_sustained = 0.0f64;
    let mut top: Option<ServerStats> = None;
    for (i, &m) in multipliers.iter().enumerate() {
        let offered = b1_qps * m;
        let n = ((offered * 3.0) as usize).clamp(300, 2400);
        let (measured, sustained, stats) =
            open_loop(registry, queries, offered, n, 0xD15C + i as u64);
        eprintln!(
            "[serving] open loop {m:.0}x ({measured:.0} qps offered): sustained {sustained:.1} qps, \
             mean batch {:.1}, p50 {:.1} ms, p99 {:.1} ms, rejected {}, degraded {}",
            stats.mean_batch_size(),
            stats.p50_ms,
            stats.p99_ms,
            stats.rejected_overloaded,
            stats.degraded_requests,
        );
        best_sustained = best_sustained.max(sustained);
        rows.push(stats_row(&format!("open_{m:.0}x"), measured, sustained, &stats));
        top = Some(stats);
    }
    let top = top.expect("at least one open-loop run");
    let speedup = best_sustained / b1_qps.max(1e-12);

    let json = format!(
        "{{\n  \"workload\": \"census_like 6000 rows, random 512-query pool, S={SAMPLES}\",\n  \
         \"note\": \"single-core container: gains are micro-batching, not parallelism\",\n  \
         \"config\": {{\"max_batch\": 64, \"max_delay_ms\": 4, \"queue_capacity\": 512, \
         \"executors\": 1, \"degrade_queue_depth_threshold\": 128}},\n  \
         \"batch1_closed_loop_qps\": {b1_qps:.1},\n  \
         \"closed_loop\": {},\n  \
         \"open_loop\": [\n{}\n  ],\n  \
         \"open_loop_speedup_vs_batch1\": {speedup:.2},\n  \
         \"top_load_rejected_overloaded\": {},\n  \
         \"top_load_degraded_requests\": {}\n}}\n",
        stats_row("closed_4x1", closed_qps, closed_qps, &closed_stats),
        rows.join(",\n"),
        top.rejected_overloaded,
        top.degraded_requests,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, json).expect("write BENCH_serving.json");
    eprintln!(
        "[serving] best open-loop sustained {best_sustained:.1} qps = {speedup:.2}x batch-1 \
         ({b1_qps:.1} qps); top load: {} rejected, {} degraded",
        top.rejected_overloaded, top.degraded_requests
    );
    assert!(top.degraded_requests > 0, "top offered load must engage the degradation ladder");
}

fn bench_serving(c: &mut Criterion) {
    let (registry, queries) = setup();
    emit_serving_json(&registry, &queries);

    // A small Criterion group so the bench integrates with the harness:
    // one open-loop burst at a fixed offered rate.
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.bench_function("open_loop_burst_64", |b| {
        b.iter(|| {
            let server = Server::start(registry.clone(), serving_config(64));
            let tickets: Vec<_> = (0..64)
                .filter_map(|i| server.submit(TENANT, queries[i % queries.len()].clone()).ok())
                .collect();
            let stats = server.shutdown();
            for t in tickets {
                let _ = t.wait();
            }
            black_box(stats.completed)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
