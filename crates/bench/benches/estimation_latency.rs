//! Figure 5(2) as a Criterion bench: per-query estimation latency of every
//! estimator on a DMV-like table — plus the batched-inference study:
//! one query at a time (the batched engine at batch 1, as a query
//! optimizer asks) vs cross-query batches on the table5 join workload, with a `BENCH_inference.json` summary (queries/sec at
//! S ∈ {200, 1000}, batch ∈ {1, 32, 256}).

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use uae_core::Uae;
use uae_estimators::{
    BayesNetEstimator, HistogramEstimator, KdeEstimator, LinearRegressionEstimator, MscnConfig,
    MscnEstimator, SamplingEstimator, SpnConfig, SpnEstimator,
};
use uae_join::{
    generate_join_workload, imdb_like, sample_outer_join, JoinQuery, JoinUae, JoinWorkloadSpec,
};
use uae_query::{
    default_bounded_column, generate_workload, CardEstimator, LabeledQuery, WorkloadSpec,
};
use uae_tensor::simd;
use uae_tensor::{Backend, QuantMode};

struct Setup {
    queries: Vec<LabeledQuery>,
    estimators: Vec<Box<dyn CardEstimator>>,
}

fn setup() -> Setup {
    let table = uae_data::dmv_like(6000, 0xBE4C);
    let col = default_bounded_column(&table);
    let train = generate_workload(&table, &WorkloadSpec::in_workload(col, 60, 1), &HashSet::new());
    let queries =
        generate_workload(&table, &WorkloadSpec::in_workload(col, 20, 2), &HashSet::new());

    let mut uae_cfg = uae_core::UaeConfig::default();
    uae_cfg.model.hidden = 128;
    uae_cfg.estimate_samples = 100;
    let mut naru = Uae::new(&table, uae_cfg).with_name("Naru");
    naru.train_data(1);

    let estimators: Vec<Box<dyn CardEstimator>> = vec![
        Box::new(LinearRegressionEstimator::new(&table, &train, 1e-3)),
        Box::new(HistogramEstimator::new(&table, 64)),
        Box::new(MscnEstimator::new(
            &table,
            &train,
            &MscnConfig { epochs: 3, ..MscnConfig::default() },
        )),
        Box::new(SamplingEstimator::new(&table, 0.05, 3)),
        Box::new(BayesNetEstimator::new(&table, 128)),
        Box::new(KdeEstimator::new(&table, 0.05, 4)),
        Box::new(SpnEstimator::new(&table, &SpnConfig::default())),
        Box::new(naru),
    ];
    Setup { queries, estimators }
}

/// The table5 serving setup: a data-trained UAE over the IMDB-like join
/// sample plus a JOB-light-ranges-focused workload.
fn setup_join(num_queries: usize) -> (JoinUae, Vec<JoinQuery>) {
    let schema = imdb_like(1200, 0x7AB5);
    let sample = sample_outer_join(&schema, 3000, 32, 21);
    let mut cfg = uae_core::UaeConfig::default();
    cfg.model.hidden = 128;
    cfg.factor_threshold = usize::MAX; // fanout columns must stay unfactorized
    let mut uae = JoinUae::new(sample, cfg);
    uae.train_data(1);
    let queries: Vec<JoinQuery> = generate_join_workload(
        &schema,
        &JoinWorkloadSpec::focused(0, num_queries, 31),
        &HashSet::new(),
    )
    .into_iter()
    .map(|lq| lq.query)
    .collect();
    (uae, queries)
}

/// Estimate the workload in chunks of `batch` queries and return the
/// elapsed seconds. `batch == 1` is the single-query path
/// (`JoinUae::estimate`, the batched engine with a batch of one).
fn run_batched(uae: &JoinUae, queries: &[JoinQuery], batch: usize) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    if batch <= 1 {
        for q in queries {
            acc += uae.estimate(q);
        }
    } else {
        for chunk in queries.chunks(batch) {
            acc += uae.estimate_batch(chunk).iter().sum::<f64>();
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// One measured configuration of the sweep.
struct SweepPoint {
    samples: usize,
    batch: usize,
    queries_per_sec: f64,
}

/// Sweep S ∈ {200, 1000} × batch ∈ {1, 32, 256} over the table5 workload
/// and write `BENCH_inference.json` at the repository root.
fn emit_inference_json(uae: &mut JoinUae, queries: &[JoinQuery]) {
    let mut points: Vec<SweepPoint> = Vec::new();
    for &samples in &[200usize, 1000] {
        uae.uae_mut().set_estimate_samples(samples);
        for &batch in &[1usize, 32, 256] {
            let secs = run_batched(uae, queries, batch);
            let qps = queries.len() as f64 / secs.max(1e-12);
            eprintln!("[inference] S={samples} batch={batch}: {:.1} queries/sec ({secs:.2}s)", qps);
            points.push(SweepPoint { samples, batch, queries_per_sec: qps });
        }
    }
    let qps_at = |s: usize, b: usize| {
        points
            .iter()
            .find(|p| p.samples == s && p.batch == b)
            .map(|p| p.queries_per_sec)
            .unwrap_or(0.0)
    };
    let speedup = qps_at(1000, 256) / qps_at(1000, 1).max(1e-12);
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"samples\": {}, \"batch\": {}, \"queries_per_sec\": {:.2}}}",
                p.samples, p.batch, p.queries_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": \"table5 JOB-light-ranges-focused (imdb_like star schema)\",\n  \
         \"num_queries\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"speedup_batched_256_vs_batch1_at_s1000\": {:.2}\n}}\n",
        queries.len(),
        rows.join(",\n"),
        speedup
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
    std::fs::write(path, json).expect("write BENCH_inference.json");
    eprintln!("[inference] S=1000 batch=256 speedup over batch=1: {speedup:.2}x");
}

/// Queries/sec of the PR1 batched-inference engine (pre plan/workspace
/// split) on this exact workload, from `BENCH_inference.json` at that
/// commit. Baseline for the zero-allocation refactor's speedup gate.
const PR1_BASELINE_QPS: [(usize, usize, f64); 3] =
    [(1000, 256, 148.82), (1000, 1, 18.32), (200, 256, 462.97)];

/// Queries/sec of the PR3 scalar workspace engine at S=1000 / batch=256
/// on this exact workload, from `BENCH_workspace.json` at that commit.
/// Baseline for the SIMD / int8 trajectory gates.
const PR3_SCALAR_QPS: f64 = 413.72;

/// Re-measure the PR1 sweep points on the current engine and append the
/// scalar → SIMD f32 → int8 trajectory at S=1000 / batch=256, writing
/// `BENCH_workspace.json`. Buffers are warmed with one untimed pass per
/// point so every measurement reflects the steady state. Each trajectory
/// leg rebuilds the snapshot: weight *layout* (mask packing, quantized
/// panels) is fixed at snapshot time by the backend and quant mode.
fn emit_workspace_json(uae: &mut JoinUae, queries: &[JoinQuery]) {
    let mut rows: Vec<String> = Vec::new();
    let mut headline = 0.0f64;
    for &(samples, batch, baseline) in &PR1_BASELINE_QPS {
        uae.uae_mut().set_estimate_samples(samples);
        run_batched(uae, queries, batch); // warm the scratch buffers
        let secs = run_batched(uae, queries, batch);
        let qps = queries.len() as f64 / secs.max(1e-12);
        let speedup = qps / baseline;
        if samples == 1000 && batch == 256 {
            headline = speedup;
        }
        eprintln!(
            "[workspace] S={samples} batch={batch}: {qps:.1} queries/sec \
             (PR1 {baseline:.1}, {speedup:.2}x)"
        );
        rows.push(format!(
            "    {{\"samples\": {samples}, \"batch\": {batch}, \
             \"queries_per_sec\": {qps:.2}, \"baseline_queries_per_sec\": {baseline:.2}, \
             \"speedup\": {speedup:.2}}}"
        ));
    }

    // The kernel trajectory: identical workload and engine, only the
    // numeric backend of the forward pass changes.
    uae.uae_mut().set_estimate_samples(1000);
    let legs: [(&str, Backend, QuantMode); 3] = [
        ("scalar", Backend::Exact, QuantMode::F32),
        ("simd_f32", Backend::Avx2, QuantMode::F32),
        ("int8", Backend::Avx2, QuantMode::Int8),
    ];
    let mut traj: Vec<String> = Vec::new();
    let mut leg_qps = [0.0f64; 3];
    let prev = simd::backend();
    for (i, &(name, be, mode)) in legs.iter().enumerate() {
        simd::set_backend(be);
        uae.uae_mut().set_quant_mode(mode);
        uae.uae_mut().invalidate_snapshot();
        run_batched(uae, queries, 256); // warm + rebuild snapshot
        let secs = run_batched(uae, queries, 256);
        let qps = queries.len() as f64 / secs.max(1e-12);
        leg_qps[i] = qps;
        let vs_pr3 = qps / PR3_SCALAR_QPS;
        eprintln!(
            "[trajectory] {name} (backend {:?}): {qps:.1} queries/sec ({vs_pr3:.2}x PR3 scalar)",
            simd::backend()
        );
        traj.push(format!(
            "    {{\"mode\": \"{name}\", \"backend\": \"{:?}\", \"samples\": 1000, \
             \"batch\": 256, \"queries_per_sec\": {qps:.2}, \"speedup_vs_pr3_scalar\": {vs_pr3:.2}}}",
            simd::backend()
        ));
    }
    simd::set_backend(prev);
    uae.uae_mut().set_quant_mode(QuantMode::F32);
    uae.uae_mut().invalidate_snapshot();

    let json = format!(
        "{{\n  \"workload\": \"table5 JOB-light-ranges-focused (imdb_like star schema)\",\n  \
         \"baseline\": \"PR1 batched inference engine (pre plan/workspace split)\",\n  \
         \"num_queries\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"speedup_at_s1000_batch256\": {:.2},\n  \
         \"trajectory_baseline\": \"PR3 scalar workspace engine, {PR3_SCALAR_QPS} qps at S=1000 batch=256\",\n  \
         \"trajectory\": [\n{}\n  ],\n  \
         \"simd_speedup_vs_pr3_scalar\": {:.2},\n  \"int8_speedup_vs_pr3_scalar\": {:.2}\n}}\n",
        queries.len(),
        rows.join(",\n"),
        headline,
        traj.join(",\n"),
        leg_qps[1] / PR3_SCALAR_QPS,
        leg_qps[2] / PR3_SCALAR_QPS,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workspace.json");
    std::fs::write(path, json).expect("write BENCH_workspace.json");
    eprintln!(
        "[trajectory] S=1000 batch=256: scalar {:.1} -> simd {:.1} -> int8 {:.1} queries/sec",
        leg_qps[0], leg_qps[1], leg_qps[2]
    );
}

fn bench_batched_inference(c: &mut Criterion) {
    let (mut uae, queries) = setup_join(256);
    emit_inference_json(&mut uae, &queries);
    emit_workspace_json(&mut uae, &queries);

    // Criterion group on a smaller slice so iteration counts stay sane.
    let slice = &queries[..queries.len().min(32)];
    uae.uae_mut().set_estimate_samples(200);
    let mut g = c.benchmark_group("batched_inference");
    g.sample_size(10);
    g.bench_function("batch-1/S=200", |b| b.iter(|| black_box(run_batched(&uae, slice, 1))));
    g.bench_function("batched-32/S=200", |b| b.iter(|| black_box(run_batched(&uae, slice, 32))));
    g.finish();
}

fn bench_estimation(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("estimation_latency");
    g.sample_size(10);
    for est in &s.estimators {
        g.bench_function(est.name(), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for lq in &s.queries {
                    acc += est.estimate_card(&lq.query);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batched_inference, bench_estimation);
criterion_main!(benches);
