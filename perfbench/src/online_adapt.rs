//! `online_adapt`: the paper's query-driven loop after a data drift, in a
//! closed loop with one caller and no server.
//!
//! A census base table and a covariate-shifted drift batch (rows in the
//! upper half of column 0's domain) are staged into a `QueryPool`; then
//! `OnlineTrainer::round` runs once after each wave of labelled post-drift
//! queries. Every promotion fsyncs a checkpoint and its journal records,
//! and every promoted or rolled-back model becomes the live model. The
//! gate scores freshly cloned models, so snapshots start cold here, where
//! serving runs warm.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uae_core::{
    persist_bytes, shadow_score, DpsConfig, Journal, JournalRecord, OnlineConfig, OnlineTrainer,
    QueryPool, ResMadeConfig, RoundOutcome, TrainConfig, Uae, UaeConfig, JOURNAL_FILE,
};
use uae_data::Table;
use uae_query::{fingerprints, generate_workload, LabeledQuery, Query, WorkloadSpec};

use crate::common::{derive, repeated_setup, Ctx};
use crate::report::{jstr, Report};
use crate::stats::{frac, median, percentile};
use crate::trace::{span_cost_ns, Tracer};

/// Base table rows.
pub const BASE_ROWS: usize = 6000;
/// Rows generated after the base; those in the upper half of column 0's
/// domain form the drift batch.
pub const DRIFT_SOURCE_ROWS: usize = 3000;
/// Labelled queries per wave.
pub const WAVE: usize = 20;
/// Waves generated; a run stops early if it uses them all.
pub const MAX_ROUNDS: usize = 320;
/// Fixed post-drift evaluation queries.
pub const EVAL_QUERIES: usize = 200;
/// Upper bound on the final live model's median q-error: 25 runs read
/// 1.17 to 1.36, and the bound leaves 25% above the highest. The run also
/// requires the final model to beat the never-adapted one (1.39 to 1.59).
pub const QERR_BOUND: f64 = 1.7;
/// Seed of the base table and drift batch.
const DATA_SEED: u64 = 0xd01f;
const LABEL: &str = "census";

/// The model configuration.
pub fn model_config() -> UaeConfig {
    UaeConfig {
        model: ResMadeConfig { hidden: 128, blocks: 1, seed: 7 },
        train: TrainConfig {
            batch_size: 128,
            dps: DpsConfig { tau: 1.0, samples: 8 },
            ..TrainConfig::default()
        },
        estimate_samples: 64,
        ..UaeConfig::default()
    }
}

/// The trainer configuration (checkpoints go to `dir`).
pub fn online_config(dir: Option<PathBuf>) -> OnlineConfig {
    OnlineConfig {
        query_epochs: 1,
        checkpoint_dir: dir,
        label: LABEL.to_owned(),
        ..OnlineConfig::default()
    }
}

/// The generated inputs.
pub struct Inputs {
    /// Pre-drift rows the live model starts from.
    pub base: Table,
    /// Covariate-shifted rows staged into the pool.
    pub drift: Table,
    /// Label waves, each labelled on the post-drift table.
    pub waves: Vec<Vec<LabeledQuery>>,
    /// Fixed post-drift evaluation set (disjoint from the waves).
    pub eval: Vec<LabeledQuery>,
}

/// The inputs for `seed`: the base table and drift batch are the same for
/// every seed (a fixed database); the label waves and the evaluation set
/// come from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let big = uae_data::census_like(BASE_ROWS + DRIFT_SOURCE_ROWS, DATA_SEED);
    let base = big.take_rows(&(0..BASE_ROWS).collect::<Vec<_>>());
    let half = big.column(0).domain_size() as u32 / 2;
    let shifted: Vec<usize> = (BASE_ROWS..BASE_ROWS + DRIFT_SOURCE_ROWS)
        .filter(|&r| big.column(0).code(r) >= half)
        .collect();
    let drift = big.take_rows(&shifted);
    let mut full = base.clone();
    full.append(&drift);
    let eval = generate_workload(
        &full,
        &WorkloadSpec::random(EVAL_QUERIES, derive(seed, 2)),
        &HashSet::new(),
    );
    let stream = generate_workload(
        &full,
        &WorkloadSpec::random(MAX_ROUNDS * WAVE, derive(seed, 3)),
        &fingerprints(&eval),
    );
    let waves = stream.chunks(WAVE).map(<[LabeledQuery]>::to_vec).collect();
    Inputs { base, drift, waves, eval }
}

struct State {
    inputs: Inputs,
    live: Uae,
}

fn build(seed: u64) -> (State, f64) {
    let inputs = inputs(seed);
    let mut live = Uae::new(&inputs.base, model_config());
    let t = Instant::now();
    live.train_data(2);
    let train_s = t.elapsed().as_secs_f64();
    // Warm-up: the live model's snapshot and scratch.
    let warm: Vec<Query> = inputs.eval.iter().take(16).map(|lq| lq.query.clone()).collect();
    let _ = live.try_estimate_cards(&warm);
    (State { inputs, live }, train_s)
}

/// What the untraced rounds produced.
struct Rounds {
    ms: Vec<f64>,
    trained: u64,
    promoted: u64,
    rolled_back: u64,
    rejected: u64,
    persist_failed: u64,
    /// Published checkpoints that reloaded through
    /// `Uae::load_checkpoint_file`.
    reloaded: u64,
    /// Published checkpoints that did not, with the error.
    unloadable: Vec<String>,
}

fn round_loop(state: &State, dir: &Path, budget: Duration) -> (Rounds, Uae) {
    let pool = QueryPool::new(512);
    pool.stage_rows(&state.inputs.drift);
    let mut trainer = OnlineTrainer::new(&state.live, online_config(Some(dir.to_path_buf())));
    let mut live = state.live.clone();
    let mut r = Rounds {
        ms: Vec::new(),
        trained: 0,
        promoted: 0,
        rolled_back: 0,
        rejected: 0,
        persist_failed: 0,
        reloaded: 0,
        unloadable: Vec::new(),
    };
    let start = Instant::now();
    for wave in &state.inputs.waves {
        if start.elapsed() >= budget {
            break;
        }
        pool.extend(wave.iter().cloned());
        let t = Instant::now();
        let report = trainer.round(&pool, &live, start.elapsed().as_nanos() as u64);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut published = None;
        match report.outcome {
            RoundOutcome::Idle => {}
            RoundOutcome::Rejected(_) => {
                r.trained += 1;
                r.rejected += 1;
            }
            RoundOutcome::Promoted { model, checkpoint_path, .. } => {
                r.trained += 1;
                r.promoted += 1;
                published = checkpoint_path;
                live = model;
            }
            RoundOutcome::RolledBack { model, checkpoint_path, .. } => {
                r.rolled_back += 1;
                published = checkpoint_path;
                live = model;
            }
            RoundOutcome::PersistFailed { .. } => {
                r.trained += 1;
                r.persist_failed += 1;
            }
        }
        r.ms.push(ms);
        // Outside the timed round: the checkpoint just published must
        // reload. It is then removed, so a run keeps one on disk at a time.
        if let Some(path) = published {
            let mut m = state.live.clone();
            match m.load_checkpoint_file(&path) {
                Ok(()) => r.reloaded += 1,
                Err(e) => r.unloadable.push(format!("{}: {e}", path.display())),
            }
            let _ = std::fs::remove_file(&path);
        }
    }
    (r, live)
}

/// Run the workload; returns the model's widest output head.
pub fn run(ctx: &Ctx, report: &mut Report) -> usize {
    let state = repeated_setup(report, || build(ctx.seed));
    report.field(
        "model",
        jstr(&format!(
            "census_like({BASE_ROWS}) + drift, {:?}, S={}",
            model_config().model,
            model_config().estimate_samples
        )),
    );
    report.field("online_config", jstr(&format!("{:?}", online_config(None))));
    report.field("wave", WAVE.to_string());
    report.notes.push(format!(
        "base {} rows, drift {} rows, {} waves of {WAVE}",
        state.inputs.base.num_rows(),
        state.inputs.drift.num_rows(),
        state.inputs.waves.len()
    ));

    let dir = ctx.out_dir.join(format!("online-{}", ctx.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let share = if ctx.traced { 0.5 } else { 1.0 };
    let (rounds, final_live) = round_loop(&state, &dir.join("rounds"), ctx.budget(share));
    let n = rounds.ms.len() as u64;
    report.attempted = n;
    report.failed = rounds.persist_failed;
    report.succeeded = n - rounds.persist_failed;
    report.notes.push(format!(
        "{n} rounds: {} trained, {} promoted, {} rejected, {} rolled back",
        rounds.trained, rounds.promoted, rounds.rejected, rounds.rolled_back
    ));
    if n as usize == state.inputs.waves.len() {
        report.notes.push("every wave was used before the clock ran out".to_owned());
    }
    report.check(
        "no persist failure",
        rounds.persist_failed == 0,
        format!("{}", rounds.persist_failed),
    );

    report.check(
        "every published checkpoint reloads",
        rounds.unloadable.is_empty() && rounds.reloaded > 0,
        format!("{} reloaded, failed: {:?}", rounds.reloaded, rounds.unloadable),
    );

    let qerr = shadow_score(&final_live, &state.inputs.eval).summary.median;
    let stale = shadow_score(&state.live, &state.inputs.eval).summary.median;
    report.notes.push(format!("post-drift median q-error: stale {stale:.4}, final {qerr:.4}"));
    report.check(
        "adapt.qerr_p50 within bound",
        qerr.is_finite() && qerr <= QERR_BOUND,
        format!("{qerr:.4} <= {QERR_BOUND}"),
    );
    report.check(
        "adaptation beats the stale model",
        qerr < stale,
        format!("final {qerr:.4} < stale {stale:.4}"),
    );
    report.set_as("qerr_p50", qerr, state.inputs.eval.len(), Some("adapt.qerr_p50"));
    match (percentile(&rounds.ms, 0.5), percentile(&rounds.ms, 0.9)) {
        (Ok(p50), Ok(p90)) => {
            report.set_as("p50_ms", p50, rounds.ms.len(), Some("adapt.round_p50_ms"));
            report.set_as("tail_ms", p90, rounds.ms.len(), Some("adapt.round_p90_ms"));
        }
        (a, b) => {
            if !ctx.traced {
                report.check("round percentiles supported", false, format!("{a:?} {b:?}"));
            }
        }
    }
    let total_s: f64 = rounds.ms.iter().sum::<f64>() / 1e3;
    report.set_as(
        "throughput",
        n as f64 / total_s.max(1e-9),
        n as usize,
        Some("rounds per second"),
    );
    report.set_as(
        "online.promote_frac",
        frac(rounds.promoted, rounds.trained),
        rounds.trained as usize,
        Some("promotions / trained rounds"),
    );
    report.set("online.rollbacks", rounds.rolled_back as f64, n as usize);

    if ctx.traced {
        replay(ctx, report, &state, &dir.join("replay"), &rounds.ms);
    }
    let _ = std::fs::remove_dir_all(&dir);
    state.inputs.base.domain_sizes().into_iter().max().unwrap_or(1)
}

/// Replay the rounds' steps through the public calls the trainer makes,
/// on a branch of the same model with the same label waves.
fn replay(ctx: &Ctx, report: &mut Report, state: &State, dir: &Path, round_ms: &[f64]) {
    let cfg = online_config(None);
    let mut tracer = Tracer::new();
    let pool = QueryPool::new(512);
    pool.stage_rows(&state.inputs.drift);
    let mut branch = state.live.clone();
    let mut live = state.live.clone();
    let mut last_good = branch.save_checkpoint();
    let stats_before = branch.train_stats().clone();
    std::fs::create_dir_all(dir).expect("create replay directory");
    let journal = Journal::open(dir.join(JOURNAL_FILE), None).expect("open replay journal");
    let (mut rows, mut labels, mut version) = (0usize, 0usize, 0u64);
    let mut ckpt_bytes = Vec::new();
    let mut snapshot_ms = Vec::new();
    for (r, wave) in state.inputs.waves.iter().take(round_ms.len()).enumerate() {
        let req = r as u64;
        let root = tracer.enter("online.round", req);
        pool.extend(wave.iter().cloned());
        if let Some(staged) = pool.take_staged_rows() {
            rows += staged.num_rows();
            tracer.span("train.ingest", req, || branch.ingest_data(&staged, cfg.data_epochs));
        }
        let train_set = pool.take_training(cfg.holdout);
        labels += train_set.len();
        let tqs = tracer.span("train.prepare", req, || branch.prepare_queries(&train_set));
        tracer.span("train.query", req, || branch.train_queries_prepared(&tqs, cfg.query_epochs));
        let candidate = tracer.span("online.clone", req, || branch.clone());
        let holdout = pool.holdout(cfg.holdout);
        let (cand, cur) = tracer.span("online.gate", req, || {
            (shadow_score(&candidate, &holdout), shadow_score(&live, &holdout))
        });
        if cfg.gate.decide(&cand, &cur, holdout.len()) == uae_core::GateDecision::Promote {
            version += 1;
            let bytes = tracer.span("serialize.checkpoint", req, || candidate.save_checkpoint());
            ckpt_bytes.push(bytes.len());
            let file = format!("{LABEL}_v{version}.uaec");
            let persisted = tracer.span("persist.write", req, || {
                journal.append(&JournalRecord::Intent {
                    tenant: LABEL.to_owned(),
                    version,
                    checkpoint: file.clone(),
                })?;
                persist_bytes(dir.join(&file), &bytes, None)?;
                journal.append(&JournalRecord::Commit { tenant: LABEL.to_owned(), version })
            });
            if let Err(e) = persisted {
                report.check("replay persist", false, e.to_string());
            }
            // Outside the spans: keep one replayed checkpoint on disk at a time.
            let _ = std::fs::remove_file(dir.join(&file));
            last_good = tracer.span("serialize.checkpoint", req, || branch.save_checkpoint());
            live = candidate;
        } else {
            tracer
                .span("online.restore", req, || branch.load_checkpoint(&last_good))
                .expect("last-good restores");
        }
        tracer.exit(root);
        // Snapshot cost, outside the round: the first estimate on a fresh
        // clone against a warm one on the same queries.
        let fresh = live.clone();
        let queries: Vec<Query> = holdout.iter().map(|lq| lq.query.clone()).collect();
        let t = Instant::now();
        std::hint::black_box(fresh.try_estimate_cards(&queries));
        let cold = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(fresh.try_estimate_cards(&queries));
        snapshot_ms.push((cold - t.elapsed().as_secs_f64()) * 1e3);
    }
    let rounds = round_ms.len();
    let per = |name: &str| {
        let (ns, n) = tracer.total(name);
        (ns as f64, n)
    };
    let (ingest, _) = per("train.ingest");
    report.set_as(
        "train.data_us_per_row",
        ingest / 1e3 / (rows * cfg.data_epochs).max(1) as f64,
        rows * cfg.data_epochs,
        Some("ingest_data, per row x epoch"),
    );
    let (prepare, _) = per("train.prepare");
    report.set("train.prepare_us_per_label", prepare / 1e3 / labels.max(1) as f64, labels);
    let (query, _) = per("train.query");
    report.set(
        "train.query_us_per_label",
        query / 1e3 / (labels * cfg.query_epochs).max(1) as f64,
        labels * cfg.query_epochs,
    );
    let after = branch.train_stats();
    let steps = after.steps - stats_before.steps;
    report.set(
        "train.skipped_frac",
        frac(after.skipped_steps - stats_before.skipped_steps, steps),
        steps as usize,
    );
    let (clone, clones) = per("online.clone");
    report.set("online.clone_ms", clone / 1e6 / clones.max(1) as f64, clones);
    let (gate, gates) = per("online.gate");
    report.set("online.gate_ms", gate / 1e6 / gates.max(1) as f64, gates);
    report.set("model.snapshot_ms", median(&snapshot_ms), snapshot_ms.len());
    let (ser, sers) = per("serialize.checkpoint");
    report.set("serialize.checkpoint_ms", ser / 1e6 / sers.max(1) as f64, sers);
    let kb: Vec<f64> = ckpt_bytes.iter().map(|&b| b as f64 / 1024.0).collect();
    report.set("serialize.checkpoint_kb", median(&kb), kb.len());
    let (persist, persists) = per("persist.write");
    report.set("persist.write_ms", persist / 1e6 / persists.max(1) as f64, persists);

    // Tracing cost: what the spans add to one round, against the measured
    // round p50.
    let overhead_ms = tracer.span_count() as f64 * span_cost_ns() / 1e6 / rounds.max(1) as f64;
    report.set_as(
        "trace.overhead_ms",
        overhead_ms,
        tracer.span_count(),
        Some("span cost per round"),
    );
    report.set("trace.overhead_frac", overhead_ms / median(round_ms), rounds);
    let stages: f64 = [
        "train.ingest",
        "train.prepare",
        "train.query",
        "online.clone",
        "online.gate",
        "serialize.checkpoint",
        "persist.write",
        "online.restore",
    ]
    .iter()
    .map(|n| per(n).0)
    .sum::<f64>()
        / 1e6;
    let measured: f64 = round_ms.iter().sum();
    report.set_as("trace.replay_ms", stages, rounds, Some("replayed stage spans"));
    report.set_as("trace.measured_ms", measured, rounds, Some("OnlineTrainer::round, same rounds"));
    report.set("trace.unattributed_frac", 1.0 - stages / measured.max(1e-9), rounds);

    let path = ctx.out_dir.join(format!("spans-online_adapt-{}.jsonl", ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.check("spans written", false, format!("{}: {e}", path.display()));
    }
}
