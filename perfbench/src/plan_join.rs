//! `plan_join`: a query optimizer asking the model for subplan
//! cardinalities (paper Fig. 6), in a closed loop with one caller.
//!
//! The table5 join set-up: `imdb_like(1200)`, a 3000-row outer-join
//! sample, hybrid training with DPS, S = 200. Each JOB-light-ranges-focused
//! query goes through `optimizer::best_plan` with the model as the
//! `SubplanEstimator`: 3 dimensions give 6 join orders × 3 prefixes = 18
//! single-query estimates over 7 distinct join sets per plan.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use uae_core::{DpsConfig, ResMadeConfig, TrainConfig, UaeConfig};
use uae_join::workload::{fingerprint, fingerprints};
use uae_join::{
    best_plan, generate_join_workload, imdb_like, plan_cost, sample_outer_join, JoinExecutor,
    JoinQuery, JoinUae, JoinWorkloadSpec, Plan, StarSchema, SubplanEstimator,
};
use uae_query::q_error;

use crate::common::{derive, repeated_setup, serve_delta, Ctx};
use crate::report::{jstr, Report};
use crate::stats::{frac, geo_mean, median, percentile};
use crate::trace::{span_cost_ns, Tracer};

/// Fact rows of the star schema.
pub const TITLES: usize = 1200;
/// Rows of the outer-join sample the model trains on.
pub const SAMPLE_ROWS: usize = 3000;
/// Training queries (JOB-light-ranges-focused).
pub const TRAIN_QUERIES: usize = 300;
/// Hybrid training epochs.
pub const EPOCHS: usize = 2;
/// Progressive samples per estimate.
pub const SAMPLES: usize = 200;
/// Distinct queries planned, round robin.
pub const TEST_QUERIES: usize = 200;
/// Upper bound on `plan.cost_ratio`: 25 runs read 1.07 to 1.10, and the
/// bound leaves about 15% above the highest.
pub const COST_RATIO_BOUND: f64 = 1.25;
/// Upper bound on the median subplan q-error: 25 runs read 1.80 to 1.99,
/// and the bound leaves 25% above the highest.
pub const QERR_BOUND: f64 = 2.5;
/// Seed of the star schema, its join sample and the training queries.
const DATA_SEED: u64 = 0x1BDB;

/// The model configuration (table5's, at this size).
pub fn model_config() -> UaeConfig {
    UaeConfig {
        model: ResMadeConfig { hidden: 128, blocks: 1, seed: 5 },
        train: TrainConfig {
            lambda: 10.0,
            dps: DpsConfig { tau: 1.0, samples: 8 },
            ..TrainConfig::default()
        },
        estimate_samples: SAMPLES,
        ..UaeConfig::default()
    }
}

/// The star schema and training queries (the same for every seed, like a
/// benchmark database and its training workload) and the test queries for
/// `seed`, disjoint from the training queries.
pub fn inputs(seed: u64) -> (StarSchema, Vec<JoinQuery>, Vec<JoinQuery>) {
    let schema = imdb_like(TITLES, DATA_SEED);
    let train = generate_join_workload(
        &schema,
        &JoinWorkloadSpec::focused(0, TRAIN_QUERIES, DATA_SEED ^ 2),
        &HashSet::new(),
    );
    let test = generate_join_workload(
        &schema,
        &JoinWorkloadSpec::focused(0, TEST_QUERIES, derive(seed, 3)),
        &fingerprints(&train),
    );
    let train = train.into_iter().map(|lq| lq.query).collect();
    let test = test.into_iter().map(|lq| lq.query).collect();
    (schema, train, test)
}

/// Key of a join set: the same subquery whichever order asked for it.
fn set_key(q: &JoinQuery) -> u64 {
    let mut q = q.clone();
    q.dims.sort_unstable();
    fingerprint(&q)
}

/// The model behind `best_plan`, as the optimizer calls it: one
/// `JoinUae::estimate` per subplan. Keeps every answer for the q-error.
struct ModelOracle<'a> {
    join: &'a JoinUae,
    answers: RefCell<Vec<(u64, f64)>>,
}

impl SubplanEstimator for ModelOracle<'_> {
    fn name(&self) -> &str {
        "UAE"
    }
    fn subplan_card(&self, query: &JoinQuery) -> f64 {
        let card = self.join.estimate(query);
        self.answers.borrow_mut().push((set_key(query), card));
        card
    }
}

/// The same calls split into translation and single-query sampling, each
/// in a span, with call and distinct-set counts per plan.
struct TracedOracle<'a> {
    join: &'a JoinUae,
    tracer: RefCell<Tracer>,
    plan: Cell<u64>,
    calls: Cell<u64>,
    distinct: RefCell<HashSet<u64>>,
    distinct_total: Cell<u64>,
}

impl SubplanEstimator for TracedOracle<'_> {
    fn name(&self) -> &str {
        "UAE (traced)"
    }
    fn subplan_card(&self, query: &JoinQuery) -> f64 {
        let plan = self.plan.get();
        self.calls.set(self.calls.get() + 1);
        if self.distinct.borrow_mut().insert(set_key(query)) {
            self.distinct_total.set(self.distinct_total.get() + 1);
        }
        let mut t = self.tracer.borrow_mut();
        let est = t.enter("optimizer.estimate", plan);
        let vq = t.span("join.translate", plan, || self.join.translate(query));
        let sel = t.span("infer.single", plan, || self.join.uae().estimate_vquery(&vq));
        t.exit(est);
        sel * self.join.sample().outer_size as f64
    }
}

/// True cardinalities, memoized per join set.
struct Truth<'a> {
    exec: JoinExecutor<'a>,
    memo: RefCell<HashMap<u64, f64>>,
}

impl SubplanEstimator for Truth<'_> {
    fn name(&self) -> &str {
        "Truth"
    }
    fn subplan_card(&self, query: &JoinQuery) -> f64 {
        let key = set_key(query);
        if let Some(&c) = self.memo.borrow().get(&key) {
            return c;
        }
        let c = self.exec.cardinality(query) as f64;
        self.memo.borrow_mut().insert(key, c);
        c
    }
}

struct State {
    schema: StarSchema,
    test: Vec<JoinQuery>,
    join: JoinUae,
}

fn build(seed: u64) -> (State, f64) {
    let (schema, train, test) = inputs(seed);
    let labelled = uae_join::label_join_queries(&schema, train);
    let sample = sample_outer_join(&schema, SAMPLE_ROWS, 32, DATA_SEED ^ 4);
    let mut join = JoinUae::new(sample, model_config());
    let t = Instant::now();
    join.train_hybrid(&labelled, EPOCHS);
    let train_s = t.elapsed().as_secs_f64();
    // Warm-up: snapshot, first-step memo and scratch.
    for q in test.iter().take(4) {
        join.estimate(q);
    }
    (State { schema, test, join }, train_s)
}

/// Plan queries round robin until `budget` runs out; returns each plan's
/// query index, plan and wall time in ms.
fn plan_loop(
    state: &State,
    oracle: &dyn SubplanEstimator,
    budget: std::time::Duration,
    mut around: impl FnMut(u64, &mut dyn FnMut() -> Plan) -> Plan,
) -> Vec<(usize, Plan, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while start.elapsed() < budget {
        let i = out.len() % state.test.len();
        let t = Instant::now();
        let plan = around(out.len() as u64, &mut || best_plan(&state.test[i], oracle));
        out.push((i, plan, t.elapsed().as_secs_f64() * 1e3));
    }
    out
}

/// Run the workload; returns the model's widest output head.
pub fn run(ctx: &Ctx, report: &mut Report) -> usize {
    let state = repeated_setup(report, || build(ctx.seed));
    report.field("samples", SAMPLES.to_string());
    report.field(
        "model",
        jstr(&format!(
            "imdb_like({TITLES}), sample {SAMPLE_ROWS}, {TRAIN_QUERIES} train queries x {EPOCHS} hybrid epochs, {:?}",
            model_config().model
        )),
    );
    let uae = state.join.uae();

    // Untraced: the whole budget, or half of it in the traced run.
    let oracle = ModelOracle { join: &state.join, answers: RefCell::new(Vec::new()) };
    let before = uae.serve_stats();
    let share = if ctx.traced { 0.5 } else { 1.0 };
    let plans = plan_loop(&state, &oracle, ctx.budget(share), |_, f| f());
    let serve = serve_delta(&uae.serve_stats(), &before);
    let times: Vec<f64> = plans.iter().map(|p| p.2).collect();
    report.attempted = plans.len() as u64;
    report.succeeded = plans.len() as u64;

    // Correctness: true cost of each chosen plan against the plan chosen
    // under true cardinalities, and q-error of every answer.
    let truth =
        Truth { exec: JoinExecutor::new(&state.schema), memo: RefCell::new(HashMap::new()) };
    let best_true: Vec<f64> =
        state.test.iter().map(|q| plan_cost(q, &best_plan(q, &truth), &truth).max(1.0)).collect();
    let ratios: Vec<f64> = plans
        .iter()
        .map(|(i, plan, _)| plan_cost(&state.test[*i], plan, &truth).max(1.0) / best_true[*i])
        .collect();
    let cost_ratio = geo_mean(&ratios);
    let qerrs: Vec<f64> = oracle
        .answers
        .borrow()
        .iter()
        .map(|&(key, est)| q_error(truth.memo.borrow()[&key], est))
        .collect();
    let qerr = median(&qerrs);
    report.notes.push(format!(
        "{} plans over {} queries, {} subplan estimates, cost ratio {cost_ratio:.4}",
        plans.len(),
        state.test.len(),
        qerrs.len()
    ));
    report.check(
        "plan.cost_ratio within bound",
        cost_ratio.is_finite() && cost_ratio <= COST_RATIO_BOUND,
        format!("{cost_ratio:.4} <= {COST_RATIO_BOUND}"),
    );
    report.check(
        "plan subplan qerr_p50 within bound",
        qerr.is_finite() && qerr <= QERR_BOUND,
        format!("{qerr:.4} <= {QERR_BOUND}"),
    );
    report.check(
        "every estimate finite and non-negative",
        oracle.answers.borrow().iter().all(|&(_, e)| e.is_finite() && e >= 0.0),
        format!("{} estimates", qerrs.len()),
    );

    match (percentile(&times, 0.5), percentile(&times, 0.95)) {
        (Ok(p50), Ok(p95)) => {
            report.set_as("p50_ms", p50, times.len(), Some("plan.p50_ms"));
            report.set_as("tail_ms", p95, times.len(), Some("plan.p95_ms"));
        }
        (a, b) => {
            if !ctx.traced {
                report.check("plan percentiles supported", false, format!("{a:?} {b:?}"));
            }
        }
    }
    let total_s: f64 = times.iter().sum::<f64>() / 1e3;
    report.set_as(
        "throughput",
        times.len() as f64 / total_s.max(1e-9),
        times.len(),
        Some("plans per second"),
    );
    report.set_as("qerr_p50", qerr, qerrs.len(), Some("median subplan q-error"));
    report.set_as("optimizer.cost_ratio", cost_ratio, ratios.len(), Some("plan.cost_ratio"));
    report.set_as(
        "estimator.retry_frac",
        frac(serve.retries, qerrs.len() as u64),
        qerrs.len(),
        Some("retries per estimate"),
    );
    report.set("estimator.fallback_frac", frac(serve.fallbacks, qerrs.len() as u64), qerrs.len());

    if ctx.traced {
        traced(ctx, report, &state, &times);
    }
    state.join.sample().table.domain_sizes().into_iter().max().unwrap_or(1)
}

fn traced(ctx: &Ctx, report: &mut Report, state: &State, untraced_ms: &[f64]) {
    let oracle = TracedOracle {
        join: &state.join,
        tracer: RefCell::new(Tracer::new()),
        plan: Cell::new(0),
        calls: Cell::new(0),
        distinct: RefCell::new(HashSet::new()),
        distinct_total: Cell::new(0),
    };
    let allocs_before = uae_tensor::tensor_alloc_count();
    let plans = plan_loop(state, &oracle, ctx.budget(0.5), |id, f| {
        oracle.plan.set(id);
        oracle.distinct.borrow_mut().clear();
        let root = oracle.tracer.borrow_mut().enter("optimizer.best_plan", id);
        let plan = f();
        oracle.tracer.borrow_mut().exit(root);
        plan
    });
    let allocs = uae_tensor::tensor_alloc_count() - allocs_before;
    let tracer = oracle.tracer.into_inner();
    let n = plans.len().max(1) as f64;
    let calls = oracle.calls.get();
    report.set("optimizer.calls_per_plan", calls as f64 / n, plans.len());
    report.set("optimizer.distinct_per_plan", oracle.distinct_total.get() as f64 / n, plans.len());
    let (translate_ns, translates) = tracer.total("join.translate");
    let (infer_ns, infers) = tracer.total("infer.single");
    report.set(
        "join.translate_us",
        translate_ns as f64 / 1e3 / translates.max(1) as f64,
        translates,
    );
    report.set("infer.single_us", infer_ns as f64 / 1e3 / infers.max(1) as f64, infers);
    let optimizer_self = tracer.self_total("optimizer.best_plan");
    report.set("optimizer.self_us", optimizer_self as f64 / 1e3 / n, plans.len());
    report.set("tensor.allocs_per_call", allocs as f64 / calls.max(1) as f64, calls as usize);

    // Tracing cost: what the spans add to one plan, against the untraced
    // plan p50.
    let overhead_ms = tracer.span_count() as f64 * span_cost_ns() / 1e6 / n;
    report.set_as(
        "trace.overhead_ms",
        overhead_ms,
        tracer.span_count(),
        Some("span cost per plan"),
    );
    report.set("trace.overhead_frac", overhead_ms / median(untraced_ms), plans.len());
    let measured_ns: u64 = tracer.total("optimizer.best_plan").0;
    let replay_ns = translate_ns + infer_ns + optimizer_self;
    report.set_as(
        "trace.replay_ms",
        replay_ns as f64 / 1e6,
        plans.len(),
        Some("optimizer self + translate + infer"),
    );
    report.set_as(
        "trace.measured_ms",
        measured_ns as f64 / 1e6,
        plans.len(),
        Some("best_plan spans"),
    );
    report.set(
        "trace.unattributed_frac",
        1.0 - replay_ns as f64 / measured_ns.max(1) as f64,
        plans.len(),
    );

    let path = ctx.out_dir.join(format!("spans-plan_join-{}.jsonl", ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.check("spans written", false, format!("{}: {e}", path.display()));
    }
}
