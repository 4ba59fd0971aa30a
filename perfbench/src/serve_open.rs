//! `serve_open`: open-loop Poisson arrivals into `uae_server::Server`.
//!
//! One tenant: `census_like(6000)` trained for one data epoch, S = 1000,
//! and a pool of 4096 random queries labelled with their exact cardinality.
//! A generator thread (this one) sends pre-generated arrivals at each fixed
//! offered rate into a fresh server. Latency runs from each request's due
//! time to the moment the server fills its reply (the request's send time
//! plus the queue and execute time the server reports for it), so a stalled
//! server also delays the requests behind it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_core::{
    validate_query, ServeEvent, ServeMemoryObserver, ServeStats, Uae, UaeConfig, Validation,
};
use uae_query::{generate_workload, q_error, LabeledQuery, Query, WorkloadSpec};
use uae_server::{Registry, Server, ServerConfig, ServerError, ServerStats, SubmitError};

use crate::common::{derive, repeated_setup, serve_delta, sleep_until, Ctx};
use crate::report::{jstr, Report};
use crate::stats::{self, frac, part_bounds, per_part, percentile, quantile};
use crate::trace::{span_cost_ns, Tracer};

/// Offered rates, queries per second.
pub const RATES: [u32; 4] = [150, 500, 1500, 2000];
/// Share of the measuring time each rate gets. The nominal rate gets most:
/// its reported percentiles rest on a few bursts and scheduler stalls, so
/// it needs the most samples. Every rate still expects over 1000 arrivals
/// at 35 s, enough for a p99.
pub const RATE_SHARES: [f64; 4] = [0.55, 0.14, 0.05, 0.05];
/// Share of the measuring time the closed-loop saturation phase gets.
pub const SATURATION_SHARE: f64 = 0.21;
/// Requests kept outstanding in the saturation phase: two full batches
/// (`max_batch` 64), and below the ladder's queue-depth threshold (256),
/// so every reply is answered at full quality.
pub const SATURATION_DEPTH: usize = 128;
/// The rate whose latency and accuracy are reported; the first of
/// [`RATES`], the only one an untraced run sends.
pub const NOMINAL: u32 = 150;
const _: () = assert!(RATES[0] == NOMINAL);
/// How the per-layer lines name the nominal rate.
const AT_NOMINAL: &str = "at 150 qps";
/// Segments the nominal window and the saturation phase are each cut
/// into; the two run in turn, a saturation slice before each nominal
/// segment, so both metrics spread over the same three quarters of the run.
/// The host's speed drifts by tens of percent over seconds, and a metric
/// measured in one contiguous slice reads whatever speed that slice had.
/// The nominal p50 and p95 are the medians of the segments' own
/// percentiles, so a few seconds of host noise move one segment, not the
/// reported value. Each segment holds about 380 requests at 35 s (230 in
/// the traced run), enough for a p95.
pub const SEGMENTS: usize = 10;
/// Progressive samples per query.
pub const SAMPLES: usize = 1000;
/// Table rows.
pub const ROWS: usize = 6000;
/// Distinct queries in the pool. Query cost is skewed (p50 about 0.3 ms,
/// p99 about 8 ms at S = 1000), so the served tail and throughput follow
/// the pool's share of heavy queries, and a large pool keeps that share
/// nearly the same for every seed.
pub const POOL: usize = 4096;
/// Pool queries the set-up runs once, in server-sized batches, to warm
/// the snapshot, the first-step memo and the batch scratch.
const WARM_QUERIES: usize = 512;
/// The latency limit `serve.max_qps` holds p99 to, in milliseconds.
pub const LIMIT_MS: f64 = 50.0;
/// Largest share of requests that may fail, be refused or be degraded at
/// a rate `serve.max_qps` accepts.
pub const MAX_BAD_FRAC: f64 = 0.01;
/// Executor threads.
pub const EXECUTORS: usize = 1;
/// Kernel threads per executor. One executor with one kernel thread
/// leaves the second core to the dispatcher and this generator thread;
/// two kernel threads made the three contend for the two cores and the
/// nominal p50 spread too widely between runs.
pub const KERNEL_THREADS: usize = 1;
/// Most requests replayed through the layers in the traced run.
const MAX_REPLAY: usize = 1024;
/// Upper bound on the median q-error at the nominal rate: 35 runs at 500
/// qps read 1.64 to 1.96 and 40 at 150 and 250 qps 1.70 to 1.87; the bound
/// leaves 25% above the highest.
pub const QERR_BOUND: f64 = 2.5;
/// Seed of the census table.
const DATA_SEED: u64 = 0x5E4E;
const TENANT: &str = "census";

/// The fixed front-end configuration: one executor with one kernel
/// thread, the default batcher and the default degradation ladder.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        executors: EXECUTORS,
        kernel_threads: Some(KERNEL_THREADS),
        ..ServerConfig::default()
    }
}

/// The tenant's model configuration.
pub fn model_config() -> UaeConfig {
    UaeConfig { estimate_samples: SAMPLES, ..UaeConfig::default() }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the start of the rate's window.
    pub due_ns: u64,
    /// Index into the query pool.
    pub query: usize,
}

/// Poisson arrivals at `rate` per second over `window`, each naming a pool
/// query. A pure function of its arguments.
pub fn arrivals(seed: u64, rate: u32, window: Duration, pool: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 0xA771 ^ rate as u64));
    let end = window.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate as f64 * end * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate as f64;
        if t >= end {
            return out;
        }
        out.push(Arrival { due_ns: (t * 1e9) as u64, query: rng.random_range(0..pool) });
    }
}

/// The census table (the same for every seed, like a benchmark database)
/// and the labelled query pool for `seed`.
pub fn inputs(seed: u64) -> (uae_data::Table, Vec<LabeledQuery>) {
    let table = uae_data::census_like(ROWS, DATA_SEED);
    let pool =
        generate_workload(&table, &WorkloadSpec::random(POOL, derive(seed, 2)), &HashSet::new());
    (table, pool)
}

/// The `serve.max_qps` acceptance rule for one offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RateOutcome {
    /// Offered rate.
    pub rate: u32,
    /// p99 latency with refused and failed requests counted as missing
    /// the limit (`None` when too few samples support a p99).
    pub p99_ms: Option<f64>,
    /// Median of the requests in flight, sampled at each send, over the
    /// last quarter of the window.
    pub in_flight_late: f64,
    /// Requests refused as overloaded.
    pub overloaded: u64,
    /// Requests failed, refused or degraded.
    pub bad: u64,
    /// Requests sent.
    pub sent: u64,
    /// Completed requests per second over the window and its drain.
    pub throughput: f64,
}

impl RateOutcome {
    /// No backlog builds: nothing was refused as overloaded, and over the
    /// last quarter of the window the median number of requests in flight
    /// is no more than the rate sustains within the latency limit (Little's
    /// law: rate × limit). The median keeps one late burst from counting as
    /// a backlog.
    pub fn no_backlog(&self) -> bool {
        self.overloaded == 0 && self.in_flight_late <= self.rate as f64 * LIMIT_MS / 1e3
    }

    /// p99 within the limit, no backlog, and at most 1% of requests
    /// failed, refused or degraded.
    pub fn passes(&self) -> bool {
        self.p99_ms.is_some_and(|p| p <= LIMIT_MS)
            && self.no_backlog()
            && frac(self.bad, self.sent) <= MAX_BAD_FRAC
    }
}

/// `serve.max_qps`: the completed throughput at the highest offered rate
/// that passes, or 0 when none does.
pub fn max_qps(outcomes: &[RateOutcome]) -> f64 {
    outcomes.iter().filter(|o| o.passes()).max_by_key(|o| o.rate).map_or(0.0, |o| o.throughput)
}

/// Everything measured at one offered rate.
struct RateRun {
    outcome: RateOutcome,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    qerrs: Vec<f64>,
    stats: ServerStats,
    serve: ServeStats,
    completed: u64,
    /// Pool index of every answered request, in send order.
    answered: Vec<usize>,
}

struct State {
    registry: Arc<Registry>,
    pool: Vec<LabeledQuery>,
    widest_head: usize,
}

fn build(seed: u64) -> (State, f64) {
    let (table, pool) = inputs(seed);
    let mut uae = Uae::new(&table, model_config());
    let t = Instant::now();
    uae.train_data(1);
    let train_s = t.elapsed().as_secs_f64();
    // Warm-up: inference snapshot, first-step memo, and batch scratch, in
    // batches as large as the server forms.
    let queries: Vec<Query> = pool.iter().map(|lq| lq.query.clone()).collect();
    for batch in queries[..WARM_QUERIES.min(queries.len())].chunks(server_config().max_batch) {
        let _ = uae.try_estimate_cards(batch);
    }
    let widest_head = table.domain_sizes().into_iter().max().unwrap_or(1);
    let registry = Arc::new(Registry::new());
    registry.register(TENANT, uae);
    (State { registry, pool, widest_head }, train_s)
}

/// Send `schedule` at `rate` into a fresh server, cut into `segments`
/// consecutive segments with `interlude` run before each one. The server
/// idles through an interlude; each segment's due times restart after it,
/// keeping their Poisson gaps.
fn run_rate(
    state: &State,
    rate: u32,
    schedule: &[Arrival],
    segments: usize,
    mut interlude: impl FnMut(),
) -> RateRun {
    let model = state.registry.get(TENANT).expect("tenant registered").model();
    let before = model.serve_stats();
    let server = Server::start(state.registry.clone(), server_config());
    // The server reports each request's queue and execute time as it fills
    // the reply; that, added to when the request was sent, is when its reply
    // arrived, with no collector thread competing for the two cores.
    let observer = ServeMemoryObserver::default();
    let events = observer.events.clone();
    server.set_observer(Box::new(observer));
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut depths = Vec::with_capacity(schedule.len());
    let mut accepted = Vec::with_capacity(schedule.len());
    let mut overloaded = 0u64;
    let mut refused_other = 0u64;
    let mut starts = Vec::with_capacity(segments);
    for (k, range) in part_bounds(schedule.len(), segments).enumerate() {
        interlude();
        // Leave the server's threads a moment to start, or to settle after
        // the interlude, before the first due time.
        let t0 = Instant::now() + Duration::from_millis(20);
        starts.push(t0);
        let offset = if range.start == 0 { 0 } else { schedule[range.start - 1].due_ns };
        for i in range {
            let a = schedule[i];
            let due = t0 + Duration::from_nanos(a.due_ns - offset);
            sleep_until(due);
            let sent = Instant::now();
            late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            depths.push(server.queue_depth() as f64);
            match server.submit(TENANT, state.pool[a.query].query.clone()) {
                Ok(ticket) => accepted.push((i, k, due, sent, ticket)),
                Err(SubmitError::Overloaded) => overloaded += 1,
                Err(_) => refused_other += 1,
            }
        }
    }
    let in_flight_late = stats::median(&depths[depths.len() - depths.len() / 4..]);
    let stats = server.shutdown();
    let serve = serve_delta(&model.serve_stats(), &before);
    let served: HashMap<u64, f64> = events
        .lock()
        .expect("observer lock")
        .iter()
        .filter_map(|e| match e {
            ServeEvent::RequestServed { index, queue_ms, execute_ms, .. } => {
                Some((*index, queue_ms + execute_ms))
            }
            _ => None,
        })
        .collect();

    // In arrival order; a failed or refused request keeps its infinite
    // latency.
    let mut latencies_ms = vec![f64::INFINITY; schedule.len()];
    let mut qerrs = Vec::with_capacity(accepted.len());
    let mut answered = Vec::with_capacity(accepted.len());
    let mut completed = 0u64;
    let mut degraded = 0u64;
    let mut failed = 0u64;
    let mut last_reply = starts.clone();
    for (i, k, due, sent, ticket) in accepted {
        // Shutdown answered every accepted request.
        let result = ticket.try_take().expect("reply filled before shutdown returned");
        let at = sent + Duration::from_secs_f64(served[&ticket.id()] / 1e3);
        last_reply[k] = last_reply[k].max(at);
        match result {
            Ok(est) => {
                completed += 1;
                if est.source == uae_core::EstimateSource::ModelDegraded {
                    degraded += 1;
                }
                latencies_ms[i] = at.duration_since(due).as_secs_f64() * 1e3;
                let truth = state.pool[schedule[i].query].cardinality as f64;
                qerrs.push(q_error(truth, est.card));
                answered.push(schedule[i].query);
            }
            Err(
                ServerError::Estimate(_)
                | ServerError::ExecutorPanic
                | ServerError::DeadlineExceeded,
            ) => {
                failed += 1;
            }
        }
    }
    let refused = overloaded + refused_other;
    // Completed requests over the segments' own spans, interludes left out.
    let span: f64 = starts
        .iter()
        .zip(&last_reply)
        .map(|(t0, last)| last.duration_since(*t0).as_secs_f64())
        .sum();
    let outcome = RateOutcome {
        rate,
        p99_ms: percentile(&latencies_ms, 0.99).ok(),
        in_flight_late,
        overloaded,
        bad: refused + failed + degraded,
        sent: schedule.len() as u64,
        throughput: completed as f64 / span.max(1e-9),
    };
    RateRun { outcome, latencies_ms, late_ms, qerrs, stats, serve, completed, answered }
}

/// The closed-loop saturation phase on a server of its own: send
/// [`SATURATION_DEPTH`] requests at once, wait for every reply, and
/// repeat. The executor never waits for work, so the reply rate is what
/// the server sustains at full quality, whatever the offered-rate grid.
/// It runs in slices between the nominal segments.
struct Saturation {
    server: Server,
    rng: StdRng,
    /// Requests sent.
    sent: u64,
    /// Replies that succeeded at full quality.
    full: u64,
    /// Each round's replies per second.
    rates: Vec<f64>,
}

impl Saturation {
    fn start(state: &State, seed: u64) -> Saturation {
        Saturation {
            server: Server::start(state.registry.clone(), server_config()),
            rng: StdRng::seed_from_u64(derive(seed, 0x5A7)),
            sent: 0,
            full: 0,
            rates: Vec::new(),
        }
    }

    /// Rounds of [`SATURATION_DEPTH`] requests until `window` has passed.
    fn run_for(&mut self, state: &State, window: Duration) {
        let start = Instant::now();
        while start.elapsed() < window {
            let round = Instant::now();
            let tickets: Vec<_> = (0..SATURATION_DEPTH)
                .map(|_| {
                    let q = self.rng.random_range(0..state.pool.len());
                    self.server.submit(TENANT, state.pool[q].query.clone())
                })
                .collect();
            self.sent += tickets.len() as u64;
            for ticket in tickets.into_iter().flatten() {
                if ticket.wait().is_ok_and(|e| e.source != uae_core::EstimateSource::ModelDegraded)
                {
                    self.full += 1;
                }
            }
            self.rates.push(SATURATION_DEPTH as f64 / round.elapsed().as_secs_f64());
        }
    }
}

/// Counter reconciliation for one rate's server.
fn reconcile(report: &mut Report, rate: u32, run: &RateRun) {
    let s = &run.stats;
    report.check(
        format!("server counters reconcile at {rate} qps"),
        s.submitted == s.accepted + s.rejected_overloaded + s.rejected_unknown_tenant
            && s.accepted == s.completed + s.query_errors + s.failed + s.deadline_exceeded
            && s.submitted == run.outcome.sent
            && s.completed == run.completed,
        format!(
            "submitted={} accepted={} overloaded={} unknown={} completed={} query_errors={} failed={} deadline={} sent={}",
            s.submitted,
            s.accepted,
            s.rejected_overloaded,
            s.rejected_unknown_tenant,
            s.completed,
            s.query_errors,
            s.failed,
            s.deadline_exceeded,
            run.outcome.sent
        ),
    );
}

/// Run the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> usize {
    uae_tensor::configure_pool_threads(KERNEL_THREADS);
    let state = repeated_setup(report, || build(ctx.seed));
    let cfg = server_config();
    report.field("server_config", jstr(&format!("{cfg:?}")));
    report.field("rates_qps", format!("{RATES:?}"));
    report.field("nominal_qps", NOMINAL.to_string());
    report.field("samples", SAMPLES.to_string());
    report.field(
        "model",
        jstr(&format!("census_like({ROWS}) {:?}, 1 data epoch, pool {POOL}", model_config().model)),
    );

    // Untraced, only the nominal window and the saturation slices run, over
    // the whole budget: they give every end-to-end metric. The traced run
    // sweeps every rate, as the per-layer metrics need, in 80% of the
    // budget and replays in the rest.
    let (rates, scale) = if ctx.traced {
        (&RATES[..], 0.8)
    } else {
        (&RATES[..1], 1.0 / (RATE_SHARES[0] + SATURATION_SHARE))
    };
    // Saturation runs in slices between the nominal segments, before the
    // overloaded rates: the ladder keeps its state in the registry, and
    // those rates would leave it degraded.
    let mut sat = Saturation::start(&state, ctx.seed);
    let slice = ctx.budget(scale * SATURATION_SHARE / SEGMENTS as f64);
    let mut runs = Vec::with_capacity(rates.len());
    for (&rate, &share) in rates.iter().zip(&RATE_SHARES) {
        let schedule = arrivals(ctx.seed, rate, ctx.budget(scale * share), state.pool.len());
        let run = if rate == NOMINAL {
            run_rate(&state, rate, &schedule, SEGMENTS, || sat.run_for(&state, slice))
        } else {
            run_rate(&state, rate, &schedule, 1, || {})
        };
        reconcile(report, rate, &run);
        let o = &run.outcome;
        report.notes.push(format!(
            "rate {rate} qps: sent {} completed {} p99 {} ms, in flight late {}, overloaded {}, bad {:.4}, throughput {:.1}/s, late p99 {:.3} ms max {:.3} ms, mean batch {:.1} -> {}",
            o.sent,
            run.completed,
            o.p99_ms.map_or("unsupported".to_owned(), |p| format!("{p:.2}")),
            o.in_flight_late,
            o.overloaded,
            frac(o.bad, o.sent),
            o.throughput,
            quantile(&run.late_ms, 0.99),
            quantile(&run.late_ms, 1.0),
            run.stats.mean_batch_size(),
            if o.passes() { "passes" } else { "fails" }
        ));
        runs.push(run);
    }
    let t = &sat.server.shutdown();
    // The median over rounds of each round's reply rate, so a few slow
    // rounds from host noise do not move it.
    let sat_qps = stats::median(&sat.rates);
    report.check(
        "saturation: every request answered at full quality, counters reconcile",
        sat.full == sat.sent && t.submitted == sat.sent && t.completed == sat.sent,
        format!(
            "sent {} full quality {} submitted {} completed {} degraded {}",
            sat.sent, sat.full, t.submitted, t.completed, t.degraded_requests
        ),
    );
    report.notes.push(format!(
        "saturation ({SATURATION_DEPTH} outstanding): {} replies in {} rounds, median {:.1}/s, mean batch {:.1}",
        sat.full,
        sat.rates.len(),
        sat_qps,
        t.mean_batch_size()
    ));
    let nominal = runs.iter().find(|r| r.outcome.rate == NOMINAL).expect("nominal rate swept");
    let attempted: u64 = runs.iter().map(|r| r.outcome.sent).sum::<u64>() + sat.sent;
    let succeeded: u64 = runs.iter().map(|r| r.completed).sum::<u64>() + sat.full;
    report.attempted = attempted;
    report.succeeded = succeeded;
    report.failed = attempted - succeeded;

    // End-to-end (at the nominal rate unless stated). The p50 and p95 are
    // medians over the segments of the nominal window. The gated tail is
    // p95: on a shared 2-vCPU host, p99 is set by a handful of scheduler
    // stalls and spreads too widely between runs to gate on. The pooled p99
    // is still printed, and `serve.max_qps` uses it.
    let lat = &nominal.latencies_ms;
    match (per_part(lat, SEGMENTS, 0.5), per_part(lat, SEGMENTS, 0.95), percentile(lat, 0.99)) {
        (Ok(p50s), Ok(p95s), Ok(p99)) => {
            report.set_as("p50_ms", stats::median(&p50s), lat.len(), Some("serve.p50_ms"));
            report.set_as("tail_ms", stats::median(&p95s), lat.len(), Some("serve.p95_ms"));
            report.notes.push(format!("serve.p99_ms = {p99:.4} ms (n={})", lat.len()));
            for (name, parts) in [("p50", &p50s), ("p95", &p95s)] {
                let shown: Vec<String> = parts.iter().map(|v| format!("{v:.2}")).collect();
                report.notes.push(format!("{name} per segment (ms): {}", shown.join(" ")));
            }
        }
        (a, b, c) => {
            if !ctx.traced {
                report.check("latency percentiles supported", false, format!("{a:?} {b:?} {c:?}"));
            }
        }
    }
    report.set_as(
        "throughput",
        sat_qps,
        sat.rates.len(),
        Some("serve.saturated_qps: full-quality replies/s, closed loop"),
    );
    let qerr = stats::median(&nominal.qerrs);
    report.set_as("qerr_p50", qerr, nominal.qerrs.len(), Some("serve.qerr_p50"));
    report.check(
        "serve.qerr_p50 within bound",
        qerr.is_finite() && qerr <= QERR_BOUND,
        format!("{qerr:.4} <= {QERR_BOUND}"),
    );
    report.check(
        "every request completes at the nominal rate",
        nominal.completed == nominal.outcome.sent,
        format!("{} of {}", nominal.completed, nominal.outcome.sent),
    );

    if ctx.traced {
        per_layer(report, &runs);
        traced(ctx, report, &state, nominal);
    }
    state.widest_head
}

/// The per-layer counters of the full sweep, and `serve.max_qps`.
fn per_layer(report: &mut Report, runs: &[RateRun]) {
    // `serve.max_qps` reads the rate grid more than the server: every rate
    // below saturation completes about what it offers. It is printed; the
    // throughput metric is what the server sustains in the saturation
    // phase.
    let outcomes: Vec<RateOutcome> = runs.iter().map(|r| r.outcome.clone()).collect();
    report
        .notes
        .push(format!("serve.max_qps = {:.4} 1/s (rule over {RATES:?})", max_qps(&outcomes)));
    for (run, rate) in runs.iter().zip(RATES) {
        let s = &run.stats;
        let served = s.completed + s.query_errors + s.failed;
        report.set(
            &format!("server.queue_wait_ms.r{rate}"),
            s.queue_wait_ms_total / served.max(1) as f64,
            served as usize,
        );
        report.set(
            &format!("registry.degraded_frac.r{rate}"),
            frac(s.degraded_requests, s.completed),
            s.completed as usize,
        );
        report.set(
            &format!("loadgen.late_p99_ms.r{rate}"),
            quantile(&run.late_ms, 0.99),
            run.late_ms.len(),
        );
        report.set(
            &format!("loadgen.late_max_ms.r{rate}"),
            quantile(&run.late_ms, 1.0),
            run.late_ms.len(),
        );
    }
    let s = &runs[0].stats;
    let served = s.completed + s.query_errors + s.failed;
    report.set_as(
        "server.execute_ms_per_batch",
        s.execute_ms_total / served.max(1) as f64,
        served as usize,
        Some("execute_ms_total / served at 150 qps"),
    );
    report.set_as("server.queue_depth_max", s.max_queue_depth as f64, 1, Some(AT_NOMINAL));
    let top = &runs.last().expect("rates swept").stats;
    report.set_as(
        "server.rejected_frac",
        frac(top.rejected_overloaded + top.deadline_exceeded, top.submitted),
        top.submitted as usize,
        Some("at 2000 qps"),
    );
    report.set_as("batcher.batch_mean", s.mean_batch_size(), s.batches as usize, Some(AT_NOMINAL));
    report.set_as(
        "batcher.deadline_flush_frac",
        frac(s.flush_deadline, s.batches),
        s.batches as usize,
        Some(AT_NOMINAL),
    );
    // The model's serving counters are shared by every server on it, and
    // the saturation slices run inside the nominal window, so the cascade's
    // counters come from the 500 qps run, which runs alone.
    let v = &runs[1].serve;
    let at = format!("at {} qps", RATES[1]);
    let at = Some(at.as_str());
    report.set_as(
        "estimator.shortcut_frac",
        frac(v.validated_empty + v.validated_trivial, v.served),
        v.served as usize,
        at,
    );
    report.set_as("estimator.retry_frac", frac(v.retries, v.served), v.served as usize, at);
    report.set_as("estimator.fallback_frac", frac(v.fallbacks, v.served), v.served as usize, at);
}

/// The traced part: the nominal requests replayed through the layers'
/// public functions in this thread. The server itself always runs
/// untraced.
fn traced(ctx: &Ctx, report: &mut Report, state: &State, untraced: &RateRun) {
    let mut tracer = Tracer::new();
    // Replay: validate -> translate -> batched sample, then the full
    // cascade on the same batch; the cascade's own cost is what its call
    // takes beyond the three stages.
    let model = state.registry.get(TENANT).expect("tenant registered").model();
    let queries: Vec<&Query> =
        untraced.answered.iter().take(MAX_REPLAY).map(|&q| &state.pool[q].query).collect();
    let batch =
        (untraced.stats.mean_batch_size().round() as usize).clamp(1, server_config().max_batch);
    let (mut validate_ns, mut translate_ns, mut sample_ns, mut cascade_ns) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut sampled, mut replay_weighted_ms) = (0usize, 0.0f64);
    for (b, chunk) in queries.chunks(batch).enumerate() {
        let req = b as u64;
        let owned: Vec<Query> = chunk.iter().map(|q| (*q).clone()).collect();
        let stages = tracer.enter("serve.stages", req);
        let id = tracer.enter("serve.validate", req);
        let verdicts: Vec<_> = owned.iter().map(|q| validate_query(model.table(), q)).collect();
        tracer.exit(id);
        validate_ns += tracer.dur_ns(id);
        let id = tracer.enter("vquery.translate", req);
        let vqs: Vec<_> = owned
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| matches!(v, Ok(Validation::Sample)))
            .map(|(q, _)| model.translate(q))
            .collect();
        tracer.exit(id);
        translate_ns += tracer.dur_ns(id);
        sampled += vqs.len();
        let id = tracer.enter("infer_batch.sample", req);
        std::hint::black_box(model.estimate_vquery_batch(&vqs));
        tracer.exit(id);
        sample_ns += tracer.dur_ns(id);
        tracer.exit(stages);
        let full = tracer.enter("estimator.try_estimate_cards_with", req);
        std::hint::black_box(model.try_estimate_cards_with(&owned, None));
        tracer.exit(full);
        let f = tracer.dur_ns(full);
        cascade_ns += f.saturating_sub(tracer.dur_ns(stages));
        replay_weighted_ms += f as f64 / 1e6 * chunk.len() as f64;
    }
    let n = queries.len().max(1) as f64;
    report.set("serve.validate_us", validate_ns as f64 / 1e3 / n, queries.len());
    report.set("vquery.translate_us", translate_ns as f64 / 1e3 / sampled.max(1) as f64, sampled);
    report.set_as(
        "infer_batch.us_per_q_bmean",
        sample_ns as f64 / 1e3 / sampled.max(1) as f64,
        sampled,
        Some(&format!("batch {batch}")),
    );
    report.set("estimator.cascade_us", cascade_ns as f64 / 1e3 / n, queries.len());

    // The same queries one at a time through the batched sampler.
    let vqs: Vec<_> = queries
        .iter()
        .filter(|q| matches!(validate_query(model.table(), q), Ok(Validation::Sample)))
        .map(|q| model.translate(q))
        .collect();
    for (i, vq) in vqs.iter().enumerate() {
        tracer.span("infer_batch.b1", i as u64, || {
            std::hint::black_box(model.estimate_vquery_batch(std::slice::from_ref(vq)))
        });
    }
    let (b1_ns, b1_n) = tracer.total("infer_batch.b1");
    report.set("infer_batch.us_per_q_b1", b1_ns as f64 / 1e3 / b1_n.max(1) as f64, b1_n);

    // Replayed execute time beside the server's, over the same number of
    // requests and weighted per request as `execute_ms_total` is.
    let s = &untraced.stats;
    let served = (s.completed + s.query_errors + s.failed).max(1) as f64;
    let measured = s.execute_ms_total * queries.len() as f64 / served;
    report.set_as(
        "trace.replay_ms",
        replay_weighted_ms,
        queries.len(),
        Some("replayed batches, request-weighted"),
    );
    report.set_as(
        "trace.measured_ms",
        measured,
        queries.len(),
        Some("server execute_ms_total, same requests"),
    );
    report.set(
        "trace.unattributed_frac",
        1.0 - replay_weighted_ms / measured.max(1e-9),
        queries.len(),
    );
    // Tracing cost: what the replay's spans add per replayed request,
    // against the server's untraced execute time per request.
    let overhead_ms = tracer.span_count() as f64 * span_cost_ns() / 1e6 / n;
    report.set_as(
        "trace.overhead_ms",
        overhead_ms,
        tracer.span_count(),
        Some("span cost per replayed request"),
    );
    report.set("trace.overhead_frac", overhead_ms / (s.execute_ms_total / served), queries.len());

    let path = ctx.out_dir.join(format!("spans-serve_open-{}.jsonl", ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.check("spans written", false, format!("{}: {e}", path.display()));
    }
}
