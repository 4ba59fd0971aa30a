//! Self-tests of the benchmark's own rules: percentile support, span self
//! time, the `serve.max_qps` rule, metric names, and seeded inputs.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::time::Duration;

use uae_perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use uae_perfbench::serve_open::{self, arrivals, max_qps, RateOutcome};
use uae_perfbench::stats::{median, part_bounds, per_part, percentile, samples_needed, MIN_BEYOND};
use uae_perfbench::trace::{self_times_ns, Span};
use uae_perfbench::{online_adapt, plan_join};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(samples_needed(0.99), 1000);
    assert_eq!(samples_needed(0.95), 200);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.5), 20);
    assert!(percentile(&xs, 0.99).is_ok(), "1000 samples leave 10 beyond p99");
    let err = percentile(&xs[..999], 0.99).expect_err("999 samples leave fewer than 10 beyond p99");
    assert_eq!((err.samples, err.needed), (999, 1000));
    assert!(percentile(&xs[..100], 0.9).is_ok());
    assert!(percentile(&xs[..99], 0.9).is_err());
    assert!(percentile(&xs[..19], 0.5).is_err());
    assert_eq!(percentile(&xs[..21], 0.5), Ok(10.0));
    assert!(percentile(&[], 0.5).is_err());
    // Order does not matter; an infinite sample (a refused request) sorts
    // last and lands in the tail.
    let mut ys: Vec<f64> = (0..MIN_BEYOND * 10).rev().map(|v| v as f64).collect();
    ys[0] = f64::INFINITY;
    assert_eq!(percentile(&ys, 0.5), Ok(49.5));
    let p90 = percentile(&ys, 1.0 - 1.0 / MIN_BEYOND as f64).expect("100 samples support p90");
    assert!((p90 - 89.1).abs() < 1e-9, "{p90}");

    // Median of parts: every part must support the percentile, and one
    // spoiled part does not move the result.
    let median_of_parts = |xs: &[f64], p| per_part(xs, 5, p).map(|v| median(&v));
    let mut parts: Vec<f64> = (0..5).flat_map(|_| (0..200).map(f64::from)).collect();
    assert_eq!(median_of_parts(&parts, 0.5), Ok(99.5));
    parts[..200].iter_mut().for_each(|v| *v += 1000.0);
    assert_eq!(median_of_parts(&parts, 0.5), Ok(99.5));
    assert!(median_of_parts(&parts, 0.95).is_ok(), "200 per part support p95");
    let err = median_of_parts(&parts[..999], 0.95).expect_err("199 per part do not");
    assert_eq!((err.samples, err.needed), (199, 200));
    // Parts are consecutive and cover every index; the leftover joins the
    // last part.
    assert_eq!(part_bounds(10, 3).collect::<Vec<_>>(), vec![0..3, 3..6, 6..10]);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: "s", start_ns, end_ns, parent, request: 0 }
}

#[test]
fn span_self_time_subtracts_covered_child_time_once() {
    let spans = vec![
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),  // overlaps the previous child
        span(90, 120, Some(0)), // runs past its parent
        span(25, 28, Some(2)),  // grandchild: not the root's child
        span(200, 210, None),
    ];
    // Root: children cover [10, 50] and [90, 100] = 50 ns.
    assert_eq!(self_times_ns(&spans), vec![50, 20, 27, 30, 3, 10]);
}

fn outcome(rate: u32, p99_ms: Option<f64>, in_flight_late: f64, bad: u64) -> RateOutcome {
    RateOutcome {
        rate,
        p99_ms,
        in_flight_late,
        overloaded: 0,
        bad,
        sent: 1000,
        throughput: rate as f64 * 0.99,
    }
}

#[test]
fn max_qps_takes_the_highest_passing_rate() {
    let ok = |rate| outcome(rate, Some(20.0), 2.0, 0);
    assert_eq!(max_qps(&[ok(250), ok(500), outcome(1000, Some(80.0), 3.0, 0)]), 500.0 * 0.99);
    // The highest passing rate counts even above a failing one.
    assert_eq!(max_qps(&[ok(250), outcome(500, Some(51.0), 3.0, 0), ok(1000)]), 990.0);
    // A backlog: more in flight late in the window than rate × 50 ms.
    assert!(!outcome(1000, Some(20.0), 51.0, 0).passes());
    assert!(outcome(1000, Some(20.0), 50.0, 0).passes());
    // Any overload refusal is a backlog.
    assert!(!RateOutcome { overloaded: 1, ..ok(500) }.passes());
    // More than 1% failed, refused or degraded.
    assert!(outcome(500, Some(20.0), 2.0, 10).passes());
    assert!(!outcome(500, Some(20.0), 2.0, 11).passes());
    // An unsupported p99 never passes.
    assert!(!outcome(250, None, 0.0, 0).passes());
    assert_eq!(max_qps(&[outcome(250, Some(60.0), 0.0, 0)]), 0.0);
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    for bad in ["", ".p50", "p50 ms", "p50/ms", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} must be refused");
    }
    for good in ["p50_ms", "server.queue_wait_ms.r500", "a-b.c_d", "9lives"] {
        assert!(valid_name(good), "{good:?} must be accepted");
    }
    let declared: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
    let mut unique = declared.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), declared.len(), "metric names are used once");
    assert!(declared.iter().all(|n| valid_name(n)));

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(section("end_to_end"), owned(END_TO_END));
    assert_eq!(section("per_layer"), owned(PER_LAYER));
}

/// The string value of `"key": "value"` inside one JSON object's text.
fn field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_owned()
}

#[test]
fn same_seed_same_arrivals_and_queries() {
    let window = Duration::from_secs(2);
    for rate in serve_open::RATES {
        let a = arrivals(7, rate, window, 512);
        assert_eq!(a, arrivals(7, rate, window, 512));
        assert_ne!(a, arrivals(8, rate, window, 512));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns), "arrivals are in time order");
        assert!(a.last().is_some_and(|x| x.due_ns < 2_000_000_000));
        // Poisson counts stay near rate × window.
        let expect = 2.0 * rate as f64;
        assert!(
            (a.len() as f64 - expect).abs() < 5.0 * expect.sqrt(),
            "{} arrivals at {rate}",
            a.len()
        );
    }

    let key = |qs: &[uae_query::LabeledQuery]| -> Vec<(u64, u64)> {
        qs.iter().map(|lq| (lq.query.fingerprint(), lq.cardinality)).collect()
    };
    let (_, pool) = serve_open::inputs(7);
    assert_eq!(key(&pool), key(&serve_open::inputs(7).1));
    assert_ne!(key(&pool), key(&serve_open::inputs(8).1));

    let join_key = |qs: &[uae_join::JoinQuery]| -> Vec<u64> {
        qs.iter().map(uae_join::workload::fingerprint).collect()
    };
    let (_, train, test) = plan_join::inputs(7);
    let (_, train2, test2) = plan_join::inputs(7);
    assert_eq!((join_key(&train), join_key(&test)), (join_key(&train2), join_key(&test2)));
    assert_ne!(join_key(&test), join_key(&plan_join::inputs(8).2));

    let a = online_adapt::inputs(7);
    let b = online_adapt::inputs(7);
    assert_eq!(key(&a.eval), key(&b.eval));
    assert_eq!(a.waves.len(), b.waves.len());
    assert!(a.waves.iter().zip(&b.waves).all(|(x, y)| key(x) == key(y)));
    assert_eq!(a.drift.num_rows(), b.drift.num_rows());
    assert_ne!(key(&a.eval), key(&online_adapt::inputs(8).eval));
}
