//! Metric names, the printed report and the result line.
//!
//! Every run prints one line per metric (name, value, unit, sample count)
//! and ends with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With tracing off `metrics` holds every end-to-end metric,
//! with tracing on every per-layer metric. The names below are the ones
//! `BENCHMARK.json` lists; a self-test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// what each means per workload is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("qerr_p50", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload never reaches reports 0 and its printed line says so.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve_open: ServerStats deltas, one fresh server per offered rate.
    ("server.queue_wait_ms.r150", "ms"),
    ("server.queue_wait_ms.r500", "ms"),
    ("server.queue_wait_ms.r1500", "ms"),
    ("server.queue_wait_ms.r2000", "ms"),
    ("server.execute_ms_per_batch", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.rejected_frac", "ratio"),
    ("batcher.batch_mean", "count"),
    ("batcher.deadline_flush_frac", "ratio"),
    ("registry.degraded_frac.r150", "ratio"),
    ("registry.degraded_frac.r500", "ratio"),
    ("registry.degraded_frac.r1500", "ratio"),
    ("registry.degraded_frac.r2000", "ratio"),
    ("loadgen.late_p99_ms.r150", "ms"),
    ("loadgen.late_p99_ms.r500", "ms"),
    ("loadgen.late_p99_ms.r1500", "ms"),
    ("loadgen.late_p99_ms.r2000", "ms"),
    ("loadgen.late_max_ms.r150", "ms"),
    ("loadgen.late_max_ms.r500", "ms"),
    ("loadgen.late_max_ms.r1500", "ms"),
    ("loadgen.late_max_ms.r2000", "ms"),
    // ServeStats deltas (serve_open at the nominal rate, plan_join).
    ("estimator.shortcut_frac", "ratio"),
    ("estimator.retry_frac", "ratio"),
    ("estimator.fallback_frac", "ratio"),
    // serve_open replay spans.
    ("serve.validate_us", "us"),
    ("vquery.translate_us", "us"),
    ("infer_batch.us_per_q_b1", "us"),
    ("infer_batch.us_per_q_bmean", "us"),
    ("estimator.cascade_us", "us"),
    // plan_join.
    ("optimizer.calls_per_plan", "count"),
    ("optimizer.distinct_per_plan", "count"),
    ("optimizer.self_us", "us"),
    ("optimizer.cost_ratio", "ratio"),
    ("join.translate_us", "us"),
    ("infer.single_us", "us"),
    ("tensor.allocs_per_call", "count"),
    // online_adapt replay spans and outcomes.
    ("train.data_us_per_row", "us"),
    ("train.prepare_us_per_label", "us"),
    ("train.query_us_per_label", "us"),
    ("train.skipped_frac", "ratio"),
    ("online.clone_ms", "ms"),
    ("online.gate_ms", "ms"),
    ("online.promote_frac", "ratio"),
    ("online.rollbacks", "count"),
    ("model.snapshot_ms", "ms"),
    ("serialize.checkpoint_ms", "ms"),
    ("serialize.checkpoint_kb", "KiB"),
    ("persist.write_ms", "ms"),
    // Shared.
    ("setup.train_s", "s"),
    ("simd.matmul_us", "us"),
    ("simd.matmul_mflop", "Mflop"),
    ("simd.matmul_kb", "KiB"),
    ("simd.softmax_us", "us"),
    ("simd.softmax_kelems", "Kelem"),
    ("simd.softmax_kb", "KiB"),
    // Trace accounting.
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.replay_ms", "ms"),
    ("trace.measured_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value in `unit`.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
    /// What the metric is called in the workload's own terms (e.g.
    /// `serve.p99_ms` for `tail_ms` on `serve_open`).
    pub alias: Option<String>,
}

/// A correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    /// Informational lines that are not metrics (configuration, per-rate
    /// tables).
    pub notes: Vec<String>,
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted (requests, plans or rounds).
    pub attempted: u64,
    /// Operations that produced an answer.
    pub succeeded: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Run-record fields: key and a rendered JSON value.
    pub record: Vec<(String, String)>,
}

impl Report {
    /// Set a declared metric. Panics on an undeclared name: that is a bug
    /// in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_as(name, value, samples, None);
    }

    /// Set a declared metric under a workload-specific alias.
    pub fn set_as(&mut self, name: &str, value: f64, samples: usize, alias: Option<&str>) {
        let name = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.metrics.insert(name, Metric { value, samples, alias: alias.map(str::to_owned) });
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    /// Add a run-record field (`value` is already JSON).
    pub fn field(&mut self, key: impl Into<String>, value: String) {
        self.record.push((key.into(), value));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics this run reports: every end-to-end metric with tracing
    /// off, every per-layer metric with tracing on. A missing end-to-end
    /// metric or a non-finite value fails the run.
    pub fn reported(&mut self, traced: bool) -> Vec<(&'static str, &'static str, Metric, bool)> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(list.len());
        let mut missing = Vec::new();
        let mut non_finite = Vec::new();
        for &(name, unit) in list {
            let (m, reached) = match self.metrics.get(name) {
                Some(m) => (m.clone(), true),
                None => {
                    if !traced {
                        missing.push(name);
                    }
                    (Metric { value: 0.0, samples: 0, alias: None }, false)
                }
            };
            if !m.value.is_finite() {
                non_finite.push(name);
            }
            out.push((name, unit, m, reached));
        }
        if !missing.is_empty() {
            self.check("every end-to-end metric measured", false, format!("missing {missing:?}"));
        }
        if !non_finite.is_empty() {
            self.check("every metric finite", false, format!("non-finite {non_finite:?}"));
        }
        out
    }

    /// Print the report and return the result line.
    pub fn render(&mut self, traced: bool) -> (Vec<String>, String) {
        let rows = self.reported(traced);
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for (name, unit, m, reached) in &rows {
            let alias = m.alias.as_deref().map_or(String::new(), |a| format!(" [{a}]"));
            let tail = match (*reached, traced) {
                (true, _) => "",
                (false, true) => " (layer not reached by this workload)",
                (false, false) => " (not measured)",
            };
            lines.push(format!(
                "metric {name}{alias} = {} {unit} (n={}){tail}",
                fmt_value(m.value),
                m.samples
            ));
        }
        // Everything else measured in this mode: per-layer counters of the
        // untraced run, end-to-end values of the traced run.
        let listed: Vec<&str> = rows.iter().map(|r| r.0).collect();
        for (name, m) in self.metrics.iter().filter(|(n, _)| !listed.contains(n)) {
            let unit = unit_of(name).unwrap_or("");
            let alias = m.alias.as_deref().map_or(String::new(), |a| format!(" [{a}]"));
            lines.push(format!(
                "info {name}{alias} = {} {unit} (n={}) (not in the result line)",
                fmt_value(m.value),
                m.samples
            ));
        }
        for c in &self.checks {
            lines.push(format!(
                "check {} {}: {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        lines.push(format!(
            "ops attempted={} succeeded={} failed={}",
            self.attempted, self.succeeded, self.failed
        ));
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, unit, m, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(name),
                    jnum(m.value),
                    jstr(unit)
                )
            })
            .collect();
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        (lines, result)
    }

    /// The run record: every field, metric and check as one JSON object.
    pub fn record_json(&self) -> String {
        let mut fields: Vec<String> =
            self.record.iter().map(|(k, v)| format!("  {}: {v}", jstr(k))).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"alias\": {}}}",
                    jstr(name),
                    jnum(m.value),
                    jstr(unit_of(name).unwrap_or("")),
                    m.samples,
                    m.alias.as_deref().map_or("null".to_owned(), jstr)
                )
            })
            .collect();
        fields.push(format!("  \"metrics\": {{\n{}\n  }}", metrics.join(",\n")));
        let notes: Vec<String> = self.notes.iter().map(|n| format!("    {}", jstr(n))).collect();
        fields.push(format!("  \"notes\": [\n{}\n  ]", notes.join(",\n")));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"check\": {}, \"ok\": {}, \"detail\": {}}}",
                    jstr(&c.name),
                    c.ok,
                    jstr(&c.detail)
                )
            })
            .collect();
        fields.push(format!("  \"checks\": [\n{}\n  ]", checks.join(",\n")));
        fields.push(format!(
            "  \"ops\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
            self.attempted, self.succeeded, self.failed
        ));
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// Human-readable value with enough digits for small and large numbers.
fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// `null` for a non-finite value (which also fails the run).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
