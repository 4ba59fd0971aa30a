//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the crates is instrumented.
//! Each span keeps its name, start, end, parent and request id. Spans stay
//! in memory and are written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `vquery.translate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (query, plan or round) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Duration of span `id`.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count once,
    /// parts outside the parent not at all).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Summed duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Summed self time of the spans named `name`.
    pub fn self_total(&self, name: &str) -> u64 {
        let selfs = self.self_times_ns();
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
    }

    /// Write all spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// What one span costs the code it wraps, in nanoseconds: the median
/// time of an `enter` + `exit` pair over 21 batches of 1000. A traced pass
/// that records `n` spans is slower than the untraced one by about
/// `n × span_cost_ns()`; that product is the reported tracing overhead.
pub fn span_cost_ns() -> f64 {
    const PER_BATCH: usize = 1000;
    let mut tracer = Tracer::new();
    let mut per_span = Vec::with_capacity(21);
    for _ in 0..21 {
        tracer.spans.clear();
        let t = Instant::now();
        for i in 0..PER_BATCH {
            let id = tracer.enter("trace.calibrate", i as u64);
            tracer.exit(id);
        }
        per_span.push(t.elapsed().as_nanos() as f64 / PER_BATCH as f64);
    }
    crate::stats::median(&per_span)
}

/// Self time of each span in `spans` (see [`Tracer::self_times_ns`]).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}
