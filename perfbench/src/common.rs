//! What every workload shares: the run context, seed derivation and the
//! repeated set-up rule.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use uae_core::ServeStats;

use crate::report::Report;
use crate::stats;

/// Set-ups per run; `setup_s` is their median, and the last one is
/// measured.
pub const SETUP_REPS: usize = 3;

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Where run records, spans and checkpoints go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A share of the measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Independent sub-seed `salt` of `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    uae_data::synth::splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Build a workload's state [`SETUP_REPS`] times, report the median
/// build time as `setup_s`, and return the last state with the time each
/// build spent training (`setup.train_s`, median).
pub fn repeated_setup<T>(report: &mut Report, mut build: impl FnMut() -> (T, f64)) -> T {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut trains = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first so builds do not overlap in memory.
        drop(last.take());
        let t = Instant::now();
        let (state, train_s) = build();
        totals.push(t.elapsed().as_secs_f64());
        trains.push(train_s);
        last = Some(state);
    }
    report.set("setup_s", stats::median(&totals), totals.len());
    report.set("setup.train_s", stats::median(&trains), trains.len());
    report.field("setup_s_each", format!("{totals:?}"));
    last.expect("at least one set-up")
}

/// Sleep until `due` (no spinning: the generator must not steal a core
/// from the system under test).
pub fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

/// Serving counters accumulated between two snapshots.
pub fn serve_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        served: after.served - before.served,
        rejected: after.rejected - before.rejected,
        validated_empty: after.validated_empty - before.validated_empty,
        validated_trivial: after.validated_trivial - before.validated_trivial,
        retries: after.retries - before.retries,
        fallbacks: after.fallbacks - before.fallbacks,
        panics_isolated: after.panics_isolated - before.panics_isolated,
        clamped: after.clamped - before.clamped,
        degraded: after.degraded - before.degraded,
        routed: after.routed - before.routed,
    }
}
