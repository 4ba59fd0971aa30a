//! End-to-end and per-layer benchmark of the UAE workspace.
//!
//! Three workloads, each in its own process: `serve_open` (open-loop
//! serving through `uae-server`), `plan_join` (a query optimizer asking
//! for subplan cardinalities) and `online_adapt` (the query-driven online
//! loop after a data drift). See `perfbench/README.md`.

pub mod common;
pub mod kernels;
pub mod online_adapt;
pub mod plan_join;
pub mod report;
pub mod serve_open;
pub mod stats;
pub mod sys;
pub mod trace;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["serve_open", "plan_join", "online_adapt"];
