//! `clear-harness`: the experiment runner for the CLEAR reproduction.
//!
//! The harness owns everything between "a simulator exists" and "the
//! paper's figures are reproduced and regression-checked":
//!
//! - [`experiments`]: a registry of named experiments, one per reproduced
//!   figure/table/study.
//! - [`suite`]: the (benchmark × preset × retry × seed) grid engine with
//!   the paper's best-of retry sweep and trimmed-mean aggregation.
//! - [`pool`]: a scoped worker pool that spreads the grid over threads
//!   while keeping results bit-identical to a sequential run.
//! - [`json`]: a small hand-rolled JSON document model (emit + parse), so
//!   the harness needs no external crates.
//! - [`golden`]: versioned golden baselines under `goldens/` with
//!   per-metric drift tolerances; the CLI's `check` exits nonzero on any
//!   drift, which is what CI gates on.
//! - [`trace_export`]: consumers of the machine's execution trace — the
//!   Chrome-trace exporter behind `clear-harness trace`, the plain-text
//!   timeline, and the per-AR derived-metrics pass.
//! - [`metrics_export`]: serializers for [`clear_metrics`] snapshots —
//!   harness JSON (with p50/p99/p999 per histogram) and Prometheus text
//!   exposition, plus a round-trip validator.
//! - [`serve`]: the bounded-memory trace-replay / open-loop service loop
//!   behind `clear-harness serve`, reporting streaming time-to-commit
//!   percentiles per AR class.
//! - [`bench_out`]: the single writer behind every `BENCH_*.json`
//!   artifact (shared name/unit/seed/toolchain/values schema).
//!
//! ```text
//! cargo run --release -p clear-harness -- list
//! cargo run --release -p clear-harness -- run fig08 --size small
//! cargo run --release -p clear-harness -- serve arrayswap --ars 100000
//! cargo run --release -p clear-harness -- check
//! ```

pub mod bench_out;
pub mod experiments;
pub mod golden;
pub mod json;
pub mod metrics_export;
pub mod pool;
pub mod serve;
pub mod suite;
pub mod trace_export;

pub use suite::{
    bar, format_table, geomean, run_cell, run_once, run_suite, split_threads, trimmed_mean,
    CellResult, SuiteOptions,
};
