//! The `backend-shootout` experiment: every speculation backend over the
//! lint-clean benchmark suite on identical coherence, scheduler and
//! workload layers.
//!
//! This is the headline artifact of the pluggable-backend refactor: CLEAR,
//! requester-wins TSX, PowerTM, SLE and the limited-R/W-set scheme differ
//! *only* in the [`clear_machine::SpeculationBackend`] implementation each
//! run plugs in, so differences in commit throughput, abort taxonomy and
//! fallback occupancy are attributable to the conflict-resolution and
//! retry policies alone. The gated golden pins the full 5-backend ×
//! 19-benchmark grid bit-exactly.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{run_once, SuiteOptions};
use clear_htm::AbortKind;
use clear_machine::{MachineConfig, RunStats, SpeculationBackend};
use clear_workloads::Size;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pinned options for the `backend-shootout` golden: the tiny inputs on an
/// 8-core machine, one seed, retry threshold 5, all benchmarks and all
/// backends — 95 runs, well under a second of CI time.
pub(super) fn shootout_opts() -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1],
        retry_sweep: vec![5],
        sim_threads: 1,
        ..SuiteOptions::default()
    }
}

/// Per-(benchmark, backend) accumulator, summed over seeds.
#[derive(Clone, Default)]
struct Cell {
    cycles: u64,
    aborts: BTreeMap<&'static str, u64>,
    commits: u64,
    fallback_commits: u64,
    lrws_read: u64,
    lrws_write: u64,
}

impl Cell {
    fn absorb(&mut self, s: &RunStats) {
        self.cycles += s.total_cycles;
        self.commits += s.commits_by_mode.total();
        self.fallback_commits += s.commits_by_mode.fallback;
        self.lrws_read += s.lrws_read_capacity_aborts;
        self.lrws_write += s.lrws_write_capacity_aborts;
        for kind in AbortKind::ALL {
            let n = s.aborts.get(kind);
            if n > 0 {
                *self.aborts.entry(kind_name(kind)).or_default() += n;
            }
        }
    }

    fn aborts_total(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Fallback occupancy: percentage of commits that took the fallback
    /// path.
    fn fallback_pct(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            100.0 * self.fallback_commits as f64 / self.commits as f64
        }
    }
}

/// [`AbortKind`] display names as `&'static str` (JSON keys want them
/// without an allocation per event).
fn kind_name(kind: AbortKind) -> &'static str {
    match kind {
        AbortKind::MemoryConflict => "memory-conflict",
        AbortKind::ExplicitFallback => "explicit-fallback",
        AbortKind::OtherFallback => "other-fallback",
        AbortKind::Capacity => "capacity",
        AbortKind::Nacked => "nacked",
        AbortKind::Explicit => "explicit",
        AbortKind::PlanViolation => "plan-violation",
        AbortKind::Other => "other",
    }
}

/// The `backend-shootout` experiment: `opts.backends` × `opts.benchmarks`
/// × `opts.seeds` at the first retry threshold of `opts.retry_sweep`,
/// reporting summed cycles, commit throughput, the abort taxonomy and
/// fallback occupancy per cell, plus a per-backend summary with execution
/// cycles normalized to the first backend in the sweep (geometric mean
/// over benchmarks).
pub(super) fn backend_shootout(opts: &SuiteOptions) -> ExperimentOutput {
    let backends = &opts.backends;
    let retries = opts.retry_sweep[0];

    // One coordinate per (benchmark, backend, seed); the pool preserves
    // index order, so the reduce below is deterministic for any worker
    // count.
    let grid: Vec<(usize, usize, u64)> = (0..opts.benchmarks.len())
        .flat_map(|b| {
            (0..backends.len()).flat_map(move |k| opts.seeds.iter().map(move |&s| (b, k, s)))
        })
        .collect();
    let results = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (b, k, seed) = grid[g];
        let cfg = MachineConfig {
            seed,
            sim_threads: opts.sim_threads,
            ..backends[k].config(opts.cores, retries)
        };
        run_once(opts.benchmarks[b], opts.size, cfg)
    });

    let mut cells: BTreeMap<(usize, usize), Cell> = BTreeMap::new();
    for (g, stats) in results.iter().enumerate() {
        let (b, k, _) = grid[g];
        cells.entry((b, k)).or_default().absorb(stats);
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== backend-shootout: {} backends x {} benchmarks (size {}, {} cores, \
         retries {retries}) ===",
        backends.len(),
        opts.benchmarks.len(),
        super::size_str(opts.size),
        opts.cores
    );
    let _ = writeln!(
        text,
        "{:12} {:8} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8}",
        "benchmark", "backend", "cycles", "commits", "aborts", "fallback%", "capacity", "rw-ovfl"
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        for (k, id) in backends.iter().enumerate() {
            let cell = &cells[&(b, k)];
            let capacity = cell.aborts.get("capacity").copied().unwrap_or(0);
            let _ = writeln!(
                text,
                "{:12} {:8} {:>10} {:>8} {:>7} {:>9.2} {:>9} {:>8}",
                name,
                id.name(),
                cell.cycles,
                cell.commits,
                cell.aborts_total(),
                cell.fallback_pct(),
                capacity,
                cell.lrws_read + cell.lrws_write
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("backend", Json::from(id.name())),
                ("cycles", Json::from(cell.cycles)),
                ("commits", Json::from(cell.commits)),
                ("aborts_total", Json::from(cell.aborts_total())),
                (
                    "aborts",
                    Json::Obj(
                        cell.aborts
                            .iter()
                            .map(|(k, n)| (k.to_string(), Json::from(*n)))
                            .collect(),
                    ),
                ),
                ("fallback_commits", Json::from(cell.fallback_commits)),
                ("fallback_pct", Json::Float(cell.fallback_pct())),
                ("lrws_read_capacity_aborts", Json::from(cell.lrws_read)),
                ("lrws_write_capacity_aborts", Json::from(cell.lrws_write)),
            ]));
        }
    }

    // Per-backend summary: totals across benchmarks plus cycles normalized
    // to the first backend in the sweep (geometric mean over benchmarks).
    let baseline = backends.first().map(|b| b.name()).unwrap_or("none");
    let _ = writeln!(
        text,
        "\n--- per-backend totals (cycles normalized to {baseline}, geomean) ---"
    );
    let _ = writeln!(
        text,
        "{:8} {:>12} {:>9} {:>8} {:>9} {:>9} {:>10}",
        "backend", "cycles", "commits", "aborts", "fallback%", "capacity", "norm"
    );
    let mut summary = Vec::new();
    for (k, id) in backends.iter().enumerate() {
        let mut total = Cell::default();
        let mut log_sum = 0.0f64;
        for b in 0..opts.benchmarks.len() {
            let cell = &cells[&(b, k)];
            total.cycles += cell.cycles;
            total.commits += cell.commits;
            total.fallback_commits += cell.fallback_commits;
            total.lrws_read += cell.lrws_read;
            total.lrws_write += cell.lrws_write;
            for (kind, n) in &cell.aborts {
                *total.aborts.entry(*kind).or_default() += *n;
            }
            let base = cells[&(b, 0)].cycles.max(1) as f64;
            log_sum += (cell.cycles.max(1) as f64 / base).ln();
        }
        let norm = if opts.benchmarks.is_empty() {
            1.0
        } else {
            (log_sum / opts.benchmarks.len() as f64).exp()
        };
        let capacity = total.aborts.get("capacity").copied().unwrap_or(0);
        let _ = writeln!(
            text,
            "{:8} {:>12} {:>9} {:>8} {:>9.2} {:>9} {:>10.3}",
            id.name(),
            total.cycles,
            total.commits,
            total.aborts_total(),
            total.fallback_pct(),
            capacity,
            norm
        );
        summary.push(Json::obj([
            ("backend", Json::from(id.name())),
            ("cycles", Json::from(total.cycles)),
            ("commits", Json::from(total.commits)),
            ("aborts_total", Json::from(total.aborts_total())),
            ("fallback_commits", Json::from(total.fallback_commits)),
            ("fallback_pct", Json::Float(total.fallback_pct())),
            ("capacity_aborts", Json::from(capacity)),
            (
                "lrws_capacity_aborts",
                Json::from(total.lrws_read + total.lrws_write),
            ),
            ("norm_cycles_ratio", Json::Float(norm)),
        ]));
    }

    let json = Json::obj([
        ("experiment", Json::from("backend-shootout")),
        ("options", opts_json(opts)),
        (
            "backends",
            Json::arr(backends.iter().map(|b| Json::from(b.name()))),
        ),
        ("retries", Json::from(retries)),
        ("baseline", Json::from(baseline)),
        ("rows", Json::Arr(rows)),
        ("summary", Json::Arr(summary)),
    ]);
    ExperimentOutput::new(text, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clear_machine::Backend;

    fn tiny() -> SuiteOptions {
        SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![5],
            benchmarks: vec!["mwobject", "arrayswap"],
            workers: 4,
            sim_threads: 1,
            ..SuiteOptions::default()
        }
    }

    #[test]
    fn shootout_covers_the_full_backend_grid() {
        let out = backend_shootout(&tiny());
        assert_eq!(out.failures, 0);
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        // 2 benchmarks x 5 backends.
        assert_eq!(rows.len(), 10);
        for row in rows {
            assert!(matches!(row.get("commits"), Some(Json::Int(c)) if *c > 0));
            if row.get("backend") != Some(&Json::from("lrws")) {
                assert_eq!(
                    row.get("lrws_read_capacity_aborts"),
                    Some(&Json::Int(0)),
                    "{row:?}"
                );
            }
        }
        let Some(Json::Arr(summary)) = out.json.get("summary") else {
            panic!("summary missing");
        };
        assert_eq!(summary.len(), 5);
        // The baseline normalizes to exactly 1.0.
        assert_eq!(summary[0].get("norm_cycles_ratio"), Some(&Json::Float(1.0)));
    }

    #[test]
    fn shootout_is_deterministic_across_worker_counts() {
        let a = backend_shootout(&tiny());
        let b = backend_shootout(&SuiteOptions {
            workers: 1,
            ..tiny()
        });
        assert_eq!(a.text, b.text);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
    }

    #[test]
    fn backend_flag_restricts_the_shootout() {
        let out = backend_shootout(&SuiteOptions {
            backends: vec![Backend::CLEAR, Backend::Lrws],
            ..tiny()
        });
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        assert_eq!(rows.len(), 4);
        assert_eq!(out.json.get("baseline"), Some(&Json::from("clear")));
        assert!(!out.text.contains("powertm"));
    }
}
