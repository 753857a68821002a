//! The `sim-throughput` and `scaling-wide` experiments: simulator-kernel
//! performance counters.
//!
//! Unlike every other experiment these measure the *simulator*, not the
//! simulated machine: scheduler steps, coherence requests, avoided
//! allocations, and wall-clock throughput. The deterministic counters are
//! golden-gated (a kernel change that alters the simulated schedule shows
//! up as drift here before it shows up in a paper figure); the wall-clock
//! fields are host-dependent and excluded from the comparison.
//!
//! `sim-throughput` runs a fixed tiny grid; `scaling-wide` sweeps one
//! benchmark up a 64→1024 simulated-core ladder with sharded-directory
//! occupancy and parallel-batch counters per point, checking that commit
//! throughput survives the widest configuration.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::metrics_export::snapshot_to_json;
use crate::pool;
use crate::suite::{run_once, SuiteOptions};
use clear_machine::{MachineConfig, Preset, RunStats};
use clear_metrics::{families, MetricsRegistry};
use std::fmt::Write as _;

/// Surfaces each grid point's `PerfCounters` (plus the LRWS capacity-abort
/// tallies) as `clear_sim_perf` gauges in a `clear-metrics` snapshot —
/// the same numbers as the `rows` array, but in the uniform metrics shape.
/// Attached to [`ExperimentOutput::metrics`], which `run --json` appends
/// to the printed document only, so the golden-gated `json` stays
/// byte-identical.
fn perf_metrics<'a>(
    points: impl Iterator<Item = (Vec<(&'static str, String)>, &'a RunStats)>,
) -> Json {
    let mut reg = MetricsRegistry::new();
    for (point, s) in points {
        let p = &s.perf;
        for (counter, value) in [
            ("steps", p.steps),
            ("sched_updates", p.sched_updates),
            ("coherence_requests", p.coherence_requests),
            ("allocs_avoided", p.allocs_avoided),
            ("trace_events_recorded", p.trace_events_recorded),
            ("trace_events_dropped", p.trace_events_dropped),
            ("shards", p.shards),
            ("shard_lines", p.shard_lines),
            ("shard_lines_max", p.shard_lines_max),
            ("par_batches", p.par_batches),
            ("par_batch_steps", p.par_batch_steps),
            ("par_batch_max", p.par_batch_max),
            ("lrws_read_capacity_aborts", s.lrws_read_capacity_aborts),
            ("lrws_write_capacity_aborts", s.lrws_write_capacity_aborts),
        ] {
            let mut labels: Vec<(&str, &str)> =
                point.iter().map(|(k, v)| (*k, v.as_str())).collect();
            labels.push(("counter", counter));
            reg.set_gauge(families::SIM_PERF, &labels, value);
        }
    }
    snapshot_to_json(&reg.snapshot())
}

pub(super) fn sim_throughput(opts: &SuiteOptions) -> ExperimentOutput {
    let presets = Preset::ALL;
    let np = presets.len();
    let stats = pool::run_indexed(opts.benchmarks.len() * np, opts.workers, |i| {
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            sim_threads: opts.sim_threads,
            ..presets[i % np].config(opts.cores, 5)
        };
        run_once(opts.benchmarks[i / np], opts.size, cfg)
    });
    let mut text = String::new();
    let _ = writeln!(text, "=== simulator kernel throughput ===");
    let _ = writeln!(
        text,
        "{:14} {:>6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "preset", "steps", "sched-upd", "coh-reqs", "allocs-avd", "Msteps/s"
    );
    let mut rows = Vec::new();
    let (mut steps, mut wall_ns) = (0u64, 0u64);
    for (i, s) in stats.iter().enumerate() {
        let (name, preset) = (opts.benchmarks[i / np], presets[i % np]);
        let p = &s.perf;
        let _ = writeln!(
            text,
            "{:14} {:>6} {:>10} {:>12} {:>12} {:>12} {:>10.2}",
            name,
            format!("{preset}"),
            p.steps,
            p.sched_updates,
            p.coherence_requests,
            p.allocs_avoided,
            p.steps_per_sec() / 1e6,
        );
        steps += p.steps;
        wall_ns += p.run_wall_ns;
        rows.push(Json::obj([
            ("benchmark", Json::from(name)),
            ("preset", Json::from(format!("{preset}"))),
            ("total_cycles", Json::from(s.total_cycles)),
            ("commits", Json::from(s.commits())),
            ("steps", Json::from(p.steps)),
            ("sched_updates", Json::from(p.sched_updates)),
            ("coherence_requests", Json::from(p.coherence_requests)),
            ("allocs_avoided", Json::from(p.allocs_avoided)),
            // Tracing is off in throughput runs, so gating these at zero
            // pins the zero-overhead-when-disabled contract.
            ("trace_events_recorded", Json::from(p.trace_events_recorded)),
            ("trace_events_dropped", Json::from(p.trace_events_dropped)),
            ("wall_ns", Json::from(p.run_wall_ns)),
            ("steps_per_sec", Json::Float(p.steps_per_sec())),
        ]));
    }
    let aggregate = if wall_ns == 0 {
        0.0
    } else {
        steps as f64 * 1e9 / wall_ns as f64
    };
    let _ = writeln!(
        text,
        "aggregate: {steps} steps in {:.1} ms = {:.2} Msteps/s",
        wall_ns as f64 / 1e6,
        aggregate / 1e6,
    );
    let json = Json::obj([
        ("experiment", Json::from("sim-throughput")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
        ("total_steps", Json::from(steps)),
        ("total_wall_ns", Json::from(wall_ns)),
        ("aggregate_steps_per_sec", Json::Float(aggregate)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.metrics = Some(perf_metrics(stats.iter().enumerate().map(|(i, s)| {
        (
            vec![
                ("bench", opts.benchmarks[i / np].to_string()),
                ("preset", format!("{}", presets[i % np])),
            ],
            s,
        )
    })));
    out
}

/// The simulated-core ladder `scaling-wide` sweeps, clipped to the
/// requested `--cores`.
const WIDE_LADDER: [usize; 5] = [64, 128, 256, 512, 1024];

/// Minimum acceptable 1024-core steps/sec relative to the 64-core rate
/// when the full ladder ran with measured wall time.
const WIDE_MIN_RATIO: f64 = 0.25;

/// `scaling-wide`: one benchmark stepped up the core ladder. Each point is
/// a full run whose deterministic counters (steps, commits, cycles,
/// coherence traffic, directory-shard occupancy, parallel-batch stats) are
/// golden-gated; the wall-clock columns feed `BENCH_sim.json` and the
/// throughput-retention check but never the golden comparison. Points run
/// sequentially — never through the grid pool — so their wall clocks are
/// not distorted by each other.
pub(super) fn scaling_wide(opts: &SuiteOptions) -> ExperimentOutput {
    let bench = opts.benchmarks.first().copied().unwrap_or("arrayswap");
    let mut ladder: Vec<usize> = WIDE_LADDER
        .iter()
        .copied()
        .filter(|&c| c <= opts.cores)
        .collect();
    if ladder.is_empty() {
        ladder.push(opts.cores);
    }
    let stats: Vec<_> = ladder
        .iter()
        .map(|&cores| {
            let cfg = MachineConfig {
                seed: opts.seeds[0],
                sim_threads: opts.sim_threads,
                ..Preset::C.config(cores, 5)
            };
            run_once(bench, opts.size, cfg)
        })
        .collect();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== scaling-wide: {bench} commit throughput up the core ladder ==="
    );
    let _ = writeln!(
        text,
        "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7} {:>8} {:>9} {:>10}",
        "cores",
        "steps",
        "commits",
        "cycles",
        "coh-reqs",
        "shards",
        "batches",
        "max-batch",
        "Msteps/s"
    );
    let mut rows = Vec::new();
    for (&cores, s) in ladder.iter().zip(&stats) {
        let p = &s.perf;
        let _ = writeln!(
            text,
            "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7} {:>8} {:>9} {:>10.2}",
            cores,
            p.steps,
            s.commits(),
            s.total_cycles,
            p.coherence_requests,
            p.shards,
            p.par_batches,
            p.par_batch_max,
            p.steps_per_sec() / 1e6,
        );
        rows.push(Json::obj([
            ("cores", Json::from(cores)),
            ("steps", Json::from(p.steps)),
            ("commits", Json::from(s.commits())),
            ("total_cycles", Json::from(s.total_cycles)),
            ("coherence_requests", Json::from(p.coherence_requests)),
            ("shards", Json::from(p.shards)),
            ("shard_lines", Json::from(p.shard_lines)),
            ("shard_lines_max", Json::from(p.shard_lines_max)),
            ("par_batches", Json::from(p.par_batches)),
            ("par_batch_steps", Json::from(p.par_batch_steps)),
            ("par_batch_max", Json::from(p.par_batch_max)),
            ("wall_ns", Json::from(p.run_wall_ns)),
            ("steps_per_sec", Json::Float(p.steps_per_sec())),
        ]));
    }

    // Throughput retention: the widest point must keep at least
    // WIDE_MIN_RATIO of the narrowest point's steps/sec. Only meaningful
    // when the full ladder ran with measured wall time; the ratio is
    // host-dependent and excluded from the golden comparison.
    let full_ladder = ladder == WIDE_LADDER;
    let (first, last) = (
        stats.first().map(|s| s.perf.steps_per_sec()).unwrap_or(0.0),
        stats.last().map(|s| s.perf.steps_per_sec()).unwrap_or(0.0),
    );
    let ratio = if first > 0.0 { last / first } else { 0.0 };
    let mut failures = 0;
    if full_ladder && first > 0.0 {
        let _ = writeln!(
            text,
            "\n1024-core vs 64-core steps/sec ratio: {ratio:.3} (floor {WIDE_MIN_RATIO})"
        );
        if ratio < WIDE_MIN_RATIO {
            failures = 1;
            let _ = writeln!(text, "FAIL: wide-core throughput collapsed");
        }
    }

    let json = Json::obj([
        ("experiment", Json::from("scaling-wide")),
        ("options", opts_json(opts)),
        ("benchmark", Json::from(bench)),
        ("sim_threads", Json::from(opts.sim_threads)),
        ("rows", Json::Arr(rows)),
        ("throughput_ratio_wide_vs_narrow", Json::Float(ratio)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = failures;
    out.metrics = Some(perf_metrics(
        ladder
            .iter()
            .zip(&stats)
            .map(|(&cores, s)| (vec![("cores", cores.to_string())], s)),
    ));
    out
}
