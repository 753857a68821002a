//! Metric catalogs and the assembly of every number the benchmark prints.

use crate::spans::{totals, Span};
use crate::stats::{self, quantile};
use crate::workloads::{Bench, Rep, Run, Side};
use clear_harness::json::Json;

/// The gated end-to-end metrics: reported by every workload's untraced
/// run (the result line's `metrics`). All are host measurements.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics: reported by every workload's traced run. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.build_s", "s"),
    ("workloads.validate_s", "s"),
    ("machine.new_s", "s"),
    ("machine.run_s", "s"),
    ("machine.steps", "count"),
    ("machine.ns_per_step", "ns"),
    ("machine.sched_updates", "count"),
    ("machine.allocs_avoided", "count"),
    ("machine.par_batches", "count"),
    ("machine.par_step_share", "ratio"),
    ("machine.par_speedup", "ratio"),
    ("machine.metrics_hook_ns_per_step", "ns"),
    ("machine.trace_hook_ns_per_step", "ns"),
    ("isa.instructions", "count"),
    ("isa.vm_ns_per_step", "ns"),
    ("coherence.requests", "count"),
    ("coherence.ns_per_request", "ns"),
    ("coherence.shard_lines_max", "count"),
    ("core.ns_per_access", "ns"),
    ("core.lock_ops", "count"),
    ("core.lock_spin_cycles", "cycles"),
    ("core.discovery_failed_cycles", "cycles"),
    ("htm.commits_per_attempt", "ratio"),
    ("htm.wasted_instr_ratio", "ratio"),
    ("htm.fallback_share", "ratio"),
    ("metrics.merge_s", "s"),
    ("serve.batches", "count"),
    ("serve.queue_max_depth", "count"),
    ("serve.backpressure_events", "count"),
    ("fuzz.gen_s", "s"),
    ("analysis.analyze_s", "s"),
    ("fuzz.oracle_s", "s"),
    ("isa.vm_share_est", "ratio"),
    ("coherence.share_est", "ratio"),
    ("core.share_est", "ratio"),
    ("machine.other_share_est", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

/// The paper's gem5 figure for CLEAR-over-requester-wins execution time
/// (Fig. 8 geomean), shown beside `c_vs_b_cycles`. The model is not
/// validated against hardware, so no error figure accompanies it.
pub const PAPER_C_VS_B: f64 = 0.736;

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The untraced measurements of one run.
pub struct Measured<'a> {
    pub bench: Bench,
    pub reps: &'a [Rep],
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured<'_> {
    /// Each operation's fastest time over the run's repetitions. Every
    /// repetition repeats the same operations in the same order, so the
    /// per-operation minimum discards the slowdowns a shared host imposes
    /// on some repetitions but not others. With one repetition (or ones
    /// that disagree on the operation count) its own times stand.
    fn best_op_ms(&self) -> Vec<f64> {
        let first = &self.reps[0].op_ms;
        if self.reps.iter().any(|r| r.op_ms.len() != first.len()) {
            return first.clone();
        }
        (0..first.len())
            .map(|i| {
                self.reps
                    .iter()
                    .map(|r| r.op_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// `count` per repetition over the best repetition time (the sum of
    /// [`Measured::best_op_ms`]).
    fn rate(&self, count: fn(&Rep) -> u64) -> f64 {
        let best_s: f64 = self.best_op_ms().iter().sum::<f64>() / 1e3;
        count(&self.reps[0]) as f64 / best_s.max(1e-9)
    }

    /// Simulated work per host second: scheduler steps, or fuzz cases on
    /// fuzz-oracle (whose machines run inside `check_case`).
    fn work_per_s(&self) -> f64 {
        match self.bench {
            Bench::FuzzOracle => self.rate(|r| r.cases),
            _ => self.rate(|r| r.steps),
        }
    }

    /// The gated metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [self.setup_s, self.work_per_s(), self.peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Every end-to-end metric of the run, tagged host or simulated: the
    /// workload's own (the issue's list, on the workloads it names), then
    /// the gated ones not among them.
    pub fn all_metrics(&self) -> Vec<(Metric, &'static str)> {
        let host = |name, v, unit| ((name, v, unit), "host");
        let mut out = vec![host("setup_s", self.setup_s, "s")];
        match self.bench {
            Bench::FuzzOracle => out.push(host("cases_per_s", self.work_per_s(), "1/s")),
            _ => out.push(host("steps_per_s", self.work_per_s(), "1/s")),
        }
        if self.bench == Bench::ServeQueue {
            let ms = self.best_op_ms();
            out.push(host("ars_per_s", self.rate(|r| r.ars), "1/s"));
            out.push(host("batch_ms_p50", quantile(&ms, 0.5), "ms"));
            out.push(host("batch_ms_p90", quantile(&ms, 0.9), "ms"));
        }
        out.push(host("peak_rss_mb", self.peak_rss_mb, "MB"));
        out.push(host(
            "fail_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        ));
        // Simulated metrics are a pure function of the seed; every
        // repetition agrees (the digest check enforces it), so the first
        // repetition's values stand for the run.
        if let Some(first) = self.reps.first() {
            out.extend(first.sim.iter().map(|&m| (m, "simulated")));
        }
        for m in self.end_to_end() {
            if !out.iter().any(|(o, _)| o.0 == m.0) {
                out.push((m, "host"));
            }
        }
        out
    }

    /// Operations behind the best-of-repetition times (the serve batch
    /// count on serve-queue).
    pub fn samples(&self) -> usize {
        self.best_op_ms().len()
    }
}

/// Sums over machine runs.
#[derive(Default)]
struct Counts {
    steps: u64,
    sched_updates: u64,
    allocs_avoided: u64,
    par_batches: u64,
    par_batch_steps: u64,
    instructions: u64,
    wasted: u64,
    requests: u64,
    clear_requests: u64,
    shard_lines_max: u64,
    lock_ops: u64,
    lock_spin_cycles: u64,
    discovery_failed_cycles: u64,
    commits: u64,
    aborts: u64,
    fallback: u64,
    retried: u64,
}

impl Counts {
    fn of(runs: &[&Run]) -> Counts {
        let mut c = Counts::default();
        for run in runs {
            let s = &run.stats;
            c.steps += s.perf.steps;
            c.sched_updates += s.perf.sched_updates;
            c.allocs_avoided += s.perf.allocs_avoided;
            c.par_batches += s.perf.par_batches;
            c.par_batch_steps += s.perf.par_batch_steps;
            c.instructions += s.instructions_retired + s.instructions_wasted;
            c.wasted += s.instructions_wasted;
            c.requests += s.perf.coherence_requests;
            if run.clear {
                c.clear_requests += s.perf.coherence_requests;
            }
            c.shard_lines_max = c.shard_lines_max.max(s.perf.shard_lines_max);
            c.lock_ops += s.lock_ops;
            c.lock_spin_cycles += s.lock_spin_cycles;
            c.discovery_failed_cycles += s.discovery_failed_cycles;
            c.commits += s.commits();
            c.aborts += s.aborts.total();
            c.fallback += s.commits_by_mode.fallback;
            c.retried += s
                .commits_by_retries
                .iter()
                .filter(|(&r, _)| r >= 1)
                .map(|(_, &n)| n)
                .sum::<u64>()
                + s.commits_by_mode.fallback;
        }
        c
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
///
/// Times come from the recorded spans; counts from the machine runs the
/// benchmark made itself (the traced repetition's cells, or the side runs
/// where the repetition's machines sit behind one call). The `*_share_est`
/// values are a replayed per-unit cost times the machines' own count of
/// that unit, over `machine.run_s`; `machine.other_share_est` is the rest.
pub fn per_layer(spans: &[Span], traced: &Rep, side: &Side, overhead_s: f64) -> Vec<Metric> {
    let t = totals(spans);
    let total = |name: &str| t.get(name).map_or(0.0, |e| e.0);
    let self_time = |name: &str| t.get(name).map_or(0.0, |e| e.1);
    let runs: Vec<&Run> = traced.runs.iter().chain(&side.runs).collect();
    let c = Counts::of(&runs);
    let run_s = total("machine.run");
    let run_ns = run_s * 1e9;
    let vm_share = ratio(side.vm_ns_per_step * c.instructions as f64, run_ns);
    let coh_share = ratio(side.coherence_ns_per_request * c.requests as f64, run_ns);
    let core_share = ratio(side.core_ns_per_access * c.clear_requests as f64, run_ns);
    let serve = traced.serve.unwrap_or_default();
    let values: [f64; PER_LAYER.len()] = [
        total("workloads.by_name") + total("workloads.setup"),
        total("workloads.validate"),
        self_time("machine.new"),
        run_s,
        c.steps as f64,
        ratio(run_ns, c.steps as f64),
        c.sched_updates as f64,
        c.allocs_avoided as f64,
        c.par_batches as f64,
        ratio(c.par_batch_steps as f64, c.steps as f64),
        side.par_speedup.unwrap_or(0.0),
        side.hooks.metrics_ns_per_step,
        side.hooks.trace_ns_per_step,
        c.instructions as f64,
        side.vm_ns_per_step,
        c.requests as f64,
        side.coherence_ns_per_request,
        c.shard_lines_max as f64,
        side.core_ns_per_access,
        c.lock_ops as f64,
        c.lock_spin_cycles as f64,
        c.discovery_failed_cycles as f64,
        ratio(c.commits as f64, (c.commits + c.aborts) as f64),
        ratio(c.wasted as f64, c.instructions as f64),
        ratio(c.fallback as f64, c.retried as f64),
        total("metrics.merge"),
        serve.batches as f64,
        serve.queue_max_depth as f64,
        serve.backpressure_events as f64,
        total("fuzz.generate"),
        total("analysis.analyze"),
        total("fuzz.check_case"),
        vm_share,
        coh_share,
        core_share,
        1.0 - vm_share - coh_share - core_share,
        overhead_s,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, v, unit)| {
                let value = Json::obj([("value", Json::Float(v)), ("unit", Json::from(unit))]);
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// The host every result is recorded with.
pub fn host_json() -> Json {
    Json::obj([
        ("nproc", Json::from(stats::nproc())),
        ("cpu", Json::from(stats::cpu_model())),
        (
            "toolchain",
            Json::from(clear_harness::bench_out::toolchain()),
        ),
        ("profile", Json::from(stats::build_profile())),
    ])
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// A JSON document on one line.
pub fn one_line(doc: &Json) -> String {
    doc.to_pretty().lines().map(str::trim).collect()
}
