//! The four benchmark workloads, each driven through the crates' public
//! APIs. One *repetition* is a fixed, seed-determined piece of work whose
//! simulated outputs digest identically every time it runs; a run repeats
//! it for the requested time.
//!
//! - `suite-medium`: the 19 benchmarks under presets B and C at
//!   `Size::Medium`, 32 cores, `max_retries` 5, one cell after another.
//! - `wide-512`: genome under C, `Size::Tiny`, 512 cores, `sim_threads` 2.
//! - `serve-queue`: `serve_session` on `queue`, `Size::Tiny`, 8 cores, the
//!   CLI's default batch, queue bound and arrival rate.
//! - `fuzz-oracle`: `FuzzCase::generate` + `check_case` over a seeded case
//!   stream.

use crate::layers::{probe_hooks, HookCost, Observed, Rationed, Stream};
use crate::spans::span;
use crate::stats::{geomean, Digest};
use clear_fuzz::{check_case, FuzzCase, FuzzWorkload};
use clear_harness::json::Json;
use clear_harness::serve::{serve_session, ServeOptions};
use clear_isa::Workload;
use clear_machine::{Machine, MachineConfig, Preset, RunStats};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_metrics::MetricsRegistry;
use clear_workloads::{by_name, Size, BENCHMARK_NAMES};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Retry threshold of every machine (the harness default).
const MAX_RETRIES: u32 = 5;
/// `clear-harness serve` defaults: ARs per batch, queue bound, mean gap.
const SERVE_BATCH: usize = 256;
const SERVE_QUEUE: usize = 512;
const SERVE_RATE: u64 = 24;
const SERVE_CORES: usize = 8;
const SERVE_WORKLOAD: &str = "queue";
const WIDE_WORKLOAD: &str = "genome";
const WIDE_SIM_THREADS: usize = 2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    SuiteMedium,
    Wide512,
    ServeQueue,
    FuzzOracle,
}

/// Input sizes: the full benchmark, or the smoke mode's tiny version.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub suite_size: Size,
    pub suite_cores: usize,
    pub wide_cores: usize,
    /// ARs per serve session.
    pub serve_ars: u64,
    /// Fuzz cases per repetition.
    pub fuzz_cases: u64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Instructions recorded per workload instance for the layer replays.
    pub replay_instructions: u64,
    /// Repetitions of the hook probe.
    pub probe_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        suite_size: Size::Medium,
        suite_cores: 32,
        wide_cores: 512,
        serve_ars: 100_000,
        fuzz_cases: 2_000,
        setup_reps: 21,
        replay_instructions: 1_000_000,
        probe_reps: 5,
    };

    pub const SMOKE: Scale = Scale {
        suite_size: Size::Tiny,
        suite_cores: 8,
        wide_cores: 64,
        serve_ars: 2_000,
        fuzz_cases: 60,
        setup_reps: 3,
        replay_instructions: 5_000,
        probe_reps: 1,
    };
}

/// One machine run visible from outside `Machine::run`.
pub struct Run {
    pub clear: bool,
    pub stats: RunStats,
}

/// Serve-session counters.
#[derive(Clone, Copy, Default)]
pub struct ServeInfo {
    pub batches: u64,
    pub queue_max_depth: u64,
    pub backpressure_events: u64,
}

/// The outcome of one repetition.
#[derive(Default)]
pub struct Rep {
    /// Host seconds of the whole repetition.
    pub wall_s: f64,
    /// Host milliseconds per timed operation, in a fixed order that every
    /// repetition repeats: the intervals between the machine's AR fetches
    /// (suite-medium, wide-512), serve batches, fuzz cases.
    pub op_ms: Vec<f64>,
    /// Digest of each checked operation's simulated outputs.
    pub op_digests: Vec<Digest>,
    /// Operations checked (cells, runs, sessions, cases).
    pub attempted: u64,
    /// One message per failed operation.
    pub errors: Vec<String>,
    /// Committed ARs.
    pub ars: u64,
    /// Simulated scheduler steps (0 on fuzz-oracle, whose machines run
    /// inside `check_case`).
    pub steps: u64,
    /// Fuzz cases checked.
    pub cases: u64,
    /// Machine runs made directly by the benchmark.
    pub runs: Vec<Run>,
    /// Simulated end-to-end metrics: `(name, value, unit)`.
    pub sim: Vec<(&'static str, f64, &'static str)>,
    pub serve: Option<ServeInfo>,
}

impl Rep {
    /// Digest over every operation's digest, in order.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for op in &self.op_digests {
            d.bytes(op.hex().as_bytes());
        }
        d
    }
}

/// Layer work done beside the traced repetition.
pub struct Side {
    /// Machine runs made for the per-layer counters where the repetition's
    /// machines sit behind one call (serve, fuzz).
    pub runs: Vec<Run>,
    /// Failed checks of the side runs.
    pub errors: Vec<String>,
    pub stream: Stream,
    pub vm_ns_per_step: f64,
    pub coherence_ns_per_request: f64,
    pub core_ns_per_access: f64,
    pub hooks: HookCost,
    /// Sequential over batched `Machine::run` time of the same cell
    /// (wide-512 only).
    pub par_speedup: Option<f64>,
}

impl Bench {
    pub const ALL: [Bench; 4] = [
        Bench::SuiteMedium,
        Bench::Wide512,
        Bench::ServeQueue,
        Bench::FuzzOracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::SuiteMedium => "suite-medium",
            Bench::Wide512 => "wide-512",
            Bench::ServeQueue => "serve-queue",
            Bench::FuzzOracle => "fuzz-oracle",
        }
    }

    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Runs one repetition. Spans are recorded when the caller started the
    /// recorder (the traced run).
    pub fn rep(self, seed: u64, scale: &Scale) -> Rep {
        let started = Instant::now();
        let mut rep = match self {
            Bench::SuiteMedium => suite_rep(seed, scale),
            Bench::Wide512 => {
                let mut rep = Rep::default();
                let cell = Cell::wide(scale, seed, WIDE_SIM_THREADS);
                rep.record_cell(&cell, cell.run("machine.run"));
                rep
            }
            Bench::ServeQueue => serve_rep(seed, scale),
            Bench::FuzzOracle => fuzz_rep(seed, scale),
        };
        rep.wall_s = started.elapsed().as_secs_f64();
        rep
    }

    /// Host seconds to build one repetition's inputs and machines, before
    /// any stepping: `by_name` + `Machine::new` (which runs
    /// `Workload::setup`) per cell or serve batch, `FuzzCase::generate`
    /// per fuzz case. `first` supplies the serve batch count.
    pub fn setup_once(self, seed: u64, scale: &Scale, first: &Rep) -> f64 {
        let started = Instant::now();
        match self {
            Bench::SuiteMedium => {
                for cell in suite_cells(seed, scale) {
                    drop(std::hint::black_box(cell.build().0));
                }
            }
            Bench::Wide512 => drop(std::hint::black_box(
                Cell::wide(scale, seed, WIDE_SIM_THREADS).build().0,
            )),
            Bench::ServeQueue => {
                let batches = first.serve.map_or(1, |s| s.batches);
                for b in 0..batches {
                    let (workload, cfg) = serve_batch(seed, b);
                    drop(std::hint::black_box(Machine::new(cfg, Box::new(workload))));
                }
            }
            Bench::FuzzOracle => {
                for i in 0..scale.fuzz_cases {
                    drop(std::hint::black_box(FuzzCase::generate(seed, i)));
                }
            }
        }
        started.elapsed().as_secs_f64()
    }

    /// Executes `first`'s work again, untimed, and reports any failure or
    /// digest difference. suite-medium, whose repetition is longer than a
    /// run, re-runs one seed-chosen cell; the others a whole repetition.
    pub fn recheck(self, seed: u64, scale: &Scale, first: &Rep) -> Vec<String> {
        let (again, expected) = match self {
            Bench::SuiteMedium => {
                let cells = suite_cells(seed, scale);
                let index = (seed % cells.len() as u64) as usize;
                let mut rep = Rep::default();
                rep.record_cell(&cells[index], cells[index].run("machine.run"));
                (rep, first.op_digests.get(index..=index).unwrap_or_default())
            }
            _ => (self.rep(seed, scale), &first.op_digests[..]),
        };
        let mut errors = again.errors;
        if again.op_digests != expected {
            errors.push("re-run digest differs from the first run's".to_string());
        }
        errors
    }

    /// The per-layer work of the traced run beside the repetition itself:
    /// side machine runs where the repetition's machines sit behind one
    /// call, the layer replays and the hook probe.
    pub fn side(self, seed: u64, scale: &Scale, traced: &Rep) -> Side {
        let mut runs = Vec::new();
        let mut errors = Vec::new();
        let mut par_speedup = None;
        let (instances, probe): (Instances, Box<dyn Fn() -> Machines>) = match self {
            Bench::SuiteMedium => {
                let instances = BENCHMARK_NAMES
                    .iter()
                    .map(|n| {
                        (
                            by_name(n, scale.suite_size, seed).expect("known benchmark"),
                            scale.suite_cores,
                        )
                    })
                    .collect();
                let probe_cell = Cell::suite("genome", Preset::C, scale, seed);
                (instances, Box::new(move || vec![probe_cell.parts()]))
            }
            Bench::Wide512 => {
                let sequential = Cell::wide(scale, seed, 1).run("machine.run_sequential");
                errors.extend(sequential.verdict.err());
                par_speedup = sequential
                    .run
                    .zip(traced.runs.first())
                    .map(|(seq, batched)| {
                        seq.stats.perf.run_wall_ns as f64
                            / batched.stats.perf.run_wall_ns.max(1) as f64
                    });
                let probe_cell = Cell::wide(scale, seed, WIDE_SIM_THREADS);
                let instances = vec![(probe_cell.parts().0, scale.wide_cores)];
                (instances, Box::new(move || vec![probe_cell.parts()]))
            }
            Bench::ServeQueue => {
                let batches = traced.serve.map_or(0, |s| s.batches);
                runs = serve_side_runs(seed, batches, &mut errors);
                let instances = (0..batches.min(SERVE_REPLAY_BATCHES))
                    .map(|b| (serve_batch(seed, b).0.inner, SERVE_CORES))
                    .collect();
                let probe = move || {
                    (0..batches.clamp(1, SERVE_PROBE_BATCHES))
                        .map(|b| {
                            let (w, cfg) = serve_batch(seed, b);
                            (Box::new(w) as Box<dyn Workload>, cfg)
                        })
                        .collect()
                };
                (instances, Box::new(probe))
            }
            Bench::FuzzOracle => {
                let cases: Vec<Arc<FuzzCase>> = (0..scale.fuzz_cases)
                    .map(|i| Arc::new(FuzzCase::generate(seed, i)))
                    .collect();
                runs = fuzz_side_runs(&cases, &mut errors);
                let instances = cases
                    .iter()
                    .map(|c| (fuzz_machine(c).0, c.threads))
                    .collect();
                (
                    instances,
                    Box::new(move || cases.iter().map(fuzz_machine).collect()),
                )
            }
        };
        let stream = span("replay.record", || {
            Stream::record(instances, scale.replay_instructions)
        });
        Side {
            runs,
            errors,
            vm_ns_per_step: span("isa.vm_replay", || stream.vm_ns_per_step()),
            coherence_ns_per_request: span("coherence.replay", || {
                stream.coherence_ns_per_request()
            }),
            core_ns_per_access: span("core.replay", || stream.core_ns_per_access()),
            stream,
            hooks: span("machine.hook_probe", || {
                probe_hooks(probe, scale.probe_reps)
            }),
            par_speedup,
        }
    }
}

/// Workload instances with their core counts, for the layer replays.
type Instances = Vec<(Box<dyn Workload>, usize)>;
/// Ready-to-build machines, for the hook probe.
type Machines = Vec<(Box<dyn Workload>, MachineConfig)>;

/// Serve batches whose AR streams are replayed, and batches in the hook
/// probe: enough for a stable per-unit cost, few enough to stay cheap.
const SERVE_REPLAY_BATCHES: u64 = 400;
const SERVE_PROBE_BATCHES: u64 = 20;

/// `Machine::new` + `run` + `take_metrics` + `merge` on serve-shaped
/// batches, one per batch of the traced session.
fn serve_side_runs(seed: u64, batches: u64, errors: &mut Vec<String>) -> Vec<Run> {
    let mut registry = MetricsRegistry::new();
    (0..batches)
        .map(|b| {
            let (workload, cfg) = span("workloads.by_name", || serve_batch(seed, b));
            let label = format!("serve batch {b}");
            side_run(&label, Box::new(workload), cfg, Some(&mut registry), errors)
        })
        .collect()
}

/// `FuzzCase::analysis` and the contended-phase machine of every case.
fn fuzz_side_runs(cases: &[Arc<FuzzCase>], errors: &mut Vec<String>) -> Vec<Run> {
    cases
        .iter()
        .map(|case| {
            std::hint::black_box(span("analysis.analyze", || case.analysis()));
            let (workload, cfg) = span("workloads.by_name", || fuzz_machine(case));
            let label = format!("fuzz case {}", case.index);
            side_run(&label, workload, cfg, None, errors)
        })
        .collect()
}

/// Builds, runs and validates one CLEAR machine in spans, merging its
/// metrics into `registry` when given; a failed check goes to `errors`.
fn side_run(
    label: &str,
    workload: Box<dyn Workload>,
    cfg: MachineConfig,
    registry: Option<&mut MetricsRegistry>,
    errors: &mut Vec<String>,
) -> Run {
    let workload = Box::new(Observed::new(workload));
    let mut m = span("machine.new", || Machine::new(cfg, workload));
    if registry.is_some() {
        m.enable_metrics();
    }
    let stats = span("machine.run", || m.run());
    if let Some(registry) = registry {
        span("metrics.merge", || {
            registry.merge(&m.take_metrics().expect("metrics enabled"))
        });
    }
    let valid = span("workloads.validate", || m.workload().validate(m.memory()));
    if let Err(e) = verdict(label, &stats, valid) {
        errors.push(e);
    }
    Run { clear: true, stats }
}

/// A machine configuration for `preset` with the benchmark's retry
/// threshold and an explicit intra-run thread count.
fn config(preset: Preset, cores: usize, seed: u64, sim_threads: usize) -> MachineConfig {
    let mut cfg = preset.config(cores, MAX_RETRIES);
    cfg.seed = seed;
    cfg.sim_threads = sim_threads;
    cfg
}

/// One (benchmark, preset) machine run.
struct Cell {
    name: &'static str,
    preset: Preset,
    size: Size,
    cores: usize,
    seed: u64,
    sim_threads: usize,
}

impl Cell {
    fn suite(name: &'static str, preset: Preset, scale: &Scale, seed: u64) -> Cell {
        Cell {
            name,
            preset,
            size: scale.suite_size,
            cores: scale.suite_cores,
            seed,
            sim_threads: 1,
        }
    }

    fn wide(scale: &Scale, seed: u64, sim_threads: usize) -> Cell {
        Cell {
            name: WIDE_WORKLOAD,
            preset: Preset::C,
            size: Size::Tiny,
            cores: scale.wide_cores,
            seed,
            sim_threads,
        }
    }

    fn parts(&self) -> (Box<dyn Workload>, MachineConfig) {
        let workload = by_name(self.name, self.size, self.seed).expect("known benchmark");
        (
            workload,
            config(self.preset, self.cores, self.seed, self.sim_threads),
        )
    }

    /// `by_name` + `Machine::new`, each in its span; the workload is wrapped
    /// in [`Observed`], whose fetch log is returned.
    fn build(&self) -> (Machine, Rc<RefCell<Vec<Instant>>>) {
        let (workload, cfg) = span("workloads.by_name", || self.parts());
        let observed = Observed::new(workload);
        let fetches = Rc::clone(&observed.fetches);
        (
            span("machine.new", || Machine::new(cfg, Box::new(observed))),
            fetches,
        )
    }

    /// Builds, runs (inside a span named `run_span`) and validates the
    /// cell. A panic, a timed-out run or a failed invariant is an error.
    /// Also returns the run cut at every AR fetch, in host milliseconds.
    fn run(&self, run_span: &'static str) -> CellOutcome {
        let label = format!("{}/{}", self.name, self.preset);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (mut m, fetches) = self.build();
            let started = Instant::now();
            let stats = span(run_span, || m.run());
            let ended = Instant::now();
            let valid = span("workloads.validate", || m.workload().validate(m.memory()));
            let mut cuts = vec![started];
            cuts.extend(fetches.borrow().iter().copied());
            cuts.push(ended);
            let slices = cuts
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect();
            (stats, valid, slices)
        }));
        match outcome {
            Err(_) => CellOutcome {
                run: None,
                verdict: Err(format!("{label}: panicked")),
                slices_ms: Vec::new(),
            },
            Ok((stats, valid, slices_ms)) => {
                let verdict = verdict(&label, &stats, valid);
                let run = Run {
                    clear: self.preset.clear_enabled(),
                    stats,
                };
                CellOutcome {
                    run: Some(run),
                    verdict,
                    slices_ms,
                }
            }
        }
    }
}

/// A finished run passes when it did not time out and the workload's
/// invariant holds.
fn verdict(label: &str, stats: &RunStats, valid: Result<(), String>) -> Result<(), String> {
    if stats.timed_out {
        Err(format!("{label}: timed out"))
    } else {
        valid.map_err(|e| format!("{label}: invariant violated: {e}"))
    }
}

/// What one cell run produced.
struct CellOutcome {
    run: Option<Run>,
    verdict: Result<(), String>,
    /// `Machine::run` cut at every AR fetch, in host milliseconds.
    slices_ms: Vec<f64>,
}

impl Rep {
    /// Accounts one cell: its time, digest, counts and any failure.
    fn record_cell(&mut self, cell: &Cell, outcome: CellOutcome) {
        self.attempted += 1;
        if let Err(e) = outcome.verdict {
            self.errors.push(e);
        }
        let Some(run) = outcome.run else {
            self.op_digests.push(Digest::default());
            return;
        };
        self.op_ms.extend(outcome.slices_ms);
        let s = &run.stats;
        let mut d = Digest::default();
        d.bytes(cell.name.as_bytes());
        d.bytes(cell.preset.to_string().as_bytes());
        let m = &s.commits_by_mode;
        for w in [
            s.perf.steps,
            s.total_cycles,
            m.speculative,
            m.scl,
            m.nscl,
            m.fallback,
            s.aborts.total(),
            s.instructions_retired,
            s.instructions_wasted,
            s.lock_ops,
        ] {
            d.word(w);
        }
        self.op_digests.push(d);
        self.ars += s.commits();
        self.steps += s.perf.steps;
        self.runs.push(run);
    }
}

fn suite_cells(seed: u64, scale: &Scale) -> Vec<Cell> {
    BENCHMARK_NAMES
        .iter()
        .flat_map(|&n| [Preset::B, Preset::C].map(|p| Cell::suite(n, p, scale, seed)))
        .collect()
}

fn suite_rep(seed: u64, scale: &Scale) -> Rep {
    let mut rep = Rep::default();
    for cell in suite_cells(seed, scale) {
        rep.record_cell(&cell, cell.run("machine.run"));
    }
    // Simulated model metrics, from complete B/C pairs only.
    let mut ratios = Vec::new();
    let (mut first_retry, mut retried) = (0u64, 0u64);
    for pair in rep.runs.chunks(2) {
        if let [b, c] = pair {
            if !b.clear && c.clear && b.stats.total_cycles > 0 {
                ratios.push(c.stats.total_cycles as f64 / b.stats.total_cycles as f64);
            }
        }
    }
    for run in rep.runs.iter().filter(|r| r.clear) {
        let s = &run.stats;
        first_retry += s.commits_by_retries.get(&1).copied().unwrap_or(0);
        retried += s
            .commits_by_retries
            .iter()
            .filter(|(&r, _)| r >= 1)
            .map(|(_, &c)| c)
            .sum::<u64>()
            + s.commits_by_mode.fallback;
    }
    rep.sim.push(("c_vs_b_cycles", geomean(&ratios), "ratio"));
    rep.sim.push((
        "first_retry_share",
        first_retry as f64 / retried.max(1) as f64,
        "ratio",
    ));
    rep
}

fn serve_options(seed: u64, scale: &Scale) -> ServeOptions {
    ServeOptions {
        workload: SERVE_WORKLOAD.to_string(),
        size: Size::Tiny,
        cores: SERVE_CORES,
        seed,
        total_ars: scale.serve_ars,
        batch: SERVE_BATCH,
        queue: SERVE_QUEUE,
        rate: SERVE_RATE,
        replay_gaps: None,
        sim_threads: 1,
        snapshot_every: 1,
        max_retries: MAX_RETRIES,
    }
}

/// A serve-shaped batch machine's inputs, built outside `serve_session`.
fn serve_batch(seed: u64, b: u64) -> (Rationed, MachineConfig) {
    let batch_seed = seed.wrapping_add(b);
    let inner = by_name(SERVE_WORKLOAD, Size::Tiny, batch_seed).expect("serve workload exists");
    let workload = Rationed {
        inner,
        left: SERVE_BATCH,
        rate: SERVE_RATE,
        gaps: Xoshiro256PlusPlus::seed_from_u64(batch_seed),
    };
    (workload, config(Preset::C, SERVE_CORES, batch_seed, 1))
}

fn int(json: &Json, path: &[&str]) -> u64 {
    let mut j = json;
    for key in path {
        match j.get(key) {
            Some(next) => j = next,
            None => return 0,
        }
    }
    match j {
        Json::Int(v) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

fn serve_rep(seed: u64, scale: &Scale) -> Rep {
    let opts = serve_options(seed, scale);
    let mut rep = Rep {
        attempted: 1,
        ..Rep::default()
    };
    let report = match catch_unwind(|| span("serve.session", || serve_session(&opts))) {
        Ok(report) => report,
        Err(_) => {
            rep.errors.push("serve session panicked".to_string());
            rep.op_digests.push(Digest::default());
            return rep;
        }
    };
    if report.ars != opts.total_ars || report.json.get("starved") != Some(&Json::Bool(false)) {
        rep.errors.push(format!(
            "serve session committed {} of {} ARs",
            report.ars, opts.total_ars
        ));
    }
    let mut last_ns = 0u64;
    for row in &report.trajectory {
        let ns = int(row, &["wall_ns"]);
        rep.op_ms.push(ns.saturating_sub(last_ns) as f64 / 1e6);
        last_ns = ns;
    }
    let mut d = Digest::default();
    d.bytes(report.json.to_pretty().as_bytes());
    rep.op_digests.push(d);
    rep.ars = report.ars;
    rep.steps = report.steps;
    rep.sim.push((
        "ttc_p99_cycles",
        int(&report.json, &["ttc", "p99"]) as f64,
        "cycles",
    ));
    rep.serve = Some(ServeInfo {
        batches: int(&report.json, &["batches"]),
        queue_max_depth: report.queue_max_depth as u64,
        backpressure_events: report.backpressure_events,
    });
    rep
}

/// The contended-phase machine of a fuzz case, built outside `check_case`.
fn fuzz_machine(case: &Arc<FuzzCase>) -> (Box<dyn Workload>, MachineConfig) {
    let workload = Box::new(FuzzWorkload::new(Arc::clone(case)));
    (workload, config(Preset::C, case.threads, case.seed, 1))
}

fn fuzz_rep(seed: u64, scale: &Scale) -> Rep {
    let mut rep = Rep::default();
    for index in 0..scale.fuzz_cases {
        let started = Instant::now();
        let outcome = catch_unwind(|| {
            let case = Arc::new(span("fuzz.generate", || FuzzCase::generate(seed, index)));
            let report = span("fuzz.check_case", || check_case(&case));
            (case, report)
        });
        rep.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        rep.cases += 1;
        let Ok((case, r)) = outcome else {
            rep.errors.push(format!("fuzz case {index}: panicked"));
            rep.op_digests.push(Digest::default());
            continue;
        };
        if let Some(div) = &r.divergence {
            rep.errors
                .push(format!("fuzz case {index}: divergence {}", div.kind()));
        }
        let (spec, nscl, scl, fallback) = r.mode_commits;
        let mut d = Digest::default();
        d.bytes(r.verdict.as_bytes());
        for w in [
            r.index,
            r.seed,
            r.program_len as u64,
            u64::from(r.rejected),
            r.threads as u64,
            r.invocations as u64,
            r.machine_instructions,
            r.reference_steps,
            spec,
            nscl,
            scl,
            fallback,
            r.aborts,
            r.planned_ars as u64,
            r.fastpath_elided,
            r.fastpath_partial,
            u64::from(r.divergence.is_some()),
        ] {
            d.word(w);
        }
        rep.op_digests.push(d);
        rep.ars += case.invocations as u64 + spec + nscl + scl + fallback;
    }
    rep
}
