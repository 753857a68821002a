//! The `fuzz` subcommand backend and the `litmus-conformance` gate.
//!
//! `fuzz_output` drives the clear-fuzz differential oracle over a seeded
//! case range, shrinks every failure to a minimal reproducer, and renders
//! a fully deterministic report (no wall-clock fields — `main` measures
//! throughput separately for `BENCH_fuzz.json`). `matrix_output`
//! (`fuzz --matrix`) runs the same case range through every speculation
//! backend via the backend-differential oracle. `replay_output` re-runs
//! a checked-in regression corpus. `litmus_conformance` is the ninth
//! gated experiment: the classic SB/LB/MP/IRIW shapes across every
//! machine preset and a seed sweep, with each forbidden relaxed outcome
//! pinned to zero in the golden; `litmus_backends` is its sibling gate
//! sweeping the speculation backends instead of the presets.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::SuiteOptions;
use clear_fuzz::litmus::{cases, outcome_from, LitmusWorkload};
use clear_fuzz::{
    check_case, check_case_at, check_case_matrix, shrink, shrink_with, CaseReport, FuzzCase,
    MatrixReport, Shrunk,
};
use clear_machine::{Backend, Machine, Preset, SpeculationBackend};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parses a seed argument: decimal, `0x`-prefixed hex, or — for mnemonic
/// seeds like `0xC1EAR` that are not valid hex — a deterministic FNV-1a
/// fold of the bytes. Never fails, so any string names a reproducible
/// corpus.
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `u64` values (seeds, digests) travel as hex strings: JSON integers are
/// `i64` and seeds use the full range.
fn hex(v: u64) -> Json {
    Json::from(format!("{v:#x}"))
}

/// One fuzzed case's outcome as the report keeps it.
struct CaseOutcome {
    report: CaseReport,
    shrunk: Option<Shrunk>,
}

/// Runs one generated case; `cores = 0` keeps the case's own
/// contended-phase thread count, anything else overrides it (the
/// `fuzz --cores` flag — wide-machine oracle runs).
fn run_case(master_seed: u64, index: u64, cores: usize) -> CaseOutcome {
    let case = Arc::new(FuzzCase::generate(master_seed, index));
    let report = if cores == 0 {
        check_case(&case)
    } else {
        check_case_at(&case, cores)
    };
    let shrunk = report.divergence.is_some().then(|| shrink(case));
    CaseOutcome { report, shrunk }
}

fn failure_json(o: &CaseOutcome) -> Json {
    let d = o.report.divergence.as_ref().expect("failing case");
    let mut fields = vec![
        ("index", Json::from(o.report.index)),
        ("seed", hex(o.report.seed)),
        ("kind", Json::from(d.kind())),
        ("detail", Json::from(d.to_string())),
    ];
    if let Some(s) = &o.shrunk {
        let program: Vec<Json> = s
            .case
            .program
            .instrs()
            .iter()
            .map(|i| Json::from(i.to_string()))
            .collect();
        fields.push((
            "shrunk",
            Json::obj([
                ("threads", Json::from(s.case.threads)),
                ("invocations", Json::from(s.case.invocations)),
                ("shapes", Json::from(s.case.shapes.len())),
                ("attempts", Json::from(s.attempts)),
                ("program", Json::Arr(program)),
            ]),
        ));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Aggregates a slice of case outcomes into the deterministic report
/// document shared by `fuzz` and `fuzz --replay`.
fn aggregate(
    command: &str,
    seed_str: &str,
    master_seed: u64,
    outcomes: &[CaseOutcome],
) -> ExperimentOutput {
    let mut rejected = 0u64;
    let mut machine_instructions = 0u64;
    let mut reference_steps = 0u64;
    let mut commits = (0u64, 0u64, 0u64, 0u64);
    let mut aborts = 0u64;
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut soundness = 0u64;
    let mut planned_cases = 0u64;
    let mut elided = 0u64;
    let mut partial = 0u64;
    let mut failures = Vec::new();
    let (mut len_min, mut len_max, mut len_sum) = (usize::MAX, 0usize, 0u64);

    for o in outcomes {
        let r = &o.report;
        rejected += u64::from(r.rejected);
        machine_instructions += r.machine_instructions;
        reference_steps += r.reference_steps;
        commits.0 += r.mode_commits.0;
        commits.1 += r.mode_commits.1;
        commits.2 += r.mode_commits.2;
        commits.3 += r.mode_commits.3;
        aborts += r.aborts;
        planned_cases += u64::from(r.planned_ars > 0);
        elided += r.fastpath_elided;
        partial += r.fastpath_partial;
        *verdicts.entry(r.verdict).or_default() += 1;
        len_min = len_min.min(r.program_len);
        len_max = len_max.max(r.program_len);
        len_sum += r.program_len as u64;
        if let Some(d) = &r.divergence {
            *kinds.entry(d.kind()).or_default() += 1;
            if d.kind() == "soundness-violation" {
                soundness += 1;
            }
            failures.push(failure_json(o));
        }
    }
    let diverged = failures.len();
    let cases = outcomes.len();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== {command}: {cases} cases, seed {seed_str} ({master_seed:#x}) ==="
    );
    let _ = writeln!(
        text,
        "rejected drafts: {rejected}   machine instructions: {machine_instructions}   \
         reference steps: {reference_steps}"
    );
    let _ = writeln!(
        text,
        "contended commits: speculative {} / NS-CL {} / S-CL {} / fallback {}   aborts: {aborts}",
        commits.0, commits.1, commits.2, commits.3
    );
    let verdict_line = verdicts
        .iter()
        .map(|(v, n)| format!("{v} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(text, "static verdicts: {verdict_line}");
    let _ = writeln!(
        text,
        "static fast path: {planned_cases} planned cases, {elided} discovery runs elided, \
         {partial} shortened to root confirmation"
    );
    if diverged == 0 {
        let _ = writeln!(text, "oracle: all {cases} cases agree (0 divergences)");
    } else {
        let _ = writeln!(text, "oracle: {diverged} DIVERGENCES:");
        for (kind, n) in &kinds {
            let _ = writeln!(text, "  {kind}: {n}");
        }
    }

    let json = Json::obj([
        ("command", Json::from(command)),
        ("seed", Json::from(seed_str)),
        ("seed_value", hex(master_seed)),
        ("cases", Json::from(cases)),
        ("rejected_drafts", Json::from(rejected)),
        ("divergences", Json::from(diverged)),
        ("soundness_violations", Json::from(soundness)),
        ("planned_cases", Json::from(planned_cases)),
        ("discovery_runs_elided", Json::from(elided)),
        ("partial_discovery_runs", Json::from(partial)),
        ("machine_instructions", Json::from(machine_instructions)),
        ("reference_steps", Json::from(reference_steps)),
        (
            "contended_commits",
            Json::obj([
                ("speculative", Json::from(commits.0)),
                ("nscl", Json::from(commits.1)),
                ("scl", Json::from(commits.2)),
                ("fallback", Json::from(commits.3)),
            ]),
        ),
        ("aborts", Json::from(aborts)),
        (
            "verdicts",
            Json::Obj(
                verdicts
                    .iter()
                    .map(|(v, n)| (v.to_string(), Json::from(*n)))
                    .collect(),
            ),
        ),
        (
            "program_len",
            Json::obj([
                (
                    "min",
                    Json::from(if cases == 0 { 0 } else { len_min as u64 }),
                ),
                ("max", Json::from(len_max as u64)),
                (
                    "mean",
                    Json::Float(if cases == 0 {
                        0.0
                    } else {
                        len_sum as f64 / cases as f64
                    }),
                ),
            ]),
        ),
        ("failures", Json::Arr(failures)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = diverged;
    out
}

/// Runs `count` seeded cases through the differential oracle in parallel
/// and renders the deterministic fuzz report. Failing cases are shrunk to
/// minimal reproducers embedded in the `failures` array. `cores = 0` runs
/// each case at its own generated thread count; a nonzero value widens
/// every contended phase to that many simulated cores (`fuzz --cores`).
pub fn fuzz_output(seed_str: &str, count: u64, workers: usize, cores: usize) -> ExperimentOutput {
    let master_seed = parse_seed(seed_str);
    let outcomes = pool::run_indexed(count as usize, workers, |i| {
        run_case(master_seed, i as u64, cores)
    });
    let mut out = aggregate("fuzz", seed_str, master_seed, &outcomes);
    if let Json::Obj(fields) = &mut out.json {
        fields.insert(3, ("cores_override".to_string(), Json::from(cores)));
    }
    out
}

/// Replays an explicit `(master_seed, index)` list — the checked-in
/// regression corpus — through the oracle. Entries keep their original
/// master seed, so a corpus survives changes to the default CLI seed.
pub fn replay_output(entries: &[(String, u64, u64)], workers: usize) -> ExperimentOutput {
    let outcomes = pool::run_indexed(entries.len(), workers, |i| {
        let (_, master_seed, index) = &entries[i];
        // Corpus entries replay at their original thread counts: a pinned
        // regression must reproduce the machine shape it was found on.
        run_case(*master_seed, *index, 0)
    });
    let mut out = aggregate("replay", "corpus", 0, &outcomes);
    // Name each replayed entry in the text so CI logs read well.
    let mut text = String::new();
    for ((name, seed, index), o) in entries.iter().zip(&outcomes) {
        let verdict = match &o.report.divergence {
            None => "ok".to_string(),
            Some(d) => format!("DIVERGED: {d}"),
        };
        let _ = writeln!(
            text,
            "replay {name} (seed {seed:#x}, index {index}): {verdict}"
        );
    }
    out.text = format!("{text}{}", out.text);
    out
}

/// Pinned options for the `litmus-conformance` golden: every preset, six
/// seeds, retry threshold 5. Cores-per-run always equals the case's
/// thread count, so `cores` here is only documentation.
pub(super) fn litmus_opts() -> SuiteOptions {
    SuiteOptions {
        size: clear_workloads::Size::Tiny,
        cores: 4,
        seeds: (1..=6).collect(),
        retry_sweep: vec![5],
        benchmarks: vec![],
        workers: pool::default_workers(),
        sim_threads: 1,
        backends: Backend::ALL.to_vec(),
    }
}

/// The `litmus-conformance` experiment: SB, LB, MP and IRIW across every
/// preset × seed, with outcome histograms and the forbidden relaxed
/// outcome of each shape pinned to zero.
pub(super) fn litmus_conformance(opts: &SuiteOptions) -> ExperimentOutput {
    let catalogue = cases();
    let grid: Vec<(usize, Preset, u64)> = catalogue
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| {
            Preset::ALL
                .into_iter()
                .flat_map(move |p| opts.seeds.iter().map(move |&s| (ci, p, s)))
        })
        .collect();

    let results = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (ci, preset, seed) = grid[g];
        let case = Arc::new(cases().swap_remove(ci));
        let threads = case.threads.len();
        let workload = LitmusWorkload::new(Arc::clone(&case), seed);
        let layout = workload.layout_handle();
        let mut cfg = preset.config(threads, opts.retry_sweep[0]);
        cfg.seed = seed;
        let mut machine = Machine::new(cfg, Box::new(workload));
        let stats = machine.run();
        let layout = layout.get().expect("setup published the layout");
        let outcome = outcome_from(&case, &layout, machine.memory());
        let label = case.label(&outcome);
        let forbidden = (case.forbidden)(&outcome);
        let committed = stats.commits_by_mode.total() == threads as u64;
        (ci, preset, stats.timed_out, committed, forbidden, label)
    });

    // (case, preset) -> outcome histogram + violation counters.
    type RowAccum = (BTreeMap<String, u64>, u64, u64);
    let mut rows: BTreeMap<(usize, char), RowAccum> = BTreeMap::new();
    for (ci, preset, timed_out, committed, forbidden, label) in &results {
        let slot = rows.entry((*ci, preset.letter())).or_default();
        *slot.0.entry(label.clone()).or_default() += 1;
        if *forbidden {
            slot.1 += 1;
        }
        if *timed_out || !committed {
            slot.2 += 1;
        }
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== litmus-conformance: atomic outcomes of the classic shapes ==="
    );
    let _ = writeln!(
        text,
        "{:6} {:7} {:>6} {:>10} {:>7}  outcomes",
        "case", "preset", "runs", "forbidden", "broken"
    );
    let mut row_json = Vec::new();
    let mut total_forbidden = 0u64;
    let mut total_broken = 0u64;
    for ((ci, letter), (hist, forbidden, broken)) in &rows {
        let case = &catalogue[*ci];
        let runs: u64 = hist.values().sum();
        total_forbidden += forbidden;
        total_broken += broken;
        let outcomes = hist
            .iter()
            .map(|(l, n)| format!("{l} x{n}"))
            .collect::<Vec<_>>()
            .join("; ");
        let _ = writeln!(
            text,
            "{:6} {:7} {:>6} {:>10} {:>7}  {outcomes}",
            case.name, letter, runs, forbidden, broken
        );
        row_json.push(Json::obj([
            ("case", Json::from(case.name)),
            ("preset", Json::from(letter.to_string())),
            ("runs", Json::from(runs)),
            ("forbidden", Json::from(*forbidden)),
            ("broken_runs", Json::from(*broken)),
            (
                "outcomes",
                Json::Obj(
                    hist.iter()
                        .map(|(l, n)| (l.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
        ]));
    }
    let _ = writeln!(
        text,
        "\ntotal forbidden outcomes: {total_forbidden}   broken runs: {total_broken}"
    );
    let _ = writeln!(
        text,
        "(atomic regions serialize: every relaxed litmus outcome must be impossible)"
    );

    let json = Json::obj([
        ("experiment", Json::from("litmus-conformance")),
        ("options", opts_json(opts)),
        (
            "cases",
            Json::arr(catalogue.iter().map(|c| {
                Json::obj([
                    ("name", Json::from(c.name)),
                    ("threads", Json::from(c.threads.len())),
                    ("about", Json::from(c.about)),
                ])
            })),
        ),
        ("rows", Json::Arr(row_json)),
        ("forbidden_outcomes", Json::from(total_forbidden)),
        ("broken_runs", Json::from(total_broken)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = (total_forbidden + total_broken) as usize;
    out
}

/// Pinned options for the `litmus-backends` golden: every speculation
/// backend, six seeds, retry threshold 5. As with `litmus-conformance`,
/// each run uses the case's own thread count.
pub(super) fn litmus_backends_opts() -> SuiteOptions {
    SuiteOptions {
        size: clear_workloads::Size::Tiny,
        cores: 4,
        seeds: (1..=6).collect(),
        retry_sweep: vec![5],
        benchmarks: vec![],
        workers: pool::default_workers(),
        sim_threads: 1,
        backends: Backend::ALL.to_vec(),
    }
}

/// The `litmus-backends` experiment: SB, LB, MP and IRIW across every
/// speculation backend × seed (the `--backend` flag restricts the sweep),
/// with the forbidden relaxed outcome of each shape pinned to zero. The
/// preset-sweep sibling is [`litmus_conformance`]; this gate proves the
/// atomicity argument is backend-independent — including under the
/// limited-R/W-set backend's capacity aborts.
pub(super) fn litmus_backends(opts: &SuiteOptions) -> ExperimentOutput {
    let catalogue = cases();
    let grid: Vec<(usize, Backend, u64)> = catalogue
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| {
            opts.backends
                .iter()
                .flat_map(move |&b| opts.seeds.iter().map(move |&s| (ci, b, s)))
        })
        .collect();

    let results = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (ci, backend, seed) = grid[g];
        let case = Arc::new(cases().swap_remove(ci));
        let threads = case.threads.len();
        let workload = LitmusWorkload::new(Arc::clone(&case), seed);
        let layout = workload.layout_handle();
        let mut cfg = backend.config(threads, opts.retry_sweep[0]);
        cfg.seed = seed;
        let mut machine = Machine::new(cfg, Box::new(workload));
        let stats = machine.run();
        let layout = layout.get().expect("setup published the layout");
        let outcome = outcome_from(&case, &layout, machine.memory());
        let label = case.label(&outcome);
        let forbidden = (case.forbidden)(&outcome);
        let committed = stats.commits_by_mode.total() == threads as u64;
        (ci, backend, stats.timed_out, committed, forbidden, label)
    });

    // (case, backend) -> outcome histogram + violation counters.
    type RowAccum = (BTreeMap<String, u64>, u64, u64);
    let mut rows: BTreeMap<(usize, &'static str), RowAccum> = BTreeMap::new();
    for (ci, backend, timed_out, committed, forbidden, label) in &results {
        let slot = rows.entry((*ci, backend.name())).or_default();
        *slot.0.entry(label.clone()).or_default() += 1;
        if *forbidden {
            slot.1 += 1;
        }
        if *timed_out || !committed {
            slot.2 += 1;
        }
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== litmus-backends: atomic outcomes across speculation backends ==="
    );
    let _ = writeln!(
        text,
        "{:6} {:8} {:>6} {:>10} {:>7}  outcomes",
        "case", "backend", "runs", "forbidden", "broken"
    );
    let mut row_json = Vec::new();
    let mut total_forbidden = 0u64;
    let mut total_broken = 0u64;
    for ((ci, backend), (hist, forbidden, broken)) in &rows {
        let case = &catalogue[*ci];
        let runs: u64 = hist.values().sum();
        total_forbidden += forbidden;
        total_broken += broken;
        let outcomes = hist
            .iter()
            .map(|(l, n)| format!("{l} x{n}"))
            .collect::<Vec<_>>()
            .join("; ");
        let _ = writeln!(
            text,
            "{:6} {:8} {:>6} {:>10} {:>7}  {outcomes}",
            case.name, backend, runs, forbidden, broken
        );
        row_json.push(Json::obj([
            ("case", Json::from(case.name)),
            ("backend", Json::from(*backend)),
            ("runs", Json::from(runs)),
            ("forbidden", Json::from(*forbidden)),
            ("broken_runs", Json::from(*broken)),
            (
                "outcomes",
                Json::Obj(
                    hist.iter()
                        .map(|(l, n)| (l.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
        ]));
    }
    let _ = writeln!(
        text,
        "\ntotal forbidden outcomes: {total_forbidden}   broken runs: {total_broken}"
    );
    let _ = writeln!(
        text,
        "(serializability is a backend contract: no backend may admit a relaxed outcome)"
    );

    let json = Json::obj([
        ("experiment", Json::from("litmus-backends")),
        ("options", opts_json(opts)),
        (
            "backends",
            Json::arr(opts.backends.iter().map(|b| Json::from(b.name()))),
        ),
        (
            "cases",
            Json::arr(catalogue.iter().map(|c| {
                Json::obj([
                    ("name", Json::from(c.name)),
                    ("threads", Json::from(c.threads.len())),
                    ("about", Json::from(c.about)),
                ])
            })),
        ),
        ("rows", Json::Arr(row_json)),
        ("forbidden_outcomes", Json::from(total_forbidden)),
        ("broken_runs", Json::from(total_broken)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = (total_forbidden + total_broken) as usize;
    out
}

/// One backend-matrix case's outcome as the report keeps it.
struct MatrixOutcome {
    report: MatrixReport,
    shrunk: Option<Shrunk>,
}

fn run_matrix_case(master_seed: u64, index: u64) -> MatrixOutcome {
    let case = Arc::new(FuzzCase::generate(master_seed, index));
    let report = check_case_matrix(&case);
    let shrunk = (!report.passed()).then(|| shrink_with(case, |c| !check_case_matrix(c).passed()));
    MatrixOutcome { report, shrunk }
}

fn matrix_failure_json(o: &MatrixOutcome) -> Json {
    let (backend, d) = o.report.divergence().expect("failing case");
    let mut fields = vec![
        ("index", Json::from(o.report.index)),
        ("seed", hex(o.report.seed)),
        ("backend", Json::from(backend)),
        ("kind", Json::from(d.kind())),
        ("detail", Json::from(d.to_string())),
    ];
    if let Some(s) = &o.shrunk {
        let program: Vec<Json> = s
            .case
            .program
            .instrs()
            .iter()
            .map(|i| Json::from(i.to_string()))
            .collect();
        fields.push((
            "shrunk",
            Json::obj([
                ("threads", Json::from(s.case.threads)),
                ("invocations", Json::from(s.case.invocations)),
                ("shapes", Json::from(s.case.shapes.len())),
                ("attempts", Json::from(s.attempts)),
                ("program", Json::Arr(program)),
            ]),
        ));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs `count` seeded cases through the backend-differential matrix
/// oracle (`fuzz --matrix`): each case executes once per built-in
/// speculation backend, and every backend must agree with the serial VM
/// replay and its own accounting contract. Failing cases are shrunk
/// against the matrix predicate. The report is byte-deterministic across
/// runs and worker counts.
pub fn matrix_output(seed_str: &str, count: u64, workers: usize) -> ExperimentOutput {
    let master_seed = parse_seed(seed_str);
    let outcomes = pool::run_indexed(count as usize, workers, |i| {
        run_matrix_case(master_seed, i as u64)
    });

    // Per-backend aggregates: commits, aborts, capacity, R/W-set
    // overflows, fast-path elisions, divergences.
    let mut per_backend: BTreeMap<&'static str, (u64, u64, u64, u64, u64, u64)> = BTreeMap::new();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    for o in &outcomes {
        for b in &o.report.outcomes {
            let slot = per_backend.entry(b.backend).or_default();
            slot.0 += b.commits;
            slot.1 += b.aborts;
            slot.2 += b.capacity_aborts;
            slot.3 += b.lrws_capacity_aborts;
            slot.4 += b.fastpath_elided;
            if b.divergence.is_some() {
                slot.5 += 1;
            }
        }
        if let Some((_, d)) = o.report.divergence() {
            *kinds.entry(d.kind()).or_default() += 1;
            failures.push(matrix_failure_json(o));
        }
    }
    let diverged = failures.len();
    let cases = outcomes.len();
    let n_backends = Backend::ALL.len();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== fuzz --matrix: {cases} cases x {n_backends} backends, seed {seed_str} \
         ({master_seed:#x}) ==="
    );
    let _ = writeln!(
        text,
        "{:8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
        "backend", "commits", "aborts", "capacity", "rw-ovfl", "elided", "diverged"
    );
    // Backend::ALL order, not BTreeMap order: the table reads in the
    // same sequence as every other backend sweep.
    for id in Backend::ALL {
        let (commits, aborts, capacity, lrws, elided, div) =
            per_backend.get(id.name()).copied().unwrap_or_default();
        let _ = writeln!(
            text,
            "{:8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
            id.name(),
            commits,
            aborts,
            capacity,
            lrws,
            elided,
            div
        );
    }
    if diverged == 0 {
        let _ = writeln!(
            text,
            "matrix: all {cases} cases agree across {n_backends} backends (0 divergences)"
        );
    } else {
        let _ = writeln!(text, "matrix: {diverged} DIVERGENCES:");
        for (kind, n) in &kinds {
            let _ = writeln!(text, "  {kind}: {n}");
        }
    }

    let backend_json = Json::arr(Backend::ALL.iter().map(|id| {
        let (commits, aborts, capacity, lrws, elided, div) =
            per_backend.get(id.name()).copied().unwrap_or_default();
        Json::obj([
            ("backend", Json::from(id.name())),
            ("commits", Json::from(commits)),
            ("aborts", Json::from(aborts)),
            ("capacity_aborts", Json::from(capacity)),
            ("lrws_capacity_aborts", Json::from(lrws)),
            ("discovery_runs_elided", Json::from(elided)),
            ("diverged_cases", Json::from(div)),
        ])
    }));
    let json = Json::obj([
        ("command", Json::from("fuzz-matrix")),
        ("seed", Json::from(seed_str)),
        ("seed_value", hex(master_seed)),
        ("cases", Json::from(cases)),
        ("divergences", Json::from(diverged)),
        ("backends", backend_json),
        ("failures", Json::Arr(failures)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = diverged;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_covers_decimal_hex_and_mnemonics() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xff"), 255);
        assert_eq!(parse_seed("0XFF"), 255);
        // `0xC1EAR` is not valid hex (R); it folds deterministically.
        let m = parse_seed("0xC1EAR");
        assert_eq!(m, parse_seed("0xC1EAR"));
        assert_ne!(m, parse_seed("0xC1EAS"));
        assert_ne!(m, 0);
    }

    #[test]
    fn small_fuzz_run_is_clean_and_deterministic() {
        let a = fuzz_output("0xC1EAR", 24, 4, 0);
        assert_eq!(a.failures, 0, "{}", a.text);
        let b = fuzz_output("0xC1EAR", 24, 1, 0);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
        assert_eq!(a.text, b.text);
        assert!(a.text.contains("all 24 cases agree"));
    }

    #[test]
    fn wide_cores_override_scales_the_contended_phase() {
        let out = fuzz_output("0xC1EAR", 4, 4, 128);
        assert_eq!(out.failures, 0, "{}", out.text);
        assert_eq!(out.json.get("cores_override"), Some(&Json::Int(128)));
        // 4 cases x 128 threads x >= 1 invocation each, all committed in
        // some mode: total contended commits must be at least 512.
        let commits = out.json.get("contended_commits").expect("commits");
        let total: i64 = ["speculative", "nscl", "scl", "fallback"]
            .iter()
            .map(|k| match commits.get(k) {
                Some(Json::Int(v)) => *v,
                _ => 0,
            })
            .sum();
        assert!(total >= 512, "expected >=512 wide commits, got {total}");
    }

    #[test]
    fn replay_reports_entries_by_name() {
        let entries = vec![
            ("sb-regression".to_string(), parse_seed("0xC1EAR"), 0),
            ("probe".to_string(), 7, 3),
        ];
        let out = replay_output(&entries, 2);
        assert_eq!(out.failures, 0, "{}", out.text);
        assert!(out.text.contains("replay sb-regression"));
        assert!(out.text.contains("replay probe"));
    }

    #[test]
    fn litmus_gate_pins_forbidden_outcomes_to_zero() {
        let opts = SuiteOptions {
            seeds: vec![1, 2],
            workers: 4,
            ..litmus_opts()
        };
        let out = litmus_conformance(&opts);
        assert_eq!(out.failures, 0, "{}", out.text);
        assert!(out.json.get("forbidden_outcomes").is_some());
        // 4 cases x 4 presets x 2 seeds.
        assert!(out.text.contains("IRIW"));
    }

    #[test]
    fn litmus_backends_gate_pins_forbidden_outcomes_to_zero() {
        let opts = SuiteOptions {
            seeds: vec![1, 2],
            workers: 4,
            ..litmus_backends_opts()
        };
        let out = litmus_backends(&opts);
        assert_eq!(out.failures, 0, "{}", out.text);
        // Every backend shows up as a row label.
        for id in Backend::ALL {
            assert!(out.text.contains(id.name()), "missing {id}:\n{}", out.text);
        }
        assert!(out.text.contains("IRIW"));
    }

    #[test]
    fn backend_flag_restricts_the_litmus_backend_sweep() {
        let opts = SuiteOptions {
            seeds: vec![1],
            workers: 2,
            backends: vec![Backend::Tsx, Backend::Lrws],
            ..litmus_backends_opts()
        };
        let out = litmus_backends(&opts);
        assert_eq!(out.failures, 0, "{}", out.text);
        let backends = out.json.get("backends").expect("backends array");
        assert_eq!(
            backends.to_pretty(),
            Json::arr(["tsx", "lrws"].iter().map(|b| Json::from(*b))).to_pretty()
        );
        assert!(!out.text.contains("powertm"));
    }

    #[test]
    fn small_matrix_run_is_clean_and_deterministic() {
        let a = matrix_output("0xC1EAR", 8, 4);
        assert_eq!(a.failures, 0, "{}", a.text);
        let b = matrix_output("0xC1EAR", 8, 1);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
        assert_eq!(a.text, b.text);
        assert!(a.text.contains("all 8 cases agree across 5 backends"));
        // Every backend committed work; only lrws may overflow buffers.
        let backends = match a.json.get("backends") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("expected backends array, got {other:?}"),
        };
        assert_eq!(backends.len(), 5);
        for row in &backends {
            let commits = row.get("commits").cloned();
            assert!(matches!(commits, Some(Json::Int(c)) if c > 0), "{row:?}");
            if row.get("backend") != Some(&Json::from("lrws")) {
                assert_eq!(row.get("lrws_capacity_aborts"), Some(&Json::Int(0)));
            }
        }
    }
}
