//! `clear-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-medium|wide-512|serve-queue|fuzz-oracle|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     baseline --out FILE [--context FILE] RUN_OUTPUT...
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's fixed repetition
//! for about `--seconds`, checks every output, and prints the end-to-end
//! metrics. A traced run (`--trace 1`) runs one repetition untraced and
//! one with spans recorded around every call into a layer, then replays
//! the workload's AR stream through single layers, and prints the
//! per-layer metrics. Each run's last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! a `{"detail": ...}` record with every metric of the run, the
//! simulated-output digest and the host. Exit status: 0 when every check
//! passed, 1 on any failure, 2 on a usage error. See `perfbench/README.md`.

mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use clear_harness::json::Json;
use report::{host_json, metrics_json, one_line, result_json, Measured, END_TO_END, PAPER_C_VS_B};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Bench, Rep, Scale};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed: never used while the benchmark or a change is tuned,
/// only to confirm a claimed result.
const HELD_OUT_SEED: u64 = 977;

struct Args {
    benches: Vec<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: clear-perfbench --workload suite-medium|wide-512|serve-queue|fuzz-oracle|all \
         [--seed N (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})] [--seconds S] \
         [--trace 0|1] [--smoke]\n       clear-perfbench baseline --out FILE [--context FILE] \
         RUN_OUTPUT..."
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        benches: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.benches = match name.as_str() {
                    "all" => Bench::ALL.to_vec(),
                    _ => vec![Bench::from_name(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !out.seconds.is_finite() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if out.benches.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("baseline") {
        return baseline(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let mut ok = true;
    for &bench in &args.benches {
        let run_ok = if args.trace {
            traced_run(bench, args.seed, &scale)
        } else {
            untraced_run(bench, args.seed, args.seconds, &scale)
        };
        ok &= run_ok;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares every repetition's digest with the first one's; one error per
/// mismatch.
fn digest_errors(reps: &[Rep]) -> Vec<String> {
    let first = reps[0].digest();
    reps.iter()
        .enumerate()
        .skip(1)
        .filter(|(_, r)| r.digest() != first)
        .map(|(i, r)| {
            format!(
                "repetition {i} digest {} differs from {}",
                r.digest().hex(),
                first.hex()
            )
        })
        .collect()
}

fn print_errors(bench: Bench, errors: &[String]) {
    for e in errors {
        eprintln!("{}: FAILED: {e}", bench.name());
    }
}

/// Repeats the workload for about `seconds`, checks it, and prints the
/// end-to-end metrics. Returns whether every check passed.
fn untraced_run(bench: Bench, seed: u64, seconds: f64, scale: &Scale) -> bool {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Whole repetitions only, and none that would end past the deadline
    // judging by the last one: every run measures the same mix.
    loop {
        let rep = bench.rep(seed, scale);
        let last = rep.wall_s;
        reps.push(rep);
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
    errors.extend(digest_errors(&reps));
    if reps.len() < 2 {
        // One repetition fits the run: repeat (part of) it untimed, so the
        // digest is still checked against a second execution.
        attempted += 1;
        errors.extend(bench.recheck(seed, scale, &reps[0]));
    }
    let setups: Vec<f64> = (0..scale.setup_reps)
        .map(|_| bench.setup_once(seed, scale, &reps[0]))
        .collect();
    let Some(peak_rss_mb) = stats::peak_rss_mb() else {
        eprintln!(
            "{}: cannot read peak RSS from /proc/self/status",
            bench.name()
        );
        return false;
    };
    let m = Measured {
        bench,
        reps: &reps,
        setup_s: stats::median(&setups),
        peak_rss_mb,
        attempted,
        failed: errors.len() as u64,
    };
    print_errors(bench, &errors);
    let all = m.all_metrics();
    for ((name, v, unit), clock) in &all {
        println!(
            "{:<13} {name:<18} {v:>16.6} {unit:<6} ({clock})",
            bench.name()
        );
    }
    if reps[0].sim.iter().any(|m| m.0 == "c_vs_b_cycles") {
        println!(
            "{:<13} c_vs_b_cycles is simulated; the paper's gem5 figure is {PAPER_C_VS_B} \
             (model not validated against hardware)",
            bench.name()
        );
    }
    let all_json = Json::Obj(
        all.iter()
            .map(|&((name, v, unit), clock)| {
                let entry = Json::obj([
                    ("value", Json::Float(v)),
                    ("unit", Json::from(unit)),
                    ("clock", Json::from(clock)),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    let gated = m.end_to_end();
    let detail = Json::obj([(
        "detail",
        Json::obj([
            ("workload", Json::from(bench.name())),
            ("seed", Json::from(seed)),
            ("trace", Json::Bool(false)),
            ("repetitions", Json::from(reps.len())),
            ("op_samples", Json::from(m.samples())),
            ("digest", Json::from(reps[0].digest().hex())),
            ("host", host_json()),
            ("metrics", all_json),
            ("paper_c_vs_b_cycles", Json::Float(PAPER_C_VS_B)),
            (
                "errors",
                Json::arr(errors.iter().map(|e| Json::from(e.as_str()))),
            ),
        ]),
    )]);
    println!("{}", one_line(&detail));
    println!("{}", one_line(&result_json(attempted, m.failed, &gated)));
    errors.is_empty()
}

/// Where span files go: the cargo target directory, which is never
/// committed.
fn spans_path(bench: Bench, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(dir)
        .join("perfbench")
        .join(format!("spans-{}-{seed}.json", bench.name()))
}

/// One untraced and one traced repetition with the same seed, then the
/// per-layer side work; prints the per-layer metrics.
fn traced_run(bench: Bench, seed: u64, scale: &Scale) -> bool {
    let plain = bench.rep(seed, scale);
    spans::start();
    let traced = spans::span("bench.rep", || bench.rep(seed, scale));
    let side = spans::span("bench.side", || bench.side(seed, scale, &traced));
    let recorded = spans::finish();
    let overhead_s = traced.wall_s - plain.wall_s;

    let reps = [plain, traced];
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
    errors.extend(digest_errors(&reps));
    errors.extend(side.errors.iter().cloned());
    let attempted = reps.iter().map(|r| r.attempted).sum::<u64>() + side.runs.len() as u64;
    print_errors(bench, &errors);

    let path = spans_path(bench, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, spans::to_json(&recorded).to_pretty()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }

    let layers = report::per_layer(&recorded, &reps[1], &side, overhead_s);
    for (name, v, unit) in &layers {
        println!("{:<13} {name:<34} {v:>18.6} {unit}", bench.name());
    }
    let detail = Json::obj([(
        "detail",
        Json::obj([
            ("workload", Json::from(bench.name())),
            ("seed", Json::from(seed)),
            ("trace", Json::Bool(true)),
            ("repetitions", Json::from(2usize)),
            ("digest", Json::from(reps[0].digest().hex())),
            ("host", host_json()),
            ("spans", Json::from(recorded.len())),
            ("spans_file", Json::from(path.display().to_string())),
            (
                "replayed_instructions",
                Json::from(side.stream.instructions),
            ),
            ("replayed_accesses", Json::from(side.stream.accesses)),
            ("per_layer", metrics_json(&layers)),
            (
                "errors",
                Json::arr(errors.iter().map(|e| Json::from(e.as_str()))),
            ),
        ]),
    )]);
    println!("{}", one_line(&detail));
    println!(
        "{}",
        one_line(&result_json(attempted, errors.len() as u64, &layers))
    );
    errors.is_empty()
}

/// `baseline`: folds saved run outputs into one document in the
/// `bench_out::bench_doc` schema: per workload and metric, the median and
/// quartiles over runs, plus the seeds, digests and host.
fn baseline(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut context = None;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--context" => context = it.next().cloned(),
            _ => inputs.push(a.clone()),
        }
    }
    let Some(out) = out else {
        return usage("baseline needs --out FILE");
    };
    // (workload, trace) -> detail records, in input order.
    let mut groups: Vec<((String, bool), Vec<Json>)> = Vec::new();
    for path in &inputs {
        let Ok(text) = std::fs::read_to_string(path) else {
            return usage(&format!("cannot read {path}"));
        };
        for line in text.lines().filter(|l| l.starts_with("{\"detail\"")) {
            let Ok(doc) = Json::parse(line) else {
                return usage(&format!("{path}: malformed detail line"));
            };
            let d = doc.get("detail").cloned().unwrap_or(Json::Null);
            let key = (
                str_of(d.get("workload")),
                d.get("trace") == Some(&Json::Bool(true)),
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(d),
                None => groups.push((key, vec![d])),
            }
        }
    }
    let mut rows = Vec::new();
    let mut seeds = Vec::new();
    for ((workload, traced), details) in &groups {
        rows.push(group_row(workload, *traced, details));
        for d in details {
            if let Some(Json::Int(s)) = d.get("seed") {
                if !seeds.contains(s) {
                    seeds.push(*s);
                }
            }
        }
    }
    if let Some(path) = context {
        match std::fs::read_to_string(&path).map(|t| Json::parse(&t)) {
            Ok(Ok(doc)) => rows.push(doc),
            _ => return usage(&format!("cannot read context row {path}")),
        }
    }
    seeds.sort_unstable();
    let seeds: Vec<String> = seeds.iter().map(i64::to_string).collect();
    let doc =
        clear_harness::bench_out::bench_doc("perfbench", "per-metric", &seeds.join(","), rows);
    if let Err(e) = std::fs::write(&out, doc.to_pretty()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn str_of(j: Option<&Json>) -> String {
    match j {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

fn num_of(j: Option<&Json>) -> Option<f64> {
    match j {
        Some(Json::Float(f)) => Some(*f),
        Some(Json::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

/// One baseline row: a workload's runs in one mode, every metric's median
/// and quartiles over them.
fn group_row(workload: &str, traced: bool, details: &[Json]) -> Json {
    // metric name -> (unit, clock, values), in first-seen order.
    let mut series: Vec<(String, String, String, Vec<f64>)> = Vec::new();
    let block = if traced { "per_layer" } else { "metrics" };
    for d in details {
        let Some(Json::Obj(pairs)) = d.get(block) else {
            continue;
        };
        for (name, m) in pairs {
            let Some(v) = num_of(m.get("value")) else {
                continue;
            };
            match series.iter_mut().find(|s| s.0 == *name) {
                Some(s) => s.3.push(v),
                None => {
                    let clock = m
                        .get("clock")
                        .map_or("layer".to_string(), |c| str_of(Some(c)));
                    series.push((name.clone(), str_of(m.get("unit")), clock, vec![v]));
                }
            }
        }
    }
    let gated: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let metrics = series
        .iter()
        .map(|(name, unit, clock, values)| {
            let (q1, q3) = stats::quartiles(values);
            let med = stats::median(values);
            let entry = Json::obj([
                ("unit", Json::from(unit.as_str())),
                ("clock", Json::from(clock.as_str())),
                ("gated", Json::Bool(gated.contains(&name.as_str()))),
                ("median", Json::Float(med)),
                ("q1", Json::Float(q1)),
                ("q3", Json::Float(q3)),
                (
                    "iqr_share",
                    Json::Float(if med != 0.0 {
                        (q3 - q1) / med.abs()
                    } else {
                        0.0
                    }),
                ),
                ("n", Json::from(values.len())),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let digests: Vec<Json> = details
        .iter()
        .map(|d| {
            Json::obj([
                ("seed", d.get("seed").cloned().unwrap_or(Json::Null)),
                ("digest", d.get("digest").cloned().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::from(workload)),
        ("trace", Json::Bool(traced)),
        ("runs", Json::from(details.len())),
        (
            "host",
            details[0].get("host").cloned().unwrap_or(Json::Null),
        ),
        ("digests", Json::Arr(digests)),
        ("metrics", Json::Obj(metrics)),
    ])
}
