//! The `clear-harness` CLI: list experiments, run them, and manage the
//! golden regression baselines.
//!
//! ```text
//! clear-harness list
//! clear-harness run <name>|all [suite options] [--json]
//! clear-harness trace <workload> [suite options] [--chrome FILE] [--events N] [--json]
//! clear-harness analyze <workload>|all [suite options] [--plan] [--json]
//! clear-harness golden update [names...]
//! clear-harness check [names...]
//! ```

use clear_harness::experiments::{
    analyze_output, find, fuzz_output, matrix_output, parse_seed, replay_output, Experiment,
    EXPERIMENTS,
};
use clear_harness::json::Json;
use clear_harness::serve::{serve_session, ServeOptions};
use clear_harness::{bench_out, golden, metrics_export, trace_export, SuiteOptions};
use clear_machine::Preset;

fn usage() -> ! {
    eprintln!(
        "usage:\n  clear-harness list\n  clear-harness run <name>|all \
         [--size tiny|small|medium] [--cores N] [--seeds N]\n      \
         [--sweep full|quick|none] [--bench NAME] [--workers N] [--threads N]\n      \
         [--bench-out FILE] [--json]\n  \
         clear-harness serve <workload> [--size ...] [--cores N] [--seeds N] [--threads N]\n      \
         [--ars N] [--batch N] [--queue N] [--rate CYCLES] [--replay FILE]\n      \
         [--snapshot-out FILE] [--prom-out FILE] [--bench-out FILE] [--json]\n  \
         clear-harness trace <workload> [--size ...] [--cores N] [--seeds N]\n      \
         [--chrome FILE] [--arrivals FILE] [--events N] [--json]\n  \
         clear-harness analyze <workload>|all [--size ...] [--cores N] [--seeds N]\n      \
         [--plan] [--json]\n  \
         clear-harness fuzz [--seed S] [--count N] [--cores N] [--workers N] [--json]\n      \
         [--matrix] [--out FILE] [--bench-out FILE] [--repro-dir DIR] [--replay FILE]\n  \
         clear-harness golden update [names...]\n  clear-harness check [names...]"
    );
    std::process::exit(2);
}

/// Parses the suite options shared by `run`, `serve`, `trace` and
/// `analyze`; a malformed option prints the error and the usage text and
/// exits 2.
fn suite_options(args: &[String]) -> SuiteOptions {
    SuiteOptions::from_arg_slice(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("golden") if args.get(1).map(String::as_str) == Some("update") => update(&args[2..]),
        Some("check") => check(&args[1..]),
        _ => usage(),
    }
}

/// `clear-harness fuzz`: differential fuzzing of the AR semantics — the
/// clear-isa VM vs the full machine under contention vs the static
/// analyzer. The report itself is deterministic; only `BENCH_fuzz.json`
/// carries wall-clock throughput.
fn fuzz(args: &[String]) {
    let mut rest: Vec<String> = args.to_vec();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = rest.iter().position(|a| a == flag)?;
        if i + 1 >= rest.len() {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        }
        let v = rest.remove(i + 1);
        rest.remove(i);
        Some(v)
    };
    let seed_str = take_value("--seed").unwrap_or_else(|| "0xC1EAR".to_string());
    let count: u64 = take_value("--count")
        .map(|v| v.parse().expect("--count N"))
        .unwrap_or(256);
    let workers: usize = take_value("--workers")
        .map(|v| v.parse::<usize>().expect("--workers N").max(1))
        .unwrap_or_else(clear_harness::pool::default_workers);
    // 0 (the default) keeps each case's own contended thread count; a
    // positive value widens every contended phase to that many cores.
    let cores: usize = take_value("--cores")
        .map(|v| v.parse::<usize>().expect("--cores N"))
        .unwrap_or(0);
    let out_path = take_value("--out");
    let bench_path = take_value("--bench-out");
    let repro_dir = take_value("--repro-dir");
    let replay_path = take_value("--replay");
    let as_json = rest
        .iter()
        .position(|a| a == "--json")
        .map(|i| rest.remove(i))
        .is_some();
    // `--matrix`: run each case through every speculation backend via the
    // backend-differential oracle instead of the single-config oracle.
    let matrix = rest
        .iter()
        .position(|a| a == "--matrix")
        .map(|i| rest.remove(i))
        .is_some();
    if !rest.is_empty() {
        eprintln!("unknown fuzz option {}", rest[0]);
        std::process::exit(2);
    }
    if matrix && (replay_path.is_some() || cores != 0) {
        eprintln!("--matrix runs cases at their own thread counts; drop --replay/--cores");
        std::process::exit(2);
    }

    let started = std::time::Instant::now();
    let (out, cases_run) = match &replay_path {
        Some(path) => {
            let entries = read_corpus(path);
            let n = entries.len() as u64;
            (replay_output(&entries, workers), n)
        }
        None if matrix => (matrix_output(&seed_str, count, workers), count),
        None => (fuzz_output(&seed_str, count, workers, cores), count),
    };
    let wall = started.elapsed();

    if as_json {
        println!("{}", out.json.to_pretty());
    } else {
        print!("{}", out.text);
    }
    if let Some(path) = &out_path {
        write_file(path, &out.json.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(path) = &bench_path {
        let steps =
            int_field(&out.json, "machine_instructions") + int_field(&out.json, "reference_steps");
        let secs = wall.as_secs_f64().max(1e-9);
        let row = Json::obj([
            ("cases", Json::from(cases_run)),
            ("workers", Json::from(workers)),
            ("wall_ns", Json::from(wall.as_nanos() as u64)),
            ("steps", Json::from(steps)),
            ("programs_per_sec", Json::Float(cases_run as f64 / secs)),
            ("steps_per_sec", Json::Float(steps as f64 / secs)),
        ]);
        let bench = bench_out::bench_doc(
            if matrix { "fuzz-matrix" } else { "fuzz" },
            "programs/s",
            &seed_str,
            vec![row],
        );
        write_file(path, &bench.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(dir) = &repro_dir {
        if let Some(Json::Arr(failures)) = out.json.get("failures") {
            if !failures.is_empty() {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {dir}: {e}");
                    std::process::exit(1);
                });
                for f in failures {
                    let Some(Json::Int(index)) = f.get("index") else {
                        continue;
                    };
                    let path = format!("{dir}/repro-{}-{index}.json", seed_str.replace("0x", ""));
                    write_file(&path, &f.to_pretty());
                    eprintln!("wrote reproducer {path}");
                }
            }
        }
    }
    if out.failures > 0 {
        std::process::exit(1);
    }
}

/// Reads a regression-corpus JSON file: `{"entries": [{"name", "seed",
/// "index"}, ...]}`, with seeds in any `parse_seed` spelling.
fn read_corpus(path: &str) -> Vec<(String, u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read corpus {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("corpus {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        eprintln!("corpus {path}: missing entries array");
        std::process::exit(2);
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = match e.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => format!("entry-{i}"),
            };
            let seed = match e.get("seed") {
                Some(Json::Str(s)) => parse_seed(s),
                Some(Json::Int(v)) => *v as u64,
                _ => {
                    eprintln!("corpus {path}: entry {i} has no seed");
                    std::process::exit(2);
                }
            };
            let index = match e.get("index") {
                Some(Json::Int(v)) => *v as u64,
                _ => {
                    eprintln!("corpus {path}: entry {i} has no index");
                    std::process::exit(2);
                }
            };
            (name, seed, index)
        })
        .collect()
}

fn int_field(doc: &Json, key: &str) -> u64 {
    match doc.get(key) {
        Some(Json::Int(v)) => *v as u64,
        _ => 0,
    }
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// `clear-harness serve <workload>`: the bounded-memory trace-replay /
/// open-loop service loop with streaming time-to-commit percentiles.
/// Memory use is independent of `--ars`, so million-AR sessions are fine.
fn serve(args: &[String]) {
    let Some(workload) = args.first() else {
        usage()
    };
    let mut rest: Vec<String> = args[1..].to_vec();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = rest.iter().position(|a| a == flag)?;
        if i + 1 >= rest.len() {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        }
        let v = rest.remove(i + 1);
        rest.remove(i);
        Some(v)
    };
    let total_ars: u64 = take_value("--ars")
        .map(|v| v.parse().expect("--ars N"))
        .unwrap_or(4096);
    let batch: usize = take_value("--batch")
        .map(|v| v.parse().expect("--batch N"))
        .unwrap_or(256);
    let queue: usize = take_value("--queue")
        .map(|v| v.parse().expect("--queue N"))
        .unwrap_or(512);
    let rate: u64 = take_value("--rate")
        .map(|v| v.parse().expect("--rate CYCLES"))
        .unwrap_or(24);
    let replay_gaps = take_value("--replay").map(|path| read_gaps(&path));
    let snapshot_path = take_value("--snapshot-out");
    let prom_path = take_value("--prom-out");
    let bench_path = take_value("--bench-out");
    let as_json = rest
        .iter()
        .position(|a| a == "--json")
        .map(|i| rest.remove(i))
        .is_some();
    let opts = suite_options(&rest);
    let sopts = ServeOptions {
        workload: workload.clone(),
        size: opts.size,
        cores: opts.cores,
        seed: opts.seeds[0],
        total_ars,
        batch,
        queue,
        rate,
        replay_gaps,
        sim_threads: opts.sim_threads,
        snapshot_every: 8,
        max_retries: 5,
    };
    let report = serve_session(&sopts);
    if as_json {
        println!("{}", report.json.to_pretty());
    } else {
        print!("{}", report.text);
    }
    if let Some(path) = &snapshot_path {
        write_file(path, &report.json.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(path) = &prom_path {
        let text = metrics_export::prometheus_text(&report.registry.snapshot());
        // Self-validate the exposition before writing, exactly like the
        // Chrome-trace exporter does for its output.
        let summary = metrics_export::validate_prometheus(&text).unwrap_or_else(|e| {
            eprintln!("prometheus exposition failed validation: {e}");
            std::process::exit(1);
        });
        write_file(path, &text);
        eprintln!(
            "wrote {path}: {} samples across {} families (validated)",
            summary.samples, summary.families
        );
    }
    if let Some(path) = &bench_path {
        let doc = bench_out::bench_doc(
            "serve",
            "ars/s",
            &sopts.seed.to_string(),
            report.trajectory.clone(),
        );
        write_file(path, &doc.to_pretty());
        eprintln!("wrote {path}");
    }
}

/// Reads a `trace --arrivals` document (`{"workload", "seed", "gaps"}`)
/// back into the gap list `serve --replay` cycles through.
fn read_gaps(path: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read arrivals {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("arrivals {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Some(Json::Arr(gaps)) = doc.get("gaps") else {
        eprintln!("arrivals {path}: missing gaps array");
        std::process::exit(2);
    };
    let gaps: Vec<u64> = gaps
        .iter()
        .filter_map(|g| match g {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        })
        .collect();
    if gaps.is_empty() {
        eprintln!("arrivals {path}: no usable gaps");
        std::process::exit(2);
    }
    gaps
}

/// `clear-harness trace <workload>`: run one benchmark with tracing on,
/// print the timeline and derived metrics, and optionally export the
/// stream as Chrome Trace Event Format JSON (Perfetto-loadable).
fn trace(args: &[String]) {
    let Some(workload) = args.first() else {
        usage()
    };
    let mut rest: Vec<String> = args[1..].to_vec();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = rest.iter().position(|a| a == flag)?;
        if i + 1 >= rest.len() {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        }
        let v = rest.remove(i + 1);
        rest.remove(i);
        Some(v)
    };
    let chrome_path = take_value("--chrome");
    let arrivals_path = take_value("--arrivals");
    let events_limit: usize = take_value("--events")
        .map(|v| v.parse().expect("--events N"))
        .unwrap_or(400);
    let as_json = rest
        .iter()
        .position(|a| a == "--json")
        .map(|i| rest.remove(i))
        .is_some();
    let opts = suite_options(&rest);
    let seed = opts.seeds[0];
    let m = trace_export::run_traced(workload, Preset::C, opts.cores, 5, opts.size, seed);
    let metrics = trace_export::derive_metrics(&m, 8);

    if let Some(path) = &chrome_path {
        let doc = trace_export::chrome_trace(&m, workload, seed);
        let text = doc.to_pretty();
        // Re-validating the written bytes through the in-tree parser keeps
        // the export honest: CI's smoke step relies on this check.
        let summary = trace_export::validate_chrome_trace(&text).unwrap_or_else(|e| {
            eprintln!("exported chrome trace failed validation: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {path}: {} chrome events across {} cores (validated)",
            summary.events, summary.cores
        );
    }

    if let Some(path) = &arrivals_path {
        let doc = trace_export::arrival_gaps(&m, workload, seed);
        let gaps = match doc.get("gaps") {
            Some(Json::Arr(g)) => g.len(),
            _ => 0,
        };
        write_file(path, &doc.to_pretty());
        eprintln!("wrote {path}: {gaps} inter-arrival gaps (serve --replay input)");
    }

    if as_json {
        let doc = Json::obj([
            ("benchmark", Json::from(workload.as_str())),
            ("cores", Json::from(opts.cores)),
            ("seed", Json::from(seed)),
            ("events_recorded", Json::from(m.trace().recorded())),
            ("events_dropped", Json::from(m.trace().dropped())),
            (
                "digest",
                Json::from(trace_export::digest_hex(m.trace().digest())),
            ),
            ("derived", metrics.to_json()),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "=== trace of {workload} under CLEAR ({} cores, {} input, seed {seed}) ===\n",
            opts.cores,
            clear_harness::experiments::size_str(opts.size),
        );
        print!("{}", trace_export::timeline_text(&m, events_limit));
        println!();
        print!("{}", metrics.to_text());
    }
}

/// `clear-harness analyze <workload>|all`: ahead-of-time static analysis
/// of every AR a workload registers — verdicts, footprint bounds and
/// lints — without executing anything. Exits non-zero when a lint fires.
fn analyze(args: &[String]) {
    let Some(workload) = args.first() else {
        usage()
    };
    let mut rest: Vec<String> = args[1..].to_vec();
    let as_json = rest
        .iter()
        .position(|a| a == "--json")
        .map(|i| rest.remove(i))
        .is_some();
    // `--plan`: also emit the analyzer's StaticPlans (fast-path lock
    // sets, written subsets, root slots, per-backend budget fit).
    let with_plans = rest
        .iter()
        .position(|a| a == "--plan")
        .map(|i| rest.remove(i))
        .is_some();
    let opts = suite_options(&rest);
    let out = analyze_output(workload, &opts, with_plans).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if as_json {
        println!("{}", out.json.to_pretty());
    } else {
        print!("{}", out.text);
    }
    if out.failures > 0 {
        std::process::exit(1);
    }
}

fn list() {
    println!("{:16} {:20} {:>7}  about", "name", "artifact", "golden");
    for e in EXPERIMENTS {
        let gated = if e.golden.is_some() { "yes" } else { "-" };
        println!("{:16} {:20} {:>7}  {}", e.name, e.artifact, gated, e.about);
    }
}

fn run(args: &[String]) {
    let Some(name) = args.first() else { usage() };
    let mut rest: Vec<String> = args[1..].to_vec();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = rest.iter().position(|a| a == flag)?;
        if i + 1 >= rest.len() {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        }
        let v = rest.remove(i + 1);
        rest.remove(i);
        Some(v)
    };
    let bench_path = take_value("--bench-out");
    let as_json = rest
        .iter()
        .position(|a| a == "--json")
        .map(|i| rest.remove(i))
        .is_some();
    let opts = suite_options(&rest);
    let selected: Vec<&Experiment> = if name == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        vec![find(name).unwrap_or_else(|| {
            eprintln!("unknown experiment {name} (try `clear-harness list`)");
            std::process::exit(2);
        })]
    };
    let mut failures = 0;
    let mut curve: Vec<Json> = Vec::new();
    for e in selected {
        let out = (e.run)(&opts);
        if as_json {
            // The metrics side-channel is appended to the *printed*
            // document only, never to the golden-compared `out.json`.
            let mut doc = out.json.clone();
            if let (Json::Obj(fields), Some(m)) = (&mut doc, &out.metrics) {
                fields.push(("metrics".to_string(), m.clone()));
            }
            println!("{}", doc.to_pretty());
        } else {
            print!("{}", out.text);
        }
        curve.extend(throughput_curve(&out.json));
        failures += out.failures;
    }
    if let Some(path) = &bench_path {
        let mut rows = curve;
        for row in &mut rows {
            if let Json::Obj(fields) = row {
                fields.insert(0, ("experiment".to_string(), Json::from(name.as_str())));
            }
        }
        let bench = bench_out::bench_doc("sim", "steps/s", &opts.seeds[0].to_string(), rows);
        write_file(path, &bench.to_pretty());
        eprintln!("wrote {path}");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Extracts a steps-per-second-by-core-count curve from an experiment
/// document for `BENCH_sim.json`: every row carrying both a `cores` and a
/// `steps_per_sec` field contributes one point (today that is the
/// `scaling-wide` ladder; other experiments simply contribute nothing).
fn throughput_curve(doc: &Json) -> Vec<Json> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Vec::new();
    };
    rows.iter()
        .filter(|r| r.get("cores").is_some() && r.get("steps_per_sec").is_some())
        .map(|r| {
            let f = |k: &str| r.get(k).cloned().unwrap_or(Json::Null);
            Json::obj([
                ("cores", f("cores")),
                ("steps", f("steps")),
                ("wall_ns", f("wall_ns")),
                ("steps_per_sec", f("steps_per_sec")),
            ])
        })
        .collect()
}

/// Resolves the gated experiments named on the command line (all of them
/// when the list is empty).
fn gated(names: &[String]) -> Vec<&'static Experiment> {
    let all: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.golden.is_some()).collect();
    if names.is_empty() {
        return all;
    }
    names
        .iter()
        .map(|n| {
            *all.iter().find(|e| e.name == *n).unwrap_or_else(|| {
                eprintln!(
                    "{n} is not a gated experiment (gated: {})",
                    gated_names(&all)
                );
                std::process::exit(2);
            })
        })
        .collect()
}

fn gated_names(all: &[&Experiment]) -> String {
    all.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
}

fn update(names: &[String]) {
    for e in gated(names) {
        let spec = e.golden.expect("gated");
        let opts = (spec.opts)();
        eprintln!("regenerating golden for {} ({})...", e.name, e.artifact);
        let out = (e.run)(&opts);
        match golden::store(e.name, &out.json) {
            Ok(path) => eprintln!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("  {e}");
                std::process::exit(1);
            }
        }
    }
}

fn check(names: &[String]) {
    let mut drifted = 0usize;
    for e in gated(names) {
        let spec = e.golden.expect("gated");
        let baseline = match golden::load(e.name) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("{}: {msg}", e.name);
                eprintln!(
                    "  (run `clear-harness golden update {}` to create it)",
                    e.name
                );
                drifted += 1;
                continue;
            }
        };
        let opts = (spec.opts)();
        eprintln!(
            "checking {} against {}...",
            e.name,
            golden::golden_path(e.name).display()
        );
        let out = (e.run)(&opts);
        let drifts = golden::compare(&baseline, &out.json, &spec.tolerances);
        if drifts.is_empty() {
            eprintln!("  ok");
        } else {
            drifted += 1;
            eprintln!("  {} drift(s):", drifts.len());
            for d in drifts.iter().take(25) {
                eprintln!("    {d}");
            }
            if drifts.len() > 25 {
                eprintln!("    ... {} more", drifts.len() - 25);
            }
        }
    }
    if drifted > 0 {
        eprintln!("\ngolden check FAILED for {drifted} experiment(s)");
        std::process::exit(1);
    }
    eprintln!("\nall golden checks passed");
}
