//! Study experiments: the ablation grid, per-AR breakdown, retry-threshold
//! DSE, a-priori-locking comparison, core scaling, SLE-vs-HTM speculation,
//! and the trace dump.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{run_once, trimmed_mean, SuiteOptions};
use clear_core::{ClearConfig, SclLockPolicy};
use clear_htm::HtmFlavor;
use clear_machine::{Backend, Machine, MachineConfig, Preset, RunStats, SpeculationKind};
use clear_workloads::{by_name, Size};
use std::fmt::Write as _;

/// CLEAR over requester-wins HTM with `tweak` applied to the paper's
/// structure sizes.
fn clear_variant(tweak: impl Fn(&mut ClearConfig)) -> Backend {
    let mut clear = ClearConfig::default();
    tweak(&mut clear);
    Backend::Clear {
        clear,
        flavor: HtmFlavor::RequesterWins,
        speculation: SpeculationKind::Htm,
    }
}

const ABLATION_APPS: [&str; 6] = [
    "arrayswap",
    "bst",
    "hashmap",
    "intruder",
    "labyrinth",
    "mwobject",
];
const ABLATION_VARIANTS: [&str; 7] = [
    "baseline_b",
    "c",
    "no_crt",
    "lock_all",
    "alt8",
    "alt64",
    "ert4",
];

fn ablation_variant(name: &str, variant: usize, opts: &SuiteOptions) -> RunStats {
    let backend = match variant {
        0 => Backend::Tsx,
        1 => Backend::CLEAR,
        2 => clear_variant(|cc| {
            cc.crt_sets = 1;
            cc.crt_ways = 1;
        }),
        3 => clear_variant(|cc| cc.scl_lock_policy = SclLockPolicy::AllAccessed),
        4 => clear_variant(|cc| cc.alt_entries = 8),
        5 => clear_variant(|cc| cc.alt_entries = 64),
        6 => clear_variant(|cc| cc.ert_entries = 4),
        _ => unreachable!("seven ablation variants"),
    };
    let cfg = MachineConfig {
        seed: opts.seeds[0],
        ..backend.config(opts.cores, 5)
    };
    run_once(name, opts.size, cfg)
}

pub(super) fn ablation(opts: &SuiteOptions) -> ExperimentOutput {
    let apps: Vec<&str> = ABLATION_APPS
        .iter()
        .copied()
        .filter(|n| opts.benchmarks.contains(n))
        .collect();
    let nv = ABLATION_VARIANTS.len();
    let stats = pool::run_indexed(apps.len() * nv, opts.workers, |i| {
        ablation_variant(apps[i / nv], i % nv, opts)
    });
    let mut text = String::new();
    let _ = writeln!(text, "=== CLEAR ablations (configuration C, retries=5) ===");
    let _ = writeln!(
        text,
        "{:12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "baseline-B", "C", "C/no-CRT", "C/lock-all", "C/ALT-8", "C/ALT-64", "C/ERT-4"
    );
    let mut rows = Vec::new();
    for (a, name) in apps.iter().enumerate() {
        let v = &stats[a * nv..(a + 1) * nv];
        let base = v[0].total_cycles;
        let ratio = |i: usize| v[i].total_cycles as f64 / base as f64;
        let _ = writeln!(
            text,
            "{:12} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name,
            base,
            ratio(1),
            ratio(2),
            ratio(3),
            ratio(4),
            ratio(5),
            ratio(6),
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(*name)),
            (
                "variant_cycles",
                Json::obj(
                    ABLATION_VARIANTS
                        .iter()
                        .zip(v)
                        .map(|(label, s)| (*label, Json::from(s.total_cycles))),
                ),
            ),
            (
                "variant_ratio",
                Json::obj(
                    ABLATION_VARIANTS
                        .iter()
                        .enumerate()
                        .skip(1)
                        .map(|(i, label)| (*label, Json::from(ratio(i)))),
                ),
            ),
        ]));
    }
    let _ = writeln!(
        text,
        "\ncolumns (except baseline-B, in cycles) are normalized to B; lower is better"
    );
    let json = Json::obj([
        ("experiment", Json::from("ablation")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn ar_breakdown(opts: &SuiteOptions) -> ExperimentOutput {
    let stats = pool::run_indexed(opts.benchmarks.len(), opts.workers, |i| {
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..Preset::C.config(opts.cores, 5)
        };
        run_once(opts.benchmarks[i], opts.size, cfg)
    });
    let mut text = String::new();
    let mut rows = Vec::new();
    for (name, stats) in opts.benchmarks.iter().zip(&stats) {
        let w = by_name(name, opts.size, opts.seeds[0]).expect("known benchmark");
        let meta = w.meta();
        let _ = writeln!(text, "\n=== {name} (configuration C) ===");
        let _ = writeln!(
            text,
            "{:16} {:18} {:>8} {:>8} {:>7} {:>7} {:>7} {:>9}",
            "AR", "static class", "commits", "aborts", "spec%", "S-CL%", "NS-CL%", "fallback%"
        );
        for spec in &meta.ars {
            let e = stats.ar_stats.get(&spec.id.0).copied().unwrap_or_default();
            let total = e.by_mode.total().max(1) as f64;
            let _ = writeln!(
                text,
                "{:16} {:18} {:>8} {:>8} {:>7.1} {:>7.1} {:>7.1} {:>9.1}",
                spec.name,
                spec.mutability.to_string(),
                e.commits,
                e.aborts,
                100.0 * e.by_mode.speculative as f64 / total,
                100.0 * e.by_mode.scl as f64 / total,
                100.0 * e.by_mode.nscl as f64 / total,
                100.0 * e.by_mode.fallback as f64 / total,
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("ar", Json::from(spec.name.clone())),
                ("class", Json::from(spec.mutability.to_string())),
                ("commits", Json::from(e.commits)),
                ("aborts", Json::from(e.aborts)),
                ("speculative", Json::from(e.by_mode.speculative)),
                ("scl", Json::from(e.by_mode.scl)),
                ("nscl", Json::from(e.by_mode.nscl)),
                ("fallback", Json::from(e.by_mode.fallback)),
            ]));
        }
    }
    let _ = writeln!(
        text,
        "\nimmutable ARs should convert to NS-CL under contention; likely-immutable"
    );
    let _ = writeln!(
        text,
        "and small mutable ARs to S-CL; oversized ARs stay speculative/fallback"
    );
    let json = Json::obj([
        ("experiment", Json::from("ar-breakdown")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn dse_retries(opts: &SuiteOptions) -> ExperimentOutput {
    let mut opts = opts.clone();
    if opts.retry_sweep.len() <= 3 {
        opts.retry_sweep = (1..=10).collect();
    }
    let presets = Preset::ALL;
    let (nb, np, nr, ns) = (
        opts.benchmarks.len(),
        presets.len(),
        opts.retry_sweep.len(),
        opts.seeds.len(),
    );
    let grid = pool::run_indexed(nb * np * nr * ns, opts.workers, |i| {
        let s = i % ns;
        let r = (i / ns) % nr;
        let p = (i / (ns * nr)) % np;
        let b = i / (ns * nr * np);
        let cfg = MachineConfig {
            seed: opts.seeds[s],
            ..presets[p].config(opts.cores, opts.retry_sweep[r])
        };
        run_once(opts.benchmarks[b], opts.size, cfg).total_cycles as f64
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Retry-threshold design-space exploration (cycles, per threshold) ==="
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let _ = writeln!(text, "\n{name}:");
        let _ = write!(text, "{:>4}", "cfg");
        for r in &opts.retry_sweep {
            let _ = write!(text, " {:>10}", format!("r={r}"));
        }
        let _ = writeln!(text, " {:>6}", "best");
        for (p, preset) in presets.iter().enumerate() {
            let _ = write!(text, "{:>4}", preset.letter());
            let mut best = (0u32, f64::INFINITY);
            let mut means = Vec::new();
            for (r, &retries) in opts.retry_sweep.iter().enumerate() {
                let base = ((b * np + p) * nr + r) * ns;
                let cycles: Vec<f64> = grid[base..base + ns].to_vec();
                let mean = trimmed_mean(&cycles);
                if mean < best.1 {
                    best = (retries, mean);
                }
                means.push(mean);
                let _ = write!(text, " {:>10.0}", mean);
            }
            let _ = writeln!(text, " {:>6}", format!("r={}", best.0));
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("preset", Json::from(preset.letter().to_string())),
                ("mean_cycles", Json::arr(means.into_iter().map(Json::from))),
                ("best_retries", Json::from(best.0)),
            ]));
        }
    }
    let json = Json::obj([
        ("experiment", Json::from("dse-retries")),
        ("options", opts_json(&opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn mad_vs_clear(opts: &SuiteOptions) -> ExperimentOutput {
    // Benchmarks with at least one statically-lockable AR.
    let eligible = [
        "arrayswap",
        "mwobject",
        "kmeans-h",
        "kmeans-l",
        "ssca2",
        "sorted-list",
    ];
    let apps: Vec<&str> = eligible
        .iter()
        .copied()
        .filter(|n| opts.benchmarks.contains(n))
        .collect();
    let cores_axis = [2usize, 8, 32];
    let (nc, nv) = (cores_axis.len(), 3);
    let stats = pool::run_indexed(apps.len() * nc * nv, opts.workers, |i| {
        let v = i % nv;
        let c = (i / nv) % nc;
        let name = apps[i / (nv * nc)];
        let backend = [Backend::Tsx, Backend::APriori, Backend::CLEAR][v];
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..backend.config(cores_axis[c], 5)
        };
        run_once(name, opts.size, cfg)
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== a-priori locking (MAD/MCAS-style) vs speculation vs CLEAR ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>6} | {:>12} {:>12} {:>12} | {:>8} {:>8}",
        "benchmark", "cores", "B cycles", "MAD cycles", "C cycles", "MAD/B", "C/B"
    );
    let mut rows = Vec::new();
    for (a, name) in apps.iter().enumerate() {
        for (c, &cores) in cores_axis.iter().enumerate() {
            let base = (a * nc + c) * nv;
            let (b, mad, cl) = (&stats[base], &stats[base + 1], &stats[base + 2]);
            let _ = writeln!(
                text,
                "{:14} {:>6} | {:>12} {:>12} {:>12} | {:>8.2} {:>8.2}",
                name,
                cores,
                b.total_cycles,
                mad.total_cycles,
                cl.total_cycles,
                mad.total_cycles as f64 / b.total_cycles as f64,
                cl.total_cycles as f64 / b.total_cycles as f64,
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("cores", Json::from(cores)),
                ("b_cycles", Json::from(b.total_cycles)),
                ("mad_cycles", Json::from(mad.total_cycles)),
                ("c_cycles", Json::from(cl.total_cycles)),
            ]));
        }
    }
    let _ = writeln!(
        text,
        "\nreading the table: MAD excels exactly where its static footprints apply"
    );
    let _ = writeln!(
        text,
        "(write-heavy immutable ARs like arrayswap/mwobject) but cannot touch the"
    );
    let _ = writeln!(
        text,
        "mutable/indirect ARs, so CLEAR matches or beats it on mixed workloads"
    );
    let _ = writeln!(
        text,
        "(kmeans, ssca2, sorted-list) — and needs no new instructions (§1)"
    );
    let json = Json::obj([
        ("experiment", Json::from("mad-vs-clear")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn scaling(opts: &SuiteOptions) -> ExperimentOutput {
    let cores_axis = [2usize, 4, 8, 16, 32];
    let presets = Preset::ALL;
    let (nb, nc, np) = (opts.benchmarks.len(), cores_axis.len(), presets.len());
    let grid = pool::run_indexed(nb * nc * np, opts.workers, |i| {
        let p = i % np;
        let c = (i / np) % nc;
        let b = i / (np * nc);
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..presets[p].config(cores_axis[c], 5)
        };
        run_once(opts.benchmarks[b], opts.size, cfg).total_cycles
    });
    let mut text = String::new();
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let _ = writeln!(text, "\n=== {name}: execution cycles vs cores ===");
        let _ = write!(text, "{:>6}", "cores");
        for preset in presets {
            let _ = write!(text, " {:>12}", format!("{preset}"));
        }
        let _ = writeln!(text, " {:>8}", "C/B");
        for (c, &cores) in cores_axis.iter().enumerate() {
            let _ = write!(text, "{cores:>6}");
            let mut cycles = [0u64; 4];
            for p in 0..np {
                let v = grid[(b * nc + c) * np + p];
                cycles[p] = v;
                let _ = write!(text, " {v:>12}");
            }
            let _ = writeln!(text, " {:>8.2}", cycles[2] as f64 / cycles[0] as f64);
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("cores", Json::from(cores)),
                ("cycles", Json::arr(cycles.iter().map(|&v| Json::from(v)))),
            ]));
        }
    }
    let _ = writeln!(
        text,
        "\nC/B < 1 means CLEAR beats the requester-wins baseline at that core count"
    );
    let json = Json::obj([
        ("experiment", Json::from("scaling")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn sle_vs_htm(opts: &SuiteOptions) -> ExperimentOutput {
    let kinds = [SpeculationKind::Htm, SpeculationKind::InCore];
    let stats = pool::run_indexed(opts.benchmarks.len() * 2, opts.workers, |i| {
        let backend = Backend::Clear {
            clear: ClearConfig::default(),
            flavor: HtmFlavor::RequesterWins,
            speculation: kinds[i % 2],
        };
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..backend.config(opts.cores, 5)
        };
        run_once(opts.benchmarks[i / 2], opts.size, cfg)
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== CLEAR with in-core (SLE) vs out-of-core (HTM) speculation ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "benchmark", "HTM cycles", "HTM fb%", "HTM apc", "SLE cycles", "SLE fb%", "SLE apc"
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let cols: Vec<(u64, f64, f64)> = (0..2)
            .map(|k| {
                let s = &stats[b * 2 + k];
                (
                    s.total_cycles,
                    100.0 * s.commits_by_mode.fallback as f64 / s.commits() as f64,
                    s.aborts_per_commit(),
                )
            })
            .collect();
        let _ = writeln!(
            text,
            "{:14} {:>12} {:>12.1} {:>9.2} | {:>12} {:>12.1} {:>9.2}",
            name, cols[0].0, cols[0].1, cols[0].2, cols[1].0, cols[1].1, cols[1].2
        );
        let side = |c: &(u64, f64, f64)| {
            Json::obj([
                ("cycles", Json::from(c.0)),
                ("fallback_pct", Json::from(c.1)),
                ("aborts_per_commit", Json::from(c.2)),
            ])
        };
        rows.push(Json::obj([
            ("benchmark", Json::from(*name)),
            ("htm", side(&cols[0])),
            ("sle", side(&cols[1])),
        ]));
    }
    let _ = writeln!(
        text,
        "\nfb% = share of ARs completing on the fallback path; apc = aborts per commit"
    );
    let _ = writeln!(
        text,
        "in-core speculation pushes ROB-exceeding ARs (long traversals) to fallback"
    );
    let json = Json::obj([
        ("experiment", Json::from("sle")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn trace_dump(opts: &SuiteOptions) -> ExperimentOutput {
    let name = opts.benchmarks.first().copied().unwrap_or("mwobject");
    let cores = opts.cores.min(8);
    let w = by_name(name, Size::Tiny, opts.seeds[0]).expect("known benchmark");
    let mut cfg = Preset::C.config(cores, 5);
    cfg.seed = opts.seeds[0];
    let mut m = Machine::new(cfg, w);
    m.enable_tracing();
    let stats = m.run();
    m.workload().validate(m.memory()).expect("invariant");

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== trace of {name} under CLEAR ({cores} cores, tiny input) ===\n"
    );
    let total = m.trace().len();
    let shown = total.min(400);
    for r in m.trace().records().take(shown) {
        let _ = writeln!(text, "{:>8}  core{:<2}  {}", r.cycle, r.core, r.event);
    }
    if total > shown {
        let _ = writeln!(text, "... {} more events", total - shown);
    }
    let _ = writeln!(
        text,
        "\n{} commits ({} NS-CL, {} S-CL, {} fallback), {} aborts, {} cycles",
        stats.commits(),
        stats.commits_by_mode.nscl,
        stats.commits_by_mode.scl,
        stats.commits_by_mode.fallback,
        stats.aborts.total(),
        stats.total_cycles
    );
    let json = Json::obj([
        ("experiment", Json::from("trace")),
        ("options", opts_json(opts)),
        ("benchmark", Json::from(name)),
        ("events", Json::from(total)),
        ("events_recorded", Json::from(m.trace().recorded())),
        ("events_dropped", Json::from(m.trace().dropped())),
        (
            "digest",
            Json::from(crate::trace_export::digest_hex(m.trace().digest())),
        ),
        ("commits", Json::from(stats.commits())),
        ("aborts", Json::from(stats.aborts.total())),
        ("total_cycles", Json::from(stats.total_cycles)),
    ]);
    ExperimentOutput::new(text, json)
}
