//! Runs the benchmark's smoke mode (tiny sizes, about a second per
//! workload) untraced and traced, and checks its output against
//! `BENCHMARK.json`: every result line parses and passes, every named
//! metric appears with its unit on every workload, each workload's own
//! metrics appear on it, and the traced shares of `Machine::run` sum to 1.

use clear_harness::json::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["suite-medium", "wide-512", "serve-queue", "fuzz-oracle"];

/// The workload-level metrics each workload reports in its detail line,
/// beside the gated ones.
const WORKLOAD_METRICS: [(&str, &[(&str, &str)]); 4] = [
    (
        "suite-medium",
        &[
            ("setup_s", "s"),
            ("steps_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
            ("fail_rate", "ratio"),
            ("c_vs_b_cycles", "ratio"),
            ("first_retry_share", "ratio"),
        ],
    ),
    (
        "wide-512",
        &[
            ("setup_s", "s"),
            ("steps_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
            ("fail_rate", "ratio"),
        ],
    ),
    (
        "serve-queue",
        &[
            ("setup_s", "s"),
            ("steps_per_s", "1/s"),
            ("ars_per_s", "1/s"),
            ("batch_ms_p50", "ms"),
            ("batch_ms_p90", "ms"),
            ("peak_rss_mb", "MB"),
            ("fail_rate", "ratio"),
            ("ttc_p99_cycles", "cycles"),
        ],
    ),
    (
        "fuzz-oracle",
        &[
            ("setup_s", "s"),
            ("cases_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
            ("fail_rate", "ratio"),
        ],
    ),
];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {list} entry"),
        })
        .collect()
}

/// Runs the smoke mode over every workload; returns `(detail, result)`
/// line pairs in workload order.
fn smoke(trace: &str) -> Vec<(Json, Json)> {
    let out = Command::new(env!("CARGO_BIN_EXE_clear-perfbench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parse = |prefix: &str| -> Vec<Json> {
        stdout
            .lines()
            .filter(|l| l.starts_with(prefix))
            .map(|l| Json::parse(l).expect("output line parses"))
            .collect()
    };
    let details = parse("{\"detail\"");
    let results = parse("{\"correct\"");
    assert_eq!(details.len(), WORKLOADS.len());
    assert_eq!(results.len(), WORKLOADS.len());
    assert!(stdout.trim_end().ends_with('}'), "a result line comes last");
    details.into_iter().zip(results).collect()
}

fn value(metrics: &Json, name: &str, unit: &str) -> f64 {
    let m = metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"));
    assert_eq!(m.get("unit"), Some(&Json::from(unit)), "unit of {name}");
    match m.get("value") {
        Some(Json::Float(v)) => *v,
        Some(Json::Int(v)) => *v as f64,
        other => panic!("{name} has no numeric value: {other:?}"),
    }
}

fn check_result(result: &Json, list: &[(String, String)]) -> Json {
    let Json::Obj(pairs) = result else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::Int(0)));
    assert!(matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1));
    let metrics = result.get("metrics").expect("metrics").clone();
    let Json::Obj(reported) = &metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(reported.len(), list.len(), "exactly the declared metrics");
    for (name, unit) in list {
        assert!(value(&metrics, name, unit).is_finite(), "{name} is finite");
    }
    metrics
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    let list = declared("end_to_end");
    for ((detail, result), workload) in smoke("0").iter().zip(WORKLOADS) {
        let d = detail.get("detail").expect("detail record");
        assert_eq!(d.get("workload"), Some(&Json::from(workload)));
        let metrics = check_result(result, &list);
        for (name, unit) in &list {
            assert!(
                value(&metrics, name, unit) > 0.0,
                "{workload}: {name} is positive"
            );
        }
        let own = d.get("metrics").expect("detail metrics");
        let (_, expected) = WORKLOAD_METRICS
            .iter()
            .find(|(w, _)| *w == workload)
            .expect("known workload");
        for (name, unit) in *expected {
            assert!(value(own, name, unit).is_finite(), "{workload}: {name}");
        }
        assert_eq!(value(own, "fail_rate", "ratio"), 0.0);
        assert!(matches!(d.get("digest"), Some(Json::Str(s)) if s.len() == 16));
    }
}

#[test]
fn traced_smoke_reports_every_layer_and_shares_sum_to_one() {
    let list = declared("per_layer");
    for ((_, result), workload) in smoke("1").iter().zip(WORKLOADS) {
        let metrics = check_result(result, &list);
        let share = |name: &str| value(&metrics, name, "ratio");
        let sum = share("isa.vm_share_est")
            + share("coherence.share_est")
            + share("core.share_est")
            + share("machine.other_share_est");
        assert!((sum - 1.0).abs() < 1e-9, "{workload}: shares sum to {sum}");
        assert!(value(&metrics, "machine.run_s", "s") > 0.0, "{workload}");
        assert!(
            value(&metrics, "machine.steps", "count") > 0.0,
            "{workload}"
        );
    }
}
