//! `--quick` boots all six workloads, end to end and traced: every
//! correctness check passes, every metric `BENCHMARK.json` names is
//! present and finite, and what is printed parses back.

use drqos_benchmark::e2e::{measure, Options};
use drqos_benchmark::json::Json;
use drqos_benchmark::layers::{trace, PER_LAYER};
use drqos_benchmark::ops::{Kind, SPECS};
use drqos_benchmark::report::{end_to_end, Record, END_TO_END, OBSERVED};
use std::path::Path;
use std::process::Command;

const QUICK: Options = Options {
    seed: 2001,
    seconds: 6,
    quick: true,
    trace: false,
};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn assert_record(record: &Record, declared: &[(String, String)]) {
    assert!(
        record.correct,
        "{}: a correctness check failed",
        record.workload
    );
    assert_eq!(record.failed, 0, "{}", record.workload);
    assert!(record.attempted >= 1);
    // What is printed parses back, and holds exactly the declared metrics.
    let line = Json::parse(&record.contract_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), declared.len(), "{}", record.workload);
    for (name, unit) in declared {
        let m = line.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{}: {name} missing", record.workload));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{}: {name} is not a finite number",
            record.workload
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
    }
    let back = Record::from_json(&Json::parse(&record.to_json().to_string()).unwrap()).unwrap();
    assert_eq!(back.workload, record.workload);
    for (name, _) in declared {
        assert_eq!(back.value(name), record.value(name), "{name} round-trips");
    }
}

#[test]
fn the_code_and_benchmark_json_name_the_same_things() {
    let doc = benchmark_json();
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, SPECS.map(|s| s.name));
}

#[test]
fn quick_end_to_end_boots_all_six_workloads() {
    let declared = declared(&benchmark_json(), "end_to_end");
    for spec in &SPECS {
        let m = measure(spec, &QUICK).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for (check, ok) in m.checks() {
            assert!(ok, "{}: {check}", spec.name);
        }
        assert!(!m.cut_short, "{}", spec.name);
        // Single-client socket workloads were checked against the
        // in-process reference, not just against themselves.
        let expect_reference = spec.clients == 1 && spec.name != "burst16";
        assert_eq!(m.reference.is_some(), expect_reference, "{}", spec.name);
        let record = end_to_end(&m);
        assert_record(&record, &declared);
        for (name, _) in &declared {
            assert!(
                record.value(name).unwrap() > 0.0,
                "{}: {name} is zero",
                spec.name
            );
        }
        // The issue's metrics, as the clock read them, ride along; only
        // `fault_p50_us` (no faults) and `failed_ratio` may be zero.
        let names: Vec<&str> = record.observed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, OBSERVED.map(|(name, _)| name));
        for m in &record.observed {
            let may_be_zero = match m.name.as_str() {
                "fault_p50_us" => spec.name != "failover",
                "failed_ratio" => true,
                _ => false,
            };
            assert!(
                m.value.is_finite() && (may_be_zero || m.value > 0.0),
                "{}: {}",
                spec.name,
                m.name
            );
        }
        let shares = record.value("served_ratio").unwrap() + record.value("failed_ratio").unwrap();
        assert!((shares - 1.0).abs() < 1e-12);
        if spec.name == "burst16" {
            // One latency sample per batch — never sixteen amortised ones.
            let establish = m.raw.latency[Kind::Establish.index()].unwrap();
            assert_eq!(establish.samples as u64, m.steps);
            assert_eq!(m.window.admitted + m.window.rejected, m.steps * 16);
        }
    }
}

#[test]
fn quick_trace_reconciles_and_fills_every_layer_metric() {
    let declared = declared(&benchmark_json(), "per_layer");
    let opt = Options {
        trace: true,
        ..QUICK
    };
    for spec in &SPECS {
        let traced = trace(spec, &opt).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let r = &traced.record;
        assert_record(r, &declared);
        let v = |name: &str| r.value(name).unwrap();
        assert!(v("trace.spans") > 0.0);
        assert_eq!(v("trace.spans") as usize, traced.tracer.spans.len());
        // Spans of one request share its id and nest inside its root.
        for s in &traced.tracer.spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(parent) = traced.tracer.spans.get(s.parent as usize) {
                assert_eq!(parent.op, s.op);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        for (name, _) in OBSERVED {
            let zero_here = name == "fault_p50_us" && spec.name != "failover";
            assert!(
                name == "failed_ratio" || zero_here || v(name) > 0.0,
                "{name}"
            );
        }
        assert!(v("host_speed_factor") > 0.0);
        // The columns add up by construction; check the construction.
        let client = v("client.mean_latency_us");
        match spec.name {
            "cluster3" => {
                let sum = v("cluster.replica_set.op_us") + v("service.clusterd.remainder_us");
                assert!((client - sum).abs() < 1e-6 * client, "{client} vs {sum}");
                assert!(v("cluster.member.apply_us") > 0.0);
            }
            "burst16" => {
                assert!(v("core.network.batch16_us") > 0.0 && v("core.shard.wave16_us") > 0.0);
                assert_eq!(v("service.server.remainder_us"), 0.0, "no socket");
            }
            _ => {
                let sum = v("service.engine.handle_us") + v("service.server.remainder_us");
                assert!((client - sum).abs() < 1e-6 * client, "{client} vs {sum}");
                assert!(v("core.network.plan_us") > 0.0 && v("core.network.commit_us") > 0.0);
            }
        }
    }
}

#[test]
fn the_binary_prints_the_result_line_last_and_refuses_exported_knobs() {
    let bench = env!("CARGO_BIN_EXE_bench");
    let out = Command::new(bench)
        .args(["--workload", "wire_small", "--seed", "7", "--seconds", "6"])
        .args(["--trace", "0", "--quick"])
        .output()
        .expect("bench runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("QUICK RUN"), "quick numbers are labelled");
    let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));

    let out = Command::new(bench)
        .args(["--workload", "wire_small", "--quick"])
        .env(drqos_core::env::BATCH, "1")
        .output()
        .expect("bench runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an exported knob must stop the run"
    );
    assert!(out.stdout.is_empty(), "and print no result");
    assert!(String::from_utf8_lossy(&out.stderr).contains(drqos_core::env::BATCH));

    let out = Command::new(bench)
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("bench runs");
    assert_eq!(out.status.code(), Some(2));
}
