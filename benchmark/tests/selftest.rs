//! Self-tests of the benchmark as a whole: the catalogue in code equals
//! `BENCHMARK.json`, every workload survives a quick smoke with all its
//! checks passing, and a deliberately corrupted echo or dropped key
//! makes a run exit non-zero. (The percentile rule, the open-loop clock
//! and input determinism are unit-tested beside their code.)

use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use benchmark::catalogue::{Workload, BENCHMARK_JSON, END_TO_END, PER_LAYER};
use benchmark::workloads::{self, Fault, Params};
use obs::json::Value;

/// The workload tests time real threads and sockets; run them one at a
/// time so they do not disturb each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick(seed: u64) -> Params {
    Params {
        warmup: Duration::from_millis(200),
        min_reps: 2,
        rep_budget: Duration::ZERO,
        ..Params::new(seed, 1.0)
    }
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

#[test]
fn catalogue_in_code_equals_benchmark_json() {
    let doc = obs::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "BENCHMARK.json has exactly the contract's keys"
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("whole run_seconds");
    assert!((1..=60).contains(&seconds));

    let listed = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), Workload::ALL.len());
    for (w, entry) in Workload::ALL.iter().zip(listed) {
        assert_eq!(str_of(entry, "name"), w.name());
        assert_eq!(str_of(entry, "why"), w.why());
        assert!(is_name(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::parse(w.name()), Some(*w));
    }

    for (section, specs, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let listed = doc.get(section).unwrap().as_array().unwrap();
        assert_eq!(listed.len(), specs.len(), "{section} length");
        for (spec, entry) in specs.iter().zip(listed) {
            assert_eq!(str_of(entry, "name"), spec.name);
            assert_eq!(str_of(entry, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(
                str_of(entry, "better"),
                spec.better.as_str(),
                "{}",
                spec.name
            );
            assert!(is_name(spec.name), "{:?} is not a metric name", spec.name);
            assert!(is_unit(spec.unit), "{:?} is not a unit", spec.unit);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound.is_some(), bounded, "{}: bound", spec.name);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_workload_passes_a_quick_smoke() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let out = workloads::run(w, &quick(3));
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            out.violations
        );
        assert!(out.attempted > 0, "{} attempted nothing", w.name());
        assert_eq!(out.failed, 0, "{} failed ops", w.name());
        assert_eq!(out.end_to_end.len(), END_TO_END.len());
        for (name, value) in &out.end_to_end {
            // One second may hold too few samples for a p99; the run
            // then says so instead of inventing one.
            let refused = out.refused.contains(name);
            assert!(refused || *value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn a_traced_quick_run_names_every_per_layer_metric_it_exercises() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = workloads::run(
        Workload::PosKv,
        &Params {
            trace: true,
            ..quick(4)
        },
    );
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    for name in [
        "pos.wal_sync_p50_us",
        "pos.records_per_sync",
        "sgx_sim.charged_cycles_per_op",
    ] {
        let value = out.per_layer.iter().find(|(n, _)| *n == name).map(|p| p.1);
        assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
    }
    for (name, _) in &out.per_layer {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not catalogued"
        );
    }
    let trace = out
        .notes
        .iter()
        .find(|(k, _)| k == "trace_file")
        .expect("trace written");
    let doc = obs::json::parse(&std::fs::read_to_string(&trace.1).unwrap()).expect("trace is JSON");
    assert!(doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .is_some_and(|e| e.len() > 10));
}

#[test]
fn a_corrupted_echo_is_caught() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in [Workload::PingpongLocal, Workload::ChatBusy] {
        let out = workloads::run(
            w,
            &Params {
                fault: Fault::CorruptEcho,
                ..quick(5)
            },
        );
        // The corruption may fall into warm-up, whose op counts are
        // discarded; a violation is kept wherever it happens.
        assert!(
            !out.violations.is_empty(),
            "{} missed a corrupted echo",
            w.name()
        );
    }
}

#[test]
fn a_dropped_key_is_caught() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = workloads::run(
        Workload::PosKv,
        &Params {
            fault: Fault::DropKey,
            ..quick(6)
        },
    );
    assert!(
        out.violations.iter().any(|v| v.contains("after reopen")),
        "the reopen comparison missed a dropped key: {:?}",
        out.violations
    );
}

#[test]
fn a_failed_check_makes_the_run_exit_non_zero() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = |fault: &str, workload: &str| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args([
                "child",
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
            ])
            .args(["--trace", "0", "--quick", "1", "--fault", fault])
            .output()
            .expect("spawn benchmark")
    };
    let clean = run("none", "pingpong_local");
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    for (fault, workload) in [("corrupt_echo", "pingpong_local"), ("drop_key", "pos_kv")] {
        let bad = run(fault, workload);
        assert_eq!(
            bad.status.code(),
            Some(2),
            "{workload} with {fault} must exit 2"
        );
        assert!(String::from_utf8_lossy(&bad.stderr).contains("violation:"));
    }
}
