//! The output oracle end to end: a run whose outputs hash differently from
//! the pinned digest must fail, and the recorded digest must pass. Every
//! workload's result line must carry every end-to-end metric of the
//! manifest.

use std::process::Command;

use edc_core::json::Json;

fn run(extra: &[&str]) -> (bool, String) {
    run_workload("sim-sparse", extra)
}

fn run_workload(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seconds", "0.5", "--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn the_recorded_digest_passes() {
    let (ok, last) = run(&[]);
    assert!(ok, "{last}");
    assert!(last.starts_with(r#"{"correct":true,"#), "{last}");
    assert!(last.contains(r#""failed":0,"#), "{last}");
}

#[test]
fn a_corrupted_digest_fails_the_run() {
    let (ok, last) = run(&["--expect-digest", "0123456789abcdef"]);
    assert!(!ok, "a digest mismatch must exit non-zero: {last}");
    assert!(last.starts_with(r#"{"correct":false,"#), "{last}");
    assert!(!last.contains(r#""failed":0,"#), "{last}");
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = Json::parse(&std::fs::read_to_string(path).expect("the manifest reads"))
        .expect("the manifest parses");
    let entries = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = manifest.get(key) else {
            panic!("the manifest lists {key}");
        };
        let field = |item: &Json, f: &str| match item.get(f) {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        };
        items
            .iter()
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    };
    let metrics = entries("end_to_end");
    for (workload, _) in entries("workloads") {
        let (ok, last) = run_workload(&workload, &[]);
        assert!(ok, "{workload}: {last}");
        let result = Json::parse(&last).expect("the last line is JSON");
        let reported = result.get("metrics").expect("the result has metrics");
        let Json::Obj(pairs) = reported else {
            panic!("{workload}: metrics is an object");
        };
        assert_eq!(pairs.len(), metrics.len(), "{workload}: {last}");
        for (name, unit) in &metrics {
            let metric = reported.get(name);
            let value = metric.and_then(|m| m.get("value"));
            assert!(
                matches!(value, Some(Json::Num(v)) if *v > 0.0),
                "{workload}: {name} missing or not positive in {last}"
            );
            assert_eq!(
                metric.and_then(|m| m.get("unit")),
                Some(&Json::Str(unit.clone())),
                "{workload}: {name} in the wrong unit in {last}"
            );
        }
    }
}
