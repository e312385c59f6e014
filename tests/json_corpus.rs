//! Byte identity of JSON emission over the committed corpus: every
//! single-line JSON document the repository commits (the `BENCH_*.json`
//! artifacts, the timeline spec, the strategy-survey and Perfetto goldens
//! and each line of the serve golden transcript) parses and re-emits to
//! exactly the bytes on disk. The artifacts were written by the emitter,
//! so a change to number, string or nesting output shows up here first.

use std::path::{Path, PathBuf};

use energy_driven::core::json::Json;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Parses `text` and asserts that re-emitting it gives `text` back.
fn assert_round_trips(what: &str, text: &str) {
    let json = Json::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let emitted = json.to_string();
    if emitted != text {
        let at = emitted
            .bytes()
            .zip(text.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(emitted.len().min(text.len()));
        panic!(
            "{what}: re-emission differs at byte {at}: committed {:?}, emitted {:?}",
            &text[at.saturating_sub(20)..(at + 20).min(text.len())],
            &emitted[at.saturating_sub(20)..(at + 20).min(emitted.len())],
        );
    }
}

/// The whole file is one JSON document on one line, ended by a newline.
fn assert_file_round_trips(path: &Path) {
    let text = read(path);
    let what = path.display().to_string();
    let body = text
        .strip_suffix('\n')
        .unwrap_or_else(|| panic!("{what}: no trailing newline"));
    assert!(!body.contains('\n'), "{what}: not a single-line document");
    assert_round_trips(&what, body);
}

#[test]
fn committed_bench_artifacts_round_trip_byte_for_byte() {
    let mut artifacts: Vec<PathBuf> = std::fs::read_dir(root())
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        // The gate's policy is a hand-written, multi-line document.
        .filter(|path| !path.ends_with("BENCH_policy.json"))
        .collect();
    artifacts.sort();
    assert!(
        artifacts.len() >= 8,
        "expected the committed BENCH_*.json artifacts, found {artifacts:?}"
    );
    for path in &artifacts {
        assert_file_round_trips(path);
    }
}

#[test]
fn committed_json_goldens_round_trip_byte_for_byte() {
    for name in [
        "TIMELINE_spec.json",
        "tests/golden/table_strategies.json",
        "tests/golden/scripted_outage.perfetto.json",
    ] {
        assert_file_round_trips(&root().join(name));
    }
}

#[test]
fn serve_golden_responses_round_trip_line_by_line() {
    let path = root().join("tests/golden/serve_responses.txt");
    let text = read(&path);
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        assert_round_trips(&format!("{}:{}", path.display(), i + 1), line);
        lines += 1;
    }
    assert!(lines > 0, "empty serve transcript");
}
