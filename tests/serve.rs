//! Integration tests for the incremental experiment service
//! (`edc_serve` / [`ServeSession`]): in-flight deduplication — the
//! acceptance criterion of the serving loop — and the committed golden
//! request/response transcript, replayed through the library exactly as
//! CI replays it through the binary — and property tests that hostile
//! lines never panic the parser or the session.

use std::path::PathBuf;

use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::explore::{ServeSession, Store};
use energy_driven::metrics::Registry;
use energy_driven::units::Seconds;
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edc-tests-serve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn concurrent_identical_requests_simulate_once_and_answer_each() {
    // The acceptance pin: N identical in-flight requests cost exactly one
    // simulation, and every client still gets a full response.
    let spec = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(200),
    )
    .deadline(Seconds(1.0));
    let registry = Registry::new();
    let mut session = ServeSession::new().threads(2).metrics(registry.clone());
    let mut input = String::new();
    for id in 0..5 {
        input.push_str(&format!(
            "{{\"op\":\"evaluate\",\"id\":{id},\"spec\":{}}}\n",
            spec.to_json()
        ));
    }
    let out = session.serve_text(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "one response per request:\n{out}");
    assert!(lines[0].contains(r#""source":"simulated""#), "{out}");
    for line in &lines[1..] {
        assert!(line.contains(r#""source":"inflight""#), "{line}");
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    let text = registry.render_text();
    assert!(
        text.contains("edc_sweep_cells_total 1"),
        "exactly one cell simulated:\n{text}"
    );
}

#[test]
fn a_requests_telemetry_kind_is_not_part_of_its_key() {
    // The golden busy-loop spec three times, one batch each: plain, with a
    // ring sink, with a stats sink. No kind changes a score and no
    // response reads a sink, so all three are one design: one key, one
    // simulation, then two memo hits.
    let spec = golden("serve_requests.txt")
        .lines()
        .next()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|request| request.get("spec").cloned())
        .expect("the first golden request carries a spec");
    let with_telemetry = |kind: Option<&str>| match (kind, &spec) {
        (Some(kind), Json::Obj(pairs)) => {
            let mut pairs = pairs.clone();
            pairs.push((
                "telemetry".to_string(),
                Json::parse(kind).expect("kind parses"),
            ));
            Json::Obj(pairs)
        }
        _ => spec.clone(),
    };
    let input = [
        None,
        Some(r#"{"kind":"ring","capacity":8}"#),
        Some(r#"{"kind":"stats"}"#),
    ]
    .into_iter()
    .map(|kind| {
        format!(
            "{{\"op\":\"evaluate\",\"spec\":{}}}\n",
            with_telemetry(kind)
        )
    })
    .collect::<Vec<_>>()
    .join("\n");
    let out = ServeSession::new().threads(1).serve_text(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    for (line, source) in lines.iter().zip(["simulated", "memo", "memo"]) {
        assert!(line.contains(r#""key":"e68ae6d653c5a730""#), "{out}");
        assert!(line.contains(&format!(r#""source":"{source}""#)), "{out}");
    }
}

#[test]
fn workloads_whose_data_overflow_fram_are_refused_not_run() {
    // A CRC over 20 000 words places its input past the end of FRAM. Such
    // a spec used to pass validation and abort the process in `Mcu::new`.
    let spec = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::Crc16(20_000),
    )
    .deadline(Seconds(1.0));
    let input = format!(
        "{{\"op\":\"evaluate\",\"id\":1,\"spec\":{0}}}\n\
         {{\"op\":\"lint\",\"id\":2,\"spec\":{0}}}\n",
        spec.to_json()
    );
    let out = ServeSession::new().threads(1).serve_text(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].contains(r#""ok":false"#), "{out}");
    assert!(lines[0].contains("crc16 block length"), "{out}");
    assert!(lines[1].contains(r#""code":"E001""#), "{out}");
}

#[test]
fn the_committed_golden_transcript_replays_byte_identically() {
    // The same contract CI pins through the binary: the committed request
    // script, fed to a fresh session with a fresh store, must reproduce
    // the committed response stream byte for byte.
    let requests = golden("serve_requests.txt");
    let expected = golden("serve_responses.txt");
    let store = Store::open(temp_dir("golden"))
        .expect("store opens")
        .into_handle();
    let mut session = ServeSession::new()
        .threads(2)
        .metrics(Registry::new())
        .store(store);
    assert_eq!(session.serve_text(&requests), expected);
}

/// One hostile request line, chosen by `kind`: random bytes (decoded
/// lossily), a strict prefix of a golden request line, or `[` nested up
/// to 100 000 deep. No kind yields a valid request, so none simulates.
fn hostile_line(kind: u8, pick: u64, bytes: &[u8]) -> String {
    match kind {
        0 => String::from_utf8_lossy(bytes).into_owned(),
        1 => {
            let requests = golden("serve_requests.txt");
            let lines: Vec<&str> = requests.lines().filter(|l| !l.is_empty()).collect();
            let line = lines[(pick % lines.len() as u64) as usize];
            line[..(pick >> 32) as usize % line.len()].to_string()
        }
        _ => "[".repeat(1 + (pick % 100_000) as usize),
    }
}

proptest! {
    #[test]
    fn json_parse_never_panics_on_hostile_lines(
        kind in 0u8..3,
        pick in proptest::num::u64::ANY,
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..96),
    ) {
        let line = hostile_line(kind, pick, &bytes);
        let parsed = Json::parse(&line);
        if kind != 0 {
            prop_assert!(parsed.is_err(), "{line:?} parsed");
        }
    }

    #[test]
    fn serve_text_answers_each_hostile_line_once(
        picks in proptest::collection::vec(
            (0u8..3, proptest::num::u64::ANY, proptest::collection::vec(proptest::num::u8::ANY, 0..96)),
            1..10,
        ),
    ) {
        let script: Vec<String> = picks
            .iter()
            .map(|(kind, pick, bytes)| hostile_line(*kind, *pick, bytes))
            .collect();
        let script = script.join("\n");
        let requests = script.lines().filter(|l| !l.trim().is_empty()).count();
        let out = ServeSession::new().threads(1).serve_text(&script);
        prop_assert_eq!(out.lines().count(), requests, "{}", out);
        for response in out.lines() {
            let json = Json::parse(response).expect("responses are JSON");
            prop_assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        }
    }
}
