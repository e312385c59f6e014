//! The one spec key, pinned: for random specs and for every spec in the
//! committed JSON corpus (the documents `tests/json_corpus.rs` re-emits),
//! `ExperimentSpec::key` is the spec's canonical JSON text, its hash is
//! the store's byte-loop FNV-1a of that text, and keys order as their
//! texts do.

use std::path::{Path, PathBuf};

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::{ExperimentSpec, SpecKey};
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::system::Topology;
use energy_driven::core::TelemetryKind;
use energy_driven::units::{Farads, Ohms, Seconds};
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

/// The two synthetic recordings the trace-backed benches register; the
/// committed artifacts' trace specs name them.
#[path = "../crates/explore/src/bin/common/recordings.rs"]
mod recordings;

/// The store's FNV-1a as it was written before the fold moved into
/// `edc-core`: one xor and one multiply per byte of the text.
fn reference_key_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Asserts the key of `json` is its text and carries the reference hash.
fn assert_key_of_json(json: &Json) -> SpecKey {
    let key = SpecKey::from(json);
    let text = json.to_string();
    assert_eq!(&*key, text);
    assert_eq!(key.hash(), reference_key_hash(&text), "{text}");
    key
}

/// Asserts the spec's key is its canonical JSON text with the reference
/// hash.
fn assert_key_of_spec(spec: &ExperimentSpec) -> SpecKey {
    let key = spec.key();
    assert_eq!(&*key, spec.to_json().to_string());
    assert_eq!(key, assert_key_of_json(&spec.to_json()));
    key
}

/// Asserts that the keys order, and compare equal, exactly as their texts.
fn assert_orders_as_text(keys: &[SpecKey]) {
    for a in keys {
        for b in keys {
            assert_eq!(a.cmp(b), (**a).cmp(&**b), "{a} vs {b}");
            assert_eq!(a == b, **a == **b, "{a} vs {b}");
        }
    }
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every JSON document `tests/json_corpus.rs` reads: the `BENCH_*.json`
/// artifacts but the policy, the timeline spec, the strategy-survey and
/// Perfetto goldens, and each line of the serve golden transcript (plus
/// its request lines, which carry the specs).
fn corpus() -> Vec<Json> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root())
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .filter(|path| !path.ends_with("BENCH_policy.json"))
        .collect();
    paths.sort();
    paths.extend(
        [
            "TIMELINE_spec.json",
            "tests/golden/table_strategies.json",
            "tests/golden/scripted_outage.perfetto.json",
            "tests/golden/serve_requests.txt",
            "tests/golden/serve_responses.txt",
        ]
        .map(|name| root().join(name)),
    );
    paths
        .iter()
        .flat_map(|path: &PathBuf| {
            let text = read(path);
            text.lines()
                .filter(|line| !line.trim().is_empty())
                .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every spec-shaped object in `json`, depth first.
fn collect_specs<'a>(json: &'a Json, out: &mut Vec<&'a Json>) {
    if ExperimentSpec::is_spec_json(json) {
        out.push(json);
    }
    match json {
        Json::Arr(items) => items.iter().for_each(|v| collect_specs(v, out)),
        Json::Obj(pairs) => pairs.iter().for_each(|(_, v)| collect_specs(v, out)),
        _ => {}
    }
}

#[test]
fn corpus_specs_key_as_their_canonical_text() {
    let documents = corpus();
    let mut specs = Vec::new();
    for document in &documents {
        collect_specs(document, &mut specs);
    }
    assert!(specs.len() >= 1000, "{} corpus specs", specs.len());
    let catalog = recordings::catalog().expect("the recordings register");
    let mut keys = Vec::new();
    for json in &specs {
        let spec =
            ExperimentSpec::from_json(json, &catalog).unwrap_or_else(|e| panic!("{e}: {json}"));
        keys.push(assert_key_of_json(json));
        keys.push(assert_key_of_spec(&spec));
    }
    keys.sort();
    keys.dedup();
    let mut texts: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    texts.sort();
    assert_eq!(keys.iter().map(|k| &**k).collect::<Vec<_>>(), texts);
    assert_orders_as_text(&keys[..keys.len().min(200)]);
}

/// One random spec's draws: kind indices and continuous parameters, then
/// a flag word (bits 0-2: deadline, leakage, buffered topology; bits 3-4:
/// telemetry kind).
type Draw = (
    (usize, f64, usize, usize),
    (f64, usize, f64, f64),
    (usize, f64, f64, usize),
);

fn draw() -> impl Strategy<Value = Draw> {
    (
        (
            0..SourceKind::ALL.len(),
            0.5f64..5.0,
            0..StrategyKind::ALL.len(),
            0..WorkloadKind::ALL.len(),
        ),
        (-9.0f64..-3.0, 0usize..3, 0.01f64..10.0, 3.0f64..7.0),
        (0usize..32, 1e-6f64..1e-3, 0.1f64..1.0, 1usize..64),
    )
}

/// The spec a [`Draw`] names: every source, strategy and workload kind,
/// and every optional field either way.
fn spec_of(draw: Draw) -> ExperimentSpec {
    let (
        (source, volts, strategy, workload),
        (log_c, dt, deadline, log_leakage),
        (flags, storage, efficiency, capacity),
    ) = draw;
    let source = match SourceKind::ALL[source] {
        SourceKind::Dc { .. } => SourceKind::Dc { volts },
        other => other,
    };
    let mut spec = ExperimentSpec::new(
        source,
        StrategyKind::ALL[strategy],
        WorkloadKind::ALL[workload],
    )
    .decoupling(Farads(10f64.powf(log_c)))
    .timestep(Seconds([1e-6, 2e-5, 1e-4][dt]))
    .telemetry(match flags >> 3 {
        0 => TelemetryKind::Null,
        1 => TelemetryKind::Ring { capacity },
        2 => TelemetryKind::Stats,
        _ => TelemetryKind::Timeline,
    });
    if flags & 1 != 0 {
        spec = spec.deadline(Seconds(deadline));
    }
    if flags & 2 != 0 {
        spec = spec.leakage(Ohms(10f64.powf(log_leakage)));
    }
    if flags & 4 != 0 {
        spec = spec.topology(Topology::Buffered {
            storage: Farads(storage),
            efficiency,
        });
    }
    spec
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 128,
        ..proptest::test_runner::Config::default()
    })]

    #[test]
    fn prop_random_specs_key_as_their_canonical_text(
        draws in proptest::collection::vec(draw(), 1..6),
    ) {
        let specs: Vec<ExperimentSpec> = draws.into_iter().map(spec_of).collect();
        let keys: Vec<SpecKey> = specs.iter().map(assert_key_of_spec).collect();
        assert_orders_as_text(&keys);
        for (spec, key) in specs.iter().zip(&keys) {
            let json = Json::parse(key).expect("key text parses");
            let back = ExperimentSpec::from_json(&json, &TraceCatalog::new())
                .expect("key text reads back as a spec");
            prop_assert_eq!(&back.key(), key, "round trip keeps the key of {:?}", spec);
        }
    }
}
