//! Integration tests for the `edc-metrics` registry: serial-vs-parallel
//! and repeated-run byte-identity of the OpenMetrics exposition, shard
//! merge-order invariance of histograms (mirroring the `StatsSink::merge`
//! grouping-order property), and a pinned golden exposition for the README
//! quickstart run.

use edc_bench::sweep::run_specs_timed_metered;
use edc_metrics::Registry;
use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::TelemetryKind;
use energy_driven::units::Seconds;
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

/// A small strategy × workload grid over an intermittent supply.
fn grid_specs() -> Vec<ExperimentSpec> {
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(128),
    )
    .deadline(Seconds(1.0))
    .telemetry(TelemetryKind::Stats);
    let mut specs = Vec::new();
    for strategy in [
        StrategyKind::Restart,
        StrategyKind::Hibernus,
        StrategyKind::Mementos,
    ] {
        for workload in [WorkloadKind::Crc16(128), WorkloadKind::Fourier(64)] {
            specs.push(base.strategy(strategy).workload(workload));
        }
    }
    specs
}

/// Runs the grid into a fresh registry and returns the deterministic
/// exposition (quarantined wall gauges excluded by `render_text`).
fn exposition(threads: usize) -> String {
    let registry = Registry::new();
    run_specs_timed_metered(grid_specs(), threads, &TraceCatalog::new(), &registry)
        .expect("grid runs");
    registry.render_text()
}

/// The determinism contract: one worker, many workers, and a repeated
/// many-worker run must all expose byte-identical metrics — counters are
/// atomic integer adds and histogram shards merge in fixed index order, so
/// scheduling can never reorder the text.
#[test]
fn serial_parallel_and_repeated_expositions_are_byte_identical() {
    let serial = exposition(1);
    let parallel = exposition(4);
    let repeated = exposition(4);
    assert_eq!(serial, parallel, "thread count changed the exposition");
    assert_eq!(parallel, repeated, "repetition changed the exposition");
    // The sweep layer's batch histogram is present with explicit `le`
    // bucket bounds closed by +Inf, and the runner counters carry their
    // strategy labels.
    assert!(
        serial.contains("edc_sweep_batch_cells_bucket{le=\"8\"}"),
        "{serial}"
    );
    assert!(
        serial.contains("edc_sweep_batch_cells_bucket{le=\"+Inf\"}"),
        "{serial}"
    );
    assert!(
        serial.contains("edc_runner_runs_total{strategy=\"hibernus\"}"),
        "{serial}"
    );
    // The quarantined wall gauge is excluded from the deterministic view
    // but present in the full one.
    assert!(!serial.contains("edc_sweep_wall_seconds"));
    let registry = Registry::new();
    run_specs_timed_metered(grid_specs(), 2, &TraceCatalog::new(), &registry).expect("grid runs");
    assert!(registry
        .render_text_full()
        .contains("edc_sweep_wall_seconds"));
}

/// The README quickstart run's metrics exposition is pinned to a committed
/// golden file: any drift in metric names, labels, help text, or the
/// runner's deterministic counters fails here first. Regenerate
/// deliberately with `BLESS=1 cargo test --test metrics`.
#[test]
fn quickstart_exposition_matches_the_golden_file() {
    let registry = Registry::new();
    let report = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 5.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(128),
    )
    .deadline(Seconds(10.0))
    .run_metered_in(&TraceCatalog::new(), &registry)
    .expect("quickstart runs");
    assert!(report.succeeded());
    let exposed = registry.render_text();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/quickstart.metrics.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &exposed).expect("golden file writable");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file present (BLESS=1 to regenerate)");
    assert_eq!(
        exposed, golden,
        "metrics exposition drifted from the golden file; if the change is \
         intentional, re-bless with BLESS=1 cargo test --test metrics"
    );
}

/// One fixed multiset of histogram observations, as (value, weight) free
/// of scheduling: what every partition below must reproduce.
const HIST_BOUNDS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn observations() -> Vec<f64> {
    (0..48).map(|i| 0.1 * i as f64).collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 16,
        ..proptest::test_runner::Config::default()
    })]

    /// Observing a fixed multiset of values from randomly-assigned threads
    /// must expose byte-identically however the observations land on the
    /// histogram's per-thread shards — the shard merge is integer addition
    /// in fixed index order, the same invariance `StatsSink::merge` pins
    /// for sweep telemetry.
    #[test]
    fn prop_histogram_exposition_is_shard_assignment_invariant(
        lanes in proptest::collection::vec(0usize..4, 48..49)
    ) {
        let reference = {
            let registry = Registry::new();
            let hist = registry.histogram("t", "Shard test.", &[], &HIST_BOUNDS);
            for v in observations() {
                hist.observe(v);
            }
            registry.render_text()
        };
        let registry = Registry::new();
        let by_lane: Vec<Vec<f64>> = (0..4)
            .map(|lane| {
                observations()
                    .into_iter()
                    .zip(&lanes)
                    .filter(|(_, &l)| l == lane)
                    .map(|(v, _)| v)
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for values in by_lane {
                let hist = registry.histogram("t", "Shard test.", &[], &HIST_BOUNDS);
                scope.spawn(move || {
                    for v in values {
                        hist.observe(v);
                    }
                });
            }
        });
        prop_assert_eq!(registry.render_text(), reference);
    }
}
