//! Integration tests for the `edc-obs` observability layer: a golden-file
//! pin of the Perfetto export of the canonical scripted-outage lifecycle,
//! and the merge-grouping-order byte-identity of aggregated `StatsSink`
//! telemetry.

use std::sync::OnceLock;

use edc_bench::sweep::Sweep;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::telemetry::stats_json;
use energy_driven::core::TelemetryKind;
use energy_driven::harvest::{DcSupply, Gated};
use energy_driven::obs::PerfettoTrace;
use energy_driven::telemetry::{StatsSink, Telemetry, TimelineSink};
use energy_driven::transient::{Hibernus, RunOutcome, TransientRunner};
use energy_driven::units::{Ohms, Seconds, Volts};
use energy_driven::workloads::{BusyLoop, Workload, WorkloadKind};
use proptest::prelude::*;

/// The scripted supply from `tests/telemetry.rs` — healthy DC, a hard
/// 50 ms outage at `t = 5 ms`, then healthy again — captured by a
/// [`TimelineSink`] instead of a ring, so the full record/phase/gauge
/// timeline of the canonical brownout→restore→complete lifecycle is
/// available for export.
fn scripted_outage_timeline() -> (RunOutcome, TimelineSink) {
    let wl = BusyLoop::new(20_000);
    let mut runner = TransientRunner::builder()
        .strategy(Box::new(Hibernus::new()))
        .program(wl.program())
        .leakage(Ohms(5_000.0))
        .source(Box::new(Gated::new(
            DcSupply::new(Volts(3.3)).with_resistance(Ohms(10.0)),
            vec![
                (Seconds(0.0), Seconds(0.005)),
                (Seconds(0.055), Seconds(f64::INFINITY)),
            ],
        )))
        .telemetry(TelemetryKind::Timeline)
        .build();
    let outcome = runner.run_until_complete(Seconds(2.0));
    let Some(Telemetry::Timeline(tl)) = runner.telemetry() else {
        panic!("a timeline kind builds a timeline");
    };
    (outcome, (**tl).clone())
}

/// The Perfetto export of the canonical 9-event sequence is pinned to a
/// committed golden file: any drift in the exporter's event shapes,
/// timestamps, or ordering fails here first. Regenerate deliberately with
/// `BLESS=1 cargo test --test obs`.
#[test]
fn perfetto_export_of_the_scripted_outage_matches_the_golden_file() {
    let (outcome, tl) = scripted_outage_timeline();
    assert_eq!(outcome, RunOutcome::Completed);
    let names: Vec<&str> = tl.records().iter().map(|r| r.event.name()).collect();
    assert_eq!(
        names,
        vec![
            "supply-rising",
            "boot",
            "supply-falling",
            "snapshot-sealed",
            "power-fail",
            "supply-rising",
            "boot",
            "restore",
            "task-complete",
        ],
        "the canonical lifecycle drives the export"
    );

    let end = tl.records().last().expect("events recorded").t;
    let mut trace = PerfettoTrace::new();
    trace.add_track("scripted-outage", &tl, end);
    let exported = format!("{}\n", trace.to_json());

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/scripted_outage.perfetto.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &exported).expect("golden file writable");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file present (BLESS=1 to regenerate)");
    assert_eq!(
        exported, golden,
        "Perfetto export drifted from the golden file; if the change is \
         intentional, re-bless with BLESS=1 cargo test --test obs"
    );
}

/// Per-cell [`StatsSink`]s from one small sweep, computed once.
fn sweep_cells() -> &'static Vec<StatsSink> {
    static CELLS: OnceLock<Vec<StatsSink>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let base = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz: 50.0 },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(128),
        )
        .deadline(Seconds(1.0))
        .telemetry(TelemetryKind::Stats);
        let sweep = Sweep::over(base)
            .strategies(&[
                StrategyKind::Restart,
                StrategyKind::Hibernus,
                StrategyKind::Mementos,
            ])
            .workloads(&[WorkloadKind::Crc16(128), WorkloadKind::Fourier(64)]);
        sweep
            .run()
            .expect("sweep runs")
            .rows
            .into_iter()
            .map(|row| match row.report.telemetry {
                Some(Telemetry::Stats(s)) => *s,
                other => panic!("stats telemetry expected, got {other:?}"),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 16,
        ..proptest::test_runner::Config::default()
    })]

    /// Merging a sweep's per-cell sinks in *any* permutation and *any*
    /// grouping (subgroup sinks merged, then combined, in a second random
    /// order) must reproduce the byte-identical aggregate JSON — the
    /// guarantee the fixed-point accumulators exist to provide.
    #[test]
    fn prop_stats_merge_is_grouping_order_invariant(seed in 0u64..1_000_000) {
        let cells = sweep_cells();
        let reference = {
            let mut all = StatsSink::new();
            for c in cells {
                all.merge(c);
            }
            stats_json(&all).to_string()
        };

        // A tiny deterministic LCG drives the permutation and grouping.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut order: Vec<usize> = (0..cells.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i + 1));
        }
        let mut groups: Vec<StatsSink> = Vec::new();
        let mut current = StatsSink::new();
        let mut pending = false;
        for &i in &order {
            current.merge(&cells[i]);
            pending = true;
            if next(3) == 0 {
                groups.push(std::mem::take(&mut current));
                pending = false;
            }
        }
        if pending {
            groups.push(current);
        }
        let mut merged = StatsSink::new();
        for g in groups.iter().rev() {
            merged.merge(g);
        }
        prop_assert_eq!(stats_json(&merged).to_string(), reference);
    }
}
