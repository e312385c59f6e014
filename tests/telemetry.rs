//! Integration and property tests for the `edc-telemetry` subsystem:
//! exact event sequences through a scripted outage, byte-identical
//! telemetry across repeated runs, serial-vs-parallel sweep equivalence,
//! the `TelemetryKind::Null` byte-compatibility guarantee, and that no
//! telemetry kind changes the run it observes.

use edc_bench::sweep::Sweep;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::TelemetryKind;
use energy_driven::harvest::{DcSupply, Gated};
use energy_driven::telemetry::{Event, Telemetry};
use energy_driven::transient::{Hibernus, RunOutcome, TransientRunner};
use energy_driven::units::{Ohms, Seconds, Volts};
use energy_driven::workloads::{BusyLoop, Workload, WorkloadKind};
use proptest::prelude::*;

/// A scripted supply: healthy DC, a hard 50 ms outage at `t = 5 ms` (mid
/// workload), then healthy again. With board leakage the rail fully
/// collapses during the gap, so a Hibernus run walks the canonical
/// lifecycle: boot → low-voltage snapshot → power fail → boot → restore →
/// complete.
fn scripted_outage_events(capacity: usize) -> (RunOutcome, Vec<Event>, u64) {
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
        .telemetry(TelemetryKind::Ring { capacity })
        .build();
    let outcome = runner.run_until_complete(Seconds(2.0));
    let Some(Telemetry::Ring(ring)) = runner.telemetry() else {
        panic!("a ring kind builds a ring");
    };
    let events = ring.records().iter().map(|r| r.event).collect();
    (outcome, events, ring.dropped())
}

#[test]
fn ring_buffer_asserts_the_exact_scripted_sequence() {
    let (outcome, events, dropped) = scripted_outage_events(64);
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(dropped, 0, "64 slots hold the whole scripted run");
    let sealed = |e: &Event| matches!(e, Event::Snapshot { sealed: true, .. });
    assert!(
        sealed(&events[3]),
        "slot 3 is the low-voltage snapshot, got {events:?}"
    );
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        vec![
            "supply-rising",   // cold rail charges past V_R
            "boot",            // cold boot, no snapshot to restore
            "supply-falling",  // outage begins: V_H breached
            "snapshot-sealed", // Hibernus seals one frame...
            "power-fail",      // ...then the leaking rail dies in sleep
            "supply-rising",   // supply returns, rail recharges
            "boot",            // second boot...
            "restore",         // ...resumes from the sealed frame
            "task-complete",   // and the workload finishes
        ],
        "scripted brownout→restore→complete lifecycle"
    );
}

#[test]
fn ring_buffer_overflow_keeps_the_most_recent_events() {
    let (outcome, events, dropped) = scripted_outage_events(4);
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(dropped, 5, "9-event run through a 4-slot ring");
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        vec!["supply-rising", "boot", "restore", "task-complete"]
    );
}

#[test]
fn null_telemetry_keeps_report_and_spec_json_in_the_pre_telemetry_format() {
    let spec = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(256),
    )
    .deadline(Seconds(3.0));
    assert_eq!(spec.telemetry, TelemetryKind::Null, "Null is the default");
    let report = spec.run().expect("spec assembles");
    assert!(report.telemetry.is_none(), "no sink, no section");

    // The exact pre-telemetry key sequences, verbatim: a default run must
    // serialise byte-identically to what the seedless PR 1 format emitted.
    let report_json = report.to_json();
    let keys = |j: &Json| match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("expected object, got {other:?}"),
    };
    assert_eq!(
        keys(&report_json),
        [
            "strategy",
            "workload",
            "outcome",
            "verified",
            "verify_error",
            "stats"
        ]
    );
    assert_eq!(
        keys(&spec.to_json()),
        [
            "source",
            "strategy",
            "workload",
            "topology",
            "rectifier",
            "decoupling_f",
            "timestep_s",
            "deadline_s",
            "leakage_ohm",
            "trace"
        ]
    );

    // With a sink enabled, the section appears — at the end, leaving the
    // legacy prefix untouched.
    let stats_report = spec.telemetry(TelemetryKind::Stats).run().unwrap();
    assert_eq!(
        keys(&stats_report.to_json()),
        [
            "strategy",
            "workload",
            "outcome",
            "verified",
            "verify_error",
            "stats",
            "telemetry"
        ]
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 10,
        ..proptest::test_runner::Config::default()
    })]

    /// Two identical runs must produce byte-identical telemetry JSON —
    /// StatsSink percentiles included — across a random slice of the
    /// (workload size × supply frequency × strategy) space.
    #[test]
    fn prop_stats_telemetry_is_byte_identical_across_runs(
        n in 64u16..512,
        hz in 20.0f64..120.0,
        strategy_idx in 0usize..StrategyKind::ALL.len(),
    ) {
        let spec = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz },
            StrategyKind::ALL[strategy_idx],
            WorkloadKind::Crc16(n),
        )
        .deadline(Seconds(1.0))
        .telemetry(TelemetryKind::Stats);
        let a = spec.run().expect("spec assembles").to_json().to_string();
        let b = spec.run().expect("spec assembles").to_json().to_string();
        prop_assert!(a.contains("\"telemetry\""), "stats section present");
        prop_assert_eq!(a, b);
    }

    /// Telemetry only observes: under every kind the report, with its
    /// telemetry section removed, serialises byte-identically to the
    /// `Null` run of the same spec.
    #[test]
    fn prop_no_telemetry_kind_changes_the_run(
        n in 64u16..512,
        hz in 20.0f64..120.0,
        strategy_idx in 0usize..StrategyKind::ALL.len(),
    ) {
        let spec = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz },
            StrategyKind::ALL[strategy_idx],
            WorkloadKind::Crc16(n),
        )
        .deadline(Seconds(1.0));
        let null = spec.run().expect("spec assembles");
        prop_assert!(null.telemetry.is_none());
        let null = null.to_json().to_string();
        for kind in [
            TelemetryKind::Ring { capacity: 4 },
            TelemetryKind::Stats,
            TelemetryKind::Timeline,
        ] {
            let mut report = spec.telemetry(kind).run().expect("spec assembles");
            prop_assert!(report.telemetry.take().is_some(), "{:?} builds a sink", kind);
            prop_assert_eq!(report.to_json().to_string(), null);
        }
    }

    /// Ring sinks see the same *event sequence* (stamps included) on every
    /// replay of the same spec.
    #[test]
    fn prop_ring_event_sequences_replay_identically(
        n in 64u16..512,
        hz in 20.0f64..120.0,
    ) {
        let spec = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(n),
        )
        .deadline(Seconds(1.0))
        .telemetry(TelemetryKind::Ring { capacity: 256 });
        let a = spec.run().expect("spec assembles").to_json().to_string();
        let b = spec.run().expect("spec assembles").to_json().to_string();
        prop_assert_eq!(a, b);
    }

    /// The deterministic telemetry section of a sweep must not depend on
    /// how many worker threads raced over the grid.
    #[test]
    fn prop_sweep_telemetry_matches_serial_vs_parallel(
        threads in 2usize..8,
        hz in 30.0f64..80.0,
    ) {
        let base = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(128),
        )
        .deadline(Seconds(1.0))
        .telemetry(TelemetryKind::Stats);
        let sweep = Sweep::over(base)
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus, StrategyKind::Mementos])
            .workloads(&[WorkloadKind::Crc16(128), WorkloadKind::MatMul]);
        let parallel = sweep.clone().threads(threads).run().expect("sweep runs");
        let serial = sweep.threads(1).run().expect("sweep runs");
        prop_assert_eq!(
            parallel.telemetry_json().to_string(),
            serial.telemetry_json().to_string()
        );
    }
}
