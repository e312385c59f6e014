//! Integration test: the Fig. 7 experiment end to end.
//!
//! Asserts the properties the paper's waveform demonstrates: Hibernus takes
//! exactly one snapshot per supply failure, restores after each outage, and
//! the FFT — started once — completes during the third supply cycle with a
//! bit-exact spectrum.

use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::telemetry::TelemetryReport;
use energy_driven::telemetry::{Event, Phase, TelemetryKind};
use energy_driven::transient::RunOutcome;
use energy_driven::units::{Ohms, Seconds};
use energy_driven::workloads::WorkloadKind;

#[test]
fn fft_completes_in_third_supply_cycle_with_one_snapshot_per_dip() {
    let supply_hz = 2.0;
    let mut system = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: supply_hz },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .leakage(Ohms(100_000.0))
    .telemetry(TelemetryKind::Timeline)
    .build()
    .expect("the Fig. 7 spec assembles");

    let report = system.run(Seconds(2.5));
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.strategy, "hibernus");
    assert_eq!(report.workload, "fourier");

    let completed_cycle =
        (report.stats.completed_at.expect("completed").0 * supply_hz).floor() as u64 + 1;
    assert_eq!(completed_cycle, 3, "paper: FFT completes in the 3rd cycle");

    let Some(TelemetryReport::Timeline(timeline)) = &report.telemetry else {
        panic!("the spec asked for a timeline");
    };
    let records = timeline.records();
    let names: Vec<&str> = records.iter().map(|r| r.event.name()).collect();
    assert_eq!(
        names,
        [
            "supply-rising",
            "boot",
            "supply-falling",
            "snapshot-sealed",
            "power-fail",
            "supply-rising",
            "boot",
            "restore",
            "supply-falling",
            "snapshot-sealed",
            "power-fail",
            "supply-rising",
            "boot",
            "restore",
            "task-complete",
        ],
        "boot, hibernate on each dip, restore after each outage, complete"
    );
    let phases: Vec<Phase> = timeline.phases().iter().map(|p| p.phase).collect();
    use Phase::{Active, Off, Sleep};
    assert_eq!(
        phases,
        [Off, Active, Sleep, Off, Active, Sleep, Off, Active, Sleep]
    );

    // Exactly one snapshot per supply failure, none torn. A Hibernus
    // hibernation begins at each falling V_H crossing.
    let hibernations = records
        .iter()
        .filter(|r| matches!(r.event, Event::SupplyCrossing { rising: false }))
        .count();
    assert_eq!(report.stats.snapshots, hibernations as u64);
    assert_eq!(report.stats.torn_snapshots, 0);
    assert_eq!(
        report.stats.snapshots, 2,
        "two dips before 3rd-cycle completion"
    );
    assert_eq!(report.stats.restores, 2, "the rail dies between cycles");

    report
        .verification
        .expect("spectrum must be bit-exact despite outages");
}

#[test]
fn hibernus_calibration_matches_eq4() {
    let system = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 2.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(16),
    )
    .build()
    .expect("spec assembles");
    let (v_h, v_r) = system.thresholds();
    // Eq. 4 with E_S ≈ 5 µJ, C = 10 µF, V_min = 2.0 V and a 50% margin puts
    // V_H in the low 2.3s — matching the Hibernus papers' ≈ 2.27 V.
    assert!(v_h.0 > 2.2 && v_h.0 < 2.5, "V_H = {v_h}");
    assert!(v_r > v_h);
}
