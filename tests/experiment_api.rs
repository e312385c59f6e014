//! Integration tests for the fallible Experiment/Sweep API: build errors
//! are values not panics, parallel sweeps are deterministic and match
//! serial execution, and reports round-trip through JSON.

use edc_bench::sweep::{
    render_json, render_text, run_specs_timed_in, run_specs_timed_metered, Sweep,
};
use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::{BuildError, Experiment, ExperimentSpec};
use energy_driven::core::fleet::{FieldSpec, FleetSpec, Placement};
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use energy_driven::core::system::Topology;
use energy_driven::core::TelemetryKind;
use energy_driven::harvest::DcSupply;
use energy_driven::metrics::Registry;
use energy_driven::units::{Farads, Ohms, Seconds, Volts};
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

#[test]
fn missing_components_surface_as_build_errors() {
    assert_eq!(
        Experiment::new().build().err(),
        Some(BuildError::MissingSource)
    );
    assert_eq!(
        Experiment::new()
            .source(DcSupply::new(Volts(3.3)))
            .build()
            .err(),
        Some(BuildError::MissingStrategy)
    );
    assert_eq!(
        Experiment::new()
            .source(DcSupply::new(Volts(3.3)))
            .strategy_kind(StrategyKind::Restart)
            .build()
            .err(),
        Some(BuildError::MissingWorkload)
    );
    // Physical-parameter validation is part of the same contract.
    let bad_efficiency = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(10),
    )
    .topology(Topology::Buffered {
        storage: Farads::from_micro(100.0),
        efficiency: 0.0,
    });
    assert_eq!(
        bad_efficiency.run().err(),
        Some(BuildError::InvalidEfficiency(0.0))
    );
}

/// Out-of-domain kind parameters must surface as `BuildError`s, not
/// constructor panics — including through a parallel `Sweep`, where a
/// worker panic would kill the whole scope.
#[test]
fn invalid_kind_parameters_are_errors_not_panics() {
    let base = |workload| {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            workload,
        )
    };
    assert_eq!(
        base(WorkloadKind::BusyLoop(0)).run().err(),
        Some(BuildError::InvalidWorkload(
            "busy-loop iterations must be in 1..=32767"
        ))
    );
    assert!(matches!(
        base(WorkloadKind::Fourier(100)).build().err(),
        Some(BuildError::InvalidWorkload(_))
    ));
    assert!(matches!(
        base(WorkloadKind::Crc16(64))
            .source(SourceKind::RectifiedSine { hz: f64::NAN })
            .run()
            .err(),
        Some(BuildError::InvalidSource(_))
    ));
    assert_eq!(
        base(WorkloadKind::Crc16(64)).trace(0).build().err(),
        Some(BuildError::InvalidTrace)
    );
    assert_eq!(
        base(WorkloadKind::Crc16(64))
            .leakage(energy_driven::units::Ohms(0.0))
            .build()
            .err(),
        Some(BuildError::InvalidLeakage(0.0))
    );
    // Through the sweep engine: the grid fails fast with the error value.
    let err = Sweep::over(base(WorkloadKind::BusyLoop(40_000)).deadline(Seconds(1.0)))
        .strategies(&StrategyKind::ALL)
        .run()
        .expect_err("invalid grid point");
    assert!(matches!(err, BuildError::InvalidWorkload(_)));
}

/// The full `StrategyKind::ALL × workloads` grid: parallel execution must
/// be deterministic across repeated runs and identical to serial execution.
#[test]
fn full_strategy_sweep_is_deterministic_and_matches_serial() {
    // A 50 Hz rectified sine forces real checkpointing for the multi-window
    // workloads, so determinism is tested on the interesting paths.
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(256),
    )
    .deadline(Seconds(3.0));
    let sweep = Sweep::over(base)
        .strategies(&StrategyKind::ALL)
        .workloads(&[WorkloadKind::Crc16(256), WorkloadKind::MatMul]);

    let parallel_a = sweep.clone().run().expect("grid assembles").rows;
    let parallel_b = sweep.clone().threads(5).run().expect("grid assembles").rows;
    let serial = run_specs_timed_in(sweep.specs(), 1, &TraceCatalog::new())
        .expect("grid assembles")
        .rows;

    assert_eq!(parallel_a.len(), StrategyKind::ALL.len() * 2);
    let json_a = render_json(&parallel_a);
    assert_eq!(json_a, render_json(&parallel_b), "run-to-run determinism");
    assert_eq!(json_a, render_json(&serial), "parallel == serial");

    // Rows arrive in grid order regardless of scheduling.
    for (i, row) in parallel_a.iter().enumerate() {
        assert_eq!(row.index, i);
        assert_eq!(
            row.spec.strategy,
            StrategyKind::ALL[i % StrategyKind::ALL.len()]
        );
        assert_eq!(row.report.strategy, row.spec.strategy.name());
    }

    // The text renderer covers every row of the same grid.
    let text = render_text(&parallel_a);
    assert_eq!(text.lines().count(), 2 + parallel_a.len());
}

#[test]
fn system_report_json_round_trips() {
    let report = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 20.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(64),
    )
    .deadline(Seconds(5.0))
    .run()
    .expect("spec assembles");
    assert!(report.succeeded());

    let emitted = report.to_json().to_string();
    let parsed = Json::parse(&emitted).expect("report emits valid JSON");
    assert_eq!(
        parsed.to_string(),
        emitted,
        "parse → emit is byte-identical"
    );

    // The parsed tree carries the real component names and the stats.
    assert_eq!(parsed.get("strategy"), Some(&Json::Str("hibernus".into())));
    assert_eq!(parsed.get("workload"), Some(&Json::Str("fourier".into())));
    assert_eq!(parsed.get("verified"), Some(&Json::Bool(true)));
    let stats = parsed.get("stats").expect("stats object");
    match stats.get("snapshots") {
        Some(Json::Uint(n)) => assert!(*n >= 1, "sine dips force snapshots"),
        other => panic!("expected snapshot count, got {other:?}"),
    }
}

/// A bad deadline anywhere in the grid fails the sweep before any cell
/// simulates: the runner registers no series at all.
#[test]
fn a_bad_deadline_cell_fails_the_sweep_before_any_run() {
    let good = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(50),
    )
    .deadline(Seconds(0.1));
    let bad = good.deadline(Seconds(-1.0));
    let registry = Registry::new();
    let err = run_specs_timed_metered(
        vec![good, good, bad, good],
        2,
        &TraceCatalog::new(),
        &registry,
    )
    .expect_err("the grid holds a bad deadline");
    assert_eq!(err, BuildError::InvalidDeadline(-1.0));
    assert!(!registry.render_text().contains("edc_runner_runs"));
    assert_eq!(bad.build().err(), Some(err));
}

/// Draws a spec and a fleet around it with every checked numeric field
/// (deadline, timestep, decoupling, leakage, storage, efficiency, stagger,
/// duty period, attenuation) valid, NaN, negative, zero or infinite.
fn spec_and_fleet(
    picks: &[usize],
    catalog: &TraceCatalog,
    foreign: &TraceCatalog,
) -> (ExperimentSpec, FleetSpec) {
    let x = |i: usize| [1.0, 0.5, f64::NAN, -1.0, 0.0, f64::INFINITY][picks[i] % 6];
    let trace = |c: &TraceCatalog| SourceKind::Trace {
        id: c.ids()[0],
        decimate: 1,
        looped: true,
    };
    let source = [
        SourceKind::Dc { volts: 3.3 },
        SourceKind::RectifiedSine { hz: f64::NAN },
        trace(catalog),
        trace(foreign),
    ][picks[0] % 4];
    let workload = [WorkloadKind::BusyLoop(50), WorkloadKind::BusyLoop(0)][picks[1] % 2];
    let mut spec = ExperimentSpec::new(source, StrategyKind::Hibernus, workload)
        .deadline(Seconds(x(2)))
        .timestep(Seconds(20e-6 * x(3)))
        .decoupling(Farads(10e-6 * x(4)));
    if picks[5] % 2 == 1 {
        spec = spec.leakage(Ohms(1e5 * x(6)));
    }
    if picks[7] % 2 == 1 {
        spec = spec.topology(Topology::Buffered {
            storage: Farads(1e-3 * x(8)),
            efficiency: x(9),
        });
    }
    if let Some(decimation) = [None, Some(0), Some(1)][picks[10] % 3] {
        spec = spec.trace(decimation);
    }
    if picks[11] % 2 == 1 {
        spec = spec.telemetry(TelemetryKind::Ring { capacity: 0 });
    }
    let field = FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 * x(12) });
    let fleet = FleetSpec::new(field, spec, picks[13] % 4)
        .stagger(Seconds(0.01 * x(14)))
        .duty_period(Seconds(x(15)))
        .placement(match picks[16] % 3 {
            0 => Placement::Colocated,
            1 => Placement::Line {
                near: 1.0,
                far: x(17),
            },
            _ => Placement::Explicit(vec![x(17); 2]),
        });
    (spec, fleet)
}

/// The first entry as Debug text, not a value: a NaN payload never
/// equals itself.
fn first<E: std::fmt::Debug>(violations: Vec<E>) -> String {
    format!("{:?}", violations.into_iter().next())
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 256,
        ..proptest::test_runner::Config::default()
    })]

    /// `validate` is the first entry of `violations`, and a spec builds
    /// exactly when it has none — for single specs and fleets alike.
    #[test]
    fn validate_is_the_first_violation_and_gates_build(
        picks in proptest::collection::vec(0usize..12, 18..19),
    ) {
        let mut catalog = TraceCatalog::new();
        catalog.register("site", vec![(0.0, 1e-3), (1.0, 2e-3)]).unwrap();
        let mut foreign = TraceCatalog::new();
        foreign.register("other", vec![(0.0, 2e-3), (1.0, 1e-3)]).unwrap();
        let (spec, fleet) = spec_and_fleet(&picks, &catalog, &foreign);
        let violations = spec.violations_in(&catalog);
        prop_assert_eq!(format!("{:?}", spec.validate_in(&catalog).err()), first(violations.clone()));
        prop_assert_eq!(format!("{:?}", spec.validate().err()), first(spec.violations()));
        prop_assert_eq!(spec.build_in(&catalog).is_ok(), violations.is_empty());
        prop_assert_eq!(format!("{:?}", fleet.validate().err()), first(fleet.violations()));
    }
}
