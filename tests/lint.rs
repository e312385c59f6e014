//! Integration tests for the static analyzer (`edc-lint`) and its
//! evaluator prefilter — above all the **soundness contract**: a spec
//! flagged with any `E`-severity diagnostic can never complete its
//! workload, under any strategy, because that is what licenses the
//! prefilter to score flagged designs `INFINITY` without simulating them.

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::explore::{
    lint_space, BrownoutCount, CompletionTime, EnergyPerTask, ExhaustiveGrid, Explorer, SpecSpace,
};
use energy_driven::lint::{Code, LintReport, Linter, Severity};
use energy_driven::units::{Farads, Seconds};
use energy_driven::workloads::WorkloadKind;

/// A catalog with one healthy recording and one too dim to fund anything.
fn test_catalog() -> TraceCatalog {
    let mut catalog = TraceCatalog::new();
    catalog
        .register(
            "healthy",
            (0..20).map(|i| (i as f64 * 1e-3, 6e-3)).collect(),
        )
        .expect("valid trace");
    catalog
        .register("dim", vec![(0.0, 1e-6), (1e-3, 1e-6), (2e-3, 1e-6)])
        .expect("valid trace");
    catalog
}

/// The adversarial spec pool: healthy designs mixed with every statically
/// detectable failure mode, crossed with strategies, sizes and deadlines.
fn spec_pool(catalog: &TraceCatalog) -> Vec<ExperimentSpec> {
    let ids = catalog.ids();
    let (healthy, dim) = (ids[0], ids[1]);
    let sources = [
        SourceKind::Dc { volts: 3.3 },
        SourceKind::Dc { volts: 1.0 }, // E002: below every boot threshold
        SourceKind::RectifiedSine { hz: 50.0 },
        SourceKind::Trace {
            id: healthy,
            decimate: 1,
            looped: true,
        },
        SourceKind::Trace {
            id: dim,
            decimate: 1,
            looped: false, // E004: ~µW for 2 ms, then held — never funds a run
        },
    ];
    let strategies = [
        StrategyKind::Restart,
        StrategyKind::Hibernus,
        StrategyKind::QuickRecall,
    ];
    let workloads = [
        WorkloadKind::Crc16(64),
        WorkloadKind::Fourier(256),
        WorkloadKind::Endless, // E005: no completion state
    ];
    let deadlines = [Seconds(40e-6), Seconds(0.3)]; // first: E003 for real workloads
    let mut pool = Vec::new();
    for source in sources {
        for strategy in strategies {
            for workload in workloads {
                for deadline in deadlines {
                    pool.push(
                        ExperimentSpec::new(source, strategy, workload)
                            .decoupling(Farads::from_micro(10.0))
                            .deadline(deadline),
                    );
                }
            }
        }
    }
    pool
}

#[test]
fn soundness_e_flagged_specs_never_complete() {
    let catalog = test_catalog();
    let mut linter = Linter::with_catalog(catalog.clone());
    let mut flagged = 0u32;
    let mut clean_completed = 0u32;
    for spec in spec_pool(&catalog) {
        let report = linter.lint_spec(&spec);
        if report.has_errors() {
            flagged += 1;
            // The soundness contract: an E-flagged spec must never
            // complete, no matter how it is driven.
            let completed = spec
                .run_in(&catalog)
                .ok()
                .and_then(|r| r.stats.completed_at);
            assert_eq!(
                completed,
                None,
                "E-flagged spec completed:\n{}\n{}",
                spec.to_json(),
                report.render_text(),
            );
        } else if spec
            .run_in(&catalog)
            .ok()
            .and_then(|r| r.stats.completed_at)
            .is_some()
        {
            clean_completed += 1;
        }
    }
    // The pool genuinely exercises both sides of the contract.
    assert!(flagged >= 30, "only {flagged} specs were E-flagged");
    assert!(
        clean_completed >= 5,
        "only {clean_completed} clean specs completed"
    );
}

#[test]
fn e001_collects_every_violation_not_just_the_first() {
    let bad = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: -50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(0),
    )
    .timestep(Seconds(0.0))
    .decoupling(Farads(-1.0))
    .deadline(Seconds(f64::NAN));
    assert_eq!(bad.violations().len(), 5);
    let report = Linter::new().lint_spec(&bad);
    assert_eq!(report.error_count(), 5);
    assert!(report
        .diagnostics()
        .iter()
        .all(|d| d.code == Code::E001 && d.severity() == Severity::Error));
    // Each violation is located at its own field.
    let paths: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| d.path.as_str())
        .collect();
    assert_eq!(
        paths,
        vec![
            "$.source",
            "$.workload",
            "$.timestep_s",
            "$.decoupling_f",
            "$.deadline_s"
        ]
    );
}

#[test]
fn lint_report_json_round_trips_byte_identically() {
    let catalog = test_catalog();
    let mut linter = Linter::with_catalog(catalog.clone());
    let mut merged = LintReport::new();
    for (i, spec) in spec_pool(&catalog).iter().enumerate() {
        merged.merge_prefixed(&format!("$.pool[{i}]"), linter.lint_spec(spec));
    }
    assert!(!merged.is_clean(), "the pool must produce diagnostics");
    let json = merged.to_json().to_string();
    let reparsed = Json::parse(&json).expect("valid JSON");
    assert_eq!(reparsed.to_string(), json, "byte-identical round trip");
}

#[test]
fn spec_from_json_round_trips_across_kinds() {
    let catalog = test_catalog();
    let id = catalog.ids()[0];
    let specs = vec![
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(200),
        ),
        ExperimentSpec::new(
            SourceKind::Trace {
                id,
                decimate: 4,
                looped: false,
            },
            StrategyKind::HibernusPn,
            WorkloadKind::Fourier(128),
        )
        .deadline(Seconds(2.5)),
        ExperimentSpec::new(
            SourceKind::Turbine,
            StrategyKind::Mementos,
            WorkloadKind::SensePipeline {
                windows: 4,
                samples: 16,
            },
        )
        .topology(energy_driven::core::system::Topology::Buffered {
            storage: Farads::from_micro(100.0),
            efficiency: 0.8,
        })
        .leakage(energy_driven::units::Ohms(220_000.0))
        .telemetry(energy_driven::core::TelemetryKind::Stats),
    ];
    for spec in specs {
        let json = spec.to_json();
        let back = ExperimentSpec::from_json(&json, &catalog).expect("parses back");
        assert_eq!(
            back.to_json().to_string(),
            json.to_string(),
            "spec JSON round-trips byte-identically"
        );
    }
}

/// The prefiltered explorer must stay deterministic across thread counts
/// (serial vs parallel byte-identity is the repo-wide contract) and must
/// not change the front relative to a prefilter-free run.
#[test]
fn prefilter_preserves_fronts_and_thread_determinism() {
    let base = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(200),
    )
    .deadline(Seconds(0.05));
    let space = SpecSpace::over(base)
        .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 1.0 }])
        .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
        .workloads(&[WorkloadKind::BusyLoop(200), WorkloadKind::Endless]);

    let run = |prefilter: bool, threads: usize| {
        Explorer::new()
            .objective(CompletionTime)
            .objective(EnergyPerTask)
            .prefilter(prefilter)
            .threads(threads)
            .run(&space, &ExhaustiveGrid)
            .expect("explores")
    };
    let serial = run(true, 1);
    let parallel = run(true, 4);
    assert_eq!(
        serial.to_json().to_string(),
        parallel.to_json().to_string(),
        "prefiltered reports are byte-identical across thread counts"
    );
    assert!(
        serial.lint_pruned > 0,
        "the space contains E-flagged points"
    );
    assert!(serial.evaluations < space.len() as u64);

    let baseline = run(false, 2);
    assert_eq!(baseline.lint_checks, 0);
    assert_eq!(
        baseline.front.to_json(&baseline.objectives).to_string(),
        serial.front.to_json(&serial.objectives).to_string(),
        "prefilter never changes the front"
    );
    assert!(serial.cost_units < baseline.cost_units);
    // The lint section only appears when the prefilter is on, keeping
    // prefilter-free report JSON byte-stable across versions.
    assert!(serial.to_json().to_string().contains("\"lint\""));
    assert!(!baseline.to_json().to_string().contains("\"lint\""));
}

/// When any objective lacks a static DNF score (brownout counts depend on
/// how the run fails), flagged candidates must still be simulated — the
/// prefilter only ever trades simulation for lint when that is provably
/// free.
#[test]
fn prefilter_defers_to_objectives_without_dnf_scores() {
    let base = ExperimentSpec::new(
        SourceKind::Dc { volts: 1.0 }, // E002 everywhere
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(100),
    )
    .deadline(Seconds(0.02));
    let space = SpecSpace::over(base).strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
    let report = Explorer::new()
        .objective(CompletionTime)
        .objective(BrownoutCount) // no DNF score
        .prefilter(true)
        .threads(1)
        .run(&space, &ExhaustiveGrid)
        .expect("explores");
    assert_eq!(report.lint_pruned, 0, "nothing may be pruned");
    assert_eq!(report.evaluations, space.len() as u64);
}

#[test]
fn space_and_sweep_lint_locate_flagged_points() {
    // Dead axis: every decoupling value of a sub-boot design lints the same.
    let dead = SpecSpace::over(
        ExperimentSpec::new(
            SourceKind::Dc { volts: 1.0 },
            StrategyKind::Restart,
            WorkloadKind::Crc16(64),
        )
        .deadline(Seconds(0.5)),
    )
    .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)]);
    let report = lint_space(&dead, &mut Linter::new());
    assert!(report
        .diagnostics()
        .iter()
        .any(|d| d.code == Code::W105 && d.path == "$.axes.decoupling"));

    // Sweep::lint points at the offending grid row.
    let sweep = edc_bench::sweep::Sweep::over(
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::Crc16(64),
        )
        .deadline(Seconds(0.5)),
    )
    .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 1.0 }]);
    let report = sweep.lint();
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.diagnostics()[0].path, "$.specs[1].source");
    assert_eq!(report.diagnostics()[0].code, Code::E002);
}
