//! Integration tests for the interval-bounds engine (`edc-bound`) — above
//! all the **soundness contract**: every simulated score must land inside
//! its static bracket (`lo <= simulated <= hi`), across sources ×
//! strategies × workloads × traces, because that is what licenses the
//! evaluator's branch-and-bound pruning to discard candidates whose
//! bracket is dominated without simulating them.

use energy_driven::bound::Bounder;
use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::TelemetryKind;
use energy_driven::explore::{
    BrownoutCount, CompletionTime, EnergyPerTask, Evaluator, ExhaustiveGrid, Explorer, Objective,
    P99Outage, SpecSpace, Store,
};
use energy_driven::metrics::Registry;
use energy_driven::units::{Farads, Seconds};
use energy_driven::workloads::WorkloadKind;

/// A catalog with one healthy recording and one too dim to fund anything
/// (mirrors the adversarial lint pool's catalog).
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
        SourceKind::Dc { volts: 1.0 }, // never reaches a boot threshold
        SourceKind::RectifiedSine { hz: 50.0 },
        SourceKind::Trace {
            id: healthy,
            decimate: 1,
            looped: true,
        },
        SourceKind::Trace {
            id: dim,
            decimate: 1,
            looped: false, // ~µW for 2 ms, then held — never funds a run
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
        WorkloadKind::Endless, // no completion state
    ];
    let deadlines = [Seconds(40e-6), Seconds(0.3)]; // first: infeasible for real workloads
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
fn soundness_every_simulated_score_lands_inside_its_bracket() {
    let catalog = test_catalog();
    let mut bounder = Bounder::with_catalog(catalog.clone());
    let objectives: [&dyn Objective; 4] =
        [&CompletionTime, &BrownoutCount, &P99Outage, &EnergyPerTask];
    let mut proven_dnf = 0u32;
    let mut exact = 0u32;
    let pool = spec_pool(&catalog);
    assert_eq!(pool.len(), 90);
    for spec in pool {
        let spec = spec.telemetry(TelemetryKind::Stats);
        let bound = bounder.bound_spec(&spec).expect("pool specs are valid");
        let report = spec.run_in(&catalog).expect("pool specs run");
        for o in objectives {
            let bracket = o
                .static_bracket(&spec, &mut bounder)
                .expect("pool specs have brackets");
            let simulated = o.score(&spec, &report);
            assert!(
                bracket.contains(simulated),
                "{} = {simulated} outside [{}, {}] for\n{}",
                o.name(),
                bracket.lo,
                bracket.hi,
                spec.to_json(),
            );
            if bracket.is_exact() {
                exact += 1;
            }
        }
        proven_dnf += bound.proven_dnf as u32;
    }
    // The pool genuinely exercises both sides: many proven DNFs (the
    // brackets collapse) and many open designs.
    assert!(proven_dnf >= 30, "only {proven_dnf} specs proven DNF");
    assert!(exact >= 60, "only {exact} exact brackets across the pool");
}

/// 18 points: more than one bound chunk, so completed incumbents from
/// the first chunk can dominance-prune dark designs in the second.
fn eighteen_point_space() -> SpecSpace {
    let base = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(200),
    )
    .deadline(Seconds(0.05));
    SpecSpace::over(base)
        .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 1.0 }])
        .strategies(&[
            StrategyKind::Restart,
            StrategyKind::Hibernus,
            StrategyKind::QuickRecall,
        ])
        .workloads(&[
            WorkloadKind::BusyLoop(200),
            WorkloadKind::Crc16(64),
            WorkloadKind::Endless,
        ])
}

/// Bound-pruned explore reports are part of the repo-wide determinism
/// contract: serial == parallel == repeat, byte for byte, and the front
/// matches a bound-free run of the same space.
#[test]
fn bound_pruned_reports_are_byte_identical_and_front_preserving() {
    let space = eighteen_point_space();
    let run = |bound: bool, threads: usize| {
        Explorer::new()
            .objective(CompletionTime)
            .objective(BrownoutCount)
            .bound(bound)
            .threads(threads)
            .run(&space, &ExhaustiveGrid)
            .expect("explores")
    };
    let serial = run(true, 1);
    let parallel = run(true, 4);
    let repeat = run(true, 1);
    assert_eq!(
        serial.to_json().to_string(),
        parallel.to_json().to_string(),
        "bound-pruned reports are byte-identical across thread counts"
    );
    assert_eq!(
        serial.to_json().to_string(),
        repeat.to_json().to_string(),
        "bound-pruned reports are byte-identical across repeats"
    );
    assert_eq!(serial.bound_checks, space.len() as u64);
    assert!(serial.bound_pruned > 0, "dark designs must be pruned");
    assert!(serial.evaluations < space.len() as u64);

    let baseline = run(false, 2);
    assert_eq!(baseline.bound_checks, 0);
    assert_eq!(
        baseline.front.to_json(&baseline.objectives).to_string(),
        serial.front.to_json(&serial.objectives).to_string(),
        "bound pruning never changes the front"
    );
    // The bound section only appears when pruning is on, keeping
    // bound-free report JSON byte-stable across versions.
    assert!(serial.to_json().to_string().contains("\"bound\""));
    assert!(!baseline.to_json().to_string().contains("\"bound\""));
}

/// The evaluator's dominance pruning in isolation: once an incumbent with
/// a completed, brownout-free score exists, a provably-dark candidate's
/// bracket is dominated and the candidate is never simulated.
#[test]
fn evaluator_bound_prunes_dark_candidates_against_incumbents() {
    let objectives: Vec<Box<dyn Objective>> =
        vec![Box::new(CompletionTime), Box::new(BrownoutCount)];
    let mut evaluator = Evaluator::new(&objectives, 1, None, Seconds(50e-6)).with_bound(true);
    let healthy = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(100),
    )
    .deadline(Seconds(0.05));
    let dark = healthy.source(SourceKind::Dc { volts: 1.0 });
    evaluator
        .evaluate(vec![healthy], "seed")
        .expect("seed batch evaluates");
    assert_eq!(evaluator.simulations(), 1);
    evaluator
        .evaluate(vec![dark], "dark")
        .expect("dark batch evaluates");
    assert_eq!(evaluator.simulations(), 1, "the dark candidate never ran");
    assert_eq!(evaluator.bound_pruned(), 1);
}

/// The evaluator's metrics exposition with every stage on: a cold
/// prefilter + bound search over a fresh store (lint-prunes, bound-prunes,
/// simulates and writes back), then a warm one over the same store (store
/// hits), both into one private registry, pinned byte for byte. Among
/// other things it pins that `edc_eval_misses` counts bound-pruned misses
/// but not lint-pruned ones. Regenerate deliberately with
/// `BLESS=1 cargo test --test bound`.
#[test]
fn cold_and_warm_bound_search_exposition_matches_the_golden_file() {
    let dir = std::env::temp_dir().join("edc-tests-bound-exposition");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::new();
    // 36 points, so the 24 misses the prefilter leaves span two bound
    // chunks and the second chunk's dark designs can be bound-pruned.
    let space =
        eighteen_point_space().decoupling(&[Farads::from_micro(10.0), Farads::from_micro(22.0)]);
    let run = || {
        Explorer::new()
            .objective(CompletionTime)
            .objective(BrownoutCount)
            .prefilter(true)
            .bound(true)
            .threads(2)
            .metrics(registry.clone())
            .store(Store::open(&dir).expect("store opens").into_handle())
            .run(&space, &ExhaustiveGrid)
            .expect("explores")
    };
    let cold = run();
    assert!(cold.lint_pruned > 0 && cold.bound_pruned > 0 && cold.evaluations > 0);
    let warm = run();
    assert_eq!((warm.evaluations, warm.store_hits), (0, cold.evaluations));
    let exposed = registry.render_text();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/explore_eval.metrics.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &exposed).expect("golden file writable");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file present (BLESS=1 to regenerate)");
    assert_eq!(
        exposed, golden,
        "evaluator exposition drifted from the golden file; if the change is \
         intentional, re-bless with BLESS=1 cargo test --test bound"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
