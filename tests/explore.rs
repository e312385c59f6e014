//! Integration tests for the exploration subsystem (`edc-explore`):
//! determinism guarantees, the multi-fidelity budget claim, and Pareto
//! soundness.
//!
//! The three pillars, matching ISSUE/README claims:
//! 1. `ExploreReport` JSON is byte-identical across repeated runs and
//!    across serial-vs-parallel execution, for every searcher.
//! 2. `SuccessiveHalving` lands on the exhaustive grid's Pareto front for
//!    ≤ 25% of the grid's full-fidelity-equivalent cost.
//! 3. A `ParetoFront` never contains a dominated point (property-based).

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::explore::evaluator::Evaluation;
use energy_driven::explore::seed::sizing_seeded_decoupling_axis;
use energy_driven::explore::{
    dominates, BrownoutCount, CompletionTime, CoordinateDescent, Evaluator, ExhaustiveGrid,
    ExploreError, Explorer, Objective, ParetoFront, Provenance, RandomSearch, Searcher, SpecSpace,
    SuccessiveHalving,
};
use energy_driven::metrics::Registry;
use energy_driven::units::{Farads, Joules, Seconds, Volts};
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

fn dummy_spec() -> ExperimentSpec {
    ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(1),
    )
}

/// A small, fast space for determinism checks: DC supply, two strategies,
/// two capacitances, two workload sizes.
fn small_space() -> SpecSpace {
    let base = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(150),
    )
    .deadline(Seconds(1.0));
    SpecSpace::over(base)
        .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
        .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)])
        .decoupling(&[Farads::from_micro(10.0), Farads::from_micro(22.0)])
}

/// The capacitor-sizing space the paper reasons about by hand: Fig. 7
/// supply, sizing-seeded capacitance ladder, restart-vs-hibernus.
fn sizing_space() -> SpecSpace {
    let decoupling = sizing_seeded_decoupling_axis(
        Joules::from_micro(5.0),
        Volts(2.0),
        Volts(3.6),
        0.1,
        32.0,
        8,
    )
    .expect("canonical rails are valid");
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(256),
    )
    .deadline(Seconds(3.0));
    SpecSpace::over(base)
        .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
        .decoupling(&decoupling)
}

#[test]
fn every_searcher_is_byte_deterministic_serial_vs_parallel() {
    let space = small_space();
    let searchers: Vec<Box<dyn Searcher>> = vec![
        Box::new(ExhaustiveGrid),
        Box::new(RandomSearch::new(2017, 6)),
        Box::new(SuccessiveHalving::new().rungs(&[4.0, 1.0])),
        Box::new(CoordinateDescent::new(2)),
    ];
    for searcher in &searchers {
        let explorer = |threads: usize| {
            Explorer::new()
                .objective(CompletionTime)
                .objective(BrownoutCount)
                .threads(threads)
        };
        let parallel = explorer(4)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        let serial = explorer(1)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        let again = explorer(3)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        assert_eq!(parallel, serial, "{}: serial != parallel", searcher.name());
        assert_eq!(parallel, again, "{}: repeat differs", searcher.name());
    }
}

#[test]
fn seeded_random_search_replays_byte_identically() {
    let space = small_space();
    let run = |seed: u64| {
        Explorer::new()
            .objective(CompletionTime)
            .run(&space, &RandomSearch::new(seed, 8))
            .expect("explores")
            .to_json()
            .to_string()
    };
    assert_eq!(run(7), run(7), "same seed, same report bytes");
    assert_ne!(run(7), run(8), "different seeds sample differently");
}

/// The headline budget claim: successive halving finds a design on the
/// exhaustive grid's Pareto front for ≤ 25% of the grid's cost
/// (full-fidelity-equivalent units; the coarse prefilter rungs are cheap
/// because simulation cost scales inversely with the timestep).
#[test]
fn halving_lands_on_the_grid_front_within_quarter_budget() {
    let space = sizing_space();
    let explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(BrownoutCount);
    let grid = explorer.run(&space, &ExhaustiveGrid).expect("explores");
    let halving = explorer
        .run(&space, &SuccessiveHalving::new())
        .expect("explores");

    assert_eq!(grid.evaluations, space.len() as u64);
    assert!(
        halving.cost_units <= 0.25 * grid.cost_units,
        "halving cost {} exceeds 25% of grid cost {}",
        halving.cost_units,
        grid.cost_units
    );
    // The claim also holds counting only full-fidelity simulations: the
    // coarse prefilter rungs run at 4-16x the timestep, so the number of
    // candidates halving simulates *at the grid's own fidelity* is a small
    // fraction of the grid.
    let fine = space.finest_timestep();
    let full_fidelity = halving
        .trace
        .iter()
        .filter(|t| t.provenance != Provenance::Memo && t.spec.timestep == fine)
        .count();
    assert!(
        full_fidelity as f64 <= 0.25 * grid.evaluations as f64,
        "halving ran {full_fidelity} full-fidelity simulations vs grid's {}",
        grid.evaluations
    );
    let best = halving.best().expect("halving returns candidates");
    assert!(
        grid.front.contains_key(&best.key),
        "halving's best design is not on the exhaustive Pareto front: {}",
        best.key
    );
}

#[test]
fn budget_is_a_hard_cap() {
    let space = small_space();
    let err = Explorer::new()
        .objective(CompletionTime)
        .budget(3)
        .run(&space, &ExhaustiveGrid)
        .expect_err("8 points > 3 budget");
    assert!(err.to_string().contains("budget"));
}

/// A catalog with two synthetic "recordings" plus a trace-axis space over
/// them: 2 traces × 2 decimation levels × 2 strategies = 8 designs.
fn trace_space() -> (TraceCatalog, SpecSpace) {
    let mut catalog = TraceCatalog::new();
    let mains: Vec<(f64, f64)> = (0..20)
        .map(|i| {
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            (i as f64 * 1e-3, 8e-3 * phase.sin().max(0.0))
        })
        .collect();
    let mains = catalog.register("mains-cycle", mains).expect("valid");
    let bursty: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 2e-3, if i % 4 < 2 { 6e-3 } else { 0.5e-3 }))
        .collect();
    let bursty = catalog.register("bursty-office", bursty).expect("valid");
    let base = ExperimentSpec::new(
        SourceKind::trace(mains),
        StrategyKind::Restart,
        WorkloadKind::Crc16(48),
    )
    .deadline(Seconds(2.0));
    let sources: Vec<SourceKind> = [mains, bursty]
        .iter()
        .flat_map(|&id| {
            [1u64, 4].iter().map(move |&decimate| SourceKind::Trace {
                id,
                decimate,
                looped: true,
            })
        })
        .collect();
    let space = SpecSpace::over(base)
        .sources(&sources)
        .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
    (catalog, space)
}

/// The new-axis acceptance claim: all four searchers stay
/// serial == parallel == repeat byte-identical over a source axis of ≥ 2
/// registered traces with decimation as a fidelity knob.
#[test]
fn every_searcher_is_byte_deterministic_on_a_trace_axis() {
    let (catalog, space) = trace_space();
    assert_eq!(space.len(), 8);
    let searchers: Vec<Box<dyn Searcher>> = vec![
        Box::new(ExhaustiveGrid),
        Box::new(RandomSearch::new(404, 5)),
        Box::new(SuccessiveHalving::new().rungs(&[4.0, 1.0])),
        Box::new(CoordinateDescent::new(2)),
    ];
    for searcher in &searchers {
        let explorer = |threads: usize| {
            Explorer::new()
                .objective(CompletionTime)
                .objective(BrownoutCount)
                .catalog(catalog.clone())
                .threads(threads)
        };
        let parallel = explorer(4)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        let serial = explorer(1)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        let again = explorer(3)
            .run(&space, searcher.as_ref())
            .expect("explores")
            .to_json()
            .to_string();
        assert_eq!(parallel, serial, "{}: serial != parallel", searcher.name());
        assert_eq!(parallel, again, "{}: repeat differs", searcher.name());
        assert!(
            parallel.contains("\"name\":\"bursty-office\""),
            "{}: trace axis absent from report JSON",
            searcher.name()
        );
    }
}

/// Decimation is a *budgeted* fidelity knob: a `k×`-decimated trace run
/// charges `1/k` cost units, the same discount a `k×`-coarser timestep
/// earns, so prefilters over long recordings are affordable.
#[test]
fn trace_decimation_discounts_the_evaluation_budget() {
    use energy_driven::explore::{Evaluator, Objective};
    let (catalog, space) = trace_space();
    let objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
    let mut eval =
        Evaluator::new(&objectives, 1, None, space.finest_timestep()).with_catalog(catalog.clone());
    // Flat order: decimate is part of the sources axis; index 0 is the
    // full-fidelity mains trace, index 2 the 4×-decimated one.
    let full = space.spec_at(0);
    let coarse = space.spec_at(2);
    assert_eq!(full.source.fidelity_discount(), 1.0);
    assert_eq!(coarse.source.fidelity_discount(), 4.0);
    eval.evaluate(vec![full], "full").expect("evaluates");
    assert!((eval.cost_units() - 1.0).abs() < 1e-12);
    eval.evaluate(vec![coarse], "coarse").expect("evaluates");
    assert!(
        (eval.cost_units() - 1.25).abs() < 1e-12,
        "4× decimation must cost a quarter unit, got {}",
        eval.cost_units()
    );
    // And the hard budget speaks the same currency: budget 1 admits four
    // quarter-cost decimated runs, not five.
    let mut capped =
        Evaluator::new(&objectives, 1, Some(1), space.finest_timestep()).with_catalog(catalog);
    let decimated: Vec<ExperimentSpec> = (0..4)
        .map(|i| space.spec_at(2).workload(WorkloadKind::Crc16(40 + i)))
        .collect();
    capped.evaluate(decimated, "rung").expect("4 × 1/4 fits");
    capped
        .evaluate(
            vec![space.spec_at(2).workload(WorkloadKind::Crc16(60))],
            "over",
        )
        .expect_err("budget spent");
}

/// Fleet-level budget accounting: objectives that deploy each candidate as
/// an `n`-node population charge ≈ `n` per cache miss instead of 1.
#[test]
fn fleet_objectives_charge_node_count_per_cache_miss() {
    use energy_driven::core::fleet::FieldSpec;
    use energy_driven::core::scenarios::FieldEnvelope;
    use energy_driven::explore::{Evaluator, FleetNodesToCover, FleetTemplate, Objective};
    let template = FleetTemplate::new(
        FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
        3,
    )
    .threads(2);
    let objectives: Vec<Box<dyn Objective>> = vec![
        Box::new(CompletionTime),
        Box::new(FleetNodesToCover(template)),
    ];
    assert_eq!(objectives[1].cost_multiplier(), 3.0);
    let base = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(120),
    )
    .deadline(Seconds(1.0));
    let mut eval = Evaluator::new(&objectives, 2, None, base.timestep);
    eval.evaluate(vec![base], "fleet").expect("evaluates");
    assert!(
        (eval.cost_units() - 3.0).abs() < 1e-12,
        "a 3-node fleet objective must charge 3 units per miss, got {}",
        eval.cost_units()
    );
    // A budget below the node count rejects even a single miss up front.
    let mut capped = Evaluator::new(&objectives, 2, Some(2), base.timestep);
    let err = capped
        .evaluate(vec![base.workload(WorkloadKind::BusyLoop(121))], "over")
        .expect_err("3 > 2");
    assert!(err.to_string().contains("budget"), "{err}");
    assert_eq!(capped.simulations(), 0, "nothing ran");
}

/// Per-cell deadlines in `SuccessiveHalving`: early rungs shorten the
/// deadline as well as coarsening the timestep, rung-monotonically, and
/// the evaluator's deadline-ratio accounting compounds the saving.
#[test]
fn halving_deadline_divisors_shorten_early_rungs_monotonically() {
    let space = sizing_space();
    let explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(BrownoutCount);
    let plain = explorer
        .run(&space, &SuccessiveHalving::new())
        .expect("explores");
    let shortened_searcher = SuccessiveHalving::new().deadline_divisors(&[4.0, 2.0, 1.0]);
    let shortened = explorer.run(&space, &shortened_searcher).expect("explores");

    // Rung-monotone: within the trace, each rung's deadline is a fixed
    // value, non-decreasing from rung to rung, ending at the full horizon.
    let mut rung_deadlines: Vec<f64> = Vec::new();
    for entry in shortened.trace.iter() {
        let rung: usize = entry
            .phase
            .strip_prefix("rung")
            .and_then(|s| s.split('@').next())
            .and_then(|s| s.parse().ok())
            .expect("halving phases are rungN@Fx");
        if rung_deadlines.len() <= rung {
            rung_deadlines.push(entry.spec.deadline.0);
        }
        assert_eq!(
            entry.spec.deadline.0, rung_deadlines[rung],
            "one deadline per rung"
        );
    }
    assert_eq!(rung_deadlines.len(), 3);
    assert!(
        rung_deadlines.windows(2).all(|w| w[0] <= w[1]),
        "deadlines must be rung-monotone (early rungs shortest): {rung_deadlines:?}"
    );
    assert_eq!(rung_deadlines[0], space.base().deadline.0 / 4.0);
    assert_eq!(
        *rung_deadlines.last().unwrap(),
        space.base().deadline.0,
        "the final rung restores the full horizon"
    );

    // The deadline discount compounds with the timestep discount.
    assert!(
        shortened.cost_units < plain.cost_units,
        "shortened rungs must cost less: {} vs {}",
        shortened.cost_units,
        plain.cost_units
    );

    // Still deterministic.
    let again = explorer.run(&space, &shortened_searcher).expect("explores");
    assert_eq!(shortened.to_json().to_string(), again.to_json().to_string());
}

proptest! {
    #![proptest_config(proptest::test_runner::Config {
        cases: 64,
        ..proptest::test_runner::Config::default()
    })]

    /// An infeasible candidate (`INFINITY` on every objective) never
    /// enters the front while any finite-scored candidate exists: the
    /// finite one dominates it outright.
    #[test]
    fn prop_fully_infeasible_never_beats_feasible(
        finite in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..12),
        infeasible in 1usize..6,
    ) {
        let mut evals: Vec<Evaluation> = finite
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Evaluation {
                spec: dummy_spec(),
                key: format!("finite-{i:03}"),
                scores: vec![a, b],
            })
            .collect();
        for i in 0..infeasible {
            evals.push(Evaluation {
                spec: dummy_spec(),
                key: format!("infeasible-{i:03}"),
                scores: vec![f64::INFINITY, f64::INFINITY],
            });
        }
        let front = ParetoFront::from_evaluations(&evals);
        for p in front.points() {
            prop_assert!(
                p.scores.iter().any(|s| s.is_finite()),
                "all-infinite candidate {:?} entered the front next to finite designs",
                p.key
            );
        }
    }

    /// Single-objective case of the same guarantee: with one objective, a
    /// single finite score expels every `INFINITY` from the front.
    #[test]
    fn prop_single_objective_infinity_never_enters_the_front(
        finite in proptest::collection::vec(0.0f64..10.0, 1..8),
        infeasible in 1usize..6,
    ) {
        let mut evals: Vec<Evaluation> = finite
            .iter()
            .enumerate()
            .map(|(i, &a)| Evaluation {
                spec: dummy_spec(),
                key: format!("finite-{i:03}"),
                scores: vec![a],
            })
            .collect();
        for i in 0..infeasible {
            evals.push(Evaluation {
                spec: dummy_spec(),
                key: format!("infeasible-{i:03}"),
                scores: vec![f64::INFINITY],
            });
        }
        let front = ParetoFront::from_evaluations(&evals);
        prop_assert!(front.points().iter().all(|p| p.scores[0].is_finite()));
    }

    /// The built-in objectives never produce `NaN`, whatever the run did:
    /// infeasible designs must surface as `INFINITY` (which dominance
    /// orders correctly) and never as `NaN` (which would poison every
    /// comparison downstream). Runs real simulations across strategies,
    /// workload sizes and deadlines, including deadlines far too short to
    /// finish and stats sinks that never see an outage.
    #[test]
    fn prop_builtin_objectives_never_produce_nan(
        strategy_index in 0usize..7,
        n in 1u16..400,
        deadline_ms in 5u64..60,
        volts in 2.5f64..4.0,
    ) {
        use energy_driven::core::TelemetryKind;
        use energy_driven::explore::{EnergyPerTask, Objective, P99Outage};

        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts },
            StrategyKind::ALL[strategy_index],
            WorkloadKind::BusyLoop(n),
        )
        .timestep(Seconds(50e-6))
        .deadline(Seconds(deadline_ms as f64 * 1e-3))
        .telemetry(TelemetryKind::Stats);
        let report = spec.run().expect("spec runs");
        let objectives: Vec<Box<dyn Objective>> = vec![
            Box::new(CompletionTime),
            Box::new(BrownoutCount),
            Box::new(P99Outage),
            Box::new(EnergyPerTask),
        ];
        for objective in &objectives {
            let score = objective.score(&spec, &report);
            prop_assert!(
                !score.is_nan(),
                "{} produced NaN for {:?}",
                objective.name(),
                spec.label()
            );
        }
    }

    /// A `ParetoFront` never contains a point dominated by *any* candidate
    /// it was built from, and never drops a non-dominated candidate.
    #[test]
    fn prop_front_is_exactly_the_nondominated_set(
        scores in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..24),
    ) {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(1),
        );
        let evals: Vec<Evaluation> = scores
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Evaluation {
                spec,
                key: format!("candidate-{i:03}"),
                scores: vec![a, b],
            })
            .collect();
        let front = ParetoFront::from_evaluations(&evals);
        prop_assert!(!front.is_empty(), "a non-empty set has a front");
        for p in front.points() {
            for e in &evals {
                prop_assert!(
                    !dominates(&e.scores, &p.scores),
                    "front point {:?} is dominated by {:?}",
                    p.scores,
                    e.scores
                );
            }
        }
        for e in &evals {
            let nondominated = !evals.iter().any(|o| dominates(&o.scores, &e.scores));
            if nondominated {
                prop_assert!(
                    front.contains_key(&e.key),
                    "non-dominated candidate {} missing from the front",
                    e.key
                );
            }
        }
    }
}

/// A budget error leaves the evaluator's totals and its metrics exactly
/// where the stages that did run left them. Without bound pruning the
/// whole batch is rejected before anything runs, so nothing is counted or
/// registered. With it, the batch is charged chunk by chunk: the first
/// chunk is simulated, charged and observed in the miss-cost histogram,
/// while the per-call request counters (published only by a successful
/// call) stay unregistered.
#[test]
fn budget_errors_leave_totals_and_exposition_as_recorded() {
    let objectives: Vec<Box<dyn Objective>> =
        vec![Box::new(CompletionTime), Box::new(BrownoutCount)];
    // Slowest first, so no later candidate is dominated at its lower
    // bounds by an earlier incumbent; the last spec repeats the first.
    let mut specs: Vec<ExperimentSpec> = (0..20u16)
        .map(|i| {
            ExperimentSpec::new(
                SourceKind::Dc { volts: 3.3 },
                StrategyKind::Restart,
                WorkloadKind::BusyLoop(300 - i),
            )
            .deadline(Seconds(0.05))
        })
        .collect();
    specs.push(specs[0]);
    for bound in [false, true] {
        let registry = Registry::new();
        let mut eval = Evaluator::new(&objectives, 2, Some(16), Seconds(20e-6))
            .with_bound(bound)
            .with_metrics(registry.clone());
        let err = eval
            .evaluate(specs.clone(), "batch")
            .expect_err("over budget");
        assert_eq!(
            err,
            ExploreError::BudgetExhausted {
                budget: 16,
                needed: 20.0
            }
        );
        let exposed = registry.render_text();
        let summary = |kind: &str| -> Vec<&str> {
            exposed
                .lines()
                .filter(|l| l.starts_with(kind))
                .collect::<Vec<_>>()
        };
        if !bound {
            assert_eq!(exposed, "# EOF\n");
            assert_eq!(
                (eval.simulations(), eval.cost_units(), eval.cache_hits()),
                (0, 0.0, 0)
            );
            continue;
        }
        assert_eq!(
            (eval.simulations(), eval.cost_units(), eval.cache_hits()),
            (16, 16.0, 0)
        );
        assert_eq!(
            summary("# TYPE"),
            [
                "# TYPE edc_eval_miss_cost_units histogram",
                "# TYPE edc_runner_boots counter",
                "# TYPE edc_runner_brownouts counter",
                "# TYPE edc_runner_completions counter",
                "# TYPE edc_runner_cycle_carry_activations counter",
                "# TYPE edc_runner_instructions counter",
                "# TYPE edc_runner_restores counter",
                "# TYPE edc_runner_runs counter",
                "# TYPE edc_runner_snapshots counter",
                "# TYPE edc_runner_ticks counter",
                "# TYPE edc_sweep_batch_cells histogram",
                "# TYPE edc_sweep_batches counter",
                "# TYPE edc_sweep_cells counter",
            ]
        );
        assert_eq!(
            summary("edc_eval"),
            [
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"0.015625\"} 0",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"0.0625\"} 0",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"0.25\"} 0",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"1\"} 16",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"4\"} 16",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"16\"} 16",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"64\"} 16",
                "edc_eval_miss_cost_units_bucket{phase=\"batch\",le=\"+Inf\"} 16",
                "edc_eval_miss_cost_units_sum{phase=\"batch\"} 16",
                "edc_eval_miss_cost_units_count{phase=\"batch\"} 16",
            ]
        );
        assert_eq!(summary("edc_sweep_cells"), ["edc_sweep_cells_total 16"]);
    }
}
