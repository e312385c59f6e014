//! Lint-prefilter benchmark: identical Pareto fronts at lower cost.
//!
//! The space is `bench_trace`'s search space *extended with designs the
//! static analyzer can prove infeasible*: non-looped trace variants (the
//! mains recording decays to 0 W and is then held there — `E004`, the
//! supply bound can never fund the workload) and the `endless` workload
//! (`E005`, no completion state). The same exhaustive grid is run twice —
//! prefilter off, then on — and the artifact proves the tentpole claim:
//!
//! - the Pareto fronts are **byte-identical** (the prefilter only replaces
//!   simulations whose scores are statically known);
//! - the prefiltered run's simulation cost is **strictly lower**, with the
//!   lint work billed separately (`lint.checks` / `lint.pruned`).
//!
//! The binary exits non-zero if either property fails, so CI regression
//! checks are the assertions themselves. `BENCH_lint.json` layout: the
//! catalog, the space-level lint report, both `ExploreReport` sections
//! (deterministic, byte-diffable), the comparison, and wall-clock timing
//! (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-explore --bin bench_lint`
//! Output path override: `bench_lint <path>` (default `BENCH_lint.json`).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store and hard-asserts each front byte-identical to the committed
//! cold `BENCH_lint.json`. Store hits bypass the lint prefilter (a
//! stored score needs no static analysis), so the prune-count and
//! cost-strictness assertions only apply to store-less runs.

#[path = "common/recordings.rs"]
mod recordings;
#[path = "common/space224.rs"]
mod space224;
#[path = "common/store.rs"]
mod store;

use std::path::Path;
use std::time::Instant;

use edc_bench::{banner, MainError};
use edc_core::json::Json;
use edc_explore::{lint_space, CompletionTime, EnergyPerTask, ExhaustiveGrid, Explorer};
use edc_lint::Linter;

use recordings::catalog;
use space224::space;

fn main() -> Result<(), MainError> {
    let args = edc_bench::bench_args("BENCH_lint.json");
    let path = args.path.clone();
    let catalog = catalog()?;
    let space = space(&catalog)?;

    // The space-level static report, committed alongside the search: which
    // designs the analyzer flags, and where.
    let space_lint = lint_space(&space, &mut Linter::with_catalog(catalog.clone()));

    let mut explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .catalog(catalog.clone());
    if let Some(dir) = &args.store {
        explorer = explorer.store(store::open(Path::new(dir))?);
    }

    let started = Instant::now();
    let baseline = explorer
        .run(&space, &ExhaustiveGrid)
        .map_err(|e| format!("baseline exploration failed: {e}"))?;
    let baseline_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let prefiltered = explorer
        .prefilter(true)
        .run(&space, &ExhaustiveGrid)
        .map_err(|e| format!("prefiltered exploration failed: {e}"))?;
    let prefiltered_s = started.elapsed().as_secs_f64();

    banner("Space: bench_trace extended with statically-infeasible designs");
    println!(
        "{} designs; space lint: {} error(s), {} warning(s)",
        space.len(),
        space_lint.error_count(),
        space_lint.warning_count(),
    );
    banner("Prefilter effect");
    println!(
        " baseline: {} sims ({:.2} cost units) in {baseline_s:.3} s",
        baseline.evaluations, baseline.cost_units
    );
    println!(
        "prefilter: {} sims ({:.2} cost units) in {prefiltered_s:.3} s \
         ({} lint checks, {} pruned)",
        prefiltered.evaluations,
        prefiltered.cost_units,
        prefiltered.lint_checks,
        prefiltered.lint_pruned,
    );

    // The tentpole's two load-bearing properties, asserted hard: the front
    // is byte-identical and the simulation cost strictly lower.
    let objectives: Vec<String> = baseline.objectives.clone();
    let front_a_json = baseline.front.to_json(&objectives);
    let front_b_json = prefiltered.front.to_json(&objectives);
    let fronts_identical = front_a_json.to_string() == front_b_json.to_string();
    if !fronts_identical {
        return Err("FAIL: prefilter changed the Pareto front".into());
    }
    if args.store.is_none() {
        // Store hits bypass the prefilter entirely (a stored score needs
        // no static analysis), so these only hold for store-less runs.
        if prefiltered.lint_pruned == 0 {
            let why = "the extended space must contain E-flagged designs";
            return Err(format!("FAIL: prefilter pruned nothing — {why}").into());
        }
        if prefiltered.cost_units >= baseline.cost_units {
            return Err(format!(
                "FAIL: prefiltered cost {} is not strictly below baseline {}",
                prefiltered.cost_units, baseline.cost_units
            )
            .into());
        }
        println!(
            "fronts byte-identical; cost {:.2} → {:.2} units ({:.0}% saved)",
            baseline.cost_units,
            prefiltered.cost_units,
            (1.0 - prefiltered.cost_units / baseline.cost_units) * 100.0
        );
    } else {
        println!(
            "store: baseline {} hits, prefiltered {} hits",
            baseline.store_hits, prefiltered.store_hits
        );
        edc_bench::assert_front_matches("BENCH_lint.json", "baseline", &front_a_json)?;
        edc_bench::assert_front_matches("BENCH_lint.json", "prefiltered", &front_b_json)?;
    }

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "lint",
        vec![
            ("catalog", catalog.to_json()),
            ("space_lint", space_lint.to_json()),
            ("baseline", baseline.to_json()),
            ("prefiltered", prefiltered.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("fronts_identical", Json::Bool(fronts_identical)),
                    ("baseline_simulations", Json::Uint(baseline.evaluations)),
                    (
                        "prefiltered_simulations",
                        Json::Uint(prefiltered.evaluations),
                    ),
                    ("baseline_cost_units", Json::Num(baseline.cost_units)),
                    ("prefiltered_cost_units", Json::Num(prefiltered.cost_units)),
                    ("lint_checks", Json::Uint(prefiltered.lint_checks)),
                    ("lint_pruned", Json::Uint(prefiltered.lint_pruned)),
                ]),
            ),
            // Non-deterministic section, deliberately outside both reports.
            (
                "timing",
                Json::obj(vec![
                    ("baseline_s", Json::Num(baseline_s)),
                    ("prefiltered_s", Json::Num(prefiltered_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
    Ok(())
}
