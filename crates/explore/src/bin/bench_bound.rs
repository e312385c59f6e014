//! Branch-and-bound benchmark: identical Pareto fronts at lower cost than
//! the lint prefilter alone.
//!
//! The space is `bench_lint`'s 224-design space, but the objective set
//! adds `BrownoutCount` — which has no static DNF score, so the lint
//! prefilter alone can prune *nothing*: a flagged design's brownout count
//! still depends on how the run fails. The interval engine closes exactly
//! that gap. The same exhaustive grid is run twice — lint prefilter only,
//! then with score-bracket branch-and-bound on top — and the artifact
//! proves the tentpole claim:
//!
//! - the Pareto fronts are **byte-identical** (a candidate is only pruned
//!   when an incumbent's exact scores dominate its whole bracket, so no
//!   front point can be lost);
//! - the bounded run's simulation cost is **strictly lower**, with the
//!   bounding work billed separately (`bound.checks` / `bound.pruned`).
//!
//! The binary exits non-zero if either property fails, so CI regression
//! checks are the assertions themselves. `BENCH_bound.json` layout: the
//! catalog, the space-level lint report, both `ExploreReport` sections
//! (deterministic, byte-diffable), the comparison, and wall-clock timing
//! under `bound_timing` (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-explore --bin bench_bound`
//! Output path override: `bench_bound <path>` (default `BENCH_bound.json`).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store and hard-asserts each front byte-identical to the committed
//! cold `BENCH_bound.json`. Store hits bypass the interval engine (a
//! stored score needs no bounding), so the prune-count and
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
use edc_explore::{
    lint_space, BrownoutCount, CompletionTime, EnergyPerTask, ExhaustiveGrid, Explorer,
};
use edc_lint::Linter;

use recordings::catalog;
use space224::space;

fn main() -> Result<(), MainError> {
    let args = edc_bench::bench_args("BENCH_bound.json");
    let path = args.path.clone();
    let catalog = catalog()?;
    let space = space(&catalog)?;

    // The space-level static report, committed alongside the search.
    let space_lint = lint_space(&space, &mut Linter::with_catalog(catalog.clone()));

    let mut explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .objective(BrownoutCount)
        .prefilter(true)
        .catalog(catalog.clone());
    if let Some(dir) = &args.store {
        explorer = explorer.store(store::open(Path::new(dir))?);
    }

    let started = Instant::now();
    let lint_only = explorer
        .run(&space, &ExhaustiveGrid)
        .map_err(|e| format!("lint-only exploration failed: {e}"))?;
    let lint_only_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let bounded = explorer
        .bound(true)
        .run(&space, &ExhaustiveGrid)
        .map_err(|e| format!("bounded exploration failed: {e}"))?;
    let bounded_s = started.elapsed().as_secs_f64();

    banner("Space: bench_lint's 224 designs, with a brownout objective");
    println!(
        "{} designs; space lint: {} error(s), {} warning(s)",
        space.len(),
        space_lint.error_count(),
        space_lint.warning_count(),
    );
    banner("Branch-and-bound effect");
    println!(
        "lint only: {} sims ({:.2} cost units) in {lint_only_s:.3} s \
         ({} lint pruned — brownouts have no DNF score)",
        lint_only.evaluations, lint_only.cost_units, lint_only.lint_pruned,
    );
    println!(
        "  bounded: {} sims ({:.2} cost units) in {bounded_s:.3} s \
         ({} bound checks, {} pruned, {} lint pruned)",
        bounded.evaluations,
        bounded.cost_units,
        bounded.bound_checks,
        bounded.bound_pruned,
        bounded.lint_pruned,
    );

    // The tentpole's load-bearing properties, asserted hard: the front is
    // byte-identical, something was bound-pruned, and the simulation cost
    // is strictly lower than the lint prefilter could manage alone.
    let objectives: Vec<String> = lint_only.objectives.clone();
    let front_a_json = lint_only.front.to_json(&objectives);
    let front_b_json = bounded.front.to_json(&objectives);
    let fronts_identical = front_a_json.to_string() == front_b_json.to_string();
    if !fronts_identical {
        return Err("FAIL: branch-and-bound changed the Pareto front".into());
    }
    if args.store.is_none() {
        // Store hits bypass the interval engine entirely (a stored score
        // needs no bounding), so these only hold for store-less runs.
        if bounded.bound_pruned == 0 {
            let why = "the space must contain dominated brackets";
            return Err(format!("FAIL: nothing was bound-pruned — {why}").into());
        }
        if bounded.cost_units >= lint_only.cost_units {
            return Err(format!(
                "FAIL: bounded cost {} is not strictly below lint-only {}",
                bounded.cost_units, lint_only.cost_units
            )
            .into());
        }
        println!(
            "fronts byte-identical; cost {:.2} → {:.2} units ({:.0}% saved)",
            lint_only.cost_units,
            bounded.cost_units,
            (1.0 - bounded.cost_units / lint_only.cost_units) * 100.0
        );
    } else {
        println!(
            "store: lint-only {} hits, bounded {} hits",
            lint_only.store_hits, bounded.store_hits
        );
        edc_bench::assert_front_matches("BENCH_bound.json", "lint_only", &front_a_json)?;
        edc_bench::assert_front_matches("BENCH_bound.json", "bounded", &front_b_json)?;
    }

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "bound",
        vec![
            ("catalog", catalog.to_json()),
            ("space_lint", space_lint.to_json()),
            ("lint_only", lint_only.to_json()),
            ("bounded", bounded.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("fronts_identical", Json::Bool(fronts_identical)),
                    ("lint_only_simulations", Json::Uint(lint_only.evaluations)),
                    ("bounded_simulations", Json::Uint(bounded.evaluations)),
                    ("lint_only_cost_units", Json::Num(lint_only.cost_units)),
                    ("bounded_cost_units", Json::Num(bounded.cost_units)),
                    ("bound_checks", Json::Uint(bounded.bound_checks)),
                    ("bound_pruned", Json::Uint(bounded.bound_pruned)),
                    ("lint_pruned", Json::Uint(bounded.lint_pruned)),
                ]),
            ),
            // Non-deterministic section, deliberately outside both
            // reports; BENCH_policy.json shape-checks it.
            (
                "bound_timing",
                Json::obj(vec![
                    ("lint_only_s", Json::Num(lint_only_s)),
                    ("bounded_s", Json::Num(bounded_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
    Ok(())
}
