//! `sim-dense` and `sim-sparse`: one pass simulates every generated cell
//! through the sweep engine on one worker thread; a run repeats passes for
//! the requested time.

use std::time::Instant;

use edc_bench::sweep::{run_specs_timed_in, SweepRow};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_lint::Linter;

use crate::gen::{self, Cell};
use crate::layers::{self, SimTotals};
use crate::oracle::{self, DigestCheck};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Metric, Outcome};

/// Set-ups per run (`sim-dense`, `sim-sparse`); `setup_s` is their
/// slow-phase time. A dense set-up costs a fifth of a sparse one, so a run
/// affords twice as many.
const SETUP_REPS: (usize, usize) = (60, 30);

/// Everything a sweep needs before its first cell runs: the seeded grid,
/// the trace catalog, the pre-sweep lint every grid gets, and one
/// assembly of each cell (programs, strategies, supplies).
fn prepare(args: &Args) -> (Vec<Cell>, TraceCatalog) {
    let (catalog, bursty) = gen::catalog();
    let cells = if args.workload == "sim-dense" {
        gen::dense(args.seed)
    } else {
        gen::sparse(args.seed, bursty)
    };
    let mut linter = Linter::with_catalog(catalog.clone());
    for cell in &cells {
        std::hint::black_box(linter.lint_spec(&cell.spec));
        std::hint::black_box(
            cell.spec
                .build_in(&catalog)
                .expect("generated specs validate"),
        );
    }
    (cells, catalog)
}

/// Checks one pass's rows against the oracle and returns its digest.
fn check_pass(cells: &[Cell], rows: &[SweepRow], failures: &mut Vec<String>) -> u64 {
    for (cell, row) in cells.iter().zip(rows) {
        if let Err(e) = oracle::check_cell(cell.expect, &row.report) {
            failures.push(e);
        }
    }
    oracle::digest(rows.iter().map(|row| row.report.to_json().to_string()))
}

/// Times one set-up.
fn setup_s(args: &Args) -> f64 {
    let t = Instant::now();
    std::hint::black_box(prepare(args));
    t.elapsed().as_secs_f64()
}

pub fn run(args: &Args) -> Outcome {
    let (cells, catalog) = prepare(args);
    let specs: Vec<ExperimentSpec> = cells.iter().map(|c| c.spec).collect();
    if args.trace {
        return traced(args, &cells, &specs, &catalog);
    }

    let dense = args.workload == "sim-dense";
    let mut failures = Vec::new();
    let mut digests = DigestCheck::new(args.expected_digest());
    // Per pass, the time of every cell, in grid order.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut attempted = 0;
    let reps = if dense { SETUP_REPS.0 } else { SETUP_REPS.1 };
    let mut setups = Vec::with_capacity(reps);
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        // Set-ups are spread over the run, between passes, so they meet the
        // host's phases in the proportion the passes do.
        let due = |done: usize| args.seconds * done as f64 / reps as f64;
        while setups.len() < reps && started.elapsed().as_secs_f64() >= due(setups.len()) {
            setups.push(setup_s(args));
        }
        let run = run_specs_timed_in(specs.clone(), 1, &catalog).expect("generated specs validate");
        attempted += run.rows.len() as u64;
        passes.push(run.timing.per_cell_s.iter().map(|s| s * 1e3).collect());
        let digest = check_pass(&cells, &run.rows, &mut failures);
        digests.check(digest, &mut failures);
    }
    while setups.len() < reps {
        setups.push(setup_s(args));
    }
    println!(
        "digest {}: {:016x} (seed {}, {} cells per pass)",
        args.workload,
        digests.first(),
        args.seed,
        cells.len()
    );
    Outcome {
        attempted,
        failures,
        metrics: end_to_end(&setups, &passes),
    }
}

/// The traced run: each pass runs the sweep call under a `bench.sweep`
/// span (its time beyond the cells' own is the sweep engine's), then
/// re-simulates every cell step by step under spans and replays its
/// layers' unit costs. Shares are of the step-by-step path's time.
fn traced(
    args: &Args,
    cells: &[Cell],
    specs: &[ExperimentSpec],
    catalog: &TraceCatalog,
) -> Outcome {
    let mut tracer = Tracer::new();
    let mut totals = SimTotals::default();
    let (mut overhead_ns, mut render_ns) = (0.0, 0.0);
    let mut failures = Vec::new();
    let mut digests = DigestCheck::new(args.expected_digest());
    let mut passes = 0u64;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let pass = tracer.begin("pass", None, passes);
        let (run, sweep) = tracer.leaf("bench.sweep", Some(pass), passes, || {
            run_specs_timed_in(specs.to_vec(), 1, catalog).expect("generated specs validate")
        });
        let sweep_ns = tracer.duration_ns(sweep);
        overhead_ns += sweep_ns - run.timing.per_cell_s.iter().sum::<f64>() * 1e9;
        let digest = check_pass(cells, &run.rows, &mut failures);
        digests.check(digest, &mut failures);

        let mut stepped = Vec::with_capacity(specs.len());
        for spec in specs {
            let sim = layers::run_traced(spec, catalog, &mut tracer, Some(pass), passes);
            stepped.push(sim.report.to_json().to_string());
            let units = layers::replay(spec, catalog, &sim, &mut tracer, Some(pass), passes);
            totals.add(&sim, units);
        }
        if oracle::digest(stepped) != digest {
            failures.push("the step-by-step run diverged from the sweep".to_string());
        }
        let (_, render) = tracer.leaf("metrics.render", Some(pass), passes, || {
            edc_metrics::global().render_text()
        });
        render_ns += tracer.duration_ns(render);
        tracer.end(pass);
        passes += 1;
    }
    if let Err(e) = tracer.write(&args.span_path()) {
        failures.push(format!("writing spans: {e}"));
    }

    let mut measured = Vec::new();
    totals.metrics(passes, &mut measured);
    measured.push(Metric::new(
        "sweep.overhead_us_per_cell",
        overhead_ns / totals.cells as f64 / 1e3,
        "us",
    ));
    measured.push(Metric::new(
        "metrics.render_us",
        render_ns / passes as f64 / 1e3,
        "us",
    ));
    let mut self_ns = totals.shares().to_vec();
    self_ns.push(("edc-bench", overhead_ns));
    // Timed host time of the instrumented path: assembly, ticks, and the
    // sweep engine's own share of the end-to-end call.
    let host_ns = totals.build_ns + totals.steps_ns + overhead_ns;
    Outcome {
        attempted: totals.cells,
        failures,
        metrics: layers::finish(&args.workload, &tracer, measured, &self_ns, host_ns),
    }
}
