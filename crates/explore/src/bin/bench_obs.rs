//! Observability overhead benchmark: what the full-retention
//! `TimelineSink` costs relative to the default `TelemetryKind::Null`
//! fast path (no sink built at all), on the same 56-design sizing sweep
//! `bench_explore` searches.
//!
//! Each variant runs the whole grid through the sweep engine; the
//! timeline variant additionally retains every lifecycle event, phase
//! transition, and gauge sample. The artifact records the (deterministic)
//! captured-volume counts and two invariants — observation never perturbs
//! the simulation (per-cell stats identical across variants) and the
//! timeline capture itself is byte-deterministic across repeats — plus
//! the (non-deterministic, quarantined) wall-clock comparison.
//!
//! `BENCH_obs.json` layout: `capture` and the two invariant booleans are
//! byte-diffable between commits; `timing` is wall-clock and excluded
//! from determinism expectations.
//!
//! Run: `cargo run --release -p edc-explore --bin bench_obs`
//! Output path override: `bench_obs <path>` (default `BENCH_obs.json` in
//! the working directory).

use edc_bench::sweep::{run_specs_timed_in, SweepRow};
use edc_bench::{banner, MainError, TextTable};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::telemetry::timeline_json;
use edc_core::Telemetry;
use edc_core::TelemetryKind;
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::SpecSpace;
use edc_power::sizing::SizingError;
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// The benchmark grid: `bench_explore`'s space — 8 sizing-seeded
/// capacitances × all 7 strategies over the Fig. 7 supply (56 designs).
fn space() -> Result<SpecSpace, SizingError> {
    let decoupling = sizing_seeded_decoupling_axis(
        Joules::from_micro(5.0),
        Volts(2.0),
        Volts(3.6),
        0.1,
        32.0,
        8,
    )?;
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .deadline(Seconds(10.0));
    Ok(SpecSpace::over(base)
        .strategies(&StrategyKind::ALL)
        .decoupling(&decoupling))
}

/// One sweep over the grid with `telemetry`, returning the rows and the
/// best-of-`reps` wall-clock total.
fn run_variant(
    specs: &[ExperimentSpec],
    telemetry: TelemetryKind,
    threads: usize,
    reps: usize,
) -> Result<(Vec<SweepRow>, f64), MainError> {
    let sweep = || {
        let batch: Vec<ExperimentSpec> = specs.iter().map(|s| s.telemetry(telemetry)).collect();
        run_specs_timed_in(batch, threads, &TraceCatalog::new())
            .map_err(|e| format!("sweep failed: {e}"))
    };
    let first = sweep()?;
    let mut best_s = first.timing.total_s;
    for _ in 1..reps {
        best_s = best_s.min(sweep()?.timing.total_s);
    }
    Ok((first.rows, best_s))
}

/// The deterministic stats section of one row's report JSON.
fn stats_of(row: &SweepRow) -> Option<String> {
    row.report.to_json().get("stats").map(Json::to_string)
}

/// Deterministic timeline-capture JSON for a row, when present.
fn capture_of(row: &SweepRow) -> Option<String> {
    match &row.report.telemetry {
        Some(Telemetry::Timeline(tl)) => Some(timeline_json(tl).to_string()),
        _ => None,
    }
}

fn main() -> Result<(), MainError> {
    let path = edc_bench::artifact_path("BENCH_obs.json");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    const REPS: usize = 3;
    let specs = space()?.all_specs();

    let (null_rows, null_s) = run_variant(&specs, TelemetryKind::Null, threads, REPS)?;
    let (timeline_rows, timeline_s) = run_variant(&specs, TelemetryKind::Timeline, threads, REPS)?;
    let (repeat_rows, _) = run_variant(&specs, TelemetryKind::Timeline, threads, 1)?;

    // Invariant 1: observation never perturbs the simulation.
    let stats_match = null_rows
        .iter()
        .zip(&timeline_rows)
        .all(|(a, b)| stats_of(a) == stats_of(b));
    // Invariant 2: the capture itself is byte-deterministic.
    let capture_deterministic = timeline_rows
        .iter()
        .zip(&repeat_rows)
        .all(|(a, b)| capture_of(a) == capture_of(b));

    let mut events = 0u64;
    let mut phases = 0u64;
    let mut gauges = 0u64;
    for row in &timeline_rows {
        if let Some(Telemetry::Timeline(tl)) = &row.report.telemetry {
            events += tl.records().len() as u64;
            phases += tl.phases().len() as u64;
            gauges += tl.gauges().len() as u64;
        }
    }

    let overhead = timeline_s / null_s;
    banner("TimelineSink overhead vs Null telemetry (56-design sizing sweep)");
    let mut t = TextTable::new(&["variant", "wall (s)", "captured"]);
    t.row(&["null".to_string(), format!("{null_s:.3}"), "-".to_string()]);
    t.row(&[
        "timeline".to_string(),
        format!("{timeline_s:.3}"),
        format!("{events} events, {phases} phases, {gauges} gauges"),
    ]);
    print!("{}", t.render());
    println!(
        "overhead x{overhead:.3} (best of {REPS}); stats match: {stats_match}; deterministic: {capture_deterministic}"
    );
    if !stats_match || !capture_deterministic {
        return Err("observability invariant violated".into());
    }

    banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "obs",
        vec![
            ("designs", Json::Uint(specs.len() as u64)),
            (
                "capture",
                Json::obj(vec![
                    ("events", Json::Uint(events)),
                    ("phases", Json::Uint(phases)),
                    ("gauges", Json::Uint(gauges)),
                ]),
            ),
            ("stats_match_null", Json::Bool(stats_match)),
            ("capture_deterministic", Json::Bool(capture_deterministic)),
            // Non-deterministic section, deliberately quarantined.
            (
                "timing",
                Json::obj(vec![
                    ("null_s", Json::Num(null_s)),
                    ("timeline_s", Json::Num(timeline_s)),
                    ("overhead_ratio", Json::Num(overhead)),
                    ("reps", Json::Uint(REPS as u64)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
    Ok(())
}
