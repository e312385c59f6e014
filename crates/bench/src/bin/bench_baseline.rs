//! Timing + telemetry baseline: the workspace's first real `BENCH`
//! artifact.
//!
//! Builds the canonical strategy×workload spec list over an intermittent
//! supply and runs it twice through the sweep engine's
//! `run_specs_timed_in` — once with the default `TelemetryKind::Null` (no
//! sink, the zero-overhead baseline) and once with `StatsSink`
//! analytics — then writes `BENCH_sweep.json`
//! with wall-clock timing (total and per-cell) and the grid-level
//! telemetry aggregate. CI runs this in release so timing regressions are
//! visible in the logs; the telemetry section is deterministic and can be
//! diffed byte-for-byte between commits.
//!
//! Run: `cargo run --release -p edc-bench --bin bench_baseline`
//! Output path override: `bench_baseline <path>` (default
//! `BENCH_sweep.json` in the working directory).

use edc_bench::banner;
use edc_bench::sweep::{render_text, run_specs_timed_in, SweepRun};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{BuildError, ExperimentSpec};
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::TelemetryKind;
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

/// Runs the grid under `telemetry`, workload-major then strategy.
fn run_grid(telemetry: TelemetryKind) -> Result<SweepRun, BuildError> {
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(64),
    )
    .deadline(Seconds(20.0))
    .telemetry(telemetry);
    // The table_strategies grid: both workloads span several supply
    // windows, so the telemetry aggregate actually sees outages, torn
    // frames and restores.
    let specs = [WorkloadKind::Fourier(64), WorkloadKind::Crc16(1024)]
        .iter()
        .flat_map(|&w| StrategyKind::ALL.map(|s| base.workload(w).strategy(s)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_specs_timed_in(specs, threads, &TraceCatalog::new())
}

fn timing_line(label: &str, run: &SweepRun) -> String {
    let cells = run.timing.per_cell_s.len();
    let slowest = run.timing.per_cell_s.iter().cloned().fold(0.0, f64::max);
    format!(
        "{label:>9}: total {:.3} s over {cells} cells (slowest cell {:.3} s)",
        run.timing.total_s, slowest
    )
}

fn main() {
    let path = edc_bench::artifact_path("BENCH_sweep.json");

    let null_run = run_grid(TelemetryKind::Null).unwrap_or_else(|e| {
        eprintln!("baseline sweep failed to assemble: {e}");
        std::process::exit(1);
    });
    let stats_run = run_grid(TelemetryKind::Stats).unwrap_or_else(|e| {
        eprintln!("telemetry sweep failed to assemble: {e}");
        std::process::exit(1);
    });

    banner("Sweep baseline: 4 V half-wave rectified sine @ 50 Hz, 10 µF");
    print!("{}", render_text(&stats_run.rows));
    banner("Wall-clock");
    println!("{}", timing_line("null", &null_run));
    println!("{}", timing_line("stats", &stats_run));
    banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "sweep_baseline",
        vec![
            (
                "grid",
                Json::obj(vec![
                    ("source", Json::Str("rectified-sine@50Hz".into())),
                    ("strategies", Json::Uint(StrategyKind::ALL.len() as u64)),
                    ("workloads", Json::Uint(2)),
                    ("deadline_s", Json::Num(20.0)),
                ]),
            ),
            ("null_timing", null_run.timing.to_json()),
            ("stats_timing", stats_run.timing.to_json()),
            ("telemetry", stats_run.telemetry_json()),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
}
