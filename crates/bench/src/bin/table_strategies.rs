//! Strategy-survey table: every checkpoint strategy × workload × source.
//!
//! Quantifies the Section II.B claims: Mementos takes redundant snapshots
//! (and risks torn ones); Hibernus takes exactly one per outage; the
//! restart baseline re-executes everything; QuickRecall/NVP make snapshots
//! nearly free. Completion time, snapshot counts and verification are
//! reported for each combination.
//!
//! Run: `cargo run --release -p edc-bench --bin table_strategies`
//! JSON: `cargo run --release -p edc-bench --bin table_strategies -- --json`

use edc_bench::banner;
use edc_bench::sweep::{render_json, render_text, run_specs_timed_in};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

fn main() {
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(64),
    )
    .deadline(Seconds(20.0));
    let workloads = [
        WorkloadKind::Fourier(64), // ~196 k cycles: spans several windows
        WorkloadKind::Crc16(1024), // ~184 k cycles
        WorkloadKind::MatMul,      // ~16 k cycles: fits one window
    ];
    // Workload-major, then strategy: one table block per workload.
    let specs = workloads
        .iter()
        .flat_map(|&w| StrategyKind::ALL.map(|s| base.workload(w).strategy(s)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = match run_specs_timed_in(specs, threads, &TraceCatalog::new()) {
        Ok(run) => run.rows,
        Err(e) => {
            eprintln!("sweep failed to assemble: {e}");
            std::process::exit(1);
        }
    };

    if std::env::args().any(|a| a == "--json") {
        println!("{}", render_json(&rows));
        return;
    }

    banner("Strategy survey: 4 V half-wave rectified sine @ 50 Hz, 10 µF");
    print!("{}", render_text(&rows));
    println!(
        "\nexpected shape (paper, Sec. II.B): hibernus ≈ 1 snapshot/outage; \
         mementos > hibernus snapshots (redundant) with possible torn frames; \
         quickrecall/nvp cheapest; restart completes only if the workload \
         fits one on-window."
    );
}
