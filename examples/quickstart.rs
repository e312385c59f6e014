//! Quickstart: the Fig. 6 experience in this workspace.
//!
//! The paper's Fig. 6 shows that adopting Hibernus takes one line at the
//! top of `main()`. The equivalent here: name a source, a strategy and a
//! workload from the kind registries, and let the experiment layer wire the
//! Fig. 4 topology — fallibly, so a malformed description is an `Err`, not
//! a panic.
//!
//! Run: `cargo run --release --example quickstart`

use energy_driven::core::experiment::{BuildError, ExperimentSpec};
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::{Telemetry, TelemetryKind};
use energy_driven::obs::PerfettoTrace;
use energy_driven::units::{Ohms, Seconds};
use energy_driven::workloads::WorkloadKind;

fn main() -> Result<(), BuildError> {
    // The paper's Fig. 7 stimulus, an FFT that will not fit inside a single
    // supply cycle, and Hibernus — one declarative value. Telemetry is one
    // more knob: streaming analytics of every outage and snapshot.
    let spec = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 5.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(128),
    )
    .leakage(Ohms(100_000.0))
    .deadline(Seconds(10.0))
    .telemetry(TelemetryKind::Stats);

    let mut system = spec.build()?;
    let (v_h, v_r) = system.thresholds();
    println!("Eq. 4 calibration: hibernate at V_H = {v_h:.3}, restore at V_R = {v_r:.3}");

    let report = system.run(spec.deadline);

    println!("outcome:   {:?}", report.outcome);
    println!(
        "snapshots: {} sealed, {} torn; restores: {}",
        report.stats.snapshots, report.stats.torn_snapshots, report.stats.restores
    );
    println!(
        "completed: {:?} after {} supply interruptions",
        report.stats.completed_at, report.stats.brownouts
    );
    match &report.verification {
        Ok(()) => println!("FFT spectrum verified bit-exactly against the golden model ✓"),
        Err(e) => println!("verification FAILED: {e}"),
    }
    if let Some(Telemetry::Stats(stats)) = &report.telemetry {
        let outage = stats.outage_s().summary();
        println!(
            "outages:   {} (median {:.1} ms, p99 {:.1} ms); snapshot energy Σ {:.2} µJ",
            outage.count,
            outage.p50 * 1e3,
            outage.p99 * 1e3,
            stats.energy_breakdown().snapshot_j * 1e6,
        );
    }
    println!("\nas JSON: {}", report.to_json());

    // One more knob again: full-retention timeline telemetry, exported as a
    // Perfetto/Chrome trace you can open in ui.perfetto.dev. Timestamps are
    // simulation time, so the file is byte-identical across runs.
    let timeline_report = spec.telemetry(TelemetryKind::Timeline).run()?;
    if let Some(Telemetry::Timeline(tl)) = &timeline_report.telemetry {
        let mut trace = PerfettoTrace::new();
        let end = timeline_report.stats.completed_at.unwrap_or(spec.deadline);
        trace.add_track("quickstart", tl, end);
        let out = "target/quickstart.perfetto.json";
        match std::fs::write(out, format!("{}\n", trace.to_json())) {
            Ok(()) => println!("timeline:  {} trace events -> {out}", trace.len()),
            Err(e) => println!("timeline:  could not write {out}: {e}"),
        }
    }
    Ok(())
}
