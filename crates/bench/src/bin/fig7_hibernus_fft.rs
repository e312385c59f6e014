//! Fig. 7 regeneration: Hibernus executing an FFT directly from a half-wave
//! rectified sine-wave supply.
//!
//! The paper's waveform shows: `V_cc` tracking the rectified sine; a single
//! snapshot (hibernate) each time `V_H` is crossed on the way down; a
//! restore each time the rail recovers past `V_R`; and the FFT — started at
//! the beginning of execution — completing during the **third** supply
//! cycle.
//!
//! Run: `cargo run --release -p edc-bench --bin fig7_hibernus_fft`

use edc_bench::{banner, TextTable};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::telemetry::TelemetryReport;
use edc_telemetry::{Event, TelemetryKind};
use edc_units::{Hertz, Seconds};
use edc_workloads::WorkloadKind;

fn main() {
    // FFT sized so completion lands in the 3rd supply cycle (the paper's
    // trace): Fourier-256 ≈ 3.1 M cycles ≈ 390 ms at 8 MHz against a 2 Hz
    // (500 ms period) rectified sine. Board leakage (100 kΩ) collapses the
    // rail fully between cycles, as on the paper's hardware.
    let supply_hz = Hertz(2.0);
    let spec = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: supply_hz.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .leakage(edc_units::Ohms(100_000.0))
    .trace(50)
    .telemetry(TelemetryKind::Timeline)
    .deadline(Seconds(4.0));

    let mut system = match spec.build() {
        Ok(system) => system,
        Err(e) => {
            eprintln!("failed to assemble {}: {e}", spec.label());
            std::process::exit(1);
        }
    };

    banner("Fig. 7: Hibernus + FFT on a half-wave rectified sine");
    println!(
        "supply: 4 V peak, {supply_hz}, 100 Ω; workload: {} ({} cycles est.)",
        system.workload().name(),
        system.workload().cycles_hint()
    );

    let (v_h, v_r) = system.thresholds();
    println!("calibration (Eq. 4): V_H = {v_h:.3}, V_R = {v_r:.3}, V_min = 2.000 V");

    let report = system.run(spec.deadline);
    let outcome = report.outcome;
    let stats = report.stats;
    let verified = report.verification.clone();
    let Some(TelemetryReport::Timeline(timeline)) = &report.telemetry else {
        unreachable!("the spec installs a timeline sink");
    };
    let records = timeline.records();

    banner("Events");
    let mut t = TextTable::new(&["t (s)", "cycle#", "event"]);
    for rec in records {
        let cycle = (rec.t.0 * supply_hz.0).floor() as u64 + 1;
        t.row(&[
            format!("{:.4}", rec.t.0),
            cycle.to_string(),
            rec.event.name().to_string(),
        ]);
    }
    print!("{}", t.render());

    banner("Result");
    let completion_cycle = stats
        .completed_at
        .map(|t| (t.0 * supply_hz.0).floor() as u64 + 1);
    println!("outcome: {outcome:?}");
    println!(
        "completed during supply cycle: {:?} (paper: 3rd cycle)",
        completion_cycle
    );
    println!(
        "snapshots: {} (sealed) + {} (torn); restores: {}; brownouts: {}",
        stats.snapshots, stats.torn_snapshots, stats.restores, stats.brownouts
    );
    // Each Hibernus hibernation begins at a falling V_H crossing.
    let dips = records
        .iter()
        .filter(|r| matches!(r.event, Event::SupplyCrossing { rising: false }))
        .count();
    println!(
        "snapshots per supply dip: {:.2} (paper: exactly one per failure)",
        if dips > 0 {
            stats.snapshots as f64 / dips as f64
        } else {
            0.0
        }
    );
    println!("FFT verification: {verified:?}");

    banner("Vcc trace (TSV, decimated)");
    if let Some(trace) = system.runner().vcc_trace() {
        let pts = trace.points();
        for (i, (time, v)) in pts.iter().enumerate() {
            if i % 20 == 0 {
                println!("{:.4}\t{:.3}", time.0, v);
            }
        }
    }
}
