//! Eq. (5) reproduction: the Hibernus ↔ QuickRecall crossover frequency.
//!
//! `f_crossover = (P_FRAM − P_SRAM) / (E_hibernus − E_quickrecall)`
//!
//! The harness sweeps the supply-interruption frequency, measures each
//! strategy's energy per unit of forward progress, and locates the measured
//! crossover; the analytic Eq. (5) value is printed alongside. Below the
//! crossover Hibernus (cheap quiescent SRAM, expensive rare snapshots)
//! wins; above it QuickRecall (expensive quiescent FRAM, near-free
//! snapshots) wins.
//!
//! Run: `cargo run --release -p edc-bench --bin eq5_crossover`

use edc_bench::{banner, log_space, MainError, TextTable};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_mcu::PowerModel;
use edc_transient::crossover::analytic_crossover;
use edc_units::{Hertz, Seconds};
use edc_workloads::WorkloadKind;

/// Energy per million forward cycles at one interruption frequency.
fn energy_per_mcycle(
    strategy: StrategyKind,
    f_int: Hertz,
    horizon: Seconds,
) -> Result<(f64, u64), MainError> {
    let mut system = ExperimentSpec::new(
        SourceKind::Interrupted { hz: f_int.0 },
        strategy,
        WorkloadKind::Endless,
    )
    .build()?;
    // Endless workload: forward progress never saturates, so energy/cycle is
    // meaningful over the whole horizon.
    system.run_for(horizon);
    let stats = system.runner().stats();
    let cycles = stats.cycles.max(1);
    Ok((
        stats.energy_consumed.0 / (cycles as f64 / 1e6),
        stats.snapshots + stats.torn_snapshots,
    ))
}

fn main() -> Result<(), MainError> {
    let pm = PowerModel::msp430fr5739();
    let f_clock = Hertz::from_mega(8.0);
    let analytic = analytic_crossover(&pm, f_clock);

    banner("Eq. 5: analytic components at 8 MHz");
    println!("P_SRAM      = {}", analytic.p_sram);
    println!("P_FRAM      = {}", analytic.p_fram);
    println!("E_hibernus  = {} per outage", analytic.e_hibernus);
    println!("E_quickrecall = {} per outage", analytic.e_quickrecall);
    println!("analytic f_crossover = {:.1} Hz", analytic.f_crossover.0);

    banner("Measured sweep (energy per Mcycle of forward progress)");
    let horizon = Seconds(3.0);
    let mut t = TextTable::new(&[
        "f_int (Hz)",
        "hibernus µJ/Mcyc",
        "quickrecall µJ/Mcyc",
        "winner",
        "hib snaps",
        "qr snaps",
    ]);
    let mut crossover_measured: Option<f64> = None;
    let mut last_winner_hib = true;
    for (i, f) in log_space(0.5, 200.0, 10).into_iter().enumerate() {
        let f_int = Hertz(f);
        let (hib, hib_snaps) = energy_per_mcycle(StrategyKind::Hibernus, f_int, horizon)?;
        let (qr, qr_snaps) = energy_per_mcycle(StrategyKind::QuickRecall, f_int, horizon)?;
        let hib_wins = hib < qr;
        if i > 0 && last_winner_hib && !hib_wins && crossover_measured.is_none() {
            crossover_measured = Some(f);
        }
        last_winner_hib = hib_wins;
        t.row(&[
            format!("{f:.1}"),
            format!("{:.2}", hib * 1e6),
            format!("{:.2}", qr * 1e6),
            if hib_wins { "hibernus" } else { "quickrecall" }.to_string(),
            hib_snaps.to_string(),
            qr_snaps.to_string(),
        ]);
    }
    print!("{}", t.render());

    banner("Crossover");
    match crossover_measured {
        Some(f) => println!(
            "measured crossover ≈ {f:.1} Hz vs analytic {:.1} Hz (ratio {:.2}×)",
            analytic.f_crossover.0,
            f / analytic.f_crossover.0
        ),
        None => println!(
            "no crossover inside the sweep — widen the range (analytic: {:.1} Hz)",
            analytic.f_crossover.0
        ),
    }
    println!(
        "paper's claim: hibernus wins at low interruption rates, QuickRecall \
         at high rates."
    );
    println!(
        "note: rows with 0 snapshots mark where the decoupling capacitance \
         itself smooths\nthe interruptions (dips no longer reach V_H) — the \
         buffering effect the taxonomy's\nstorage axis is about."
    );
    Ok(())
}
