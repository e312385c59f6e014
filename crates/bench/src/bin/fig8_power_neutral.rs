//! Fig. 8 regeneration: Hibernus-PN adapting its core frequency (DFS) to the
//! half-wave rectified output of a micro wind turbine.
//!
//! The paper's trace shows the clock stepping up and down with the gust so
//! that, during the shallow-dip window, `V_cc` is never interrupted and the
//! system avoids the snapshot/restore overhead entirely — power-neutral
//! operation riding through what would otherwise be an outage.
//!
//! Run: `cargo run --release -p edc-bench --bin fig8_power_neutral`

use edc_bench::{banner, MainError, TextTable};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_power::{Rectifier, RectifierKind};
use edc_transient::RunnerStats;
use edc_units::Farads;
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

type Trace = Vec<(f64, f64)>;

fn run_with(strategy: StrategyKind) -> Result<(RunnerStats, Trace, Trace), MainError> {
    let mut system = ExperimentSpec::new(SourceKind::Turbine, strategy, WorkloadKind::Endless)
        .rectifier(Rectifier::new(
            RectifierKind::HalfWave,
            edc_units::Volts(0.2),
        ))
        .decoupling(Farads::from_micro(220.0))
        .trace(100)
        .build()?;
    system.run_for(Seconds(9.0));
    let runner = system.runner();
    let vcc = runner
        .vcc_trace()
        .map(|t| t.points().iter().map(|&(s, v)| (s.0, v)).collect())
        .unwrap_or_default();
    let freq = runner
        .frequency_trace()
        .map(|t| t.points().iter().map(|&(s, v)| (s.0, v)).collect())
        .unwrap_or_default();
    let stats = runner.stats();
    println!(
        "{:>12}: active {:.3} s, snapshots {}, brownouts {}, cycles {}",
        strategy.name(),
        stats.active_time.0,
        stats.snapshots,
        stats.brownouts,
        stats.cycles
    );
    Ok((stats, vcc, freq))
}

fn main() -> Result<(), MainError> {
    banner("Fig. 8: power-neutral DFS on a rectified wind-turbine gust");
    println!("turbine: 5 V peak @ 8 Hz electrical, Fig. 1(a) gust, Schottky half-wave\n");

    let (pn_stats, vcc, freq) = run_with(StrategyKind::HibernusPn)?;
    let (plain_stats, _, _) = run_with(StrategyKind::Hibernus)?;

    banner("Power-neutral benefit");
    let mut t = TextTable::new(&["metric", "hibernus", "hibernus-pn"]);
    t.row(&[
        "forward cycles".to_string(),
        plain_stats.cycles.to_string(),
        pn_stats.cycles.to_string(),
    ]);
    t.row(&[
        "snapshots".to_string(),
        plain_stats.snapshots.to_string(),
        pn_stats.snapshots.to_string(),
    ]);
    t.row(&[
        "active time (s)".to_string(),
        format!("{:.3}", plain_stats.active_time.0),
        format!("{:.3}", pn_stats.active_time.0),
    ]);
    print!("{}", t.render());
    println!(
        "\npaper's claim: DFS modulation postpones/avoids hibernation during\n\
         shallow dips, extending uninterrupted operation."
    );

    banner("Hibernus-PN traces (TSV: t, Vcc, f_MHz)");
    for (i, ((tv, v), (_, f))) in vcc.iter().zip(freq.iter()).enumerate() {
        if i % 20 == 0 {
            println!("{tv:.3}\t{v:.3}\t{f:.1}");
        }
    }
    Ok(())
}
