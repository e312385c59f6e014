//! Numerical ablation: does the forward-Euler timestep affect the physics
//! conclusions?
//!
//! The Fig. 7 experiment is repeated at halved and doubled timesteps; the
//! *events* that constitute the result (completion cycle, snapshot count,
//! restore count, calibrated thresholds) must be invariant, and completion
//! time must converge. This bounds the integrator error the DESIGN.md
//! fidelity note claims.
//!
//! Run: `cargo run --release -p edc-bench --bin ablation_timestep`

use edc_bench::{banner, MainError, TextTable};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_units::{Ohms, Seconds};
use edc_workloads::WorkloadKind;

struct Run {
    dt_us: f64,
    completed: Option<Seconds>,
    cycle: Option<u64>,
    snapshots: u64,
    restores: u64,
    verified: bool,
}

fn run(dt: Seconds) -> Result<Run, MainError> {
    let supply_hz = 2.0;
    let report = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: supply_hz },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .leakage(Ohms(100_000.0))
    .timestep(dt)
    .deadline(Seconds(3.0))
    .run()?;
    Ok(Run {
        dt_us: dt.0 * 1e6,
        completed: report.stats.completed_at,
        cycle: report
            .stats
            .completed_at
            .map(|t| (t.0 * supply_hz).floor() as u64 + 1),
        snapshots: report.stats.snapshots,
        restores: report.stats.restores,
        verified: report.verification.is_ok(),
    })
}

fn main() -> Result<(), MainError> {
    banner("Timestep ablation on the Fig. 7 experiment");
    let runs: Vec<Run> = [5e-6, 10e-6, 20e-6, 40e-6]
        .into_iter()
        .map(|dt| run(Seconds(dt)))
        .collect::<Result<_, _>>()?;

    let mut t = TextTable::new(&[
        "dt (µs)",
        "completed (s)",
        "supply cycle",
        "snapshots",
        "restores",
        "verified",
    ]);
    for r in &runs {
        t.row(&[
            format!("{:.0}", r.dt_us),
            r.completed
                .map(|s| format!("{:.4}", s.0))
                .unwrap_or_else(|| "DNF".to_string()),
            r.cycle.map(|c| c.to_string()).unwrap_or_default(),
            r.snapshots.to_string(),
            r.restores.to_string(),
            r.verified.to_string(),
        ]);
    }
    print!("{}", t.render());

    let cycles: Vec<_> = runs.iter().filter_map(|r| r.cycle).collect();
    let invariant = cycles.windows(2).all(|w| w[0] == w[1]);
    println!(
        "\nevent-level conclusions timestep-invariant: {invariant} \
         (completion cycle {:?} at every dt)",
        cycles.first()
    );
    let times: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.completed.map(|s| s.0))
        .collect();
    if times.len() >= 2 {
        let spread = (times.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - times.iter().cloned().fold(f64::INFINITY, f64::min))
            / times[0];
        println!(
            "completion-time spread across 8× dt range: {:.2}%",
            spread * 100.0
        );
    }
    Ok(())
}
