//! Hibernus++ adaptivity table (Section III claims).
//!
//! Plain Hibernus is calibrated at design time for a specific capacitance.
//! The paper predicts, and this harness measures, what happens when the
//! *actual* storage differs from the characterised value:
//!
//! - actual = characterised: plain Hibernus slightly beats Hibernus++ (the
//!   ++ pays for its on-line characterisation);
//! - actual > characterised: Hibernus++ wins (it lowers `V_H`, gaining
//!   active time);
//! - actual < characterised: plain Hibernus fails (not enough energy below
//!   its mis-calibrated `V_H` to finish a snapshot), Hibernus++ still
//!   operates.
//!
//! Run: `cargo run --release -p edc-bench --bin table_hibernuspp`

use edc_bench::{banner, MainError, TextTable};
use edc_core::experiment::Experiment;
use edc_core::scenarios::SourceKind;
use edc_mcu::Mcu;
use edc_transient::{Hibernus, HibernusPP, Strategy};
use edc_units::{Farads, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// A Hibernus whose thresholds were frozen for `characterised` capacitance,
/// regardless of what the platform really has.
struct MiscalibratedHibernus {
    characterised: Farads,
    inner: Hibernus,
}

impl Strategy for MiscalibratedHibernus {
    fn name(&self) -> &str {
        "hibernus (design-time)"
    }
    fn thresholds(
        &mut self,
        mcu: &Mcu,
        _actual: Farads,
        v_min: Volts,
        v_max: Volts,
    ) -> (Volts, Volts) {
        // Calibrated against the *characterised* value, not the actual one.
        self.inner.calibrate(mcu, self.characterised, v_min, v_max)
    }
    fn on_low_voltage(&mut self) -> edc_transient::LowVoltageResponse {
        edc_transient::LowVoltageResponse::Hibernate
    }
}

struct Row {
    strategy: &'static str,
    completed: Option<Seconds>,
    snapshots: u64,
    torn: u64,
    active: Seconds,
    verified: bool,
}

fn run(strategy: Box<dyn Strategy>, actual: Farads, label: &'static str) -> Result<Row, MainError> {
    let report = Experiment::new()
        .source_kind(SourceKind::RectifiedSine { hz: 6.0 })
        .leakage(edc_units::Ohms(100_000.0))
        .decoupling(actual)
        .strategy(strategy)
        .workload_kind(WorkloadKind::Fourier(128))
        .run(Seconds(30.0))?;
    Ok(Row {
        strategy: label,
        completed: report.stats.completed_at,
        snapshots: report.stats.snapshots,
        torn: report.stats.torn_snapshots,
        active: report.stats.active_time,
        verified: report.verification.is_ok(),
    })
}

fn main() -> Result<(), MainError> {
    let characterised = Farads::from_micro(10.0);
    banner("Hibernus vs Hibernus++ under capacitance mis-characterisation");
    println!("characterised storage: {characterised}; supply: rectified sine 6 Hz\n");

    let mut t = TextTable::new(&[
        "actual C",
        "strategy",
        "done (s)",
        "snaps",
        "torn",
        "active (s)",
        "verified",
    ]);
    for scale in [0.4, 1.0, 2.5] {
        let actual = characterised * scale;
        let rows = [
            run(
                Box::new(MiscalibratedHibernus {
                    characterised,
                    inner: Hibernus::new(),
                }),
                actual,
                "hibernus (design-time)",
            )?,
            run(Box::new(HibernusPP::new()), actual, "hibernus++")?,
        ];
        for r in rows {
            t.row(&[
                format!("{actual}"),
                r.strategy.to_string(),
                r.completed
                    .map(|s| format!("{:.3}", s.0))
                    .unwrap_or_else(|| "DNF".to_string()),
                r.snapshots.to_string(),
                r.torn.to_string(),
                format!("{:.3}", r.active.0),
                if r.verified { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape (paper, Sec. III): at 1.0× plain hibernus is \
         slightly ahead; at 2.5× hibernus++ recalibrates lower V_H and wins; \
         at 0.4× plain hibernus tears snapshots / fails while hibernus++ \
         still completes."
    );
    Ok(())
}
