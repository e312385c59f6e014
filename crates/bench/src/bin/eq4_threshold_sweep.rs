//! Eq. (4) design-space sweep: hibernate threshold `V_H` vs. capacitance.
//!
//! `E_S ≤ C·(V_H² − V_min²)/2` — for each capacitance the harness prints
//! the minimal `V_H` that funds a snapshot, then validates the boundary
//! empirically: a Hibernus configured *below* the Eq. (4) threshold tears
//! its snapshots, one configured at/above it seals them.
//!
//! Run: `cargo run --release -p edc-bench --bin eq4_threshold_sweep`

use edc_bench::{banner, MainError, TextTable};
use edc_core::experiment::Experiment;
use edc_core::scenarios::SourceKind;
use edc_mcu::Mcu;
use edc_power::sizing::try_hibernate_threshold;
use edc_transient::{LowVoltageResponse, Strategy};
use edc_units::{Farads, Seconds, Volts};
use edc_workloads::{Fourier, Workload, WorkloadKind};

/// Hibernus with a forced, possibly wrong, `V_H`.
struct FixedThreshold {
    v_h: Volts,
}

impl Strategy for FixedThreshold {
    fn name(&self) -> &str {
        "fixed-threshold"
    }
    fn thresholds(
        &mut self,
        _mcu: &Mcu,
        _c: Farads,
        _v_min: Volts,
        v_max: Volts,
    ) -> (Volts, Volts) {
        (self.v_h, (self.v_h + Volts(0.35)).min(v_max - Volts(0.01)))
    }
    fn on_low_voltage(&mut self) -> LowVoltageResponse {
        LowVoltageResponse::Hibernate
    }
}

fn torn_fraction(v_h: Volts, c: Farads) -> Result<(u64, u64), MainError> {
    let mut system = Experiment::new()
        .source_kind(SourceKind::RectifiedSine { hz: 8.0 })
        .decoupling(c)
        .strategy(Box::new(FixedThreshold { v_h }))
        .workload_kind(WorkloadKind::Fourier(128))
        .build()?;
    system.run_for(Seconds(6.0));
    let s = system.runner().stats();
    Ok((s.snapshots, s.torn_snapshots))
}

fn main() -> Result<(), MainError> {
    let v_min = Volts(2.0);
    let v_max = Volts(3.6);
    let e_s = Mcu::new(Fourier::new(128).program()).snapshot_energy();

    banner("Eq. 4: minimal V_H per capacitance (E_S = snapshot energy)");
    println!("E_S = {e_s} at 8 MHz\n");
    let mut t = TextTable::new(&["C", "V_H min (Eq. 4)", "feasible"]);
    for c_uf in [1.0, 2.2, 4.7, 10.0, 22.0, 47.0, 100.0] {
        let c = Farads::from_micro(c_uf);
        match try_hibernate_threshold(e_s, c, v_min, v_max, 0.0)
            .ok()
            .flatten()
        {
            Some(v_h) => t.row(&[format!("{c}"), format!("{v_h:.3}"), "yes".to_string()]),
            None => t.row(&[
                format!("{c}"),
                "—".to_string(),
                "no (cap too small)".to_string(),
            ]),
        };
    }
    print!("{}", t.render());

    banner("Empirical boundary check at C = 10 µF");
    let c = Farads::from_micro(10.0);
    let v_h_min =
        try_hibernate_threshold(e_s, c, v_min, v_max, 0.0)?.ok_or("no feasible V_H at 10 µF")?;
    let mut t = TextTable::new(&["V_H", "relation to Eq. 4", "sealed", "torn"]);
    for (dv, label) in [
        (-0.15, "below (violates Eq. 4)"),
        (0.05, "just above"),
        (0.30, "comfortably above"),
    ] {
        let v_h = Volts(v_h_min.0 + dv);
        let (sealed, torn) = torn_fraction(v_h, c)?;
        t.row(&[
            format!("{v_h:.3}"),
            label.to_string(),
            sealed.to_string(),
            torn.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\nexpected shape: thresholds below the Eq. 4 bound tear snapshots.");
    Ok(())
}
