//! A Monjolo-style home energy monitor (paper reference \[6\]).
//!
//! A current clamp around a mains cable harvests by induction and charges a
//! 500 µF capacitor; every time the capacitor fills, the node transmits one
//! wireless "ping" and goes dark. The receiver estimates the power flowing
//! through the mains cable from the *frequency of pings* — computation by
//! energy metering.
//!
//! Run: `cargo run --release --example home_energy_monitor`

use energy_driven::power::sizing::SizingError;
use energy_driven::transient::burst::{EnergyBurstRunner, TaskSpec};
use energy_driven::units::{Amps, Farads, Seconds, Volts, Watts};

/// Induction-clamp harvest: proportional to the primary current.
fn harvested_power(primary_amps: f64) -> Watts {
    // ~0.4 mW per primary ampere for a small clamp-on core.
    Watts(0.4e-3 * primary_amps)
}

fn ping_rate_for(primary_amps: f64) -> Result<f64, SizingError> {
    let p_h = harvested_power(primary_amps);
    let mut node = EnergyBurstRunner::new(
        Farads::from_micro(500.0),
        TaskSpec::monjolo_ping(),
        Volts(2.0),
        Volts(3.6),
    )?;
    node.run(
        move |v, _t| {
            // Regulated front-end: constant power into the buffer.
            Amps(p_h.0 / v.0.max(0.2))
        },
        Seconds(60.0),
        Seconds(1e-4),
    );
    Ok(node.task_rate())
}

fn main() -> Result<(), SizingError> {
    println!("Monjolo: ping frequency encodes the primary current\n");
    println!("{:>14} {:>12} {:>12}", "primary (A)", "harvest", "pings/s");
    println!("{}", "-".repeat(42));
    let mut samples = Vec::new();
    for primary in [1.0, 2.0, 4.0, 8.0] {
        let rate = ping_rate_for(primary)?;
        samples.push((primary, rate));
        println!(
            "{:>14.1} {:>12} {:>12.2}",
            primary,
            format!("{}", harvested_power(primary)),
            rate
        );
    }
    // The receiver's decoding rule: pings/s per primary ampere is constant.
    let ratios: Vec<f64> = samples.iter().map(|&(a, r)| r / a).collect();
    let spread = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nping-rate linearity across 8× load range: spread {spread:.2}× \
         (1.0 = perfectly linear)"
    );
    println!("the receiver inverts this mapping to meter the mains power.");
    Ok(())
}
