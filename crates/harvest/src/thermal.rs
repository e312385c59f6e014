//! Thermoelectric generator (TEG) — body-heat or machine-waste-heat
//! harvesting: a low-voltage, slowly varying Thévenin source whose output
//! follows the temperature gradient.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use edc_units::{Ohms, Seconds, Volts};

use crate::{EnergySource, SourceSample};

/// A TEG: open-circuit voltage proportional to the hot–cold gradient, with
/// a slow random walk modelling contact/airflow variation (deterministic
/// per seed).
///
/// # Examples
///
/// ```
/// use edc_harvest::ThermalGenerator;
/// use edc_units::Seconds;
///
/// let teg = ThermalGenerator::wearable(7);
/// let v = teg.open_circuit_at(Seconds(60.0));
/// assert!(v.0 > 0.0 && v.0 < 1.0); // wearable TEGs are sub-volt devices
/// ```
#[derive(Debug, Clone)]
pub struct ThermalGenerator {
    name: String,
    /// Seebeck output per kelvin of gradient.
    volts_per_kelvin: Volts,
    /// Gradient excursion amplitude (walk bounds).
    excursion_k: f64,
    internal_resistance: Ohms,
    /// Pre-walked gradient table, one entry per `walk_step`.
    walk: Vec<f64>,
    walk_step: Seconds,
}

const WALK_LEN: usize = 4096;

impl ThermalGenerator {
    /// A wearable body-heat TEG: ~50 mV/K, 2 K nominal gradient, ±1.2 K
    /// excursions on a 10 s timescale, 5 Ω internal resistance.
    pub fn wearable(seed: u64) -> Self {
        Self::new(Volts(0.05), 2.0, 1.2, Ohms(5.0), Seconds(10.0), seed)
    }

    /// An industrial waste-heat TEG: larger, steadier gradient.
    pub fn industrial(seed: u64) -> Self {
        Self::new(Volts(0.05), 15.0, 3.0, Ohms(2.0), Seconds(60.0), seed)
    }

    /// Creates a TEG with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude parameter is non-positive or the excursion
    /// exceeds the nominal gradient.
    pub fn new(
        volts_per_kelvin: Volts,
        gradient_k: f64,
        excursion_k: f64,
        internal_resistance: Ohms,
        walk_step: Seconds,
        seed: u64,
    ) -> Self {
        assert!(volts_per_kelvin.is_positive(), "Seebeck coefficient > 0");
        assert!(gradient_k > 0.0, "gradient must be > 0");
        assert!(
            excursion_k >= 0.0 && excursion_k < gradient_k,
            "excursion must be < nominal gradient"
        );
        assert!(internal_resistance.is_positive(), "resistance > 0");
        assert!(walk_step.is_positive(), "walk step > 0");
        // Bounded random walk around the nominal gradient.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = gradient_k;
        let walk = (0..WALK_LEN)
            .map(|_| {
                g += rng.gen_range(-0.2..0.2) * excursion_k;
                g = g.clamp(gradient_k - excursion_k, gradient_k + excursion_k);
                g
            })
            .collect();
        Self {
            name: format!("teg-{gradient_k}K"),
            volts_per_kelvin,
            excursion_k,
            internal_resistance,
            walk,
            walk_step,
        }
    }

    /// The instantaneous gradient (kelvin) at `t` (replayable; linear
    /// interpolation over the walk table, looped).
    pub fn gradient_at(&self, t: Seconds) -> f64 {
        let pos = (t.0 / self.walk_step.0).rem_euclid(WALK_LEN as f64);
        let i = pos.floor() as usize % WALK_LEN;
        let j = (i + 1) % WALK_LEN;
        let frac = pos - pos.floor();
        self.walk[i] * (1.0 - frac) + self.walk[j] * frac
    }

    /// Open-circuit voltage at `t`.
    pub fn open_circuit_at(&self, t: Seconds) -> Volts {
        self.volts_per_kelvin * self.gradient_at(t)
    }

    /// The excursion bound.
    pub fn excursion(&self) -> f64 {
        self.excursion_k
    }
}

impl EnergySource for ThermalGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        SourceSample::Thevenin {
            v_oc: self.open_circuit_at(t),
            r_s: self.internal_resistance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wearable_output_is_sub_volt() {
        let teg = ThermalGenerator::wearable(1);
        for i in 0..500 {
            let v = teg.open_circuit_at(Seconds(i as f64 * 7.0));
            assert!(v.0 > 0.0 && v.0 < 0.5, "wearable TEG {v} implausible");
        }
    }

    #[test]
    fn gradient_stays_in_excursion_band() {
        let teg = ThermalGenerator::wearable(3);
        for i in 0..2000 {
            let g = teg.gradient_at(Seconds(i as f64 * 5.0));
            assert!((0.8 - 1e-9..=3.2 + 1e-9).contains(&g), "gradient {g}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ThermalGenerator::wearable(9);
        let b = ThermalGenerator::wearable(9);
        for i in 0..100 {
            let t = Seconds(i as f64 * 13.0);
            assert_eq!(a.open_circuit_at(t), b.open_circuit_at(t));
        }
    }

    #[test]
    fn industrial_outpowers_wearable() {
        let w = ThermalGenerator::wearable(1);
        let i = ThermalGenerator::industrial(1);
        assert!(i.open_circuit_at(Seconds(0.0)) > w.open_circuit_at(Seconds(0.0)) * 3.0);
    }

    #[test]
    #[should_panic(expected = "excursion must be")]
    fn oversize_excursion_rejected() {
        let _ = ThermalGenerator::new(Volts(0.05), 1.0, 1.5, Ohms(5.0), Seconds(10.0), 0);
    }

    proptest! {
        #[test]
        fn prop_walk_continuous(t in 0.0f64..10_000.0) {
            let teg = ThermalGenerator::wearable(5);
            let a = teg.gradient_at(Seconds(t));
            let b = teg.gradient_at(Seconds(t + 0.5));
            // Half a walk step can move the gradient only fractionally.
            prop_assert!((a - b).abs() < 0.5);
        }
    }
}
