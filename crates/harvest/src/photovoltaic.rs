//! Indoor photovoltaic model — the source of the paper's Fig. 1(b): two days
//! of harvested current from an indoor PV cell, confined to a 280–430 µA
//! band with clear diurnal structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use edc_units::{Amps, Seconds, Volts};

use crate::{EnergySource, SourceSample};

/// An indoor photovoltaic cell producing a diurnal current profile.
///
/// The model is a plateau-with-smooth-edges day curve over a night floor:
/// indoor cells under office lighting see a baseline from permanent lighting
/// plus a daytime contribution from windows and occupancy-driven lights.
/// Deterministic per-seed "weather" noise perturbs the day plateau, matching
/// the visible jitter in Fig. 1(b).
///
/// The cell behaves as a current source up to its open-circuit compliance
/// voltage.
///
/// # Examples
///
/// ```
/// use edc_harvest::Photovoltaic;
/// use edc_units::Seconds;
///
/// let mut pv = Photovoltaic::indoor(42);
/// let night = pv.current_at(Seconds::from_hours(3.0));
/// let noon = pv.current_at(Seconds::from_hours(12.0));
/// assert!(noon > night);
/// ```
#[derive(Debug, Clone)]
pub struct Photovoltaic {
    name: String,
    night_floor: Amps,
    day_peak: Amps,
    sunrise: Seconds,
    sunset: Seconds,
    /// Edge softness of the day plateau.
    twilight: Seconds,
    /// Relative amplitude of the deterministic per-seed noise.
    noise_frac: f64,
    /// Pre-generated hourly noise factors (two weeks' worth, looped).
    noise_table: Vec<f64>,
}

const NOISE_TABLE_HOURS: usize = 24 * 14;

/// The cell's open-circuit (compliance) voltage.
const OPEN_CIRCUIT: Volts = Volts(2.4);

impl Photovoltaic {
    /// The canonical Fig. 1(b) indoor cell: 285 µA night floor, 425 µA day
    /// peak, day window 07:00–19:00 with 1.5 h twilights, 2.4 V open-circuit.
    pub fn indoor(seed: u64) -> Self {
        Self::new(
            Amps::from_micro(285.0),
            Amps::from_micro(425.0),
            Seconds::from_hours(7.0),
            Seconds::from_hours(19.0),
            seed,
        )
    }

    /// An outdoor-ish cell with a deep night (no permanent lighting) — used
    /// by the energy-neutral WSN scenarios.
    pub fn outdoor(seed: u64) -> Self {
        Self::new(
            Amps::from_micro(2.0),
            Amps::from_milli(1.2),
            Seconds::from_hours(6.0),
            Seconds::from_hours(20.0),
            seed,
        )
    }

    /// Creates a cell with explicit floor/peak currents and day window.
    ///
    /// # Panics
    ///
    /// Panics if `day_peak < night_floor` or the day window is inverted.
    pub fn new(
        night_floor: Amps,
        day_peak: Amps,
        sunrise: Seconds,
        sunset: Seconds,
        seed: u64,
    ) -> Self {
        assert!(
            day_peak.0 >= night_floor.0,
            "day peak must be ≥ night floor"
        );
        assert!(sunrise.0 < sunset.0, "sunrise must precede sunset");
        let mut rng = StdRng::seed_from_u64(seed);
        let noise_table = (0..NOISE_TABLE_HOURS)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Self {
            name: format!("pv-{}µA..{}µA", night_floor.as_micro(), day_peak.as_micro()),
            night_floor,
            day_peak,
            sunrise,
            sunset,
            twilight: Seconds::from_hours(1.5),
            noise_frac: 0.06,
            noise_table,
        }
    }

    /// Overrides the relative noise amplitude (0 disables noise).
    pub fn with_noise(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "noise fraction in [0, 1)");
        self.noise_frac = frac;
        self
    }

    /// Smooth day-shape factor in `[0, 1]` for the time-of-day of `t`.
    fn day_factor(&self, t: Seconds) -> f64 {
        fn smooth(x: f64) -> f64 {
            let x = x.clamp(0.0, 1.0);
            x * x * (3.0 - 2.0 * x)
        }
        let day = t.0.rem_euclid(86_400.0);
        let rise0 = self.sunrise.0 - self.twilight.0;
        let set1 = self.sunset.0 + self.twilight.0;
        if day < rise0 || day > set1 {
            0.0
        } else if day < self.sunrise.0 {
            smooth((day - rise0) / self.twilight.0)
        } else if day <= self.sunset.0 {
            1.0
        } else {
            smooth(1.0 - (day - self.sunset.0) / self.twilight.0)
        }
    }

    /// Deterministic noise factor for the hour containing `t`.
    fn noise_at(&self, t: Seconds) -> f64 {
        if self.noise_frac == 0.0 {
            return 0.0;
        }
        let hour = (t.0 / 3600.0).floor() as usize % NOISE_TABLE_HOURS;
        self.noise_table[hour] * self.noise_frac
    }

    /// Harvested current at time `t` (replayable: same `t` → same value).
    pub fn current_at(&self, t: Seconds) -> Amps {
        let day_factor = self.day_factor(t);
        let base = self.night_floor.lerp(self.day_peak, day_factor);
        let noisy = base * (1.0 + self.noise_at(t) * day_factor);
        noisy.max(Amps::ZERO)
    }

    /// The flat part of the day curve that time-of-day `day` falls in —
    /// the night before the sunrise twilight, the plateau, or the night
    /// after the sunset twilight — or `None` inside a twilight.
    fn flat_part(&self, day: f64) -> Option<u8> {
        if day < self.sunrise.0 - self.twilight.0 {
            Some(0)
        } else if day > self.sunset.0 + self.twilight.0 {
            Some(2)
        } else if day >= self.sunrise.0 && day <= self.sunset.0 {
            Some(1)
        } else {
            None
        }
    }

    /// `true` when every time in `[first, last]` gives the same current:
    /// both ends share one noise hour, and their times of day lie in one
    /// flat part of one day (`first`'s time of day not after `last`'s,
    /// which within one hour rules out a midnight wrap).
    fn constant_between(&self, first: Seconds, last: Seconds) -> bool {
        let hour = |t: Seconds| (t.0 / 3600.0).floor();
        let (d0, d1) = (first.0.rem_euclid(86_400.0), last.0.rem_euclid(86_400.0));
        let part = self.flat_part(d0);
        hour(first) == hour(last) && d0 <= d1 && part.is_some() && part == self.flat_part(d1)
    }
}

impl EnergySource for Photovoltaic {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        SourceSample::Current {
            i: self.current_at(t),
            v_compliance: OPEN_CIRCUIT,
        }
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        match *times {
            [first, .., last] if self.constant_between(first, last) => {
                assert_eq!(times.len(), out.len(), "one output slot per time");
                out.fill(self.sample(first));
            }
            _ => crate::sample_each(self, times, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn indoor_band_matches_fig1b() {
        let pv = Photovoltaic::indoor(7);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // Two days at one-minute resolution, as in the figure.
        for minute in 0..(48 * 60) {
            let i = pv
                .current_at(Seconds::from_minutes(minute as f64))
                .as_micro();
            lo = lo.min(i);
            hi = hi.max(i);
        }
        assert!(lo >= 260.0, "floor {lo} µA below plausible band");
        assert!((270.0..=300.0).contains(&lo), "night floor {lo} µA");
        assert!((390.0..=460.0).contains(&hi), "day peak {hi} µA");
    }

    #[test]
    fn diurnal_structure_repeats_daily() {
        let pv = Photovoltaic::indoor(7).with_noise(0.0);
        let a = pv.current_at(Seconds::from_hours(12.0));
        let b = pv.current_at(Seconds::from_hours(36.0));
        assert!((a.0 - b.0).abs() < 1e-12);
    }

    #[test]
    fn night_is_floor_day_is_peak() {
        let pv = Photovoltaic::indoor(3).with_noise(0.0);
        assert_eq!(
            pv.current_at(Seconds::from_hours(2.0)),
            Amps::from_micro(285.0)
        );
        assert_eq!(
            pv.current_at(Seconds::from_hours(13.0)),
            Amps::from_micro(425.0)
        );
    }

    #[test]
    fn seeded_noise_is_deterministic() {
        let a = Photovoltaic::indoor(99);
        let b = Photovoltaic::indoor(99);
        for h in 0..48 {
            let t = Seconds::from_hours(h as f64 + 0.5);
            assert_eq!(a.current_at(t), b.current_at(t));
        }
        let c = Photovoltaic::indoor(100);
        let differs = (0..48).any(|h| {
            let t = Seconds::from_hours(h as f64 + 0.5);
            a.current_at(t) != c.current_at(t)
        });
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn compliance_voltage_stops_charging() {
        let mut pv = Photovoltaic::indoor(1);
        let s = pv.sample(Seconds::from_hours(12.0));
        assert_eq!(s.current_into(Volts(2.4)), Amps::ZERO);
        assert!(s.current_into(Volts(1.0)).0 > 0.0);
    }

    #[test]
    fn outdoor_profile_has_deep_night() {
        let pv = Photovoltaic::outdoor(5).with_noise(0.0);
        let night = pv.current_at(Seconds::from_hours(1.0));
        let noon = pv.current_at(Seconds::from_hours(13.0));
        assert!(noon.0 / night.0 > 100.0, "outdoor day/night contrast");
    }

    proptest! {
        #[test]
        fn prop_current_nonnegative_and_bounded(t_hours in 0.0f64..96.0, seed in 0u64..32) {
            let pv = Photovoltaic::indoor(seed);
            let i = pv.current_at(Seconds::from_hours(t_hours));
            prop_assert!(i.0 >= 0.0);
            // Peak plus max noise margin.
            prop_assert!(i.as_micro() <= 425.0 * 1.07);
        }

        #[test]
        fn prop_day_factor_unit_interval(t_hours in 0.0f64..48.0) {
            let pv = Photovoltaic::indoor(0);
            let f = pv.day_factor(Seconds::from_hours(t_hours));
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
