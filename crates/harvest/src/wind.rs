//! Micro wind-turbine model — the source of the paper's Fig. 1(a) and the
//! supply driving the power-neutral demonstration of Fig. 8.
//!
//! A micro turbine produces an AC voltage whose electrical frequency and
//! amplitude both follow the instantaneous wind speed. During a *gust* the
//! output swells over a few seconds and then dies away; Fig. 1(a) of the
//! paper shows a single ~8 s gust with the AC carrier at several hertz and a
//! peak of roughly ±5 V. [`WindTurbine`] reproduces this as a carrier
//! sinusoid multiplied by a gust envelope.

use std::f64::consts::PI;

use edc_units::{Hertz, Ohms, Seconds, Volts};

use crate::{EnergySource, SourceSample};

/// Wind-speed (gust) envelope in `[0, 1]` as a function of time.
#[derive(Debug, Clone)]
pub enum GustProfile {
    /// A single gust: smooth rise over `rise`, hold at 1 for `hold`, smooth
    /// decay over `fall`, all starting at `start`. Matches the single-gust
    /// capture of Fig. 1(a).
    Single {
        /// Gust onset time.
        start: Seconds,
        /// Rise duration (0 → 1).
        rise: Seconds,
        /// Plateau duration at full strength.
        hold: Seconds,
        /// Decay duration (1 → 0).
        fall: Seconds,
    },
    /// Periodic gusts: a [`GustProfile::Single`]-shaped envelope repeated
    /// every `period`.
    Periodic {
        /// Repetition period (must exceed `rise + hold + fall`).
        period: Seconds,
        /// Rise duration.
        rise: Seconds,
        /// Plateau duration.
        hold: Seconds,
        /// Decay duration.
        fall: Seconds,
    },
    /// Constant wind at a fixed fraction of full strength.
    Steady(f64),
}

impl GustProfile {
    /// The canonical Fig. 1(a) single gust: onset at 1 s, 2 s rise, 2 s
    /// hold, 3 s fall — all inside the figure's 8 s window.
    pub fn fig1a() -> Self {
        GustProfile::Single {
            start: Seconds(1.0),
            rise: Seconds(2.0),
            hold: Seconds(2.0),
            fall: Seconds(3.0),
        }
    }

    /// Envelope value in `[0, 1]` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a `Steady` fraction lies outside `[0, 1]`.
    pub fn envelope(&self, t: Seconds) -> f64 {
        fn ramp(x: f64) -> f64 {
            // Smoothstep keeps dV/dt finite at the gust edges.
            let x = x.clamp(0.0, 1.0);
            x * x * (3.0 - 2.0 * x)
        }
        match *self {
            GustProfile::Single {
                start,
                rise,
                hold,
                fall,
            } => {
                let dt = t.0 - start.0;
                if dt < 0.0 {
                    0.0
                } else if dt < rise.0 {
                    ramp(dt / rise.0)
                } else if dt < rise.0 + hold.0 {
                    1.0
                } else if dt < rise.0 + hold.0 + fall.0 {
                    ramp(1.0 - (dt - rise.0 - hold.0) / fall.0)
                } else {
                    0.0
                }
            }
            GustProfile::Periodic {
                period,
                rise,
                hold,
                fall,
            } => {
                let phase = Seconds(t.0.rem_euclid(period.0));
                GustProfile::Single {
                    start: Seconds(0.0),
                    rise,
                    hold,
                    fall,
                }
                .envelope(phase)
            }
            GustProfile::Steady(frac) => {
                debug_assert!((0.0..=1.0).contains(&frac), "steady fraction in [0,1]");
                frac
            }
        }
    }
}

/// A micro wind turbine: AC carrier × gust envelope behind a source
/// resistance.
///
/// The raw (bipolar) output is available through
/// [`WindTurbine::output_voltage`] for regenerating Fig. 1(a); as an
/// [`EnergySource`] the turbine presents its instantaneous Thévenin
/// equivalent, and the negative half-cycles are blocked by the implicit
/// series diode (half-wave rectification, as in the paper's Fig. 8 setup).
///
/// # Examples
///
/// ```
/// use edc_harvest::{GustProfile, WindTurbine};
/// use edc_units::{Hertz, Seconds, Volts};
///
/// let turbine = WindTurbine::new(Volts(5.0), Hertz(8.0), GustProfile::fig1a());
/// assert_eq!(turbine.output_voltage(Seconds(0.0)), Volts(0.0)); // before gust
/// ```
#[derive(Debug, Clone)]
pub struct WindTurbine {
    name: String,
    peak: Volts,
    electrical_frequency: Hertz,
    gust: GustProfile,
    resistance: Ohms,
}

impl WindTurbine {
    /// Creates a turbine with the given full-gust peak voltage, electrical
    /// (AC) frequency, and gust profile. Default source resistance: 220 Ω.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is negative or the frequency is not positive.
    pub fn new(peak: Volts, electrical_frequency: Hertz, gust: GustProfile) -> Self {
        assert!(peak.0 >= 0.0, "peak voltage must be ≥ 0");
        assert!(
            electrical_frequency.is_positive(),
            "electrical frequency must be > 0"
        );
        Self {
            name: format!("wind-{peak}@{electrical_frequency}"),
            peak,
            electrical_frequency,
            gust,
            resistance: Ohms(220.0),
        }
    }

    /// Overrides the source resistance.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive.
    pub fn with_resistance(mut self, r: Ohms) -> Self {
        assert!(r.is_positive(), "source resistance must be > 0");
        self.resistance = r;
        self
    }

    /// Raw bipolar AC output voltage at `t` (the Fig. 1(a) trace).
    ///
    /// The electrical frequency also scales weakly with the gust envelope —
    /// a slower rotor produces both lower voltage and lower frequency.
    pub fn output_voltage(&self, t: Seconds) -> Volts {
        let env = self.gust.envelope(t);
        if env <= 0.0 {
            return Volts::ZERO;
        }
        // Frequency tracks rotor speed: from 40% at cut-in to 100% at full gust.
        let f = self.electrical_frequency.0 * (0.4 + 0.6 * env);
        self.peak * env * (2.0 * PI * f * t.0).sin()
    }

    /// The gust envelope in `[0, 1]` at `t`.
    pub fn envelope(&self, t: Seconds) -> f64 {
        self.gust.envelope(t)
    }

    /// `true` when every time in `[first, last]` lies before a
    /// [`GustProfile::Single`] gust or after it has died away, so the
    /// envelope is exactly 0 throughout.
    fn calm_between(&self, first: Seconds, last: Seconds) -> bool {
        match self.gust {
            GustProfile::Single {
                start,
                rise,
                hold,
                fall,
            } => {
                // The same differences and sums `GustProfile::envelope`
                // compares, so each branch decision carries over.
                let (dt0, dt1) = (first.0 - start.0, last.0 - start.0);
                dt1 < 0.0
                    || (dt0 >= rise.0 && dt0 >= rise.0 + hold.0 && dt0 >= rise.0 + hold.0 + fall.0)
            }
            GustProfile::Periodic { .. } | GustProfile::Steady(_) => false,
        }
    }
}

impl EnergySource for WindTurbine {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        SourceSample::Thevenin {
            v_oc: self.output_voltage(t),
            r_s: self.resistance,
        }
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        match *times {
            [first, .., last] if self.calm_between(first, last) => {
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
    fn fig1a_gust_confined_to_window() {
        let t = WindTurbine::new(Volts(5.0), Hertz(8.0), GustProfile::fig1a());
        assert_eq!(t.output_voltage(Seconds(0.5)), Volts(0.0));
        assert_eq!(t.output_voltage(Seconds(8.1)), Volts(0.0)); // gust ends at 1+2+2+3 = 8
                                                                // Mid-gust there is signal.
        let mid: f64 = (0..100)
            .map(|i| t.output_voltage(Seconds(3.0 + i as f64 * 0.01)).0.abs())
            .fold(0.0, f64::max);
        assert!(mid > 4.0, "expected near-peak output mid-gust, got {mid}");
    }

    #[test]
    fn envelope_plateau_is_one() {
        let g = GustProfile::fig1a();
        assert_eq!(g.envelope(Seconds(3.5)), 1.0);
        assert_eq!(g.envelope(Seconds(0.0)), 0.0);
        assert!(g.envelope(Seconds(2.0)) > 0.0 && g.envelope(Seconds(2.0)) < 1.0);
    }

    #[test]
    fn periodic_gusts_repeat() {
        let g = GustProfile::Periodic {
            period: Seconds(10.0),
            rise: Seconds(1.0),
            hold: Seconds(1.0),
            fall: Seconds(1.0),
        };
        assert!((g.envelope(Seconds(1.5)) - g.envelope(Seconds(11.5))).abs() < 1e-12);
        assert_eq!(g.envelope(Seconds(5.0)), 0.0);
    }

    #[test]
    fn steady_profile_constant() {
        let g = GustProfile::Steady(0.7);
        assert_eq!(g.envelope(Seconds(0.0)), 0.7);
        assert_eq!(g.envelope(Seconds(1e6)), 0.7);
    }

    #[test]
    fn source_sample_blocks_negative_half_cycles() {
        let mut t = WindTurbine::new(Volts(5.0), Hertz(8.0), GustProfile::Steady(1.0));
        // Scan a full electrical period; current into a 1 V rail is never negative.
        for i in 0..200 {
            let time = Seconds(i as f64 * 0.001);
            let i_in = t.sample(time).current_into(Volts(1.0));
            assert!(i_in.0 >= 0.0);
        }
    }

    #[test]
    fn ac_output_alternates_sign_during_gust() {
        let t = WindTurbine::new(Volts(5.0), Hertz(8.0), GustProfile::Steady(1.0));
        let mut pos = false;
        let mut neg = false;
        for i in 0..1000 {
            let v = t.output_voltage(Seconds(i as f64 * 0.001));
            pos |= v.0 > 0.1;
            neg |= v.0 < -0.1;
        }
        assert!(pos && neg, "AC output should swing both ways");
    }

    proptest! {
        #[test]
        fn prop_envelope_in_unit_interval(t in 0.0f64..100.0) {
            for g in [GustProfile::fig1a(), GustProfile::Periodic {
                period: Seconds(7.0),
                rise: Seconds(1.0),
                hold: Seconds(2.0),
                fall: Seconds(2.0),
            }] {
                let e = g.envelope(Seconds(t));
                prop_assert!((0.0..=1.0).contains(&e));
            }
        }

        #[test]
        fn prop_output_bounded_by_peak(t in 0.0f64..100.0, peak in 0.0f64..10.0) {
            let turbine = WindTurbine::new(Volts(peak), Hertz(8.0), GustProfile::fig1a());
            prop_assert!(turbine.output_voltage(Seconds(t)).0.abs() <= peak + 1e-9);
        }
    }
}
