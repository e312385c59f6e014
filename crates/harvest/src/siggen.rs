//! Laboratory signal generator — the controlled stimulus (DC–20 Hz) used to
//! validate Hibernus in the paper's Section III.

use std::f64::consts::PI;

use edc_units::{Hertz, Ohms, Seconds, Volts};

use crate::{sample_each, EnergySource, SourceSample};

/// Waveform shapes produced by [`SignalGenerator`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Waveform {
    /// `A·sin(2πft)` (negative half clipped by the implicit series diode at
    /// the supply node, but reported raw by [`SignalGenerator::voltage_at`]).
    #[default]
    Sine,
    /// `max(0, A·sin(2πft))` — the stimulus of the paper's Fig. 7.
    HalfRectifiedSine,
    /// `|A·sin(2πft)|`.
    FullRectifiedSine,
    /// `±A` square wave.
    Square,
    /// Symmetric triangle between `−A` and `A`.
    Triangle,
    /// Constant `A`.
    Dc,
    /// `A` during the first `duty` fraction of each period, else 0.
    Pulse {
        /// On-fraction of each period, in `(0, 1)`.
        duty: f64,
    },
}

/// A deterministic, replayable waveform source behind a series resistance.
///
/// # Examples
///
/// ```
/// use edc_harvest::{SignalGenerator, Waveform};
/// use edc_units::{Hertz, Seconds, Volts};
///
/// let sg = SignalGenerator::new(Waveform::HalfRectifiedSine, Volts(4.0), Hertz(2.0));
/// assert_eq!(sg.voltage_at(Seconds(0.375)), Volts(0.0)); // negative half clipped
/// assert!((sg.voltage_at(Seconds(0.125)).0 - 4.0).abs() < 1e-9); // positive peak
/// ```
#[derive(Debug, Clone)]
pub struct SignalGenerator {
    name: String,
    waveform: Waveform,
    amplitude: Volts,
    frequency: Hertz,
    offset: Volts,
    resistance: Ohms,
    phase: f64,
}

impl SignalGenerator {
    /// Creates a generator with the given waveform, amplitude, and frequency.
    ///
    /// Defaults: zero DC offset, zero phase, 50 Ω output resistance.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude is negative, the frequency is negative, or a
    /// pulse duty cycle is outside `(0, 1)`.
    pub fn new(waveform: Waveform, amplitude: Volts, frequency: Hertz) -> Self {
        assert!(amplitude.0 >= 0.0, "amplitude must be ≥ 0");
        assert!(frequency.0 >= 0.0, "frequency must be ≥ 0");
        if let Waveform::Pulse { duty } = waveform {
            assert!(
                duty > 0.0 && duty < 1.0,
                "pulse duty cycle must be in (0, 1), got {duty}"
            );
        }
        Self {
            name: format!("siggen-{waveform:?}-{frequency}"),
            waveform,
            amplitude,
            frequency,
            offset: Volts::ZERO,
            resistance: Ohms(50.0),
            phase: 0.0,
        }
    }

    /// Adds a DC offset to the waveform.
    pub fn with_offset(mut self, offset: Volts) -> Self {
        self.offset = offset;
        self
    }

    /// Overrides the output (series) resistance.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive.
    pub fn with_resistance(mut self, r: Ohms) -> Self {
        assert!(r.is_positive(), "output resistance must be > 0");
        self.resistance = r;
        self
    }

    /// Sets the initial phase in radians.
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }

    /// The configured waveform.
    pub fn waveform(&self) -> Waveform {
        self.waveform
    }

    /// The configured frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Instantaneous open-circuit output voltage at time `t` (may be
    /// negative for bipolar waveforms).
    pub fn voltage_at(&self, t: Seconds) -> Volts {
        let theta = 2.0 * PI * self.frequency.0 * t.0 + self.phase;
        let unit = match self.waveform {
            Waveform::Sine => theta.sin(),
            Waveform::HalfRectifiedSine => theta.sin().max(0.0),
            Waveform::FullRectifiedSine => theta.sin().abs(),
            Waveform::Square => {
                if theta.sin() >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Waveform::Triangle => {
                let frac = (theta / (2.0 * PI)).rem_euclid(1.0);
                if frac < 0.25 {
                    4.0 * frac
                } else if frac < 0.75 {
                    2.0 - 4.0 * frac
                } else {
                    4.0 * frac - 4.0
                }
            }
            Waveform::Dc => 1.0,
            Waveform::Pulse { duty } => {
                let frac = (self.frequency.0 * t.0).rem_euclid(1.0);
                if frac < duty {
                    1.0
                } else {
                    0.0
                }
            }
        };
        self.amplitude * unit + self.offset
    }
}

impl EnergySource for SignalGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        SourceSample::Thevenin {
            v_oc: self.voltage_at(t),
            r_s: self.resistance,
        }
    }

    /// Exact for a pulse: for `x = f·t` with `t ≥ 0`, `fl(f·t)` is monotone
    /// in `t` and `x.rem_euclid(1.0)` is exact, so it rises monotonically
    /// inside one cycle. A batch whose first and last `x` share a cycle and
    /// lie on the same side of `duty` therefore holds one level, and its
    /// samples are all the first one. Other waveforms and batches sample
    /// per time.
    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        if let (Waveform::Pulse { duty }, Some(&first), Some(&last)) =
            (self.waveform, times.first(), times.last())
        {
            let (a, b) = (self.frequency.0 * first.0, self.frequency.0 * last.0);
            if first.0 >= 0.0
                && a.floor() == b.floor()
                && (a.rem_euclid(1.0) < duty) == (b.rem_euclid(1.0) < duty)
            {
                assert_eq!(times.len(), out.len(), "one output slot per time");
                out.fill(self.sample(first));
                return;
            }
        }
        sample_each(self, times, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sg(w: Waveform) -> SignalGenerator {
        SignalGenerator::new(w, Volts(2.0), Hertz(1.0))
    }

    #[test]
    fn sine_hits_known_points() {
        let g = sg(Waveform::Sine);
        assert!((g.voltage_at(Seconds(0.25)).0 - 2.0).abs() < 1e-9);
        assert!((g.voltage_at(Seconds(0.75)).0 + 2.0).abs() < 1e-9);
        assert!(g.voltage_at(Seconds(0.0)).0.abs() < 1e-9);
    }

    #[test]
    fn half_rectified_clips_negative_half() {
        let g = sg(Waveform::HalfRectifiedSine);
        assert_eq!(g.voltage_at(Seconds(0.75)), Volts(0.0));
        assert!((g.voltage_at(Seconds(0.25)).0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn full_rectified_is_absolute_value() {
        let g = sg(Waveform::FullRectifiedSine);
        assert!((g.voltage_at(Seconds(0.75)).0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn square_switches_sign() {
        let g = sg(Waveform::Square);
        assert_eq!(g.voltage_at(Seconds(0.1)), Volts(2.0));
        assert_eq!(g.voltage_at(Seconds(0.6)), Volts(-2.0));
    }

    #[test]
    fn triangle_peaks_at_quarter_period() {
        let g = sg(Waveform::Triangle);
        assert!((g.voltage_at(Seconds(0.25)).0 - 2.0).abs() < 1e-9);
        assert!((g.voltage_at(Seconds(0.75)).0 + 2.0).abs() < 1e-9);
        assert!(g.voltage_at(Seconds(0.5)).0.abs() < 1e-9);
    }

    #[test]
    fn pulse_duty_cycle() {
        let g = SignalGenerator::new(Waveform::Pulse { duty: 0.25 }, Volts(3.0), Hertz(1.0));
        assert_eq!(g.voltage_at(Seconds(0.1)), Volts(3.0));
        assert_eq!(g.voltage_at(Seconds(0.5)), Volts(0.0));
    }

    #[test]
    fn dc_with_offset() {
        let g = sg(Waveform::Dc).with_offset(Volts(0.5));
        assert_eq!(g.voltage_at(Seconds(42.0)), Volts(2.5));
    }

    #[test]
    fn phase_shift_moves_waveform() {
        let g = sg(Waveform::Sine).with_phase(PI / 2.0);
        assert!((g.voltage_at(Seconds(0.0)).0 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn bad_duty_rejected() {
        let _ = SignalGenerator::new(Waveform::Pulse { duty: 1.5 }, Volts(1.0), Hertz(1.0));
    }

    proptest! {
        #[test]
        fn prop_amplitude_bounds_all_waveforms(
            t in 0.0f64..100.0,
            f in 0.1f64..20.0,
            a in 0.0f64..10.0,
        ) {
            for w in [
                Waveform::Sine,
                Waveform::HalfRectifiedSine,
                Waveform::FullRectifiedSine,
                Waveform::Square,
                Waveform::Triangle,
                Waveform::Dc,
                Waveform::Pulse { duty: 0.5 },
            ] {
                let g = SignalGenerator::new(w, Volts(a), Hertz(f));
                let v = g.voltage_at(Seconds(t));
                prop_assert!(v.0.abs() <= a + 1e-9, "waveform {w:?} exceeded amplitude");
            }
        }

        #[test]
        fn prop_rectified_nonnegative(t in 0.0f64..100.0, f in 0.1f64..20.0) {
            let g = SignalGenerator::new(Waveform::HalfRectifiedSine, Volts(5.0), Hertz(f));
            prop_assert!(g.voltage_at(Seconds(t)).0 >= 0.0);
            let g = SignalGenerator::new(Waveform::FullRectifiedSine, Volts(5.0), Hertz(f));
            prop_assert!(g.voltage_at(Seconds(t)).0 >= 0.0);
        }

        #[test]
        fn prop_periodicity(t in 0.0f64..10.0, f in 0.5f64..10.0) {
            let g = SignalGenerator::new(Waveform::Sine, Volts(1.0), Hertz(f));
            let period = 1.0 / f;
            let a = g.voltage_at(Seconds(t));
            let b = g.voltage_at(Seconds(t + period));
            prop_assert!((a.0 - b.0).abs() < 1e-6);
        }
    }
}
