//! [`FieldView`] — one node's view of a shared harvest field.
//!
//! A fleet of energy-driven nodes does not see N independent harvesters:
//! it sees *one* ambient field (a gusting wind, a room's light, a reader's
//! RF carrier) through N placements. `FieldView` models a placement as two
//! numbers:
//!
//! - **attenuation** in `(0, 1]` — how much of the field's amplitude the
//!   node's position receives (Thévenin open-circuit voltage, regulated
//!   power, or short-circuit current, depending on the sample kind);
//! - **phase** in seconds — a time stagger, so nodes placed apart
//!   experience the field's dips and peaks at different instants.
//!
//! `edc-fleet` builds one `FieldView` per node over a single shared
//! envelope; any [`EnergySource`] (synthetic or [`TracePlayback`]
//! (crate::TracePlayback)) can serve as the field.
//!
//! # Examples
//!
//! ```
//! use edc_harvest::{EnergySource, FieldView, SignalGenerator, Waveform};
//! use edc_units::{Hertz, Seconds, Volts};
//!
//! let field = || SignalGenerator::new(Waveform::HalfRectifiedSine, Volts(4.0), Hertz(1.0));
//! let mut near = FieldView::new(field(), 1.0, Seconds(0.0));
//! let mut far = FieldView::new(field(), 0.5, Seconds(0.25));
//! // The far node sees half the amplitude, a quarter period later.
//! let v_near = near.sample(Seconds(0.25)).power_into(Volts(1.0));
//! let v_far = far.sample(Seconds(0.0)).power_into(Volts(1.0));
//! assert!(v_far.0 < v_near.0);
//! ```

use edc_units::Seconds;

use crate::{EnergySource, SourceSample};

/// A placement-attenuated, phase-staggered view of a shared field.
#[derive(Debug, Clone)]
pub struct FieldView<S> {
    inner: S,
    attenuation: f64,
    phase: Seconds,
    name: String,
}

impl<S: EnergySource> FieldView<S> {
    /// Wraps `field` as seen from one placement.
    ///
    /// # Panics
    ///
    /// Panics unless `attenuation` is in `(0, 1]` and `phase` is finite
    /// and non-negative.
    pub fn new(field: S, attenuation: f64, phase: Seconds) -> Self {
        assert!(
            attenuation.is_finite() && attenuation > 0.0 && attenuation <= 1.0,
            "attenuation must be in (0, 1]"
        );
        assert!(
            phase.0.is_finite() && phase.0 >= 0.0,
            "phase stagger must be finite and ≥ 0"
        );
        let name = format!("{}@{:.3}x+{}s", field.name(), attenuation, phase.0);
        Self {
            inner: field,
            attenuation,
            phase,
            name,
        }
    }

    /// The placement's attenuation factor.
    pub fn attenuation(&self) -> f64 {
        self.attenuation
    }

    /// The placement's phase stagger.
    pub fn phase(&self) -> Seconds {
        self.phase
    }

    /// Returns the wrapped field.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EnergySource> EnergySource for FieldView<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        self.inner.sample(t + self.phase).scaled(self.attenuation)
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        assert_eq!(times.len(), out.len(), "one output slot per time");
        let mut shifted = [Seconds(0.0); SHIFT_CHUNK];
        for (times, out) in times.chunks(SHIFT_CHUNK).zip(out.chunks_mut(SHIFT_CHUNK)) {
            let shifted = &mut shifted[..times.len()];
            for (s, &t) in shifted.iter_mut().zip(times) {
                *s = t + self.phase;
            }
            self.inner.sample_batch(shifted, out);
            for s in out {
                *s = s.scaled(self.attenuation);
            }
        }
    }
}

/// Times shifted by the phase stagger per inner `sample_batch` call.
const SHIFT_CHUNK: usize = 256;
