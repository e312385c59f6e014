//! Energy-harvesting source models.
//!
//! The paper's central premise is that a harvester is "a power source that is
//! highly unpredictable, and varies by many orders of magnitude both
//! temporally and spatially" (Section I). This crate provides models of every
//! source class the paper mentions — micro wind turbine and indoor
//! photovoltaic (Fig. 1), RF (WISPCam), kinetic, signal generators (the
//! Hibernus validation stimulus) — plus trace playback and combinators.
//!
//! All sources implement [`EnergySource`]: at each simulation instant they
//! yield a [`SourceSample`] (a Thévenin equivalent, an ideal power source, or
//! an ideal current source) which the supply-node integration converts into
//! current *into* the rail via [`EnergySource::current_into`]. Sources never
//! sink current — a series diode is implicit, as in the real front-ends.
//!
//! # Examples
//!
//! ```
//! use edc_harvest::{EnergySource, SignalGenerator, Waveform};
//! use edc_units::{Hertz, Ohms, Seconds, Volts};
//!
//! // The half-wave rectified sine used to drive Fig. 7 of the paper.
//! let mut source = SignalGenerator::new(Waveform::HalfRectifiedSine, Volts(4.0), Hertz(2.0))
//!     .with_resistance(Ohms(100.0));
//! let i = source.current_into(Volts(1.0), Seconds(0.125));
//! assert!(i.0 > 0.0); // quarter period: sine peak
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod kinetic;
mod photovoltaic;
mod rf;
mod siggen;
mod thermal;
mod trace;
mod wind;

pub use field::FieldView;
pub use kinetic::KineticHarvester;
pub use photovoltaic::Photovoltaic;
pub use rf::{ReaderSchedule, RfHarvester};
pub use siggen::{SignalGenerator, Waveform};
pub use thermal::ThermalGenerator;
pub use trace::TracePlayback;
pub use wind::{GustProfile, WindTurbine};

use edc_units::{Amps, Ohms, Seconds, Volts, Watts};

/// Minimum rail voltage assumed by regulated power-type sources when
/// computing `I = P/V`; models the boost front-end's minimum output
/// compliance and avoids an unphysical current singularity at `V = 0`.
pub const POWER_SOURCE_COMPLIANCE_FLOOR: Volts = Volts(0.2);

/// What a source looks like electrically at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceSample {
    /// Thévenin equivalent: open-circuit voltage behind a series resistance.
    /// Used for raw transducers (wind turbine, signal generator).
    Thevenin {
        /// Open-circuit voltage.
        v_oc: Volts,
        /// Series (source) resistance.
        r_s: Ohms,
    },
    /// Regulated power source: delivers up to this power at the rail voltage
    /// (models a harvester behind an MPPT/boost front-end).
    Power(Watts),
    /// Ideal current source up to a compliance voltage (e.g. a PV cell well
    /// below its open-circuit point).
    Current {
        /// Short-circuit-ish output current.
        i: Amps,
        /// Compliance (open-circuit) voltage above which output ceases.
        v_compliance: Volts,
    },
}

impl SourceSample {
    /// A dead source (zero Thévenin voltage).
    pub const OFF: Self = SourceSample::Thevenin {
        v_oc: Volts(0.0),
        r_s: Ohms(1.0),
    };

    /// Converts the sample into the current flowing into a rail held at
    /// `node_v`. Never negative (implicit series diode).
    pub fn current_into(self, node_v: Volts) -> Amps {
        match self {
            SourceSample::Thevenin { v_oc, r_s } => {
                let delta = v_oc - node_v;
                if delta.0 <= 0.0 {
                    Amps::ZERO
                } else {
                    delta / r_s
                }
            }
            SourceSample::Power(p) => {
                if p.0 <= 0.0 {
                    Amps::ZERO
                } else {
                    p / node_v.max(POWER_SOURCE_COMPLIANCE_FLOOR)
                }
            }
            SourceSample::Current { i, v_compliance } => {
                if node_v >= v_compliance || i.0 <= 0.0 {
                    Amps::ZERO
                } else {
                    i
                }
            }
        }
    }

    /// The power this sample would deliver into a rail held at `node_v`.
    pub fn power_into(self, node_v: Volts) -> Watts {
        node_v * self.current_into(node_v)
    }

    /// The sample with its amplitude (Thévenin voltage, power or current)
    /// multiplied by `factor`.
    pub fn scaled(self, factor: f64) -> Self {
        match self {
            SourceSample::Thevenin { v_oc, r_s } => SourceSample::Thevenin {
                v_oc: v_oc * factor,
                r_s,
            },
            SourceSample::Power(p) => SourceSample::Power(p * factor),
            SourceSample::Current { i, v_compliance } => SourceSample::Current {
                i: i * factor,
                v_compliance,
            },
        }
    }

    /// Whether every sample of `samples` has the first one's exact bits
    /// (`-0.0` and `0.0` differ), so that any computation would see the
    /// same operands in each. An empty slice counts as repeated.
    pub fn is_repeated(samples: &[Self]) -> bool {
        let Some((first, rest)) = samples.split_first() else {
            return true;
        };
        let first = first.bits();
        rest.iter().all(|s| s.bits() == first)
    }

    /// The sample's kind and exact field bits.
    fn bits(self) -> (u8, u64, u64) {
        match self {
            SourceSample::Thevenin { v_oc, r_s } => (0, v_oc.0.to_bits(), r_s.0.to_bits()),
            SourceSample::Power(p) => (1, p.0.to_bits(), 0),
            SourceSample::Current { i, v_compliance } => {
                (2, i.0.to_bits(), v_compliance.0.to_bits())
            }
        }
    }
}

/// A time-varying energy-harvesting source.
///
/// Implementations take `&mut self` so that a source may keep caches or
/// cursors between calls.
///
/// # Sampling contract
///
/// - **Replayable.** The sample at `t` depends only on `t` and the
///   source's construction, never on which times were sampled before.
///   Runners rely on this: the transient runner and the bound engine's
///   supply scan sample ahead in batches, may sample up to one batch past
///   their last tick, discard the extra samples, and later sample the same
///   times again.
/// - **Batch equals scalar.** [`EnergySource::sample_batch`] must fill
///   exactly what [`EnergySource::sample`] returns at each time.
///   Overrides may only skip work that provably yields the same samples.
pub trait EnergySource {
    /// Human-readable name used in logs and figure output.
    fn name(&self) -> &str;

    /// Electrical appearance of the source at time `t`.
    fn sample(&mut self, t: Seconds) -> SourceSample;

    /// Samples at every time of `times` into the same position of `out`.
    ///
    /// `times` must be non-decreasing and `out` exactly as long. The
    /// default calls [`EnergySource::sample`] once per time.
    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        sample_each(self, times, out);
    }

    /// Current pushed into a rail at `node_v` at time `t`.
    ///
    /// Provided in terms of [`EnergySource::sample`]; override only for
    /// sources with voltage-dependent behaviour beyond the sample model.
    fn current_into(&mut self, node_v: Volts, t: Seconds) -> Amps {
        self.sample(t).current_into(node_v)
    }
}

impl<S: EnergySource + ?Sized> EnergySource for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        (**self).sample(t)
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        (**self).sample_batch(times, out);
    }
}

/// [`EnergySource::sample_batch`]'s default: one `sample` call per time.
/// Overrides fall back to it for batches they cannot shortcut.
fn sample_each<S: EnergySource + ?Sized>(
    source: &mut S,
    times: &[Seconds],
    out: &mut [SourceSample],
) {
    assert_eq!(times.len(), out.len(), "one output slot per time");
    for (slot, &t) in out.iter_mut().zip(times) {
        *slot = source.sample(t);
    }
}

/// A steady DC bench supply behind a series resistance — the "controlled
/// source" of the Hibernus validation, and the stand-in for mains power when
/// classifying traditional systems in the taxonomy.
#[derive(Debug, Clone)]
pub struct DcSupply {
    name: String,
    voltage: Volts,
    resistance: Ohms,
}

impl DcSupply {
    /// Creates a DC supply with the given EMF and a default 1 Ω source
    /// resistance.
    pub fn new(voltage: Volts) -> Self {
        Self {
            name: format!("dc-{voltage}"),
            voltage,
            resistance: Ohms(1.0),
        }
    }

    /// Overrides the series resistance.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive.
    pub fn with_resistance(mut self, r: Ohms) -> Self {
        assert!(r.is_positive(), "source resistance must be > 0");
        self.resistance = r;
        self
    }
}

impl EnergySource for DcSupply {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, _t: Seconds) -> SourceSample {
        SourceSample::Thevenin {
            v_oc: self.voltage,
            r_s: self.resistance,
        }
    }
}

/// Scales another source's output (amplitude for Thévenin, power/current for
/// the other sample kinds) — useful for spatial-variation sweeps.
#[derive(Debug, Clone)]
pub struct Scaled<S> {
    inner: S,
    factor: f64,
    name: String,
}

impl<S: EnergySource> Scaled<S> {
    /// Wraps `inner`, scaling its output by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn new(inner: S, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and ≥ 0"
        );
        let name = format!("{}×{:.3}", inner.name(), factor);
        Self {
            inner,
            factor,
            name,
        }
    }

    /// Returns the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EnergySource> EnergySource for Scaled<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        self.inner.sample(t).scaled(self.factor)
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        self.inner.sample_batch(times, out);
        for s in out {
            *s = s.scaled(self.factor);
        }
    }
}

/// Gates another source through on/off windows — models intermittent
/// availability (a reader that is only sometimes present, mains outages …).
#[derive(Debug, Clone)]
pub struct Gated<S> {
    inner: S,
    /// Sorted, non-overlapping `(start, end)` windows during which the
    /// source is live.
    windows: Vec<(Seconds, Seconds)>,
    name: String,
}

impl<S: EnergySource> Gated<S> {
    /// Wraps `inner`, letting it through only inside `windows`.
    ///
    /// # Panics
    ///
    /// Panics if any window is empty or windows are not sorted/disjoint.
    pub fn new(inner: S, windows: Vec<(Seconds, Seconds)>) -> Self {
        let mut last_end = f64::NEG_INFINITY;
        for &(s, e) in &windows {
            assert!(s.0 < e.0, "gate window must have start < end");
            assert!(s.0 >= last_end, "gate windows must be sorted and disjoint");
            last_end = e.0;
        }
        let name = format!("{} (gated)", inner.name());
        Self {
            inner,
            windows,
            name,
        }
    }

    fn is_on(&self, t: Seconds) -> bool {
        self.windows.iter().any(|&(s, e)| t.0 >= s.0 && t.0 < e.0)
    }
}

impl<S: EnergySource> EnergySource for Gated<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        if self.is_on(t) {
            self.inner.sample(t)
        } else {
            SourceSample::OFF
        }
    }

    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        let (Some(&first), Some(&last)) = (times.first(), times.last()) else {
            return;
        };
        if self
            .windows
            .iter()
            .any(|&(s, e)| first.0 >= s.0 && last.0 < e.0)
        {
            // One window holds the whole batch.
            self.inner.sample_batch(times, out);
        } else if self
            .windows
            .iter()
            .all(|&(s, e)| e.0 <= first.0 || s.0 > last.0)
        {
            // No window meets the batch.
            out.fill(SourceSample::OFF);
        } else {
            sample_each(self, times, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_units::Hertz;
    use proptest::prelude::*;

    #[test]
    fn thevenin_sample_diode_behaviour() {
        let s = SourceSample::Thevenin {
            v_oc: Volts(3.0),
            r_s: Ohms(100.0),
        };
        assert_eq!(s.current_into(Volts(1.0)), Amps(0.02));
        // Node above source: diode blocks, no reverse current.
        assert_eq!(s.current_into(Volts(4.0)), Amps::ZERO);
    }

    #[test]
    fn power_sample_respects_compliance_floor() {
        let s = SourceSample::Power(Watts::from_milli(1.0));
        let at_zero = s.current_into(Volts(0.0));
        let expected = Watts::from_milli(1.0) / POWER_SOURCE_COMPLIANCE_FLOOR;
        assert_eq!(at_zero, expected);
        let at_two = s.current_into(Volts(2.0));
        assert_eq!(at_two, Amps(0.0005));
    }

    #[test]
    fn current_sample_stops_at_compliance() {
        let s = SourceSample::Current {
            i: Amps::from_micro(430.0),
            v_compliance: Volts(2.5),
        };
        assert_eq!(s.current_into(Volts(1.0)), Amps::from_micro(430.0));
        assert_eq!(s.current_into(Volts(2.5)), Amps::ZERO);
    }

    #[test]
    fn dc_supply_is_constant() {
        let mut dc = DcSupply::new(Volts(3.3)).with_resistance(Ohms(10.0));
        let a = dc.sample(Seconds(0.0));
        let b = dc.sample(Seconds(100.0));
        assert_eq!(a, b);
        assert!((dc.current_into(Volts(3.0), Seconds(1.0)).0 - 0.03).abs() < 1e-12);
    }

    #[test]
    fn scaled_source_scales_each_kind() {
        let mut s = Scaled::new(DcSupply::new(Volts(4.0)), 0.5);
        match s.sample(Seconds(0.0)) {
            SourceSample::Thevenin { v_oc, .. } => assert_eq!(v_oc, Volts(2.0)),
            other => panic!("unexpected sample {other:?}"),
        }
        assert!(s.name().contains("dc"));
    }

    #[test]
    fn gated_source_switches_off_outside_windows() {
        let mut g = Gated::new(
            DcSupply::new(Volts(3.0)),
            vec![(Seconds(1.0), Seconds(2.0))],
        );
        assert_eq!(g.sample(Seconds(0.5)), SourceSample::OFF);
        assert_ne!(g.sample(Seconds(1.5)), SourceSample::OFF);
        assert_eq!(g.sample(Seconds(2.0)), SourceSample::OFF);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn gated_rejects_overlapping_windows() {
        let _ = Gated::new(
            DcSupply::new(Volts(3.0)),
            vec![(Seconds(0.0), Seconds(2.0)), (Seconds(1.0), Seconds(3.0))],
        );
    }

    #[test]
    fn boxed_source_is_usable_as_trait_object() {
        let mut boxed: Box<dyn EnergySource> =
            Box::new(SignalGenerator::new(Waveform::Dc, Volts(2.0), Hertz(1.0)));
        assert!(boxed.sample(Seconds(0.0)).current_into(Volts(0.0)).0 > 0.0);
        assert!(!boxed.name().is_empty());
    }

    proptest! {
        #[test]
        fn prop_current_never_negative(
            v_oc in 0.0f64..10.0,
            r_s in 1.0f64..10_000.0,
            node_v in 0.0f64..10.0,
        ) {
            let s = SourceSample::Thevenin { v_oc: Volts(v_oc), r_s: Ohms(r_s) };
            prop_assert!(s.current_into(Volts(node_v)).0 >= 0.0);
        }

        #[test]
        fn prop_power_sample_finite(p in 0.0f64..10.0, node_v in 0.0f64..5.0) {
            let s = SourceSample::Power(Watts(p));
            let i = s.current_into(Volts(node_v));
            prop_assert!(i.is_finite());
            prop_assert!(i.0 >= 0.0);
        }
    }
}
