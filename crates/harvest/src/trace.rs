//! Trace playback — replays recorded `P_h(t)` or `V(t)` series.
//!
//! The paper's experimental data is published as time-series traces (DOI
//! 10.5258/SOTON/404058). Those files are not available offline, so the
//! workspace generates synthetic equivalents; [`TracePlayback`] is the
//! common mechanism that replays either kind of series as an
//! [`EnergySource`], with linear interpolation and optional looping.

use edc_units::{Ohms, Seconds, Volts, Watts};

use crate::{EnergySource, SourceSample};

/// What the trace samples represent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TraceKind {
    /// Open-circuit voltage behind the given source resistance.
    Voltage(Ohms),
    /// Regulated harvested power.
    Power,
}

/// Replays a recorded time series as an energy source.
///
/// # Examples
///
/// ```
/// use edc_harvest::{EnergySource, TracePlayback};
/// use edc_units::{Seconds, Volts, Watts};
///
/// let trace = TracePlayback::from_power_series(
///     "bench",
///     vec![(Seconds(0.0), Watts(0.001)), (Seconds(1.0), Watts(0.003))],
/// ).looping();
/// let mid = trace.try_power_at(Seconds(0.5));
/// assert!(mid.is_some_and(|p| (p.0 - 0.002).abs() < 1e-12)); // linear interpolation
/// ```
#[derive(Debug, Clone)]
pub struct TracePlayback {
    name: String,
    /// Monotonically increasing sample times with their values.
    samples: Vec<(Seconds, f64)>,
    /// The first and last entries of `samples`, which `validated`
    /// guarantees exist and decimation keeps.
    first: (Seconds, f64),
    last: (Seconds, f64),
    kind: TraceKind,
    looping: bool,
}

impl TracePlayback {
    /// Creates a playback source from a voltage series behind `r_s`.
    ///
    /// # Panics
    ///
    /// Panics if the series is shorter than two samples or not strictly
    /// increasing in time.
    pub fn from_voltage_series(
        name: impl Into<String>,
        series: Vec<(Seconds, Volts)>,
        r_s: Ohms,
    ) -> Self {
        assert!(r_s.is_positive(), "source resistance must be > 0");
        let samples: Vec<_> = series.into_iter().map(|(t, v)| (t, v.0)).collect();
        Self::validated(name.into(), samples, TraceKind::Voltage(r_s))
    }

    /// Creates a playback source from a harvested-power series.
    ///
    /// # Panics
    ///
    /// Panics if the series is shorter than two samples or not strictly
    /// increasing in time.
    pub fn from_power_series(name: impl Into<String>, series: Vec<(Seconds, Watts)>) -> Self {
        let samples: Vec<_> = series.into_iter().map(|(t, p)| (t, p.0)).collect();
        Self::validated(name.into(), samples, TraceKind::Power)
    }

    fn validated(name: String, samples: Vec<(Seconds, f64)>, kind: TraceKind) -> Self {
        assert!(samples.len() >= 2, "trace needs at least two samples");
        for pair in samples.windows(2) {
            assert!(
                pair[0].0 .0 < pair[1].0 .0,
                "trace times must be strictly increasing"
            );
        }
        Self {
            name,
            first: samples[0],
            last: samples[samples.len() - 1],
            samples,
            kind,
            looping: false,
        }
    }

    /// Makes the trace repeat indefinitely instead of holding its last value.
    pub fn looping(mut self) -> Self {
        self.looping = true;
        self
    }

    /// Reduces the trace's sample rate by keeping every `k`-th sample
    /// (indices `0, k, 2k, …`) **plus the final sample**, so the decimated
    /// trace always spans the original duration and stays at least two
    /// samples long. `k = 1` is the identity. Values between the kept
    /// samples change (linear interpolation now bridges a wider gap) — it
    /// is a fidelity knob, exactly like coarsening the simulation
    /// timestep, and the explore evaluator discounts it the same way.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero (the trace would never sample).
    pub fn decimated(self, k: u64) -> Self {
        assert!(k >= 1, "decimation factor must be ≥ 1");
        if k == 1 {
            return self;
        }
        let last = self.samples.len() - 1;
        let samples: Vec<(Seconds, f64)> = self
            .samples
            .iter()
            .enumerate()
            .filter(|&(i, _)| (i as u64).is_multiple_of(k) || i == last)
            .map(|(_, &s)| s)
            .collect();
        Self { samples, ..self }
    }

    /// Duration covered by the underlying samples.
    pub fn duration(&self) -> Seconds {
        Seconds(self.last.0 .0 - self.first.0 .0)
    }

    /// Raw interpolated value at `t` (volts or watts depending on the trace
    /// kind).
    ///
    /// Boundary semantics are explicit so fleet-scale replays (thousands of
    /// staggered nodes sampling near period edges) stay well-defined:
    ///
    /// - non-looping traces hold their endpoints: any `t` at or beyond the
    ///   last sample time — including exactly `duration()` past the first
    ///   sample — returns the last sample's value;
    /// - looping traces wrap on the half-open window `[t0, t1)`: exact
    ///   multiples of the period return the first sample's value, and
    ///   rounding artefacts of the wrap (`rem_euclid` landing on the period
    ///   itself for tiny negative offsets) clamp to the window instead of
    ///   indexing out of range.
    fn value_at(&self, t: Seconds) -> f64 {
        let t0 = self.first.0 .0;
        let t1 = self.last.0 .0;
        let mut q = t.0;
        if self.looping {
            let span = t1 - t0;
            // rem_euclid is [0, span) over the reals, but in floating point
            // a tiny negative offset rounds to exactly `span`, and t0 + rel
            // can overshoot t1 by an ulp; clamp so the wrapped time always
            // stays inside the sampled window.
            let rel = (q - t0).rem_euclid(span);
            q = (t0 + rel).clamp(t0, t1);
        } else if q <= t0 {
            return self.first.1;
        } else if q >= t1 {
            return self.last.1;
        }
        let idx = self
            .samples
            .partition_point(|&(ts, _)| ts.0 <= q)
            .saturating_sub(1)
            .min(self.samples.len() - 2);
        let (ta, va) = self.samples[idx];
        let (tb, vb) = self.samples[idx + 1];
        let frac = (q - ta.0) / (tb.0 - ta.0);
        va + (vb - va) * frac.clamp(0.0, 1.0)
    }

    /// Interpolated power at `t`, or `None` if this is a voltage trace
    /// (power is not defined without a load operating point).
    pub fn try_power_at(&self, t: Seconds) -> Option<Watts> {
        match self.kind {
            TraceKind::Power => Some(Watts(self.value_at(t))),
            TraceKind::Voltage(_) => None,
        }
    }

    /// Interpolated open-circuit voltage at `t`, or `None` if this is a
    /// power trace.
    pub fn try_voltage_at(&self, t: Seconds) -> Option<Volts> {
        match self.kind {
            TraceKind::Voltage(_) => Some(Volts(self.value_at(t))),
            TraceKind::Power => None,
        }
    }
}

impl EnergySource for TracePlayback {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        match self.kind {
            TraceKind::Voltage(r_s) => SourceSample::Thevenin {
                v_oc: Volts(self.value_at(t)),
                r_s,
            },
            TraceKind::Power => SourceSample::Power(Watts(self.value_at(t).max(0.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn power_trace() -> TracePlayback {
        TracePlayback::from_power_series(
            "t",
            vec![
                (Seconds(0.0), Watts(0.0)),
                (Seconds(1.0), Watts(1.0)),
                (Seconds(2.0), Watts(0.5)),
            ],
        )
    }

    #[test]
    fn interpolates_linearly() {
        let tr = power_trace();
        assert!((tr.try_power_at(Seconds(0.5)).unwrap().0 - 0.5).abs() < 1e-12);
        assert!((tr.try_power_at(Seconds(1.5)).unwrap().0 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn holds_endpoints_when_not_looping() {
        let tr = power_trace();
        assert_eq!(tr.try_power_at(Seconds(-1.0)).unwrap(), Watts(0.0));
        assert_eq!(tr.try_power_at(Seconds(10.0)).unwrap(), Watts(0.5));
    }

    #[test]
    fn looping_wraps_around() {
        let tr = power_trace().looping();
        assert!(
            (tr.try_power_at(Seconds(2.5)).unwrap().0 - tr.try_power_at(Seconds(0.5)).unwrap().0)
                .abs()
                < 1e-12
        );
        assert_eq!(tr.duration(), Seconds(2.0));
    }

    #[test]
    fn non_looping_boundary_holds_the_last_endpoint() {
        // t == duration() exactly is well-defined: the last sample's value.
        let tr = power_trace();
        assert_eq!(tr.try_power_at(tr.duration()), Some(Watts(0.5)));
        assert_eq!(tr.try_power_at(Seconds(0.0)), Some(Watts(0.0)));
        let v = TracePlayback::from_voltage_series(
            "v",
            vec![(Seconds(0.0), Volts(1.0)), (Seconds(2.0), Volts(4.0))],
            Ohms(100.0),
        );
        assert_eq!(v.try_voltage_at(v.duration()), Some(Volts(4.0)));
    }

    #[test]
    fn looping_boundary_wraps_exact_period_multiples_to_the_first_sample() {
        // The wrap window is half-open: t0 + k·period ≡ t0 for every k.
        let tr = power_trace().looping();
        let period = tr.duration();
        for k in 0..5u32 {
            let t = Seconds(period.0 * k as f64);
            assert_eq!(tr.try_power_at(t), Some(Watts(0.0)), "k = {k}");
        }
        let v = TracePlayback::from_voltage_series(
            "v",
            vec![(Seconds(0.0), Volts(1.0)), (Seconds(2.0), Volts(4.0))],
            Ohms(100.0),
        )
        .looping();
        assert_eq!(v.try_voltage_at(v.duration()), Some(Volts(1.0)));
    }

    #[test]
    fn looping_wrap_rounding_cannot_escape_the_sample_window() {
        // A tiny negative offset makes rem_euclid round to exactly the
        // period; before the clamp that read past the last segment's frac
        // domain. The continuous extension's limit from below is the last
        // sample's value.
        let tr = power_trace().looping();
        assert_eq!(tr.try_power_at(Seconds(-1e-18)), Some(Watts(0.5)));
        // …and a wrap on a trace that does not start at t = 0 stays inside
        // [t0, t1] too.
        let offset = TracePlayback::from_power_series(
            "offset",
            vec![(Seconds(5.0), Watts(1.0)), (Seconds(7.0), Watts(3.0))],
        )
        .looping();
        assert_eq!(offset.try_power_at(Seconds(5.0)), Some(Watts(1.0)));
        assert_eq!(offset.try_power_at(Seconds(7.0)), Some(Watts(1.0)));
        assert_eq!(offset.try_power_at(Seconds(9.0)), Some(Watts(1.0)));
        assert!((offset.try_power_at(Seconds(6.0)).unwrap().0 - 2.0).abs() < 1e-12);
        assert!((offset.try_power_at(Seconds(8.0)).unwrap().0 - 2.0).abs() < 1e-12);
        // Before t0 the wrap reaches backwards into the period.
        assert!((offset.try_power_at(Seconds(4.0)).unwrap().0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_trace_presents_thevenin() {
        let mut tr = TracePlayback::from_voltage_series(
            "v",
            vec![(Seconds(0.0), Volts(0.0)), (Seconds(1.0), Volts(4.0))],
            Ohms(100.0),
        );
        match tr.sample(Seconds(0.5)) {
            SourceSample::Thevenin { v_oc, r_s } => {
                assert!((v_oc.0 - 2.0).abs() < 1e-12);
                assert_eq!(r_s, Ohms(100.0));
            }
            other => panic!("unexpected sample {other:?}"),
        }
        assert!((tr.try_voltage_at(Seconds(0.25)).unwrap().0 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_times_rejected() {
        let _ = TracePlayback::from_power_series(
            "bad",
            vec![(Seconds(1.0), Watts(0.0)), (Seconds(0.5), Watts(1.0))],
        );
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_rejected() {
        let _ = TracePlayback::from_power_series("bad", vec![(Seconds(0.0), Watts(0.0))]);
    }

    #[test]
    fn decimation_keeps_anchors_and_widens_interpolation() {
        let dense = TracePlayback::from_power_series(
            "d",
            (0..9)
                .map(|i| (Seconds(i as f64 * 0.25), Watts((i % 3) as f64)))
                .collect(),
        );
        let coarse = dense.clone().decimated(4);
        // Kept anchors (indices 0, 4, 8) agree exactly with the original.
        for &t in &[0.0, 1.0, 2.0] {
            assert_eq!(
                coarse.try_power_at(Seconds(t)).unwrap(),
                dense.try_power_at(Seconds(t)).unwrap()
            );
        }
        assert_eq!(coarse.duration(), dense.duration(), "full span retained");
        // Between anchors the coarse trace interpolates across the gap.
        let mid = coarse.try_power_at(Seconds(0.5)).unwrap().0;
        assert!((mid - 0.5).abs() < 1e-12, "anchor 0 → anchor 4 midpoint");
        // The final sample is always kept, even off the stride.
        let coarse = dense.clone().decimated(5);
        assert_eq!(coarse.duration(), dense.duration());
        assert_eq!(
            coarse.try_power_at(dense.duration()).unwrap(),
            dense.try_power_at(dense.duration()).unwrap()
        );
    }

    #[test]
    fn decimation_by_one_is_the_identity() {
        let tr = power_trace();
        let same = tr.clone().decimated(1);
        for i in 0..20 {
            let t = Seconds(i as f64 * 0.173);
            assert_eq!(same.try_power_at(t).unwrap(), tr.try_power_at(t).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn zero_decimation_panics() {
        let _ = power_trace().decimated(0);
    }

    #[test]
    fn try_accessors_report_kind_mismatch_as_none() {
        let p = power_trace();
        assert_eq!(p.try_power_at(Seconds(0.5)), Some(Watts(0.5)));
        assert_eq!(p.try_voltage_at(Seconds(0.5)), None);
        let v = TracePlayback::from_voltage_series(
            "v",
            vec![(Seconds(0.0), Volts(0.0)), (Seconds(1.0), Volts(4.0))],
            Ohms(100.0),
        );
        assert_eq!(v.try_voltage_at(Seconds(0.5)), Some(Volts(2.0)));
        assert_eq!(v.try_power_at(Seconds(0.5)), None);
    }

    proptest! {
        #[test]
        fn prop_interpolation_bounded_by_samples(t in -5.0f64..10.0) {
            let tr = power_trace();
            let p = tr.try_power_at(Seconds(t)).unwrap().0;
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_looping_periodic(t in 0.0f64..2.0, k in 1u32..5) {
            let tr = power_trace().looping();
            let a = tr.try_power_at(Seconds(t)).unwrap().0;
            let b = tr.try_power_at(Seconds(t + 2.0 * k as f64)).unwrap().0;
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
