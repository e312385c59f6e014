//! [`TimelineSink`]: full-fidelity retention of a run's telemetry.
//!
//! Where [`StatsSink`](crate::StatsSink) collapses the stream into O(1)
//! aggregates, a `TimelineSink` keeps *everything* — every [`Record`],
//! every lifecycle [`Phase`] transition, and every gauge sample — in
//! emission order, so a run can be reconstructed on a time axis after the
//! fact. The `edc-obs` crate maps a retained timeline onto Perfetto/Chrome
//! trace-event JSON for interactive inspection.

use edc_units::{Joules, Seconds, Watts};

use crate::{Phase, Record};

/// One lifecycle-phase transition: from `t` onward the node is in `phase`
/// (until the next change).
///
/// # Examples
///
/// ```
/// use edc_telemetry::{Phase, PhaseChange};
/// use edc_units::Seconds;
///
/// let change = PhaseChange {
///     t: Seconds(0.25),
///     phase: Phase::Active,
/// };
/// assert_eq!(change.phase.name(), "active");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseChange {
    /// When the transition happened.
    pub t: Seconds,
    /// The phase entered.
    pub phase: Phase,
}

/// One gauge sample: the node's stored energy and supply power at time `t`.
///
/// # Examples
///
/// ```
/// use edc_telemetry::GaugeSample;
/// use edc_units::{Joules, Seconds, Watts};
///
/// let sample = GaugeSample {
///     t: Seconds(1.0),
///     stored: Joules(2e-6),
///     supply: Watts(1e-3),
/// };
/// assert!(sample.stored.0 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// When the sample was taken.
    pub t: Seconds,
    /// Energy stored in the node's reservoir (decoupling capacitor).
    pub stored: Joules,
    /// Instantaneous power the supply was delivering.
    pub supply: Watts,
}

/// A sink that retains the complete record, phase, and gauge streams of a
/// run, in emission order.
///
/// Memory grows with the event count (gauges are emitted only at lifecycle
/// events and phase transitions, never per tick), so a timeline of a
/// scripted run stays small while still being a lossless account of it.
///
/// # Examples
///
/// ```
/// use edc_telemetry::{Event, Phase, Record, TimelineSink};
/// use edc_units::{Joules, Seconds, Watts};
///
/// let mut tl = TimelineSink::new();
/// tl.phase(Seconds(0.0), Phase::Off);
/// tl.gauge(Seconds(0.1), Joules(1e-6), Watts(2e-3));
/// tl.record(Record {
///     t: Seconds(0.1),
///     energy: Joules::ZERO,
///     event: Event::Boot,
/// });
/// tl.phase(Seconds(0.1), Phase::Active);
/// assert_eq!(tl.records().len(), 1);
/// assert_eq!(tl.phases().len(), 2);
/// assert_eq!(tl.gauges()[0].supply, Watts(2e-3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimelineSink {
    records: Vec<Record>,
    phases: Vec<PhaseChange>,
    gauges: Vec<GaugeSample>,
}

impl TimelineSink {
    /// An empty timeline.
    ///
    /// # Examples
    ///
    /// ```
    /// let tl = edc_telemetry::TimelineSink::new();
    /// assert!(tl.is_empty());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing has been retained yet.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(edc_telemetry::TimelineSink::new().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.phases.is_empty() && self.gauges.is_empty()
    }

    /// Retained event records, in emission order.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_telemetry::{Event, Record, TimelineSink};
    /// use edc_units::{Joules, Seconds};
    ///
    /// let mut tl = TimelineSink::new();
    /// tl.record(Record {
    ///     t: Seconds(0.5),
    ///     energy: Joules(1e-6),
    ///     event: Event::TaskComplete,
    /// });
    /// assert_eq!(tl.records()[0].event.name(), "task-complete");
    /// ```
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Retained phase transitions, in emission order.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_telemetry::{Phase, TimelineSink};
    /// use edc_units::Seconds;
    ///
    /// let mut tl = TimelineSink::new();
    /// tl.phase(Seconds(0.0), Phase::Off);
    /// assert_eq!(tl.phases()[0].phase, Phase::Off);
    /// ```
    pub fn phases(&self) -> &[PhaseChange] {
        &self.phases
    }

    /// Retained gauge samples, in emission order.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_telemetry::TimelineSink;
    /// use edc_units::{Joules, Seconds, Watts};
    ///
    /// let mut tl = TimelineSink::new();
    /// tl.gauge(Seconds(0.0), Joules::ZERO, Watts(1e-3));
    /// assert_eq!(tl.gauges().len(), 1);
    /// ```
    pub fn gauges(&self) -> &[GaugeSample] {
        &self.gauges
    }

    /// Retains one record.
    pub fn record(&mut self, rec: Record) {
        self.records.push(rec);
    }

    /// Retains a lifecycle-phase transition: from `t` onward the node is
    /// in `phase`.
    pub fn phase(&mut self, t: Seconds, phase: Phase) {
        self.phases.push(PhaseChange { t, phase });
    }

    /// Retains a gauge sample: the energy stored in the node's reservoir
    /// and the instantaneous supply power, both at time `t`.
    pub fn gauge(&mut self, t: Seconds, stored: Joules, supply: Watts) {
        self.gauges.push(GaugeSample { t, stored, supply });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn timeline_retains_all_three_streams_in_order() {
        let mut tl = TimelineSink::new();
        tl.phase(Seconds(0.0), Phase::Off);
        for i in 0..4 {
            let t = Seconds(i as f64 * 0.1);
            tl.gauge(t, Joules(i as f64 * 1e-6), Watts(1e-3));
            tl.record(Record {
                t,
                energy: Joules(i as f64 * 1e-6),
                event: Event::Boot,
            });
        }
        tl.phase(Seconds(0.4), Phase::Active);
        assert_eq!(tl.records().len(), 4);
        assert_eq!(tl.gauges().len(), 4);
        assert_eq!(
            tl.phases()
                .iter()
                .map(|p| p.phase.name())
                .collect::<Vec<_>>(),
            vec!["off", "active"]
        );
        let ts: Vec<f64> = tl.records().iter().map(|r| r.t.0).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "emission order kept");
    }
}
