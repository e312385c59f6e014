//! `edc-telemetry`: a typed, allocation-light event stream for every
//! transient run and sweep.
//!
//! The paper's claims are about *when* and *why* intermittently-powered
//! systems lose forward progress — brownouts, torn snapshots, restore
//! storms. Aggregate counters (`RunnerStats`) flatten that story; this
//! crate carries it as a stream of timestamped, energy-stamped [`Record`]s
//! emitted by the transient runner at exactly the points where it already
//! mutates its stats.
//!
//! Four sinks ship with the crate:
//!
//! - [`NullSink`] — the default. When no sink is installed the runner's
//!   emission point is a single `Option` branch and `NullSink::record`
//!   itself is a statically-inlined no-op, so default runs pay nothing.
//! - [`RingBuffer`] — a bounded ring of the most recent records, for tests
//!   and debugging (assert the exact event sequence of a scripted run).
//! - [`StatsSink`] — O(1) streaming analytics: event counts, deterministic
//!   histograms of outage duration / time-between-brownouts / snapshot
//!   energy, and an energy breakdown by lifecycle phase. Mergeable, so a
//!   sweep can fold per-cell sinks into grid-level distributions.
//! - [`TimelineSink`] — full-fidelity retention of every record, phase
//!   change and gauge sample in emission order, so a run can be replayed
//!   on a time axis (the Fig. 7 event table, Perfetto export in `edc-obs`).
//!
//! Everything is deterministic: identical runs produce identical streams
//! and byte-identical summaries (see `hist` for how quantiles stay pure).
//!
//! # Examples
//!
//! ```
//! use edc_telemetry::{Event, Record, RingBuffer, Sink};
//! use edc_units::{Joules, Seconds};
//!
//! let mut ring = RingBuffer::with_capacity(8);
//! ring.record(Record {
//!     t: Seconds(0.25),
//!     energy: Joules(1e-6),
//!     event: Event::Boot,
//! });
//! assert_eq!(ring.records()[0].event, Event::Boot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
mod stats;
mod timeline;

pub use hist::{Histogram, Summary};
pub use stats::{EnergyBreakdown, EventCounts, StatsSink};
pub use timeline::{GaugeSample, PhaseChange, TimelineSink};

use std::fmt;

use edc_units::{Joules, Seconds, Watts};

/// One event in the intermittent-computing lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The machine cold-booted (rail reached `V_R` from below).
    Boot,
    /// The rail collapsed below `V_min` while the machine was executing.
    Brownout,
    /// The rail collapsed below `V_min` while the machine was asleep
    /// (e.g. hibernating after a snapshot).
    PowerFail,
    /// A snapshot attempt and its outcome.
    Snapshot {
        /// `true` when the copy sealed; `false` when the supply died
        /// mid-copy and the frame tore.
        sealed: bool,
        /// Energy the attempt drew from the rail.
        cost: Joules,
    },
    /// A sealed snapshot was restored after an outage.
    Restore,
    /// The voltage comparator fired.
    SupplyCrossing {
        /// `true` for a rising crossing (`V_R`/`V_H` reached from below),
        /// `false` for a falling one (`V_H` breached from above).
        rising: bool,
    },
    /// The workload completed.
    TaskComplete,
}

impl Event {
    /// Stable machine-readable name (used by JSON emitters).
    pub fn name(self) -> &'static str {
        match self {
            Event::Boot => "boot",
            Event::Brownout => "brownout",
            Event::PowerFail => "power-fail",
            Event::Snapshot { sealed: true, .. } => "snapshot-sealed",
            Event::Snapshot { sealed: false, .. } => "snapshot-torn",
            Event::Restore => "restore",
            Event::SupplyCrossing { rising: true } => "supply-rising",
            Event::SupplyCrossing { rising: false } => "supply-falling",
            Event::TaskComplete => "task-complete",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coarse lifecycle state a node is in between [`Event`]s.
///
/// Phases partition a run's time axis: the runner is always in exactly one
/// phase, and transitions coincide with lifecycle events (boot → `Active`,
/// brownout/power-fail → `Off`, hibernate/completion → `Sleep`). Timeline
/// sinks turn consecutive phase changes into duration spans.
///
/// # Examples
///
/// ```
/// use edc_telemetry::Phase;
///
/// assert_eq!(Phase::Active.name(), "active");
/// assert_eq!(Phase::Off.to_string(), "off");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The rail is below `V_min`; the machine is dead.
    Off,
    /// The machine is powered but parked (hibernating after a snapshot, or
    /// idle after completing its task).
    Sleep,
    /// The machine is executing its workload.
    Active,
}

impl Phase {
    /// Stable machine-readable name (used by JSON emitters).
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(edc_telemetry::Phase::Sleep.name(), "sleep");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            Phase::Off => "off",
            Phase::Sleep => "sleep",
            Phase::Active => "active",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One emitted event, timestamped in simulation seconds and energy-stamped
/// with the cumulative energy the system had consumed at emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Simulation time of the event.
    pub t: Seconds,
    /// Cumulative energy consumed by the system when the event fired
    /// (monotone — deltas between records attribute energy to phases).
    pub energy: Joules,
    /// What happened.
    pub event: Event,
}

/// A consumer of the event stream.
///
/// Implementations must be deterministic: the summary they expose may
/// depend only on the sequence of records received.
pub trait Sink {
    /// Consumes one record.
    fn record(&mut self, rec: Record);

    /// Consumes a lifecycle-phase transition. The default is a no-op so
    /// existing sinks (and the pinned `Record` streams they observe) are
    /// unaffected; timeline sinks override it to build duration spans.
    fn phase(&mut self, t: Seconds, phase: Phase) {
        let _ = (t, phase);
    }

    /// Consumes a gauge sample: the energy stored in the node's reservoir
    /// and the instantaneous supply power, both at time `t`. Emitted at
    /// lifecycle events and phase transitions (not every tick), so the
    /// stream stays bounded by the event count. No-op by default.
    fn gauge(&mut self, t: Seconds, stored: Joules, supply: Watts) {
        let _ = (t, stored, supply);
    }

    /// Downcast hook used by report emitters to recover a concrete sink
    /// after a run. Sinks that carry no readable state (e.g. [`NullSink`],
    /// borrowed adapters) return `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Forwarding impl so tests can lend a sink to a runner and keep the
/// original binding for inspection afterwards. `as_any` deliberately stays
/// `None`: the lender already owns the sink, so report emitters must not
/// duplicate its contents.
impl<S: Sink + ?Sized> Sink for &mut S {
    fn record(&mut self, rec: Record) {
        (**self).record(rec);
    }

    fn phase(&mut self, t: Seconds, phase: Phase) {
        (**self).phase(t, phase);
    }

    fn gauge(&mut self, t: Seconds, stored: Joules, supply: Watts) {
        (**self).gauge(t, stored, supply);
    }
}

impl<S: Sink + ?Sized> Sink for Box<S> {
    fn record(&mut self, rec: Record) {
        (**self).record(rec);
    }

    fn phase(&mut self, t: Seconds, phase: Phase) {
        (**self).phase(t, phase);
    }

    fn gauge(&mut self, t: Seconds, stored: Joules, supply: Watts) {
        (**self).gauge(t, stored, supply);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// The default sink: discards everything.
///
/// `record` is a statically-inlined empty body, so even when a `NullSink`
/// is explicitly installed the per-event cost is one virtual call to a
/// no-op; when no sink is installed at all (the default), emission is a
/// single `Option::None` branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn record(&mut self, _rec: Record) {}
}

/// A bounded ring of the most recent records.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    capacity: usize,
    buf: Vec<Record>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBuffer {
    /// A ring keeping the last `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be ≥ 1");
        Self {
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Retained events, oldest first (drops the stamps — handy for
    /// sequence assertions).
    pub fn events(&self) -> Vec<Event> {
        self.records().iter().map(|r| r.event).collect()
    }
}

impl Sink for RingBuffer {
    fn record(&mut self, rec: Record) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Declarative sink selection — the `telemetry` knob on `ExperimentSpec`.
///
/// Plain `Copy` data like the other kind registries, so sweeps can carry it
/// per grid cell and serialise it losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryKind {
    /// No sink installed: statically zero overhead (the default).
    #[default]
    Null,
    /// A [`RingBuffer`] of the given capacity.
    Ring {
        /// Maximum retained records.
        capacity: usize,
    },
    /// A [`StatsSink`].
    Stats,
    /// A [`TimelineSink`]: the complete record/phase/gauge streams,
    /// exportable as a Perfetto timeline.
    Timeline,
}

impl TelemetryKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryKind::Null => "null",
            TelemetryKind::Ring { .. } => "ring",
            TelemetryKind::Stats => "stats",
            TelemetryKind::Timeline => "timeline",
        }
    }

    /// Checks the kind's parameters, so fallible assembly layers can
    /// reject a bad kind instead of hitting a constructor assert.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            TelemetryKind::Ring { capacity: 0 } => Err("ring capacity must be ≥ 1"),
            _ => Ok(()),
        }
    }

    /// Instantiates the sink; `None` for [`TelemetryKind::Null`], which
    /// installs nothing at all.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate the constructor domain; call
    /// [`TelemetryKind::validate`] first to get the violation as a value.
    pub fn make(self) -> Option<Box<dyn Sink>> {
        match self {
            TelemetryKind::Null => None,
            TelemetryKind::Ring { capacity } => Some(Box::new(RingBuffer::with_capacity(capacity))),
            TelemetryKind::Stats => Some(Box::new(StatsSink::new())),
            TelemetryKind::Timeline => Some(Box::new(TimelineSink::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, event: Event) -> Record {
        Record {
            t: Seconds(t),
            energy: Joules(t * 1e-3),
            event,
        }
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(Event::Boot.name(), "boot");
        assert_eq!(
            Event::Snapshot {
                sealed: false,
                cost: Joules::ZERO
            }
            .name(),
            "snapshot-torn"
        );
        assert_eq!(
            Event::SupplyCrossing { rising: true }.to_string(),
            "supply-rising"
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_records() {
        let mut ring = RingBuffer::with_capacity(3);
        for i in 0..5 {
            ring.record(rec(i as f64, Event::Boot));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ts: Vec<f64> = ring.records().iter().map(|r| r.t.0).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0], "oldest first");
    }

    #[test]
    fn null_sink_discards() {
        let mut s = NullSink;
        s.record(rec(0.0, Event::Brownout));
        assert!(s.as_any().is_none());
    }

    #[test]
    fn borrowed_sink_forwards_records_but_not_downcasts() {
        let mut ring = RingBuffer::with_capacity(2);
        {
            let mut lent: Box<dyn Sink + '_> = Box::new(&mut ring);
            lent.record(rec(1.0, Event::TaskComplete));
            assert!(
                lent.as_any().is_none(),
                "borrowed adapters are opaque to report emitters"
            );
        }
        assert_eq!(ring.events(), vec![Event::TaskComplete]);
    }

    #[test]
    fn kind_registry_validates_and_makes() {
        assert!(TelemetryKind::Null.make().is_none());
        assert!(TelemetryKind::Stats.make().is_some());
        assert!(TelemetryKind::Ring { capacity: 4 }.make().is_some());
        assert!(TelemetryKind::Ring { capacity: 0 }.validate().is_err());
        assert_eq!(TelemetryKind::default(), TelemetryKind::Null);
        assert_eq!(TelemetryKind::Stats.name(), "stats");
        assert_eq!(TelemetryKind::Timeline.name(), "timeline");
        assert!(TelemetryKind::Timeline.validate().is_ok());
        assert!(TelemetryKind::Timeline.make().is_some());
    }
}
