//! [`StatsSink`]: streaming per-run analytics over the event stream.
//!
//! The sink keeps O(1) state: event counts, three [`Histogram`]s (outage
//! duration, time between brownouts, per-snapshot energy) and an energy
//! breakdown by phase, all derived purely from the ordered record stream —
//! so two identical runs always summarise byte-identically, and per-cell
//! sinks from a sweep can be [`StatsSink::merge`]d into grid-level
//! distributions. Every floating-point accumulator is order-invariant
//! fixed-point, so the merge is exactly associative *and* commutative:
//! any grouping of the same cells produces byte-identical aggregate JSON.

use edc_units::{Joules, Seconds};

use crate::hist::{FixedSum, Histogram};
use crate::{Event, Record};

/// Event counts accumulated by a [`StatsSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Total records seen.
    pub records: u64,
    /// Cold boots.
    pub boots: u64,
    /// Rail collapses while executing.
    pub brownouts: u64,
    /// Rail collapses while asleep/hibernating.
    pub power_fails: u64,
    /// Sealed snapshots.
    pub snapshots_sealed: u64,
    /// Torn snapshots.
    pub snapshots_torn: u64,
    /// Successful restores.
    pub restores: u64,
    /// Comparator crossings, rising (`V_R` reached).
    pub crossings_rising: u64,
    /// Comparator crossings, falling (`V_H` breached).
    pub crossings_falling: u64,
    /// Workload completions.
    pub completions: u64,
}

impl EventCounts {
    /// Folds another count set into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        self.records += other.records;
        self.boots += other.boots;
        self.brownouts += other.brownouts;
        self.power_fails += other.power_fails;
        self.snapshots_sealed += other.snapshots_sealed;
        self.snapshots_torn += other.snapshots_torn;
        self.restores += other.restores;
        self.crossings_rising += other.crossings_rising;
        self.crossings_falling += other.crossings_falling;
        self.completions += other.completions;
    }
}

/// Energy consumed per phase of the intermittent lifecycle, in joules.
///
/// Attribution works on the cumulative energy stamp: the delta between
/// consecutive records is charged to the phase the machine was in when the
/// later record fired, with snapshot/restore costs peeled out explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Forward progress: execution (and sleep) while the machine is up.
    pub run_j: f64,
    /// Snapshot attempts (sealed and torn).
    pub snapshot_j: f64,
    /// Snapshot restores after outages.
    pub restore_j: f64,
    /// Static draw while the machine is down (off-state leakage).
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total attributed energy.
    pub fn total_j(&self) -> f64 {
        self.run_j + self.snapshot_j + self.restore_j + self.idle_j
    }
}

/// Internal order-invariant accumulator behind [`EnergyBreakdown`]: the
/// four phase sums in fixed-point, so merging sinks in any grouping order
/// reproduces the bit-identical breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BreakdownAcc {
    run: FixedSum,
    snapshot: FixedSum,
    restore: FixedSum,
    idle: FixedSum,
}

impl BreakdownAcc {
    fn merge(&mut self, other: &BreakdownAcc) {
        self.run.merge(&other.run);
        self.snapshot.merge(&other.snapshot);
        self.restore.merge(&other.restore);
        self.idle.merge(&other.idle);
    }

    fn view(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            run_j: self.run.value(),
            snapshot_j: self.snapshot.value(),
            restore_j: self.restore.value(),
            idle_j: self.idle.value(),
        }
    }
}

/// Streaming analytics sink: histograms and counters, O(1) memory.
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    counts: EventCounts,
    outage_s: Histogram,
    between_brownouts_s: Histogram,
    snapshot_j: Histogram,
    breakdown: BreakdownAcc,
    // --- streaming state ---
    last_energy: Joules,
    /// Set while the machine is down: the collapse timestamp.
    down_since: Option<Seconds>,
    /// Timestamp of the previous brownout/power-fail.
    last_power_loss: Option<Seconds>,
    /// `true` between a `Boot` and the next collapse.
    up: bool,
    /// Timestamp of `TaskComplete`, if seen.
    completed_at: Option<Seconds>,
}

impl StatsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated event counts.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Outage durations (collapse → next boot), seconds.
    pub fn outage_s(&self) -> &Histogram {
        &self.outage_s
    }

    /// Intervals between consecutive power losses, seconds.
    pub fn between_brownouts_s(&self) -> &Histogram {
        &self.between_brownouts_s
    }

    /// Energy cost of each snapshot attempt, joules.
    pub fn snapshot_j(&self) -> &Histogram {
        &self.snapshot_j
    }

    /// Energy attribution by lifecycle phase. Accumulated in
    /// order-invariant fixed-point arithmetic, so merged sinks report the
    /// bit-identical breakdown regardless of merge grouping.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.breakdown.view()
    }

    /// When the workload completed, if it did.
    pub fn completed_at(&self) -> Option<Seconds> {
        self.completed_at
    }

    /// Folds another sink's *aggregates* into this one (streaming state is
    /// not carried over — merge only finished runs, e.g. sweep cells).
    /// `completed_at` becomes the earliest completion among the merged
    /// runs, so a merged summary with completions never reports `None`.
    pub fn merge(&mut self, other: &StatsSink) {
        self.counts.merge(&other.counts);
        self.outage_s.merge(&other.outage_s);
        self.between_brownouts_s.merge(&other.between_brownouts_s);
        self.snapshot_j.merge(&other.snapshot_j);
        self.breakdown.merge(&other.breakdown);
        self.completed_at = match (self.completed_at, other.completed_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Consumes one record.
    pub fn record(&mut self, rec: Record) {
        self.counts.records += 1;
        // Charge the cumulative-energy delta to the phase in force *before*
        // this event's transition takes effect.
        let delta = (rec.energy - self.last_energy).0.max(0.0);
        self.last_energy = rec.energy;
        match rec.event {
            Event::Snapshot { sealed, cost } => {
                if sealed {
                    self.counts.snapshots_sealed += 1;
                } else {
                    self.counts.snapshots_torn += 1;
                }
                self.snapshot_j.add(cost.0);
                self.breakdown.snapshot.add(cost.0);
                self.breakdown.run.add((delta - cost.0).max(0.0));
            }
            Event::Restore => {
                self.counts.restores += 1;
                self.breakdown.restore.add(delta);
            }
            Event::Boot => {
                self.counts.boots += 1;
                self.breakdown.idle.add(delta);
                if let Some(t0) = self.down_since.take() {
                    self.outage_s.add((rec.t - t0).0);
                }
                self.up = true;
            }
            Event::Brownout | Event::PowerFail => {
                if rec.event == Event::Brownout {
                    self.counts.brownouts += 1;
                } else {
                    self.counts.power_fails += 1;
                }
                self.breakdown.run.add(delta);
                if let Some(tb) = self.last_power_loss {
                    self.between_brownouts_s.add((rec.t - tb).0);
                }
                self.last_power_loss = Some(rec.t);
                self.down_since = Some(rec.t);
                self.up = false;
            }
            Event::SupplyCrossing { rising } => {
                if rising {
                    self.counts.crossings_rising += 1;
                } else {
                    self.counts.crossings_falling += 1;
                }
                if self.up {
                    self.breakdown.run.add(delta);
                } else {
                    self.breakdown.idle.add(delta);
                }
            }
            Event::TaskComplete => {
                self.breakdown.run.add(delta);
                self.counts.completions += 1;
                if self.completed_at.is_none() {
                    self.completed_at = Some(rec.t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, e: f64, event: Event) -> Record {
        Record {
            t: Seconds(t),
            energy: Joules(e),
            event,
        }
    }

    fn scripted() -> Vec<Record> {
        vec![
            rec(0.00, 0.0, Event::SupplyCrossing { rising: true }),
            rec(0.00, 0.0, Event::Boot),
            rec(0.10, 1e-4, Event::SupplyCrossing { rising: false }),
            rec(
                0.10,
                1.2e-4,
                Event::Snapshot {
                    sealed: true,
                    cost: Joules(2e-5),
                },
            ),
            rec(0.11, 1.3e-4, Event::PowerFail),
            rec(0.21, 1.35e-4, Event::Boot),
            rec(0.21, 1.45e-4, Event::Restore),
            rec(0.30, 2.0e-4, Event::Brownout),
            rec(0.50, 2.0e-4, Event::Boot),
            rec(0.55, 2.5e-4, Event::TaskComplete),
        ]
    }

    #[test]
    fn lifecycle_is_accounted() {
        let mut s = StatsSink::new();
        for r in scripted() {
            s.record(r);
        }
        let c = s.counts();
        assert_eq!(c.records, 10);
        assert_eq!(c.boots, 3);
        assert_eq!(c.power_fails, 1);
        assert_eq!(c.brownouts, 1);
        assert_eq!(c.snapshots_sealed, 1);
        assert_eq!(c.restores, 1);
        assert_eq!(c.completions, 1);
        // Two outages: 0.11→0.21 and 0.30→0.50.
        assert_eq!(s.outage_s().summary().count, 2);
        assert!((s.outage_s().min().unwrap() - 0.10).abs() < 1e-12);
        assert!((s.outage_s().max().unwrap() - 0.20).abs() < 1e-12);
        // One interval between the two power losses: 0.30 − 0.11.
        assert_eq!(s.between_brownouts_s().summary().count, 1);
        assert!((s.between_brownouts_s().mean().unwrap() - 0.19).abs() < 1e-12);
        assert_eq!(s.completed_at(), Some(Seconds(0.55)));
        // Energy attribution covers the whole cumulative stamp.
        let b = s.energy_breakdown();
        assert!((b.total_j() - 2.5e-4).abs() < 1e-12);
        assert!((b.snapshot_j - 2e-5).abs() < 1e-15);
        assert!((b.restore_j - 1e-5).abs() < 1e-15);
        assert!(b.run_j > b.idle_j);
    }

    #[test]
    fn merge_matches_concatenation() {
        let mut merged = StatsSink::new();
        let mut cell = StatsSink::new();
        for r in scripted() {
            cell.record(r);
        }
        merged.merge(&cell);
        merged.merge(&cell);
        assert_eq!(merged.counts().boots, 2 * cell.counts().boots);
        assert_eq!(
            merged.outage_s().summary().count,
            2 * cell.outage_s().summary().count
        );
        assert_eq!(
            merged.completed_at(),
            cell.completed_at(),
            "merge keeps the earliest completion"
        );
        assert!(
            (merged.energy_breakdown().total_j() - 2.0 * cell.energy_breakdown().total_j()).abs()
                < 1e-12
        );
    }
}
