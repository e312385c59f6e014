//! System assembly: wiring an energy source, a power-subsystem topology,
//! a workload, and a checkpoint strategy into a runnable whole.
//!
//! Two topologies mirror the paper's block diagrams:
//!
//! - [`Topology::Direct`] — Fig. 4: harvester → (optional rectifier) →
//!   supply node → harvesting-aware load. Only decoupling-scale capacitance.
//! - [`Topology::Buffered`] — Fig. 3: the same chain but with explicit
//!   added storage and a conversion stage whose efficiency taxes every
//!   joule on the way in.
//!
//! Assembly itself lives in [`crate::experiment`]: declarative
//! [`ExperimentSpec`](crate::experiment::ExperimentSpec)s built from the
//! kind registries, and the fallible
//! [`Experiment`](crate::experiment::Experiment) builder for custom
//! components.

use edc_transient::{RunOutcome, RunnerStats};
use edc_units::Farads;
use edc_workloads::VerifyError;

use crate::json::Json;
use crate::telemetry::TelemetryReport;

/// Energy-subsystem topology (Fig. 3 vs. Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Fig. 4: direct, energy-driven. The node capacitance is the system's
    /// decoupling capacitance only.
    Direct,
    /// Fig. 3: buffered, energy-neutral style. Adds explicit storage and an
    /// input conversion stage with the given efficiency in `(0, 1]`.
    Buffered {
        /// Added storage capacitance.
        storage: Farads,
        /// Input converter efficiency.
        efficiency: f64,
    },
}

/// A complete report of one system run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Runner statistics.
    pub stats: RunnerStats,
    /// Golden-model verification of the workload's persisted results.
    pub verification: Result<(), VerifyError>,
    /// The strategy's display name.
    pub strategy: String,
    /// The workload's display name.
    pub workload: String,
    /// What the run's telemetry sink captured, when one was installed and
    /// readable (`None` for the default [`TelemetryKind::Null`](
    /// edc_telemetry::TelemetryKind::Null)).
    pub telemetry: Option<TelemetryReport>,
}

impl SystemReport {
    /// `true` when the workload completed *and* verified.
    pub fn succeeded(&self) -> bool {
        self.outcome == RunOutcome::Completed && self.verification.is_ok()
    }

    /// The report as a JSON value with deterministic field order.
    pub fn to_json(&self) -> Json {
        let outcome = match self.outcome {
            RunOutcome::Completed => "completed",
            RunOutcome::DeadlineExpired => "deadline-expired",
            RunOutcome::Faulted => "faulted",
        };
        let mut pairs = vec![
            ("strategy", Json::Str(self.strategy.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("outcome", Json::Str(outcome.into())),
            ("verified", Json::Bool(self.verification.is_ok())),
            (
                "verify_error",
                Json::option(self.verification.as_ref().err(), |e| {
                    Json::Str(e.to_string())
                }),
            ),
            (
                "stats",
                Json::obj(vec![
                    ("snapshots", Json::Uint(self.stats.snapshots)),
                    ("torn_snapshots", Json::Uint(self.stats.torn_snapshots)),
                    ("restores", Json::Uint(self.stats.restores)),
                    ("brownouts", Json::Uint(self.stats.brownouts)),
                    ("boots", Json::Uint(self.stats.boots)),
                    ("active_s", Json::Num(self.stats.active_time.0)),
                    ("sleep_s", Json::Num(self.stats.sleep_time.0)),
                    ("off_s", Json::Num(self.stats.off_time.0)),
                    ("cycles", Json::Uint(self.stats.cycles)),
                    (
                        "completed_at_s",
                        Json::option(self.stats.completed_at, |t| Json::Num(t.0)),
                    ),
                    ("energy_j", Json::Num(self.stats.energy_consumed.0)),
                    ("ticks", Json::Uint(self.stats.ticks)),
                    ("instructions", Json::Uint(self.stats.instructions)),
                    (
                        "carry_activations",
                        Json::Uint(self.stats.carry_activations),
                    ),
                ]),
            ),
        ];
        // Appended only when a sink captured something, so default runs
        // serialise byte-identically to the pre-telemetry format.
        if let Some(telemetry) = &self.telemetry {
            pairs.push(("telemetry", telemetry.to_json()));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentSpec};
    use crate::scenarios::{SourceKind, StrategyKind};
    use edc_harvest::{SignalGenerator, Waveform};
    use edc_power::{Rectifier, RectifierKind};
    use edc_transient::Hibernus;
    use edc_units::{Hertz, Ohms, Seconds, Volts};
    use edc_workloads::{Crc16, WorkloadKind};

    #[test]
    fn direct_topology_hibernus_on_rectified_sine() {
        // Fourier-64 needs ~25 ms of execution; at 20 Hz the usable on-window
        // per cycle is shorter, so completion must span supply dips.
        let report = Experiment::new()
            .source(
                SignalGenerator::new(Waveform::Sine, Volts(4.0), Hertz(20.0))
                    .with_resistance(Ohms(100.0)),
            )
            .rectifier(Rectifier::ideal(RectifierKind::HalfWave))
            .strategy(Box::new(Hibernus::new()))
            .workload(Box::new(edc_workloads::Fourier::new(64)))
            .run(Seconds(5.0))
            .expect("assembles");
        assert!(report.succeeded(), "outcome {:?}", report.outcome);
        assert!(
            report.stats.snapshots >= 1,
            "sine dips must force snapshots"
        );
        assert_eq!(report.strategy, "hibernus", "report carries the real name");
    }

    #[test]
    fn buffered_topology_rides_through_dips() {
        // With a 1 mF buffer the same supply never browns the system out.
        let report = Experiment::new()
            .source(
                SignalGenerator::new(Waveform::Sine, Volts(4.0), Hertz(5.0))
                    .with_resistance(Ohms(100.0)),
            )
            .rectifier(Rectifier::ideal(RectifierKind::HalfWave))
            .topology(Topology::Buffered {
                storage: Farads::from_milli(1.0),
                efficiency: 0.9,
            })
            .strategy(Box::new(Hibernus::new()))
            .workload(Box::new(Crc16::new(64)))
            .run(Seconds(10.0))
            .expect("assembles");
        assert!(report.succeeded());
        assert_eq!(report.stats.brownouts, 0);
        assert_eq!(report.stats.snapshots, 0, "buffer absorbs the dips");
    }

    #[test]
    fn restart_on_steady_supply_also_succeeds() {
        let report = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(1000),
        )
        .deadline(Seconds(1.0))
        .run()
        .expect("assembles");
        assert!(report.succeeded());
    }

    #[test]
    fn report_json_is_deterministic() {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(64),
        )
        .deadline(Seconds(2.0));
        let a = spec.run().unwrap().to_json().to_string();
        let b = spec.run().unwrap().to_json().to_string();
        assert_eq!(a, b, "identical runs serialise byte-identically");
        assert!(a.contains("\"strategy\":\"hibernus\""));
        assert!(a.contains("\"workload\":\"crc16\""));
    }
}
