//! Objectives: scalar figures of merit extracted from a candidate's run.
//!
//! Every objective maps a candidate — its [`ExperimentSpec`] and the
//! [`SystemReport`] of its run — to a score where **lower is better**;
//! searchers minimise. Multi-objective searches pass several objectives
//! and get a Pareto front back instead of a single winner.
//!
//! Most objectives read only the report; the spec parameter exists for
//! adapters whose figure of merit is a function of the *design* rather
//! than the single run — the fleet objectives in [`crate::fleet`] deploy
//! the candidate design as a whole population and score the fleet.
//!
//! Scores must be deterministic functions of their inputs. Infeasible
//! designs score `f64::INFINITY` (e.g. completion time of a run that never
//! completed), which dominance handles naturally: an infeasible design can
//! never dominate a feasible one on that objective.

use edc_bound::{Bounder, ScoreBracket};
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::SystemReport;
use edc_core::Telemetry;

/// Reads a JSON number (the parser yields `Uint` for whole numbers).
fn json_num(value: &Json) -> Option<f64> {
    match value {
        Json::Num(x) => Some(*x),
        Json::Uint(n) => Some(*n as f64),
        _ => None,
    }
}

/// A scalar figure of merit over a candidate; lower is better.
pub trait Objective {
    /// Stable machine-readable name (used in report JSON).
    fn name(&self) -> &'static str;

    /// Scores the candidate: its (canonicalised) spec and the report of
    /// its run. Must be deterministic; return `f64::INFINITY` (never
    /// `NaN`) for infeasible designs.
    fn score(&self, spec: &ExperimentSpec, report: &SystemReport) -> f64;

    /// `true` when the objective reads [`Telemetry::Stats`] and the
    /// evaluator must therefore force stats telemetry onto every candidate
    /// spec.
    fn requires_stats(&self) -> bool {
        false
    }

    /// The score this objective provably assigns to a candidate that can
    /// never complete its workload — a statically-known DNF. `Some(score)`
    /// lets the evaluator's lint prefilter score `E`-flagged candidates
    /// without simulating them; `None` (the default) means the objective's
    /// value on a DNF depends on how the run fails (brownout counts,
    /// outage percentiles), so flagged candidates must still be simulated
    /// whenever this objective is in play.
    fn dnf_score(&self) -> Option<f64> {
        None
    }

    /// A sound static bracket `[lo, hi]` on this objective's score for
    /// `spec`, derived without simulating: the simulated score provably
    /// lands inside it. `None` (the default) means the objective has no
    /// static theory — the evaluator then cannot bound-prune candidates
    /// for it. Implementations delegate to the shared [`Bounder`] so one
    /// interval analysis per spec serves every objective.
    ///
    /// ```
    /// use edc_bound::Bounder;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_explore::{BrownoutCount, Objective};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// // 1.5 V can never reach a boot threshold: the brownout bracket is
    /// // exactly [0, 0] even though the objective has no DNF score.
    /// let dark = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 1.5 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::BusyLoop(100),
    /// )
    /// .deadline(Seconds(0.05));
    /// let bracket = BrownoutCount
    ///     .static_bracket(&dark, &mut Bounder::new())
    ///     .expect("valid spec");
    /// assert!(bracket.is_exact() && bracket.lo == 0.0);
    /// ```
    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        let _ = (spec, bounder);
        None
    }

    /// Scores the candidate from its **serialized** `SystemReport` JSON —
    /// the form the persistent store holds. Must return exactly the bits
    /// [`Objective::score`] would have produced on the live report, or
    /// `None` when that is impossible (a field is missing, or the score
    /// depends on state outside the report, as for the fleet adapters):
    /// `None` sends the candidate back through the simulator, which is
    /// always sound.
    ///
    /// Built-in objectives read the same fields their `score` reads —
    /// canonical JSON emission uses shortest round-trip formatting, so
    /// the re-parsed values are bit-identical and warm-started fronts
    /// match cold ones byte-for-byte.
    ///
    /// ```
    /// use edc_core::json::Json;
    /// use edc_explore::{CompletionTime, Objective};
    ///
    /// let report = Json::parse(
    ///     r#"{"stats":{"completed_at_s":1.25,"energy_j":0.5,"brownouts":0}}"#,
    /// )
    /// .unwrap();
    /// assert_eq!(CompletionTime.score_json(&report), Some(1.25));
    /// ```
    fn score_json(&self, report: &Json) -> Option<f64> {
        let _ = report;
        None
    }

    /// The name this objective's scores are persisted under in a shared
    /// evaluation store, or `None` to never persist them. The default —
    /// the objective's [`Objective::name`] — is correct whenever the
    /// score is a pure function of (spec, report). Objectives whose
    /// score depends on configuration *outside* the spec must qualify
    /// the key with that configuration (the fleet adapters append their
    /// template's fingerprint), so two differently-configured searches
    /// sharing one store can never alias each other's scores.
    fn store_key(&self) -> Option<String> {
        Some(self.name().to_string())
    }

    /// How many full-fidelity-equivalent simulations scoring one *cache
    /// miss* really costs. `1.0` (the default) means the objective only
    /// reads the shared single-node report; objectives that launch extra
    /// simulations per candidate — the fleet adapters deploy it as a whole
    /// `n`-node population — return that true cost so budgeted searches
    /// charge what they actually spend. The evaluator bills each miss at
    /// the *maximum* multiplier across its objectives (the dominant cost;
    /// cloned-template fleet objectives share one fleet run, so their
    /// costs overlap rather than add).
    fn cost_multiplier(&self) -> f64 {
        1.0
    }
}

/// Looks up one of the four single-node objectives by its
/// [`Objective::name`] — the registry behind wire protocols (the
/// `edc_serve` `--objectives` flag and `search` op) that name objectives
/// as strings. Fleet objectives are not constructible here: they need a
/// [`FleetTemplate`](crate::FleetTemplate) no name can carry.
///
/// ```
/// use edc_explore::objective_by_name;
///
/// assert_eq!(objective_by_name("completion_s").unwrap().name(), "completion_s");
/// assert!(objective_by_name("fleet_nodes_to_cover").is_none());
/// ```
pub fn objective_by_name(name: &str) -> Option<Box<dyn Objective>> {
    match name {
        "completion_s" => Some(Box::new(CompletionTime)),
        "brownouts" => Some(Box::new(BrownoutCount)),
        "p99_outage_s" => Some(Box::new(P99Outage)),
        "energy_per_task_j" => Some(Box::new(EnergyPerTask)),
        _ => None,
    }
}

/// Workload completion time in seconds; `INFINITY` when the run did not
/// complete (deadline expired or faulted).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionTime;

impl Objective for CompletionTime {
    fn name(&self) -> &'static str {
        "completion_s"
    }

    fn score(&self, _spec: &ExperimentSpec, report: &SystemReport) -> f64 {
        report
            .stats
            .completed_at
            .map(|t| t.0)
            .unwrap_or(f64::INFINITY)
    }

    fn dnf_score(&self) -> Option<f64> {
        Some(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        Some(bounder.bound_spec(spec)?.completion_s)
    }

    fn score_json(&self, report: &Json) -> Option<f64> {
        match report.get("stats")?.get("completed_at_s")? {
            Json::Null => Some(f64::INFINITY),
            value => json_num(value),
        }
    }
}

/// Number of brownouts (Eq. 2 violations while executing) over the run.
///
/// There is no constant DNF score: a design that never completes may
/// brown out never (it never boots) or hundreds of times (it boots and
/// dies repeatedly), so [`Objective::dnf_score`] stays `None`. The static
/// theory lives in [`Objective::static_bracket`] instead: the shared
/// engine's brownout bracket is *exact* (`[0, 0]`) when the supply
/// provably never boots the MCU, which lets the evaluator prune
/// statically-dead candidates even with this objective in play.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrownoutCount;

impl Objective for BrownoutCount {
    fn name(&self) -> &'static str {
        "brownouts"
    }

    fn score(&self, _spec: &ExperimentSpec, report: &SystemReport) -> f64 {
        report.stats.brownouts as f64
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        Some(bounder.bound_spec(spec)?.brownouts)
    }

    fn score_json(&self, report: &Json) -> Option<f64> {
        json_num(report.get("stats")?.get("brownouts")?)
    }
}

/// The p99 outage duration in seconds, from stats telemetry. Zero when the
/// run saw no outages; `INFINITY` when the report carries no stats sink
/// (the evaluator prevents that by forcing stats telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub struct P99Outage;

impl Objective for P99Outage {
    fn name(&self) -> &'static str {
        "p99_outage_s"
    }

    fn score(&self, _spec: &ExperimentSpec, report: &SystemReport) -> f64 {
        match &report.telemetry {
            Some(Telemetry::Stats(stats)) => stats.outage_s().summary().p99,
            _ => f64::INFINITY,
        }
    }

    fn requires_stats(&self) -> bool {
        true
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        Some(bounder.bound_spec(spec)?.p99_outage_s)
    }

    fn score_json(&self, report: &Json) -> Option<f64> {
        // Mirror `score` exactly: a report without a stats telemetry
        // section scores INFINITY; one with it reads the p99 outage.
        match report.get("telemetry") {
            Some(telemetry) if telemetry.get("kind") == Some(&Json::Str("stats".into())) => {
                json_num(telemetry.get("outage_s")?.get("p99")?)
            }
            _ => Some(f64::INFINITY),
        }
    }
}

/// Total energy drawn per completed task in joules; `INFINITY` when the
/// task never completed (one task per run, so this is the run's consumed
/// energy on success).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyPerTask;

impl Objective for EnergyPerTask {
    fn name(&self) -> &'static str {
        "energy_per_task_j"
    }

    fn score(&self, _spec: &ExperimentSpec, report: &SystemReport) -> f64 {
        if report.stats.completed_at.is_some() {
            report.stats.energy_consumed.0
        } else {
            f64::INFINITY
        }
    }

    fn dnf_score(&self) -> Option<f64> {
        Some(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        Some(bounder.bound_spec(spec)?.energy_per_task_j)
    }

    fn score_json(&self, report: &Json) -> Option<f64> {
        let stats = report.get("stats")?;
        match stats.get("completed_at_s")? {
            Json::Null => Some(f64::INFINITY),
            _ => json_num(stats.get("energy_j")?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_core::TelemetryKind;
    use edc_units::Seconds;
    use edc_workloads::WorkloadKind;

    fn completed(telemetry: TelemetryKind) -> (ExperimentSpec, SystemReport) {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .deadline(Seconds(1.0))
        .telemetry(telemetry);
        let report = spec.run().expect("spec runs");
        (spec, report)
    }

    #[test]
    fn completion_time_scores_finite_on_success() {
        let (spec, report) = completed(TelemetryKind::Null);
        let t = CompletionTime.score(&spec, &report);
        assert!(t.is_finite() && t > 0.0);
        assert_eq!(BrownoutCount.score(&spec, &report), 0.0);
        let e = EnergyPerTask.score(&spec, &report);
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn p99_outage_requires_stats_telemetry() {
        assert!(P99Outage.requires_stats());
        let (spec, without) = completed(TelemetryKind::Null);
        assert_eq!(P99Outage.score(&spec, &without), f64::INFINITY);
        let (spec, with) = completed(TelemetryKind::Stats);
        assert_eq!(
            P99Outage.score(&spec, &with),
            0.0,
            "DC supply has no outages"
        );
    }

    #[test]
    fn incomplete_runs_score_infinite() {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::Endless,
        )
        .deadline(Seconds(0.01));
        let report = spec.run().expect("spec runs");
        assert_eq!(CompletionTime.score(&spec, &report), f64::INFINITY);
        assert_eq!(EnergyPerTask.score(&spec, &report), f64::INFINITY);
    }

    #[test]
    fn static_brackets_contain_simulated_scores() {
        let (spec, report) = completed(TelemetryKind::Stats);
        let mut bounder = Bounder::new();
        let objectives: [&dyn Objective; 4] =
            [&CompletionTime, &BrownoutCount, &P99Outage, &EnergyPerTask];
        for o in objectives {
            let bracket = o
                .static_bracket(&spec, &mut bounder)
                .expect("valid spec has a bracket");
            assert!(
                bracket.contains(o.score(&spec, &report)),
                "{} score outside its bracket",
                o.name()
            );
        }
    }

    #[test]
    fn never_boot_pins_brownouts_and_outages_exactly() {
        // 1.5 V can never reach a boot threshold above V_min = 2 V.
        let dark = ExperimentSpec::new(
            SourceKind::Dc { volts: 1.5 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .deadline(Seconds(0.05));
        let mut bounder = Bounder::new();
        let brownouts = BrownoutCount
            .static_bracket(&dark, &mut bounder)
            .expect("valid spec");
        assert!(brownouts.is_exact() && brownouts.lo == 0.0);
        let p99 = P99Outage
            .static_bracket(&dark, &mut bounder)
            .expect("valid spec");
        assert!(p99.is_exact() && p99.lo == 0.0);
        let completion = CompletionTime
            .static_bracket(&dark, &mut bounder)
            .expect("valid spec");
        assert!(completion.is_exact() && completion.lo == f64::INFINITY);
    }

    #[test]
    fn score_json_matches_live_score_bit_exactly() {
        let objectives: [&dyn Objective; 4] =
            [&CompletionTime, &BrownoutCount, &P99Outage, &EnergyPerTask];
        // Completed run with stats, completed run without, and a DNF.
        let mut cases = vec![
            completed(TelemetryKind::Stats),
            completed(TelemetryKind::Null),
        ];
        let dnf = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::Endless,
        )
        .deadline(Seconds(0.01))
        .telemetry(TelemetryKind::Stats);
        let dnf_report = dnf.run().expect("spec runs");
        cases.push((dnf, dnf_report));
        for (spec, report) in &cases {
            // Round-trip through text, the way the store sees reports.
            let json = edc_core::json::Json::parse(&report.to_json().to_string()).expect("valid");
            for o in objectives {
                let live = o.score(spec, report);
                let stored = o.score_json(&json).expect("built-ins score from JSON");
                assert_eq!(
                    live.to_bits(),
                    stored.to_bits(),
                    "{} diverges on stored report",
                    o.name()
                );
            }
        }
    }

    #[test]
    fn score_json_refuses_unreadable_reports() {
        let report = edc_core::json::Json::parse(r#"{"outcome":"Completed"}"#).expect("valid");
        assert_eq!(CompletionTime.score_json(&report), None);
        assert_eq!(BrownoutCount.score_json(&report), None);
        assert_eq!(EnergyPerTask.score_json(&report), None);
        // No telemetry section means no stats sink: INFINITY, as `score`.
        assert_eq!(P99Outage.score_json(&report), Some(f64::INFINITY));
    }

    #[test]
    fn invalid_specs_have_no_bracket() {
        let bad = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .timestep(Seconds(0.0));
        assert!(CompletionTime
            .static_bracket(&bad, &mut Bounder::new())
            .is_none());
    }
}
