//! The analyzer: every pass derives its verdict from the spec, the trace
//! catalog and the platform's closed forms — never from a transient run.
//!
//! The quantitative arithmetic behind the `E002`–`E005` codes lives in
//! [`edc_bound`] (see its module docs for the bound derivations): the
//! [`Bounder`] propagates interval closed forms through the supply, the
//! storage RC, the rail thresholds and the workload cycle demand, and
//! this linter is a thin client that formats the resulting
//! [`DynamicsFacts`](edc_bound::DynamicsFacts) into diagnostics.
//! Soundness is the contract that makes the `E` codes safe to act on (the
//! explore prefilter scores `E`-flagged specs `INFINITY` without
//! simulating): each bound is provably on the safe side of the runner's
//! arithmetic.

use std::collections::HashMap;

use edc_bound::Bounder;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{BuildError, ExperimentSpec};
use edc_core::fleet::{FleetError, FleetSpec};
use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use edc_power::sizing::try_hibernate_threshold;

// Preserved re-export paths: these constants moved to the shared engine.
pub use edc_bound::{CYCLE_FLOOR_CAP, SUPPLY_SCAN_CAP, V_MAX};

use crate::report::{Code, Diagnostic, LintReport};

/// The static analyzer. Wraps the shared interval engine ([`Bounder`]),
/// which holds the trace catalog specs resolve against and a memo of
/// workload cycle counts (the one genuinely expensive input, so a sweep
/// over 100 specs of the same workload counts cycles once).
#[derive(Debug, Default)]
pub struct Linter {
    bounder: Bounder,
}

impl Linter {
    /// A linter with an empty catalog (synthetic sources only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A linter resolving trace-backed sources through `catalog`.
    pub fn with_catalog(catalog: TraceCatalog) -> Self {
        Self {
            bounder: Bounder::with_catalog(catalog),
        }
    }

    /// The catalog specs resolve against.
    pub fn catalog(&self) -> &TraceCatalog {
        self.bounder.catalog()
    }

    /// The shared interval engine the diagnostics are derived from, for
    /// callers that want the quantitative brackets next to the boolean
    /// codes (the `edc_lint --bounds` flag, the `W105` dead-axis upgrade).
    pub fn bounder(&mut self) -> &mut Bounder {
        &mut self.bounder
    }

    /// Runs every spec pass, in fixed order: `E001` (collect-all
    /// validation, which gates the rest), `W101`–`W103`, `E005`, `E003`,
    /// then the supply scan (`E002`/`E004`). Deterministic: same spec +
    /// same catalog → byte-identical report.
    pub fn lint_spec(&mut self, spec: &ExperimentSpec) -> LintReport {
        Self::lint_spec_with(&mut self.bounder, spec)
    }

    /// [`Linter::lint_spec`] over any bounder, such as a fleet's node
    /// bounder.
    fn lint_spec_with(bounder: &mut Bounder, spec: &ExperimentSpec) -> LintReport {
        let mut report = LintReport::new();
        let violations = spec.violations_in(bounder.catalog());
        for e in &violations {
            report.push(Diagnostic::new(
                Code::E001,
                build_error_path(e),
                e.to_string(),
            ));
        }
        if !violations.is_empty() {
            // Components may not instantiate; the deeper passes assume a
            // well-formed spec.
            return report;
        }
        let facts = match bounder.facts(spec) {
            Some(facts) => facts,
            // Unreachable (violations were empty), but never panic on input.
            None => return report,
        };

        // W101: Eq. (4) floor. Only meaningful for strategies that snapshot.
        if spec.strategy != StrategyKind::Restart {
            if let Ok(None) = try_hibernate_threshold(
                facts.snapshot_energy,
                facts.capacitance,
                facts.v_min,
                V_MAX,
                0.0,
            ) {
                report.push(Diagnostic::new(
                    Code::W101,
                    "$.decoupling_f",
                    format!(
                        "{:.3} µF cannot fund a {:.2} µJ snapshot between {:.2} V and {:.2} V \
                         even with zero margin (Eq. 4); every snapshot will tear",
                        facts.capacitance.as_micro(),
                        facts.snapshot_energy.as_micro(),
                        V_MAX.0,
                        facts.v_min.0,
                    ),
                ));
            }
        }

        // W102/W103: recorded-trace coverage hazards. The bare execution
        // duration is frequency- and residence-independent cycles over the
        // boot clock.
        let bare_duration = facts.demand_cycles.map(|n| n as f64 / facts.boot_hz);
        Self::trace_hazards(bounder.catalog(), spec, bare_duration, &mut report);

        if facts.endless {
            report.push(Diagnostic::new(
                Code::E005,
                "$.workload",
                "the 'endless' workload has no completion state; no run of this spec can succeed",
            ));
            // Demand-based passes are meaningless without a finite demand.
            return report;
        }
        let demand_cycles = match facts.demand_cycles {
            Some(n) => n,
            None => return report,
        };

        // E003: deadline below the cycle lower bound.
        if facts.granted_cycles() < demand_cycles as u128 {
            report.push(Diagnostic::new(
                Code::E003,
                "$.deadline_s",
                format!(
                    "deadline {} s grants at most {} ticks × {} cycles at {:.0} MHz = {} cycles, \
                     but the workload needs {} cycles uninterrupted",
                    spec.deadline.0,
                    facts.ticks_ub,
                    facts.per_tick_ub,
                    facts.f_max / 1e6,
                    facts.granted_cycles(),
                    demand_cycles,
                ),
            ));
        }

        // E002/E004: the engine's shared supply scan over the deadline
        // window. The "never" verdicts require a full scan — an early
        // feasibility exit means both passes settled feasible.
        if let Some(supply) = &facts.supply {
            if supply.scanned_full {
                if supply.rail_ub + 1e-9 < facts.v_high.0 {
                    report.push(Diagnostic::new(
                        Code::E002,
                        "$.source",
                        format!(
                            "the supply can never raise the rail to the boot threshold: \
                             max achievable ≈ {:.3} V < V_boot {:.3} V ({}); \
                             the MCU never powers on",
                            supply.rail_ub,
                            facts.v_high.0,
                            spec.strategy.name(),
                        ),
                    ));
                } else if let Some(demand_lb) = facts.demand_lb {
                    if supply.supply_ub < demand_lb {
                        report.push(Diagnostic::new(
                            Code::E004,
                            "$.source",
                            format!(
                                "supply energy upper bound {:.3e} J over the {} s deadline \
                                 window is below the workload's demand lower bound {:.3e} J \
                                 (cheapest clock level, zero overhead)",
                                supply.supply_ub, spec.deadline.0, demand_lb,
                            ),
                        ));
                    }
                }
            }
        }
        report
    }

    /// Fleet passes: `E001` over the collect-all fleet violations, `W104`
    /// duplicate placement buckets, then every node's derived spec linted
    /// under `$.nodes[i]` (so a placement whose attenuation statically
    /// brownouts a node surfaces as that node's `E002`).
    pub fn lint_fleet(&mut self, fleet: &FleetSpec) -> LintReport {
        let mut report = LintReport::new();
        let violations = fleet.violations();
        for e in &violations {
            report.push(Diagnostic::new(
                Code::E001,
                fleet_error_path(e),
                e.to_string(),
            ));
        }
        if !violations.is_empty() {
            return report;
        }

        // W104: identical (attenuation, phase) buckets run byte-identical
        // experiments.
        let mut seen: HashMap<(u64, u64), usize> = HashMap::new();
        for i in 0..fleet.nodes {
            let key = (fleet.attenuation(i).to_bits(), fleet.phase(i).0.to_bits());
            if let Some(&first) = seen.get(&key) {
                report.push(Diagnostic::new(
                    Code::W104,
                    format!("$.nodes[{i}]"),
                    format!(
                        "node {i} duplicates node {first}'s placement bucket \
                         (attenuation {}, phase {} s); it adds wall-clock, not information",
                        fleet.attenuation(i),
                        fleet.phase(i).0,
                    ),
                ));
            } else {
                seen.insert(key, i);
            }
        }

        // Per-node lint against a catalog the field registers into. Nodes
        // sharing a bucket produce identical reports; lint each bucket
        // once.
        let expanded = self.bounder.with_fleet_nodes(fleet, |bounder, specs| {
            let mut bucket_reports: HashMap<(u64, u64), LintReport> = HashMap::new();
            for (i, spec) in specs.iter().enumerate() {
                let key = (fleet.attenuation(i).to_bits(), fleet.phase(i).0.to_bits());
                let node_report = bucket_reports
                    .entry(key)
                    .or_insert_with(|| Self::lint_spec_with(bounder, spec))
                    .clone();
                report.merge_prefixed(&format!("$.nodes[{i}]"), node_report);
            }
        });
        // `violations` was empty, so registration cannot fail; if it
        // somehow does, report it rather than panic.
        if let Err(e) = expanded {
            report.push(Diagnostic::new(
                Code::E001,
                fleet_error_path(&e),
                e.to_string(),
            ));
        }
        report
    }

    /// `W102`/`W103` for recorded traces (standalone or behind a field
    /// view).
    fn trace_hazards(
        catalog: &TraceCatalog,
        spec: &ExperimentSpec,
        bare_duration: Option<f64>,
        report: &mut LintReport,
    ) {
        let (id, decimate, looped) = match spec.source {
            SourceKind::Trace {
                id,
                decimate,
                looped,
            }
            | SourceKind::FieldView {
                field:
                    FieldEnvelope::Trace {
                        id,
                        decimate,
                        looped,
                    },
                ..
            } => (id, decimate, looped),
            _ => return,
        };
        let Some(samples) = catalog.samples(id) else {
            return; // unresolved traces were already E001
        };
        if samples.len() < 2 {
            return;
        }
        let duration = samples[samples.len() - 1].0;
        let spacing = duration / (samples.len() - 1) as f64;
        let effective = spacing * decimate as f64;
        if let Some(bare) = bare_duration {
            if decimate > 1 && effective > bare {
                report.push(Diagnostic::new(
                    Code::W102,
                    "$.source.decimate",
                    format!(
                        "decimation {decimate} stretches the sample spacing to {effective} s, \
                         longer than the workload's entire bare execution ({bare:.3e} s at boot \
                         clock); the recording's dynamics are aliased away",
                    ),
                ));
            }
        }
        if !looped && duration < spec.deadline.0 {
            let held = samples[samples.len() - 1].1;
            report.push(Diagnostic::new(
                Code::W103,
                "$.source.looped",
                format!(
                    "non-looped trace ends at {duration} s but the deadline is {} s; playback \
                     holds the final sample ({held} W) for the remaining {:.3} s",
                    spec.deadline.0,
                    spec.deadline.0 - duration,
                ),
            ));
        }
    }
}

/// JSON-path location of a spec-level violation, matching
/// [`ExperimentSpec::to_json`] key names.
fn build_error_path(e: &BuildError) -> String {
    match e {
        BuildError::InvalidSource(_) => "$.source",
        BuildError::InvalidWorkload(_) => "$.workload",
        BuildError::InvalidTimestep(_) => "$.timestep_s",
        BuildError::InvalidDecoupling(_) => "$.decoupling_f",
        BuildError::InvalidStorage(_) => "$.topology.storage_f",
        BuildError::InvalidEfficiency(_) => "$.topology.efficiency",
        BuildError::InvalidLeakage(_) => "$.leakage_ohm",
        BuildError::InvalidTrace => "$.trace",
        BuildError::InvalidTelemetry(_) => "$.telemetry",
        BuildError::InvalidDeadline(_) => "$.deadline_s",
        _ => "$",
    }
    .to_string()
}

/// JSON-path location of a fleet-level violation, matching
/// [`FleetSpec::to_json`] key names.
fn fleet_error_path(e: &FleetError) -> String {
    match e {
        FleetError::NoNodes => "$.nodes".into(),
        FleetError::InvalidStagger(_) => "$.stagger_s".into(),
        FleetError::InvalidDutyPeriod(_) => "$.duty_period_s".into(),
        FleetError::InvalidAttenuation { node, .. } => format!("$.placement[{node}]"),
        FleetError::PlacementCount { .. } => "$.placement".into(),
        FleetError::InvalidField(_) | FleetError::Trace(_) => "$.field".into(),
        FleetError::Design(inner) => {
            let inner = build_error_path(inner);
            let tail = inner.strip_prefix('$').unwrap_or(&inner);
            format!("$.design{tail}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::fleet::{FieldSpec, Placement};
    use edc_core::scenarios::FieldEnvelope;
    use edc_units::{Farads, Seconds};
    use edc_workloads::WorkloadKind;

    fn spec(source: SourceKind) -> ExperimentSpec {
        ExperimentSpec::new(source, StrategyKind::Hibernus, WorkloadKind::Crc16(64))
            .deadline(Seconds(0.5))
    }

    #[test]
    fn healthy_spec_is_clean() {
        let report = Linter::new().lint_spec(&spec(SourceKind::RectifiedSine { hz: 50.0 }));
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn e001_collects_every_violation() {
        let bad = spec(SourceKind::RectifiedSine { hz: -1.0 })
            .timestep(Seconds(0.0))
            .decoupling(Farads(f64::NAN));
        let report = Linter::new().lint_spec(&bad);
        let codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::E001, Code::E001, Code::E001]);
        let paths: Vec<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.path.as_str())
            .collect();
        assert_eq!(paths, vec!["$.source", "$.timestep_s", "$.decoupling_f"]);
    }

    #[test]
    fn e002_fires_for_sub_boot_dc() {
        // 1.5 V EMF < any boot threshold above V_min = 2.0 V.
        let report = Linter::new().lint_spec(&spec(SourceKind::Dc { volts: 1.5 }));
        assert!(report.diagnostics().iter().any(|d| d.code == Code::E002));
    }

    #[test]
    fn e003_fires_for_impossible_deadline() {
        let tight = spec(SourceKind::RectifiedSine { hz: 50.0 }).deadline(Seconds(10e-6));
        let report = Linter::new().lint_spec(&tight);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::E003));
    }

    #[test]
    fn e005_fires_for_endless() {
        let endless = spec(SourceKind::Dc { volts: 3.3 }).workload(WorkloadKind::Endless);
        let report = Linter::new().lint_spec(&endless);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::E005));
    }

    #[test]
    fn w101_fires_below_eq4_floor() {
        let starved =
            spec(SourceKind::RectifiedSine { hz: 50.0 }).decoupling(Farads::from_micro(0.1));
        let report = Linter::new().lint_spec(&starved);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::W101));
        // A hazard, not a proof of infeasibility.
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn e004_and_w103_fire_for_starved_short_trace() {
        let mut catalog = TraceCatalog::new();
        let id = catalog
            .register_uniform("dim", Seconds(1e-3), &[1e-6, 1e-6, 1e-6])
            .expect("valid trace");
        let starved = spec(SourceKind::Trace {
            id,
            decimate: 1,
            looped: false,
        });
        let report = Linter::with_catalog(catalog).lint_spec(&starved);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::E004));
        assert!(report.diagnostics().iter().any(|d| d.code == Code::W103));
    }

    #[test]
    fn w104_and_node_paths_in_fleet_lint() {
        let design = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(64),
        )
        .deadline(Seconds(0.5));
        let fleet = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            design,
            3,
        );
        let report = Linter::new().lint_fleet(&fleet);
        let w104: Vec<&Diagnostic> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::W104)
            .collect();
        assert_eq!(w104.len(), 2);
        assert_eq!(w104[0].path, "$.nodes[1]");
    }

    #[test]
    fn fleet_attenuation_brownout_is_node_e002() {
        let design = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::Crc16(64),
        )
        .deadline(Seconds(0.5));
        // The far node sees 3.3 V × 0.05 = 0.165 V — statically dark.
        let fleet = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::Dc { volts: 3.3 }),
            design,
            2,
        )
        .placement(Placement::Explicit(vec![1.0, 0.05]));
        let report = Linter::new().lint_fleet(&fleet);
        let e002: Vec<&Diagnostic> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::E002)
            .collect();
        assert_eq!(e002.len(), 1, "{}", report.render_text());
        assert_eq!(e002[0].path, "$.nodes[1].source");
    }

    #[test]
    fn one_linter_lints_fleets_over_different_recordings_like_fresh_ones() {
        // Each fleet registers its recording under the same name into its
        // own extension of the linter's catalog, so the two node catalogs
        // give different samples the same name and index.
        let field = |watts: f64| FieldSpec::PowerTrace {
            name: "site".into(),
            samples: vec![(0.0, watts), (0.01, watts)],
            looping: true,
        };
        let design = spec(SourceKind::Dc { volts: 3.3 });
        let fleets = [
            FleetSpec::new(field(5e-3), design, 2),
            FleetSpec::new(field(1e-9), design, 2),
        ];
        let fresh: Vec<LintReport> = fleets.iter().map(|f| Linter::new().lint_fleet(f)).collect();
        assert!(!fresh[0].has_errors(), "{}", fresh[0].render_text());
        assert!(fresh[1].has_errors(), "{}", fresh[1].render_text());
        let mut shared = Linter::new();
        for _ in 0..2 {
            for (fleet, want) in fleets.iter().zip(&fresh) {
                assert_eq!(&shared.lint_fleet(fleet), want);
            }
        }
    }

    #[test]
    fn fleet_collects_all_violations() {
        let design = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Hibernus,
            WorkloadKind::Crc16(0),
        );
        let fleet = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: -4.0 }),
            design,
            0,
        )
        .stagger(Seconds(-1.0));
        let report = Linter::new().lint_fleet(&fleet);
        assert!(report.error_count() >= 3, "{}", report.render_text());
        assert!(report.diagnostics().iter().all(|d| d.code == Code::E001));
    }

    #[test]
    fn brackets_are_available_next_to_diagnostics() {
        let mut linter = Linter::new();
        let s = spec(SourceKind::Dc { volts: 1.5 });
        assert!(linter.lint_spec(&s).has_errors());
        let bracket = linter.bounder().bound_spec(&s).expect("valid spec");
        assert!(bracket.proven_dnf && bracket.never_boots);
    }
}
