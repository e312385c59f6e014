//! Fleet objectives: score a candidate *design* by deploying it as a
//! whole population.
//!
//! The searchers in this crate explore per-node designs (a
//! [`SpecSpace`](crate::SpecSpace) over [`ExperimentSpec`]); a
//! [`FleetTemplate`] holds
//! everything about the deployment *except* the design — the shared
//! field, the node count, the placement, the phase stagger and the duty
//! period. Each fleet objective expands the candidate design through its
//! template into a [`FleetSpec`], runs the fleet (deterministically —
//! thread count never affects results), and scores one
//! [`FleetMetrics`] figure:
//!
//! - [`FleetNodesToCover`] — the sizing question itself: how many nodes of
//!   this design cover the duty cycle (smaller fleets are better;
//!   `INFINITY` when even the full template fleet cannot cover);
//! - [`FleetCoverageShortfall`] — `1 − coverage`, for spaces where no
//!   design fully covers;
//! - [`FleetEnergyPerTask`] — fleet energy per completed task;
//! - [`FleetBrownoutShortfall`] — `1 −` the brownout-free fraction.
//!
//! Fleet runs are memoised per design within a template (all objectives
//! sharing a *cloned* template share one cache), so pairing several fleet
//! objectives costs one fleet run per candidate. The design's single-node
//! run funded by the [`Evaluator`](crate::Evaluator) still happens and
//! stays useful: mixing fleet objectives with per-node ones (e.g.
//! [`CompletionTime`](crate::CompletionTime)) trades population questions
//! against lone-node behaviour in one Pareto front.
//!
//! The evaluator's budget is denominated in full-fidelity-equivalent
//! single-node simulations, and fleet objectives report an honest
//! [`cost_multiplier`](Objective::cost_multiplier) of their template's
//! node count — so a budgeted search over an `n`-node template charges
//! ≈ `n` units per cache miss instead of pretending a whole fleet costs
//! one run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use edc_bound::{Bounder, ScoreBracket};
use edc_core::experiment::ExperimentSpec;
use edc_core::fleet::{FieldSpec, FleetSpec, Placement};
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::SystemReport;
use edc_fleet::{Fleet, FleetMetrics};
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

use crate::objective::Objective;

/// Sound static facts about one template fleet, aggregated across the
/// per-node brackets of the shared interval engine. All fields describe
/// *every* node, so a `true` flag is a proof about the whole population.
#[derive(Debug, Clone, Copy)]
struct NodeBrackets {
    /// Every node's spec is a statically-proven DNF: no node ever
    /// completes, so coverage is exactly 0 and nothing covers the duty
    /// cycle.
    all_dnf: bool,
    /// Every node's supply provably never boots the MCU, so every node
    /// records exactly zero brownouts.
    all_never_boot: bool,
    /// Minimum over the nodes of the per-node energy-bracket lower bound
    /// (`INFINITY` when every node is a proven DNF) — a lower bound on
    /// fleet energy per completed task, since each completion costs at
    /// least its own node's demand.
    energy_lo: f64,
}

/// A fleet deployment with the per-node design left open: the adapter
/// between spec-space searchers and fleet-level questions.
///
/// Cloning is cheap and shares the template's fleet-run memo cache, so
/// several objectives built from clones of one template cost one fleet
/// run per candidate design.
#[derive(Debug, Clone)]
pub struct FleetTemplate {
    field: FieldSpec,
    nodes: usize,
    placement: Placement,
    stagger: Seconds,
    duty_period: Seconds,
    threads: Option<usize>,
    cache: Rc<RefCell<HashMap<String, Option<FleetMetrics>>>>,
    bracket_cache: Rc<RefCell<HashMap<String, Option<NodeBrackets>>>>,
}

impl FleetTemplate {
    /// A template deploying `nodes` nodes into `field` with colocated
    /// placement, no stagger, and a 1 s duty period.
    pub fn new(field: FieldSpec, nodes: usize) -> Self {
        Self {
            field,
            nodes,
            placement: Placement::Colocated,
            stagger: Seconds(0.0),
            duty_period: Seconds(1.0),
            threads: None,
            cache: Rc::new(RefCell::new(HashMap::new())),
            bracket_cache: Rc::new(RefCell::new(HashMap::new())),
        }
    }

    /// Sets the placement rule.
    pub fn placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Sets the phase-stagger step.
    pub fn stagger(mut self, s: Seconds) -> Self {
        self.stagger = s;
        self
    }

    /// Sets the sensing duty period the fleet is sized against.
    pub fn duty_period(mut self, p: Seconds) -> Self {
        self.duty_period = p;
        self
    }

    /// Caps the per-fleet worker count (defaults to the machine's
    /// parallelism). Thread count never affects results.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Nodes this template deploys — also the honest per-candidate cost
    /// its objectives report to the evaluator's budget.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The fleet this template deploys for a candidate design.
    pub fn fleet_for(&self, design: &ExperimentSpec) -> FleetSpec {
        FleetSpec::new(self.field.clone(), *design, self.nodes)
            .placement(self.placement.clone())
            .stagger(self.stagger)
            .duty_period(self.duty_period)
    }

    /// Runs (or recalls) the template's fleet for `design` and returns its
    /// metrics; `None` when the fleet cannot be assembled for this design.
    pub fn metrics_for(&self, design: &ExperimentSpec) -> Option<FleetMetrics> {
        let key = Self::memo_key(design);
        if let Some(metrics) = self.cache.borrow().get(&key) {
            return *metrics;
        }
        let mut fleet = Fleet::new(self.fleet_for(design));
        if let Some(threads) = self.threads {
            fleet = fleet.threads(threads);
        }
        let metrics = fleet.run().ok().map(|report| report.metrics);
        self.cache.borrow_mut().insert(key, metrics);
        metrics
    }

    /// A deterministic fingerprint of the template's configuration —
    /// field, node count, placement, stagger, and duty period — used to
    /// qualify its objectives' [`Objective::store_key`]s. Two templates
    /// configured identically fingerprint identically (regardless of
    /// their memo caches); any config difference changes the
    /// fingerprint, so differently-configured fleet searches sharing a
    /// persistent store can never alias each other's scores.
    pub fn fingerprint(&self) -> String {
        // The deployment part of the fleet's own JSON: the design is the
        // open part, so any design will do and its member is dropped.
        let design = ExperimentSpec::new(
            SourceKind::Dc { volts: 0.0 },
            StrategyKind::Restart,
            WorkloadKind::MatMul,
        );
        let mut config = self.fleet_for(&design).to_json();
        if let Json::Obj(members) = &mut config {
            members.retain(|(key, _)| key != "design");
        }
        edc_store::hex16(edc_store::key_hash(&config.to_string()))
    }

    /// The design's source is replaced by each node's field view, so two
    /// designs differing only there build identical fleets — normalise it
    /// out of the memo keys or a sources axis would redo the same fleet
    /// work once per source kind.
    fn memo_key(design: &ExperimentSpec) -> String {
        design
            .source(SourceKind::Dc { volts: 0.0 })
            .to_json()
            .to_string()
    }

    /// Statically bounds (or recalls) the per-node dynamics of the
    /// template's fleet for `design`; `None` when the fleet spec has
    /// violations, so no bracket is ever claimed for a fleet whose run
    /// could fail.
    fn node_brackets(
        &self,
        design: &ExperimentSpec,
        bounder: &mut Bounder,
    ) -> Option<NodeBrackets> {
        let key = Self::memo_key(design);
        if let Some(cached) = self.bracket_cache.borrow().get(&key) {
            return *cached;
        }
        let summary = self.bound_nodes(design, bounder);
        self.bracket_cache.borrow_mut().insert(key, summary);
        summary
    }

    fn bound_nodes(&self, design: &ExperimentSpec, bounder: &mut Bounder) -> Option<NodeBrackets> {
        let fleet = self.fleet_for(design);
        if !fleet.violations().is_empty() {
            return None;
        }
        bounder
            .with_fleet_nodes(&fleet, |bounder, specs| {
                let mut summary = NodeBrackets {
                    all_dnf: true,
                    all_never_boot: true,
                    energy_lo: f64::INFINITY,
                };
                for spec in specs {
                    let report = bounder.bound_spec(spec)?;
                    summary.all_dnf &= report.proven_dnf;
                    summary.all_never_boot &= report.never_boots;
                    summary.energy_lo = summary.energy_lo.min(report.energy_per_task_j.lo);
                }
                (!specs.is_empty()).then_some(summary)
            })
            .ok()
            .flatten()
    }
}

/// How many nodes of the candidate design cover the template's duty
/// cycle: the smallest covering placement prefix, or `INFINITY` when even
/// the full fleet falls short (or the fleet cannot be assembled).
#[derive(Debug, Clone)]
pub struct FleetNodesToCover(pub FleetTemplate);

impl Objective for FleetNodesToCover {
    fn name(&self) -> &'static str {
        "fleet_nodes_to_cover"
    }

    fn score(&self, spec: &ExperimentSpec, _report: &SystemReport) -> f64 {
        self.0
            .metrics_for(spec)
            .and_then(|m| m.nodes_to_cover)
            .map(|n| n as f64)
            .unwrap_or(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        let nodes = self.0.node_brackets(spec, bounder)?;
        Some(if nodes.all_dnf {
            // No node can ever complete, so no prefix reaches coverage 1.
            ScoreBracket::exact(f64::INFINITY)
        } else {
            ScoreBracket::new(1.0, f64::INFINITY)
        })
    }

    fn cost_multiplier(&self) -> f64 {
        self.0.nodes().max(1) as f64
    }

    fn store_key(&self) -> Option<String> {
        Some(format!("{}@{}", self.name(), self.0.fingerprint()))
    }
}

/// `1 − coverage` of the template fleet built from the candidate design
/// (0 when the duty cycle is fully covered; 1 when nothing completes).
#[derive(Debug, Clone)]
pub struct FleetCoverageShortfall(pub FleetTemplate);

impl Objective for FleetCoverageShortfall {
    fn name(&self) -> &'static str {
        "fleet_coverage_shortfall"
    }

    fn score(&self, spec: &ExperimentSpec, _report: &SystemReport) -> f64 {
        self.0
            .metrics_for(spec)
            .map(|m| 1.0 - m.coverage)
            .unwrap_or(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        let nodes = self.0.node_brackets(spec, bounder)?;
        Some(if nodes.all_dnf {
            // Zero completions means zero task rate, so coverage is
            // exactly 0 and the shortfall exactly 1.
            ScoreBracket::exact(1.0)
        } else {
            ScoreBracket::new(0.0, 1.0)
        })
    }

    fn cost_multiplier(&self) -> f64 {
        self.0.nodes().max(1) as f64
    }

    fn store_key(&self) -> Option<String> {
        Some(format!("{}@{}", self.name(), self.0.fingerprint()))
    }
}

/// Fleet energy per completed task, joules; `INFINITY` when no node of
/// the fleet completes.
#[derive(Debug, Clone)]
pub struct FleetEnergyPerTask(pub FleetTemplate);

impl Objective for FleetEnergyPerTask {
    fn name(&self) -> &'static str {
        "fleet_energy_per_task_j"
    }

    fn score(&self, spec: &ExperimentSpec, _report: &SystemReport) -> f64 {
        self.0
            .metrics_for(spec)
            .and_then(|m| m.energy_per_completed_task_j)
            .unwrap_or(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        // Fleet energy over completed tasks averages at least the
        // cheapest node's own demand (non-completing nodes only add to
        // the numerator); `INFINITY` on both ends when every node is a
        // proven DNF and nothing ever completes.
        let nodes = self.0.node_brackets(spec, bounder)?;
        Some(ScoreBracket::new(nodes.energy_lo, f64::INFINITY))
    }

    fn cost_multiplier(&self) -> f64 {
        self.0.nodes().max(1) as f64
    }

    fn store_key(&self) -> Option<String> {
        Some(format!("{}@{}", self.name(), self.0.fingerprint()))
    }
}

/// `1 −` the fleet's brownout-free fraction (0 when every node rides the
/// field without a single brownout).
#[derive(Debug, Clone)]
pub struct FleetBrownoutShortfall(pub FleetTemplate);

impl Objective for FleetBrownoutShortfall {
    fn name(&self) -> &'static str {
        "fleet_brownout_shortfall"
    }

    fn score(&self, spec: &ExperimentSpec, _report: &SystemReport) -> f64 {
        self.0
            .metrics_for(spec)
            .map(|m| 1.0 - m.brownout_free_fraction)
            .unwrap_or(f64::INFINITY)
    }

    fn static_bracket(&self, spec: &ExperimentSpec, bounder: &mut Bounder) -> Option<ScoreBracket> {
        let nodes = self.0.node_brackets(spec, bounder)?;
        Some(if nodes.all_never_boot {
            // A node that never boots never browns out, so every node is
            // brownout-free and the shortfall is exactly 0.
            ScoreBracket::exact(0.0)
        } else {
            ScoreBracket::new(0.0, 1.0)
        })
    }

    fn cost_multiplier(&self) -> f64 {
        self.0.nodes().max(1) as f64
    }

    fn store_key(&self) -> Option<String> {
        Some(format!("{}@{}", self.name(), self.0.fingerprint()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::scenarios::FieldEnvelope;

    fn template() -> FleetTemplate {
        FleetTemplate::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            3,
        )
        .stagger(Seconds(0.004))
        .duty_period(Seconds(1.0))
        .threads(2)
    }

    fn design() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Hibernus,
            WorkloadKind::BusyLoop(200),
        )
        .timestep(Seconds(50e-6))
        .deadline(Seconds(1.0))
    }

    #[test]
    fn fleet_objectives_score_from_the_design_not_the_report() {
        let template = template();
        let spec = design();
        let report = spec.run().expect("single-node run");
        let covered = FleetCoverageShortfall(template.clone()).score(&spec, &report);
        assert!((0.0..=1.0).contains(&covered));
        let nodes = FleetNodesToCover(template.clone()).score(&spec, &report);
        assert!(nodes == f64::INFINITY || nodes >= 1.0);
        let energy = FleetEnergyPerTask(template.clone()).score(&spec, &report);
        assert!(energy > 0.0);
        let brownouts = FleetBrownoutShortfall(template).score(&spec, &report);
        assert!((0.0..=1.0).contains(&brownouts));
    }

    #[test]
    fn cloned_templates_share_one_fleet_run_per_design() {
        let template = template();
        let a = FleetNodesToCover(template.clone());
        let b = FleetEnergyPerTask(template.clone());
        let spec = design();
        let report = spec.run().expect("single-node run");
        let _ = a.score(&spec, &report);
        assert_eq!(template.cache.borrow().len(), 1);
        let _ = b.score(&spec, &report);
        assert_eq!(
            template.cache.borrow().len(),
            1,
            "second objective hit the cache"
        );
    }

    #[test]
    fn designs_differing_only_in_source_share_one_fleet_run() {
        // The fleet replaces the design's source with per-node field
        // views, so a sources axis must not multiply fleet runs.
        let template = template();
        let objective = FleetCoverageShortfall(template.clone());
        let spec_dc = design();
        let spec_sine = design().source(SourceKind::RectifiedSine { hz: 50.0 });
        let report = spec_dc.run().expect("single-node run");
        let a = objective.score(&spec_dc, &report);
        let b = objective.score(&spec_sine, &report);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(template.cache.borrow().len(), 1, "one fleet run, not two");
    }

    #[test]
    fn fleet_brackets_contain_fleet_scores() {
        let template = template();
        let spec = design();
        let report = spec.run().expect("single-node run");
        let mut bounder = Bounder::new();
        let objectives: [&dyn Objective; 4] = [
            &FleetNodesToCover(template.clone()),
            &FleetCoverageShortfall(template.clone()),
            &FleetEnergyPerTask(template.clone()),
            &FleetBrownoutShortfall(template.clone()),
        ];
        for o in objectives {
            let bracket = o
                .static_bracket(&spec, &mut bounder)
                .expect("valid fleet has a bracket");
            assert!(
                bracket.contains(o.score(&spec, &report)),
                "{} fleet score outside its bracket",
                o.name()
            );
        }
        assert_eq!(
            template.bracket_cache.borrow().len(),
            1,
            "objectives share one node-bounding pass per design"
        );
    }

    #[test]
    fn dark_field_pins_fleet_brackets_exactly() {
        // A 1.5 V field attenuated below every boot threshold: each node's
        // bracket proves it never boots, so the aggregates are exact.
        let template =
            FleetTemplate::new(FieldSpec::Envelope(FieldEnvelope::Dc { volts: 1.5 }), 3).threads(2);
        let spec = design();
        let mut bounder = Bounder::new();
        let nodes = FleetNodesToCover(template.clone())
            .static_bracket(&spec, &mut bounder)
            .expect("valid fleet");
        assert!(nodes.is_exact() && nodes.lo == f64::INFINITY);
        let coverage = FleetCoverageShortfall(template.clone())
            .static_bracket(&spec, &mut bounder)
            .expect("valid fleet");
        assert!(coverage.is_exact() && coverage.lo == 1.0);
        let energy = FleetEnergyPerTask(template.clone())
            .static_bracket(&spec, &mut bounder)
            .expect("valid fleet");
        assert!(energy.is_exact() && energy.lo == f64::INFINITY);
        let brownouts = FleetBrownoutShortfall(template.clone())
            .static_bracket(&spec, &mut bounder)
            .expect("valid fleet");
        assert!(brownouts.is_exact() && brownouts.lo == 0.0);
        // The static proof matches the simulated fleet.
        let report = spec.run().expect("single-node run");
        let metrics = template.metrics_for(&spec).expect("fleet runs");
        assert_eq!(metrics.completed_nodes, 0);
        assert_eq!(metrics.brownout_free_fraction, 1.0);
        assert_eq!(FleetCoverageShortfall(template).score(&spec, &report), 1.0);
    }

    #[test]
    fn invalid_fleets_claim_no_bracket() {
        let template = template().duty_period(Seconds(0.0));
        assert!(FleetNodesToCover(template)
            .static_bracket(&design(), &mut Bounder::new())
            .is_none());
    }

    #[test]
    fn fingerprint_is_pinned_for_a_trace_field_with_explicit_placement() {
        let template = FleetTemplate::new(
            FieldSpec::PowerTrace {
                name: "site".into(),
                samples: vec![(0.0, 1e-3), (0.5, 2.5e-3), (1.0, 0.0)],
                looping: true,
            },
            3,
        )
        .placement(Placement::Explicit(vec![1.0, 0.75, 0.5]))
        .stagger(Seconds(0.125))
        .duty_period(Seconds(2.0));
        assert_eq!(template.fingerprint(), "63a24199d4002912");
        // The memo caches and the thread cap are not configuration.
        assert_eq!(
            template.clone().threads(1).fingerprint(),
            template.fingerprint()
        );
    }

    #[test]
    fn scores_are_deterministic_across_repeats_and_threads() {
        let spec = design();
        let report = spec.run().expect("single-node run");
        let serial = FleetCoverageShortfall(template().threads(1)).score(&spec, &report);
        let parallel = FleetCoverageShortfall(template().threads(4)).score(&spec, &report);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }
}
