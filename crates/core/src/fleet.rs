//! Declarative multi-node scenarios: one shared harvest field, `N` nodes.
//!
//! The paper's comparison is strictly single-node — one harvester, one
//! strategy, one workload per run. A [`FleetSpec`] describes the first
//! population-scale scenario: `nodes` copies of a per-node *design* (an
//! [`ExperimentSpec`]) deployed into **one** ambient field (a
//! [`FieldSpec`]: a synthetic [`FieldEnvelope`] or a recorded power trace),
//! partitioned across the population by a [`Placement`]-dependent
//! attenuation and a per-node phase stagger.
//!
//! Like `ExperimentSpec`, a `FleetSpec` is *description*, not computation:
//! it validates, serialises losslessly to JSON, and expands into per-node
//! specs/sources. Execution (parallel fan-out, fleet metrics, merged
//! telemetry) lives in the `edc-fleet` crate.
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::fleet::{FieldSpec, FleetSpec, Placement};
//! use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let design = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 3.3 }, // replaced by each node's field view
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! );
//! let fleet = FleetSpec::new(
//!     FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
//!     design,
//!     4,
//! )
//! .stagger(Seconds(0.005))
//! .duty_period(Seconds(1.0));
//! fleet.validate()?;
//! let specs = fleet.node_specs().expect("envelope fields expand to specs");
//! assert_eq!(specs.len(), 4);
//! # Ok::<(), edc_core::fleet::FleetError>(())
//! ```

use std::fmt;

use edc_harvest::{EnergySource, FieldView, TracePlayback};
use edc_units::{Seconds, Watts};

use crate::catalog::{TraceCatalog, TraceError};
use crate::experiment::{BuildError, ExperimentSpec};
use crate::json::Json;
use crate::scenarios::{FieldEnvelope, SourceKind};

/// Why a fleet scenario could not be assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The fleet has no nodes.
    NoNodes,
    /// Negative or non-finite phase stagger (seconds).
    InvalidStagger(f64),
    /// Non-positive or non-finite sensing duty period (seconds).
    InvalidDutyPeriod(f64),
    /// A placement produced an attenuation outside `(0, 1]`.
    InvalidAttenuation {
        /// The node whose placement is invalid.
        node: usize,
        /// The offending attenuation.
        value: f64,
    },
    /// An explicit placement's length does not match the node count.
    PlacementCount {
        /// Nodes in the fleet.
        nodes: usize,
        /// Attenuations supplied.
        placements: usize,
    },
    /// The shared field's parameters are invalid.
    InvalidField(&'static str),
    /// A recorded field could not be registered in the trace catalog.
    Trace(TraceError),
    /// The per-node design failed experiment validation.
    Design(BuildError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoNodes => f.write_str("a fleet needs at least one node"),
            FleetError::InvalidStagger(x) => {
                write!(f, "phase stagger must be finite and ≥ 0, got {x} s")
            }
            FleetError::InvalidDutyPeriod(x) => {
                write!(f, "duty period must be positive and finite, got {x} s")
            }
            FleetError::InvalidAttenuation { node, value } => {
                write!(f, "node {node}: attenuation must be in (0, 1], got {value}")
            }
            FleetError::PlacementCount { nodes, placements } => {
                write!(f, "{placements} explicit placements for {nodes} nodes")
            }
            FleetError::InvalidField(why) => write!(f, "invalid shared field: {why}"),
            FleetError::Trace(e) => write!(f, "invalid shared field: {e}"),
            FleetError::Design(e) => write!(f, "per-node design invalid: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<BuildError> for FleetError {
    fn from(e: BuildError) -> Self {
        FleetError::Design(e)
    }
}

impl From<TraceError> for FleetError {
    fn from(e: TraceError) -> Self {
        FleetError::Trace(e)
    }
}

/// The shared ambient field a fleet harvests from.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSpec {
    /// A synthetic envelope from the kind registry.
    Envelope(FieldEnvelope),
    /// A recorded harvested-power series, replayed for every node
    /// ([`TracePlayback`] semantics: linear interpolation, optional
    /// looping). Sample times must be strictly increasing; values are
    /// watts.
    PowerTrace {
        /// Trace name (carried into logs and JSON).
        name: String,
        /// `(t_s, watts)` samples, strictly increasing in time.
        samples: Vec<(f64, f64)>,
        /// Repeat indefinitely instead of holding the last value.
        looping: bool,
    },
}

impl FieldSpec {
    /// Checks the field's parameters.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(&self) -> Result<(), FleetError> {
        match self {
            FieldSpec::Envelope(e) => e.validate().map_err(FleetError::InvalidField),
            FieldSpec::PowerTrace { samples, .. } => {
                if samples.len() < 2 {
                    return Err(FleetError::InvalidField("trace needs at least two samples"));
                }
                // NaN times fail this comparison and are caught by the
                // finiteness check below.
                for pair in samples.windows(2) {
                    if pair[0].0 >= pair[1].0 {
                        return Err(FleetError::InvalidField(
                            "trace times must be strictly increasing",
                        ));
                    }
                }
                if samples
                    .iter()
                    .any(|&(t, w)| !(t.is_finite() && w.is_finite()))
                {
                    return Err(FleetError::InvalidField("trace samples must be finite"));
                }
                Ok(())
            }
        }
    }

    /// Display name of the field.
    pub fn name(&self) -> &str {
        match self {
            FieldSpec::Envelope(e) => e.name(),
            FieldSpec::PowerTrace { name, .. } => name,
        }
    }

    /// The field as a `Copy` [`FieldEnvelope`], registering recorded
    /// traces into `catalog` on the way (idempotent: re-registering the
    /// same name-and-samples pair recalls the existing id). This is what
    /// lets trace-backed fleets expand into ordinary per-node
    /// [`SourceKind::FieldView`] specs and run through the same sweep
    /// engine path as synthetic envelopes.
    ///
    /// # Errors
    ///
    /// [`FleetError::Trace`] when the trace series is invalid or its name
    /// is already bound to different samples.
    pub fn register_in(&self, catalog: &mut TraceCatalog) -> Result<FieldEnvelope, FleetError> {
        match self {
            FieldSpec::Envelope(e) => Ok(*e),
            FieldSpec::PowerTrace {
                name,
                samples,
                looping,
            } => {
                // register_ref: after the first run the samples are only
                // hashed, never copied again.
                let id = catalog.register_ref(name, samples)?;
                Ok(FieldEnvelope::Trace {
                    id,
                    decimate: 1,
                    looped: *looping,
                })
            }
        }
    }

    /// Instantiates one node's view of the field.
    ///
    /// # Panics
    ///
    /// Panics when the field or placement parameters are invalid; validate
    /// the owning [`FleetSpec`] first to get violations as values.
    pub fn make_node_source(&self, attenuation: f64, phase: Seconds) -> Box<dyn EnergySource> {
        match self {
            FieldSpec::Envelope(e) => Box::new(FieldView::new(e.make(), attenuation, phase)),
            FieldSpec::PowerTrace {
                name,
                samples,
                looping,
            } => {
                let series: Vec<(Seconds, Watts)> = samples
                    .iter()
                    .map(|&(t, w)| (Seconds(t), Watts(w)))
                    .collect();
                let mut trace = TracePlayback::from_power_series(name.clone(), series);
                if *looping {
                    trace = trace.looping();
                }
                Box::new(FieldView::new(trace, attenuation, phase))
            }
        }
    }

    /// The field as a JSON value (lossless, deterministic field order).
    pub fn to_json(&self) -> Json {
        match self {
            FieldSpec::Envelope(e) => Json::obj(vec![
                ("kind", Json::Str("envelope".into())),
                ("envelope", e.source_kind().to_json()),
            ]),
            FieldSpec::PowerTrace {
                name,
                samples,
                looping,
            } => Json::obj(vec![
                ("kind", Json::Str("power-trace".into())),
                ("name", Json::Str(name.clone())),
                ("looping", Json::Bool(*looping)),
                (
                    "samples",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|&(t, w)| Json::Arr(vec![Json::Num(t), Json::Num(w)]))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Parses a field from its [`FieldSpec::to_json`] form. Trace-backed
    /// envelopes resolve their ids through `catalog`.
    ///
    /// # Errors
    ///
    /// A static string naming the malformed key.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::fleet::FieldSpec;
    /// use edc_core::scenarios::FieldEnvelope;
    ///
    /// let field = FieldSpec::Envelope(FieldEnvelope::Turbine);
    /// let round = FieldSpec::from_json(&field.to_json(), &TraceCatalog::new())?;
    /// assert_eq!(round, field);
    /// # Ok::<(), &'static str>(())
    /// ```
    pub fn from_json(json: &Json, catalog: &TraceCatalog) -> Result<Self, &'static str> {
        match json.get("kind") {
            Some(Json::Str(k)) if k == "envelope" => {
                let Some(envelope) = json.get("envelope") else {
                    return Err("envelope field missing 'envelope'");
                };
                let kind = SourceKind::from_json(envelope, catalog)?;
                FieldEnvelope::from_source_kind(kind)
                    .map(FieldSpec::Envelope)
                    .ok_or("field envelope is not a standalone source kind")
            }
            Some(Json::Str(k)) if k == "power-trace" => {
                let Some(Json::Str(name)) = json.get("name") else {
                    return Err("power-trace field missing 'name'");
                };
                let Some(Json::Bool(looping)) = json.get("looping") else {
                    return Err("power-trace field missing 'looping'");
                };
                let Some(Json::Arr(pairs)) = json.get("samples") else {
                    return Err("power-trace field missing 'samples'");
                };
                let mut samples = Vec::with_capacity(pairs.len());
                for pair in pairs {
                    let Json::Arr(tw) = pair else {
                        return Err("trace sample is not a [t, w] pair");
                    };
                    match (tw.first().and_then(as_f64), tw.get(1).and_then(as_f64)) {
                        (Some(t), Some(w)) if tw.len() == 2 => samples.push((t, w)),
                        _ => return Err("trace sample is not a [t, w] pair"),
                    }
                }
                Ok(FieldSpec::PowerTrace {
                    name: name.clone(),
                    samples,
                    looping: *looping,
                })
            }
            _ => Err("unknown field kind"),
        }
    }
}

/// Numeric JSON values arrive as `Num` or (for whole numbers) `Uint`.
fn as_f64(json: &Json) -> Option<f64> {
    match json {
        Json::Num(n) => Some(*n),
        Json::Uint(u) => Some(*u as f64),
        _ => None,
    }
}

/// How a fleet's nodes are placed relative to the field source, as a
/// per-node attenuation rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Every node sees the full field.
    Colocated,
    /// Nodes spread along a line away from the field source: attenuation
    /// falls linearly from `near` (node 0) to `far` (the last node).
    Line {
        /// Attenuation of the nearest node, in `(0, 1]`.
        near: f64,
        /// Attenuation of the farthest node, in `(0, 1]`.
        far: f64,
    },
    /// Explicit per-node attenuations (length must equal the node count).
    Explicit(Vec<f64>),
}

impl Placement {
    /// The attenuation of node `i` in a fleet of `n`: NaN (which no
    /// validation accepts) for [`Placement::Explicit`] if `i` is outside
    /// the supplied list.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn attenuation(&self, i: usize, n: usize) -> f64 {
        assert!(i < n, "node index out of range");
        match self {
            Placement::Colocated => 1.0,
            Placement::Line { near, far } => {
                if n <= 1 {
                    *near
                } else {
                    near + (far - near) * i as f64 / (n - 1) as f64
                }
            }
            Placement::Explicit(a) => a.get(i).copied().unwrap_or(f64::NAN),
        }
    }

    /// The placement as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Placement::Colocated => Json::obj(vec![("kind", Json::Str("colocated".into()))]),
            Placement::Line { near, far } => Json::obj(vec![
                ("kind", Json::Str("line".into())),
                ("near", Json::Num(*near)),
                ("far", Json::Num(*far)),
            ]),
            Placement::Explicit(a) => Json::obj(vec![
                ("kind", Json::Str("explicit".into())),
                (
                    "attenuations",
                    Json::Arr(a.iter().map(|&x| Json::Num(x)).collect()),
                ),
            ]),
        }
    }

    /// Parses a placement from its [`Placement::to_json`] form.
    ///
    /// # Errors
    ///
    /// A static string naming the malformed key.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_core::fleet::Placement;
    ///
    /// let p = Placement::Line { near: 1.0, far: 0.5 };
    /// assert_eq!(Placement::from_json(&p.to_json())?, p);
    /// # Ok::<(), &'static str>(())
    /// ```
    pub fn from_json(json: &Json) -> Result<Self, &'static str> {
        match json.get("kind") {
            Some(Json::Str(k)) if k == "colocated" => Ok(Placement::Colocated),
            Some(Json::Str(k)) if k == "line" => {
                match (
                    json.get("near").and_then(as_f64),
                    json.get("far").and_then(as_f64),
                ) {
                    (Some(near), Some(far)) => Ok(Placement::Line { near, far }),
                    _ => Err("line placement missing 'near'/'far'"),
                }
            }
            Some(Json::Str(k)) if k == "explicit" => {
                let Some(Json::Arr(items)) = json.get("attenuations") else {
                    return Err("explicit placement missing 'attenuations'");
                };
                let mut a = Vec::with_capacity(items.len());
                for item in items {
                    match as_f64(item) {
                        Some(x) => a.push(x),
                        None => return Err("attenuation is not a number"),
                    }
                }
                Ok(Placement::Explicit(a))
            }
            _ => Err("unknown placement kind"),
        }
    }
}

/// A declarative fleet scenario: `nodes` copies of one per-node design
/// deployed into one shared field.
///
/// The design's own `source` is **replaced** by each node's field view;
/// every other design field (strategy, workload, topology, decoupling,
/// timestep, deadline, leakage, trace, telemetry) applies to every node
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The shared ambient field.
    pub field: FieldSpec,
    /// The per-node design (its `source` is replaced per node).
    pub design: ExperimentSpec,
    /// Number of nodes.
    pub nodes: usize,
    /// Placement rule mapping node index to attenuation.
    pub placement: Placement,
    /// Phase stagger step: node `i` samples the field at `t + i × stagger`.
    pub stagger: Seconds,
    /// The sensing duty period the fleet is sized against (e.g. `1 s` for a
    /// 1 Hz duty cycle); fleet metrics report coverage relative to it.
    pub duty_period: Seconds,
}

impl FleetSpec {
    /// A fleet with colocated placement, no stagger, and a 1 s duty period.
    pub fn new(field: FieldSpec, design: ExperimentSpec, nodes: usize) -> Self {
        Self {
            field,
            design,
            nodes,
            placement: Placement::Colocated,
            stagger: Seconds(0.0),
            duty_period: Seconds(1.0),
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

    /// Sets the sensing duty period.
    pub fn duty_period(mut self, p: Seconds) -> Self {
        self.duty_period = p;
        self
    }

    /// A short human-readable label: `field×nodes/strategy/workload`.
    pub fn label(&self) -> String {
        format!(
            "{}×{}/{}/{}",
            self.field.name(),
            self.nodes,
            self.design.strategy.name(),
            self.design.workload.name()
        )
    }

    /// Node `i`'s phase stagger.
    pub fn phase(&self, i: usize) -> Seconds {
        Seconds(self.stagger.0 * i as f64)
    }

    /// Node `i`'s placement attenuation.
    pub fn attenuation(&self, i: usize) -> f64 {
        self.placement.attenuation(i, self.nodes)
    }

    /// Checks every parameter — field, placement, stagger, duty period,
    /// and the per-node design (with each node's derived field view): the
    /// first entry of [`FleetSpec::violations`].
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), FleetError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every violated constraint in the fleet spec — the collect-all
    /// companion to [`FleetSpec::validate`], mirroring
    /// [`ExperimentSpec::violations`]. Design-level violations are reported
    /// once (from node 0's derived spec); for the remaining nodes only
    /// their placement-specific source violations are added.
    pub fn violations(&self) -> Vec<FleetError> {
        let mut out = Vec::new();
        if self.nodes == 0 {
            out.push(FleetError::NoNodes);
        }
        if !(self.stagger.0.is_finite() && self.stagger.0 >= 0.0) {
            out.push(FleetError::InvalidStagger(self.stagger.0));
        }
        if !(self.duty_period.0 > 0.0 && self.duty_period.0.is_finite()) {
            out.push(FleetError::InvalidDutyPeriod(self.duty_period.0));
        }
        if let Placement::Explicit(a) = &self.placement {
            if a.len() != self.nodes {
                out.push(FleetError::PlacementCount {
                    nodes: self.nodes,
                    placements: a.len(),
                });
            }
        }
        if let Err(e) = self.field.validate() {
            out.push(e);
        }
        for i in 0..self.nodes {
            let a = self.attenuation(i);
            if !(a.is_finite() && a > 0.0 && a <= 1.0) {
                out.push(FleetError::InvalidAttenuation { node: i, value: a });
            }
        }
        match self.node_specs() {
            Some(specs) => {
                for (i, spec) in specs.iter().enumerate() {
                    for e in spec.violations() {
                        if i == 0 || matches!(e, BuildError::InvalidSource(_)) {
                            out.push(FleetError::Design(e));
                        }
                    }
                }
            }
            // Trace fields: the samples are checked by `field.validate()`
            // above and per-node specs are re-validated (with the catalog)
            // when the runner expands them, so check the design shell here.
            None => out.extend(self.design.violations().into_iter().map(FleetError::Design)),
        }
        out
    }

    /// The per-node experiment specs, when the shared field is a synthetic
    /// [`FieldSpec::Envelope`] (per-node views are then plain
    /// [`SourceKind::FieldView`] data). `None` for trace fields, whose
    /// samples live in a catalog — use [`FleetSpec::node_specs_in`], which
    /// covers *every* field kind.
    pub fn node_specs(&self) -> Option<Vec<ExperimentSpec>> {
        let FieldSpec::Envelope(envelope) = self.field else {
            return None;
        };
        Some(self.specs_over(envelope))
    }

    /// The per-node experiment specs for **any** field kind: recorded
    /// traces are registered into `catalog` (idempotently) and each node
    /// becomes a plain [`SourceKind::FieldView`] over the resulting
    /// envelope, so envelope and trace fleets run through one spec-driven
    /// path.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidField`] when a recorded trace cannot be
    /// registered.
    pub fn node_specs_in(
        &self,
        catalog: &mut TraceCatalog,
    ) -> Result<Vec<ExperimentSpec>, FleetError> {
        Ok(self.specs_over(self.field.register_in(catalog)?))
    }

    fn specs_over(&self, envelope: FieldEnvelope) -> Vec<ExperimentSpec> {
        (0..self.nodes)
            .map(|i| {
                self.design.source(SourceKind::FieldView {
                    field: envelope,
                    attenuation: self.attenuation(i),
                    phase_s: self.phase(i).0,
                })
            })
            .collect()
    }

    /// Node `i`'s boxed field view — works for every field kind.
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid; call [`FleetSpec::validate`] first.
    pub fn node_source(&self, i: usize) -> Box<dyn EnergySource> {
        self.field
            .make_node_source(self.attenuation(i), self.phase(i))
    }

    /// The spec as a JSON value. Lossless: the field (trace samples
    /// included), the per-node design, and every placement parameter are
    /// serialised with deterministic field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("field", self.field.to_json()),
            ("design", self.design.to_json()),
            ("nodes", Json::Uint(self.nodes as u64)),
            ("placement", self.placement.to_json()),
            ("stagger_s", Json::Num(self.stagger.0)),
            ("duty_period_s", Json::Num(self.duty_period.0)),
        ])
    }

    /// Parses a fleet spec from its [`FleetSpec::to_json`] form — the
    /// inverse the `edc_timeline` CLI uses to run fleet scenarios from
    /// disk. Trace-backed designs resolve through `catalog`.
    ///
    /// # Errors
    ///
    /// A static string naming the malformed key.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::fleet::{FieldSpec, FleetSpec};
    /// use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
    /// use edc_workloads::WorkloadKind;
    ///
    /// let fleet = FleetSpec::new(
    ///     FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
    ///     ExperimentSpec::new(
    ///         SourceKind::Dc { volts: 3.3 },
    ///         StrategyKind::Hibernus,
    ///         WorkloadKind::Crc16(64),
    ///     ),
    ///     4,
    /// );
    /// let round = FleetSpec::from_json(&fleet.to_json(), &TraceCatalog::new())?;
    /// assert_eq!(round, fleet);
    /// # Ok::<(), &'static str>(())
    /// ```
    pub fn from_json(json: &Json, catalog: &TraceCatalog) -> Result<Self, &'static str> {
        let Some(field) = json.get("field") else {
            return Err("fleet spec missing 'field'");
        };
        let Some(design) = json.get("design") else {
            return Err("fleet spec missing 'design'");
        };
        let Some(Json::Uint(nodes)) = json.get("nodes") else {
            return Err("fleet spec missing 'nodes'");
        };
        let Some(placement) = json.get("placement") else {
            return Err("fleet spec missing 'placement'");
        };
        let Some(stagger) = json.get("stagger_s").and_then(as_f64) else {
            return Err("fleet spec missing 'stagger_s'");
        };
        let Some(duty_period) = json.get("duty_period_s").and_then(as_f64) else {
            return Err("fleet spec missing 'duty_period_s'");
        };
        Ok(Self {
            field: FieldSpec::from_json(field, catalog)?,
            design: ExperimentSpec::from_json(design, catalog)?,
            nodes: *nodes as usize,
            placement: Placement::from_json(placement)?,
            stagger: Seconds(stagger),
            duty_period: Seconds(duty_period),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::StrategyKind;
    use edc_workloads::WorkloadKind;

    fn design() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .deadline(Seconds(1.0))
    }

    fn envelope() -> FieldSpec {
        FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 })
    }

    #[test]
    fn node_specs_carry_placement_and_stagger() {
        let fleet = FleetSpec::new(envelope(), design(), 3)
            .placement(Placement::Line {
                near: 1.0,
                far: 0.5,
            })
            .stagger(Seconds(0.01));
        fleet.validate().expect("valid fleet");
        let specs = fleet.node_specs().expect("envelope field");
        assert_eq!(specs.len(), 3);
        match specs[2].source {
            SourceKind::FieldView {
                attenuation,
                phase_s,
                ..
            } => {
                assert!((attenuation - 0.5).abs() < 1e-12);
                assert!((phase_s - 0.02).abs() < 1e-12);
            }
            other => panic!("unexpected source {other:?}"),
        }
        // Everything but the source comes from the design.
        assert_eq!(specs[0].strategy, StrategyKind::Restart);
        assert_eq!(specs[0].deadline, Seconds(1.0));
    }

    #[test]
    fn trace_fields_have_no_specs_but_box_sources() {
        let fleet = FleetSpec::new(
            FieldSpec::PowerTrace {
                name: "site".into(),
                samples: vec![(0.0, 1e-3), (1.0, 3e-3)],
                looping: true,
            },
            design(),
            2,
        );
        fleet.validate().expect("valid fleet");
        assert!(fleet.node_specs().is_none());
        let mut src = fleet.node_source(1);
        assert!(src.name().contains("site"));
        let sample = src.sample(Seconds(0.5));
        assert!(sample.power_into(edc_units::Volts(1.0)).0 > 0.0);
    }

    #[test]
    fn validation_rejects_bad_fleets() {
        assert_eq!(
            FleetSpec::new(envelope(), design(), 0).validate(),
            Err(FleetError::NoNodes)
        );
        assert!(matches!(
            FleetSpec::new(envelope(), design(), 2)
                .stagger(Seconds(-1.0))
                .validate(),
            Err(FleetError::InvalidStagger(_))
        ));
        assert!(matches!(
            FleetSpec::new(envelope(), design(), 2)
                .duty_period(Seconds(0.0))
                .validate(),
            Err(FleetError::InvalidDutyPeriod(_))
        ));
        assert!(matches!(
            FleetSpec::new(envelope(), design(), 2)
                .placement(Placement::Explicit(vec![1.0]))
                .validate(),
            Err(FleetError::PlacementCount {
                nodes: 2,
                placements: 1
            })
        ));
        assert!(matches!(
            FleetSpec::new(envelope(), design(), 2)
                .placement(Placement::Line {
                    near: 1.0,
                    far: 0.0
                })
                .validate(),
            Err(FleetError::InvalidAttenuation { node: 1, .. })
        ));
        assert!(matches!(
            FleetSpec::new(
                FieldSpec::PowerTrace {
                    name: "bad".into(),
                    samples: vec![(0.0, 1.0)],
                    looping: false,
                },
                design(),
                1,
            )
            .validate(),
            Err(FleetError::InvalidField(_))
        ));
        assert!(matches!(
            FleetSpec::new(envelope(), design().timestep(Seconds(0.0)), 1).validate(),
            Err(FleetError::Design(BuildError::InvalidTimestep(_)))
        ));
    }

    #[test]
    fn fleet_json_is_lossless_and_deterministic() {
        let fleet = FleetSpec::new(
            FieldSpec::PowerTrace {
                name: "site".into(),
                samples: vec![(0.0, 1e-3), (0.5, 2e-3), (1.0, 0.0)],
                looping: true,
            },
            design(),
            4,
        )
        .placement(Placement::Line {
            near: 1.0,
            far: 0.25,
        })
        .stagger(Seconds(0.125))
        .duty_period(Seconds(2.0));
        let json = fleet.to_json().to_string();
        for key in [
            "\"field\"",
            "\"power-trace\"",
            "\"samples\"",
            "\"design\"",
            "\"nodes\":4",
            "\"placement\"",
            "\"stagger_s\":0.125",
            "\"duty_period_s\":2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(fleet.to_json().to_string(), json);
        assert_eq!(
            Json::parse(&json).expect("valid JSON").to_string(),
            json,
            "parse → emit round-trips byte-identically"
        );
        assert_eq!(fleet.label(), "site×4/restart/busy-loop");
    }

    #[test]
    fn fleet_json_round_trips_through_from_json() {
        let trace_fleet = FleetSpec::new(
            FieldSpec::PowerTrace {
                name: "site".into(),
                samples: vec![(0.0, 1e-3), (0.5, 2e-3), (1.0, 0.0)],
                looping: true,
            },
            design(),
            4,
        )
        .placement(Placement::Explicit(vec![1.0, 0.75, 0.5, 0.25]))
        .stagger(Seconds(0.125))
        .duty_period(Seconds(2.0));
        let envelope_fleet = FleetSpec::new(envelope(), design(), 3).placement(Placement::Line {
            near: 1.0,
            far: 0.5,
        });
        let catalog = TraceCatalog::new();
        for fleet in [trace_fleet, envelope_fleet] {
            let json = fleet.to_json();
            // Parse from the *emitted text*, so whole-number floats that
            // round-trip through `Uint` are covered too.
            let parsed = Json::parse(&json.to_string()).expect("valid JSON");
            let round = FleetSpec::from_json(&parsed, &catalog).expect("parses back");
            assert_eq!(round, fleet);
            assert_eq!(round.to_json().to_string(), json.to_string());
        }
        assert!(FleetSpec::from_json(&Json::obj(vec![]), &catalog).is_err());
    }

    #[test]
    fn colocated_and_single_node_line_placements() {
        let fleet = FleetSpec::new(envelope(), design(), 1).placement(Placement::Line {
            near: 0.8,
            far: 0.2,
        });
        assert!(
            (fleet.attenuation(0) - 0.8).abs() < 1e-12,
            "n = 1 uses near"
        );
        let colocated = FleetSpec::new(envelope(), design(), 5);
        assert_eq!(colocated.attenuation(4), 1.0);
    }
}
