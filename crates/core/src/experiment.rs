//! The fallible experiment-assembly API.
//!
//! Every figure and table in the paper is "run a (source × topology ×
//! strategy × workload) combination and report statistics". This module
//! makes that combination a first-class, declarative value:
//!
//! - [`ExperimentSpec`] — a `Copy` description built from the kind
//!   registries ([`SourceKind`], [`StrategyKind`], `WorkloadKind`), so a
//!   scenario grid is plain data that can be stored, compared and swept;
//! - [`Experiment`] — the fallible wiring layer, which also accepts custom
//!   boxed sources/strategies/workloads for one-off harnesses;
//! - [`System`] — a built experiment: the transient runner plus its
//!   verifier, producing [`SystemReport`]s that carry the *real* strategy
//!   and workload names.
//!
//! Nothing here panics on bad input: assembly returns [`BuildError`].
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let report = ExperimentSpec::new(
//!     SourceKind::RectifiedSine { hz: 5.0 },
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(10.0))
//! .run()
//! .expect("a complete spec assembles");
//! assert!(report.succeeded());
//! assert_eq!(report.strategy, "hibernus");
//! ```

use std::fmt;

use edc_harvest::EnergySource;
use edc_power::Rectifier;
use edc_telemetry::TelemetryKind;
use edc_transient::{RunOutcome, RunnerBuildError, Strategy, TransientRunner};
use edc_units::{Farads, Ohms, Seconds, Volts};
use edc_workloads::{VerifyError, Workload, WorkloadKind};

use crate::catalog::TraceCatalog;
use crate::scenarios::{SourceKind, StrategyKind};
use crate::system::{SystemReport, Topology};

/// Why an experiment could not be assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No energy source was provided.
    MissingSource,
    /// No checkpoint strategy was provided.
    MissingStrategy,
    /// No workload was provided.
    MissingWorkload,
    /// Source-kind parameters outside the constructor's domain.
    InvalidSource(&'static str),
    /// Workload-kind parameters outside the constructor's domain.
    InvalidWorkload(&'static str),
    /// Buffered-topology converter efficiency outside `(0, 1]`.
    InvalidEfficiency(f64),
    /// Non-positive or non-finite simulation timestep (seconds).
    InvalidTimestep(f64),
    /// Non-positive or non-finite decoupling capacitance (farads).
    InvalidDecoupling(f64),
    /// Negative or non-finite buffered storage capacitance (farads).
    InvalidStorage(f64),
    /// Non-positive or non-finite board-leakage resistance (ohms).
    InvalidLeakage(f64),
    /// Zero trace decimation (the trace would never record).
    InvalidTrace,
    /// Non-positive or non-finite run deadline (seconds).
    InvalidDeadline(f64),
    /// Telemetry-kind parameters outside the sink constructor's domain.
    InvalidTelemetry(&'static str),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingSource => write!(f, "an energy source is required"),
            BuildError::MissingStrategy => write!(f, "a checkpoint strategy is required"),
            BuildError::MissingWorkload => write!(f, "a workload is required"),
            BuildError::InvalidSource(why) => write!(f, "invalid source parameters: {why}"),
            BuildError::InvalidWorkload(why) => write!(f, "invalid workload parameters: {why}"),
            BuildError::InvalidEfficiency(x) => {
                write!(f, "converter efficiency must be in (0, 1], got {x}")
            }
            BuildError::InvalidTimestep(x) => {
                write!(f, "timestep must be positive and finite, got {x} s")
            }
            BuildError::InvalidDecoupling(x) => {
                write!(f, "decoupling capacitance must be positive, got {x} F")
            }
            BuildError::InvalidStorage(x) => {
                write!(f, "storage capacitance must be non-negative, got {x} F")
            }
            BuildError::InvalidLeakage(x) => {
                write!(
                    f,
                    "leakage resistance must be positive and finite, got {x} Ω"
                )
            }
            BuildError::InvalidTrace => write!(f, "trace decimation must be ≥ 1"),
            BuildError::InvalidDeadline(x) => {
                write!(f, "deadline must be positive and finite, got {x} s")
            }
            BuildError::InvalidTelemetry(why) => {
                write!(f, "invalid telemetry parameters: {why}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<RunnerBuildError> for BuildError {
    fn from(e: RunnerBuildError) -> Self {
        match e {
            RunnerBuildError::MissingStrategy => BuildError::MissingStrategy,
            RunnerBuildError::MissingProgram => BuildError::MissingWorkload,
            RunnerBuildError::MissingSource => BuildError::MissingSource,
            RunnerBuildError::InvalidEfficiency(x) => BuildError::InvalidEfficiency(x),
        }
    }
}

/// A declarative experiment: pure `Copy` data naming every component via
/// the kind registries. The unit of sweeps, tables and JSON trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// The energy source.
    pub source: SourceKind,
    /// Optional rectifier stage in front of the supply node.
    pub rectifier: Option<Rectifier>,
    /// Energy-subsystem topology (Fig. 3 vs. Fig. 4).
    pub topology: Topology,
    /// Decoupling capacitance.
    pub decoupling: Farads,
    /// The checkpoint strategy.
    pub strategy: StrategyKind,
    /// The workload.
    pub workload: WorkloadKind,
    /// Simulation timestep.
    pub timestep: Seconds,
    /// Run deadline: [`ExperimentSpec::run`] stops here, and
    /// [`ExperimentSpec::validate`] checks it like every other field.
    pub deadline: Seconds,
    /// Optional board-leakage path across the supply rail.
    pub leakage: Option<Ohms>,
    /// Optional `V_cc`/frequency trace decimation.
    pub trace: Option<u64>,
    /// Telemetry sink installed for the run ([`TelemetryKind::Null`] — the
    /// default — installs nothing and costs nothing).
    pub telemetry: TelemetryKind,
}

impl ExperimentSpec {
    /// A spec with Fig. 4 defaults: direct topology, 10 µF decoupling,
    /// 20 µs timestep, 10 s deadline, no rectifier/leakage/trace.
    pub fn new(source: SourceKind, strategy: StrategyKind, workload: WorkloadKind) -> Self {
        Self {
            source,
            rectifier: None,
            topology: Topology::Direct,
            decoupling: Farads::from_micro(10.0),
            strategy,
            workload,
            timestep: Seconds(20e-6),
            deadline: Seconds(10.0),
            leakage: None,
            trace: None,
            telemetry: TelemetryKind::Null,
        }
    }

    /// Replaces the energy source.
    pub fn source(mut self, source: SourceKind) -> Self {
        self.source = source;
        self
    }

    /// Adds a rectifier stage.
    pub fn rectifier(mut self, r: Rectifier) -> Self {
        self.rectifier = Some(r);
        self
    }

    /// Selects the topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Overrides the decoupling capacitance.
    pub fn decoupling(mut self, c: Farads) -> Self {
        self.decoupling = c;
        self
    }

    /// Replaces the checkpoint strategy.
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Replaces the workload.
    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.workload = w;
        self
    }

    /// Overrides the simulation timestep.
    pub fn timestep(mut self, dt: Seconds) -> Self {
        self.timestep = dt;
        self
    }

    /// Sets the deadline used by [`ExperimentSpec::run`].
    pub fn deadline(mut self, d: Seconds) -> Self {
        self.deadline = d;
        self
    }

    /// Adds a board-leakage path.
    pub fn leakage(mut self, r: Ohms) -> Self {
        self.leakage = Some(r);
        self
    }

    /// Enables `V_cc`/frequency tracing with the given decimation.
    pub fn trace(mut self, decimation: u64) -> Self {
        self.trace = Some(decimation);
        self
    }

    /// Selects the telemetry sink for the run.
    pub fn telemetry(mut self, kind: TelemetryKind) -> Self {
        self.telemetry = kind;
        self
    }

    /// A short human-readable label: `source/strategy/workload`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.source.name(),
            self.strategy.name(),
            self.workload.name()
        )
    }

    /// Checks every parameter of the spec — kind registries and deadline
    /// included — without instantiating anything: the first entry of
    /// [`ExperimentSpec::violations`]. `build`/`run` call this first, so a
    /// bad spec is always an `Err`, never a downstream constructor panic.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), BuildError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// [`ExperimentSpec::validate`], plus resolution of trace-backed
    /// sources against the build catalog (see
    /// [`SourceKind::validate_in`]): the first entry of
    /// [`ExperimentSpec::violations_in`].
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate_in(&self, catalog: &TraceCatalog) -> Result<(), BuildError> {
        self.violations_in(catalog)
            .into_iter()
            .next()
            .map_or(Ok(()), Err)
    }

    /// Every violated constraint in the spec, in field order (deadline
    /// last) — the collect-all companion to [`ExperimentSpec::validate`],
    /// so a lint pass over a spec sees the full picture in one call.
    pub fn violations(&self) -> Vec<BuildError> {
        self.collect_violations(None)
    }

    /// [`ExperimentSpec::violations`], plus resolution of trace-backed
    /// sources against the build catalog.
    pub fn violations_in(&self, catalog: &TraceCatalog) -> Vec<BuildError> {
        self.collect_violations(Some(catalog))
    }

    fn collect_violations(&self, catalog: Option<&TraceCatalog>) -> Vec<BuildError> {
        let mut out = Vec::new();
        if let Err(e) = match catalog {
            Some(catalog) => self.source.validate_in(catalog),
            None => self.source.validate(),
        } {
            out.push(BuildError::InvalidSource(e));
        }
        if let Err(e) = self.workload.validate() {
            out.push(BuildError::InvalidWorkload(e));
        }
        out.extend(self.params().violations());
        out
    }

    fn params(&self) -> Params {
        Params {
            topology: self.topology,
            decoupling: self.decoupling,
            timestep: self.timestep,
            deadline: Some(self.deadline),
            leakage: self.leakage,
            trace: self.trace,
            telemetry: self.telemetry,
        }
    }

    /// Instantiates every component from its registry and assembles the
    /// system. Trace-backed sources need their samples resolved — use
    /// [`ExperimentSpec::build_in`] with the catalog they were registered
    /// in.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for invalid parameters (the spec always names
    /// all components, so the `Missing*` variants cannot occur here).
    pub fn build(&self) -> Result<System<'static>, BuildError> {
        self.build_in(&TraceCatalog::new())
    }

    /// Like [`ExperimentSpec::build`], resolving [`SourceKind::Trace`] (and
    /// trace-backed field views) through `catalog`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for invalid parameters or a trace handle the
    /// catalog does not hold.
    pub fn build_in(&self, catalog: &TraceCatalog) -> Result<System<'static>, BuildError> {
        self.validate_in(catalog)?;
        Experiment::from_spec_in(self, catalog).build()
    }

    /// Builds and runs to completion or `self.deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for any violated constraint (see
    /// [`ExperimentSpec::validate`]).
    pub fn run(&self) -> Result<SystemReport, BuildError> {
        self.run_in(&TraceCatalog::new())
    }

    /// Like [`ExperimentSpec::run`], resolving trace-backed sources
    /// through `catalog`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for any violated constraint (see
    /// [`ExperimentSpec::validate_in`]).
    pub fn run_in(&self, catalog: &TraceCatalog) -> Result<SystemReport, BuildError> {
        Ok(self.build_in(catalog)?.run(self.deadline))
    }

    /// Like [`ExperimentSpec::run_in`], recording runner lifecycle
    /// counters into `metrics` instead of the process-global registry —
    /// the registry-threading counterpart of `run_in`'s catalog
    /// threading, used by the sweep engine and determinism tests.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for any violated constraint (see
    /// [`ExperimentSpec::validate_in`]).
    pub fn run_metered_in(
        &self,
        catalog: &TraceCatalog,
        metrics: &edc_metrics::Registry,
    ) -> Result<SystemReport, BuildError> {
        let mut system = self.build_in(catalog)?;
        system.set_metrics(metrics.clone());
        Ok(system.run(self.deadline))
    }

    /// The spec as a JSON value (used by sweep trajectories). Lossless:
    /// every field that distinguishes one grid point from another is
    /// serialised, including kind parameters.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let source = self.source.to_json();
        let workload = workload_to_json(&self.workload);
        let topology = match self.topology {
            Topology::Direct => Json::obj(vec![("kind", Json::Str("direct".into()))]),
            Topology::Buffered {
                storage,
                efficiency,
            } => Json::obj(vec![
                ("kind", Json::Str("buffered".into())),
                ("storage_f", Json::Num(storage.0)),
                ("efficiency", Json::Num(efficiency)),
            ]),
        };
        let rectifier = Json::option(self.rectifier, |r| {
            Json::obj(vec![
                ("kind", Json::Str(format!("{:?}", r.kind()).to_lowercase())),
                ("diode_drop_v", Json::Num(r.diode_drop().0)),
            ])
        });
        let mut pairs = vec![
            ("source", source),
            ("strategy", Json::Str(self.strategy.name().into())),
            ("workload", workload),
            ("topology", topology),
            ("rectifier", rectifier),
            ("decoupling_f", Json::Num(self.decoupling.0)),
            ("timestep_s", Json::Num(self.timestep.0)),
            ("deadline_s", Json::Num(self.deadline.0)),
            (
                "leakage_ohm",
                Json::option(self.leakage, |r| Json::Num(r.0)),
            ),
            ("trace", Json::option(self.trace, Json::Uint)),
        ];
        // Appended only when a sink is selected, so default (Null) specs
        // serialise byte-identically to the pre-telemetry format.
        match self.telemetry {
            TelemetryKind::Null => {}
            TelemetryKind::Ring { capacity } => pairs.push((
                "telemetry",
                Json::obj(vec![
                    ("kind", Json::Str("ring".into())),
                    ("capacity", Json::Uint(capacity as u64)),
                ]),
            )),
            TelemetryKind::Stats => pairs.push((
                "telemetry",
                Json::obj(vec![("kind", Json::Str("stats".into()))]),
            )),
            TelemetryKind::Timeline => pairs.push((
                "telemetry",
                Json::obj(vec![("kind", Json::Str("timeline".into()))]),
            )),
        }
        Json::obj(pairs)
    }

    /// True for an object shaped like [`ExperimentSpec::to_json`] output
    /// (it carries `source`, `strategy`, `workload` and `decoupling_f`):
    /// how document scanners such as `edc_lint` find the specs to parse.
    pub fn is_spec_json(json: &crate::json::Json) -> bool {
        json.get("source").is_some()
            && json.get("strategy").is_some()
            && json.get("workload").is_some()
            && json.get("decoupling_f").is_some()
    }

    /// Rebuilds a spec from [`ExperimentSpec::to_json`] output, resolving
    /// trace-backed sources through `catalog` — the inverse that lets
    /// `edc_lint` (and any external tool) analyse spec JSON from disk.
    /// Parsing is shape-only: the result may still fail
    /// [`ExperimentSpec::validate_in`], which callers run separately.
    ///
    /// # Errors
    ///
    /// Returns the first shape mismatch, unknown kind name, or trace
    /// reference the catalog does not hold.
    pub fn from_json(
        json: &crate::json::Json,
        catalog: &TraceCatalog,
    ) -> Result<Self, &'static str> {
        use crate::json::Json;
        let num = |j: Option<&Json>| match j {
            Some(Json::Num(n)) => Some(*n),
            Some(Json::Uint(u)) => Some(*u as f64),
            _ => None,
        };
        let source =
            SourceKind::from_json(json.get("source").ok_or("spec missing 'source'")?, catalog)?;
        let Some(Json::Str(strategy)) = json.get("strategy") else {
            return Err("spec missing 'strategy'");
        };
        let strategy = StrategyKind::from_name(strategy).ok_or("unknown strategy name")?;
        let workload = workload_from_json(json.get("workload").ok_or("spec missing 'workload'")?)?;
        let topology_json = json.get("topology").ok_or("spec missing 'topology'")?;
        let topology = match topology_json.get("kind") {
            Some(Json::Str(k)) if k == "direct" => Topology::Direct,
            Some(Json::Str(k)) if k == "buffered" => Topology::Buffered {
                storage: Farads(
                    num(topology_json.get("storage_f"))
                        .ok_or("buffered topology missing 'storage_f'")?,
                ),
                efficiency: num(topology_json.get("efficiency"))
                    .ok_or("buffered topology missing 'efficiency'")?,
            },
            _ => return Err("unknown topology kind"),
        };
        let rectifier = match json.get("rectifier") {
            None | Some(Json::Null) => None,
            Some(r) => {
                let kind = match r.get("kind") {
                    Some(Json::Str(k)) if k == "halfwave" => edc_power::RectifierKind::HalfWave,
                    Some(Json::Str(k)) if k == "fullwave" => edc_power::RectifierKind::FullWave,
                    _ => return Err("unknown rectifier kind"),
                };
                let drop = num(r.get("diode_drop_v")).ok_or("rectifier missing 'diode_drop_v'")?;
                if !(drop.is_finite() && drop >= 0.0) {
                    return Err("rectifier diode drop must be finite and ≥ 0");
                }
                Some(Rectifier::new(kind, Volts(drop)))
            }
        };
        let decoupling =
            Farads(num(json.get("decoupling_f")).ok_or("spec missing 'decoupling_f'")?);
        let timestep = Seconds(num(json.get("timestep_s")).ok_or("spec missing 'timestep_s'")?);
        let deadline = Seconds(num(json.get("deadline_s")).ok_or("spec missing 'deadline_s'")?);
        let leakage = match json.get("leakage_ohm") {
            None | Some(Json::Null) => None,
            j => Some(Ohms(num(j).ok_or("'leakage_ohm' is not a number")?)),
        };
        let trace = match json.get("trace") {
            None | Some(Json::Null) => None,
            Some(Json::Uint(u)) => Some(*u),
            _ => return Err("'trace' is not an unsigned integer"),
        };
        let telemetry = match json.get("telemetry") {
            None | Some(Json::Null) => TelemetryKind::Null,
            Some(t) => match t.get("kind") {
                Some(Json::Str(k)) if k == "ring" => match t.get("capacity") {
                    Some(Json::Uint(c)) => TelemetryKind::Ring {
                        capacity: *c as usize,
                    },
                    _ => return Err("ring telemetry missing 'capacity'"),
                },
                Some(Json::Str(k)) if k == "stats" => TelemetryKind::Stats,
                Some(Json::Str(k)) if k == "timeline" => TelemetryKind::Timeline,
                _ => return Err("unknown telemetry kind"),
            },
        };
        Ok(Self {
            source,
            rectifier,
            topology,
            decoupling,
            strategy,
            workload,
            timestep,
            deadline,
            leakage,
            trace,
            telemetry,
        })
    }
}

/// Encodes a workload kind as the `workload` object of
/// [`ExperimentSpec::to_json`] — kind name plus its size parameters.
/// Public so axis codecs (e.g. a design-space serialiser) can emit a
/// single workload value in the canonical spec shape.
///
/// ```
/// use edc_core::experiment::workload_to_json;
/// use edc_workloads::WorkloadKind;
///
/// let json = workload_to_json(&WorkloadKind::Crc16(64));
/// assert_eq!(json.to_string(), r#"{"kind":"crc16","n":64}"#);
/// ```
pub fn workload_to_json(workload: &WorkloadKind) -> crate::json::Json {
    use crate::json::Json;
    let mut pairs = vec![("kind", Json::Str(workload.name().into()))];
    match *workload {
        WorkloadKind::BusyLoop(n)
        | WorkloadKind::Crc16(n)
        | WorkloadKind::DotProduct(n)
        | WorkloadKind::Fourier(n)
        | WorkloadKind::InsertionSort(n)
        | WorkloadKind::PrimeSieve(n)
        | WorkloadKind::RadixFft(n)
        | WorkloadKind::RunLength(n) => pairs.push(("n", Json::Uint(n as u64))),
        WorkloadKind::FirFilter { n, taps } => {
            pairs.push(("n", Json::Uint(n as u64)));
            pairs.push(("taps", Json::Uint(taps as u64)));
        }
        WorkloadKind::SensePipeline { windows, samples } => {
            pairs.push(("windows", Json::Uint(windows as u64)));
            pairs.push(("samples", Json::Uint(samples as u64)));
        }
        WorkloadKind::Endless | WorkloadKind::MatMul => {}
    }
    Json::obj(pairs)
}

/// Decodes the workload object emitted by [`workload_to_json`] — the
/// inverse codec, public for the same axis-serialisation callers.
///
/// # Errors
///
/// Returns the first shape mismatch or unknown kind name.
///
/// ```
/// use edc_core::experiment::{workload_from_json, workload_to_json};
/// use edc_workloads::WorkloadKind;
///
/// let round = workload_from_json(&workload_to_json(&WorkloadKind::MatMul))?;
/// assert_eq!(round, WorkloadKind::MatMul);
/// # Ok::<(), &'static str>(())
/// ```
pub fn workload_from_json(json: &crate::json::Json) -> Result<WorkloadKind, &'static str> {
    use crate::json::Json;
    let uint16 = |key: &str| match json.get(key) {
        Some(Json::Uint(u)) if *u <= u16::MAX as u64 => Some(*u as u16),
        _ => None,
    };
    let Some(Json::Str(kind)) = json.get("kind") else {
        return Err("workload missing 'kind'");
    };
    match kind.as_str() {
        "busy-loop" => Ok(WorkloadKind::BusyLoop(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "crc16" => Ok(WorkloadKind::Crc16(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "dot-product" => Ok(WorkloadKind::DotProduct(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "endless" => Ok(WorkloadKind::Endless),
        "fir-filter" => Ok(WorkloadKind::FirFilter {
            n: uint16("n").ok_or("workload missing 'n'")?,
            taps: uint16("taps").ok_or("fir-filter missing 'taps'")?,
        }),
        "fourier" => Ok(WorkloadKind::Fourier(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "insertion-sort" => Ok(WorkloadKind::InsertionSort(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "matmul-8x8" => Ok(WorkloadKind::MatMul),
        "prime-sieve" => Ok(WorkloadKind::PrimeSieve(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "radix2-fft" => Ok(WorkloadKind::RadixFft(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "rle" => Ok(WorkloadKind::RunLength(
            uint16("n").ok_or("workload missing 'n'")?,
        )),
        "sense-pipeline" => Ok(WorkloadKind::SensePipeline {
            windows: uint16("windows").ok_or("sense-pipeline missing 'windows'")?,
            samples: uint16("samples").ok_or("sense-pipeline missing 'samples'")?,
        }),
        _ => Err("unknown workload kind"),
    }
}

/// The parameters [`ExperimentSpec`] and [`Experiment`] share besides
/// their components, checked in one place so both reject the same values.
#[derive(Clone, Copy)]
struct Params {
    topology: Topology,
    decoupling: Farads,
    timestep: Seconds,
    /// Checked when `Some`; [`Experiment::build`] sets `None` (nothing
    /// runs) and [`Experiment::run`] its argument.
    deadline: Option<Seconds>,
    leakage: Option<Ohms>,
    trace: Option<u64>,
    telemetry: TelemetryKind,
}

impl Params {
    /// Every violated constraint, in [`ExperimentSpec::violations`] order.
    fn violations(&self) -> Vec<BuildError> {
        let mut out = Vec::new();
        if !(self.timestep.0 > 0.0 && self.timestep.0.is_finite()) {
            out.push(BuildError::InvalidTimestep(self.timestep.0));
        }
        if !(self.decoupling.0 > 0.0 && self.decoupling.0.is_finite()) {
            out.push(BuildError::InvalidDecoupling(self.decoupling.0));
        }
        if let Topology::Buffered {
            storage,
            efficiency,
        } = self.topology
        {
            if !(storage.0 >= 0.0 && storage.0.is_finite()) {
                out.push(BuildError::InvalidStorage(storage.0));
            }
            if !(efficiency > 0.0 && efficiency <= 1.0) {
                out.push(BuildError::InvalidEfficiency(efficiency));
            }
        }
        if let Some(r) = self.leakage {
            if !(r.0 > 0.0 && r.0.is_finite()) {
                out.push(BuildError::InvalidLeakage(r.0));
            }
        }
        if self.trace == Some(0) {
            out.push(BuildError::InvalidTrace);
        }
        if let Err(e) = self.telemetry.validate() {
            out.push(BuildError::InvalidTelemetry(e));
        }
        if let Some(deadline) = self.deadline {
            if !(deadline.0 > 0.0 && deadline.0.is_finite()) {
                out.push(BuildError::InvalidDeadline(deadline.0));
            }
        }
        out
    }
}

/// The fallible wiring layer: `build`/`run` return [`BuildError`] instead
/// of panicking, and kinds from the registries plug in next to custom
/// boxed sources, strategies and workloads. Telemetry is always selected
/// by [`TelemetryKind`].
pub struct Experiment<'a> {
    source: Option<Box<dyn EnergySource + 'a>>,
    rectifier: Option<Rectifier>,
    strategy: Option<Box<dyn Strategy + 'a>>,
    workload: Option<Box<dyn Workload + 'a>>,
    params: Params,
    metrics: Option<edc_metrics::Registry>,
}

impl<'a> Experiment<'a> {
    /// Starts an empty experiment with Fig. 4 defaults (direct topology,
    /// 10 µF decoupling, 20 µs timestep).
    pub fn new() -> Self {
        Self {
            source: None,
            rectifier: None,
            strategy: None,
            workload: None,
            params: Params {
                topology: Topology::Direct,
                decoupling: Farads::from_micro(10.0),
                timestep: Seconds(20e-6),
                deadline: None,
                leakage: None,
                trace: None,
                telemetry: TelemetryKind::Null,
            },
            metrics: None,
        }
    }

    /// An experiment with every component instantiated from `spec`'s kind
    /// registries. A trace-backed source, whose samples live in a
    /// [`TraceCatalog`], builds as a dead source; use
    /// [`Experiment::from_spec_in`] for those.
    pub fn from_spec(spec: &ExperimentSpec) -> Experiment<'static> {
        Self::from_spec_in(spec, &TraceCatalog::new())
    }

    /// An experiment with every component instantiated from `spec`'s kind
    /// registries, resolving trace-backed sources through `catalog`.
    ///
    /// # Panics
    ///
    /// Panics when the spec's kind parameters are invalid; call
    /// [`ExperimentSpec::validate_in`] first to get violations as values
    /// (as [`ExperimentSpec::build_in`] does), including a trace handle
    /// that does not resolve (built anyway, it is a dead source).
    pub fn from_spec_in(spec: &ExperimentSpec, catalog: &TraceCatalog) -> Experiment<'static> {
        Experiment {
            source: Some(spec.source.make_in(catalog)),
            rectifier: spec.rectifier,
            strategy: Some(spec.strategy.make()),
            workload: Some(spec.workload.make()),
            params: spec.params(),
            metrics: None,
        }
    }

    /// The energy source (required).
    ///
    /// # Deprecation: recorded traces belong in the [`TraceCatalog`]
    ///
    /// This boxed override predates the trace catalog and used to be the
    /// *only* way to run a recorded `P_h(t)` series. For recorded traces
    /// it is now a legacy side door — a boxed source is invisible to
    /// sweeps, `SpecSpace` searches and spec JSON. It keeps working, but
    /// migrate trace harnesses to the spec-driven path:
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// // Before: Experiment::new().source(TracePlayback::from_power_series(...))
    /// // After: register once, then name the recording in plain spec data.
    /// let mut catalog = TraceCatalog::new();
    /// let site = catalog
    ///     .register("site-a", vec![(0.0, 1e-3), (0.5, 3e-3), (1.0, 2e-3)])
    ///     .expect("valid trace");
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Trace { id: site, decimate: 1, looped: true },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Crc16(64),
    /// )
    /// .deadline(Seconds(5.0));
    /// assert!(spec.run_in(&catalog).expect("assembles").succeeded());
    /// ```
    ///
    /// The reports are byte-identical between the two paths; the spec path
    /// additionally composes with sweeps, `SpecSpace` axes and fleet
    /// fields. Custom *synthetic* sources (one-off models) remain
    /// this method's legitimate use.
    pub fn source(mut self, s: impl EnergySource + 'a) -> Self {
        self.source = Some(Box::new(s));
        self
    }

    /// Shorthand for [`Experiment::source`] via the kind registry. Panics
    /// for invalid kinds, and builds trace-backed kinds as a dead source;
    /// run those through [`ExperimentSpec::build_in`].
    pub fn source_kind(mut self, kind: SourceKind) -> Self {
        // Already boxed: stored as is rather than boxed a second time.
        self.source = Some(kind.make_in(&TraceCatalog::new()));
        self
    }

    /// Adds a rectifier stage in front of the node.
    pub fn rectifier(mut self, r: Rectifier) -> Self {
        self.rectifier = Some(r);
        self
    }

    /// Selects the energy-subsystem topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.params.topology = t;
        self
    }

    /// Overrides the decoupling capacitance.
    pub fn decoupling(mut self, c: Farads) -> Self {
        self.params.decoupling = c;
        self
    }

    /// The checkpoint strategy (required).
    pub fn strategy(mut self, s: Box<dyn Strategy + 'a>) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Shorthand for [`Experiment::strategy`] via the kind registry.
    pub fn strategy_kind(self, kind: StrategyKind) -> Self {
        self.strategy(kind.make())
    }

    /// The workload (required).
    pub fn workload(mut self, w: Box<dyn Workload + 'a>) -> Self {
        self.workload = Some(w);
        self
    }

    /// Shorthand for [`Experiment::workload`] via the kind registry.
    pub fn workload_kind(self, kind: WorkloadKind) -> Self {
        self.workload(kind.make())
    }

    /// Overrides the simulation timestep.
    pub fn timestep(mut self, dt: Seconds) -> Self {
        self.params.timestep = dt;
        self
    }

    /// Adds a board-leakage path across the supply rail.
    pub fn leakage(mut self, r: Ohms) -> Self {
        self.params.leakage = Some(r);
        self
    }

    /// Enables `V_cc`/frequency tracing with the given decimation.
    pub fn trace(mut self, decimation: u64) -> Self {
        self.params.trace = Some(decimation);
        self
    }

    /// Selects the telemetry sink for the run; its contents come back as
    /// [`SystemReport::telemetry`].
    pub fn telemetry(mut self, kind: TelemetryKind) -> Self {
        self.params.telemetry = kind;
        self
    }

    /// Records runner lifecycle counters into `registry` instead of the
    /// process-global [`edc_metrics::global`] registry. The report itself
    /// is unaffected — metrics are an aggregate side channel, exactly like
    /// telemetry sinks are a per-run one.
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Assembles the system.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when a required component is missing or a
    /// physical parameter is out of range.
    pub fn build(self) -> Result<System<'a>, BuildError> {
        self.assemble(None)
    }

    /// Assembles, then runs to completion or `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if assembly fails or the deadline is invalid.
    pub fn run(self, deadline: Seconds) -> Result<SystemReport, BuildError> {
        Ok(self.assemble(Some(deadline))?.run(deadline))
    }

    fn assemble(self, deadline: Option<Seconds>) -> Result<System<'a>, BuildError> {
        let source = self.source.ok_or(BuildError::MissingSource)?;
        let strategy = self.strategy.ok_or(BuildError::MissingStrategy)?;
        let workload = self.workload.ok_or(BuildError::MissingWorkload)?;
        let params = Params {
            deadline,
            ..self.params
        };
        if let Some(e) = params.violations().into_iter().next() {
            return Err(e);
        }
        let (capacitance, efficiency) = match params.topology {
            Topology::Direct => (params.decoupling, 1.0),
            Topology::Buffered {
                storage,
                efficiency,
            } => (storage + params.decoupling, efficiency),
        };
        let strategy_name = strategy.name().to_string();
        let mut builder = TransientRunner::builder()
            .capacitance(capacitance)
            .timestep(params.timestep)
            .strategy(strategy)
            .program(workload.program())
            .source(source)
            .efficiency(efficiency);
        if let Some(r) = self.rectifier {
            builder = builder.rectifier(r);
        }
        if let Some(d) = params.trace {
            builder = builder.trace(d);
        }
        if let Some(r) = params.leakage {
            builder = builder.leakage(r);
        }
        Ok(System {
            runner: builder.telemetry(params.telemetry).build()?,
            workload,
            strategy_name,
            metrics: self.metrics,
        })
    }
}

impl Default for Experiment<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// A built experiment: the transient runner wired to its workload verifier.
pub struct System<'a> {
    runner: TransientRunner<'a>,
    workload: Box<dyn Workload + 'a>,
    strategy_name: String,
    metrics: Option<edc_metrics::Registry>,
}

impl<'a> System<'a> {
    /// The underlying transient runner (thresholds, stats, `V_cc` traces).
    pub fn runner(&self) -> &TransientRunner<'a> {
        &self.runner
    }

    /// Mutable access to the runner, e.g. for `run_for` horizons.
    pub fn runner_mut(&mut self) -> &mut TransientRunner<'a> {
        &mut self.runner
    }

    /// The workload being executed.
    pub fn workload(&self) -> &dyn Workload {
        &*self.workload
    }

    /// The strategy's display name.
    pub fn strategy_name(&self) -> &str {
        &self.strategy_name
    }

    /// The current `(V_H, V_R)` comparator thresholds.
    pub fn thresholds(&self) -> (Volts, Volts) {
        self.runner.thresholds()
    }

    /// Verifies the workload's persisted results against its golden model.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the program has not halted or its
    /// outputs disagree with the golden model.
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.workload.verify(self.runner.mcu())
    }

    /// Redirects this system's runner lifecycle counters into `registry`
    /// (the default is the process-global [`edc_metrics::global`] one).
    pub fn set_metrics(&mut self, registry: edc_metrics::Registry) {
        self.metrics = Some(registry);
    }

    /// Runs to completion or `deadline` and reports, recording the run's
    /// lifecycle counters (ticks, instruction retirements, brownouts,
    /// snapshot/restore counts, cycle-carry activations) into the metrics
    /// registry, labelled by strategy.
    pub fn run(&mut self, deadline: Seconds) -> SystemReport {
        let outcome = self.runner.run_until_complete(deadline);
        self.record_metrics(outcome);
        self.report(outcome)
    }

    /// Records the final [`RunnerStats`](edc_transient::RunnerStats) into
    /// the configured (or global) metrics registry. Counters are pure
    /// functions of the deterministic simulation, so the exposition stays
    /// byte-stable across serial/parallel/repeated execution.
    fn record_metrics(&self, outcome: RunOutcome) {
        /// `(family, help, labels, increment)`.
        type Row<'l> = (&'l str, &'l str, &'l [(&'l str, &'l str)], u64);
        const SNAPSHOTS: &str = "Snapshot attempts, by whether the copy sealed.";
        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        let stats = self.runner.stats();
        let strategy: &str = &self.strategy_name;
        let by_strategy: &[(&str, &str)] = &[("strategy", strategy)];
        let rows: [Row; 10] = [
            (
                "edc_runner_runs",
                "Transient runs executed.",
                by_strategy,
                1,
            ),
            (
                "edc_runner_ticks",
                "Simulation timesteps advanced.",
                by_strategy,
                stats.ticks,
            ),
            (
                "edc_runner_instructions",
                "Instructions retired by workloads.",
                by_strategy,
                stats.instructions,
            ),
            (
                "edc_runner_brownouts",
                "Rail collapses below V_min while the machine was up.",
                by_strategy,
                stats.brownouts,
            ),
            (
                "edc_runner_snapshots",
                SNAPSHOTS,
                &[("strategy", strategy), ("sealed", "true")],
                stats.snapshots,
            ),
            (
                "edc_runner_snapshots",
                SNAPSHOTS,
                &[("strategy", strategy), ("sealed", "false")],
                stats.torn_snapshots,
            ),
            (
                "edc_runner_restores",
                "Successful snapshot restores.",
                by_strategy,
                stats.restores,
            ),
            ("edc_runner_boots", "Cold boots.", by_strategy, stats.boots),
            (
                "edc_runner_cycle_carry_activations",
                "Ticks that banked their whole cycle budget for a starved \
                 head instruction.",
                by_strategy,
                stats.carry_activations,
            ),
            (
                "edc_runner_completions",
                "Runs whose workload completed by the deadline.",
                by_strategy,
                1,
            ),
        ];
        // A zero completions series would change the exposition, so that
        // counter (the last row) is registered only for completed runs.
        let registered = rows.len() - usize::from(outcome != RunOutcome::Completed);
        for (name, help, labels, value) in &rows[..registered] {
            registry.counter(name, help, labels).inc_by(*value);
        }
    }

    /// Runs for a fixed duration regardless of completion (throughput
    /// probes over non-terminating workloads).
    pub fn run_for(&mut self, duration: Seconds) {
        self.runner.run_for(duration);
    }

    /// Snapshot of the books as a [`SystemReport`] for the given outcome.
    pub fn report(&self, outcome: RunOutcome) -> SystemReport {
        SystemReport {
            outcome,
            stats: self.runner.stats(),
            verification: if outcome == RunOutcome::Completed {
                self.verify()
            } else {
                Err(VerifyError::NotCompleted)
            },
            strategy: self.strategy_name.clone(),
            workload: self.workload.name().to_string(),
            telemetry: self.runner.telemetry().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_harvest::DcSupply;
    use edc_transient::Restart;
    use edc_units::Volts;
    use edc_workloads::BusyLoop;

    #[test]
    fn missing_components_are_reported_not_panicked() {
        assert_eq!(
            Experiment::new().build().err(),
            Some(BuildError::MissingSource)
        );
        assert_eq!(
            Experiment::new()
                .source(DcSupply::new(Volts(3.3)))
                .build()
                .err(),
            Some(BuildError::MissingStrategy)
        );
        assert_eq!(
            Experiment::new()
                .source(DcSupply::new(Volts(3.3)))
                .strategy(Box::new(Restart::new()))
                .build()
                .err(),
            Some(BuildError::MissingWorkload)
        );
    }

    #[test]
    fn runner_build_errors_surface_as_build_errors() {
        let mapped = [
            (
                RunnerBuildError::MissingStrategy,
                BuildError::MissingStrategy,
            ),
            (
                RunnerBuildError::MissingProgram,
                BuildError::MissingWorkload,
            ),
            (RunnerBuildError::MissingSource, BuildError::MissingSource),
            (
                RunnerBuildError::InvalidEfficiency(0.0),
                BuildError::InvalidEfficiency(0.0),
            ),
            (
                RunnerBuildError::InvalidEfficiency(1.5),
                BuildError::InvalidEfficiency(1.5),
            ),
        ];
        for (runner, build) in mapped.clone() {
            assert_eq!(BuildError::from(runner), build);
        }
        // The same five cases through `Experiment::build`.
        let source = || DcSupply::new(Volts(3.3));
        let restart = || Box::new(Restart::new());
        let busy = || Box::new(BusyLoop::new(10));
        let buffered = |efficiency| Topology::Buffered {
            storage: Farads::from_milli(1.0),
            efficiency,
        };
        let built = [
            Experiment::new().source(source()).workload(busy()).build(),
            Experiment::new()
                .source(source())
                .strategy(restart())
                .build(),
            Experiment::new()
                .strategy(restart())
                .workload(busy())
                .build(),
            Experiment::new()
                .source(source())
                .strategy(restart())
                .workload(busy())
                .topology(buffered(0.0))
                .build(),
            Experiment::new()
                .source(source())
                .strategy(restart())
                .workload(busy())
                .topology(buffered(1.5))
                .build(),
        ];
        for ((_, want), got) in mapped.into_iter().zip(built) {
            assert_eq!(got.err(), Some(want));
        }
    }

    #[test]
    fn invalid_parameters_are_reported() {
        let base = || {
            Experiment::new()
                .source(DcSupply::new(Volts(3.3)))
                .strategy(Box::new(Restart::new()))
                .workload(Box::new(BusyLoop::new(10)))
        };
        assert_eq!(
            base().timestep(Seconds(0.0)).build().err(),
            Some(BuildError::InvalidTimestep(0.0))
        );
        assert_eq!(
            base().decoupling(Farads(-1.0)).build().err(),
            Some(BuildError::InvalidDecoupling(-1.0))
        );
        assert_eq!(
            base()
                .topology(Topology::Buffered {
                    storage: Farads::from_milli(1.0),
                    efficiency: 1.5,
                })
                .build()
                .err(),
            Some(BuildError::InvalidEfficiency(1.5))
        );
        assert_eq!(
            base().run(Seconds(-2.0)).err(),
            Some(BuildError::InvalidDeadline(-2.0))
        );
    }

    #[test]
    fn spec_runs_and_names_its_components() {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(500),
        )
        .deadline(Seconds(1.0));
        let report = spec.run().expect("complete spec runs");
        assert!(report.succeeded());
        assert_eq!(report.strategy, "restart");
        assert_eq!(report.workload, "busy-loop");
        assert_eq!(spec.label(), "dc/restart/busy-loop");
    }

    #[test]
    fn custom_components_mix_with_kinds() {
        let report = Experiment::new()
            .source(DcSupply::new(Volts(3.3)).with_resistance(Ohms(10.0)))
            .strategy_kind(StrategyKind::Hibernus)
            .workload_kind(WorkloadKind::Crc16(64))
            .run(Seconds(5.0))
            .expect("assembles");
        assert!(report.succeeded());
        assert_eq!(report.strategy, "hibernus");
    }

    #[test]
    fn build_errors_display_helpfully() {
        assert!(BuildError::MissingSource.to_string().contains("source"));
        assert!(BuildError::InvalidEfficiency(1.5)
            .to_string()
            .contains("1.5"));
        assert!(BuildError::InvalidDeadline(-2.0).to_string().contains("-2"));
    }
}
