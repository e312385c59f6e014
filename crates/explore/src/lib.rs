//! `edc-explore`: deterministic design-space exploration and auto-tuning
//! over experiment specs.
//!
//! The paper's core claim is that energy-driven systems must be
//! *co-designed*: storage size, wake/hibernate thresholds and workload
//! choice trade off against completion time and brownout behaviour. The
//! rest of the workspace can *run what you specify* (one spec, or a fixed
//! spec list through the sweep engine's
//! [`run_specs_timed_in`](edc_bench::sweep::run_specs_timed_in)); this
//! crate *finds the design*:
//!
//! - [`SpecSpace`] — typed axes over [`ExperimentSpec`]: source, workload
//!   and strategy kinds, decoupling capacitance, timestep, board leakage
//!   (the workspace's one cartesian spec grid);
//! - [`Objective`] — scalar figures of merit from a run's report (built-ins:
//!   [`CompletionTime`], [`BrownoutCount`], [`P99Outage`],
//!   [`EnergyPerTask`]); several at once yield a [`ParetoFront`];
//! - [`Searcher`]s — [`ExhaustiveGrid`] (delegates to the sweep engine),
//!   seeded [`RandomSearch`], multi-fidelity [`SuccessiveHalving`]
//!   (coarse-timestep prefilter, refine survivors), and greedy
//!   [`CoordinateDescent`] — all funded through one memoised, budgeted,
//!   parallel [`Evaluator`];
//! - [`seed`] — axis ladders anchored at the paper's Eq. (4) closed-form
//!   sizing answers, so searches start where hand analysis ends.
//!
//! **Determinism contract:** an [`ExploreReport`]'s JSON is byte-identical
//! across repeated runs, thread counts, and serial-vs-parallel execution.
//! Wall-clock time never enters the report; harness binaries measure it
//! *around* [`Explorer::run`].
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_explore::{CompletionTime, ExhaustiveGrid, Explorer, SpecSpace};
//! use edc_units::{Farads, Seconds};
//! use edc_workloads::WorkloadKind;
//!
//! let base = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 3.3 },
//!     StrategyKind::Restart,
//!     WorkloadKind::BusyLoop(200),
//! )
//! .deadline(Seconds(1.0));
//! let space = SpecSpace::over(base)
//!     .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)]);
//! let report = Explorer::new()
//!     .objective(CompletionTime)
//!     .run(&space, &ExhaustiveGrid)?;
//! assert_eq!(report.evaluations, 2);
//! assert!(!report.front.is_empty());
//! # Ok::<(), edc_explore::ExploreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluator;
pub mod fleet;
pub mod lint;
pub mod objective;
pub mod pareto;
pub mod search;
pub mod seed;
pub mod serve;
pub mod space;

pub use edc_store::{Store, StoreEntry, StoreError, StoreHandle};
pub use evaluator::{Evaluation, Evaluator, Provenance, TraceEntry};
pub use fleet::{
    FleetBrownoutShortfall, FleetCoverageShortfall, FleetEnergyPerTask, FleetNodesToCover,
    FleetTemplate,
};
pub use lint::lint_space;
pub use objective::{
    objective_by_name, BrownoutCount, CompletionTime, EnergyPerTask, Objective, P99Outage,
};
pub use pareto::{dominates, FrontPoint, ParetoFront};
pub use search::{CoordinateDescent, ExhaustiveGrid, RandomSearch, Searcher, SuccessiveHalving};
pub use serve::ServeSession;
pub use space::{Point, SpecSpace, AXES, AXIS_NAMES};

use std::fmt;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{BuildError, ExperimentSpec};
use edc_core::json::Json;
use edc_power::sizing::SizingError;

/// Why an exploration could not run (or finish).
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// A candidate spec failed assembly validation.
    Build(BuildError),
    /// A search-space axis has no values.
    EmptyAxis(&'static str),
    /// The explorer was given no objectives.
    NoObjectives,
    /// The next evaluation batch would exceed the simulation budget.
    BudgetExhausted {
        /// The configured budget, in full-fidelity-equivalent cost units.
        budget: u64,
        /// The cost units the batch would have brought the total to.
        needed: f64,
    },
    /// A sizing-seeded axis rejected its arguments.
    Seed(SizingError),
    /// A searcher's scalarisation weights do not match the objective count.
    WeightCount {
        /// Number of weights supplied.
        weights: usize,
        /// Number of objectives configured on the explorer.
        objectives: usize,
    },
    /// A searcher's start point lies outside the space.
    StartOutOfRange {
        /// The flat start index supplied.
        start: usize,
        /// The space's size.
        size: usize,
    },
    /// The persistent evaluation store failed (I/O, corruption, or a
    /// conflicting duplicate entry).
    Store(edc_store::StoreError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Build(e) => write!(f, "candidate spec invalid: {e}"),
            ExploreError::EmptyAxis(axis) => write!(f, "search-space axis '{axis}' is empty"),
            ExploreError::NoObjectives => f.write_str("at least one objective is required"),
            ExploreError::BudgetExhausted { budget, needed } => write!(
                f,
                "evaluation budget exhausted: {needed} full-fidelity-equivalent \
                 units needed, {budget} allowed"
            ),
            ExploreError::Seed(e) => write!(f, "sizing seed rejected: {e}"),
            ExploreError::WeightCount {
                weights,
                objectives,
            } => write!(
                f,
                "{weights} scalarisation weights for {objectives} objectives"
            ),
            ExploreError::StartOutOfRange { start, size } => {
                write!(f, "start index {start} outside the {size}-point space")
            }
            ExploreError::Store(e) => write!(f, "evaluation store failed: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<edc_store::StoreError> for ExploreError {
    fn from(e: edc_store::StoreError) -> Self {
        ExploreError::Store(e)
    }
}

impl From<BuildError> for ExploreError {
    fn from(e: BuildError) -> Self {
        ExploreError::Build(e)
    }
}

impl From<SizingError> for ExploreError {
    fn from(e: SizingError) -> Self {
        ExploreError::Seed(e)
    }
}

/// The exploration driver: objectives + resource limits, reusable across
/// spaces and searchers.
pub struct Explorer {
    objectives: Vec<Box<dyn Objective>>,
    threads: Option<usize>,
    budget: Option<u64>,
    catalog: TraceCatalog,
    prefilter: bool,
    bound: bool,
    metrics: Option<edc_metrics::Registry>,
    store: Option<edc_store::StoreHandle>,
}

impl Explorer {
    /// An explorer with no objectives yet (add at least one).
    pub fn new() -> Self {
        Self {
            objectives: Vec::new(),
            threads: None,
            budget: None,
            catalog: TraceCatalog::new(),
            prefilter: false,
            bound: false,
            metrics: None,
            store: None,
        }
    }

    /// Supplies the trace catalog that
    /// [`SourceKind::Trace`](edc_core::scenarios::SourceKind::Trace) axis
    /// values resolve through, so searches can enumerate recorded power
    /// profiles next to synthetic ones. Spaces without trace sources never
    /// need one.
    pub fn catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Adds an objective; order fixes the score order everywhere
    /// (dominance, report JSON, scalarisation weights).
    pub fn objective(mut self, o: impl Objective + 'static) -> Self {
        self.objectives.push(Box::new(o));
        self
    }

    /// Caps the worker count (defaults to the machine's parallelism).
    /// Thread count never affects results, only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Caps the search's total simulation cost, in full-fidelity-equivalent
    /// units (a run at a `k×`-coarsened timestep costs `1/k`, the same
    /// currency as [`ExploreReport::cost_units`]). A budget of `N` admits
    /// exactly an `N`-point exhaustive grid at full fidelity.
    pub fn budget(mut self, max_cost_units: u64) -> Self {
        self.budget = Some(max_cost_units);
        self
    }

    /// Enables the static lint prefilter
    /// ([`Evaluator::with_prefilter`]): candidates `edc-lint` proves
    /// infeasible (`E`-severity diagnostics) are scored with the
    /// objectives' DNF values instead of being simulated. Fronts and every
    /// score are unchanged — only the simulation cost drops; prefilter
    /// work is reported separately under `lint` in the report JSON.
    pub fn prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// Enables branch-and-bound dominance pruning
    /// ([`Evaluator::with_bound`]): every cache miss gets a static score
    /// *lower-bound* vector from the shared interval engine
    /// ([`edc_bound::Bounder`]), misses are simulated in fixed
    /// input-order chunks, and a pending miss dominated at its lower
    /// bounds by an already-simulated score is cached at those bounds
    /// without simulating. For an exhaustive grid the Pareto front is
    /// provably unchanged (every incumbent is a final candidate, and a
    /// candidate dominated at its optimistic bounds is dominated at its
    /// true scores); pruning work is reported under `bound` in the
    /// report JSON.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_explore::{BrownoutCount, CompletionTime, ExhaustiveGrid, Explorer, SpecSpace};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// let base = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::BusyLoop(100),
    /// )
    /// .deadline(Seconds(0.05));
    /// let space = SpecSpace::over(base)
    ///     .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 1.5 }]);
    /// let report = Explorer::new()
    ///     .objective(CompletionTime)
    ///     .objective(BrownoutCount) // no DNF score — the lint prefilter abstains
    ///     .bound(true)
    ///     .run(&space, &ExhaustiveGrid)?;
    /// assert_eq!(report.bound_checks, 2);
    /// # Ok::<(), edc_explore::ExploreError>(())
    /// ```
    pub fn bound(mut self, on: bool) -> Self {
        self.bound = on;
        self
    }

    /// Routes the search's process metrics (the evaluator's per-phase
    /// counters plus the sweep- and runner-level counters of every miss
    /// batch; see [`Evaluator::with_metrics`]) into `registry` instead of
    /// the process-wide [`edc_metrics::global`] registry.
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Connects a persistent evaluation store
    /// ([`Evaluator::with_store`]): memo-cache misses found in the store
    /// are served at zero simulation cost, and every simulated miss is
    /// written back — so repeated searches over overlapping spaces
    /// warm-start across processes with byte-identical fronts. The
    /// report gains a `store` JSON section; store-less reports keep
    /// their exact byte shape.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_explore::{CompletionTime, ExhaustiveGrid, Explorer, SpecSpace};
    /// use edc_store::Store;
    /// use edc_units::{Farads, Seconds};
    /// use edc_workloads::WorkloadKind;
    ///
    /// let dir = std::env::temp_dir().join("edc-explorer-doc-store");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let base = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::BusyLoop(120),
    /// )
    /// .deadline(Seconds(1.0));
    /// let space = SpecSpace::over(base)
    ///     .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)]);
    ///
    /// let cold = Explorer::new()
    ///     .objective(CompletionTime)
    ///     .store(Store::open(&dir)?.into_handle())
    ///     .run(&space, &ExhaustiveGrid)?;
    /// assert_eq!((cold.evaluations, cold.store_hits), (2, 0));
    ///
    /// // A fresh process over the same space simulates nothing.
    /// let warm = Explorer::new()
    ///     .objective(CompletionTime)
    ///     .store(Store::open(&dir)?.into_handle())
    ///     .run(&space, &ExhaustiveGrid)?;
    /// assert_eq!((warm.evaluations, warm.store_hits), (0, 2));
    /// assert_eq!(
    ///     warm.front.to_json(&warm.objectives).to_string(),
    ///     cold.front.to_json(&cold.objectives).to_string(),
    /// );
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn store(mut self, store: edc_store::StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Explores `space` with `searcher` and reports the front.
    ///
    /// # Errors
    ///
    /// [`ExploreError::NoObjectives`] without objectives, axis/spec
    /// validation failures, or budget exhaustion mid-search.
    pub fn run(
        &self,
        space: &SpecSpace,
        searcher: &dyn Searcher,
    ) -> Result<ExploreReport, ExploreError> {
        if self.objectives.is_empty() {
            return Err(ExploreError::NoObjectives);
        }
        space.validate_in(&self.catalog)?;
        let threads = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        let mut eval = Evaluator::new(
            &self.objectives,
            threads,
            self.budget,
            space.finest_timestep(),
        )
        .with_catalog(self.catalog.clone())
        .with_reference_deadline(space.base().deadline)
        .with_prefilter(self.prefilter)
        .with_bound(self.bound);
        if let Some(registry) = &self.metrics {
            eval = eval.with_metrics(registry.clone());
        }
        if let Some(store) = &self.store {
            eval = eval.with_store(store.clone());
        }
        let finals = searcher.search(space, &mut eval)?;
        let front = ParetoFront::from_evaluations(&finals);
        Ok(ExploreReport {
            searcher: searcher.name().to_string(),
            objectives: self
                .objectives
                .iter()
                .map(|o| o.name().to_string())
                .collect(),
            space: space.clone(),
            evaluations: eval.simulations(),
            cache_hits: eval.cache_hits(),
            cost_units: eval.cost_units(),
            prefilter: self.prefilter,
            lint_checks: eval.lint_checks(),
            lint_pruned: eval.lint_pruned(),
            bound: self.bound,
            bound_checks: eval.bound_checks(),
            bound_pruned: eval.bound_pruned(),
            store: self.store.is_some(),
            store_hits: eval.store_hits(),
            front,
            trace: eval.into_trace(),
        })
    }
}

impl Default for Explorer {
    fn default() -> Self {
        Self::new()
    }
}

/// A finished exploration: what was searched, what it cost, what won.
///
/// Serialisation is **byte-stable**: identical searches (same space,
/// objectives, searcher, seed) produce identical JSON regardless of thread
/// count or repetition. Wall-clock time is deliberately absent.
#[derive(Debug)]
pub struct ExploreReport {
    /// The searcher's name.
    pub searcher: String,
    /// Objective names, in score order.
    pub objectives: Vec<String>,
    /// The space that was searched.
    pub space: SpecSpace,
    /// Simulations actually run (cache misses).
    pub evaluations: u64,
    /// Evaluation requests served by the memo cache.
    pub cache_hits: u64,
    /// Full-fidelity-equivalent simulation cost (coarse rungs cost
    /// fractionally; see [`Evaluator::cost_units`]).
    pub cost_units: f64,
    /// Whether the static lint prefilter was enabled for this search.
    pub prefilter: bool,
    /// Specs the lint prefilter examined (0 when disabled).
    pub lint_checks: u64,
    /// Specs the prefilter scored statically instead of simulating.
    pub lint_pruned: u64,
    /// Whether branch-and-bound dominance pruning was enabled.
    pub bound: bool,
    /// Cache misses branch-and-bound examined for static lower bounds
    /// (0 when disabled).
    pub bound_checks: u64,
    /// Cache misses branch-and-bound dominance-pruned without simulating.
    pub bound_pruned: u64,
    /// Whether a persistent evaluation store was connected.
    pub store: bool,
    /// Memo-cache misses served by the persistent store at zero cost.
    pub store_hits: u64,
    /// The non-dominated designs among the searcher's final candidates.
    pub front: ParetoFront,
    /// Every evaluation request, in order.
    pub trace: Vec<TraceEntry>,
}

impl ExploreReport {
    /// Fraction of evaluation requests the memo cache absorbed.
    pub fn cache_hit_rate(&self) -> f64 {
        let requests = self.evaluations + self.cache_hits;
        if requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / requests as f64
        }
    }

    /// The best design under the deterministic front order, if any
    /// candidate was evaluated.
    pub fn best(&self) -> Option<&FrontPoint> {
        self.front.points().first()
    }

    /// The report as a JSON value with deterministic field order. The
    /// `lint` section only appears when the prefilter was enabled, so
    /// reports from prefilter-free searches are byte-identical to those of
    /// earlier versions.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("searcher", Json::Str(self.searcher.clone())),
            (
                "objectives",
                Json::Arr(
                    self.objectives
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("space", self.space.to_json()),
            ("evaluations", Json::Uint(self.evaluations)),
            ("cache_hits", Json::Uint(self.cache_hits)),
            ("cache_hit_rate", Json::Num(self.cache_hit_rate())),
            ("cost_units", Json::Num(self.cost_units)),
        ];
        if self.prefilter {
            fields.push((
                "lint",
                Json::obj(vec![
                    ("checks", Json::Uint(self.lint_checks)),
                    ("pruned", Json::Uint(self.lint_pruned)),
                ]),
            ));
        }
        if self.bound {
            fields.push((
                "bound",
                Json::obj(vec![
                    ("checks", Json::Uint(self.bound_checks)),
                    ("pruned", Json::Uint(self.bound_pruned)),
                ]),
            ));
        }
        if self.store {
            fields.push((
                "store",
                Json::obj(vec![("hits", Json::Uint(self.store_hits))]),
            ));
        }
        fields.push(("front", self.front.to_json(&self.objectives)));
        fields.push((
            "trace",
            Json::Arr(
                self.trace
                    .iter()
                    .map(|t| trace_json(t, &self.objectives))
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }
}

/// One trace entry as JSON (scores keyed by objective name; non-finite
/// scores emit as `null`). `cached` is whether the memo cache served the
/// request; a `pruned`, `bound_pruned` or `store` key appears only on
/// entries with that [`Provenance`], keeping prefilter-, bound- and
/// store-free trace JSON unchanged.
fn trace_json(t: &TraceEntry, objectives: &[String]) -> Json {
    let mut fields = vec![
        ("phase", Json::Str(t.phase.clone())),
        ("spec", t.spec.to_json()),
        (
            "scores",
            Json::Obj(
                objectives
                    .iter()
                    .cloned()
                    .zip(t.scores.iter().map(|&s| Json::Num(s)))
                    .collect(),
            ),
        ),
        ("cached", Json::Bool(t.provenance == Provenance::Memo)),
    ];
    match t.provenance {
        Provenance::Lint => fields.push(("pruned", Json::Bool(true))),
        Provenance::Bound => fields.push(("bound_pruned", Json::Bool(true))),
        Provenance::Store => fields.push(("store", Json::Bool(true))),
        Provenance::Memo | Provenance::Simulated => {}
    }
    Json::obj(fields)
}

/// Re-exported spec type, so downstream callers can name candidate specs
/// without importing `edc-core` directly.
pub type Spec = ExperimentSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_units::{Farads, Seconds};
    use edc_workloads::WorkloadKind;

    fn space() -> SpecSpace {
        let base = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(150),
        )
        .deadline(Seconds(1.0));
        SpecSpace::over(base)
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .decoupling(&[Farads::from_micro(10.0), Farads::from_micro(22.0)])
    }

    #[test]
    fn explorer_requires_objectives() {
        let err = Explorer::new()
            .run(&space(), &ExhaustiveGrid)
            .expect_err("no objectives");
        assert_eq!(err, ExploreError::NoObjectives);
        assert!(err.to_string().contains("objective"));
    }

    #[test]
    fn exhaustive_report_accounts_for_every_point() {
        let report = Explorer::new()
            .objective(CompletionTime)
            .objective(BrownoutCount)
            .threads(2)
            .run(&space(), &ExhaustiveGrid)
            .expect("explores");
        assert_eq!(report.evaluations, 4);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.trace.len(), 4);
        assert!(!report.front.is_empty());
        assert!(report.best().is_some());
        let json = report.to_json().to_string();
        for key in ["searcher", "objectives", "space", "front", "trace"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert_eq!(
            Json::parse(&json).expect("valid JSON").to_string(),
            json,
            "parse → emit round-trips byte-identically"
        );
    }

    #[test]
    fn budget_errors_surface_from_run() {
        let err = Explorer::new()
            .objective(CompletionTime)
            .budget(2)
            .run(&space(), &ExhaustiveGrid)
            .expect_err("4 > 2");
        assert!(matches!(
            err,
            ExploreError::BudgetExhausted { budget: 2, .. }
        ));
    }
}
