//! The shared evaluation engine: memoised, budgeted, parallel.
//!
//! Every searcher funds its simulations through one [`Evaluator`]. An
//! [`Evaluator::evaluate`] call **canonicalises** each candidate spec
//! (forcing stats telemetry when an objective needs it) and keys its memo
//! cache, store lookups and store writes on the spec's one
//! [`SpecKey`], so the same design is never
//! simulated twice — within a search *or* across rungs of different
//! fidelity (the timestep is part of the key). The call's cache misses,
//! first occurrence only and in input order, then pass through three
//! stages, each handed the misses still unresolved and returning the ones
//! it could not resolve:
//!
//! 1. **store** — a connected persistent store serves the misses it holds
//!    at zero cost ([`Evaluator::with_store`]);
//! 2. **lint** — the static prefilter scores provably infeasible specs
//!    without simulating them ([`Evaluator::with_prefilter`]);
//! 3. **simulate** — the rest **fan out** across scoped worker threads
//!    via the sweep engine's [`run_specs_timed_metered`], whose results
//!    come back in input order, so thread count affects wall-clock only,
//!    never results. [`SourceKind::Trace`](edc_core::scenarios::SourceKind::Trace)
//!    candidates resolve through the catalog supplied by
//!    [`Evaluator::with_catalog`]. With branch-and-bound on
//!    ([`Evaluator::with_bound`]) the misses run in fixed chunks, and a
//!    miss dominated at its static lower bounds is settled without
//!    running.
//!
//! The simulate stage **enforces the budget**: a batch (or, with
//! branch-and-bound, a chunk) whose misses would exceed the configured
//! cost ceiling (in full-fidelity-equivalent units) fails with
//! [`ExploreError::BudgetExhausted`] before any of them run. Cost per miss
//! is `(reference_dt / dt) × (deadline / reference_deadline) ÷ trace
//! decimation × objective cost scale`: coarse timesteps, shortened rung
//! deadlines and decimated trace sources all charge fractionally, while
//! fleet objectives (which deploy every candidate as a whole population)
//! charge ≈ their node count per miss.
//!
//! Every request is **traced** as one [`TraceEntry`] with its
//! [`Provenance`], in request order, which is what makes
//! [`ExploreReport`](crate::ExploreReport) JSON byte-identical across
//! repeated and serial-vs-parallel runs. Each successful call publishes
//! its counts (requests, misses, cache hits, lint, bound and store work)
//! to the metrics registry under its search phase, and its wall-clock to
//! the quarantined `edc_eval_wall_seconds{phase}` gauge.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;

use edc_bench::sweep::run_specs_timed_metered;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{ExperimentSpec, SpecKey};
use edc_core::TelemetryKind;
use edc_lint::Linter;
use edc_store::StoreHandle;
use edc_units::Seconds;

use crate::objective::Objective;
use crate::pareto::dominates;
use crate::ExploreError;

/// One evaluated candidate: its (canonicalised) spec, the cache key, and
/// one score per objective.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The candidate spec, after canonicalisation.
    pub spec: ExperimentSpec,
    /// The canonicalised spec's key — the memo-cache and store key.
    pub key: SpecKey,
    /// One score per objective, in objective order; lower is better.
    pub scores: Vec<f64>,
}

/// Where a requested point's scores came from. Every request has exactly
/// one provenance: the stage that settled its key when the key was a
/// first-occurrence cache miss of the call, [`Provenance::Memo`] for a
/// later request of a stored or simulated key, and always the static
/// stage for a lint- or bound-pruned key, whose stand-in scores are never
/// served as cache hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The memo cache served the request: an earlier request, in this
    /// call or a previous one, had the key stored or simulated.
    Memo,
    /// The persistent store served the request without simulating, at
    /// zero cost.
    Store,
    /// The lint prefilter scored the candidate statically: it was never
    /// simulated and its scores are the objectives' DNF values (or exact
    /// static brackets).
    Lint,
    /// Branch-and-bound dominance pruned the candidate: it was never
    /// simulated and its scores are its objectives' static lower bounds
    /// (sound optimistic stand-ins; an already-simulated incumbent
    /// dominates even these, so the true scores cannot reach the Pareto
    /// front).
    Bound,
    /// The request's own call simulated the candidate.
    Simulated,
}

/// One trace entry: an evaluation request and where its scores came from.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Which search phase requested the evaluation (e.g. `grid`,
    /// `rung0@16x`, `round1/decoupling`).
    pub phase: String,
    /// The candidate spec.
    pub spec: ExperimentSpec,
    /// One score per objective.
    pub scores: Vec<f64>,
    /// Where the scores came from.
    pub provenance: Provenance,
}

/// A counts row: one [`Evaluator::evaluate`] call's counts, or the
/// evaluator's running totals of them, indexed like [`COUNTERS`].
type Counts = [u64; 9];

const REQUESTS: usize = 0;
/// Misses the store and lint stages left: bound-pruned or simulated.
const MISSES: usize = 1;
const CACHE_HITS: usize = 2;
const LINT_CHECKS: usize = 3;
const LINT_PRUNED: usize = 4;
const BOUND_CHECKS: usize = 5;
const BOUND_PRUNED: usize = 6;
const STORE_HITS: usize = 7;
const STORE_MISSES: usize = 8;

/// Name and help of the per-phase counter each [`Counts`] entry is
/// published as. The two store counters are registered only while a
/// store is connected.
const COUNTERS: [(&str, &str); 9] = [
    (
        "edc_eval_requests",
        "Evaluation requests, per search phase.",
    ),
    (
        "edc_eval_misses",
        "Cache misses left after the store and lint stages (bound-pruned or simulated), per search phase.",
    ),
    (
        "edc_eval_cache_hits",
        "Evaluation requests served by the memo cache, per search phase.",
    ),
    (
        "edc_eval_lint_checks",
        "Cache misses the lint prefilter examined, per search phase.",
    ),
    (
        "edc_eval_lint_pruned",
        "Cache misses the lint prefilter scored statically, per search phase.",
    ),
    (
        "edc_eval_bound_checks",
        "Cache misses branch-and-bound derived static lower bounds for, per search phase.",
    ),
    (
        "edc_eval_bound_pruned",
        "Cache misses branch-and-bound dominance-pruned without simulating, per search phase.",
    ),
    (
        "edc_store_hits",
        "Memo-cache misses served by the persistent store, per search phase.",
    ),
    (
        "edc_store_misses",
        "Memo-cache misses the persistent store could not serve, per search phase.",
    ),
];

/// The memoised, budgeted, parallel evaluation engine.
pub struct Evaluator<'a> {
    objectives: &'a [Box<dyn Objective>],
    force_stats: bool,
    threads: usize,
    budget: Option<u64>,
    reference_dt: Seconds,
    reference_deadline: Option<Seconds>,
    cost_scale: f64,
    catalog: TraceCatalog,
    /// Scores and the stage that settled them, per spec key.
    cache: HashMap<SpecKey, (Vec<f64>, Provenance)>,
    totals: Counts,
    /// Summed miss by miss, so its rounding is that of one running sum.
    cost_units: f64,
    trace: Vec<TraceEntry>,
    prefilter: bool,
    linter: Option<Linter>,
    bound: bool,
    /// Exact score vectors (simulated, stored or statically-exact) that
    /// serve as dominance incumbents for branch-and-bound pruning. Never
    /// contains a bound-pruned candidate's lower-bound stand-in.
    incumbents: Vec<Vec<f64>>,
    metrics: Option<edc_metrics::Registry>,
    store: Option<StoreHandle>,
}

/// Histogram bounds for per-miss simulation cost in
/// full-fidelity-equivalent units: powers of four from a 64×-discounted
/// prefilter run up to a 64-node fleet deployment, `+Inf` beyond.
pub const COST_UNIT_BOUNDS: [f64; 7] = [0.015625, 0.0625, 0.25, 1.0, 4.0, 16.0, 64.0];

/// Chunk size for branch-and-bound evaluation: surviving cache misses are
/// simulated in fixed input-order chunks of this many specs, with a
/// dominance-pruning pass over the remaining misses between chunks.
/// Input-order chunking keeps results thread-independent and repeatable.
const BOUND_CHUNK: usize = 16;

impl<'a> Evaluator<'a> {
    /// An evaluator scoring with `objectives`, fanning cache misses out
    /// over `threads` workers, optionally capped at a `budget` of
    /// full-fidelity-equivalent cost units.
    ///
    /// `reference_dt` is the full-fidelity timestep used to normalise
    /// [`Evaluator::cost_units`] and the budget: a run at
    /// `k × reference_dt` costs `1/k` units, because simulation cost
    /// scales inversely with the timestep. A budget of `N` therefore
    /// admits exactly an `N`-point exhaustive grid at full fidelity, or a
    /// proportionally larger number of cheap coarse runs.
    ///
    /// The scale also reflects what the objectives *do* with each miss:
    /// every cache miss is charged `max` over the objectives of
    /// [`Objective::cost_multiplier`], so a fleet objective that deploys
    /// the candidate as an `n`-node population charges ≈ `n` units where a
    /// single-node objective charges 1.
    pub fn new(
        objectives: &'a [Box<dyn Objective>],
        threads: usize,
        budget: Option<u64>,
        reference_dt: Seconds,
    ) -> Self {
        Self {
            force_stats: objectives.iter().any(|o| o.requires_stats()),
            cost_scale: objectives
                .iter()
                .map(|o| o.cost_multiplier())
                .fold(1.0, f64::max),
            objectives,
            threads: threads.max(1),
            budget,
            reference_dt,
            reference_deadline: None,
            catalog: TraceCatalog::new(),
            cache: HashMap::new(),
            totals: [0; 9],
            cost_units: 0.0,
            trace: Vec::new(),
            prefilter: false,
            linter: None,
            bound: false,
            incumbents: Vec::new(),
            metrics: None,
            store: None,
        }
    }

    /// Supplies the catalog trace-backed candidate specs resolve through.
    pub fn with_catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self.linter = None; // rebuilt lazily against the new catalog
        self
    }

    /// Enables the static lint prefilter: before simulating a cache miss,
    /// the spec is linted ([`Linter::lint_spec`]) and, if any `E`-severity
    /// diagnostic fires, scored with the objectives' [DNF
    /// values](crate::objective::Objective::dnf_score) at zero simulation
    /// cost. Pruning only happens when *every* objective declares a DNF
    /// score — otherwise (brownout counts, outage percentiles) the flagged
    /// candidate is simulated as usual, so enabling the prefilter never
    /// changes any score, only what it costs to obtain them. Lint work is
    /// billed separately ([`Evaluator::lint_checks`] /
    /// [`Evaluator::lint_pruned`]), never against the simulation budget.
    pub fn with_prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// Enables branch-and-bound dominance pruning on top of (and
    /// independently of) the lint prefilter. Before simulating, every
    /// cache miss gets a vector of static score *lower* bounds — one
    /// [`Objective::static_bracket`] `lo` per objective, from the shared
    /// interval engine. Misses are then simulated in fixed input-order
    /// chunks; between chunks, any pending miss whose lower-bound vector
    /// is dominated by an already-exact incumbent score is cached at its
    /// lower bounds without simulating (billed as
    /// [`Evaluator::bound_pruned`]). Sound by construction: the true
    /// score is no better than its lower bound, so a candidate dominated
    /// *at its lower bounds* is dominated at its true scores too and can
    /// never reach the Pareto front.
    ///
    /// With bound pruning enabled, the prefilter can also statically
    /// score `E`-flagged candidates whose objectives lack a constant
    /// [`Objective::dnf_score`] whenever their brackets are *exact*
    /// (e.g. a proven never-boot pins the brownout count to zero).
    ///
    /// Two behavioural caveats versus the plain path, both only when
    /// enabled: a batch is budget-checked chunk by chunk (a mid-batch
    /// exhaustion can leave earlier chunks simulated and charged), and a
    /// bound-pruned candidate's recorded scores are its lower bounds, not
    /// its true scores — fine for front construction (it provably cannot
    /// be on the front), misleading if read as measurements.
    pub fn with_bound(mut self, on: bool) -> Self {
        self.bound = on;
        self
    }

    /// Routes this evaluator's process metrics into `registry` instead of
    /// [`edc_metrics::global`]: per-phase request/hit/miss/lint/bound
    /// (and, with a store, store) counters, a per-miss cost histogram, the
    /// quarantined per-phase `edc_eval_wall_seconds` wall-clock gauge, and
    /// the sweep-layer counters of every miss batch it fans out. Point different evaluators at different
    /// registries to compare their expositions in isolation.
    ///
    /// ```
    /// use edc_explore::evaluator::Evaluator;
    /// use edc_explore::objective::CompletionTime;
    /// use edc_explore::objective::Objective;
    /// use edc_units::Seconds;
    ///
    /// let objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
    /// let registry = edc_metrics::Registry::new();
    /// let eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6))
    ///     .with_metrics(registry.clone());
    /// ```
    pub fn with_metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Connects a persistent evaluation store. Before simulating, every
    /// memo-cache miss is looked up by its canonical-spec key; a hit is
    /// billed at **zero** cost, never simulated, and (in bound mode)
    /// becomes a dominance incumbent, so searches warm-started from a
    /// fully-populated store run zero simulations yet produce
    /// byte-identical Pareto fronts. Scores the stored entry lacks are
    /// recomputed bit-exactly from its stored report via
    /// [`Objective::score_json`] and merged back into the store; misses
    /// that do simulate are written back, so every process enriches the
    /// store for the next one. Store traffic is counted by the
    /// `edc_store_hits` / `edc_store_misses` / `edc_store_writes`
    /// metrics.
    ///
    /// ```
    /// use edc_explore::evaluator::Evaluator;
    /// use edc_explore::objective::{CompletionTime, Objective};
    /// use edc_store::Store;
    /// use edc_units::Seconds;
    ///
    /// let dir = std::env::temp_dir().join("edc-eval-doc-store");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let store = Store::open(&dir).unwrap().into_handle();
    /// let objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
    /// let eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6))
    ///     .with_store(store);
    /// ```
    pub fn with_store(mut self, store: StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the full-horizon deadline cost is normalised against: a run
    /// whose spec deadline is `d` charges a further factor `d /
    /// reference_deadline`, so rung-shortened deadlines (see
    /// [`SuccessiveHalving::deadline_divisors`](crate::SuccessiveHalving::deadline_divisors))
    /// compound with coarse timesteps in the budget. Without a reference,
    /// deadlines do not enter the cost model.
    pub fn with_reference_deadline(mut self, deadline: Seconds) -> Self {
        self.reference_deadline = Some(deadline);
        self
    }

    /// What one cache miss of `spec` costs, in full-fidelity-equivalent
    /// units: timestep ratio × deadline ratio ÷ trace-decimation discount,
    /// scaled by the objectives' per-miss multiplier.
    fn cost_of(&self, spec: &ExperimentSpec) -> f64 {
        let dt_ratio = self.reference_dt.0 / spec.timestep.0;
        let deadline_ratio = self
            .reference_deadline
            .map(|d| spec.deadline.0 / d.0)
            .unwrap_or(1.0);
        dt_ratio * deadline_ratio / spec.source.fidelity_discount() * self.cost_scale
    }

    /// Evaluates a batch of candidates, serving repeats from the memo
    /// cache and resolving the first occurrence of each miss through the
    /// store, lint and simulate stages, in that order. Results come back
    /// in input order; one trace entry is recorded per input.
    ///
    /// # Errors
    ///
    /// [`ExploreError::BudgetExhausted`] when the batch's cache misses
    /// would exceed the budget — denominated in full-fidelity-equivalent
    /// cost units, so coarse prefilter runs are charged fractionally, the
    /// same currency as [`Evaluator::cost_units`] (nothing is simulated in
    /// that case) — or the first
    /// [`BuildError`](edc_core::experiment::BuildError) if a candidate
    /// fails validation. Work done before the error stays in the totals
    /// but is not published to the metrics registry.
    pub fn evaluate(
        &mut self,
        specs: Vec<ExperimentSpec>,
        phase: &str,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        let started = Instant::now();
        let specs: Vec<ExperimentSpec> = specs
            .into_iter()
            .map(|s| {
                if self.force_stats {
                    s.telemetry(TelemetryKind::Stats)
                } else {
                    s
                }
            })
            .collect();
        let keys: Vec<SpecKey> = specs.iter().map(ExperimentSpec::key).collect();
        let mut queued: HashSet<&SpecKey> = HashSet::new();
        let first_miss: Vec<bool> = keys
            .iter()
            .map(|k| !self.cache.contains_key(k) && queued.insert(k))
            .collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| first_miss[i]).collect();

        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        let mut counts: Counts = [0; 9];
        let resolved = self
            .store_stage(&keys, missing, &mut counts)
            .map(|missing| self.lint_stage(&specs, &keys, missing, &mut counts))
            .and_then(|missing| {
                self.simulate(&specs, &keys, missing, &registry, phase, &mut counts)
            });
        let evaluations = resolved.map(|()| {
            counts[REQUESTS] = specs.len() as u64;
            let mut evaluations = Vec::with_capacity(specs.len());
            for ((spec, key), first) in specs.into_iter().zip(keys).zip(first_miss) {
                let (scores, origin) = self.cache[&key].clone();
                let provenance = match origin {
                    Provenance::Lint | Provenance::Bound => origin,
                    _ if first => origin,
                    _ => Provenance::Memo,
                };
                counts[CACHE_HITS] += u64::from(provenance == Provenance::Memo);
                self.trace.push(TraceEntry {
                    phase: phase.to_string(),
                    spec,
                    scores: scores.clone(),
                    provenance,
                });
                evaluations.push(Evaluation { spec, key, scores });
            }
            evaluations
        });
        for (total, n) in self.totals.iter_mut().zip(counts) {
            *total += n;
        }
        let evaluations = evaluations?;

        let label = [("phase", phase)];
        let published = if self.store.is_some() {
            COUNTERS.len()
        } else {
            STORE_HITS
        };
        for ((name, help), value) in COUNTERS.iter().zip(counts).take(published) {
            registry.counter(name, help, &label).inc_by(value);
        }
        registry
            .wall_gauge(
                "edc_eval_wall_seconds",
                "Wall-clock seconds spent in evaluation calls, per search phase.",
                &label,
            )
            .add(started.elapsed().as_secs_f64());
        Ok(evaluations)
    }

    /// Settles `key` at `scores`: caches them with their origin and, in
    /// bound mode, keeps exact ones (anything but a lower-bound stand-in)
    /// as dominance incumbents.
    fn settle(&mut self, key: &SpecKey, scores: Vec<f64>, origin: Provenance) {
        if self.bound && origin != Provenance::Bound {
            self.incumbents.push(scores.clone());
        }
        self.cache.insert(key.clone(), (scores, origin));
    }

    /// Store stage: serves the misses a connected store holds, at zero
    /// cost. Scores the stored entry lacks are recomputed bit-exactly
    /// from its stored report and merged back for the next reader.
    /// Returns the misses the store could not serve.
    fn store_stage(
        &mut self,
        keys: &[SpecKey],
        missing: Vec<usize>,
        counts: &mut Counts,
    ) -> Result<Vec<usize>, ExploreError> {
        let Some(store) = self.store.clone() else {
            return Ok(missing);
        };
        let objectives = self.objectives;
        let mut guard = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut survivors = Vec::with_capacity(missing.len());
        for i in missing {
            let hit = guard.get(&keys[i]).and_then(|entry| {
                let resolved: Option<Vec<f64>> = objectives
                    .iter()
                    .map(|o| {
                        o.store_key()
                            .and_then(|k| entry.scores.get(&k).copied())
                            .or_else(|| o.score_json(&entry.report))
                    })
                    .collect();
                resolved.map(|scores| {
                    let mut recomputed: BTreeMap<String, f64> = BTreeMap::new();
                    for (o, s) in objectives.iter().zip(&scores) {
                        if let Some(key) = o.store_key() {
                            if !entry.scores.contains_key(&key) && !s.is_nan() {
                                recomputed.insert(key, *s);
                            }
                        }
                    }
                    (scores, recomputed, entry.report.clone(), entry.cost)
                })
            });
            let Some((scores, recomputed, report, cost)) = hit else {
                counts[STORE_MISSES] += 1;
                survivors.push(i);
                continue;
            };
            if !recomputed.is_empty() {
                guard
                    .put(keys[i].clone(), report, recomputed, cost)
                    .map_err(ExploreError::Store)?;
            }
            self.settle(&keys[i], scores, Provenance::Store);
            counts[STORE_HITS] += 1;
        }
        Ok(survivors)
    }

    /// Lint stage: scores statically-infeasible misses without
    /// simulating. Only sound when every objective's static score is
    /// exact — a declared constant DNF score, or (with bound pruning
    /// enabled) a degenerate `lo == hi` bracket from the shared engine —
    /// so it runs only when one of the two can apply. Returns the misses
    /// it did not score.
    fn lint_stage(
        &mut self,
        specs: &[ExperimentSpec],
        keys: &[SpecKey],
        missing: Vec<usize>,
        counts: &mut Counts,
    ) -> Vec<usize> {
        let dnf: Option<Vec<f64>> = self.objectives.iter().map(|o| o.dnf_score()).collect();
        if !self.prefilter || (dnf.is_none() && !self.bound) {
            return missing;
        }
        let (objectives, bound) = (self.objectives, self.bound);
        let linter = self
            .linter
            .get_or_insert_with(|| Linter::with_catalog(self.catalog.clone()));
        let mut pruned = Vec::new();
        let mut survivors = Vec::with_capacity(missing.len());
        for i in missing {
            counts[LINT_CHECKS] += 1;
            let static_scores = if !linter.lint_spec(&specs[i]).has_errors() {
                None
            } else if bound {
                objectives
                    .iter()
                    .map(|o| {
                        o.dnf_score().or_else(|| {
                            o.static_bracket(&specs[i], linter.bounder())
                                .filter(|b| b.is_exact())
                                .map(|b| b.lo)
                        })
                    })
                    .collect()
            } else {
                dnf.clone()
            };
            match static_scores {
                Some(scores) => pruned.push((i, scores)),
                None => survivors.push(i),
            }
        }
        for (i, scores) in pruned {
            self.settle(&keys[i], scores, Provenance::Lint);
            counts[LINT_PRUNED] += 1;
        }
        survivors
    }

    /// Simulate stage: runs the remaining misses through the sweep engine
    /// and scores them, charging each its cost and writing it back to a
    /// connected store. Without bound pruning the misses run as one
    /// chunk, admitted or rejected by the budget as a whole. With it they
    /// run in input-order chunks of [`BOUND_CHUNK`], each budget-checked
    /// on its own; before each chunk, every pending miss whose static
    /// lower bounds an exact incumbent dominates is settled at those
    /// bounds instead of running.
    fn simulate(
        &mut self,
        specs: &[ExperimentSpec],
        keys: &[SpecKey],
        mut pending: Vec<usize>,
        registry: &edc_metrics::Registry,
        phase: &str,
        counts: &mut Counts,
    ) -> Result<(), ExploreError> {
        if pending.is_empty() {
            return Ok(());
        }
        let objectives = self.objectives;
        let lower_bounds: Option<HashMap<usize, Vec<f64>>> = self.bound.then(|| {
            let linter = self
                .linter
                .get_or_insert_with(|| Linter::with_catalog(self.catalog.clone()));
            pending
                .iter()
                .filter_map(|&i| {
                    counts[BOUND_CHECKS] += 1;
                    let lo: Option<Vec<f64>> = objectives
                        .iter()
                        .map(|o| o.static_bracket(&specs[i], linter.bounder()).map(|b| b.lo))
                        .collect();
                    lo.map(|lo| (i, lo))
                })
                .collect()
        });
        let histogram = || {
            registry.histogram(
                "edc_eval_miss_cost_units",
                "Per-miss simulation cost in full-fidelity-equivalent units.",
                &[("phase", phase)],
                &COST_UNIT_BOUNDS,
            )
        };
        // Bound mode registers the histogram up front, so it exists even
        // when every miss is pruned; one whole-batch chunk registers it
        // once the budget admits the batch.
        let mut miss_cost = self.bound.then(histogram);
        let chunk_len = if self.bound {
            BOUND_CHUNK
        } else {
            pending.len()
        };
        loop {
            if let Some(lower_bounds) = &lower_bounds {
                let (pruned, kept): (Vec<usize>, Vec<usize>) = pending.iter().partition(|&i| {
                    lower_bounds
                        .get(i)
                        .is_some_and(|lo| self.incumbents.iter().any(|inc| dominates(inc, lo)))
                });
                for i in pruned {
                    self.settle(&keys[i], lower_bounds[&i].clone(), Provenance::Bound);
                    counts[BOUND_PRUNED] += 1;
                    counts[MISSES] += 1;
                }
                pending = kept;
            }
            if pending.is_empty() {
                return Ok(());
            }
            let chunk: Vec<usize> = pending.drain(..chunk_len.min(pending.len())).collect();
            let costs: Vec<f64> = chunk.iter().map(|&i| self.cost_of(&specs[i])).collect();
            if let Some(budget) = self.budget {
                let needed = self.cost_units + costs.iter().sum::<f64>();
                if needed > budget as f64 {
                    return Err(ExploreError::BudgetExhausted { budget, needed });
                }
            }
            let miss_cost = miss_cost.get_or_insert_with(histogram);
            let batch: Vec<ExperimentSpec> = chunk.iter().map(|&i| specs[i]).collect();
            let runs = run_specs_timed_metered(batch, self.threads, &self.catalog, registry)?.rows;
            for ((&i, run), cost) in chunk.iter().zip(runs).zip(costs) {
                let scores: Vec<f64> = objectives
                    .iter()
                    .map(|o| o.score(&specs[i], &run.report))
                    .collect();
                if let Some(store) = &self.store {
                    // Written back: the canonical spec, the full report,
                    // every persistable score (NaN never stored) and the
                    // cost the miss was billed.
                    let named: BTreeMap<String, f64> = objectives
                        .iter()
                        .zip(&scores)
                        .filter(|(_, s)| !s.is_nan())
                        .filter_map(|(o, &s)| o.store_key().map(|key| (key, s)))
                        .collect();
                    let appended = store
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .put(keys[i].clone(), run.report.to_json(), named, cost)?;
                    if appended {
                        registry
                            .counter(
                                "edc_store_writes",
                                "Simulated evaluations written back to the persistent store, per \
                                 search phase.",
                                &[("phase", phase)],
                            )
                            .inc();
                    }
                }
                self.settle(&keys[i], scores, Provenance::Simulated);
                counts[MISSES] += 1;
                self.cost_units += cost;
                miss_cost.observe(cost);
            }
        }
    }

    /// Number of objectives each evaluation is scored on.
    pub fn objective_count(&self) -> usize {
        self.objectives.len()
    }

    /// Number of simulations actually run (cache misses).
    pub fn simulations(&self) -> u64 {
        self.totals[MISSES] - self.totals[BOUND_PRUNED]
    }

    /// Number of evaluation requests served from the memo cache.
    pub fn cache_hits(&self) -> u64 {
        self.totals[CACHE_HITS]
    }

    /// Full-fidelity-equivalent simulation cost: each run contributes
    /// `(reference_dt / its_dt) × (deadline / reference_deadline) ÷
    /// trace decimation × objective cost scale` — coarse, short-horizon or
    /// decimated prefilter runs are cheap, fleet-objective misses are
    /// charged per node.
    pub fn cost_units(&self) -> f64 {
        self.cost_units
    }

    /// Number of specs the lint prefilter examined: the cache misses the
    /// store did not serve, counted while the prefilter was enabled and
    /// either every objective had a DNF score or bound pruning was on
    /// (which lets exact static brackets stand in for DNF scores).
    pub fn lint_checks(&self) -> u64 {
        self.totals[LINT_CHECKS]
    }

    /// Number of specs the lint prefilter scored statically instead of
    /// simulating.
    pub fn lint_pruned(&self) -> u64 {
        self.totals[LINT_PRUNED]
    }

    /// Number of cache misses branch-and-bound examined for static lower
    /// bounds (bound pruning enabled; misses where an objective produced
    /// no bracket are still counted, they just can never be pruned).
    pub fn bound_checks(&self) -> u64 {
        self.totals[BOUND_CHECKS]
    }

    /// Number of cache misses branch-and-bound dominance-pruned: scored
    /// at their static lower bounds instead of simulating, because an
    /// already-exact incumbent dominates even their most optimistic
    /// possible scores.
    pub fn bound_pruned(&self) -> u64 {
        self.totals[BOUND_PRUNED]
    }

    /// Number of memo-cache misses the persistent store served without
    /// simulating (each billed at zero cost). Always zero without
    /// [`Evaluator::with_store`].
    pub fn store_hits(&self) -> u64 {
        self.totals[STORE_HITS]
    }

    /// The recorded trace, in evaluation-request order.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Consumes the evaluator, yielding its trace.
    pub fn into_trace(self) -> Vec<TraceEntry> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BrownoutCount, CompletionTime, P99Outage};
    use edc_core::json::Json;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_workloads::WorkloadKind;

    fn spec(n: u16) -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(n),
        )
        .deadline(Seconds(1.0))
    }

    fn objectives() -> Vec<Box<dyn Objective>> {
        vec![Box::new(CompletionTime), Box::new(BrownoutCount)]
    }

    /// Trace entry `i` as report JSON, its spec written `S` and, for a
    /// stored or simulated entry, its measured scores written `SCORES`.
    fn traced(eval: &Evaluator, i: usize) -> String {
        let names: Vec<String> = eval
            .objectives
            .iter()
            .map(|o| o.name().to_string())
            .collect();
        let entry = &eval.trace()[i];
        let json = crate::trace_json(entry, &names).to_string();
        let json = json.replace(&entry.spec.to_json().to_string(), "S");
        match entry.provenance {
            Provenance::Lint | Provenance::Bound => json,
            _ => {
                let scores = Json::Obj(
                    names
                        .into_iter()
                        .zip(entry.scores.iter().map(|&s| Json::Num(s)))
                        .collect(),
                );
                json.replace(&scores.to_string(), "SCORES")
            }
        }
    }

    #[test]
    fn repeats_hit_the_cache() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, Seconds(20e-6));
        let first = eval
            .evaluate(vec![spec(100), spec(200), spec(100)], "a")
            .expect("evaluates");
        assert_eq!(first.len(), 3);
        assert_eq!(eval.simulations(), 2, "dup within the batch memoises");
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(first[0].scores, first[2].scores);

        let again = eval.evaluate(vec![spec(200)], "b").expect("evaluates");
        assert_eq!(eval.simulations(), 2, "cross-batch repeat memoises");
        assert_eq!(eval.cache_hits(), 2);
        assert_eq!(again[0].scores, first[1].scores);
        assert_eq!(eval.trace().len(), 4);
        assert_eq!(eval.trace()[3].provenance, Provenance::Memo);

        // A store hit repeated inside one batch: the first request is the
        // store's, the second the memo cache's.
        let dir = std::env::temp_dir().join("edc-eval-unit-repeats");
        let _ = std::fs::remove_dir_all(&dir);
        let store = edc_store::Store::open(&dir).expect("opens").into_handle();
        Evaluator::new(&objectives, 1, None, Seconds(20e-6))
            .with_store(store.clone())
            .evaluate(vec![spec(300)], "cold")
            .expect("evaluates");
        let mut warm = Evaluator::new(&objectives, 1, None, Seconds(20e-6)).with_store(store);
        warm.evaluate(vec![spec(300), spec(300)], "warm")
            .expect("evaluates");
        assert_eq!((warm.simulations(), warm.store_hits()), (0, 1));
        assert_eq!(warm.cache_hits(), 1);
        assert_eq!(
            [traced(&warm, 0), traced(&warm, 1)],
            [
                r#"{"phase":"warm","spec":S,"scores":SCORES,"cached":false,"store":true}"#,
                r#"{"phase":"warm","spec":S,"scores":SCORES,"cached":true}"#,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);

        // A lint-pruned key requested again in a later batch stays
        // lint-pruned and is never a cache hit.
        let completion: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
        let mut linted = Evaluator::new(&completion, 1, None, Seconds(20e-6)).with_prefilter(true);
        let dark = spec(100).source(SourceKind::Dc { volts: 1.5 });
        linted.evaluate(vec![dark, dark], "a").expect("evaluates");
        linted.evaluate(vec![dark], "b").expect("evaluates");
        assert_eq!((linted.simulations(), linted.lint_pruned()), (0, 1));
        assert_eq!(linted.cache_hits(), 0);
        let pruned = r#"{"phase":"PHASE","spec":S,"scores":{"completion_s":null},"cached":false,"pruned":true}"#;
        assert_eq!(
            [traced(&linted, 0), traced(&linted, 1), traced(&linted, 2)],
            [
                pruned.replace("PHASE", "a"),
                pruned.replace("PHASE", "a"),
                pruned.replace("PHASE", "b"),
            ]
        );
    }

    #[test]
    fn budget_rejects_before_simulating() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, Some(1), Seconds(20e-6));
        eval.evaluate(vec![spec(100)], "a").expect("within budget");
        let err = eval
            .evaluate(vec![spec(200), spec(300)], "b")
            .expect_err("over budget");
        match err {
            ExploreError::BudgetExhausted { budget, needed } => {
                assert_eq!(budget, 1);
                assert!((needed - 3.0).abs() < 1e-12);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(eval.simulations(), 1, "the doomed batch never ran");
        // Cached repeats stay free even at the budget's edge.
        eval.evaluate(vec![spec(100)], "c").expect("cache is free");
    }

    #[test]
    fn budget_charges_coarse_runs_fractionally() {
        // Budget 1 admits four quarter-cost coarse runs but not a fifth
        // full-fidelity one: budget and cost_units share a currency.
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, Some(1), Seconds(20e-6));
        let coarse: Vec<ExperimentSpec> = (0..4u16)
            .map(|i| spec(100 + i).timestep(Seconds(80e-6)))
            .collect();
        eval.evaluate(coarse, "rung")
            .expect("4 × 1/4 fits budget 1");
        assert!((eval.cost_units() - 1.0).abs() < 1e-12);
        eval.evaluate(vec![spec(500)], "fine")
            .expect_err("budget spent");
    }

    #[test]
    fn stats_objectives_force_stats_telemetry() {
        let objectives: Vec<Box<dyn Objective>> = vec![Box::new(P99Outage)];
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6));
        let evals = eval.evaluate(vec![spec(100)], "a").expect("evaluates");
        assert_eq!(evals[0].spec.telemetry, TelemetryKind::Stats);
        assert!(evals[0].key.contains("\"telemetry\""));
        assert!(evals[0].scores[0].is_finite());
    }

    #[test]
    fn metrics_record_one_counts_row_per_call() {
        let objectives = objectives();
        let registry = edc_metrics::Registry::new();
        let mut eval =
            Evaluator::new(&objectives, 2, None, Seconds(20e-6)).with_metrics(registry.clone());
        eval.evaluate(vec![spec(100), spec(200), spec(100)], "grid")
            .expect("evaluates");
        eval.evaluate(vec![spec(200)], "rung0@4x")
            .expect("evaluates");
        let text = registry.render_text();
        let counter = |name: &str, phase: &str| -> String {
            let prefix = format!("{name}_total{{phase=\"{phase}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .unwrap_or("absent")
                .to_string()
        };
        let row = |phase: &str| -> Vec<String> {
            COUNTERS
                .iter()
                .map(|(name, _)| counter(name, phase))
                .collect()
        };
        // Store-less: the two store counters stay unregistered.
        assert_eq!(
            row("grid"),
            ["3", "2", "1", "0", "0", "0", "0", "absent", "absent"]
        );
        // The second call is a pure cache hit: no misses, no new cost.
        assert_eq!(
            row("rung0@4x"),
            ["1", "0", "1", "0", "0", "0", "0", "absent", "absent"]
        );
        assert!((eval.cost_units() - 2.0).abs() < 1e-12);
        // Wall-clock is quarantined: absent from the deterministic view.
        assert!(!text.contains("edc_eval_wall_seconds"));
        let full = registry.render_text_full();
        assert!(full.contains("edc_eval_wall_seconds{phase=\"grid\"}"));
        assert!(full.contains("edc_eval_wall_seconds{phase=\"rung0@4x\"}"));
    }

    #[test]
    fn bound_prunes_dominated_misses_without_simulating() {
        let objectives: Vec<Box<dyn Objective>> =
            vec![Box::new(CompletionTime), Box::new(BrownoutCount)];
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6)).with_bound(true);
        let seeded = eval.evaluate(vec![spec(100)], "seed").expect("evaluates");
        assert_eq!(eval.simulations(), 1);
        assert!(seeded[0].scores[0].is_finite());
        assert_eq!(seeded[0].scores[1], 0.0, "DC supply never browns out");

        // 1.5 V provably never boots: bracket (∞, [0,0]) — dominated by
        // the completed zero-brownout incumbent, so it is never simulated.
        let dark = ExperimentSpec::new(
            SourceKind::Dc { volts: 1.5 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .deadline(Seconds(1.0));
        let evals = eval.evaluate(vec![dark], "probe").expect("evaluates");
        assert_eq!(eval.simulations(), 1, "dominated candidate skipped");
        assert_eq!(eval.bound_checks(), 2);
        assert_eq!(eval.bound_pruned(), 1);
        assert_eq!(evals[0].scores, vec![f64::INFINITY, 0.0]);

        // Requested again later, the key stays bound-pruned at its lower
        // bounds and is never a cache hit.
        eval.evaluate(vec![dark], "again").expect("evaluates");
        assert_eq!((eval.simulations(), eval.bound_pruned()), (1, 1));
        assert_eq!(eval.cache_hits(), 0);
        let pruned = r#"{"phase":"PHASE","spec":S,"scores":{"completion_s":null,"brownouts":0},"cached":false,"bound_pruned":true}"#;
        assert_eq!(
            [traced(&eval, 1), traced(&eval, 2)],
            [
                pruned.replace("PHASE", "probe"),
                pruned.replace("PHASE", "again")
            ]
        );
    }

    #[test]
    fn coarse_runs_cost_fractional_units() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6));
        eval.evaluate(vec![spec(100).timestep(Seconds(80e-6))], "coarse")
            .expect("evaluates");
        assert!((eval.cost_units() - 0.25).abs() < 1e-12);
        eval.evaluate(vec![spec(100)], "fine").expect("evaluates");
        assert!((eval.cost_units() - 1.25).abs() < 1e-12);
    }
}
