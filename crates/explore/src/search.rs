//! The pluggable searchers: how a design space gets explored.
//!
//! Every searcher funds its simulations through the shared [`Evaluator`]
//! (memo cache, budget, parallel fan-out) and returns the candidate set it
//! considers *final* — the evaluations at full fidelity from which the
//! caller derives the Pareto front. All searchers are deterministic:
//! identical inputs (space, objectives, seed) produce identical traces and
//! fronts regardless of thread count.

use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

use edc_core::experiment::ExperimentSpec;
use edc_units::Seconds;

use crate::evaluator::{Evaluation, Evaluator};
use crate::pareto::{cmp_scores, dominator_counts};
use crate::space::{SpecSpace, AXES, AXIS_NAMES};
use crate::ExploreError;

/// A design-space search procedure.
pub trait Searcher {
    /// Stable machine-readable name (used in report JSON).
    fn name(&self) -> &'static str;

    /// Explores `space`, funding evaluations through `eval`, and returns
    /// the final full-fidelity candidate set (the Pareto front is computed
    /// over exactly these evaluations).
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (budget exhaustion, invalid specs).
    fn search(
        &self,
        space: &SpecSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<Vec<Evaluation>, ExploreError>;
}

/// Evaluates every point of the space, delegating the fan-out to the sweep
/// engine. The exactness baseline the budgeted searchers are measured
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveGrid;

impl Searcher for ExhaustiveGrid {
    fn name(&self) -> &'static str {
        "exhaustive-grid"
    }

    fn search(
        &self,
        space: &SpecSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        eval.evaluate(space.all_specs(), "grid")
    }
}

/// Uniform random sampling of the space without replacement, seeded and
/// platform-stable (the workspace's deterministic `rand` shim).
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// RNG seed; equal seeds reproduce the sample byte-for-byte.
    pub seed: u64,
    /// Number of distinct points to evaluate (capped at the space size).
    pub samples: usize,
}

impl RandomSearch {
    /// A seeded sampler drawing `samples` distinct points.
    pub fn new(seed: u64, samples: usize) -> Self {
        Self { seed, samples }
    }
}

impl Searcher for RandomSearch {
    fn name(&self) -> &'static str {
        "random-search"
    }

    fn search(
        &self,
        space: &SpecSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        let len = space.len();
        let target = self.samples.min(len);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut chosen: Vec<usize> = Vec::with_capacity(target);
        while chosen.len() < target {
            // Repeats are redrawn until `target` distinct points are held,
            // so the sample really is without replacement. The generator is
            // full-period, so the loop terminates (and, for a fixed seed,
            // always after the same number of draws).
            let flat = draw_below(&mut rng, len as u64) as usize;
            if seen.insert(flat) {
                chosen.push(flat);
            }
        }
        let specs: Vec<ExperimentSpec> = chosen.iter().map(|&i| space.spec_at(i)).collect();
        eval.evaluate(specs, "random")
    }
}

/// An unbiased draw from `[0, n)` — Lemire's multiply–shift method with
/// rejection. A plain `next_u64() % n` over-weights the smallest residues
/// whenever `n` does not divide `2^64`, skewing which designs a seed
/// visits; multiply–shift keeps exactly the draws whose low word clears
/// the `(2^64 − n) mod n` threshold, which makes every value of `[0, n)`
/// equally likely while staying deterministic per seed.
fn draw_below(rng: &mut StdRng, n: u64) -> u64 {
    debug_assert!(n > 0, "cannot draw from an empty range");
    let threshold = n.wrapping_neg() % n; // (2^64 − n) mod n
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(n);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// Multi-fidelity successive halving: evaluate *everything* at a coarse
/// timestep (cheap, noisy), keep the best fraction, refine the survivors
/// at finer timesteps, and finish the last rung at the space's own
/// fidelity. Exploits that simulation cost scales inversely with the
/// timestep, so a full coarse pass costs a fraction of a full-fidelity
/// grid. Early rungs can *also* shorten the run deadline (see
/// [`SuccessiveHalving::deadline_divisors`]), which compounds the budget
/// savings for long-horizon workloads: a design that cannot finish a
/// quarter of the horizon rarely wins the full one.
///
/// Between rungs, candidates are ranked by dominance depth (fewest
/// dominators first), then lexicographic scores, then flat index — fully
/// deterministic.
#[derive(Debug, Clone)]
pub struct SuccessiveHalving {
    /// Timestep coarsening factor per rung, strictly decreasing, ending at
    /// `1.0` (the space's own timestep). Private: the [`rungs`](Self::rungs)
    /// setter enforces the schedule invariant the search loop relies on.
    rungs: Vec<f64>,
    /// Fraction of candidates kept after each non-final rung, in `(0, 1)`.
    keep: f64,
    /// Optional per-rung deadline divisors (same length as `rungs`,
    /// strictly decreasing to `1.0`): rung `r` runs each candidate to
    /// `deadline / deadline_divisors[r]`. `None` leaves every rung at the
    /// spec's own deadline.
    deadline_divisors: Option<Vec<f64>>,
}

impl SuccessiveHalving {
    /// The default schedule: a 16× coarse prefilter, a 4× middle rung, and
    /// a full-fidelity finish, keeping the top quarter each time. On a
    /// grid of `N` points this costs `N/16 + N/64 + …` ≈ well under `N/4`
    /// full-fidelity equivalents.
    pub fn new() -> Self {
        Self {
            rungs: vec![16.0, 4.0, 1.0],
            keep: 0.25,
            deadline_divisors: None,
        }
    }

    /// Overrides the rung schedule. Clears any configured deadline
    /// divisors (they are per-rung; set them after the schedule).
    ///
    /// # Panics
    ///
    /// Panics unless the factors are strictly decreasing, all `≥ 1`, and
    /// the last is `1.0`.
    pub fn rungs(mut self, factors: &[f64]) -> Self {
        assert!(
            factors.windows(2).all(|w| w[0] > w[1]) && factors.last() == Some(&1.0),
            "rung factors must strictly decrease to 1.0"
        );
        self.rungs = factors.to_vec();
        self.deadline_divisors = None;
        self
    }

    /// Shortens early rungs' deadlines: rung `r` runs its candidates to
    /// `deadline / divisors[r]`, so prefilter rungs spend less simulated
    /// time *and* fewer budget units (the evaluator charges the deadline
    /// ratio when given a reference deadline) before the final rung
    /// restores the full horizon. Deadlines are monotonically
    /// non-decreasing across rungs by construction.
    ///
    /// # Panics
    ///
    /// Panics unless `divisors` has one entry per rung, strictly
    /// decreasing to `1.0` (the final rung always runs the full deadline).
    pub fn deadline_divisors(mut self, divisors: &[f64]) -> Self {
        assert_eq!(
            divisors.len(),
            self.rungs.len(),
            "one deadline divisor per rung"
        );
        assert!(
            divisors.windows(2).all(|w| w[0] > w[1]) && divisors.last() == Some(&1.0),
            "deadline divisors must strictly decrease to 1.0"
        );
        self.deadline_divisors = Some(divisors.to_vec());
        self
    }

    /// Overrides the survivor fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `keep` is in `(0, 1)`.
    pub fn keep(mut self, keep: f64) -> Self {
        assert!(keep > 0.0 && keep < 1.0, "keep fraction must be in (0, 1)");
        self.keep = keep;
        self
    }
}

impl Default for SuccessiveHalving {
    fn default() -> Self {
        Self::new()
    }
}

impl Searcher for SuccessiveHalving {
    fn name(&self) -> &'static str {
        "successive-halving"
    }

    fn search(
        &self,
        space: &SpecSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        let mut candidates: Vec<usize> = (0..space.len()).collect();
        for (r, &factor) in self.rungs.iter().enumerate() {
            let divisor = self.deadline_divisors.as_ref().map(|d| d[r]).unwrap_or(1.0);
            let specs: Vec<ExperimentSpec> = candidates
                .iter()
                .map(|&i| {
                    let spec = space.spec_at(i);
                    spec.timestep(Seconds(spec.timestep.0 * factor))
                        .deadline(Seconds(spec.deadline.0 / divisor))
                })
                .collect();
            let phase = format!("rung{r}@{factor}x");
            let evals = eval.evaluate(specs, &phase)?;
            if r + 1 == self.rungs.len() {
                return Ok(evals);
            }
            // Rank survivors: dominance depth, then scores, then index.
            let scores: Vec<Vec<f64>> = evals.iter().map(|e| e.scores.clone()).collect();
            let depth = dominator_counts(&scores);
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_by(|&a, &b| {
                depth[a]
                    .cmp(&depth[b])
                    .then_with(|| cmp_scores(&scores[a], &scores[b]))
                    .then_with(|| candidates[a].cmp(&candidates[b]))
            });
            // `ceil` with a `keep` close to 1 can round up to the whole
            // rung; a rung that keeps everyone does no halving and burns
            // budget for nothing, so clamp to a strict shrink whenever
            // there is more than one candidate left.
            let kept = ((candidates.len() as f64 * self.keep).ceil() as usize)
                .max(1)
                .min((candidates.len() - 1).max(1));
            let mut survivors: Vec<usize> = order[..kept].iter().map(|&i| candidates[i]).collect();
            survivors.sort_unstable();
            candidates = survivors;
        }
        unreachable!("rungs always end at factor 1.0");
    }
}

/// Greedy coordinate descent on a weighted sum of the objectives: sweep
/// one axis at a time from a start point, move to the best value, repeat
/// until a full round improves nothing (or the round limit is reached).
/// Returns every point it evaluated, so the front reflects the whole
/// trajectory, not just the end point.
#[derive(Debug, Clone)]
pub struct CoordinateDescent {
    /// Maximum full rounds over the axes.
    rounds: usize,
    /// Start point as a flat index; defaults to each axis's midpoint.
    start: Option<usize>,
    /// Scalarisation weights, one per objective; defaults to all-ones.
    /// Objectives are minimised, so the weighted sum is too.
    weights: Option<Vec<f64>>,
}

impl CoordinateDescent {
    /// A descent capped at `rounds` full rounds.
    pub fn new(rounds: usize) -> Self {
        Self {
            rounds,
            start: None,
            weights: None,
        }
    }

    /// Starts the descent from this flat index (e.g. a sizing-seeded
    /// design) instead of the axis midpoints.
    pub fn start(mut self, flat: usize) -> Self {
        self.start = Some(flat);
        self
    }

    /// Sets the scalarisation weights.
    pub fn weights(mut self, weights: &[f64]) -> Self {
        self.weights = Some(weights.to_vec());
        self
    }

    fn weighted(&self, scores: &[f64]) -> f64 {
        match &self.weights {
            // Zero-weight objectives are skipped, not multiplied: an
            // ignored objective may legitimately score INFINITY, and
            // 0 × ∞ = NaN would poison the ranking.
            Some(w) => scores
                .iter()
                .zip(w)
                .filter(|&(_, &w)| w != 0.0)
                .map(|(s, w)| s * w)
                .sum(),
            None => scores.iter().sum(),
        }
    }
}

impl Searcher for CoordinateDescent {
    fn name(&self) -> &'static str {
        "coordinate-descent"
    }

    fn search(
        &self,
        space: &SpecSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        if let Some(w) = &self.weights {
            if w.len() != eval.objective_count() {
                return Err(ExploreError::WeightCount {
                    weights: w.len(),
                    objectives: eval.objective_count(),
                });
            }
        }
        if let Some(flat) = self.start {
            if flat >= space.len() {
                return Err(ExploreError::StartOutOfRange {
                    start: flat,
                    size: space.len(),
                });
            }
        }
        let dims = space.dims();
        let mut here = match self.start {
            Some(flat) => space.point_of(flat),
            None => {
                let mut mid = [0usize; AXES];
                for (axis, m) in mid.iter_mut().enumerate() {
                    *m = dims[axis] / 2;
                }
                mid
            }
        };
        let mut all: Vec<Evaluation> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut collect = |evals: &[Evaluation], all: &mut Vec<Evaluation>| {
            for e in evals {
                if seen.insert(e.key.clone()) {
                    all.push(e.clone());
                }
            }
        };
        for round in 0..self.rounds {
            let mut improved = false;
            for axis in 0..AXES {
                if dims[axis] < 2 {
                    continue;
                }
                let candidates: Vec<[usize; AXES]> = (0..dims[axis])
                    .map(|v| {
                        let mut p = here;
                        p[axis] = v;
                        p
                    })
                    .collect();
                let specs: Vec<ExperimentSpec> =
                    candidates.iter().map(|&p| space.spec(p)).collect();
                let phase = format!("round{round}/{}", AXIS_NAMES[axis]);
                let evals = eval.evaluate(specs, &phase)?;
                collect(&evals, &mut all);
                let current = self.weighted(&evals[here[axis]].scores);
                let Some((best_v, best)) = evals
                    .iter()
                    .enumerate()
                    .map(|(v, e)| (v, self.weighted(&e.scores)))
                    .min_by(|(va, a), (vb, b)| a.total_cmp(b).then_with(|| va.cmp(vb)))
                else {
                    continue;
                };
                if best_v != here[axis] && best.total_cmp(&current).is_lt() {
                    here[axis] = best_v;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BrownoutCount, CompletionTime, Objective};
    use edc_core::experiment::ExperimentSpec;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_units::Farads;
    use edc_workloads::WorkloadKind;

    fn small_space() -> SpecSpace {
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

    fn objectives() -> Vec<Box<dyn Objective>> {
        vec![Box::new(CompletionTime), Box::new(BrownoutCount)]
    }

    #[test]
    fn exhaustive_covers_the_space() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, space.finest_timestep());
        let evals = ExhaustiveGrid.search(&space, &mut eval).expect("searches");
        assert_eq!(evals.len(), space.len());
        assert_eq!(eval.simulations(), space.len() as u64);
    }

    #[test]
    fn random_search_is_seed_deterministic_and_deduplicated() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, space.finest_timestep());
        let a = RandomSearch::new(42, 16)
            .search(&space, &mut eval)
            .expect("searches");
        let mut eval2 = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let b = RandomSearch::new(42, 16)
            .search(&space, &mut eval2)
            .expect("searches");
        let keys =
            |evals: &[Evaluation]| -> Vec<String> { evals.iter().map(|e| e.key.clone()).collect() };
        assert_eq!(keys(&a), keys(&b), "same seed, same sample");
        let mut unique = keys(&a);
        unique.dedup();
        assert_eq!(unique.len(), a.len(), "duplicates collapsed");
    }

    #[test]
    fn halving_finishes_at_full_fidelity() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, space.finest_timestep());
        let finals = SuccessiveHalving::new()
            .rungs(&[4.0, 1.0])
            .search(&space, &mut eval)
            .expect("searches");
        assert_eq!(finals.len(), 1, "keeps ceil(4 * 0.25) = 1 survivor");
        let fine_dt = space.base().timestep.0;
        assert!(finals
            .iter()
            .all(|e| (e.spec.timestep.0 - fine_dt).abs() < 1e-18));
        // 4 coarse at quarter cost + 1 fine = 2 full-fidelity units.
        assert!((eval.cost_units() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn coordinate_descent_converges_and_reports_trajectory() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, space.finest_timestep());
        let evals = CoordinateDescent::new(3)
            .start(0)
            .search(&space, &mut eval)
            .expect("searches");
        assert!(!evals.is_empty());
        // The axis sweeps revisit the current point; the cache makes those
        // free.
        assert!(eval.cache_hits() > 0);
        assert!(eval.simulations() <= space.len() as u64);
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn bad_rung_schedule_is_rejected() {
        let _ = SuccessiveHalving::new().rungs(&[4.0, 4.0, 1.0]);
    }

    #[test]
    fn draw_below_is_unbiased_and_pinned() {
        // Coverage sanity: every residue of a non-power-of-two modulus is
        // reachable and roughly equally likely.
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 5];
        for _ in 0..5000 {
            counts[draw_below(&mut rng, 5) as usize] += 1;
        }
        for (value, &count) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&count),
                "value {value} drawn {count} times"
            );
        }
        // Pinned stream: seeded replay must stay stable across releases,
        // because ExploreReport determinism depends on it.
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<u64> = (0..4).map(|_| draw_below(&mut rng, 4)).collect();
        assert_eq!(draws, vec![0, 2, 1, 1]);
    }

    #[test]
    fn random_search_replay_is_pinned() {
        // The exact without-replacement sample for a fixed seed, pinned so
        // an accidental change to the sampler (or the shim RNG) is caught
        // as a diff here rather than as silently different searches.
        let space = small_space(); // 4 points: strategy × decoupling
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let evals = RandomSearch::new(42, 4)
            .search(&space, &mut eval)
            .expect("searches");
        let expected: Vec<String> = [0usize, 2, 1, 3]
            .iter()
            .map(|&flat| space.spec_at(flat).to_json().to_string())
            .collect();
        let got: Vec<String> = evals.iter().map(|e| e.key.clone()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn halving_always_shrinks_rungs_even_with_high_keep() {
        // keep = 0.9 on a 4-point space used to round up to keeping all 4:
        // the rung did no halving and burned budget. The clamp guarantees
        // strictly monotone rung shrinkage whenever a rung holds more than
        // one candidate.
        let space = small_space(); // 4 points
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let finals = SuccessiveHalving::new()
            .rungs(&[4.0, 2.0, 1.0])
            .keep(0.9)
            .search(&space, &mut eval)
            .expect("searches");
        let mut rung_sizes: Vec<usize> = Vec::new();
        for entry in eval.trace() {
            let rung: usize = entry
                .phase
                .strip_prefix("rung")
                .and_then(|s| s.split('@').next())
                .and_then(|s| s.parse().ok())
                .expect("halving phases are rungN@Fx");
            if rung_sizes.len() <= rung {
                rung_sizes.push(0);
            }
            rung_sizes[rung] += 1;
        }
        assert_eq!(rung_sizes[0], 4, "first rung sees the whole space");
        assert!(
            rung_sizes.windows(2).all(|w| w[1] < w[0]),
            "rungs must strictly shrink: {rung_sizes:?}"
        );
        assert_eq!(finals.len(), *rung_sizes.last().unwrap());
    }

    #[test]
    fn random_search_really_samples_without_replacement() {
        let space = small_space(); // 4 points
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let evals = RandomSearch::new(9, 4)
            .search(&space, &mut eval)
            .expect("searches");
        assert_eq!(evals.len(), 4, "covers the whole space when asked to");
        let over = RandomSearch::new(9, 100)
            .search(&space, &mut eval)
            .expect("searches");
        assert_eq!(over.len(), 4, "request is capped at the space size");
    }

    #[test]
    fn zero_weights_ignore_infinite_scores() {
        // An objective that is weighted out must not poison the ranking
        // through 0 x INFINITY = NaN.
        let cd = CoordinateDescent::new(1).weights(&[0.0, 1.0]);
        assert_eq!(cd.weighted(&[f64::INFINITY, 3.0]), 3.0);
        assert_eq!(cd.weighted(&[1.0, f64::INFINITY]), f64::INFINITY);
    }

    #[test]
    fn out_of_range_start_is_an_error_not_a_panic() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let err = CoordinateDescent::new(1)
            .start(100)
            .search(&space, &mut eval)
            .expect_err("start outside the 4-point space");
        assert!(matches!(
            err,
            ExploreError::StartOutOfRange {
                start: 100,
                size: 4
            }
        ));
        assert_eq!(eval.simulations(), 0);
    }

    #[test]
    fn mismatched_weights_are_rejected_before_simulating() {
        let space = small_space();
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, space.finest_timestep());
        let err = CoordinateDescent::new(1)
            .weights(&[1.0])
            .search(&space, &mut eval)
            .expect_err("one weight for two objectives");
        assert!(matches!(
            err,
            ExploreError::WeightCount {
                weights: 1,
                objectives: 2
            }
        ));
        assert_eq!(eval.simulations(), 0);
    }
}
