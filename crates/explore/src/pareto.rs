//! Pareto dominance over objective-score vectors, with deterministic
//! ordering.
//!
//! All scores minimise. Point `a` dominates `b` when `a` is no worse on
//! every objective and strictly better on at least one. The front of a
//! candidate set is its non-dominated subset, ordered deterministically
//! (lexicographic by scores under IEEE total order, ties broken by the
//! canonical spec key) so that front JSON is byte-stable.

use std::cmp::Ordering;

use edc_core::experiment::{ExperimentSpec, SpecKey};
use edc_core::json::Json;

use crate::evaluator::Evaluation;

/// `true` when `a` dominates `b`: no worse everywhere, strictly better
/// somewhere (both minimising).
///
/// # Panics
///
/// Panics if the score vectors differ in length.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "score vectors must align");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Greater => return false,
            Ordering::Less => strictly = true,
            Ordering::Equal => {}
        }
    }
    strictly
}

/// Lexicographic IEEE-total-order comparison of score vectors.
pub fn cmp_scores(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Dominance depth of every point: how many other points dominate it
/// (0 = on the front). Deterministic and independent of input order up to
/// the obvious index correspondence.
pub fn dominator_counts(scores: &[Vec<f64>]) -> Vec<usize> {
    scores
        .iter()
        .map(|s| scores.iter().filter(|o| dominates(o, s)).count())
        .collect()
}

/// One non-dominated design.
#[derive(Debug, Clone)]
pub struct FrontPoint {
    /// The design's spec.
    pub spec: ExperimentSpec,
    /// The spec's key.
    pub key: SpecKey,
    /// One score per objective.
    pub scores: Vec<f64>,
}

/// The non-dominated subset of an evaluated candidate set, in
/// deterministic order.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// Builds the front: deduplicates candidates by spec key (first
    /// occurrence wins), drops every dominated point, and sorts the rest
    /// by scores (lexicographic total order), then key.
    pub fn from_evaluations(evaluations: &[Evaluation]) -> Self {
        let mut seen = std::collections::HashSet::new();
        let mut unique: Vec<&Evaluation> = Vec::new();
        for e in evaluations {
            if seen.insert(&e.key) {
                unique.push(e);
            }
        }
        let mut points: Vec<FrontPoint> = unique
            .iter()
            .filter(|e| !unique.iter().any(|o| dominates(&o.scores, &e.scores)))
            .map(|e| FrontPoint {
                spec: e.spec,
                key: e.key.clone(),
                scores: e.scores.clone(),
            })
            .collect();
        points.sort_by(|a, b| cmp_scores(&a.scores, &b.scores).then_with(|| a.key.cmp(&b.key)));
        Self { points }
    }

    /// The front's points, best-first under the deterministic order.
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the front is empty (no candidates were evaluated).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` when a design with this canonical spec key is on the front.
    pub fn contains_key(&self, key: &str) -> bool {
        self.points.iter().any(|p| &*p.key == key)
    }

    /// The front as a JSON value (objective *scores* serialise per point;
    /// non-finite scores emit as `null`).
    pub fn to_json(&self, objective_names: &[String]) -> Json {
        Json::obj(vec![
            ("size", Json::Uint(self.points.len() as u64)),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("spec", p.spec.to_json()),
                                (
                                    "scores",
                                    Json::Obj(
                                        objective_names
                                            .iter()
                                            .cloned()
                                            .zip(p.scores.iter().map(|&s| Json::Num(s)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_workloads::WorkloadKind;

    fn eval(key: &str, scores: Vec<f64>) -> Evaluation {
        let spec = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(1),
        );
        Evaluation {
            spec,
            key: SpecKey::from(&Json::Str(key.to_string())),
            scores,
        }
    }

    #[test]
    fn dominance_definition() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
        assert!(!dominates(&[1.0, 2.0], &[2.0, 1.0]), "incomparable");
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]), "equal points");
        assert!(dominates(&[1.0, 1.0], &[f64::INFINITY, 1.0]));
        assert!(dominates(&[f64::INFINITY, 1.0], &[f64::INFINITY, 2.0]));
    }

    #[test]
    fn front_drops_dominated_and_orders_deterministically() {
        let front = ParetoFront::from_evaluations(&[
            eval("c", vec![3.0, 1.0]),
            eval("a", vec![1.0, 3.0]),
            eval("b", vec![2.0, 2.0]),
            eval("d", vec![2.5, 2.5]), // dominated by b
        ]);
        assert_eq!(front.len(), 3);
        let keys: Vec<&str> = front.points().iter().map(|p| &*p.key).collect();
        assert_eq!(
            keys,
            [r#""a""#, r#""b""#, r#""c""#],
            "sorted by scores, not input order"
        );
        assert!(!front.contains_key(r#""d""#));
    }

    #[test]
    fn duplicate_keys_collapse() {
        let front = ParetoFront::from_evaluations(&[eval("a", vec![1.0]), eval("a", vec![1.0])]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn dominator_counts_rank_rungs() {
        let counts = dominator_counts(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![0.5, 3.5],
        ]);
        assert_eq!(counts, vec![0, 1, 2, 0]);
    }
}
