//! The incremental experiment service: a line-delimited JSON protocol
//! over stdin or TCP, backed by the parallel [`Evaluator`] and an
//! optional persistent [`edc_store::Store`].
//!
//! # Protocol
//!
//! Each request is one JSON object per line. An optional `"id"` field is
//! echoed back verbatim on the matching response, and every response
//! carries `"ok"` plus the request's `"op"`. Requests:
//!
//! - `{"op":"evaluate","spec":{…}}` — score one candidate spec under the
//!   session's objectives. **Evaluate requests batch**: consecutive
//!   evaluate lines accumulate until a blank line, any other op, or
//!   end-of-input flushes them through one parallel evaluator call.
//!   Identical in-flight specs deduplicate — one simulation, N responses.
//!   Each response reports the store key of the canonical spec, the
//!   scores by objective name (non-finite as `"inf"` / `"-inf"` strings,
//!   the store's encoding), and a `"source"`: `simulated` (this batch
//!   ran it), `store` (served by the persistent store), `memo` (served
//!   by the session cache), or `inflight` (deduplicated against an
//!   earlier identical request in the same batch).
//! - `{"op":"search","space":{…axes…}}` — run a full search over a
//!   [`SpecSpace::from_json`] space and return the
//!   [`ExploreReport`](crate::ExploreReport) JSON. Optional fields:
//!   `"searcher"` (`exhaustive-grid`, `random-search`,
//!   `successive-halving`, `coordinate-descent`), `"seed"`/`"samples"`
//!   (random search), `"rounds"` (descent), `"objectives"` (score names:
//!   `completion_s`, `brownouts`, `p99_outage_s`, `energy_per_task_j`),
//!   `"prefilter"` and `"bound"` booleans. The
//!   search shares the session's store, so it warm-starts from — and
//!   enriches — the same evaluation corpus as the evaluate op.
//! - `{"op":"lint","spec":{…}}` — static diagnostics for one spec,
//!   without simulating ([`edc_lint::Linter::lint_spec`]).
//! - `{"op":"fetch","key":"<hex16>"}` — look up stored entries by their
//!   16-hex-digit key hash (collisions return every match; the entry's
//!   `spec` disambiguates).
//! - `{"op":"metrics"}` — the session registry's OpenMetrics text
//!   exposition (deterministic section; wall gauges excluded).
//!
//! Responses stream in request order: a batch's evaluate responses are
//! emitted before any later op's response. Malformed lines produce an
//! `"ok":false` response and the session keeps serving; `edc_serve` also
//! answers an over-long or non-UTF-8 line that way
//! ([`ServeSession::reject_line`]).
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_explore::serve::ServeSession;
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let spec = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 3.3 },
//!     StrategyKind::Restart,
//!     WorkloadKind::BusyLoop(120),
//! )
//! .deadline(Seconds(1.0));
//! let mut session = ServeSession::new().threads(2);
//! let out = session.serve_text(&format!(
//!     "{{\"id\":1,\"op\":\"evaluate\",\"spec\":{}}}\n",
//!     spec.to_json()
//! ));
//! let line = out.lines().next().unwrap();
//! assert!(line.starts_with(r#"{"id":1,"ok":true,"op":"evaluate""#));
//! assert!(line.contains(r#""source":"simulated""#));
//! ```

use std::collections::{HashMap, HashSet};

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_store::{encode_score, hex16, key_hash, parse_hex16, StoreEntry, StoreHandle};
use edc_units::Seconds;

use crate::evaluator::{Evaluator, Provenance};
use crate::objective::Objective;
use crate::search::{CoordinateDescent, ExhaustiveGrid, RandomSearch, Searcher, SuccessiveHalving};
use crate::space::SpecSpace;
use crate::{CompletionTime, EnergyPerTask, Explorer};

/// One batched evaluate request, waiting for the next flush.
struct Pending {
    id: Option<Json>,
    spec: ExperimentSpec,
    /// The raw spec's canonical JSON — the session's dedup/memo key.
    key: String,
}

/// A memoised evaluation: the canonical (evaluator-prepared) spec's
/// store-key hex plus the session objectives' scores.
struct Memoised {
    key_hex: String,
    scores: Vec<f64>,
}

/// One serving session: objectives, catalog, optional store, the session
/// memo, the current batch of pending evaluate requests, and one
/// [`edc_lint::Linter`] for every `lint` request.
///
/// The linter is built against the session catalog on the first `lint`
/// request and kept for the session. What it retains between requests is
/// its cycle memo: one `u64` bare cycle count per distinct
/// [`WorkloadKind`](edc_workloads::WorkloadKind) linted, so later specs of
/// a workload skip its demand run. Lint reports are the same as a fresh
/// linter's.
///
/// Drive it with [`ServeSession::handle_line`] per input line and
/// [`ServeSession::finish`] at end-of-input, or [`ServeSession::serve_text`]
/// for a whole script at once.
pub struct ServeSession {
    objectives: Vec<Box<dyn Objective>>,
    threads: usize,
    catalog: TraceCatalog,
    store: Option<StoreHandle>,
    metrics: edc_metrics::Registry,
    memo: HashMap<String, Memoised>,
    pending: Vec<Pending>,
    linter: Option<edc_lint::Linter>,
}

impl ServeSession {
    /// A session scoring with the default objective pair
    /// ([`CompletionTime`], [`EnergyPerTask`]) on the machine's
    /// parallelism, with no store attached and an isolated metrics
    /// registry.
    pub fn new() -> Self {
        Self {
            objectives: vec![Box::new(CompletionTime), Box::new(EnergyPerTask)],
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            catalog: TraceCatalog::new(),
            store: None,
            metrics: edc_metrics::Registry::new(),
            memo: HashMap::new(),
            pending: Vec::new(),
            linter: None,
        }
    }

    /// Replaces the session objectives (score order everywhere).
    pub fn objectives(mut self, objectives: Vec<Box<dyn Objective>>) -> Self {
        self.objectives = objectives;
        self
    }

    /// Caps the worker count for batch evaluation and searches. Thread
    /// count never affects responses, only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Supplies the trace catalog specs and spaces resolve through.
    pub fn catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self.linter = None;
        self
    }

    /// Attaches a persistent evaluation store: batches consult it before
    /// simulating, write their misses back, and the `fetch` op reads it.
    pub fn store(mut self, store: StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Routes the session's process metrics into `registry` (the
    /// `metrics` op renders this registry's exposition).
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = registry;
        self
    }

    /// Handles one input line, returning zero or more response lines.
    /// Valid evaluate requests enqueue silently (their responses stream
    /// at the next flush); everything else — a blank line, another op, or
    /// a malformed line — flushes the batch first, keeping responses in
    /// request order.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return self.flush();
        }
        let request = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => return self.reject_line(&format!("invalid JSON: {e}")),
        };
        let id = request.get("id").cloned();
        let Some(Json::Str(op)) = request.get("op") else {
            let mut out = self.flush();
            out.push(response(
                &id,
                None,
                false,
                vec![error_field("request missing 'op'")],
            ));
            return out;
        };
        let op = op.clone();
        match op.as_str() {
            "evaluate" => match self.parse_evaluate(&request) {
                Ok(pending) => {
                    self.pending.push(Pending { id, ..pending });
                    Vec::new()
                }
                Err(message) => {
                    let mut out = self.flush();
                    out.push(response(
                        &id,
                        Some("evaluate"),
                        false,
                        vec![error_field(&message)],
                    ));
                    out
                }
            },
            "search" => {
                let mut out = self.flush();
                out.push(self.handle_search(&id, &request));
                out
            }
            "lint" => {
                let mut out = self.flush();
                out.push(self.handle_lint(&id, &request));
                out
            }
            "fetch" => {
                let mut out = self.flush();
                out.push(self.handle_fetch(&id, &request));
                out
            }
            "metrics" => {
                let mut out = self.flush();
                out.push(response(
                    &id,
                    Some("metrics"),
                    true,
                    vec![("text", Json::Str(self.metrics.render_text()))],
                ));
                out
            }
            other => {
                let mut out = self.flush();
                out.push(response(
                    &id,
                    Some(other),
                    false,
                    vec![error_field("unknown op")],
                ));
                out
            }
        }
    }

    /// Answers a line that is no request (invalid JSON, or a line the
    /// transport could not read as text: not UTF-8, or too long) with one
    /// `"ok":false` error, after flushing the pending batch so responses
    /// stay in request order.
    pub fn reject_line(&mut self, message: &str) -> Vec<String> {
        let mut out = self.flush();
        out.push(response(&None, None, false, vec![error_field(message)]));
        out
    }

    /// Flushes the pending evaluate batch: deduplicates identical and
    /// memo-hit specs, runs the survivors through one parallel
    /// [`Evaluator::evaluate`] call (store consulted, misses written
    /// back), and returns one response per request, in request order.
    pub fn flush(&mut self) -> Vec<String> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let pending = std::mem::take(&mut self.pending);
        let memo_before: HashSet<&str> = pending
            .iter()
            .filter(|p| self.memo.contains_key(&p.key))
            .map(|p| p.key.as_str())
            .collect();
        let mut seen: HashSet<&str> = HashSet::new();
        let mut unique: Vec<&Pending> = Vec::new();
        for p in &pending {
            if !memo_before.contains(p.key.as_str()) && seen.insert(p.key.as_str()) {
                unique.push(p);
            }
        }
        // Source of each freshly-resolved key: "store" or "simulated".
        let mut fresh_source: HashMap<&str, &'static str> = HashMap::new();
        if !unique.is_empty() {
            let reference_dt = Seconds(
                unique
                    .iter()
                    .map(|p| p.spec.timestep.0)
                    .fold(f64::INFINITY, f64::min),
            );
            let mut eval = Evaluator::new(&self.objectives, self.threads, None, reference_dt)
                .with_catalog(self.catalog.clone())
                .with_metrics(self.metrics.clone());
            if let Some(store) = &self.store {
                eval = eval.with_store(store.clone());
            }
            let specs: Vec<ExperimentSpec> = unique.iter().map(|p| p.spec).collect();
            let evaluations = match eval.evaluate(specs, "serve") {
                Ok(evaluations) => evaluations,
                Err(e) => {
                    let message = format!("{e}");
                    return pending
                        .iter()
                        .map(|p| {
                            response(&p.id, Some("evaluate"), false, vec![error_field(&message)])
                        })
                        .collect();
                }
            };
            let trace = eval.into_trace();
            for ((p, evaluation), entry) in unique.iter().zip(&evaluations).zip(&trace) {
                fresh_source.insert(
                    p.key.as_str(),
                    match entry.provenance {
                        Provenance::Store => "store",
                        _ => "simulated",
                    },
                );
                self.memo.insert(
                    p.key.clone(),
                    Memoised {
                        key_hex: hex16(key_hash(&evaluation.key)),
                        scores: evaluation.scores.clone(),
                    },
                );
            }
        }
        let mut emitted: HashSet<&str> = HashSet::new();
        pending
            .iter()
            .map(|p| {
                let Some(memoised) = self.memo.get(&p.key) else {
                    return response(
                        &p.id,
                        Some("evaluate"),
                        false,
                        vec![error_field("evaluation produced no result")],
                    );
                };
                let source = if memo_before.contains(p.key.as_str()) {
                    "memo"
                } else if emitted.insert(p.key.as_str()) {
                    fresh_source
                        .get(p.key.as_str())
                        .copied()
                        .unwrap_or("simulated")
                } else {
                    "inflight"
                };
                let scores = Json::Obj(
                    self.objectives
                        .iter()
                        .map(|o| o.name().to_string())
                        .zip(memoised.scores.iter().map(|&s| encode_score(s)))
                        .collect(),
                );
                response(
                    &p.id,
                    Some("evaluate"),
                    true,
                    vec![
                        ("key", Json::Str(memoised.key_hex.clone())),
                        ("scores", scores),
                        ("source", Json::Str(source.into())),
                    ],
                )
            })
            .collect()
    }

    /// Ends the session: flushes the last batch and deterministically
    /// compacts the store (if attached), so two servers fed the same
    /// request script leave byte-identical store files behind.
    pub fn finish(&mut self) -> Vec<String> {
        let mut out = self.flush();
        if let Some(store) = &self.store {
            let mut guard = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Err(e) = guard.compact() {
                out.push(response(
                    &None,
                    Some("compact"),
                    false,
                    vec![error_field(&format!("{e}"))],
                ));
            }
        }
        out
    }

    /// Serves a whole newline-delimited request script (ending with
    /// [`ServeSession::finish`]) and returns the concatenated response
    /// stream, one response per line — the stdin mode of `edc_serve`, and
    /// the function its golden test pins.
    pub fn serve_text(&mut self, input: &str) -> String {
        let mut out = String::new();
        for line in input.lines() {
            for r in self.handle_line(line) {
                out.push_str(&r);
                out.push('\n');
            }
        }
        for r in self.finish() {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }

    fn parse_evaluate(&self, request: &Json) -> Result<Pending, String> {
        let spec_json = request.get("spec").ok_or("evaluate missing 'spec'")?;
        let spec = ExperimentSpec::from_json(spec_json, &self.catalog)?;
        spec.validate_in(&self.catalog).map_err(|e| e.to_string())?;
        let key = spec.to_json().to_string();
        Ok(Pending {
            id: None,
            spec,
            key,
        })
    }

    fn handle_search(&self, id: &Option<Json>, request: &Json) -> String {
        let fail = |message: &str| response(id, Some("search"), false, vec![error_field(message)]);
        let Some(space_json) = request.get("space") else {
            return fail("search missing 'space'");
        };
        let space = match SpecSpace::from_json(space_json, &self.catalog) {
            Ok(space) => space,
            Err(e) => return fail(e),
        };
        let uint = |key: &str, default: u64| match request.get(key) {
            Some(Json::Uint(u)) => Some(*u),
            None => Some(default),
            _ => None,
        };
        let searcher: Box<dyn Searcher> = match request.get("searcher") {
            None => Box::new(ExhaustiveGrid),
            Some(Json::Str(name)) => match name.as_str() {
                "exhaustive-grid" => Box::new(ExhaustiveGrid),
                "random-search" => {
                    let (Some(seed), Some(samples)) = (uint("seed", 0), uint("samples", 16)) else {
                        return fail("'seed' and 'samples' must be unsigned integers");
                    };
                    Box::new(RandomSearch::new(seed, samples as usize))
                }
                "successive-halving" => Box::new(SuccessiveHalving::new()),
                "coordinate-descent" => {
                    let Some(rounds) = uint("rounds", 3) else {
                        return fail("'rounds' must be an unsigned integer");
                    };
                    Box::new(CoordinateDescent::new(rounds as usize))
                }
                _ => return fail("unknown searcher"),
            },
            Some(_) => return fail("'searcher' must be a string"),
        };
        let names: Vec<String> = match request.get("objectives") {
            None => self
                .objectives
                .iter()
                .map(|o| o.name().to_string())
                .collect(),
            Some(Json::Arr(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Json::Str(name) => names.push(name.clone()),
                        _ => return fail("objective names must be strings"),
                    }
                }
                names
            }
            Some(_) => return fail("'objectives' must be an array of names"),
        };
        let flag = |key: &str| matches!(request.get(key), Some(Json::Bool(true)));
        let mut explorer = Explorer::new()
            .catalog(self.catalog.clone())
            .threads(self.threads)
            .metrics(self.metrics.clone())
            .prefilter(flag("prefilter"))
            .bound(flag("bound"));
        for name in &names {
            explorer = match name.as_str() {
                "completion_s" => explorer.objective(CompletionTime),
                "brownouts" => explorer.objective(crate::BrownoutCount),
                "p99_outage_s" => explorer.objective(crate::P99Outage),
                "energy_per_task_j" => explorer.objective(EnergyPerTask),
                _ => return fail("unknown objective name"),
            };
        }
        if let Some(store) = &self.store {
            explorer = explorer.store(store.clone());
        }
        match explorer.run(&space, searcher.as_ref()) {
            Ok(report) => response(id, Some("search"), true, vec![("report", report.to_json())]),
            Err(e) => fail(&format!("{e}")),
        }
    }

    fn handle_lint(&mut self, id: &Option<Json>, request: &Json) -> String {
        let Some(spec_json) = request.get("spec") else {
            return response(
                id,
                Some("lint"),
                false,
                vec![error_field("lint missing 'spec'")],
            );
        };
        let spec = match ExperimentSpec::from_json(spec_json, &self.catalog) {
            Ok(spec) => spec,
            Err(e) => return response(id, Some("lint"), false, vec![error_field(e)]),
        };
        let report = self
            .linter
            .get_or_insert_with(|| edc_lint::Linter::with_catalog(self.catalog.clone()))
            .lint_spec(&spec);
        response(id, Some("lint"), true, vec![("report", report.to_json())])
    }

    fn handle_fetch(&self, id: &Option<Json>, request: &Json) -> String {
        let fail = |message: &str| response(id, Some("fetch"), false, vec![error_field(message)]);
        let Some(store) = &self.store else {
            return fail("no store attached");
        };
        let Some(Json::Str(key)) = request.get("key") else {
            return fail("fetch missing 'key'");
        };
        let Some(hash) = parse_hex16(key) else {
            return fail("'key' is not a 16-hex-digit hash");
        };
        let guard = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entries = Json::Arr(
            guard
                .get_by_hash(hash)
                .into_iter()
                .map(entry_json)
                .collect(),
        );
        response(id, Some("fetch"), true, vec![("entries", entries)])
    }
}

impl Default for ServeSession {
    fn default() -> Self {
        Self::new()
    }
}

/// One stored entry as response JSON: key, spec, report, encoded scores,
/// and cost — the `fetch` op's payload shape.
fn entry_json(entry: &StoreEntry) -> Json {
    Json::obj(vec![
        ("key", Json::Str(hex16(entry.hash()))),
        ("spec", Json::parse(&entry.spec_json).unwrap_or(Json::Null)),
        ("report", entry.report.clone()),
        (
            "scores",
            Json::Obj(
                entry
                    .scores
                    .iter()
                    .map(|(name, &score)| (name.clone(), encode_score(score)))
                    .collect(),
            ),
        ),
        ("cost", Json::Num(entry.cost)),
    ])
}

fn error_field(message: &str) -> (&'static str, Json) {
    ("error", Json::Str(message.to_string()))
}

/// Builds one response line: `id` (echoed when the request carried one),
/// `ok`, `op`, then the payload fields, in that order.
fn response(
    id: &Option<Json>,
    op: Option<&str>,
    ok: bool,
    payload: Vec<(&'static str, Json)>,
) -> String {
    let mut fields = Vec::with_capacity(payload.len() + 3);
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.push(("ok", Json::Bool(ok)));
    if let Some(op) = op {
        fields.push(("op", Json::Str(op.to_string())));
    }
    fields.extend(payload);
    Json::obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_workloads::WorkloadKind;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(150),
        )
        .deadline(Seconds(1.0))
    }

    fn evaluate_line(id: u64, spec: &ExperimentSpec) -> String {
        format!(r#"{{"id":{id},"op":"evaluate","spec":{}}}"#, spec.to_json())
    }

    #[test]
    fn identical_inflight_requests_simulate_once_and_answer_all() {
        let registry = edc_metrics::Registry::new();
        let mut session = ServeSession::new().threads(2).metrics(registry.clone());
        let mut input = String::new();
        for id in 0..4 {
            input.push_str(&evaluate_line(id, &spec()));
            input.push('\n');
        }
        let out = session.serve_text(&input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request");
        assert!(lines[0].contains(r#""source":"simulated""#));
        for line in &lines[1..] {
            assert!(line.contains(r#""source":"inflight""#), "{line}");
        }
        // One simulation total, pinned by the runner-boot counter.
        let text = registry.render_text();
        assert!(
            text.contains("edc_sweep_cells_total 1"),
            "exactly one cell simulated:\n{text}"
        );
    }

    #[test]
    fn later_batches_hit_the_session_memo() {
        let mut session = ServeSession::new().threads(1);
        let first = session.handle_line(&evaluate_line(1, &spec()));
        assert!(first.is_empty(), "batched, not answered yet");
        let flushed = session.handle_line("");
        assert_eq!(flushed.len(), 1);
        assert!(flushed[0].contains(r#""source":"simulated""#));
        let again = session.handle_line(&evaluate_line(2, &spec()));
        assert!(again.is_empty());
        let flushed = session.handle_line("");
        assert!(flushed[0].contains(r#""source":"memo""#), "{}", flushed[0]);
    }

    #[test]
    fn store_round_trip_serves_warm_and_fetches_by_key() {
        let dir = std::env::temp_dir().join("edc-serve-test-store");
        let _ = std::fs::remove_dir_all(&dir);
        let store = edc_store::Store::open(&dir).expect("open").into_handle();
        let mut cold = ServeSession::new().threads(1).store(store);
        let out = cold.serve_text(&evaluate_line(1, &spec()));
        assert!(out
            .lines()
            .next()
            .unwrap()
            .contains(r#""source":"simulated""#));
        let key = Json::parse(out.lines().next().unwrap())
            .ok()
            .and_then(|j| j.get("key").cloned())
            .expect("response carries a key");

        // A fresh session over a reopened store answers from the store.
        let store = edc_store::Store::open(&dir).expect("reopen").into_handle();
        let mut warm = ServeSession::new().threads(1).store(store);
        let input = format!(
            "{}\n\n{{\"id\":9,\"op\":\"fetch\",\"key\":{key}}}\n",
            evaluate_line(2, &spec())
        );
        let out = warm.serve_text(&input);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(r#""source":"store""#), "{}", lines[0]);
        assert!(lines[1].starts_with(r#"{"id":9,"ok":true,"op":"fetch""#));
        assert!(lines[1].contains(r#""cost":"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_op_returns_a_report_and_shares_the_store() {
        let dir = std::env::temp_dir().join("edc-serve-test-search");
        let _ = std::fs::remove_dir_all(&dir);
        let store = edc_store::Store::open(&dir).expect("open").into_handle();
        let space =
            SpecSpace::over(spec()).strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
        let request = format!(
            r#"{{"id":1,"op":"search","searcher":"exhaustive-grid","space":{}}}"#,
            space.axes_json()
        );
        let mut session = ServeSession::new().threads(1).store(store.clone());
        let out = session.serve_text(&format!("{request}\n"));
        let report = Json::parse(out.lines().next().unwrap()).expect("response JSON");
        assert_eq!(report.get("ok"), Some(&Json::Bool(true)));
        let evaluations = report.get("report").and_then(|r| r.get("evaluations"));
        assert_eq!(evaluations, Some(&Json::Uint(2)));

        // The same search in the same session warm-starts from the store.
        let mut warm = ServeSession::new().threads(1).store(store);
        let warm_out = warm.serve_text(&format!("{request}\n"));
        let warm_report = Json::parse(warm_out.lines().next().unwrap()).expect("JSON");
        assert_eq!(
            warm_report.get("report").and_then(|r| r.get("evaluations")),
            Some(&Json::Uint(0)),
            "warm search simulates nothing"
        );
        assert_eq!(
            warm_report.get("report").and_then(|r| r.get("front")),
            report.get("report").and_then(|r| r.get("front")),
            "warm front is identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_and_unknown_ops_answer_without_killing_the_session() {
        let mut session = ServeSession::new().threads(1);
        let out = session.handle_line("{not json");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(r#""ok":false"#));
        let out = session.handle_line(r#"{"id":3,"op":"warp"}"#);
        assert!(out[0].starts_with(r#"{"id":3,"ok":false,"op":"warp""#));
        let out = session.handle_line(r#"{"op":"evaluate"}"#);
        assert!(out[0].contains("missing 'spec'"));
        // Still serves afterwards.
        let out = session.serve_text(&evaluate_line(4, &spec()));
        assert!(out.lines().next().unwrap().contains(r#""ok":true"#));
    }

    #[test]
    fn deeply_nested_line_is_one_error_and_the_session_survives() {
        let mut session = ServeSession::new().threads(1);
        let out = session.handle_line(&"[".repeat(200_000));
        assert_eq!(out.len(), 1, "exactly one response");
        assert!(out[0].contains(r#""ok":false"#), "{}", out[0]);
        assert!(out[0].contains("nesting too deep"), "{}", out[0]);
        let out = session.serve_text(&evaluate_line(5, &spec()));
        assert!(out.lines().next().unwrap().contains(r#""ok":true"#));
    }

    #[test]
    fn one_session_lints_like_a_fresh_session_per_line() {
        let lint_specs = [
            spec(),
            spec().source(SourceKind::Dc { volts: 1.5 }),
            spec().workload(WorkloadKind::Crc16(64)),
            spec().source(SourceKind::OutdoorPv { seed: 7 }),
            spec().source(SourceKind::Turbine).deadline(Seconds(0.3)),
            spec().workload(WorkloadKind::Endless),
            spec().source(SourceKind::RectifiedSine { hz: -1.0 }),
            spec(),
        ];
        let mut lines = Vec::new();
        for (i, s) in lint_specs.iter().enumerate() {
            lines.push(format!(
                r#"{{"id":{i},"op":"lint","spec":{}}}"#,
                s.to_json()
            ));
            if i % 3 == 1 {
                let evaluated = spec().workload(WorkloadKind::BusyLoop(100 + i as u16));
                lines.push(evaluate_line(100 + i as u64, &evaluated));
            }
        }
        let shared = ServeSession::new().threads(1).serve_text(&lines.join("\n"));
        let fresh: String = lines
            .iter()
            .map(|line| ServeSession::new().threads(1).serve_text(line))
            .collect();
        assert_eq!(shared.lines().count(), lines.len(), "one response per line");
        assert_eq!(shared, fresh);
    }

    #[test]
    fn lint_and_metrics_ops_answer_in_shape() {
        let mut session = ServeSession::new().threads(1);
        let line = format!(r#"{{"id":1,"op":"lint","spec":{}}}"#, spec().to_json());
        let out = session.handle_line(&line);
        assert!(out[0].starts_with(r#"{"id":1,"ok":true,"op":"lint""#));
        assert!(out[0].contains(r#""report""#));
        // After an evaluation the exposition carries real counters.
        let out = session.serve_text(&format!(
            "{}\n{{\"op\":\"metrics\"}}\n",
            evaluate_line(2, &spec())
        ));
        let metrics_line = out.lines().nth(1).expect("metrics response");
        assert!(metrics_line.contains(r#""ok":true,"op":"metrics""#));
        assert!(metrics_line.contains("# HELP"));
    }
}
