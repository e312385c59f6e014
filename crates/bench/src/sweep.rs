//! The sweep engine: cartesian grids of [`ExperimentSpec`]s fanned out
//! across threads, with deterministic, ordered results.
//!
//! A sweep is defined by a base spec plus the axes to vary (sources,
//! strategies, workloads). Row order is fixed by the grid — source-major,
//! then workload, then strategy — and is **independent of scheduling**:
//! workers pull rows by index, so repeated runs of the same grid produce
//! byte-identical [`render_json`] output no matter how many threads raced.
//!
//! # Examples
//!
//! ```
//! use edc_bench::sweep::Sweep;
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let base = ExperimentSpec::new(
//!     SourceKind::RectifiedSine { hz: 50.0 },
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(3.0));
//! let rows = Sweep::over(base)
//!     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
//!     .run()?
//!     .rows;
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[1].report.strategy, "hibernus");
//! # Ok::<(), edc_core::experiment::BuildError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{BuildError, ExperimentSpec};
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::telemetry::stats_json;
use edc_core::SystemReport;
use edc_telemetry::{StatsSink, Telemetry};
use edc_workloads::WorkloadKind;

use crate::TextTable;

/// One grid point's result: the spec that produced it, its position in the
/// grid, and the run's report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Stable position in the grid's row order.
    pub index: usize,
    /// The spec this row ran.
    pub spec: ExperimentSpec,
    /// The run's report.
    pub report: SystemReport,
}

impl SweepRow {
    /// The row as a JSON value with deterministic field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::Uint(self.index as u64)),
            ("spec", self.spec.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

/// A cartesian sweep over experiment axes.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: ExperimentSpec,
    sources: Vec<SourceKind>,
    strategies: Vec<StrategyKind>,
    workloads: Vec<WorkloadKind>,
    threads: Option<usize>,
    catalog: TraceCatalog,
    metrics: Option<edc_metrics::Registry>,
}

impl Sweep {
    /// A sweep whose axes all start as the base spec's own kinds; widen
    /// them with [`Sweep::sources`], [`Sweep::strategies`] and
    /// [`Sweep::workloads`].
    pub fn over(base: ExperimentSpec) -> Self {
        Self {
            sources: vec![base.source],
            strategies: vec![base.strategy],
            workloads: vec![base.workload],
            base,
            threads: None,
            catalog: TraceCatalog::new(),
            metrics: None,
        }
    }

    /// Supplies the trace catalog the grid's [`SourceKind::Trace`] (and
    /// trace-backed field-view) entries resolve through. Grids without
    /// trace sources never need one.
    pub fn catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Sets the source axis.
    pub fn sources(mut self, axis: &[SourceKind]) -> Self {
        self.sources = axis.to_vec();
        self
    }

    /// Sets the strategy axis.
    pub fn strategies(mut self, axis: &[StrategyKind]) -> Self {
        self.strategies = axis.to_vec();
        self
    }

    /// Sets the workload axis.
    pub fn workloads(mut self, axis: &[WorkloadKind]) -> Self {
        self.workloads = axis.to_vec();
        self
    }

    /// Caps the worker count (defaults to the machine's parallelism).
    /// Thread count never affects results, only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Records sweep and runner counters into `registry` instead of the
    /// process-global [`edc_metrics::global`] one — the registry
    /// counterpart of [`Sweep::catalog`], used by determinism tests that
    /// need an isolated exposition.
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The grid in its stable row order: source-major, then workload, then
    /// strategy.
    pub fn specs(&self) -> Vec<ExperimentSpec> {
        let mut specs =
            Vec::with_capacity(self.sources.len() * self.workloads.len() * self.strategies.len());
        for &source in &self.sources {
            for &workload in &self.workloads {
                for &strategy in &self.strategies {
                    specs.push(
                        self.base
                            .source(source)
                            .workload(workload)
                            .strategy(strategy),
                    );
                }
            }
        }
        specs
    }

    /// Runs every grid point, fanning out across scoped worker threads,
    /// and measures wall-clock time (total and per cell) for `BENCH`
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns the first (by grid order) [`BuildError`]; rows are only
    /// returned when the entire grid assembled and ran.
    pub fn run(&self) -> Result<SweepRun, BuildError> {
        let threads = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        run_specs_timed_metered(self.specs(), threads, &self.catalog, &registry)
    }

    /// Statically lints every grid point without simulating anything.
    /// Diagnostics are located at `$.specs[i]` in grid-row order, so a
    /// flagged row is directly addressable in [`Sweep::run`]'s output.
    /// Running this before a long sweep catches provably-infeasible rows
    /// (`E0xx`) and simulation-wasting hazards (`W1xx`) for the cost of a
    /// few closed-form checks per row.
    pub fn lint(&self) -> edc_lint::LintReport {
        let mut linter = edc_lint::Linter::with_catalog(self.catalog.clone());
        let mut report = edc_lint::LintReport::new();
        for (i, spec) in self.specs().iter().enumerate() {
            report.merge_prefixed(&format!("$.specs[{i}]"), linter.lint_spec(spec));
        }
        report
    }
}

/// Wall-clock timing of a sweep. **Not deterministic** — keep it out of
/// any output that is diffed byte-for-byte (the row/telemetry sections
/// are; timing is reported alongside, never inside, them).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// End-to-end wall-clock of the sweep, including scheduling.
    pub total_s: f64,
    /// Per-cell wall-clock, in grid row order.
    pub per_cell_s: Vec<f64>,
}

impl SweepTiming {
    /// The timing as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_s", Json::Num(self.total_s)),
            (
                "per_cell_s",
                Json::Arr(self.per_cell_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// A completed sweep: ordered rows plus wall-clock timing.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The grid's rows, in stable order.
    pub rows: Vec<SweepRow>,
    /// Wall-clock timing (non-deterministic).
    pub timing: SweepTiming,
}

impl SweepRun {
    /// Folds every cell's [`StatsSink`] telemetry into one grid-level
    /// sink (deterministic: merge happens in row order). `None` when no
    /// cell ran with stats telemetry.
    pub fn aggregate_stats(&self) -> Option<StatsSink> {
        let mut merged: Option<StatsSink> = None;
        for row in &self.rows {
            if let Some(Telemetry::Stats(cell)) = &row.report.telemetry {
                merged.get_or_insert_with(StatsSink::new).merge(cell);
            }
        }
        merged
    }

    /// The deterministic part of the sweep's output: rows (per-cell specs,
    /// reports and telemetry summaries) plus the grid-level aggregate.
    /// Byte-identical across repeated runs of the same grid, serial or
    /// parallel.
    pub fn telemetry_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Uint(self.rows.len() as u64)),
            (
                "aggregate",
                Json::option(self.aggregate_stats(), |s| stats_json(&s)),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(SweepRow::to_json).collect()),
            ),
        ])
    }

    /// The full sweep artifact: the deterministic telemetry section plus
    /// wall-clock timing.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("telemetry", self.telemetry_json()),
            ("timing", self.timing.to_json()),
        ])
    }

    /// Writes every row back into a persistent evaluation store, making
    /// the sweep a **producer** for later searches and serving sessions:
    /// a subsequent [`edc_store::Store`]-backed search over specs this
    /// grid covered re-scores the stored reports instead of simulating.
    /// Sweeps themselves always simulate — rows carry full
    /// in-memory reports the store's JSON envelope cannot reconstruct.
    ///
    /// Each entry is keyed by the row's canonical spec JSON and carries
    /// the report JSON, no objective scores (searches recompute and merge
    /// them back on first use), and a full-fidelity cost of `1.0` per
    /// cell. Returns the number of entries actually appended (rows a
    /// previous run already stored merge instead), counted by the
    /// `edc_store_writes` metric under `phase="sweep"`.
    ///
    /// # Errors
    ///
    /// Any [`edc_store::StoreError`] from the underlying
    /// [`Store::put`](edc_store::Store::put) — an I/O failure, or a
    /// conflicting entry already stored under a row's spec.
    ///
    /// ```
    /// use edc_bench::sweep::Sweep;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_store::Store;
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// let dir = std::env::temp_dir().join("edc-sweep-doc-store");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let base = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::BusyLoop(120),
    /// )
    /// .deadline(Seconds(1.0));
    /// let run = Sweep::over(base)
    ///     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
    ///     .run()?;
    ///
    /// let store = Store::open(&dir)?.into_handle();
    /// let registry = edc_metrics::Registry::new();
    /// assert_eq!(run.store_into(&store, &registry)?, 2);
    /// // Storing the same rows again merges instead of appending.
    /// assert_eq!(run.store_into(&store, &registry)?, 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn store_into(
        &self,
        store: &edc_store::StoreHandle,
        metrics: &edc_metrics::Registry,
    ) -> Result<u64, edc_store::StoreError> {
        let mut appended = 0;
        let mut guard = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for row in &self.rows {
            if guard.put(
                &row.spec.to_json(),
                row.report.to_json(),
                std::collections::BTreeMap::new(),
                1.0,
            )? {
                appended += 1;
            }
        }
        drop(guard);
        if appended > 0 {
            metrics
                .counter(
                    "edc_store_writes",
                    "Simulated evaluations written back to the persistent store, per search phase.",
                    &[("phase", "sweep")],
                )
                .inc_by(appended);
        }
        Ok(appended)
    }
}

/// Runs an explicit spec list (one worker per thread, rows claimed by
/// index) and returns rows in input order, with wall-clock time per cell
/// and for the whole grid. Every worker resolves [`SourceKind::Trace`]
/// entries through the same shared `catalog`. Metrics go to the
/// process-wide [`edc_metrics::global`] registry; see
/// [`run_specs_timed_metered`] for an explicit one.
///
/// # Errors
///
/// Returns the first (by input order) [`BuildError`]. Validation is pure
/// and cheap, so the whole grid is checked — every field, deadline and
/// catalog resolution included — before any simulation starts: a doomed
/// sweep fails immediately instead of after minutes of wasted runs.
pub fn run_specs_timed_in(
    specs: Vec<ExperimentSpec>,
    threads: usize,
    catalog: &TraceCatalog,
) -> Result<SweepRun, BuildError> {
    run_specs_timed_metered(specs, threads, catalog, &edc_metrics::global())
}

/// Histogram bounds for fan-out batch sizes (cells per `par_map` batch,
/// nodes per fleet): powers of two out to 256, `+Inf` beyond.
pub const BATCH_SIZE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// The registry-threaded primitive under [`run_specs_timed_in`]: records
/// batch-level sweep counters (batches, cells, the batch-size histogram)
/// and every cell's runner lifecycle counters into `metrics`, and the
/// batch's wall-clock total into a quarantined wall gauge. The returned
/// rows are unchanged — metrics are an aggregate side channel.
///
/// # Errors
///
/// Returns the first (by input order) [`BuildError`]; the whole grid is
/// validated (every field, deadline and catalog resolution included)
/// before any simulation starts.
pub fn run_specs_timed_metered(
    specs: Vec<ExperimentSpec>,
    threads: usize,
    catalog: &TraceCatalog,
    metrics: &edc_metrics::Registry,
) -> Result<SweepRun, BuildError> {
    for spec in &specs {
        spec.validate_in(catalog)?;
    }
    metrics
        .counter("edc_sweep_batches", "Spec batches fanned out.", &[])
        .inc();
    metrics
        .counter("edc_sweep_cells", "Grid cells simulated.", &[])
        .inc_by(specs.len() as u64);
    metrics
        .histogram(
            "edc_sweep_batch_cells",
            "Cells per fanned-out batch.",
            &[],
            &BATCH_SIZE_BOUNDS,
        )
        .observe(specs.len() as f64);
    let started = Instant::now();
    let results = par_map(&specs, threads, |spec| {
        let cell_started = Instant::now();
        let result = spec.run_metered_in(catalog, metrics);
        (result, cell_started.elapsed().as_secs_f64())
    });
    let total_s = started.elapsed().as_secs_f64();
    metrics
        .wall_gauge(
            "edc_sweep_wall_seconds",
            "Cumulative wall-clock of fanned-out batches (quarantined).",
            &[],
        )
        .add(total_s);
    let mut per_cell_s = Vec::with_capacity(specs.len());
    let rows = specs
        .into_iter()
        .zip(results)
        .enumerate()
        .map(|(index, (spec, (result, elapsed)))| {
            per_cell_s.push(elapsed);
            Ok(SweepRow {
                index,
                spec,
                report: result?,
            })
        })
        .collect::<Result<Vec<_>, BuildError>>()?;
    Ok(SweepRun {
        rows,
        timing: SweepTiming {
            total_s,
            per_cell_s,
        },
    })
}

/// Deterministic scoped fan-out: workers claim items by index and results
/// come back in input order, so thread count affects wall-clock only,
/// never results. With one worker or at most one item it runs inline on
/// the calling thread and spawns nothing. The primitive under
/// [`run_specs_timed_in`], kept public for harnesses whose work items are
/// not experiment specs at all.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled before the scope exits")
        })
        .collect()
}

/// Renders rows as an aligned text table.
pub fn render_text(rows: &[SweepRow]) -> String {
    let mut t = TextTable::new(&[
        "source",
        "workload",
        "strategy",
        "done (s)",
        "snaps",
        "torn",
        "restores",
        "brownouts",
        "reboots",
        "verified",
    ]);
    for row in rows {
        let stats = &row.report.stats;
        t.row(&[
            row.spec.source.name().to_string(),
            row.report.workload.clone(),
            row.report.strategy.clone(),
            stats
                .completed_at
                .map(|s| format!("{:.3}", s.0))
                .unwrap_or_else(|| "DNF".to_string()),
            stats.snapshots.to_string(),
            stats.torn_snapshots.to_string(),
            stats.restores.to_string(),
            stats.brownouts.to_string(),
            stats.boots.to_string(),
            match &row.report.verification {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAIL({e})"),
            },
        ]);
    }
    t.render()
}

/// Renders rows as a JSON array — byte-identical across repeated runs of
/// the same grid.
pub fn render_json(rows: &[SweepRow]) -> String {
    Json::Arr(rows.iter().map(SweepRow::to_json).collect()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_units::Seconds;

    fn small_base() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(200),
        )
        .deadline(Seconds(1.0))
    }

    #[test]
    fn grid_order_is_source_major_then_workload_then_strategy() {
        let sweep = Sweep::over(small_base())
            .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 2.8 }])
            .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
        let specs = sweep.specs();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].strategy, StrategyKind::Restart);
        assert_eq!(specs[1].strategy, StrategyKind::Hibernus);
        assert_eq!(specs[1].workload, WorkloadKind::BusyLoop(100));
        assert_eq!(specs[2].workload, WorkloadKind::Crc16(32));
        assert_eq!(specs[3].source, SourceKind::Dc { volts: 3.3 });
        assert_eq!(specs[4].source, SourceKind::Dc { volts: 2.8 });
    }

    #[test]
    fn parallel_matches_serial_and_is_deterministic() {
        let sweep = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)]);
        let parallel = sweep.clone().threads(4).run().expect("sweep runs").rows;
        let serial = sweep.threads(1).run().expect("sweep runs").rows;
        assert_eq!(render_json(&parallel), render_json(&serial));
        let again = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)])
            .threads(3)
            .run()
            .expect("sweep runs")
            .rows;
        assert_eq!(render_json(&parallel), render_json(&again));
    }

    #[test]
    fn par_map_runs_inline_for_one_worker_or_item_and_keeps_order() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..37).collect();
        let square = |x: &u64| (x * x, std::thread::current().id());
        let inline = par_map(&items, 1, square);
        assert!(inline.iter().all(|&(_, id)| id == caller), "no spawn");
        let single = par_map(&items[..1], 4, square);
        assert_eq!(single, vec![(0, caller)]);
        assert!(par_map(&items[..0], 4, square).is_empty());
        let fanned: Vec<u64> = par_map(&items, 3, square)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        let expected: Vec<u64> = inline.into_iter().map(|(v, _)| v).collect();
        assert_eq!(fanned, expected, "input order at any thread count");
    }

    #[test]
    fn timed_run_measures_every_cell() {
        let run = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .run()
            .expect("sweep runs");
        assert_eq!(run.timing.per_cell_s.len(), run.rows.len());
        assert!(run.timing.per_cell_s.iter().all(|&s| s > 0.0));
        assert!(run.timing.total_s > 0.0);
        let json = run.to_json().to_string();
        assert!(json.contains("\"timing\""));
        assert!(json.contains("\"per_cell_s\""));
    }

    #[test]
    fn stats_telemetry_aggregates_across_cells() {
        use edc_core::TelemetryKind;
        let run = Sweep::over(small_base().telemetry(TelemetryKind::Stats))
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .run()
            .expect("sweep runs");
        let merged = run.aggregate_stats().expect("stats cells present");
        let per_cell: u64 = run
            .rows
            .iter()
            .filter_map(|r| match &r.report.telemetry {
                Some(Telemetry::Stats(s)) => Some(s.counts().boots),
                _ => None,
            })
            .sum();
        assert_eq!(merged.counts().boots, per_cell);
        assert!(merged.counts().completions >= 1);
        // The deterministic section is deterministic; timing is not part
        // of it.
        let telemetry = run.telemetry_json().to_string();
        assert!(!telemetry.contains("per_cell_s"));
        let again = Sweep::over(small_base().telemetry(TelemetryKind::Stats))
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .run()
            .expect("sweep runs");
        assert_eq!(telemetry, again.telemetry_json().to_string());
    }

    #[test]
    fn invalid_grid_point_surfaces_first_error() {
        let err = Sweep::over(small_base().timestep(Seconds(0.0)))
            .run()
            .expect_err("bad timestep");
        assert_eq!(err, BuildError::InvalidTimestep(0.0));
    }

    #[test]
    fn renderers_cover_every_row() {
        let rows = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .run()
            .expect("sweep runs")
            .rows;
        let text = render_text(&rows);
        assert!(text.contains("restart") && text.contains("hibernus"));
        let json = render_json(&rows);
        let parsed = Json::parse(&json).expect("valid JSON");
        match parsed {
            Json::Arr(items) => assert_eq!(items.len(), rows.len()),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
