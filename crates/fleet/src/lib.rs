//! `edc-fleet`: deterministic multi-node scenarios over a shared harvest
//! field.
//!
//! Everything below `edc-fleet` simulates **one** device. This crate
//! simulates a **population**: `N` nodes of one design
//! ([`FleetSpec::design`]) deployed into one ambient field
//! ([`FieldSpec`] — a synthetic envelope or a recorded power trace),
//! partitioned across the nodes by placement-dependent attenuation and a
//! per-node phase stagger. It is the first step from the paper's
//! single-node comparison toward fleet-level co-design questions: *how
//! many nodes of which design cover a sensing duty cycle?*
//!
//! - [`Fleet`] — the runner: expands a [`FleetSpec`] into per-node runs
//!   and fans them out across worker threads. **Every** field kind becomes
//!   plain per-node
//!   [`ExperimentSpec`](edc_core::experiment::ExperimentSpec)s executed by
//!   the sweep engine's [`run_specs_timed_metered`]: synthetic envelopes
//!   directly,
//!   recorded power traces by registering themselves into the runner's
//!   [`TraceCatalog`] and viewing the registered trace per node. One
//!   spec-driven path — thread count affects wall-clock only, never
//!   results.
//! - [`FleetReport`] — per-node [`SystemReport`]s plus [`FleetMetrics`]
//!   (duty-cycle coverage, sustainable task rate, the smallest covering
//!   prefix of the placement, brownout-free fraction, fleet energy per
//!   completed task) and merged [`StatsSink`] telemetry. Its JSON is
//!   **byte-identical** across repeated runs and serial-vs-parallel
//!   execution.
//!
//! # The coverage model
//!
//! A design that completes its sensing task at `t_i` seconds (from cold
//! start, through every brownout its placement suffers) can sustain one
//! task every `t_i` seconds. A fleet's aggregate task rate is
//! `Σ 1 / t_i` over completing nodes, and its *coverage* of a duty cycle
//! with period `T` is `min(1, T · Σ 1 / t_i)` — the fraction of the duty
//! cycle's demand the population can serve. [`FleetMetrics::nodes_to_cover`]
//! is the smallest placement prefix whose coverage reaches 1, which turns
//! one fleet run into an answer for *every* smaller fleet of the same
//! placement.
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::fleet::{FieldSpec, FleetSpec};
//! use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
//! use edc_fleet::Fleet;
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let design = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 3.3 }, // replaced by each node's field view
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(2.0));
//! let spec = FleetSpec::new(
//!     FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
//!     design,
//!     3,
//! )
//! .stagger(Seconds(0.005));
//! let report = Fleet::new(spec).threads(2).run()?;
//! assert_eq!(report.nodes.len(), 3);
//! assert!(report.metrics.coverage > 0.0);
//! # Ok::<(), edc_core::fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use edc_bench::sweep::{run_specs_timed_metered, BATCH_SIZE_BOUNDS};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::SpecKey;
use edc_core::fleet::{FleetError, FleetSpec};
use edc_core::json::Json;
use edc_core::telemetry::stats_json;
use edc_core::SystemReport;
use edc_telemetry::{StatsSink, Telemetry};

pub use edc_core::fleet::{FieldSpec, Placement};
pub use edc_core::scenarios::FieldEnvelope;

/// The fleet runner: a [`FleetSpec`] plus execution policy.
#[derive(Debug, Clone)]
pub struct Fleet {
    spec: FleetSpec,
    threads: Option<usize>,
    catalog: TraceCatalog,
    metrics: Option<edc_metrics::Registry>,
}

impl Fleet {
    /// A runner for `spec` using the machine's parallelism.
    pub fn new(spec: FleetSpec) -> Self {
        Self {
            spec,
            threads: None,
            catalog: TraceCatalog::new(),
            metrics: None,
        }
    }

    /// Caps the worker count. Thread count never affects results, only
    /// wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Seeds the runner's trace catalog. [`FieldSpec::PowerTrace`] fields
    /// register themselves on [`Fleet::run`] regardless; supplying a
    /// shared catalog lets the per-node design itself use
    /// [`SourceKind::Trace`](edc_core::scenarios::SourceKind::Trace)
    /// entries registered elsewhere.
    pub fn catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Routes this runner's process metrics (fleet deployment counters,
    /// bucket-dedup hits, and the sweep/runner counters of the node batch)
    /// into `registry` instead of the process-wide [`edc_metrics::global`]
    /// registry.
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Runs every node and reports fleet-level metrics. Both field kinds
    /// take the same path: the spec expands into per-node
    /// [`SourceKind::FieldView`](edc_core::scenarios::SourceKind::FieldView)
    /// specs (recorded traces are first registered into the runner's
    /// catalog) and one [`run_specs_timed_metered`] batch executes the
    /// distinct placement buckets: nodes with byte-identical specs
    /// simulate **once** and share the report (counted by the
    /// `edc_fleet_bucket_dedup_hits` metric).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint of the spec; once validation
    /// passes, per-node assembly cannot fail.
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        self.spec.validate()?;
        let threads = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        let mut catalog = self.catalog.clone();
        let specs = self.spec.node_specs_in(&mut catalog)?;
        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        registry
            .counter("edc_fleet_runs", "Fleet deployments executed.", &[])
            .inc();
        registry
            .counter(
                "edc_fleet_nodes",
                "Fleet nodes deployed (simulated or served by bucket dedup).",
                &[],
            )
            .inc_by(specs.len() as u64);
        registry
            .histogram(
                "edc_fleet_batch_nodes",
                "Nodes per fleet deployment.",
                &[],
                &BATCH_SIZE_BOUNDS,
            )
            .observe(specs.len() as f64);

        // Bucket dedup: nodes whose derived specs are byte-identical (the
        // spec key is the bucket key, as in the evaluator's memo cache)
        // simulate once; the rest clone the bucket's report.
        let mut bucket_of: HashMap<SpecKey, usize> = HashMap::new();
        let mut unique = Vec::new();
        let mut assignment = Vec::with_capacity(specs.len());
        for spec in specs {
            let bucket = *bucket_of.entry(spec.key()).or_insert_with(|| {
                unique.push(spec);
                unique.len() - 1
            });
            assignment.push(bucket);
        }
        registry
            .counter(
                "edc_fleet_bucket_dedup_hits",
                "Fleet nodes served by cloning an identical bucket's report instead of simulating.",
                &[],
            )
            .inc_by((assignment.len() - unique.len()) as u64);
        let run = run_specs_timed_metered(unique, threads, &catalog, &registry)
            .map_err(FleetError::Design)?;
        let bucket_reports: Vec<SystemReport> =
            run.rows.into_iter().map(|row| row.report).collect();
        let nodes: Vec<SystemReport> = assignment
            .into_iter()
            .map(|bucket| bucket_reports[bucket].clone())
            .collect();
        let metrics = FleetMetrics::from_reports(&self.spec, &nodes);
        Ok(FleetReport {
            spec: self.spec.clone(),
            nodes,
            metrics,
        })
    }

    /// Statically lints the fleet without deploying it: collect-all spec
    /// validation (`E001`), duplicate placement buckets (`W104`), and each
    /// node's derived single-node spec under `$.nodes[i]` — so a placement
    /// whose attenuation statically brownouts a node surfaces as that
    /// node's `E002` before any simulation is paid for.
    pub fn lint(&self) -> edc_lint::LintReport {
        edc_lint::Linter::with_catalog(self.catalog.clone()).lint_fleet(&self.spec)
    }
}

/// Fleet-level figures of merit, derived from the per-node reports in
/// node order (so they are deterministic whenever the runs are).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetMetrics {
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Nodes whose workload completed (and verified) by the deadline.
    pub completed_nodes: usize,
    /// Nodes that saw zero brownouts.
    pub brownout_free_nodes: usize,
    /// `brownout_free_nodes / nodes`.
    pub brownout_free_fraction: f64,
    /// Aggregate sustainable task rate: `Σ 1 / t_i` over completing nodes,
    /// in hertz.
    pub task_rate_hz: f64,
    /// Coverage of the spec's duty period: `min(1, duty_period ×
    /// task_rate_hz)`.
    pub coverage: f64,
    /// Smallest `k` such that nodes `0..k` alone reach coverage 1, if any
    /// prefix does.
    pub nodes_to_cover: Option<usize>,
    /// Total energy drawn across the fleet, joules.
    pub fleet_energy_j: f64,
    /// `fleet_energy_j` per completed task; `None` when nothing completed.
    pub energy_per_completed_task_j: Option<f64>,
}

impl FleetMetrics {
    /// Computes the metrics for `spec` from its per-node reports.
    pub fn from_reports(spec: &FleetSpec, reports: &[SystemReport]) -> Self {
        let duty = spec.duty_period.0;
        let mut completed = 0usize;
        let mut brownout_free = 0usize;
        let mut task_rate = 0.0f64;
        let mut energy = 0.0f64;
        let mut nodes_to_cover = None;
        for (i, report) in reports.iter().enumerate() {
            if let Some(t) = report.stats.completed_at {
                if report.succeeded() {
                    completed += 1;
                    task_rate += 1.0 / t.0;
                }
            }
            if report.stats.brownouts == 0 {
                brownout_free += 1;
            }
            energy += report.stats.energy_consumed.0;
            if nodes_to_cover.is_none() && duty * task_rate >= 1.0 {
                nodes_to_cover = Some(i + 1);
            }
        }
        let nodes = reports.len();
        Self {
            nodes,
            completed_nodes: completed,
            brownout_free_nodes: brownout_free,
            brownout_free_fraction: if nodes > 0 {
                brownout_free as f64 / nodes as f64
            } else {
                0.0
            },
            task_rate_hz: task_rate,
            coverage: (duty * task_rate).min(1.0),
            nodes_to_cover,
            fleet_energy_j: energy,
            energy_per_completed_task_j: if completed > 0 {
                Some(energy / completed as f64)
            } else {
                None
            },
        }
    }

    /// The metrics as a JSON value with deterministic field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nodes", Json::Uint(self.nodes as u64)),
            ("completed_nodes", Json::Uint(self.completed_nodes as u64)),
            (
                "brownout_free_nodes",
                Json::Uint(self.brownout_free_nodes as u64),
            ),
            (
                "brownout_free_fraction",
                Json::Num(self.brownout_free_fraction),
            ),
            ("task_rate_hz", Json::Num(self.task_rate_hz)),
            ("coverage", Json::Num(self.coverage)),
            (
                "nodes_to_cover",
                Json::option(self.nodes_to_cover, |n| Json::Uint(n as u64)),
            ),
            ("fleet_energy_j", Json::Num(self.fleet_energy_j)),
            (
                "energy_per_completed_task_j",
                Json::option(self.energy_per_completed_task_j, Json::Num),
            ),
        ])
    }
}

/// A completed fleet run: the spec, every node's report, and the derived
/// fleet metrics.
///
/// Serialisation is **byte-stable**: identical specs produce identical
/// JSON regardless of thread count or repetition (wall-clock time never
/// enters the report).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The scenario that ran.
    pub spec: FleetSpec,
    /// Per-node reports, in node order.
    pub nodes: Vec<SystemReport>,
    /// Fleet-level figures of merit.
    pub metrics: FleetMetrics,
}

impl FleetReport {
    /// Folds every node's [`StatsSink`] telemetry into one fleet-level
    /// sink (deterministic: merge happens in node order). `None` when no
    /// node ran with stats telemetry.
    pub fn aggregate_stats(&self) -> Option<StatsSink> {
        let mut merged: Option<StatsSink> = None;
        for report in &self.nodes {
            if let Some(Telemetry::Stats(node)) = &report.telemetry {
                merged.get_or_insert_with(StatsSink::new).merge(node);
            }
        }
        merged
    }

    /// The report as a JSON value: the lossless spec, the fleet metrics,
    /// the merged telemetry aggregate, and every node's placement and
    /// report. Byte-identical across repeated and serial-vs-parallel runs.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fleet", self.spec.to_json()),
            ("metrics", self.metrics.to_json()),
            (
                "aggregate",
                Json::option(self.aggregate_stats(), |s| stats_json(&s)),
            ),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .enumerate()
                        .map(|(i, report)| {
                            Json::obj(vec![
                                ("node", Json::Uint(i as u64)),
                                ("attenuation", Json::Num(self.spec.attenuation(i))),
                                ("phase_s", Json::Num(self.spec.phase(i).0)),
                                ("report", report.to_json()),
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
    use edc_core::experiment::ExperimentSpec;
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_core::TelemetryKind;
    use edc_units::Seconds;
    use edc_workloads::WorkloadKind;

    fn design() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Hibernus,
            WorkloadKind::BusyLoop(200),
        )
        .timestep(Seconds(50e-6))
        .deadline(Seconds(1.0))
    }

    fn envelope_spec(nodes: usize) -> FleetSpec {
        FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            design(),
            nodes,
        )
        .placement(Placement::Line {
            near: 1.0,
            far: 0.7,
        })
        .stagger(Seconds(0.004))
    }

    #[test]
    fn fleet_runs_and_counts_every_node() {
        let report = Fleet::new(envelope_spec(3)).threads(2).run().expect("runs");
        assert_eq!(report.nodes.len(), 3);
        assert_eq!(report.metrics.nodes, 3);
        assert!(
            report.metrics.completed_nodes >= 1,
            "full-strength node 0 completes"
        );
        assert!(report.metrics.fleet_energy_j > 0.0);
        assert!(report.metrics.task_rate_hz > 0.0);
    }

    #[test]
    fn coverage_is_monotone_in_fleet_size() {
        let small = Fleet::new(envelope_spec(1)).run().expect("runs");
        let large = Fleet::new(envelope_spec(4)).run().expect("runs");
        assert!(large.metrics.task_rate_hz >= small.metrics.task_rate_hz);
        assert!(large.metrics.coverage >= small.metrics.coverage);
    }

    #[test]
    fn nodes_to_cover_is_a_covering_prefix() {
        let report = Fleet::new(envelope_spec(4).duty_period(Seconds(1.0)))
            .run()
            .expect("runs");
        if let Some(k) = report.metrics.nodes_to_cover {
            assert!((1..=4).contains(&k));
            let prefix_rate: f64 = report.nodes[..k]
                .iter()
                .filter_map(|r| r.stats.completed_at)
                .map(|t| 1.0 / t.0)
                .sum();
            assert!(prefix_rate * 1.0 >= 1.0, "prefix really covers");
            assert!((report.metrics.coverage - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_telemetry_merges_across_nodes() {
        let spec = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            design().telemetry(TelemetryKind::Stats),
            2,
        );
        let report = Fleet::new(spec).run().expect("runs");
        let merged = report.aggregate_stats().expect("stats nodes present");
        let boots: u64 = report
            .nodes
            .iter()
            .filter_map(|r| match &r.telemetry {
                Some(Telemetry::Stats(s)) => Some(s.counts().boots),
                _ => None,
            })
            .sum();
        assert_eq!(merged.counts().boots, boots);
        assert!(report.to_json().to_string().contains("\"aggregate\":{"));
    }

    #[test]
    fn bucket_dedup_simulates_once_and_preserves_the_report() {
        // No placement gradient and no stagger: all 3 node specs are
        // byte-identical, so dedup collapses them to one simulation.
        let spec = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            design(),
            3,
        );
        let registry = edc_metrics::Registry::new();
        let fleet = Fleet::new(spec.clone())
            .threads(2)
            .metrics(registry.clone());
        let deduped = fleet.run().expect("runs");
        let text = registry.render_text();
        assert!(
            text.contains("edc_fleet_bucket_dedup_hits_total 2"),
            "{text}"
        );
        assert!(text.contains("edc_fleet_nodes_total 3"), "{text}");
        assert!(
            text.contains("edc_sweep_cells_total 1\n"),
            "one bucket simulated: {text}"
        );
        // Each node's report equals its spec run on its own.
        let mut catalog = TraceCatalog::new();
        let specs = spec.node_specs_in(&mut catalog).expect("expands");
        let direct = run_specs_timed_metered(specs, 2, &catalog, &edc_metrics::Registry::new())
            .expect("runs");
        let json = |r: &SystemReport| r.to_json().to_string();
        assert_eq!(
            deduped.nodes.iter().map(json).collect::<Vec<_>>(),
            direct
                .rows
                .iter()
                .map(|row| json(&row.report))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn distinct_placements_never_dedup() {
        let registry = edc_metrics::Registry::new();
        let fleet = Fleet::new(envelope_spec(3)).metrics(registry.clone());
        fleet.run().expect("runs");
        let text = registry.render_text();
        assert!(
            text.contains("edc_sweep_cells_total 3\n"),
            "all buckets distinct: {text}"
        );
        assert!(
            text.contains("edc_fleet_bucket_dedup_hits_total 0"),
            "{text}"
        );
    }

    #[test]
    fn invalid_fleet_is_an_error_not_a_panic() {
        let err = Fleet::new(envelope_spec(0)).run().expect_err("no nodes");
        assert_eq!(err, FleetError::NoNodes);
    }

    #[test]
    fn metrics_handle_the_empty_and_dnf_cases() {
        let spec = envelope_spec(2);
        let m = FleetMetrics::from_reports(&spec, &[]);
        assert_eq!(m.nodes, 0);
        assert_eq!(m.energy_per_completed_task_j, None);
        assert_eq!(m.nodes_to_cover, None);
        assert_eq!(m.coverage, 0.0);
        // A fleet whose deadline forbids completion covers nothing.
        let dnf = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::Dc { volts: 3.3 }),
            design()
                .workload(WorkloadKind::Endless)
                .deadline(Seconds(0.01)),
            2,
        );
        let report = Fleet::new(dnf).run().expect("runs");
        assert_eq!(report.metrics.completed_nodes, 0);
        assert_eq!(report.metrics.coverage, 0.0);
        assert_eq!(report.metrics.energy_per_completed_task_j, None);
        let json = report.to_json().to_string();
        assert!(json.contains("\"nodes_to_cover\":null"));
        assert!(json.contains("\"energy_per_completed_task_j\":null"));
    }
}
