//! Fleet benchmark: duty-cycle coverage vs. population size over one
//! shared harvest field.
//!
//! The scenario is the sizing question the fleet layer exists to answer:
//! *how many mementos sense-pipeline nodes does a 50 Hz rectified-sine field
//! need to cover a 1 Hz sensing duty cycle?* The bench scales one design from
//! 1 to 16 nodes along a line placement (full strength down to 75%) with a
//! 4 ms phase stagger, then replays the same design against a recorded
//! power trace of the field, which registers itself in a `TraceCatalog`
//! and runs through the same spec-driven sweep-engine path.
//!
//! `BENCH_fleet.json` layout: the deterministic `FleetReport` sections
//! (byte-diffable between commits) plus wall-clock timing per fleet size
//! (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-fleet --bin bench_fleet`
//! Output path override: `bench_fleet <path>` (default `BENCH_fleet.json`
//! in the working directory).
//!
//! `--store DIR` additionally persists every node's `(spec, report)`
//! pair into an `edc-store` evaluation store — fleets are pure
//! *producers*: store consumers (the explore evaluator, `edc_serve`) can
//! then serve these per-node designs without re-simulating. The flag
//! also hard-asserts both report sections byte-identical to the
//! committed cold `BENCH_fleet.json`, pinning that persistence never
//! perturbs the runs themselves.

use std::collections::BTreeMap;
use std::time::Instant;

use edc_bench::{banner, MainError, TextTable};
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::fleet::{FieldSpec, FleetSpec, Placement};
use edc_core::json::Json;
use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use edc_core::TelemetryKind;
use edc_fleet::{Fleet, FleetReport};
use edc_store::Store;
use edc_units::{Farads, Seconds};
use edc_workloads::WorkloadKind;

/// The per-node design every fleet in the bench deploys: a Mementos
/// sense→filter→transmit node whose 47 µF decoupling funds the ADC and
/// radio bursts. Verified single-node task latency on this field runs
/// ≈ 1–4 s depending on placement (weak placements do not finish at all),
/// so a 1 Hz duty cycle genuinely needs a fleet.
fn design() -> ExperimentSpec {
    ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 }, // replaced by each node's field view
        StrategyKind::Mementos,
        WorkloadKind::SensePipeline {
            windows: 256,
            samples: 16,
        },
    )
    .decoupling(Farads::from_micro(47.0))
    .deadline(Seconds(6.0))
    .telemetry(TelemetryKind::Stats)
}

/// A fleet of `nodes` over the shared 50 Hz rectified-sine field.
fn envelope_fleet(nodes: usize) -> FleetSpec {
    FleetSpec::new(
        FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
        design(),
        nodes,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.75,
    })
    .stagger(Seconds(0.004))
    .duty_period(Seconds(1.0))
}

/// A synthetic recorded power trace of the same field class: one mains
/// cycle's harvested power, sampled at 1 ms and looped. Deterministic, so
/// the artifact stays byte-diffable.
fn trace_fleet(nodes: usize) -> FleetSpec {
    let samples: Vec<(f64, f64)> = (0..20)
        .map(|i| {
            let t = i as f64 * 1e-3;
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            // Half-wave rectified sine, scaled to a few milliwatts.
            (t, 8e-3 * phase.sin().max(0.0))
        })
        .collect();
    FleetSpec::new(
        FieldSpec::PowerTrace {
            name: "mains-cycle".into(),
            samples,
            looping: true,
        },
        design(),
        nodes,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.75,
    })
    .stagger(Seconds(0.004))
    .duty_period(Seconds(1.0))
}

fn run(spec: FleetSpec) -> Result<(FleetReport, f64), MainError> {
    let started = Instant::now();
    let report = Fleet::new(spec)
        .run()
        .map_err(|e| format!("fleet failed to assemble: {e}"))?;
    Ok((report, started.elapsed().as_secs_f64()))
}

fn main() -> Result<(), MainError> {
    let args = edc_bench::bench_args("BENCH_fleet.json");
    let path = args.path.clone();

    let sizes = [1usize, 2, 4, 8, 16];
    let mut scaling: Vec<(usize, FleetReport, f64)> = Vec::new();
    for &n in &sizes {
        let (report, wall_s) = run(envelope_fleet(n))?;
        scaling.push((n, report, wall_s));
    }
    let (trace_report, trace_s) = run(trace_fleet(8))?;

    banner("Fleet scaling: 50 Hz rectified-sine field, mementos/sense-pipeline nodes");
    let mut table = TextTable::new(&[
        "nodes",
        "completed",
        "task rate (Hz)",
        "coverage",
        "covers @",
        "brownout-free",
        "energy/task (mJ)",
        "wall (s)",
    ]);
    for (n, report, wall_s) in &scaling {
        let m = &report.metrics;
        table.row(&[
            n.to_string(),
            m.completed_nodes.to_string(),
            format!("{:.3}", m.task_rate_hz),
            format!("{:.3}", m.coverage),
            m.nodes_to_cover
                .map(|k| k.to_string())
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.2}", m.brownout_free_fraction),
            m.energy_per_completed_task_j
                .map(|e| format!("{:.4}", e * 1e3))
                .unwrap_or_else(|| "-".to_string()),
            format!("{wall_s:.3}"),
        ]);
    }
    print!("{}", table.render());

    banner("Trace-backed field (mains-cycle power trace, 8 nodes)");
    let m = &trace_report.metrics;
    println!(
        "completed {}/{} nodes, task rate {:.3} Hz, coverage {:.3}, covers at {}",
        m.completed_nodes,
        m.nodes,
        m.task_rate_hz,
        m.coverage,
        m.nodes_to_cover
            .map(|k| k.to_string())
            .unwrap_or_else(|| "never".to_string()),
    );

    let scaling_json = Json::Arr(
        scaling
            .iter()
            .map(|(_, report, _)| report.to_json())
            .collect(),
    );

    // --store producer mode: persist every node's (spec, report) pair so
    // store consumers can serve these designs without re-simulating, and
    // pin that persistence never perturbs the fleet reports themselves.
    if let Some(dir) = &args.store {
        let mut store = Store::open(dir).map_err(|e| format!("cannot open store at {dir}: {e}"))?;
        let mut catalog = TraceCatalog::new();
        let (mut appended, mut total) = (0u64, 0u64);
        let reports = scaling
            .iter()
            .map(|(_, report, _)| report)
            .chain(std::iter::once(&trace_report));
        for report in reports {
            let specs = report
                .spec
                .node_specs_in(&mut catalog)
                .map_err(|e| format!("cannot derive node specs: {e}"))?;
            for (spec, node) in specs.iter().zip(&report.nodes) {
                total += 1;
                match store.put(&spec.to_json(), node.to_json(), BTreeMap::new(), 1.0) {
                    Ok(true) => appended += 1,
                    Ok(false) => {}
                    Err(e) => {
                        return Err(format!("store write failed: {e}").into());
                    }
                }
            }
        }
        if let Err(e) = store.compact() {
            return Err(format!("store compaction failed: {e}").into());
        }
        banner("Store");
        println!("{appended} of {total} node evaluations appended to {dir}");
        for (section, current) in [
            ("scaling", scaling_json.to_string()),
            ("trace_fleet", trace_report.to_json().to_string()),
        ] {
            let committed = edc_bench::committed_section("BENCH_fleet.json", section)?;
            if committed.to_string() != current {
                return Err(format!(
                    "FAIL: store-backed {section} differs from committed BENCH_fleet.json"
                )
                .into());
            }
            println!("store: {section} byte-identical to committed BENCH_fleet.json");
        }
    }

    banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "fleet",
        vec![
            ("scaling", scaling_json),
            ("trace_fleet", trace_report.to_json()),
            // Non-deterministic section, deliberately outside the reports.
            (
                "timing",
                Json::obj(vec![
                    (
                        "scaling_s",
                        Json::Arr(
                            scaling
                                .iter()
                                .map(|&(_, _, wall_s)| Json::Num(wall_s))
                                .collect(),
                        ),
                    ),
                    ("trace_fleet_s", Json::Num(trace_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
    Ok(())
}
