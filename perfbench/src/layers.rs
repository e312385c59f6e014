//! Per-layer accounting for the traced run: the instrumented simulation
//! path, the unit-cost replays, and the per-layer metric table.

use std::hint::black_box;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::SystemReport;
use edc_mcu::{Mcu, RunExit};
use edc_sim::SupplyNode;
use edc_transient::RunOutcome;
use edc_units::{Amps, Seconds, Volts};

use crate::trace::{SpanId, Tracer};
use crate::Metric;

/// Ticks per `transient.steps` span.
const STEP_BATCH: u64 = 4096;
/// Upper bound on the node steps and source samples replayed per cell.
const REPLAY_TICKS: u64 = 200_000;
/// Upper bound on the instructions replayed per cell.
const REPLAY_INSTRUCTIONS: u64 = 2_000_000;

/// The repository's crates, in the order the layer-share report lists them.
pub const LAYERS: [&str; 11] = [
    "edc-mcu",
    "edc-transient",
    "edc-sim",
    "edc-harvest",
    "edc-core",
    "edc-bench",
    "edc-explore",
    "edc-store",
    "edc-lint",
    "edc-bound",
    "edc-metrics",
];

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("mcu.ns_per_instr", "ns"),
    ("mcu.instructions", "count"),
    ("mcu.instr_per_tick", "ratio"),
    ("transient.ns_per_tick", "ns"),
    ("transient.self_ns_per_tick", "ns"),
    ("transient.ticks", "count"),
    ("transient.off_share", "ratio"),
    ("sim.ns_per_step", "ns"),
    ("harvest.ns_per_sample", "ns"),
    ("core.build_us", "us"),
    ("sweep.overhead_us_per_cell", "us"),
    ("json.parse_ns_per_byte", "ns/B"),
    ("json.emit_ns_per_byte", "ns/B"),
    ("core.spec_key_us", "us"),
    ("explore.evaluate_us", "us"),
    ("store.get_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.put_us", "us"),
    ("store.open_ns_per_byte", "ns/B"),
    ("store.entries", "count"),
    ("lint.us_per_spec", "us"),
    ("bound.us_per_spec", "us"),
    ("lint.error_share", "ratio"),
    ("serve.self_us.memo", "us"),
    ("serve.self_us.store", "us"),
    ("serve.self_us.sim", "us"),
    ("serve.self_us.lint", "us"),
    ("metrics.render_us", "us"),
    ("serve.count.memo", "count"),
    ("serve.count.store", "count"),
    ("serve.count.sim", "count"),
    ("serve.count.lint", "count"),
    ("share.edc-mcu", "ratio"),
    ("share.edc-transient", "ratio"),
    ("share.edc-sim", "ratio"),
    ("share.edc-harvest", "ratio"),
    ("share.edc-core", "ratio"),
    ("share.edc-bench", "ratio"),
    ("share.edc-explore", "ratio"),
    ("share.edc-store", "ratio"),
    ("share.edc-lint", "ratio"),
    ("share.edc-bound", "ratio"),
    ("share.edc-metrics", "ratio"),
];

/// Which end-to-end metric each layer metric should move, on which
/// workload, and where the prediction is no change.
pub const PREDICTIONS: [(&str, &str, &str, &str); 10] = [
    (
        "mcu.*",
        "ops_per_s, op_geomean_ms",
        "sim-dense",
        "sim-sparse",
    ),
    (
        "transient.*",
        "ops_per_s, op_geomean_ms",
        "sim-sparse",
        "sim-dense (<= ~10%)",
    ),
    (
        "sim.ns_per_step, harvest.ns_per_sample",
        "ops_per_s, op_geomean_ms",
        "sim-sparse",
        "serve-mixed",
    ),
    (
        "core.build_us, sweep.overhead_us_per_cell",
        "setup_s, ops_per_s",
        "sim-*",
        "serve-mixed",
    ),
    (
        "json.*, core.spec_key_us",
        "op_geomean_ms",
        "serve-mixed",
        "sim-*",
    ),
    (
        "explore.evaluate_us, store.get_us, store.hit_ratio",
        "op_geomean_ms",
        "serve-mixed",
        "sim-*",
    ),
    ("store.put_us", "ops_per_s", "serve-mixed", "sim-*"),
    (
        "store.open_ns_per_byte, store.entries",
        "setup_s",
        "serve-mixed",
        "sim-*",
    ),
    (
        "lint.*, bound.us_per_spec",
        "ops_per_s, op_geomean_ms",
        "serve-mixed",
        "sim-*",
    ),
    (
        "serve.self_us.*, metrics.render_us",
        "op_geomean_ms (memo, store), ops_per_s (sim, lint)",
        "serve-mixed",
        "sim-*",
    ),
];

/// One cell simulated step by step under spans.
pub struct SimRun {
    pub report: SystemReport,
    pub instructions: u64,
    pub ticks: u64,
    pub off_s: f64,
    pub simulated_s: f64,
    pub build_ns: f64,
    pub steps_ns: f64,
}

/// Builds and runs `spec` exactly as `ExperimentSpec::run_in` does, with a
/// `core.build` span around assembly and one `transient.steps` span per
/// batch of runner ticks.
pub fn run_traced(
    spec: &ExperimentSpec,
    catalog: &TraceCatalog,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> SimRun {
    let (system, build) = tracer.leaf("core.build", parent, request, || spec.build_in(catalog));
    let mut system = system.expect("generated specs validate");
    let build_ns = tracer.duration_ns(build);
    let mut steps_ns = 0.0;
    let mut live = true;
    while live && system.runner().time() < spec.deadline {
        let batch = tracer.begin("transient.steps", parent, request);
        let runner = system.runner_mut();
        for _ in 0..STEP_BATCH {
            if runner.time() >= spec.deadline {
                break;
            }
            if !runner.step() {
                live = false;
                break;
            }
        }
        tracer.end(batch);
        steps_ns += tracer.duration_ns(batch);
    }
    let stats = system.runner().stats();
    let outcome = if stats.completed_at.is_some() {
        RunOutcome::Completed
    } else if live {
        RunOutcome::DeadlineExpired
    } else {
        RunOutcome::Faulted
    };
    SimRun {
        report: system.report(outcome),
        instructions: stats.instructions,
        ticks: stats.ticks,
        off_s: stats.off_time.0,
        simulated_s: stats.active_time.0 + stats.sleep_time.0 + stats.off_time.0,
        build_ns,
        steps_ns,
    }
}

/// Unit costs replayed outside the runner: the interpreter at the
/// runner's per-tick cycle budget, the supply node's integration step,
/// and the source's sample.
#[derive(Debug, Default, Clone, Copy)]
pub struct Units {
    pub mcu_ns: f64,
    pub mcu_instructions: u64,
    pub node_ns: f64,
    pub node_steps: u64,
    pub sample_ns: f64,
    pub samples: u64,
}

impl Units {
    pub fn add(&mut self, o: Units) {
        self.mcu_ns += o.mcu_ns;
        self.mcu_instructions += o.mcu_instructions;
        self.node_ns += o.node_ns;
        self.node_steps += o.node_steps;
        self.sample_ns += o.sample_ns;
        self.samples += o.samples;
    }

    pub fn ns_per_instr(&self) -> f64 {
        ratio(self.mcu_ns, self.mcu_instructions as f64)
    }

    pub fn ns_per_step(&self) -> f64 {
        ratio(self.node_ns, self.node_steps as f64)
    }

    pub fn ns_per_sample(&self) -> f64 {
        ratio(self.sample_ns, self.samples as f64)
    }
}

/// Replays `spec`'s layers for as much work as the integrated run did
/// (capped): `mcu.replay`, `sim.replay` and `harvest.replay` spans.
pub fn replay(
    spec: &ExperimentSpec,
    catalog: &TraceCatalog,
    run: &SimRun,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Units {
    let mut units = Units::default();
    let target = run.instructions.clamp(1, REPLAY_INSTRUCTIONS);
    let workload = spec.workload.make();
    let program = workload.program();
    let (instructions, span) = tracer.leaf("mcu.replay", parent, request, || {
        let mut retired = 0;
        while retired < target {
            let before = retired;
            let mut mcu = Mcu::new(program.clone());
            let budget = mcu.cycles_in(spec.timestep);
            loop {
                let r = mcu.run(black_box(budget), false);
                retired += r.instructions;
                if r.exit != RunExit::BudgetExhausted || r.instructions == 0 {
                    break;
                }
            }
            black_box(&mcu);
            if retired == before {
                break;
            }
        }
        retired
    });
    units.mcu_ns = tracer.duration_ns(span);
    units.mcu_instructions = instructions;

    let ticks = run.ticks.clamp(1, REPLAY_TICKS);
    let dt = spec.timestep;
    let span = tracer
        .leaf("sim.replay", parent, request, || {
            let mut node = SupplyNode::new(spec.decoupling, Volts(2.0));
            for i in 0..ticks {
                let i_in = Amps(if i % 64 < 32 { 2e-3 } else { 0.0 });
                black_box(node.step(black_box(i_in), black_box(Amps(1e-3)), dt));
            }
        })
        .1;
    units.node_ns = tracer.duration_ns(span);
    units.node_steps = ticks;

    let span = tracer
        .leaf("harvest.replay", parent, request, || {
            let mut source = spec.source.make_in(catalog);
            for i in 0..ticks {
                black_box(source.sample(Seconds(i as f64 * dt.0)));
            }
        })
        .1;
    units.sample_ns = tracer.duration_ns(span);
    units.samples = ticks;
    units
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulation path's totals over a traced run, with the estimates
/// the replayed unit costs give for the runner's own callees.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub cells: u64,
    pub instructions: u64,
    pub ticks: u64,
    pub off_s: f64,
    pub simulated_s: f64,
    pub build_ns: f64,
    pub steps_ns: f64,
    pub units: Units,
}

impl SimTotals {
    pub fn add(&mut self, run: &SimRun, units: Units) {
        self.cells += 1;
        self.instructions += run.instructions;
        self.ticks += run.ticks;
        self.off_s += run.off_s;
        self.simulated_s += run.simulated_s;
        self.build_ns += run.build_ns;
        self.steps_ns += run.steps_ns;
        self.units.add(units);
    }

    pub fn mcu_ns(&self) -> f64 {
        self.instructions as f64 * self.units.ns_per_instr()
    }

    pub fn node_ns(&self) -> f64 {
        self.ticks as f64 * self.units.ns_per_step()
    }

    pub fn sample_ns(&self) -> f64 {
        self.ticks as f64 * self.units.ns_per_sample()
    }

    /// Runner tick time left after the interpreter, node and source.
    pub fn transient_self_ns(&self) -> f64 {
        self.steps_ns - self.mcu_ns() - self.node_ns() - self.sample_ns()
    }

    /// The `mcu.*`, `transient.*`, `sim.*`, `harvest.*` and
    /// `core.build_us` metrics; counts are per pass (or round).
    pub fn metrics(&self, passes: u64, out: &mut Vec<Metric>) {
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        let ticks = self.ticks as f64;
        out.extend([
            Metric::new("mcu.ns_per_instr", self.units.ns_per_instr(), "ns"),
            Metric::new("mcu.instructions", per_pass(self.instructions), "count"),
            Metric::new(
                "mcu.instr_per_tick",
                ratio(self.instructions as f64, ticks),
                "ratio",
            ),
            Metric::new("transient.ns_per_tick", ratio(self.steps_ns, ticks), "ns"),
            Metric::new(
                "transient.self_ns_per_tick",
                ratio(self.transient_self_ns(), ticks),
                "ns",
            ),
            Metric::new("transient.ticks", per_pass(self.ticks), "count"),
            Metric::new(
                "transient.off_share",
                ratio(self.off_s, self.simulated_s),
                "ratio",
            ),
            Metric::new("sim.ns_per_step", self.units.ns_per_step(), "ns"),
            Metric::new("harvest.ns_per_sample", self.units.ns_per_sample(), "ns"),
            Metric::new(
                "core.build_us",
                ratio(self.build_ns, self.cells as f64) / 1e3,
                "us",
            ),
        ]);
    }

    /// Estimated self time of the simulation layers, by crate.
    pub fn shares(&self) -> [(&'static str, f64); 5] {
        [
            ("edc-mcu", self.mcu_ns()),
            ("edc-transient", self.transient_self_ns()),
            ("edc-sim", self.node_ns()),
            ("edc-harvest", self.sample_ns()),
            ("edc-core", self.build_ns),
        ]
    }
}

/// Fills in every per-layer metric `measured` lacks with 0 (the layer is
/// not on this workload's timed path), adds the `share.*` entries from
/// `self_ns` over `host_ns`, and prints the layer-share report with the
/// predicted-no-change table.
pub fn finish(
    workload: &str,
    tracer: &Tracer,
    mut measured: Vec<Metric>,
    self_ns: &[(&'static str, f64)],
    host_ns: f64,
) -> Vec<Metric> {
    println!(
        "layer-share report: {workload} (self time / timed host time {:.3} s)",
        host_ns / 1e9
    );
    let mut accounted = 0.0;
    for layer in LAYERS {
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        let ns = self_ns
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum::<f64>()
            + 0.0;
        accounted += ns;
        let share = ratio(ns, host_ns);
        println!("  {layer:<14} {:>7.2}%", share * 100.0);
        measured.push(Metric::new(&format!("share.{layer}"), share, "ratio"));
    }
    println!(
        "  {:<14} {:>7.2}%",
        "unattributed",
        ratio(host_ns - accounted, host_ns) * 100.0
    );
    println!("spans (count, total ms, self ms):");
    for (name, t) in tracer.totals() {
        println!(
            "  {name:<18} {:>9} {:>11.3} {:>11.3}",
            t.count,
            t.total_ns / 1e6,
            t.self_ns / 1e6
        );
    }
    println!("predicted no change (layer metric -> e2e metric, moves on | no change on):");
    for (layer, metric, moves, still) in PREDICTIONS {
        println!("  {layer:<52} -> {metric:<22} {moves:<12} | {still}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}
