//! The transient runner's fixed-point Off skip against the per-tick loop.
//!
//! `TransientRunner::run_until_complete` advances Off ticks in batches and
//! skips the rest of a batch in closed form when its first tick left the
//! rail voltage bit-identical under a repeated source sample.
//! `TransientRunner::step` runs one tick per call and so never skips. Every
//! case here is run both ways, and the two runs must agree bit for bit on
//! the `RunnerStats`, the node's four energy books, the time and the rail
//! voltage.
//!
//! Specs cover every `SourceKind` with and without leakage and at
//! deadlines that fall anywhere inside a skipped run. Hand-built runners
//! add what specs cannot reach: a clamp below the boot threshold (the rail
//! sits on it and the clamp books energy every tick), a strong start that
//! leaves `energy_consumed` in a high binade before the node goes dark,
//! rails at 0 V, and supplies that flicker so some batches repeat and
//! others do not.
//!
//! `skipped_ticks` is the shortcut's only trace, so the tripwire tests
//! check that it fires for an interrupted supply and for indoor PV, and
//! not while the runner records traces.

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use energy_driven::harvest::{EnergySource, SourceSample};
use energy_driven::power::{Rectifier, RectifierKind};
use energy_driven::transient::{RunnerStats, TransientRunner};
use energy_driven::units::{Amps, Farads, Ohms, Seconds, Volts, Watts};
use energy_driven::workloads::WorkloadKind;
use proptest::prelude::*;

/// Everything a run leaves behind, as exact bits.
fn state_bits(runner: &TransientRunner) -> Vec<u64> {
    let RunnerStats {
        snapshots,
        torn_snapshots,
        restores,
        brownouts,
        boots,
        active_time,
        sleep_time,
        off_time,
        cycles,
        completed_at,
        energy_consumed,
        ticks,
        instructions,
        carry_activations,
    } = runner.stats();
    let node = runner.node();
    vec![
        snapshots,
        torn_snapshots,
        restores,
        brownouts,
        boots,
        active_time.0.to_bits(),
        sleep_time.0.to_bits(),
        off_time.0.to_bits(),
        cycles,
        completed_at.map_or(u64::MAX, |t| t.0.to_bits()),
        energy_consumed.0.to_bits(),
        ticks,
        instructions,
        carry_activations,
        node.energy_in().0.to_bits(),
        node.energy_out().0.to_bits(),
        node.energy_leaked().0.to_bits(),
        node.energy_clamped().0.to_bits(),
        node.voltage().0.to_bits(),
        runner.time().0.to_bits(),
    ]
}

/// Steps `runner` one tick per call until `deadline`, the way
/// `run_until_complete` loops.
fn step_until(runner: &mut TransientRunner, deadline: Seconds) {
    while runner.time() < deadline {
        if !runner.step() {
            break;
        }
    }
}

/// Every source kind: the canonical ones, slow interrupted supplies, field
/// views and looped or one-shot recordings.
fn source_kind(pick: usize, x: f64, seed: u64, catalog: &mut TraceCatalog) -> SourceKind {
    let samples = (0..60)
        .map(|i| {
            let t = f64::from(i) * 5e-3;
            // Bursts with flat dark gaps between them.
            let w = if i % 20 < 6 { 3e-3 } else { 0.0 };
            (t, w)
        })
        .collect();
    let id = catalog
        .register("skip-bursts", samples)
        .expect("valid trace");
    match pick {
        0..=5 => SourceKind::ALL[pick],
        6 => SourceKind::Interrupted { hz: 0.2 + 4.8 * x },
        7 => SourceKind::RectifiedSine { hz: 1.0 + 99.0 * x },
        8 => SourceKind::Dc {
            volts: 0.5 + 2.0 * x,
        },
        9 => SourceKind::Trace {
            id,
            decimate: 1 + seed % 3,
            looped: seed.is_multiple_of(2),
        },
        10 => SourceKind::IndoorPv { seed },
        _ => SourceKind::FieldView {
            field: [
                FieldEnvelope::Turbine,
                FieldEnvelope::IndoorPv { seed },
                FieldEnvelope::Interrupted { hz: 0.5 + 5.0 * x },
            ][(seed % 3) as usize],
            attenuation: 0.3 + 0.7 * x,
            phase_s: 2.0 * x,
        },
    }
}

/// A supply that is `strong` before `t_on` and `weak` after it, except
/// that it switches to `flicker` for the second half of every `period`
/// (when set).
struct Phased {
    t_on: f64,
    strong: SourceSample,
    weak: SourceSample,
    flicker: Option<(SourceSample, f64)>,
}

impl EnergySource for Phased {
    fn name(&self) -> &str {
        "phased"
    }

    fn sample(&mut self, t: Seconds) -> SourceSample {
        if t.0 < self.t_on {
            return self.strong;
        }
        match self.flicker {
            Some((other, period)) if (t.0 / period).fract() >= 0.5 => other,
            _ => self.weak,
        }
    }
}

/// Weak samples that settle the rail on a fixed point while the machine
/// stays off: below the boot threshold, at compliance, on the diode's
/// zero, or not at all.
fn weak_sample(pick: u8, x: f64) -> SourceSample {
    match pick % 5 {
        0 => SourceSample::OFF,
        1 => SourceSample::Thevenin {
            v_oc: Volts(0.3 + 1.5 * x),
            r_s: Ohms(50.0 + 5e4 * x),
        },
        2 => SourceSample::Current {
            i: Amps(1e-7 + 2e-5 * x),
            v_compliance: Volts(0.5 + 1.2 * x),
        },
        3 => SourceSample::Power(Watts(1e-9 + 1e-7 * x)),
        _ => SourceSample::Thevenin {
            v_oc: Volts(-0.0),
            r_s: Ohms(1.0),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Specs of every source kind, with and without leakage and a
    /// rectifier, at random deadlines: the batched run equals the stepped
    /// twin bit for bit.
    #[test]
    fn spec_runs_match_their_stepped_twin(
        picks in (0usize..12, 0usize..StrategyKind::ALL.len(), 0u8..4),
        x in 0.0f64..1.0,
        seed in 0u64..1000,
        deadline in 0.002f64..0.6,
    ) {
        let mut catalog = TraceCatalog::new();
        // Half the kernels never end, so the run brownouts and sits off
        // until the deadline.
        let workload = if seed.is_multiple_of(2) {
            WorkloadKind::Endless
        } else {
            WorkloadKind::Crc16(64 + (seed % 200) as u16)
        };
        let mut spec = ExperimentSpec::new(
            source_kind(picks.0, x, seed, &mut catalog),
            StrategyKind::ALL[picks.1],
            workload,
        )
        .deadline(Seconds(deadline));
        if picks.2 & 1 == 1 {
            spec = spec.leakage(Ohms(20_000.0 + 400_000.0 * x));
        }
        if picks.2 & 2 == 2 {
            spec = spec.rectifier(Rectifier::ideal(RectifierKind::HalfWave));
        }
        let mut batched = spec.build_in(&catalog).expect("valid spec");
        batched.run(spec.deadline);
        let mut stepped = spec.build_in(&catalog).expect("valid spec");
        step_until(stepped.runner_mut(), spec.deadline);
        prop_assert_eq!(
            state_bits(batched.runner()),
            state_bits(stepped.runner()),
            "{}",
            spec.to_json()
        );
        prop_assert_eq!(stepped.runner().skipped_ticks(), 0);
    }

    /// Hand-built runners of a kernel that never ends: clamped rails, leaky
    /// rails, rails at 0 V, a strong start that brings the machine up (and
    /// `energy_consumed` into a high binade) before the supply goes weak
    /// and it browns out, flickering supplies, and deadlines inside skipped
    /// runs.
    #[test]
    fn built_runs_match_their_stepped_twin(
        picks in (0u8..5, 0usize..StrategyKind::ALL.len(), 0u8..8, 0u8..3),
        x in 0.0f64..1.0,
        start in (0.0f64..1.0, 0.0f64..0.05),
        deadline in 0.001f64..0.4,
        dt_pick in 0usize..4,
    ) {
        let (weak, strategy, shape, flicker) = picks;
        // Only restart's thresholds ignore the clamp, so a clamp below
        // the boot threshold runs under restart.
        let clamped = shape & 2 == 2;
        let strategy = if clamped { StrategyKind::Restart } else { StrategyKind::ALL[strategy] };
        let build = || {
            let mut builder = TransientRunner::builder()
                .strategy(strategy.make())
                .program(WorkloadKind::Endless.make().program())
                .source(Box::new(Phased {
                    t_on: start.1,
                    strong: SourceSample::Thevenin {
                        v_oc: Volts(3.3),
                        r_s: Ohms(10.0),
                    },
                    weak: weak_sample(weak, x),
                    flicker: match flicker {
                        0 => None,
                        1 => Some((weak_sample(weak + 1, 1.0 - x), 4e-3 + 0.05 * x)),
                        _ => Some((weak_sample(weak + 2, x), 1e-4)),
                    },
                }))
                .capacitance(Farads::from_micro(1.0 + 40.0 * x))
                .initial_voltage(Volts(if start.0 < 0.2 { 0.0 } else { 2.5 * start.0 }))
                .timestep(Seconds([1e-5, 2e-5, 1.0 / 65_536.0, 1e-4][dt_pick]))
                .efficiency(0.5 + 0.5 * x);
            if shape & 1 == 1 {
                builder = builder.leakage(Ohms(5_000.0 + 500_000.0 * x));
            }
            if clamped {
                // Below the boot threshold: an off rail rides the clamp.
                builder = builder.clamp(Volts(0.4 + 1.2 * x));
            }
            if shape & 4 == 4 {
                builder = builder.rectifier(Rectifier::new(RectifierKind::FullWave, Volts(0.2)));
            }
            builder.build().expect("strategy, program and source are set")
        };
        let mut batched = build();
        batched.run_until_complete(Seconds(deadline));
        let mut stepped = build();
        step_until(&mut stepped, Seconds(deadline));
        prop_assert_eq!(state_bits(&batched), state_bits(&stepped));
    }
}

#[test]
fn runs_with_clamped_and_zero_rails_skip() {
    // The property tests only hold if they reach the shortcut; these runs
    // pin that they do, on a clamped rail and on a dead one.
    for (clamp, weak, v0) in [
        (Volts(1.0), weak_sample(1, 1.0), Volts(0.8)),
        (Volts(3.6), SourceSample::OFF, Volts(0.0)),
    ] {
        let build = || {
            TransientRunner::builder()
                .strategy(StrategyKind::Restart.make())
                .program(WorkloadKind::Endless.make().program())
                .source(Box::new(Phased {
                    t_on: 0.0,
                    strong: SourceSample::OFF,
                    weak,
                    flicker: None,
                }))
                .initial_voltage(v0)
                .clamp(clamp)
                .build()
                .expect("strategy, program and source are set")
        };
        let mut batched = build();
        batched.run_until_complete(Seconds(0.5));
        let mut stepped = build();
        step_until(&mut stepped, Seconds(0.5));
        assert!(batched.skipped_ticks() > 0, "clamp {clamp}");
        assert_eq!(state_bits(&batched), state_bits(&stepped));
    }
}

/// Runs `spec` to its deadline and returns the runner's skipped ticks.
fn skipped(spec: ExperimentSpec) -> u64 {
    let mut system = spec.build_in(&TraceCatalog::new()).expect("valid spec");
    system.run(spec.deadline);
    system.runner().skipped_ticks()
}

#[test]
fn an_interrupted_supply_skips_its_dark_phases() {
    // A kernel that never ends browns out in every dark phase, and the
    // dead rail holds its voltage until the supply returns.
    let spec = ExperimentSpec::new(
        SourceKind::Interrupted { hz: 0.5 },
        StrategyKind::Restart,
        WorkloadKind::Endless,
    )
    .deadline(Seconds(3.0));
    assert!(skipped(spec) > 0);
}

#[test]
fn indoor_pv_skips_ticks() {
    // The cell cannot charge the rail to Hibernus's restore threshold: the
    // rail settles where the cell's current runs out.
    let spec = ExperimentSpec::new(
        SourceKind::IndoorPv { seed: 2017 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(200),
    )
    .deadline(Seconds(5.0));
    assert!(skipped(spec) > 0);
}

#[test]
fn tracing_runs_every_tick() {
    let run = |trace: bool| {
        let mut builder = TransientRunner::builder()
            .strategy(StrategyKind::Restart.make())
            .program(WorkloadKind::Endless.make().program())
            .source(SourceKind::Interrupted { hz: 0.5 }.make());
        if trace {
            builder = builder.trace(1);
        }
        let mut runner = builder
            .build()
            .expect("strategy, program and source are set");
        runner.run_until_complete(Seconds(2.0));
        (runner.skipped_ticks(), state_bits(&runner))
    };
    let (traced_skips, traced) = run(true);
    let (plain_skips, plain) = run(false);
    assert_eq!(traced_skips, 0);
    assert!(plain_skips > 0);
    assert_eq!(traced, plain);
}
