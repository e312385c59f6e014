//! Golden equivalence test for the transient runner's tick loop.
//!
//! Every source kind runs under three strategies, both topologies (direct,
//! and buffered behind an 80%-efficient converter), with and without an
//! input rectifier, with and without board leakage, to two deadlines; and
//! once more at a binary timestep whose ticks sum to the deadline exactly.
//! Each case's `SystemReport` JSON folds into one FNV-1a digest. The expected
//! digest was recorded with the per-tick runner that sampled its source
//! through a `(V, t) → I` closure, so any change to a tick's arithmetic,
//! its sampling times or the order of its state updates shows up as a
//! different digest.
//!
//! Every case is also driven a second time with `TransientRunner::step`
//! alone, one tick per call, and must report exactly what
//! `run_until_complete` reported.

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use energy_driven::core::system::Topology;
use energy_driven::core::SystemReport;
use energy_driven::power::{Rectifier, RectifierKind};
use energy_driven::telemetry::TelemetryKind;
use energy_driven::transient::RunOutcome;
use energy_driven::units::{Farads, Ohms, Seconds};
use energy_driven::workloads::WorkloadKind;

/// The digest every case folds into (see the module docs).
const EXPECTED_DIGEST: u64 = 0x496e_52a2_96f8_9831;

/// A window in which most supplies leave the node off or charging
/// throughout, and one long enough for the strong supplies to finish the
/// kernel and for the intermittent ones to brown it out.
const DEADLINES: [f64; 2] = [0.04, 1.2];

/// A timestep that accumulates without rounding (2⁻¹⁶ s).
const EXACT_DT: f64 = 1.0 / 65_536.0;

/// Long enough to span several supply cycles under the intermittent
/// sources.
const WORKLOAD: WorkloadKind = WorkloadKind::Crc16(400);

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Restart,
    StrategyKind::Mementos,
    StrategyKind::Hibernus,
];

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every source kind: the canonical standalone ones, a field view whose
/// phase puts the turbine gust inside the window, and a looped, decimated
/// recording.
fn sources(catalog: &mut TraceCatalog) -> Vec<SourceKind> {
    let samples = (0..40)
        .map(|i| {
            let t = f64::from(i) * 1e-3;
            let w = 6e-3 * (f64::from(i) / 40.0 * std::f64::consts::TAU).sin().max(0.0);
            (t, w)
        })
        .collect();
    let id = catalog
        .register("pulse-train", samples)
        .expect("valid trace");
    let mut kinds = SourceKind::ALL.to_vec();
    kinds.push(SourceKind::FieldView {
        field: FieldEnvelope::Turbine,
        attenuation: 0.9,
        phase_s: 1.5,
    });
    kinds.push(SourceKind::Trace {
        id,
        decimate: 2,
        looped: true,
    });
    kinds
}

/// Drives `spec` one `step` call at a time, the way a stepping harness
/// does, and reports, with the number of `run` calls the machine replayed.
fn stepped(spec: &ExperimentSpec, catalog: &TraceCatalog) -> (SystemReport, u64) {
    let mut system = spec.build_in(catalog).expect("valid spec");
    let mut live = true;
    while live && system.runner().time() < spec.deadline {
        live = system.runner_mut().step();
    }
    let stats = system.runner().stats();
    let outcome = if stats.completed_at.is_some() {
        RunOutcome::Completed
    } else if live {
        RunOutcome::DeadlineExpired
    } else {
        RunOutcome::Faulted
    };
    (
        system.report(outcome),
        system.runner().mcu().replayed_calls(),
    )
}

/// Outcome counts over all cases, to show the grid reaches every regime.
#[derive(Default)]
struct Coverage {
    completed: u32,
    never_booted: u32,
    brownouts: u32,
}

/// The grid of the module docs, one spec per case.
fn cases(kinds: &[SourceKind]) -> Vec<ExperimentSpec> {
    let topologies = [
        Topology::Direct,
        Topology::Buffered {
            storage: Farads::from_micro(22.0),
            efficiency: 0.8,
        },
    ];
    let mut specs = Vec::new();
    for &source in kinds {
        for strategy in STRATEGIES {
            for topology in topologies {
                for rectified in [false, true] {
                    for leaky in [false, true] {
                        for deadline in DEADLINES {
                            let mut spec = ExperimentSpec::new(source, strategy, WORKLOAD)
                                .topology(topology)
                                .deadline(Seconds(deadline));
                            if rectified {
                                spec = spec.rectifier(Rectifier::ideal(RectifierKind::HalfWave));
                            }
                            if leaky {
                                // The timeline sink rides along on half the
                                // grid, pinning the gauge and phase streams.
                                spec = spec
                                    .leakage(Ohms(200_000.0))
                                    .telemetry(TelemetryKind::Timeline);
                            }
                            specs.push(spec);
                        }
                    }
                }
            }
        }
        // A binary timestep sums to the deadline exactly, so the last tick
        // before it and the `time < deadline` test itself are pinned.
        specs.push(
            ExperimentSpec::new(source, StrategyKind::Hibernus, WORKLOAD)
                .timestep(Seconds(EXACT_DT))
                .deadline(Seconds(EXACT_DT * 8000.0)),
        );
    }
    specs
}

#[test]
fn system_reports_match_the_recorded_digest() {
    let mut catalog = TraceCatalog::new();
    let kinds = sources(&mut catalog);
    let mut h = Fnv::new();
    let mut cov = Coverage::default();
    for spec in cases(&kinds) {
        let report = spec.run_in(&catalog).expect("valid spec");
        let json = report.to_json().to_string();
        let (stepped_report, replayed) = stepped(&spec, &catalog);
        assert_eq!(
            stepped_report.to_json().to_string(),
            json,
            "step-by-step run of {} diverged",
            spec.label()
        );
        if matches!(spec.source, SourceKind::Dc { .. }) {
            // The DC supply boots the node once: there is no boot to replay.
            assert_eq!(report.stats.boots, 1, "{}", spec.label());
            assert_eq!(replayed, 0, "{} replayed a call", spec.label());
        }
        h.bytes(json.as_bytes());
        cov.completed += u32::from(report.outcome == RunOutcome::Completed);
        cov.never_booted += u32::from(report.stats.boots == 0);
        cov.brownouts += u32::from(report.stats.brownouts > 0);
    }
    assert!(
        cov.completed > 0 && cov.never_booted > 0 && cov.brownouts > 0,
        "completed {}, never booted {}, browned out {}",
        cov.completed,
        cov.never_booted,
        cov.brownouts
    );
    assert_eq!(h.0, EXPECTED_DIGEST, "digest {:#018x}", h.0);
}

/// The digest of the multi-boot restart cells (recorded before the
/// interpreter replayed repeated boots).
const MULTI_BOOT_DIGEST: u64 = 0xb112_67e4_9ee9_c5b9;

/// Restart cells that brown out and boot again and again, each boot
/// re-running the kernel from `main`: the 50 Hz rectified sine, and an
/// interrupted supply whose on-phase is shorter than the kernel. Every case
/// boots at least five times.
fn multi_boot_cases() -> Vec<ExperimentSpec> {
    let cells = [
        (
            SourceKind::RectifiedSine { hz: 50.0 },
            WorkloadKind::Fourier(64),
        ),
        (
            SourceKind::RectifiedSine { hz: 50.0 },
            WorkloadKind::Crc16(512),
        ),
        (
            SourceKind::Interrupted { hz: 40.0 },
            WorkloadKind::Fourier(64),
        ),
        (
            SourceKind::Interrupted { hz: 40.0 },
            WorkloadKind::Crc16(2048),
        ),
    ];
    let mut specs = Vec::new();
    for (source, workload) in cells {
        for deadline in [0.3, 0.5] {
            specs.push(
                ExperimentSpec::new(source, StrategyKind::Restart, workload)
                    .deadline(Seconds(deadline)),
            );
        }
    }
    specs
}

#[test]
fn multi_boot_reports_match_the_recorded_digest() {
    let catalog = TraceCatalog::new();
    let mut h = Fnv::new();
    for spec in multi_boot_cases() {
        let mut system = spec.build_in(&catalog).expect("valid spec");
        let report = system.run(spec.deadline);
        assert!(
            system.runner().mcu().replayed_calls() > 0,
            "{} replayed no boot",
            spec.label()
        );
        assert!(
            report.stats.boots >= 5,
            "{} booted {} times",
            spec.label(),
            report.stats.boots
        );
        h.bytes(report.to_json().to_string().as_bytes());
    }
    assert_eq!(h.0, MULTI_BOOT_DIGEST, "digest {:#018x}", h.0);
}
