//! Golden equivalence test for `Mcu::run`.
//!
//! Every workload kind runs at a small size under each combination of clock
//! level (8 MHz, and 24 MHz where FRAM accesses take a wait state), execution
//! residence, cycle budget per `run` call, and marker handling. Each case is
//! driven to a terminal exit; every `RunReport`, the final `CpuState` and the
//! memory access counters fold into one FNV-1a digest. The expected digest
//! was recorded with the per-instruction interpreter, so any change to
//! cycles, energy, markers, faults or halts shows up as a different digest.

use edc_mcu::{ExecutionResidence, Mcu, RunExit, RunReport};
use edc_workloads::WorkloadKind;

/// The digest every case folds into (see the module docs).
const EXPECTED_DIGEST: u64 = 0x46b7_c00b_9628_ee9e;

/// One small instance of every workload kind.
const KINDS: [WorkloadKind; 12] = [
    WorkloadKind::BusyLoop(20),
    WorkloadKind::Crc16(16),
    WorkloadKind::DotProduct(8),
    WorkloadKind::Endless,
    WorkloadKind::FirFilter { n: 12, taps: 4 },
    WorkloadKind::Fourier(8),
    WorkloadKind::InsertionSort(8),
    WorkloadKind::MatMul,
    WorkloadKind::PrimeSieve(40),
    WorkloadKind::RadixFft(8),
    WorkloadKind::RunLength(12),
    WorkloadKind::SensePipeline {
        windows: 2,
        samples: 4,
    },
];

/// Clock levels: 8 MHz, and 24 MHz (above the FRAM wait-state threshold).
const CLOCK_LEVELS: [usize; 2] = [3, 5];

/// Cycle budgets per `run` call: below one instruction, around one
/// instruction, a few blocks, an odd mid-kernel slice, and unlimited.
const BUDGETS: [u64; 5] = [1, 3, 160, 481, u64::MAX];

/// Lifetime cycle cap for the non-terminating `Endless` kernel.
const ENDLESS_CYCLES: u64 = 20_000;

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

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn report(&mut self, r: &RunReport) {
        self.u64(r.cycles);
        self.u64(r.instructions);
        self.u64(r.energy.0.to_bits());
        self.bytes(format!("{:?}", r.exit).as_bytes());
    }
}

/// Exit counts over all cases, to show the grid reaches every exit kind.
#[derive(Default)]
struct Coverage {
    completed: u32,
    markers: u32,
    stalls: u32,
    capped: u32,
}

/// Drives one case to a terminal exit: `Completed`, a fault, a budget that
/// cannot fit the next instruction (no progress), or the `Endless` cap.
fn drive(
    kind: WorkloadKind,
    level: usize,
    residence: ExecutionResidence,
    budget: u64,
    stop_at_markers: bool,
    h: &mut Fnv,
    cov: &mut Coverage,
) {
    let mut mcu = Mcu::new(kind.make().program()).with_residence(residence);
    mcu.clock_mut().set_level(level);
    loop {
        let slice = if kind == WorkloadKind::Endless {
            let left = ENDLESS_CYCLES.saturating_sub(mcu.total_cycles());
            if left == 0 {
                cov.capped += 1;
                break;
            }
            budget.min(left)
        } else {
            budget
        };
        let r = mcu.run(slice, stop_at_markers);
        h.report(&r);
        match r.exit {
            RunExit::Completed | RunExit::Fault(_) => {
                cov.completed += u32::from(r.exit == RunExit::Completed);
                break;
            }
            RunExit::Marker(_) => cov.markers += 1,
            RunExit::BudgetExhausted if r.instructions == 0 => {
                cov.stalls += 1;
                break;
            }
            RunExit::BudgetExhausted => {}
        }
    }
    let cpu = mcu.cpu();
    for &reg in &cpu.regs {
        h.bytes(&reg.to_le_bytes());
    }
    h.bytes(&cpu.pc.to_le_bytes());
    h.bytes(&cpu.sp.to_le_bytes());
    h.bytes(&[u8::from(cpu.z), u8::from(cpu.n)]);
    let c = mcu.memory().counts();
    for v in [c.sram_reads, c.sram_writes, c.fram_reads, c.fram_writes] {
        h.u64(v);
    }
    h.u64(mcu.total_cycles());
    h.u64(mcu.total_instructions());
}

#[test]
fn run_reports_match_the_recorded_digest() {
    let mut h = Fnv::new();
    let mut cov = Coverage::default();
    for kind in KINDS {
        for level in CLOCK_LEVELS {
            for residence in [ExecutionResidence::Sram, ExecutionResidence::Fram] {
                for budget in BUDGETS {
                    for stop_at_markers in [false, true] {
                        drive(
                            kind,
                            level,
                            residence,
                            budget,
                            stop_at_markers,
                            &mut h,
                            &mut cov,
                        );
                    }
                }
            }
        }
    }
    assert!(cov.completed > 0 && cov.markers > 0 && cov.stalls > 0 && cov.capped > 0);
    assert_eq!(h.0, EXPECTED_DIGEST, "digest {:#018x}", h.0);
}
