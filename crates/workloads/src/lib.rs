//! Benchmark programs for the simulated MCU, with golden-model checkers.
//!
//! Transient-computing experiments are only meaningful if the computation
//! whose progress is being preserved is *checkable*: a checkpoint bug that
//! silently corrupts state must fail the experiment. Every workload here
//! therefore implements [`Workload`]: it assembles an EH16 [`Program`]
//! (instrumented with `Mark` checkpoint sites at loop heads and function
//! entries, the Mementos heuristics) and verifies the machine's final memory
//! against a Rust golden model — exactly, for the deterministic kernels.
//!
//! The roster covers the paper's evaluation workloads and classic
//! intermittent-computing kernels: an FFT (Fig. 7's workload, realised as a
//! fixed-point Fourier transform), CRC-16, matrix multiply, Q15 dot product,
//! run-length encoding, a prime sieve, a sensing pipeline, and a calibrated
//! busy loop.
//!
//! # Examples
//!
//! ```
//! use edc_mcu::{Mcu, RunExit};
//! use edc_workloads::{Crc16, Workload};
//!
//! let wl = Crc16::new(64);
//! let mut mcu = Mcu::new(wl.program());
//! assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
//! wl.verify(&mcu).expect("golden model agrees");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod busy;
mod crc;
mod dot;
mod endless;
mod fft;
mod fir;
mod fourier;
mod kind;
mod matmul;
mod primes;
mod rle;
mod sense;
mod sort;

pub use busy::BusyLoop;
pub use crc::Crc16;
pub use dot::DotProduct;
pub use endless::Endless;
pub use fft::RadixFft;
pub use fir::FirFilter;
pub use fourier::Fourier;
pub use kind::WorkloadKind;
pub use matmul::MatMul;
pub use primes::PrimeSieve;
pub use rle::RunLength;
pub use sense::SensePipeline;
pub use sort::InsertionSort;

use std::fmt;

use edc_mcu::isa::{Program, ProgramBuilder};
use edc_mcu::mem::SNAPSHOT_BASE;
use edc_mcu::Mcu;

/// FRAM base address where workloads place their input data.
pub const INPUT_BASE: u16 = 0x1100;
/// Most data words a kernel can place from [`INPUT_BASE`] up to the
/// snapshot area at the top of FRAM, which snapshots overwrite; the
/// constructors bound their input sizes by it.
pub const MAX_INPUT_WORDS: u16 = SNAPSHOT_BASE - INPUT_BASE;
/// FRAM base address where workloads persist their results.
pub const OUTPUT_BASE: u16 = 0x2000;

/// Verification failures reported by [`Workload::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has not executed `Halt`.
    NotCompleted,
    /// An output word disagrees with the golden model.
    Mismatch {
        /// Human-readable description of the location.
        what: String,
        /// Golden-model value.
        expected: u16,
        /// Value found in machine memory.
        actual: u16,
    },
    /// A structural check failed (counts, ranges).
    Structural(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotCompleted => write!(f, "program did not complete"),
            VerifyError::Mismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected {expected:#06x}, got {actual:#06x}"),
            VerifyError::Structural(s) => write!(f, "structural check failed: {s}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A benchmark program plus its golden-model checker.
pub trait Workload {
    /// Display name (used in tables and logs).
    fn name(&self) -> &str;

    /// Assembles the program.
    fn program(&self) -> Program;

    /// Checks the machine's final state against the golden model.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the program has not halted or its
    /// persisted outputs disagree with the golden model.
    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError>;

    /// Rough single-run cycle count at reference parameters, used by
    /// harnesses to size supply periods. Implementations may measure once
    /// and hard-code.
    fn cycles_hint(&self) -> u64;
}

/// The last step of every kernel's builder chain.
pub(crate) trait Assemble {
    /// Resolves the kernel's labels and produces its program.
    fn assemble(self) -> Program;
}

impl Assemble for ProgramBuilder {
    // Each kernel is fixed code: its labels all resolve, and its data
    // blocks fit FRAM for every size its constructor accepts.
    // `tests/kernels.rs` assembles and loads every `WorkloadKind` at both
    // ends of its size range.
    #[expect(clippy::expect_used, reason = "see tests/kernels.rs")]
    fn assemble(self) -> Program {
        self.build().expect("kernels assemble at any valid size")
    }
}

/// Checks completion and compares a block of persisted output words against
/// golden values. Shared by the deterministic kernels.
pub(crate) fn verify_output_block(
    mcu: &Mcu,
    base: u16,
    golden: &[u16],
    label: &str,
) -> Result<(), VerifyError> {
    if !mcu.is_halted() {
        return Err(VerifyError::NotCompleted);
    }
    for (i, &want) in golden.iter().enumerate() {
        let addr = base + i as u16;
        let got = mcu
            .memory()
            .peek(addr)
            .map_err(|e| VerifyError::Structural(e.to_string()))?;
        if got != want {
            return Err(VerifyError::Mismatch {
                what: format!("{label}[{i}] @ {addr:#06x}"),
                expected: want,
                actual: got,
            });
        }
    }
    Ok(())
}

/// Deterministic pseudo-random u16 generator for reproducible input data
/// (xorshift; avoids dragging `rand` into every golden model).
pub(crate) fn pseudo_random_words(seed: u16, n: usize) -> Vec<u16> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 7;
            x ^= x >> 9;
            x ^= x << 8;
            x
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    /// Every workload must complete and verify on uninterrupted hardware.
    #[test]
    fn all_workloads_complete_and_verify() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(BusyLoop::new(1000)),
            Box::new(Crc16::new(64)),
            Box::new(DotProduct::new(64)),
            Box::new(Fourier::new(16)),
            Box::new(MatMul::new()),
            Box::new(PrimeSieve::new(256)),
            Box::new(RunLength::new(96)),
            Box::new(SensePipeline::new(8, 4)),
            Box::new(FirFilter::new(64, 8)),
            Box::new(InsertionSort::new(64)),
            Box::new(RadixFft::new(64)),
        ];
        for wl in workloads {
            let mut mcu = Mcu::new(wl.program());
            let r = mcu.run(u64::MAX, false);
            assert_eq!(
                r.exit,
                RunExit::Completed,
                "{} did not complete: {:?}",
                wl.name(),
                r.exit
            );
            wl.verify(&mcu)
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", wl.name()));
            assert!(wl.cycles_hint() > 0);
        }
    }

    /// Every workload must survive a snapshot/restore cycle mid-run and
    /// still verify — the core transient-computing correctness property.
    #[test]
    fn all_workloads_survive_snapshot_restore() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(Crc16::new(64)),
            Box::new(DotProduct::new(64)),
            Box::new(Fourier::new(16)),
            Box::new(MatMul::new()),
            Box::new(PrimeSieve::new(128)),
            Box::new(RunLength::new(64)),
            Box::new(BusyLoop::new(500)),
            Box::new(FirFilter::new(48, 8)),
            Box::new(InsertionSort::new(48)),
            Box::new(RadixFft::new(32)),
        ];
        for wl in workloads {
            let mut mcu = Mcu::new(wl.program());
            let mut budget = 97u64; // odd slice: cut mid-kernel
            loop {
                let r = mcu.run(budget, false);
                match r.exit {
                    RunExit::Completed => break,
                    RunExit::BudgetExhausted => {
                        // Hibernate → die → reboot → restore.
                        assert!(mcu.take_snapshot(None).completed);
                        mcu.power_loss();
                        mcu.cold_boot();
                        mcu.restore_snapshot().expect("valid snapshot");
                        budget = (budget * 3 % 1013).max(61);
                    }
                    other => panic!("{}: unexpected exit {other:?}", wl.name()),
                }
            }
            wl.verify(&mcu)
                .unwrap_or_else(|e| panic!("{} failed after interruptions: {e}", wl.name()));
        }
    }

    #[test]
    fn pseudo_random_is_deterministic_and_nonconstant() {
        let a = pseudo_random_words(42, 32);
        let b = pseudo_random_words(42, 32);
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
        let c = pseudo_random_words(45, 32);
        assert_ne!(a, c);
    }

    #[test]
    fn verify_error_messages_are_informative() {
        let e = VerifyError::Mismatch {
            what: "crc".into(),
            expected: 0x1234,
            actual: 0x4321,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x1234") && msg.contains("0x4321"));
        assert!(VerifyError::NotCompleted.to_string().contains("complete"));
    }
}
