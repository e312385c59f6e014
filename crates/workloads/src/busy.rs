//! A calibrated busy loop — the simplest unit of interruptible progress,
//! used by timing-oriented experiments (e.g. the Eq. 5 crossover sweep)
//! where compute content is irrelevant but cycle count must be exact.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{verify_output_block, Assemble, VerifyError, Workload, OUTPUT_BASE};

/// Counts to `n` with a checkpoint mark at the loop head, then persists the
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyLoop {
    n: u16,
}

impl BusyLoop {
    /// Creates a busy loop of `n` iterations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n ≤ 32767` (the loop bound is compared signed by
    /// the EH16 `Cmp`, so larger counts would wrap negative).
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "iteration count must be > 0");
        assert!(
            n <= i16::MAX as u16,
            "iteration count must fit signed 16-bit"
        );
        Self { n }
    }

    /// The iteration count.
    pub fn iterations(&self) -> u16 {
        self.n
    }
}

impl Workload for BusyLoop {
    fn name(&self) -> &str {
        "busy-loop"
    }

    fn program(&self) -> Program {
        ProgramBuilder::new(format!("busy-{}", self.n))
            .mov(R0, 0u16)
            .mov(R1, self.n)
            .label("loop")
            .mark(0)
            .add(R0, 1u16)
            .cmp(R0, R1)
            .brn("loop")
            .st(R0, Addr::Abs(OUTPUT_BASE))
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &[self.n], "busy counter")
    }

    fn cycles_hint(&self) -> u64 {
        // mark(1) + add(2) + cmp(2) + brn(2) = 7 per iteration, plus setup.
        7 * self.n as u64 + 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn counts_exactly_n() {
        let wl = BusyLoop::new(123);
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
        assert_eq!(mcu.memory().peek(OUTPUT_BASE).unwrap(), 123);
    }

    #[test]
    fn cycles_hint_close_to_measured() {
        let wl = BusyLoop::new(1000);
        let mut mcu = Mcu::new(wl.program());
        let r = mcu.run(u64::MAX, false);
        let hint = wl.cycles_hint();
        let ratio = r.cycles as f64 / hint as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "hint {hint} vs measured {}",
            r.cycles
        );
    }

    #[test]
    fn unfinished_run_fails_verification() {
        let wl = BusyLoop::new(1000);
        let mut mcu = Mcu::new(wl.program());
        mcu.run(100, false);
        assert_eq!(wl.verify(&mcu), Err(VerifyError::NotCompleted));
    }
}
