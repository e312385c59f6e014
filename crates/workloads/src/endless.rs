//! An endless workload — for throughput and tracking experiments where the
//! metric is *forward progress per unit time* rather than completion.
//!
//! The program spins forever, incrementing a pair of counters and
//! periodically persisting the low word to FRAM, with a checkpoint mark at
//! the loop head. It never executes `Halt`, so [`Workload::verify`] checks
//! only structural liveness (the persisted counter is non-zero once enough
//! cycles have retired).

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{Assemble, VerifyError, Workload, OUTPUT_BASE};

/// Spins forever; progress is measured in retired cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Endless {
    _private: (),
}

impl Endless {
    /// Creates the endless workload.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Workload for Endless {
    fn name(&self) -> &str {
        "endless"
    }

    fn program(&self) -> Program {
        ProgramBuilder::new("endless")
            .mov(R0, 0u16) // low counter
            .mov(R1, 0u16) // high counter
            .label("loop")
            .mark(0)
            .add(R0, 1u16)
            .brnz("skip_carry")
            .add(R1, 1u16)
            .label("skip_carry")
            .st(R0, Addr::Abs(OUTPUT_BASE))
            .jmp("loop")
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        // Liveness: after a meaningful amount of execution the persisted
        // counter must have moved.
        if mcu.total_cycles() > 1000 {
            let c = mcu
                .memory()
                .peek(OUTPUT_BASE)
                .map_err(|e| VerifyError::Structural(e.to_string()))?;
            let high_seen = c != 0;
            if !high_seen && mcu.reboots() == 0 {
                return Err(VerifyError::Structural(
                    "endless counter never advanced".to_string(),
                ));
            }
        }
        Ok(())
    }

    fn cycles_hint(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn never_completes_but_progresses() {
        let wl = Endless::new();
        let mut mcu = Mcu::new(wl.program());
        let r = mcu.run(100_000, false);
        assert_eq!(r.exit, RunExit::BudgetExhausted);
        assert!(r.cycles >= 99_000);
        wl.verify(&mcu).unwrap();
        assert!(mcu.memory().peek(OUTPUT_BASE).unwrap() > 0);
    }

    #[test]
    fn survives_snapshot_restore() {
        let wl = Endless::new();
        let mut mcu = Mcu::new(wl.program());
        mcu.run(5_000, false);
        let count_before = mcu.memory().peek(OUTPUT_BASE).unwrap();
        mcu.take_snapshot(None);
        mcu.power_loss();
        mcu.cold_boot();
        mcu.restore_snapshot().unwrap();
        mcu.run(5_000, false);
        let count_after = mcu.memory().peek(OUTPUT_BASE).unwrap();
        assert!(count_after > count_before, "progress must continue");
    }
}
