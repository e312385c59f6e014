//! A sense→filter→transmit pipeline — the canonical duty of the
//! energy-harvesting sensor nodes the paper's taxonomy catalogues (Gomez et
//! al., Monjolo, WSN motes).
//!
//! Unlike the deterministic kernels, this workload touches *peripherals*,
//! whose state the snapshot engine deliberately does not save (the paper's
//! discussion flags peripheral state as open future work). Verification is
//! therefore structural: window counts and value ranges, not exact samples.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{Assemble, VerifyError, Workload, OUTPUT_BASE};

/// Samples the ADC in windows, averages each window, persists and transmits
/// the averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensePipeline {
    windows: u16,
    samples_per_window: u16,
}

impl SensePipeline {
    /// Creates a pipeline of `windows` windows × `samples_per_window`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics unless both counts are positive and `samples_per_window` is a
    /// power of two ≤ 64 (averaging uses shifts).
    pub fn new(windows: u16, samples_per_window: u16) -> Self {
        assert!(windows > 0, "need at least one window");
        assert!(
            samples_per_window.is_power_of_two() && samples_per_window <= 64,
            "samples per window must be a power of two ≤ 64"
        );
        Self {
            windows,
            samples_per_window,
        }
    }

    fn shift(&self) -> u8 {
        self.samples_per_window.trailing_zeros() as u8
    }
}

impl Workload for SensePipeline {
    fn name(&self) -> &str {
        "sense-pipeline"
    }

    fn program(&self) -> Program {
        ProgramBuilder::new(format!(
            "sense-{}x{}",
            self.windows, self.samples_per_window
        ))
        .mov(R1, 0u16) // window index
        .label("window")
        .mark(0)
        .mov(R0, 0u16) // accumulator
        .mov(R2, self.samples_per_window)
        .label("sample")
        .sense(R4)
        .add(R0, R4)
        .sub(R2, 1u16)
        .brnz("sample")
        .shr(R0, self.shift()) // window average
        // Persist at OUTPUT_BASE + 1 + window.
        .mov(R3, R1)
        .add(R3, OUTPUT_BASE + 1)
        .st(R0, Addr::Ind(R3))
        .tx(R0) // and report it
        .add(R1, 1u16)
        .cmp(R1, self.windows)
        .brn("window")
        .st(R1, Addr::Abs(OUTPUT_BASE)) // window count
        .halt()
        .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        if !mcu.is_halted() {
            return Err(VerifyError::NotCompleted);
        }
        let count = mcu
            .memory()
            .peek(OUTPUT_BASE)
            .map_err(|e| VerifyError::Structural(e.to_string()))?;
        if count != self.windows {
            return Err(VerifyError::Structural(format!(
                "expected {} windows, found {count}",
                self.windows
            )));
        }
        for w in 0..self.windows {
            let avg = mcu
                .memory()
                .peek(OUTPUT_BASE + 1 + w)
                .map_err(|e| VerifyError::Structural(e.to_string()))?;
            // 12-bit ADC: averages must stay in converter range.
            if !(1..=4095).contains(&avg) {
                return Err(VerifyError::Structural(format!(
                    "window {w} average {avg} outside ADC range"
                )));
            }
        }
        Ok(())
    }

    fn cycles_hint(&self) -> u64 {
        // Dominated by Sense (200 cycles) and Tx (2000 cycles).
        self.windows as u64 * (self.samples_per_window as u64 * 210 + 2100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn pipeline_stores_and_transmits_all_windows() {
        let wl = SensePipeline::new(6, 8);
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
        assert_eq!(mcu.radio().words_sent(), 6);
        assert_eq!(mcu.adc().conversions(), 48);
    }

    #[test]
    fn averages_track_the_adc_sinusoid() {
        let wl = SensePipeline::new(4, 16);
        let mut mcu = Mcu::new(wl.program());
        mcu.run(u64::MAX, false);
        // The ADC sine is centred on 2048; window averages must be nearby.
        for w in 0..4 {
            let avg = mcu.memory().peek(OUTPUT_BASE + 1 + w).unwrap();
            assert!(
                (1000..=3100).contains(&avg),
                "window {w} average {avg} implausible"
            );
        }
    }

    #[test]
    fn survives_restart_with_fresh_peripherals() {
        // After a restart (no snapshot) the pipeline still completes and
        // verifies — peripheral state loss is tolerated by design.
        let wl = SensePipeline::new(4, 4);
        let mut mcu = Mcu::new(wl.program());
        mcu.run(2000, false);
        mcu.power_loss();
        mcu.cold_boot();
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_window_size_rejected() {
        let _ = SensePipeline::new(2, 3);
    }
}
