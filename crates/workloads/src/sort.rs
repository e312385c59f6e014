//! Insertion sort over an SRAM-resident array — a data-movement-heavy
//! kernel whose entire state is volatile and positional, so any checkpoint
//! corruption scrambles the output irrecoverably.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    OUTPUT_BASE,
};

/// SRAM word address of the working array.
const WORK_BASE: u16 = 0x0100;

/// Sorts `n` words (ascending, unsigned-via-signed trick avoided by masking
/// inputs to 15 bits) and persists the sorted array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionSort {
    n: u16,
    seed: u16,
}

impl InsertionSort {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ n ≤ 256`.
    pub fn new(n: u16) -> Self {
        assert!((2..=256).contains(&n), "n must be in 2..=256");
        Self { n, seed: 0x50F7 }
    }

    /// Overrides the input seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn input(&self) -> Vec<u16> {
        // Mask to 15 bits so signed compares order like unsigned.
        pseudo_random_words(self.seed, self.n as usize)
            .into_iter()
            .map(|w| w & 0x7FFF)
            .collect()
    }

    /// The golden sorted array.
    pub fn golden(&self) -> Vec<u16> {
        let mut v = self.input();
        v.sort_unstable();
        v
    }
}

impl Workload for InsertionSort {
    fn name(&self) -> &str {
        "insertion-sort"
    }

    fn program(&self) -> Program {
        let n = self.n;
        ProgramBuilder::new(format!("sort-{n}"))
            .data(INPUT_BASE, self.input())
            // Copy input FRAM → SRAM working area.
            .mov(R1, 0u16)
            .label("copy")
            .mark(0)
            .mov(R3, R1)
            .add(R3, INPUT_BASE)
            .ld(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, WORK_BASE)
            .st(R4, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("copy")
            // Insertion sort: for i in 1..n
            .mov(R1, 1u16) // i
            .label("outer")
            .mark(1)
            // key = a[i]
            .mov(R3, R1)
            .add(R3, WORK_BASE)
            .ld(R5, Addr::Ind(R3)) // key
            .mov(R2, R1) // j = i
            .label("shift")
            .cmp(R2, 0u16)
            .brz("insert")
            // R6 = a[j-1]
            .mov(R3, R2)
            .sub(R3, 1u16)
            .add(R3, WORK_BASE)
            .ld(R6, Addr::Ind(R3))
            .cmp(R6, R5)
            .brn("insert") // a[j-1] < key: done shifting
            .brz("insert") // equal: stable stop
            // a[j] = a[j-1]
            .mov(R4, R2)
            .add(R4, WORK_BASE)
            .st(R6, Addr::Ind(R4))
            .sub(R2, 1u16)
            .jmp("shift")
            .label("insert")
            .mov(R3, R2)
            .add(R3, WORK_BASE)
            .st(R5, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("outer")
            // Persist sorted array to FRAM.
            .mov(R1, 0u16)
            .label("persist")
            .mov(R3, R1)
            .add(R3, WORK_BASE)
            .ld(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, OUTPUT_BASE)
            .st(R4, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("persist")
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "sorted array")
    }

    fn cycles_hint(&self) -> u64 {
        // O(n²/4) shifts of ~25 cycles plus copy/persist passes.
        let n = self.n as u64;
        n * n * 7 + n * 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_sorts_correctly() {
        for n in [2u16, 16, 64] {
            let wl = InsertionSort::new(n);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed, "n={n}");
            wl.verify(&mcu).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn golden_is_sorted_permutation() {
        let wl = InsertionSort::new(64);
        let golden = wl.golden();
        assert!(golden.windows(2).all(|w| w[0] <= w[1]));
        let mut input = wl.input();
        input.sort_unstable();
        assert_eq!(input, golden);
    }

    #[test]
    fn survives_interruption_mid_shift() {
        let wl = InsertionSort::new(48);
        let mut mcu = Mcu::new(wl.program());
        let mut budget = 83u64;
        loop {
            match mcu.run(budget, false).exit {
                RunExit::Completed => break,
                RunExit::BudgetExhausted => {
                    mcu.take_snapshot(None);
                    mcu.power_loss();
                    mcu.cold_boot();
                    mcu.restore_snapshot().unwrap();
                    budget = (budget * 5 % 509).max(53);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        wl.verify(&mcu).unwrap();
    }
}
