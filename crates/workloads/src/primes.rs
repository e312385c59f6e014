//! Sieve of Eratosthenes over an SRAM working array — a workload whose
//! entire progress lives in *volatile* memory, making it maximally sensitive
//! to checkpoint correctness (a corrupted restore changes the prime count).

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{verify_output_block, Assemble, VerifyError, Workload, OUTPUT_BASE};

/// SRAM word address of the sieve array.
const SIEVE_BASE: u16 = 0x0100;

/// Counts primes below `n` with a sieve held in SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeSieve {
    n: u16,
}

impl PrimeSieve {
    /// Creates a sieve counting primes `< n`.
    ///
    /// # Panics
    ///
    /// Panics unless `3 ≤ n ≤ 512` (the SRAM working area).
    pub fn new(n: u16) -> Self {
        assert!((3..=512).contains(&n), "n must be in 3..=512");
        Self { n }
    }

    /// The golden prime count.
    pub fn golden(&self) -> u16 {
        let n = self.n as usize;
        let mut composite = vec![false; n];
        let mut count = 0u16;
        for i in 2..n {
            if !composite[i] {
                count += 1;
                let mut j = i * i;
                while j < n {
                    composite[j] = true;
                    j += i;
                }
            }
        }
        count
    }
}

impl Workload for PrimeSieve {
    fn name(&self) -> &str {
        "prime-sieve"
    }

    fn program(&self) -> Program {
        let n = self.n;
        // Marking is only needed while i² < n; bounding the inner loop at
        // ⌈√n⌉ also keeps j = i² inside signed-compare range.
        let sqrt_n = (n as f64).sqrt().ceil() as u16 + 1;
        ProgramBuilder::new(format!("primes-{n}"))
            // Zero the sieve array (SRAM is garbage after an outage).
            .mov(R1, 0u16)
            .mov(R2, 0u16)
            .label("clear")
            .mark(0)
            .mov(R3, R1)
            .add(R3, SIEVE_BASE)
            .st(R2, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("clear")
            // Main sieve: R1 = i, R0 = count.
            .mov(R0, 0u16)
            .mov(R1, 2u16)
            .label("outer")
            .mark(1)
            .mov(R3, R1)
            .add(R3, SIEVE_BASE)
            .ld(R4, Addr::Ind(R3))
            .cmp(R4, 0u16)
            .brnz("next_i") // composite: skip
            .add(R0, 1u16) // found a prime
            // Only mark multiples while i < ⌈√n⌉ (j = i² stays in signed range).
            .cmp(R1, sqrt_n)
            .brge("next_i")
            // j = i*i; while j < n { mark; j += i }
            .mov(R5, R1)
            .mul(R5, R1)
            .label("inner")
            .cmp(R5, n)
            .brge("next_i")
            .mov(R3, R5)
            .add(R3, SIEVE_BASE)
            .mov(R6, 1u16)
            .st(R6, Addr::Ind(R3))
            .add(R5, R1)
            .jmp("inner")
            .label("next_i")
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("outer")
            .st(R0, Addr::Abs(OUTPUT_BASE))
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &[self.golden()], "prime count")
    }

    fn cycles_hint(&self) -> u64 {
        // Clear pass + roughly n·ln(ln n) marking work.
        self.n as u64 * 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn known_prime_counts() {
        assert_eq!(PrimeSieve::new(10).golden(), 4); // 2 3 5 7
        assert_eq!(PrimeSieve::new(100).golden(), 25);
        assert_eq!(PrimeSieve::new(256).golden(), 54);
    }

    #[test]
    fn machine_matches_golden() {
        for n in [10u16, 64, 256] {
            let wl = PrimeSieve::new(n);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed, "n={n}");
            wl.verify(&mcu).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn sieve_uses_sram_only_for_working_set() {
        // The sieve must survive the clear pass even from corrupted SRAM:
        // run after a simulated outage with no snapshot (restart).
        let wl = PrimeSieve::new(64);
        let mut mcu = Mcu::new(wl.program());
        mcu.run(500, false); // partial progress
        mcu.power_loss();
        mcu.cold_boot(); // restart from entry, SRAM full of garbage
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
    }
}
