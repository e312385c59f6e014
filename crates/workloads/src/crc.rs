//! CRC-16/CCITT-FALSE over a block of FRAM-resident data — a classic
//! intermittent-computing kernel (it appears throughout the Mementos and
//! Hibernus evaluations) with a bit-serial inner loop.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    MAX_INPUT_WORDS, OUTPUT_BASE,
};

const POLY: u16 = 0x1021;
const INIT: u16 = 0xFFFF;

/// CRC-16 of `n` pseudo-random input words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc16 {
    n: u16,
    seed: u16,
}

impl Crc16 {
    /// Creates a CRC workload over `n` words of seeded data.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is in `1..=MAX_INPUT_WORDS`.
    pub fn new(n: u16) -> Self {
        assert!(
            (1..=MAX_INPUT_WORDS).contains(&n),
            "block length must be in 1..=MAX_INPUT_WORDS"
        );
        Self { n, seed: 0x1234 }
    }

    /// Overrides the input-data seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn input(&self) -> Vec<u16> {
        pseudo_random_words(self.seed, self.n as usize)
    }

    /// The golden CRC value.
    pub fn golden(&self) -> u16 {
        let mut crc = INIT;
        for w in self.input() {
            crc ^= w;
            for _ in 0..16 {
                if crc & 0x8000 != 0 {
                    crc = (crc << 1) ^ POLY;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc
    }
}

impl Workload for Crc16 {
    fn name(&self) -> &str {
        "crc16"
    }

    fn program(&self) -> Program {
        ProgramBuilder::new(format!("crc16-{}", self.n))
            .data(INPUT_BASE, self.input())
            .mov(R0, INIT) // crc
            .mov(R1, INPUT_BASE) // input pointer
            .mov(R2, self.n) // words remaining
            .label("word")
            .mark(0)
            .ld(R4, Addr::Ind(R1))
            .xor(R0, R4)
            .mov(R3, 16u16) // bit counter
            .label("bit")
            .mov(R4, R0)
            .and(R4, 0x8000u16)
            .brz("shift_only")
            .shl(R0, 1)
            .xor(R0, POLY)
            .jmp("bit_done")
            .label("shift_only")
            .shl(R0, 1)
            .label("bit_done")
            .sub(R3, 1u16)
            .brnz("bit")
            .add(R1, 1u16)
            .sub(R2, 1u16)
            .brnz("word")
            .st(R0, Addr::Abs(OUTPUT_BASE))
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &[self.golden()], "crc16")
    }

    fn cycles_hint(&self) -> u64 {
        // ~10 cycles per bit × 16 bits plus per-word overhead.
        self.n as u64 * (16 * 10 + 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    /// Reference CRC-16/CCITT-FALSE of the ASCII bytes "123456789" is 0x29B1.
    /// Our machine works in 16-bit words, so check the word-wise golden model
    /// against an independent bitwise implementation instead.
    fn reference_crc(words: &[u16]) -> u16 {
        let mut crc: u32 = INIT as u32;
        for &w in words {
            crc ^= w as u32;
            for _ in 0..16 {
                crc = if crc & 0x8000 != 0 {
                    ((crc << 1) ^ POLY as u32) & 0xFFFF
                } else {
                    (crc << 1) & 0xFFFF
                };
            }
        }
        crc as u16
    }

    #[test]
    fn golden_matches_independent_implementation() {
        let wl = Crc16::new(32);
        assert_eq!(wl.golden(), reference_crc(&wl.input()));
    }

    #[test]
    fn machine_matches_golden() {
        let wl = Crc16::new(48).with_seed(777);
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
    }

    #[test]
    fn different_seeds_give_different_crcs() {
        let a = Crc16::new(32).with_seed(1).golden();
        let b = Crc16::new(32).with_seed(2).golden();
        assert_ne!(a, b);
    }

    #[test]
    fn corrupted_output_detected() {
        let wl = Crc16::new(16);
        let mut mcu = Mcu::new(wl.program());
        mcu.run(u64::MAX, false);
        mcu.memory_mut().poke(OUTPUT_BASE, wl.golden() ^ 1).unwrap();
        assert!(matches!(wl.verify(&mcu), Err(VerifyError::Mismatch { .. })));
    }
}
