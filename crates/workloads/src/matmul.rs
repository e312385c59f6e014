//! 8×8 integer matrix multiply — a register-pressure-heavy kernel with a
//! triple-nested loop, the shape Mementos' loop-latch heuristic was designed
//! around.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    OUTPUT_BASE,
};

const DIM: u16 = 8;

/// `C = A × B` for 8×8 matrices of small unsigned entries (`< 16`, so the
/// 16-bit accumulator cannot overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMul {
    seed: u16,
}

impl MatMul {
    /// Creates the workload with the default seed.
    pub fn new() -> Self {
        Self { seed: 0xB0B }
    }

    /// Overrides the data seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn matrices(&self) -> (Vec<u16>, Vec<u16>) {
        let raw = pseudo_random_words(self.seed, 2 * (DIM * DIM) as usize);
        let (a, b) = raw.split_at((DIM * DIM) as usize);
        (
            a.iter().map(|&x| x & 0xF).collect(),
            b.iter().map(|&x| x & 0xF).collect(),
        )
    }

    /// The golden result matrix, row-major.
    pub fn golden(&self) -> Vec<u16> {
        let (a, b) = self.matrices();
        let d = DIM as usize;
        let mut c = vec![0u16; d * d];
        for i in 0..d {
            for j in 0..d {
                let mut acc = 0u16;
                for k in 0..d {
                    acc = acc.wrapping_add(a[i * d + k].wrapping_mul(b[k * d + j]));
                }
                c[i * d + j] = acc;
            }
        }
        c
    }
}

impl Default for MatMul {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for MatMul {
    fn name(&self) -> &str {
        "matmul-8x8"
    }

    fn program(&self) -> Program {
        let (a, b) = self.matrices();
        let b_base = INPUT_BASE + DIM * DIM;
        ProgramBuilder::new("matmul-8x8")
            .data(INPUT_BASE, a)
            .data(b_base, b)
            .mov(R1, 0u16) // i
            .label("i_loop")
            .mark(0)
            .mov(R2, 0u16) // j
            .label("j_loop")
            .mark(1)
            .mov(R0, 0u16) // acc
            .mov(R3, 0u16) // k
            .label("k_loop")
            // R4 = A[i*8+k]
            .mov(R4, R1)
            .shl(R4, 3)
            .add(R4, R3)
            .add(R4, INPUT_BASE)
            .ld(R5, Addr::Ind(R4))
            // R6 = B[k*8+j]
            .mov(R4, R3)
            .shl(R4, 3)
            .add(R4, R2)
            .add(R4, b_base)
            .ld(R6, Addr::Ind(R4))
            .mul(R5, R6)
            .add(R0, R5)
            .add(R3, 1u16)
            .cmp(R3, DIM)
            .brn("k_loop")
            // C[i*8+j] = acc
            .mov(R4, R1)
            .shl(R4, 3)
            .add(R4, R2)
            .add(R4, OUTPUT_BASE)
            .st(R0, Addr::Ind(R4))
            .add(R2, 1u16)
            .cmp(R2, DIM)
            .brn("j_loop")
            .add(R1, 1u16)
            .cmp(R1, DIM)
            .brn("i_loop")
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "matmul C")
    }

    fn cycles_hint(&self) -> u64 {
        // 8³ inner iterations × ~30 cycles plus loop overheads.
        512 * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_matches_golden() {
        let wl = MatMul::new();
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
    }

    #[test]
    fn golden_identity_sanity() {
        // Handmade check on a known cell: golden[0] = Σ_k a[k]·b[k*8].
        let wl = MatMul::new().with_seed(3);
        let (a, b) = wl.matrices();
        let expect: u16 = (0..8).map(|k| a[k] * b[k * 8]).sum();
        assert_eq!(wl.golden()[0], expect);
    }

    #[test]
    fn entries_bounded_prevent_overflow() {
        let (a, b) = MatMul::new().matrices();
        assert!(a.iter().all(|&x| x < 16));
        assert!(b.iter().all(|&x| x < 16));
    }
}
