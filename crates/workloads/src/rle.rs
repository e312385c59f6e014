//! Run-length encoding — a compression kernel with data-dependent control
//! flow and output, representative of the pre-transmission processing in
//! sensing systems.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    MAX_INPUT_WORDS, OUTPUT_BASE,
};

/// Run-length encodes `n` input words into `(value, run)` pairs.
///
/// Input data is generated with deliberate runs (each pseudo-random value is
/// repeated a short, data-dependent number of times) so the encoder has real
/// work to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    n: u16,
    seed: u16,
}

impl RunLength {
    /// Creates the workload over `n` input words.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is in `2..=MAX_INPUT_WORDS`.
    pub fn new(n: u16) -> Self {
        assert!(
            (2..=MAX_INPUT_WORDS).contains(&n),
            "need 2..=MAX_INPUT_WORDS input words"
        );
        Self { n, seed: 0xACE1 }
    }

    /// Overrides the data seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn input(&self) -> Vec<u16> {
        // Build runs: value v repeated (v % 5) + 1 times.
        let mut out = Vec::with_capacity(self.n as usize);
        let mut feed = pseudo_random_words(self.seed, self.n as usize).into_iter();
        while out.len() < self.n as usize {
            let v = feed.next().unwrap_or(7) & 0xFF;
            let run = (v % 5) + 1;
            for _ in 0..run {
                if out.len() == self.n as usize {
                    break;
                }
                out.push(v);
            }
        }
        out
    }

    /// The golden output: pair count followed by `(value, run)` pairs.
    pub fn golden(&self) -> Vec<u16> {
        let input = self.input();
        let mut pairs = Vec::new();
        let mut cur = input[0];
        let mut run = 1u16;
        for &w in &input[1..] {
            if w == cur {
                run += 1;
            } else {
                pairs.push((cur, run));
                cur = w;
                run = 1;
            }
        }
        pairs.push((cur, run));
        let mut out = vec![pairs.len() as u16];
        for (v, r) in pairs {
            out.push(v);
            out.push(r);
        }
        out
    }
}

impl Workload for RunLength {
    fn name(&self) -> &str {
        "rle"
    }

    fn program(&self) -> Program {
        ProgramBuilder::new(format!("rle-{}", self.n))
            .data(INPUT_BASE, self.input())
            .mov(R1, INPUT_BASE) // in ptr
            .mov(R2, self.n) // remaining
            .mov(R5, OUTPUT_BASE + 1) // out ptr (pairs)
            .mov(R7, 0u16) // pair count
            .ld(R3, Addr::Ind(R1)) // current value
            .add(R1, 1u16)
            .sub(R2, 1u16)
            .mov(R4, 1u16) // run length
            .label("loop")
            .mark(0)
            .cmp(R2, 0u16)
            .brz("finish")
            .ld(R6, Addr::Ind(R1))
            .add(R1, 1u16)
            .sub(R2, 1u16)
            .cmp(R6, R3)
            .brz("same")
            // Flush (value, run).
            .st(R3, Addr::Ind(R5))
            .add(R5, 1u16)
            .st(R4, Addr::Ind(R5))
            .add(R5, 1u16)
            .add(R7, 1u16)
            .mov(R3, R6)
            .mov(R4, 1u16)
            .jmp("loop")
            .label("same")
            .add(R4, 1u16)
            .jmp("loop")
            .label("finish")
            .st(R3, Addr::Ind(R5))
            .add(R5, 1u16)
            .st(R4, Addr::Ind(R5))
            .add(R7, 1u16)
            .st(R7, Addr::Abs(OUTPUT_BASE))
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "rle stream")
    }

    fn cycles_hint(&self) -> u64 {
        self.n as u64 * 22
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn input_has_runs() {
        let wl = RunLength::new(96);
        let input = wl.input();
        let runs = input.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs > 10, "expected real runs, found {runs}");
    }

    #[test]
    fn golden_round_trips() {
        let wl = RunLength::new(64);
        let golden = wl.golden();
        let input = wl.input();
        // Decode and compare.
        let pairs = golden[0] as usize;
        let mut decoded = Vec::new();
        for p in 0..pairs {
            let v = golden[1 + 2 * p];
            let r = golden[2 + 2 * p];
            decoded.extend(std::iter::repeat_n(v, r as usize));
        }
        assert_eq!(decoded, input);
    }

    #[test]
    fn machine_matches_golden() {
        let wl = RunLength::new(96).with_seed(0xBEE);
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        wl.verify(&mcu).unwrap();
    }
}
