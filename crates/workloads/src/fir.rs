//! Q15 FIR filter — the standing DSP duty of sensing nodes (anti-aliasing,
//! band extraction), exercising the multiply-accumulate path with a sliding
//! window over FRAM-resident input.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{
    pseudo_random_words, verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE,
    MAX_INPUT_BELOW_OUTPUT, OUTPUT_BASE,
};

/// Applies an `taps`-tap low-pass FIR to `n` Q15 samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirFilter {
    n: u16,
    taps: u16,
    seed: u16,
}

impl FirFilter {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `taps` is a power of two in `2..=32`, `n > taps`,
    /// and `n + taps ≤ MAX_INPUT_BELOW_OUTPUT`.
    pub fn new(n: u16, taps: u16) -> Self {
        assert!(
            taps.is_power_of_two() && (2..=32).contains(&taps),
            "taps must be a power of two in 2..=32"
        );
        assert!(
            (taps + 1..=MAX_INPUT_BELOW_OUTPUT - taps).contains(&n),
            "need taps < n ≤ MAX_INPUT_BELOW_OUTPUT − taps"
        );
        Self {
            n,
            taps,
            seed: 0xF1F0,
        }
    }

    /// Overrides the input seed.
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    fn shift(&self) -> u8 {
        self.taps.trailing_zeros() as u8
    }

    fn input(&self) -> Vec<u16> {
        // Keep |x| < 0.5 in Q15 so scaled accumulation cannot overflow.
        pseudo_random_words(self.seed, self.n as usize)
            .into_iter()
            .map(|w| ((w as i16) / 2) as u16)
            .collect()
    }

    fn coefficients(&self) -> Vec<u16> {
        // Triangular (Bartlett-ish) low-pass kernel, Q15, peak 0.25.
        let t = self.taps as i32;
        (0..t)
            .map(|i| {
                let tri = 1.0 - ((2 * i - (t - 1)).abs() as f64 / t as f64);
                ((0.25 * tri * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn mulq15(a: u16, b: u16) -> u16 {
        (((a as i16 as i32 * b as i16 as i32) >> 15) as i16) as u16
    }

    /// The golden filtered output (`n − taps + 1` samples), exact fixed
    /// point.
    pub fn golden(&self) -> Vec<u16> {
        let x = self.input();
        let h = self.coefficients();
        let shift = self.shift();
        let out_len = (self.n - self.taps + 1) as usize;
        (0..out_len)
            .map(|i| {
                let mut acc = 0u16;
                for (j, &c) in h.iter().enumerate() {
                    let term = ((Self::mulq15(x[i + j], c) as i16) >> shift) as u16;
                    acc = acc.wrapping_add(term);
                }
                acc
            })
            .collect()
    }
}

impl Workload for FirFilter {
    fn name(&self) -> &str {
        "fir-filter"
    }

    fn program(&self) -> Program {
        let coeff_base = INPUT_BASE + self.n;
        let out_len = self.n - self.taps + 1;
        ProgramBuilder::new(format!("fir-{}x{}", self.n, self.taps))
            .data(INPUT_BASE, self.input())
            .data(coeff_base, self.coefficients())
            .mov(R1, 0u16) // output index i
            .label("outer")
            .mark(0)
            .mov(R0, 0u16) // acc
            .mov(R2, 0u16) // tap index j
            .label("inner")
            // R4 = x[i + j]
            .mov(R3, R1)
            .add(R3, R2)
            .add(R3, INPUT_BASE)
            .ld(R4, Addr::Ind(R3))
            // R5 = h[j]
            .mov(R3, R2)
            .add(R3, coeff_base)
            .ld(R5, Addr::Ind(R3))
            .mulq15(R4, R5)
            .sar(R4, self.shift())
            .add(R0, R4)
            .add(R2, 1u16)
            .cmp(R2, self.taps)
            .brn("inner")
            // out[i] = acc
            .mov(R3, R1)
            .add(R3, OUTPUT_BASE)
            .st(R0, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, out_len)
            .brn("outer")
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "fir output")
    }

    fn cycles_hint(&self) -> u64 {
        (self.n - self.taps + 1) as u64 * self.taps as u64 * 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_matches_golden() {
        for (n, taps) in [(64u16, 8u16), (128, 16), (40, 4)] {
            let wl = FirFilter::new(n, taps);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(
                mcu.run(u64::MAX, false).exit,
                RunExit::Completed,
                "{n}x{taps}"
            );
            wl.verify(&mcu)
                .unwrap_or_else(|e| panic!("{n}x{taps}: {e}"));
        }
    }

    #[test]
    fn filter_attenuates_alternating_input() {
        // The low-pass golden output of a ±A alternating signal must be far
        // smaller than the input amplitude.
        struct Alt;
        let wl = FirFilter::new(64, 8);
        let golden = wl.golden();
        let input = wl.input();
        let in_amp = input
            .iter()
            .map(|&w| (w as i16 as i32).abs())
            .max()
            .unwrap();
        let out_amp = golden
            .iter()
            .map(|&w| (w as i16 as i32).abs())
            .max()
            .unwrap();
        // Pseudo-random input is broadband; a 0.25-peak kernel with 1/8
        // pre-scaling must compress amplitude strongly.
        assert!(out_amp < in_amp / 4, "out {out_amp} vs in {in_amp}");
        let _ = Alt;
    }

    #[test]
    fn survives_interruption() {
        let wl = FirFilter::new(64, 8);
        let mut mcu = Mcu::new(wl.program());
        loop {
            let r = mcu.run(137, false);
            match r.exit {
                RunExit::Completed => break,
                RunExit::BudgetExhausted => {
                    mcu.take_snapshot(None);
                    mcu.power_loss();
                    mcu.cold_boot();
                    mcu.restore_snapshot().unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        wl.verify(&mcu).unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_taps_rejected() {
        let _ = FirFilter::new(64, 6);
    }
}
