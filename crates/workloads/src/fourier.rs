//! Fixed-point Fourier transform — the workload of the paper's Fig. 7
//! ("During the third cycle, an FFT that began at the beginning of execution
//! is completed").
//!
//! The kernel computes an `N`-point DFT in Q15 with per-term pre-scaling by
//! `1/N` (shift) so the 16-bit accumulators cannot overflow. The golden
//! model replicates the *exact* fixed-point arithmetic, so verification is
//! bit-exact. Sine/cosine tables live in FRAM alongside the input vector;
//! results (real and imaginary parts per bin) are persisted to FRAM.
//!
//! An O(N²) direct transform is used rather than a radix-2 butterfly: for
//! the reproduction what matters is a long-running, checkpointable kernel
//! with verifiable numerics, and the direct form keeps the hand-assembled
//! inner loop auditable. Runtime is tuned via `N`.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE, OUTPUT_BASE};

/// `N`-point Q15 DFT of a synthetic two-tone signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fourier {
    n: u16,
}

impl Fourier {
    /// Creates an `n`-point transform.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `8..=256`.
    pub fn new(n: u16) -> Self {
        assert!(
            n.is_power_of_two() && (8..=256).contains(&n),
            "n must be a power of two in 8..=256"
        );
        Self { n }
    }

    /// Transform size.
    pub fn size(&self) -> u16 {
        self.n
    }

    fn shift(&self) -> u8 {
        self.n.trailing_zeros() as u8
    }

    /// Q15 input signal: a two-tone (bins 1 and `n/8`) plus DC offset.
    fn input(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let x = 0.4 * t.sin() + 0.25 * ((n as f64 / 8.0) * t).cos() + 0.05;
                ((x * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn cos_table(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                ((t.cos() * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn sin_table(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                ((t.sin() * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn mulq15(a: u16, b: u16) -> u16 {
        (((a as i16 as i32 * b as i16 as i32) >> 15) as i16) as u16
    }

    /// The golden spectrum: `re[0..n]` then `im[0..n]`, exact fixed point.
    pub fn golden(&self) -> Vec<u16> {
        let n = self.n as usize;
        let x = self.input();
        let cos = self.cos_table();
        let sin = self.sin_table();
        let shift = self.shift();
        let mut out = vec![0u16; 2 * n];
        for k in 0..n {
            let mut re = 0u16;
            let mut im = 0u16;
            let mut idx = 0usize;
            for &xn in x.iter().take(n) {
                let tr = ((Self::mulq15(xn, cos[idx]) as i16) >> shift) as u16;
                let ti = ((Self::mulq15(xn, sin[idx]) as i16) >> shift) as u16;
                re = re.wrapping_add(tr);
                im = im.wrapping_sub(ti);
                idx = (idx + k) & (n - 1);
            }
            out[k] = re;
            out[n + k] = im;
        }
        out
    }

    /// Magnitude-squared style energy of bin `k` from a golden spectrum —
    /// convenience for examples that want to show "the FFT found the tone".
    pub fn bin_energy(golden: &[u16], n: usize, k: usize) -> f64 {
        let re = golden[k] as i16 as f64;
        let im = golden[n + k] as i16 as f64;
        re * re + im * im
    }
}

impl Workload for Fourier {
    fn name(&self) -> &str {
        "fourier"
    }

    fn program(&self) -> Program {
        let n = self.n;
        let cos_base = INPUT_BASE + n;
        let sin_base = INPUT_BASE + 2 * n;
        let re_base = OUTPUT_BASE;
        let im_base = OUTPUT_BASE + n;
        let mask = n - 1;
        let shift = self.shift();

        ProgramBuilder::new(format!("fourier-{n}"))
            .data(INPUT_BASE, self.input())
            .data(cos_base, self.cos_table())
            .data(sin_base, self.sin_table())
            .mov(R1, 0u16) // k
            .label("k_loop")
            .mark(0)
            .mov(R4, 0u16) // re
            .mov(R5, 0u16) // im
            .mov(R2, 0u16) // n index
            .mov(R3, 0u16) // table idx
            .label("n_loop")
            // R8 = x[n]
            .mov(R6, R2)
            .add(R6, INPUT_BASE)
            .ld(R8, Addr::Ind(R6))
            // R7 = cos[idx]; tr = (x*c q15) >> shift; re += tr
            .mov(R6, R3)
            .add(R6, cos_base)
            .ld(R7, Addr::Ind(R6))
            .mulq15(R7, R8)
            .sar(R7, shift)
            .add(R4, R7)
            // R7 = sin[idx]; ti = (x*s q15) >> shift; im -= ti
            .mov(R6, R3)
            .add(R6, sin_base)
            .ld(R7, Addr::Ind(R6))
            .mulq15(R7, R8)
            .sar(R7, shift)
            .sub(R5, R7)
            // idx = (idx + k) & mask
            .add(R3, R1)
            .and(R3, mask)
            // next n
            .add(R2, 1u16)
            .cmp(R2, n)
            .brn("n_loop")
            // persist re[k], im[k]
            .mov(R6, R1)
            .add(R6, re_base)
            .st(R4, Addr::Ind(R6))
            .mov(R6, R1)
            .add(R6, im_base)
            .st(R5, Addr::Ind(R6))
            // next k
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("k_loop")
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "spectrum")
    }

    fn cycles_hint(&self) -> u64 {
        // ~48 cycles per inner term.
        self.n as u64 * self.n as u64 * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_matches_golden_bit_exactly() {
        for n in [8u16, 16, 64] {
            let wl = Fourier::new(n);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed, "n={n}");
            wl.verify(&mcu).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn spectrum_finds_the_tones() {
        let n = 64usize;
        let wl = Fourier::new(n as u16);
        let golden = wl.golden();
        let tone1 = Fourier::bin_energy(&golden, n, 1);
        let tone2 = Fourier::bin_energy(&golden, n, n / 8);
        // A quiet bin between the tones.
        let quiet = Fourier::bin_energy(&golden, n, 3);
        assert!(tone1 > 10.0 * quiet, "bin1 {tone1} vs quiet {quiet}");
        assert!(
            tone2 > 10.0 * quiet,
            "bin{} {tone2} vs quiet {quiet}",
            n / 8
        );
    }

    #[test]
    fn golden_dc_bin_positive() {
        let wl = Fourier::new(32);
        let golden = wl.golden();
        // DC offset 0.05 → re[0] > 0.
        assert!((golden[0] as i16) > 0);
    }

    #[test]
    fn cycles_hint_within_factor_two() {
        let wl = Fourier::new(16);
        let mut mcu = Mcu::new(wl.program());
        let r = mcu.run(u64::MAX, false);
        let ratio = r.cycles as f64 / wl.cycles_hint() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "ratio {ratio}, measured {}",
            r.cycles
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = Fourier::new(100);
    }
}
