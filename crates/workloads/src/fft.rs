//! Radix-2 decimation-in-time FFT — the literal workload of the paper's
//! Fig. 7, with the classic in-place butterfly structure.
//!
//! Unlike [`crate::Fourier`] (the direct O(N²) transform used where long
//! runtimes are wanted), this kernel keeps its *entire* working set — both
//! the real and imaginary planes — in volatile SRAM across `log2 N`
//! mutation stages. Any checkpoint/restore defect scrambles the butterflies
//! irrecoverably, making it the sharpest correctness probe in the roster.
//!
//! Fixed-point discipline: Q15 throughout, one arithmetic right shift per
//! stage (total scaling `1/N`), wrapping adds — and the golden model
//! replicates those semantics exactly, so verification is bit-exact.

use edc_mcu::isa::{regs::*, Addr, Program, ProgramBuilder};
use edc_mcu::Mcu;

use crate::{verify_output_block, Assemble, VerifyError, Workload, INPUT_BASE, OUTPUT_BASE};

/// SRAM base of the real working plane.
const RE_BASE: u16 = 0x0100;
/// SRAM base of the imaginary working plane.
const IM_BASE: u16 = 0x0200;

/// In-place radix-2 DIT FFT of a two-tone Q15 signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixFft {
    n: u16,
}

impl RadixFft {
    /// Creates an `n`-point FFT.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `8..=256` (the SRAM planes
    /// hold 256 words each).
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

    fn log2n(&self) -> u16 {
        self.n.trailing_zeros() as u16
    }

    /// Q15 two-tone input (bins 2 and `n/4`), same family as
    /// [`crate::Fourier`]'s stimulus.
    fn input(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let x = 0.35 * (2.0 * t).sin() + 0.2 * ((n as f64 / 4.0) * t).cos();
                ((x * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn cos_table(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n / 2)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                ((t.cos() * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn sin_table(&self) -> Vec<u16> {
        let n = self.n as usize;
        (0..n / 2)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                ((t.sin() * 32767.0).round() as i16) as u16
            })
            .collect()
    }

    fn mulq15(a: u16, b: u16) -> u16 {
        (((a as i16 as i32 * b as i16 as i32) >> 15) as i16) as u16
    }

    fn sar1(v: u16) -> u16 {
        ((v as i16) >> 1) as u16
    }

    /// The golden spectrum (`re[0..n]` then `im[0..n]`), replicating the
    /// machine's fixed-point semantics exactly.
    pub fn golden(&self) -> Vec<u16> {
        let n = self.n as usize;
        let log2n = self.log2n();
        let cos = self.cos_table();
        let sin = self.sin_table();
        let mut re = self.input();
        let mut im = vec![0u16; n];

        // Bit-reversal permutation.
        for i in 0..n {
            let mut j = 0usize;
            let mut tmp = i;
            for _ in 0..log2n {
                j = (j << 1) | (tmp & 1);
                tmp >>= 1;
            }
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }

        // Butterfly stages with per-stage >>1 scaling.
        let mut len = 2usize;
        let mut tstep = n / 2;
        while len <= n {
            let half = len / 2;
            let mut base = 0usize;
            while base < n {
                for k in 0..half {
                    let tw = k * tstep;
                    let wr = cos[tw];
                    let ws = sin[tw];
                    let a = base + k;
                    let b = a + half;
                    // (re_b + j·im_b) · (wr − j·ws)
                    let tr = Self::mulq15(re[b], wr).wrapping_add(Self::mulq15(im[b], ws));
                    let ti = Self::mulq15(im[b], wr).wrapping_sub(Self::mulq15(re[b], ws));
                    // Pre-shift before combining: |a/2 ± t/2| ≤ max(|a|,|t|)
                    // cannot overflow Q15, whereas a ± t can.
                    let tr = Self::sar1(tr);
                    let ti = Self::sar1(ti);
                    let ra = Self::sar1(re[a]);
                    let ia = Self::sar1(im[a]);
                    re[b] = ra.wrapping_sub(tr);
                    im[b] = ia.wrapping_sub(ti);
                    re[a] = ra.wrapping_add(tr);
                    im[a] = ia.wrapping_add(ti);
                }
                base += len;
            }
            len <<= 1;
            tstep >>= 1;
        }

        let mut out = re;
        out.extend_from_slice(&im);
        out
    }

    /// Reference f64 DFT of the (quantised) input, scaled by `1/N` to match
    /// the fixed-point pipeline's net scaling — for tolerance checks.
    pub fn float_reference(&self) -> Vec<(f64, f64)> {
        let n = self.n as usize;
        let x: Vec<f64> = self
            .input()
            .iter()
            .map(|&w| w as i16 as f64 / 32768.0)
            .collect();
        (0..n)
            .map(|k| {
                let mut re = 0.0;
                let mut im = 0.0;
                for (i, &xi) in x.iter().enumerate() {
                    let th = std::f64::consts::TAU * (k * i) as f64 / n as f64;
                    re += xi * th.cos();
                    im -= xi * th.sin();
                }
                (re / n as f64, im / n as f64)
            })
            .collect()
    }
}

impl Workload for RadixFft {
    fn name(&self) -> &str {
        "radix2-fft"
    }

    fn program(&self) -> Program {
        let n = self.n;
        let log2n = self.log2n();
        let cos_base = INPUT_BASE + n;
        let sin_base = cos_base + n / 2;

        ProgramBuilder::new(format!("fft-{n}"))
            .data(INPUT_BASE, self.input())
            .data(cos_base, self.cos_table())
            .data(sin_base, self.sin_table())
            // ---- load input: re ← x, im ← 0 ----
            .mov(R1, 0u16)
            .label("copy")
            .mark(0)
            .mov(R3, R1)
            .add(R3, INPUT_BASE)
            .ld(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, RE_BASE)
            .st(R4, Addr::Ind(R3))
            .mov(R4, 0u16)
            .mov(R3, R1)
            .add(R3, IM_BASE)
            .st(R4, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("copy")
            // ---- bit-reversal permutation (im is all zero: swap re only) ----
            .mov(R1, 0u16) // i
            .label("brev")
            .mark(1)
            .mov(R2, 0u16) // j
            .mov(R3, R1) // tmp
            .mov(R4, log2n) // bit counter
            .label("brev_bits")
            .shl(R2, 1)
            .mov(R5, R3)
            .and(R5, 1u16)
            .or(R2, R5)
            .shr(R3, 1)
            .sub(R4, 1u16)
            .brnz("brev_bits")
            .cmp(R1, R2)
            .brge("brev_next") // only swap when i < j
            .mov(R3, R1)
            .add(R3, RE_BASE)
            .ld(R5, Addr::Ind(R3))
            .mov(R4, R2)
            .add(R4, RE_BASE)
            .ld(R6, Addr::Ind(R4))
            .st(R6, Addr::Ind(R3))
            .st(R5, Addr::Ind(R4))
            .label("brev_next")
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("brev")
            // ---- stages: R1 = len, R2 = tstep, R13 = half ----
            .mov(R1, 2u16)
            .mov(R2, n / 2)
            .label("stage")
            .mark(2)
            .mov(R13, R1)
            .shr(R13, 1) // half
            .mov(R3, 0u16) // base
            .label("base_loop")
            .mov(R4, 0u16) // k
            .label("k_loop")
            // tw = k·tstep → R5; wr → R7; ws → R8
            .mov(R5, R4)
            .mul(R5, R2)
            .mov(R6, R5)
            .add(R6, cos_base)
            .ld(R7, Addr::Ind(R6))
            .mov(R6, R5)
            .add(R6, sin_base)
            .ld(R8, Addr::Ind(R6))
            // a = base+k → R9; b = a+half → R10
            .mov(R9, R3)
            .add(R9, R4)
            .mov(R10, R9)
            .add(R10, R13)
            // re_b → R11, im_b → R12
            .mov(R6, R10)
            .add(R6, RE_BASE)
            .ld(R11, Addr::Ind(R6))
            .mov(R6, R10)
            .add(R6, IM_BASE)
            .ld(R12, Addr::Ind(R6))
            // tr = mq(re_b,wr) + mq(im_b,ws) → R5
            .mov(R5, R11)
            .mulq15(R5, R7)
            .mov(R6, R12)
            .mulq15(R6, R8)
            .add(R5, R6)
            // ti = mq(im_b,wr) − mq(re_b,ws) → R6
            .mov(R6, R12)
            .mulq15(R6, R7)
            .mov(R14, R11)
            .mulq15(R14, R8)
            .sub(R6, R14)
            // re_a → R11, im_a → R12
            .mov(R14, R9)
            .add(R14, RE_BASE)
            .ld(R11, Addr::Ind(R14))
            .mov(R14, R9)
            .add(R14, IM_BASE)
            .ld(R12, Addr::Ind(R14))
            // Pre-shift all operands (overflow-safe scaling, as the golden).
            .sar(R5, 1)
            .sar(R6, 1)
            .sar(R11, 1)
            .sar(R12, 1)
            // re[b] = re_a/2 − tr/2; re[a] = re_a/2 + tr/2
            .mov(R14, R11)
            .sub(R14, R5)
            .mov(R15, R10)
            .add(R15, RE_BASE)
            .st(R14, Addr::Ind(R15))
            .mov(R14, R11)
            .add(R14, R5)
            .mov(R15, R9)
            .add(R15, RE_BASE)
            .st(R14, Addr::Ind(R15))
            // im[b] = im_a/2 − ti/2; im[a] = im_a/2 + ti/2
            .mov(R14, R12)
            .sub(R14, R6)
            .mov(R15, R10)
            .add(R15, IM_BASE)
            .st(R14, Addr::Ind(R15))
            .mov(R14, R12)
            .add(R14, R6)
            .mov(R15, R9)
            .add(R15, IM_BASE)
            .st(R14, Addr::Ind(R15))
            // next k
            .add(R4, 1u16)
            .cmp(R4, R13)
            .brn("k_loop")
            // next base
            .add(R3, R1)
            .cmp(R3, n)
            .brn("base_loop")
            // next stage: len <<= 1, tstep >>= 1; loop while len ≤ n
            .shr(R2, 1)
            .shl(R1, 1)
            .cmp(R1, n)
            .brn("stage")
            .brz("stage")
            // ---- persist: re → OUTPUT, im → OUTPUT+n ----
            .mov(R1, 0u16)
            .label("persist")
            .mark(3)
            .mov(R3, R1)
            .add(R3, RE_BASE)
            .ld(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, OUTPUT_BASE)
            .st(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, IM_BASE)
            .ld(R4, Addr::Ind(R3))
            .mov(R3, R1)
            .add(R3, OUTPUT_BASE + n)
            .st(R4, Addr::Ind(R3))
            .add(R1, 1u16)
            .cmp(R1, n)
            .brn("persist")
            .halt()
            .assemble()
    }

    fn verify(&self, mcu: &Mcu) -> Result<(), VerifyError> {
        verify_output_block(mcu, OUTPUT_BASE, &self.golden(), "fft spectrum")
    }

    fn cycles_hint(&self) -> u64 {
        // N/2 · log2 N butterflies at ~80 cycles, plus the permutation and
        // copy passes.
        let n = self.n as u64;
        (n / 2) * self.log2n() as u64 * 80 + n * 60
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::RunExit;

    #[test]
    fn machine_matches_golden_bit_exactly() {
        for n in [8u16, 16, 64, 256] {
            let wl = RadixFft::new(n);
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed, "n={n}");
            wl.verify(&mcu).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn golden_matches_float_reference_within_quantisation() {
        let wl = RadixFft::new(64);
        let golden = wl.golden();
        let reference = wl.float_reference();
        let n = 64usize;
        for (k, &(fr, fi)) in reference.iter().enumerate() {
            let gr = golden[k] as i16 as f64 / 32768.0;
            let gi = golden[n + k] as i16 as f64 / 32768.0;
            // Q15 with per-stage truncation: allow a small absolute error.
            assert!(
                (gr - fr).abs() < 0.01 && (gi - fi).abs() < 0.01,
                "bin {k}: golden ({gr:.4},{gi:.4}) vs float ({fr:.4},{fi:.4})"
            );
        }
    }

    #[test]
    fn spectrum_peaks_at_the_tones() {
        let n = 64usize;
        let wl = RadixFft::new(n as u16);
        let g = wl.golden();
        let mag2 = |k: usize| {
            let re = g[k] as i16 as f64;
            let im = g[n + k] as i16 as f64;
            re * re + im * im
        };
        // Tones at bins 2 and n/4 = 16.
        let quiet: f64 = [5usize, 9, 23, 29].iter().map(|&k| mag2(k)).sum::<f64>() / 4.0;
        assert!(mag2(2) > 20.0 * quiet.max(1.0), "bin 2 energy {}", mag2(2));
        assert!(
            mag2(16) > 20.0 * quiet.max(1.0),
            "bin 16 energy {}",
            mag2(16)
        );
    }

    #[test]
    fn agrees_with_direct_fourier_on_tone_locations() {
        // Different scaling pipelines, same physics: both transforms must
        // put their energy in the same bins.
        let n = 64usize;
        let fft = RadixFft::new(n as u16).golden();
        let mag2 = |g: &[u16], k: usize| {
            let re = g[k] as i16 as f64;
            let im = g[n + k] as i16 as f64;
            re * re + im * im
        };
        let top_fft = (1..n / 2)
            .max_by(|&a, &b| mag2(&fft, a).total_cmp(&mag2(&fft, b)))
            .unwrap();
        assert!(top_fft == 2 || top_fft == 16, "fft peak at bin {top_fft}");
    }

    #[test]
    fn survives_aggressive_interruption() {
        let wl = RadixFft::new(32);
        let mut mcu = Mcu::new(wl.program());
        let mut budget = 71u64;
        loop {
            match mcu.run(budget, false).exit {
                RunExit::Completed => break,
                RunExit::BudgetExhausted => {
                    assert!(mcu.take_snapshot(None).completed);
                    mcu.power_loss();
                    mcu.cold_boot();
                    mcu.restore_snapshot().unwrap();
                    budget = (budget * 7 % 331).max(67);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        wl.verify(&mcu).unwrap();
    }

    #[test]
    fn faster_than_direct_transform() {
        use crate::Fourier;
        let fft = RadixFft::new(64);
        let dft = Fourier::new(64);
        let mut m1 = Mcu::new(fft.program());
        let r1 = m1.run(u64::MAX, false);
        let mut m2 = Mcu::new(dft.program());
        let r2 = m2.run(u64::MAX, false);
        assert!(
            r1.cycles * 4 < r2.cycles,
            "radix-2 ({}) should be ≥4× faster than direct ({})",
            r1.cycles,
            r2.cycles
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = RadixFft::new(100);
    }
}
