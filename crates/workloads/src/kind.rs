//! The workload kind registry: every benchmark program as nameable,
//! copyable data.
//!
//! Experiment grids need workloads that can be cloned into each run, named
//! in tables/JSON, and enumerated — none of which `Box<dyn Workload>`
//! offers. [`WorkloadKind`] mirrors the `StrategyKind` pattern: a `Copy`
//! enum carrying the workload's size parameters, with [`WorkloadKind::ALL`],
//! [`WorkloadKind::name`] and [`WorkloadKind::make`].

use crate::{
    BusyLoop, Crc16, DotProduct, Endless, FirFilter, Fourier, InsertionSort, MatMul, PrimeSieve,
    RadixFft, RunLength, SensePipeline, Workload, MAX_INPUT_WORDS,
};

/// A benchmark program identified by kind and size — plain data, so any
/// experiment grid can carry, clone and serialise it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Calibrated busy loop of `n` outer iterations.
    BusyLoop(u16),
    /// CRC-16 over `n` input words.
    Crc16(u16),
    /// Q15 dot product of two `n`-element vectors.
    DotProduct(u16),
    /// Non-terminating forward-progress counter (throughput probes).
    Endless,
    /// `n`-tap FIR filter over `n`-word input with the given tap count.
    FirFilter {
        /// Input length in words.
        n: u16,
        /// Number of filter taps.
        taps: u16,
    },
    /// Fixed-point Fourier transform of size `n` (Fig. 7's workload).
    Fourier(u16),
    /// In-place insertion sort of `n` words.
    InsertionSort(u16),
    /// 8×8 matrix multiply.
    MatMul,
    /// Sieve of Eratosthenes up to `n`.
    PrimeSieve(u16),
    /// Radix-2 FFT of size `n`.
    RadixFft(u16),
    /// Run-length encoding of `n` input words.
    RunLength(u16),
    /// ADC sensing pipeline: `windows` windows of `samples` samples.
    SensePipeline {
        /// Number of averaging windows.
        windows: u16,
        /// Samples per window.
        samples: u16,
    },
}

impl WorkloadKind {
    /// Every terminating workload at its canonical evaluation size, in
    /// presentation order. (`Endless` is excluded: it never completes, so it
    /// only belongs in throughput sweeps that ask for it explicitly.)
    pub const ALL: [WorkloadKind; 11] = [
        WorkloadKind::BusyLoop(1000),
        WorkloadKind::Crc16(1024),
        WorkloadKind::DotProduct(64),
        WorkloadKind::FirFilter { n: 64, taps: 8 },
        WorkloadKind::Fourier(64),
        WorkloadKind::InsertionSort(64),
        WorkloadKind::MatMul,
        WorkloadKind::PrimeSieve(256),
        WorkloadKind::RadixFft(64),
        WorkloadKind::RunLength(96),
        WorkloadKind::SensePipeline {
            windows: 8,
            samples: 4,
        },
    ];

    /// Display name — identical to the instantiated workload's
    /// [`Workload::name`].
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::BusyLoop(_) => "busy-loop",
            WorkloadKind::Crc16(_) => "crc16",
            WorkloadKind::DotProduct(_) => "dot-product",
            WorkloadKind::Endless => "endless",
            WorkloadKind::FirFilter { .. } => "fir-filter",
            WorkloadKind::Fourier(_) => "fourier",
            WorkloadKind::InsertionSort(_) => "insertion-sort",
            WorkloadKind::MatMul => "matmul-8x8",
            WorkloadKind::PrimeSieve(_) => "prime-sieve",
            WorkloadKind::RadixFft(_) => "radix2-fft",
            WorkloadKind::RunLength(_) => "rle",
            WorkloadKind::SensePipeline { .. } => "sense-pipeline",
        }
    }

    /// Checks the kind's size parameters against the constructor domains,
    /// so fallible assembly layers can reject a bad kind instead of letting
    /// [`WorkloadKind::make`] hit a constructor assert.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint, phrased like the constructor panic
    /// message it prevents.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            WorkloadKind::BusyLoop(n) if !(1..=i16::MAX as u16).contains(&n) => {
                Err("busy-loop iterations must be in 1..=32767")
            }
            WorkloadKind::Crc16(n) if !(1..=MAX_INPUT_WORDS).contains(&n) => {
                Err("crc16 block length must be in 1..=14016")
            }
            WorkloadKind::DotProduct(n) if !(n.is_power_of_two() && (2..=256).contains(&n)) => {
                Err("dot-product length must be a power of two in 2..=256")
            }
            WorkloadKind::FirFilter { n, taps }
                if !(taps.is_power_of_two()
                    && (2..=32).contains(&taps)
                    && (taps + 1..=MAX_INPUT_WORDS - taps).contains(&n)) =>
            {
                Err("fir-filter needs taps a power of two in 2..=32 and taps < n ≤ 14016 − taps")
            }
            WorkloadKind::Fourier(n) if !(n.is_power_of_two() && (8..=256).contains(&n)) => {
                Err("fourier size must be a power of two in 8..=256")
            }
            WorkloadKind::InsertionSort(n) if !(2..=256).contains(&n) => {
                Err("insertion-sort length must be in 2..=256")
            }
            WorkloadKind::PrimeSieve(n) if !(3..=512).contains(&n) => {
                Err("prime-sieve bound must be in 3..=512")
            }
            WorkloadKind::RadixFft(n) if !(n.is_power_of_two() && (8..=256).contains(&n)) => {
                Err("radix2-fft size must be a power of two in 8..=256")
            }
            WorkloadKind::RunLength(n) if !(2..=MAX_INPUT_WORDS).contains(&n) => {
                Err("rle needs 2..=14016 input words")
            }
            WorkloadKind::SensePipeline { windows, samples }
                if !(windows > 0 && samples.is_power_of_two() && samples <= 64) =>
            {
                Err("sense-pipeline needs windows > 0 and samples a power of two ≤ 64")
            }
            _ => Ok(()),
        }
    }

    /// Instantiates a fresh workload of this kind — the registry replacement
    /// for the per-harness `workload_clone` string matchers.
    ///
    /// # Panics
    ///
    /// Panics when the size parameters violate the constructor domain; call
    /// [`WorkloadKind::validate`] first to get the violation as a value.
    pub fn make(self) -> Box<dyn Workload> {
        match self {
            WorkloadKind::BusyLoop(n) => Box::new(BusyLoop::new(n)),
            WorkloadKind::Crc16(n) => Box::new(Crc16::new(n)),
            WorkloadKind::DotProduct(n) => Box::new(DotProduct::new(n)),
            WorkloadKind::Endless => Box::new(Endless::new()),
            WorkloadKind::FirFilter { n, taps } => Box::new(FirFilter::new(n, taps)),
            WorkloadKind::Fourier(n) => Box::new(Fourier::new(n)),
            WorkloadKind::InsertionSort(n) => Box::new(InsertionSort::new(n)),
            WorkloadKind::MatMul => Box::new(MatMul::new()),
            WorkloadKind::PrimeSieve(n) => Box::new(PrimeSieve::new(n)),
            WorkloadKind::RadixFft(n) => Box::new(RadixFft::new(n)),
            WorkloadKind::RunLength(n) => Box::new(RunLength::new(n)),
            WorkloadKind::SensePipeline { windows, samples } => {
                Box::new(SensePipeline::new(windows, samples))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_mcu::{Mcu, RunExit};

    #[test]
    fn validate_mirrors_constructor_domains() {
        for kind in WorkloadKind::ALL {
            assert_eq!(kind.validate(), Ok(()), "{kind:?}");
        }
        let bad = [
            WorkloadKind::BusyLoop(0),
            WorkloadKind::BusyLoop(40_000),
            WorkloadKind::Crc16(0),
            WorkloadKind::DotProduct(3),
            WorkloadKind::FirFilter { n: 8, taps: 16 },
            WorkloadKind::FirFilter {
                n: MAX_INPUT_WORDS - 1,
                taps: 2,
            },
            WorkloadKind::Crc16(MAX_INPUT_WORDS + 1),
            WorkloadKind::RunLength(MAX_INPUT_WORDS + 1),
            WorkloadKind::Fourier(100),
            WorkloadKind::InsertionSort(1),
            WorkloadKind::PrimeSieve(2),
            WorkloadKind::RadixFft(4),
            WorkloadKind::RunLength(1),
            WorkloadKind::SensePipeline {
                windows: 0,
                samples: 4,
            },
        ];
        for kind in bad {
            // validate() must reject exactly what make() would panic on.
            assert!(kind.validate().is_err(), "{kind:?} should be invalid");
            assert!(
                std::panic::catch_unwind(|| kind.make()).is_err(),
                "{kind:?} make() should panic (validate rejected it)"
            );
        }
    }

    #[test]
    fn names_match_instances() {
        for kind in WorkloadKind::ALL {
            assert_eq!(kind.make().name(), kind.name(), "{kind:?}");
        }
        assert_eq!(WorkloadKind::Endless.make().name(), "endless");
    }

    #[test]
    fn make_produces_fresh_verifiable_instances() {
        // Two instances of the same kind are independent and both verify.
        let kind = WorkloadKind::Crc16(64);
        for _ in 0..2 {
            let wl = kind.make();
            let mut mcu = Mcu::new(wl.program());
            assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
            wl.verify(&mcu).expect("fresh instance verifies");
        }
    }

    #[test]
    fn all_is_deduplicated_and_terminating() {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(names.len(), unique.len(), "duplicate kinds in ALL");
        assert!(!names.contains(&"endless"));
    }
}
