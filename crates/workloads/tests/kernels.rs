//! Every kernel assembles and loads at both ends of its size range.
//!
//! This backs the one documented `expect` in `edc-workloads` (the
//! `Assemble` step that ends each kernel's builder chain): for the smallest
//! and the largest size that [`WorkloadKind::validate`] accepts, the
//! kernel's `program()` must build, and `Mcu::new` must place every data
//! word where the program put it, below the snapshot area.

use edc_mcu::mem::SNAPSHOT_BASE;
use edc_mcu::Mcu;
use edc_workloads::{WorkloadKind, MAX_INPUT_WORDS};

/// The smallest and the largest accepted size of `kind`'s variant. The
/// match has no wildcard, so a new variant must say where its range ends.
fn size_bounds(kind: WorkloadKind) -> [WorkloadKind; 2] {
    use WorkloadKind::*;
    match kind {
        BusyLoop(_) => [BusyLoop(1), BusyLoop(i16::MAX as u16)],
        Crc16(_) => [Crc16(1), Crc16(MAX_INPUT_WORDS)],
        DotProduct(_) => [DotProduct(2), DotProduct(256)],
        Endless => [Endless, Endless],
        FirFilter { .. } => [
            FirFilter { n: 3, taps: 2 },
            FirFilter {
                n: MAX_INPUT_WORDS - 32,
                taps: 32,
            },
        ],
        Fourier(_) => [Fourier(8), Fourier(256)],
        InsertionSort(_) => [InsertionSort(2), InsertionSort(256)],
        MatMul => [MatMul, MatMul],
        PrimeSieve(_) => [PrimeSieve(3), PrimeSieve(512)],
        RadixFft(_) => [RadixFft(8), RadixFft(256)],
        RunLength(_) => [RunLength(2), RunLength(MAX_INPUT_WORDS)],
        SensePipeline { .. } => [
            SensePipeline {
                windows: 1,
                samples: 1,
            },
            SensePipeline {
                windows: u16::MAX,
                samples: 64,
            },
        ],
    }
}

/// One step past each finite upper bound.
fn past_upper_bounds() -> [WorkloadKind; 10] {
    use WorkloadKind::*;
    [
        BusyLoop(i16::MAX as u16 + 1),
        Crc16(MAX_INPUT_WORDS + 1),
        DotProduct(512),
        FirFilter {
            n: MAX_INPUT_WORDS - 31,
            taps: 32,
        },
        Fourier(512),
        InsertionSort(257),
        PrimeSieve(513),
        RadixFft(512),
        RunLength(MAX_INPUT_WORDS + 1),
        SensePipeline {
            windows: 1,
            samples: 128,
        },
    ]
}

#[test]
fn every_kernel_assembles_and_loads_at_both_ends_of_its_range() {
    let kinds = WorkloadKind::ALL.into_iter().chain([WorkloadKind::Endless]);
    for kind in kinds.flat_map(size_bounds) {
        assert_eq!(kind.validate(), Ok(()), "{kind:?} is inside its range");
        let program = kind.make().program();
        let mcu = Mcu::new(program.clone());
        for (addr, words) in program.data() {
            for (i, &word) in words.iter().enumerate() {
                let at = addr + i as u16;
                assert!(at < SNAPSHOT_BASE, "{kind:?} places data at {at:#06x}");
                assert_eq!(mcu.memory().peek(at), Ok(word), "{kind:?} at {at:#06x}");
            }
        }
    }
}

#[test]
fn the_ranges_end_where_validate_says() {
    assert_eq!(
        MAX_INPUT_WORDS, 14_016,
        "validate's messages name this size"
    );
    for kind in past_upper_bounds() {
        assert!(kind.validate().is_err(), "{kind:?} is past its range");
    }
}
