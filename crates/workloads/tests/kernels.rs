//! Every kernel assembles and loads at both ends of its size range.
//!
//! This backs the one documented `expect` in `edc-workloads` (the
//! `Assemble` step that ends each kernel's builder chain): for the smallest
//! and the largest size that [`WorkloadKind::validate`] accepts, the
//! kernel's `program()` must build, and `Mcu::new` must place every data
//! word where the program put it, below the snapshot area. The kernels
//! whose output block bounds their size run to completion and verify at
//! their largest accepted size.

use edc_mcu::mem::SNAPSHOT_BASE;
use edc_mcu::{Mcu, RunExit};
use edc_workloads::{WorkloadKind, MAX_INPUT_BELOW_OUTPUT, MAX_INPUT_WORDS, MAX_OUTPUT_WORDS};

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
                n: MAX_INPUT_BELOW_OUTPUT - 32,
                taps: 32,
            },
        ],
        Fourier(_) => [Fourier(8), Fourier(256)],
        InsertionSort(_) => [InsertionSort(2), InsertionSort(256)],
        MatMul => [MatMul, MatMul],
        PrimeSieve(_) => [PrimeSieve(3), PrimeSieve(512)],
        RadixFft(_) => [RadixFft(8), RadixFft(256)],
        RunLength(_) => [RunLength(2), RunLength(MAX_INPUT_BELOW_OUTPUT)],
        SensePipeline { .. } => [
            SensePipeline {
                windows: 1,
                samples: 1,
            },
            SensePipeline {
                windows: MAX_OUTPUT_WORDS - 1,
                samples: 64,
            },
        ],
    }
}

/// One step past each finite upper bound.
fn past_upper_bounds() -> [WorkloadKind; 11] {
    use WorkloadKind::*;
    [
        BusyLoop(i16::MAX as u16 + 1),
        Crc16(MAX_INPUT_WORDS + 1),
        DotProduct(512),
        FirFilter {
            n: MAX_INPUT_BELOW_OUTPUT - 31,
            taps: 32,
        },
        Fourier(512),
        InsertionSort(257),
        PrimeSieve(513),
        RadixFft(512),
        RunLength(MAX_INPUT_BELOW_OUTPUT + 1),
        SensePipeline {
            windows: MAX_OUTPUT_WORDS,
            samples: 1,
        },
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
    assert_eq!(
        MAX_INPUT_BELOW_OUTPUT, 3_840,
        "validate's messages name this size"
    );
    assert_eq!(
        MAX_OUTPUT_WORDS - 1,
        10_175,
        "validate's messages name this window count"
    );
    for kind in past_upper_bounds() {
        assert!(kind.validate().is_err(), "{kind:?} is past its range");
    }
}

#[test]
fn kernels_bounded_by_their_output_block_verify_at_their_largest_size() {
    use WorkloadKind::*;
    let largest = [
        RunLength(MAX_INPUT_BELOW_OUTPUT),
        FirFilter {
            n: MAX_INPUT_BELOW_OUTPUT - 32,
            taps: 32,
        },
        SensePipeline {
            windows: MAX_OUTPUT_WORDS - 1,
            samples: 1,
        },
    ];
    for kind in largest {
        let workload = kind.make();
        let mut mcu = Mcu::new(workload.program());
        assert_eq!(
            mcu.run(u64::MAX, false).exit,
            RunExit::Completed,
            "{kind:?}"
        );
        assert_eq!(workload.verify(&mcu), Ok(()), "{kind:?}");
    }
}
