//! Batch axis of the engine invariance proof: every batch size at every
//! thread count reproduces the `run_sample` reference bit for bit. The
//! fixture, reference and checker are in `invariance/mod.rs`.

mod invariance;

use invariance::*;
use proptest::prelude::*;
use sparkxd::snn::IntraChoice::{Off, Workers};
use sparkxd::snn::KernelChoice::{Avx2, Scalar};

/// Batch {1, 3, 8, 17} × threads {1, 2, 5}, each row at a different tile,
/// kernel and intra split. Batch 1 is the former scalar branch of the
/// evaluator; 17 leaves a ragged last chunk of the 23 images.
const ROWS: [Point; 12] = [
    row(FP32, 1, 1, MAX, Scalar, Off),
    row(FP32, 1, 2, 7, Scalar, Workers(2)),
    row(FP32, 1, 5, 1, Avx2, Workers(17)),
    row(FP32, 3, 1, 7, K_AUTO, I_AUTO),
    row(FP32, 3, 2, 23, Scalar, Off),
    row(FP32, 3, 5, 24, Avx2, Workers(3)),
    row(FP32, 8, 1, 1, K_AUTO, Workers(6)),
    row(FP32, 8, 2, MAX, Avx2, I_AUTO),
    row(FP32, 8, 5, 7, Scalar, Workers(3)),
    row(FP32, 17, 1, 24, Scalar, Workers(2)),
    row(FP32, 17, 2, 1, K_AUTO, Workers(17)),
    row(FP32, 17, 5, 23, Avx2, Off),
];

#[test]
fn issue_batch_sizes_are_bit_identical_to_scalar() {
    check_rows(&ROWS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any batch size and thread count, at any point of the other axes.
    #[test]
    fn arbitrary_batch_and_thread_counts_match_scalar(
        batch in 1usize..32,
        threads in 1usize..6,
        storage_idx in 0usize..12,
        tile in 1usize..40,
        kernel_idx in 0usize..3,
        intra_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        check_drawn(storage_idx, batch, threads, tile, kernel_idx, intra_idx, seed)?;
    }
}
