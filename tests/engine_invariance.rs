//! Storage axis of the engine invariance proof: every packed precision
//! and every `clamp_reads` × `hard_wta` read rule reproduces the
//! reference `NetworkParams::run_sample` bit for bit through
//! `BatchEvaluator` (spike counts, labels and accuracy bits). The batch,
//! tile, intra-split and kernel axes have a suite each (`batch_`,
//! `tile_`, `intra_` and `kernel_invariance.rs`); all five run on the
//! fixture, reference and checker in `invariance/mod.rs`.

mod invariance;

use invariance::*;
use sparkxd::snn::IntraChoice::{Off, Workers};
use sparkxd::snn::KernelChoice::{Avx2, Scalar};

/// Packed storage and the `clamp_reads` × `hard_wta` read rules, each
/// at several batch, thread, tile, kernel and intra points.
const ROWS: [Point; 20] = [
    // Packed storage.
    row(INT8, 1, 1, MAX, Scalar, Off),
    row(INT8, 3, 2, 7, Avx2, Workers(3)),
    row(INT8, 8, 5, 1, K_AUTO, Workers(17)),
    row(INT8, 17, 1, 24, K_AUTO, I_AUTO),
    row(INT16, 1, 2, 1, Avx2, Workers(6)),
    row(INT16, 3, 5, 23, Scalar, I_AUTO),
    row(INT16, 8, 1, 7, K_AUTO, Off),
    row(INT16, 17, 2, MAX, Scalar, Workers(2)),
    // clamp_reads × hard_wta.
    row(UNCLAMPED, 1, 1, 7, Scalar, Off),
    row(UNCLAMPED, 3, 2, 1, Avx2, Workers(6)),
    row(UNCLAMPED, 8, 1, MAX, K_AUTO, I_AUTO),
    row(UNCLAMPED, 17, 5, 24, K_AUTO, Workers(3)),
    row(HARD_WTA, 1, 1, 1, K_AUTO, Workers(17)),
    row(HARD_WTA, 3, 2, 7, Scalar, Off),
    row(HARD_WTA, 8, 5, 23, Avx2, Workers(2)),
    row(HARD_WTA, 17, 1, MAX, K_AUTO, I_AUTO),
    row(UNCLAMPED_HARD_WTA, 1, 2, 24, Avx2, I_AUTO),
    row(UNCLAMPED_HARD_WTA, 3, 1, 1, Scalar, Workers(17)),
    row(UNCLAMPED_HARD_WTA, 8, 5, 7, K_AUTO, Workers(3)),
    row(UNCLAMPED_HARD_WTA, 17, 1, 23, Scalar, Off),
];

#[test]
fn every_storage_row_matches_the_reference() {
    check_rows(&ROWS);
}

#[test]
fn the_fixture_exercises_hard_wta_and_firing() {
    // A table that compares silent networks proves nothing.
    for storage in [FP32, UNCLAMPED, HARD_WTA, UNCLAMPED_HARD_WTA] {
        let (want, _) = reference(storage, SEED);
        let total: u32 = want.counts.iter().flatten().sum();
        assert!(total > 0, "{storage:?} must spike");
        if storage.hard_wta {
            // At most one winner per timestep.
            assert!(want.counts.iter().all(|c| c.iter().sum::<u32>() <= 30));
        }
    }
}
