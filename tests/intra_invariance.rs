//! Intra-chunk split axis of the engine invariance proof: the tile sweep
//! split into range-jobs on pool workers reproduces the `run_sample`
//! reference bit for bit, whatever the job count. The fixture, reference
//! and checker are in `invariance/mod.rs`.

mod invariance;

use invariance::*;
use proptest::prelude::*;
use sparkxd::snn::BatchState;
use sparkxd::snn::IntraChoice::{Off, Workers};
use sparkxd::snn::KernelChoice::{Avx2, Scalar};

/// `Workers(k)` splits the tiles into `min(k, tiles)` range-jobs:
/// `Workers(17)` at tile 1 puts a job boundary between most lanes,
/// `Workers(6)` at tile 7 clamps to four jobs, and `Off` or a single tile
/// runs one job on the caller.
const ROWS: [Point; 10] = [
    row(FP32, 3, 1, 1, Avx2, Workers(2)),
    row(FP32, 13, 1, 1, Scalar, Workers(17)),
    row(FP32, 2, 1, 5, K_AUTO, Workers(3)),
    row(FP32, 8, 1, 7, K_AUTO, Workers(6)),
    row(FP32, 8, 1, 7, Avx2, Workers(17)),
    row(FP32, 13, 1, 9, Scalar, I_AUTO),
    row(FP32, 2, 1, 23, K_AUTO, Workers(6)),
    row(FP32, 13, 2, 5, Scalar, Off),
    row(FP32, 2, 1, MAX, Avx2, Workers(3)),
    row(FP32, 13, 5, 1, K_AUTO, I_AUTO),
];

#[test]
fn issue_intra_matrix_is_bit_identical_to_scalar_reference() {
    check_rows(&ROWS);
}

#[test]
fn membrane_words_are_bit_identical_lane_by_lane() {
    // Spike counts could in principle agree while membrane trajectories
    // drift (counts quantise), so compare the accuracy at full bit
    // precision, plus labels, with chunk sharding layered on the split
    // sweep at a tile width the table does not use.
    let (want, labeler) = reference(FP32, 5);
    for intra in [I_AUTO, Workers(2), Workers(7)] {
        let point = row(FP32, 5, 2, 4, K_AUTO, intra);
        assert_eq!(engine(point, 5, &labeler), want, "{point:?}");
    }
}

#[test]
fn hard_wta_winner_is_resolved_across_worker_boundaries() {
    // With tile width 1 and several jobs over 17 single-lane tiles, the
    // candidates of one timestep span every job's range: any per-job
    // shortcut in the winner reduction, or a commit before the barrier,
    // diverges here.
    let (params, data, reference) = hard_wta_fixture();
    for intra in [Workers(2), Workers(4), Workers(17)] {
        for tile in [1usize, 2, 16] {
            let state = BatchState::for_params(&params, 4)
                .with_tile(tile)
                .with_kernel(K_AUTO)
                .with_intra(intra);
            assert_eq!(
                run_batch_counts(&params, &data, 9, 4, state),
                reference,
                "intra={intra:?} tile={tile}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any intra split, at any point of the other axes.
    #[test]
    fn arbitrary_intra_points_match_scalar(
        intra_idx in 0usize..6,
        kernel_idx in 0usize..3,
        batch in 1usize..32,
        threads in 1usize..6,
        storage_idx in 0usize..12,
        tile in 1usize..40,
        seed in 0u64..1000,
    ) {
        check_drawn(storage_idx, batch, threads, tile, kernel_idx, intra_idx, seed)?;
    }
}
