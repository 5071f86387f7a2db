//! Tile axis of the engine invariance proof: every tile width, from one
//! lane per tile to a single tile, reproduces the `run_sample` reference
//! bit for bit. The fixture, reference and checker are in
//! `invariance/mod.rs`.

mod invariance;

use invariance::*;
use proptest::prelude::*;
use sparkxd::snn::BatchState;
use sparkxd::snn::IntraChoice::{Off, Workers};
use sparkxd::snn::KernelChoice::{Avx2, Scalar};

/// At n = 23: 23 single-lane tiles (1), ragged splits (4, 5, 9), the last
/// lane alone in its tile (22), an exact fit (23) and the clamp to one
/// tile (24, 64, `MAX`).
const ROWS: [Point; 9] = [
    row(FP32, 3, 1, 1, Scalar, Off),
    row(FP32, 13, 3, 4, Avx2, Workers(7)),
    row(FP32, 4, 3, 5, Scalar, Workers(5)),
    row(FP32, 5, 7, 9, K_AUTO, Workers(4)),
    row(FP32, 2, 1, 22, Avx2, Workers(2)),
    row(FP32, 1, 1, 23, K_AUTO, Workers(3)),
    row(FP32, 13, 2, 24, Scalar, Off),
    row(FP32, 13, 7, 64, Scalar, I_AUTO),
    row(FP32, 5, 1, MAX, K_AUTO, Off),
];

#[test]
fn issue_tile_boundaries_are_bit_identical_to_scalar() {
    check_rows(&ROWS);
}

#[test]
fn hard_wta_winner_is_resolved_across_tile_boundaries() {
    // Hard WTA picks one global winner per timestep; with tile width 1
    // every candidate sits in its own tile, so any per-tile shortcut in
    // the winner or inhibition-strength reduction would diverge here.
    let (params, data, reference) = hard_wta_fixture();
    for tile in [1usize, 2, 16, 17] {
        let state = BatchState::for_params(&params, 4).with_tile(tile);
        assert_eq!(
            run_batch_counts(&params, &data, 9, 4, state),
            reference,
            "tile={tile}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any tile width, at any point of the other axes.
    #[test]
    fn arbitrary_tile_widths_match_scalar(
        tile in 1usize..40,
        batch in 1usize..32,
        threads in 1usize..6,
        storage_idx in 0usize..12,
        kernel_idx in 0usize..3,
        intra_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        check_drawn(storage_idx, batch, threads, tile, kernel_idx, intra_idx, seed)?;
    }
}
