//! Kernel axis of the engine invariance proof: the portable, AVX2 and
//! auto-dispatched kernels reproduce the `run_sample` reference bit for
//! bit through the whole engine, on the fixture, reference and checker in
//! `invariance/mod.rs`. Below the engine, the sweeps prove every kernel
//! entry point bit-identical to the portable kernel at every tail
//! alignment, on NaN, ±Inf, denormal and signed-zero words, and the LIF,
//! accumulate and inhibition entry points bit-identical to independent
//! per-lane references.

mod invariance;

use invariance::*;
use proptest::prelude::*;
use sparkxd::snn::kernels::LifLanes;
use sparkxd::snn::IntraChoice::{Off, Workers};
use sparkxd::snn::KernelChoice::{Avx2, Scalar};
use sparkxd::snn::{Kernel, LifConfig, PoissonEncoder, StdpConfig, StoredWeights};

/// Each kernel at one-lane, ragged, exact-fit and single tiles, on
/// batches of 2, 5 and 13. `Avx2` falls back to the portable kernel on a
/// host without AVX2.
const ROWS: [Point; 9] = [
    row(FP32, 2, 1, 1, Scalar, Off),
    row(FP32, 5, 1, 9, Scalar, Workers(2)),
    row(FP32, 13, 2, MAX, Scalar, I_AUTO),
    row(FP32, 5, 1, 1, K_AUTO, Off),
    row(FP32, 13, 1, 5, K_AUTO, Workers(3)),
    row(FP32, 2, 2, 23, K_AUTO, Off),
    row(FP32, 13, 1, 1, Avx2, Off),
    row(FP32, 2, 1, 5, Avx2, Off),
    row(FP32, 5, 2, 23, Avx2, I_AUTO),
];

#[test]
fn issue_kernel_matrix_is_bit_identical_to_scalar_reference() {
    check_rows(&ROWS);
}

/// A bank of adversarial f32 words: quiet NaN, both infinities, signed
/// zeros, denormals, large finite magnitudes and ordinary negatives.
/// Indexed cyclically so any `(len, phase)` pair lands every species on
/// every lane position of an 8-wide chunk *and* of the scalar tail.
const NASTY: [f32; 16] = [
    0.0,
    -0.0,
    1.0,
    -2.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.5e-41,  // positive denormal
    -7.0e-42, // negative denormal
    3.4e38,
    -3.4e38,
    0.015625,
    -65.0,
    1.0e-3,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
];

fn nasty_vec(len: usize, phase: usize) -> Vec<f32> {
    (0..len).map(|i| NASTY[(i + phase) % NASTY.len()]).collect()
}

/// Membrane-flavoured lane values (around rest, plus the same corrupt
/// species) for the LIF / inhibition entry points.
fn membrane_vec(len: usize, phase: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let w = NASTY[(i + phase) % NASTY.len()];
            if w.is_finite() {
                -65.0 + w.clamp(-30.0, 30.0)
            } else {
                w
            }
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: lane {i} diverged ({g:?} vs {w:?})"
        );
    }
}

/// Runs every available kernel's generic entry points against the scalar
/// kernel on identical inputs and demands bitwise agreement. `len`
/// sweeps all tail alignments; `phase` rotates which nasty word lands
/// on which lane.
fn check_kernels_agree(len: usize, phase: usize) {
    let lif = LifConfig::excitatory();
    let row = nasty_vec(len, phase);
    let drive0 = nasty_vec(len, phase.wrapping_add(5));
    for &kernel in Kernel::available() {
        if kernel == Kernel::Scalar {
            continue;
        }
        // clamp_reads effective-weight transform.
        let mut a = drive0.clone();
        let mut b = drive0.clone();
        Kernel::Scalar.accumulate_effective(&mut a, &row, 1.0);
        kernel.accumulate_effective(&mut b, &row, 1.0);
        assert_bits_eq(&b, &a, "accumulate_effective");
        // Finite-filter path.
        let mut a = drive0.clone();
        let mut b = drive0.clone();
        Kernel::Scalar.accumulate_finite(&mut a, &row);
        kernel.accumulate_finite(&mut b, &row);
        assert_bits_eq(&b, &a, "accumulate_finite");
        // Branch-free LIF lane update.
        let run = |k: Kernel| {
            let mut v = membrane_vec(len, phase);
            let mut theta: Vec<f32> = (0..len).map(|i| (i % 5) as f32 * 0.05).collect();
            let mut refrac: Vec<f32> = (0..len)
                .map(|i| if i % 3 == 0 { 2.0 } else { 0.0 })
                .collect();
            let drive = nasty_vec(len, phase.wrapping_add(9));
            let mut crossed = vec![false; len];
            let any = k.integrate_lanes(
                &lif,
                1.0,
                LifLanes {
                    v: &mut v,
                    theta: &mut theta,
                    refractory: &mut refrac,
                    drive: &drive,
                    crossed: &mut crossed,
                },
            );
            (v, theta, refrac, crossed, any)
        };
        let (va, ta, ra, ca, anya) = run(Kernel::Scalar);
        let (vb, tb, rb, cb, anyb) = run(kernel);
        assert_bits_eq(&vb, &va, "integrate_lanes v");
        assert_bits_eq(&tb, &ta, "integrate_lanes theta");
        assert_bits_eq(&rb, &ra, "integrate_lanes refractory");
        assert_eq!(cb, ca, "integrate_lanes crossed");
        assert_eq!(anyb, anya, "integrate_lanes any-crossed");
        // Inhibition sweep (floor is finite by construction).
        let mut a = membrane_vec(len, phase);
        let mut b = a.clone();
        Kernel::Scalar.inhibit_lanes(&mut a, 7.5, lif.inhibition_floor());
        kernel.inhibit_lanes(&mut b, 7.5, lif.inhibition_floor());
        assert_bits_eq(&b, &a, "inhibit_lanes");
        // Fused STDP depression + drive row pass: both the rewritten
        // weights and the drive it accumulates, with adversarial words in
        // the row, the post traces and the accumulator alike.
        let trace = nasty_vec(len, phase.wrapping_add(3));
        let (mut row_a, mut drive_a) = (row.clone(), drive0.clone());
        let (mut row_b, mut drive_b) = (row.clone(), drive0.clone());
        Kernel::Scalar.depress_accumulate(&mut row_a, &trace, 0.0012, 1.0, &mut drive_a);
        kernel.depress_accumulate(&mut row_b, &trace, 0.0012, 1.0, &mut drive_b);
        assert_bits_eq(&row_b, &row_a, "depress_accumulate weights");
        assert_bits_eq(&drive_b, &drive_a, "depress_accumulate drive");
        // Normalisation scale pass: NaN scales (dead columns) must keep
        // the stored word's bits, every other scale rewrites it.
        let scales = nasty_vec(len, phase.wrapping_add(11));
        let mut a = row.clone();
        let mut b = row.clone();
        Kernel::Scalar.rescale_effective(&mut a, &scales, 1.0);
        kernel.rescale_effective(&mut b, &scales, 1.0);
        assert_bits_eq(&b, &a, "rescale_effective");
        // Potentiation column walk over a corrupt `len × 2` store.
        let stdp = StdpConfig::standard();
        let store = nasty_vec(2 * len, phase.wrapping_add(7));
        for column in 0..2.min(store.len()) {
            let mut a = store.clone();
            let mut b = store.clone();
            Kernel::Scalar.potentiate_column(&mut a, 2, column, &trace, &stdp, 1.0);
            kernel.potentiate_column(&mut b, 2, column, &trace, &stdp, 1.0);
            assert_bits_eq(&b, &a, "potentiate_column");
        }
    }
}

/// The clean subset of [`NASTY`] at `w_max = 1.0` — the words a clean
/// store may hold (`w >= 0.0 && w <= w_max`): signed zeros, denormals,
/// `w_max` itself and in-range values — plus a few more in-range values.
const CLEAN: [f32; 10] = [
    0.0,
    -0.0,
    1.0,
    1.5e-41,
    0.015625,
    1.0e-3,
    f32::MIN_POSITIVE,
    0.5,
    0.999_999_9,
    0.3,
];

fn clean_vec(len: usize, phase: usize) -> Vec<f32> {
    (0..len).map(|i| CLEAN[(i + phase) % CLEAN.len()]).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every clean-store entry point against its generic kernel, on clean
/// weights, for every available kernel: the rewritten weights and the
/// column sums must match bit for bit. The other operands come
/// from the full nasty bank (NaN-free scales: the clean scale pass only
/// runs when no column is dead), since only the weights must be clean.
fn check_clean_kernels_match_generic(len: usize, phase: usize) {
    let row = clean_vec(len, phase);
    let acc0 = nasty_vec(len, phase.wrapping_add(5));
    let trace = nasty_vec(len, phase.wrapping_add(3));
    let scales: Vec<f32> = nasty_vec(len, phase.wrapping_add(11))
        .into_iter()
        .map(|x| if x.is_nan() { 2.0 } else { x })
        .collect();
    for &kernel in Kernel::available() {
        let what = |entry: &str| format!("{entry} {kernel:?} len={len} phase={phase}");
        // Column-sum pass.
        let mut a = acc0.clone();
        let mut b = acc0.clone();
        kernel.accumulate_effective(&mut a, &row, 1.0);
        kernel.accumulate_clean(&mut b, &row);
        assert_eq!(bits(&b), bits(&a), "{}", what("column sums"));
        // Scale pass.
        let mut a = row.clone();
        let mut b = row.clone();
        kernel.rescale_effective(&mut a, &scales, 1.0);
        kernel.rescale_clean(&mut b, &scales, 1.0);
        assert_eq!(bits(&b), bits(&a), "{}", what("rescale"));
        // Scale pass fused with the next column sums: the generic scale
        // pass, then the clean sum pass over the rescaled row (a scale of
        // +Inf can rescale a zero to NaN, which the read rule would hide).
        let mut fused = row.clone();
        let mut fused_sums = acc0.clone();
        kernel.rescale_sum_clean(&mut fused, &scales, 1.0, &mut fused_sums);
        let mut sums = acc0.clone();
        kernel.accumulate_clean(&mut sums, &a);
        assert_eq!(bits(&fused), bits(&a), "{}", what("fused rescale"));
        assert_eq!(bits(&fused_sums), bits(&sums), "{}", what("fused sums"));
        // Potentiation column walks: a `len × 3` store, every column.
        let stdp = StdpConfig::standard();
        let store = clean_vec(3 * len, phase.wrapping_add(1));
        let trace_pre: Vec<f32> = trace.iter().map(|t| t.abs().min(1.0)).collect();
        for column in 0..3.min(store.len()) {
            let mut a = store.clone();
            let mut b = store.clone();
            kernel.potentiate_column(&mut a, 3, column, &trace_pre, &stdp, 1.0);
            kernel.potentiate_column_clean(&mut b, 3, column, &trace_pre, &stdp, 1.0);
            assert_eq!(bits(&b), bits(&a), "{}", what("potentiate"));
        }
    }
}

#[test]
fn issue_every_tail_alignment_is_bit_identical_across_kernels() {
    // 0..=23 covers each residue n % 8 three times, with the nasty bank
    // rotated so NaN/Inf/denormal words visit every lane of the 8-wide
    // body and every position of the scalar tail.
    for len in 0..=23 {
        for phase in 0..NASTY.len() {
            check_kernels_agree(len, phase);
            check_clean_kernels_match_generic(len, phase);
        }
    }
}

// Both kernels compile the same portable body, so the sweeps above
// compare one source with itself. The sweeps below hold the LIF,
// accumulate and inhibition entry points of every kernel, the portable
// one included, to an independent per-lane reference: the model's own
// definition, not the kernel body's vectorisable form.

/// Calls `check(len, phase, kernel)` at every point of the tail-alignment
/// sweep, for every available kernel.
fn each_point(mut check: impl FnMut(usize, usize, Kernel)) {
    for len in 0..=23 {
        for phase in 0..NASTY.len() {
            for &kernel in Kernel::available() {
                check(len, phase, kernel);
            }
        }
    }
}

#[test]
fn inhibit_lanes_matches_f32_max_per_lane() {
    // The model's floor and other non-NaN floors that are not signed
    // zeros: negative and positive, denormal and huge.
    let model = LifConfig::excitatory().inhibition_floor();
    each_point(|len, phase, kernel| {
        for floor in [model, -7.0e-42, 1.0e-3, 2.5, -3.4e38] {
            for strength in [7.5, 0.0, -1.0e-3] {
                let mut got = nasty_vec(len, phase);
                let want: Vec<f32> = got.iter().map(|v| (v - strength).max(floor)).collect();
                kernel.inhibit_lanes(&mut got, strength, floor);
                let what = format!("inhibit_lanes {kernel:?} len={len} phase={phase} floor={floor} strength={strength}");
                assert_bits_eq(&got, &want, &what);
            }
        }
    });
}

#[test]
fn integrate_lanes_matches_the_lif_update_per_lane() {
    let lif = LifConfig::excitatory();
    each_point(|len, phase, kernel| {
        for dt_ms in [1.0, 0.5] {
            let v0 = membrane_vec(len, phase);
            let theta0 = nasty_vec(len, phase + 1);
            // Refractory times: positive, zero, signed-zero, denormal and
            // non-finite lanes.
            let refractory0 = nasty_vec(len, phase + 2);
            let drive = nasty_vec(len, phase + 9);
            // The LIF update written out per lane, branch by branch.
            let mut want = (v0.clone(), theta0.clone(), refractory0.clone());
            let mut want_crossed = vec![false; len];
            for j in 0..len {
                let (v, theta, refractory) = (&mut want.0[j], &mut want.1[j], &mut want.2[j]);
                *theta -= *theta * dt_ms / lif.tau_theta;
                if *refractory > 0.0 {
                    *refractory -= dt_ms;
                    *v = lif.v_reset;
                } else {
                    *v += (lif.v_rest - *v) * dt_ms / lif.tau_membrane;
                    *v += drive[j];
                    want_crossed[j] = *v >= lif.v_thresh + *theta;
                }
            }
            let (mut v, mut theta, mut refractory) = (v0, theta0, refractory0);
            let mut crossed = vec![true; len];
            let any = kernel.integrate_lanes(
                &lif,
                dt_ms,
                LifLanes {
                    v: &mut v,
                    theta: &mut theta,
                    refractory: &mut refractory,
                    drive: &drive,
                    crossed: &mut crossed,
                },
            );
            let what = format!("integrate_lanes {kernel:?} len={len} phase={phase} dt={dt_ms}");
            assert_bits_eq(&v, &want.0, &format!("{what} v"));
            assert_bits_eq(&theta, &want.1, &format!("{what} theta"));
            assert_bits_eq(&refractory, &want.2, &format!("{what} refractory"));
            assert_eq!(crossed, want_crossed, "{what} crossed");
            assert_eq!(any, want_crossed.contains(&true), "{what} any-crossed");
        }
    });
}

/// Nasty accumulators, and all `-0.0` ones: adding a `+0.0` would flip
/// their sign, where skipping keeps it.
fn accumulators(len: usize, phase: usize) -> [Vec<f32>; 2] {
    [nasty_vec(len, phase + 5), vec![-0.0; len]]
}

#[test]
fn accumulate_finite_matches_a_skipping_loop() {
    each_point(|len, phase, kernel| {
        let row = nasty_vec(len, phase);
        for mut got in accumulators(len, phase) {
            let mut want = got.clone();
            for (d, &w) in want.iter_mut().zip(&row) {
                if w.is_finite() {
                    *d += w;
                }
            }
            kernel.accumulate_finite(&mut got, &row);
            let what = format!("accumulate_finite {kernel:?} len={len} phase={phase}");
            assert_bits_eq(&got, &want, &what);
        }
    });
}

#[test]
fn accumulate_effective_matches_the_read_rule_per_lane() {
    each_point(|len, phase, kernel| {
        let row = nasty_vec(len, phase);
        for w_max in [1.0, 0.015625] {
            for mut got in accumulators(len, phase) {
                let mut want = got.clone();
                for (d, &w) in want.iter_mut().zip(&row) {
                    *d += StoredWeights::effective(w, w_max);
                }
                kernel.accumulate_effective(&mut got, &row, w_max);
                let what = format!(
                    "accumulate_effective {kernel:?} len={len} phase={phase} w_max={w_max}"
                );
                assert_bits_eq(&got, &want, &what);
            }
        }
    });
}

/// The finite words of [`NASTY`]: signed zeros, denormals, ±3.4e38 (so
/// a row sum can overflow to ±Inf) and ordinary values — what an
/// effective plane may hold.
fn finite_vec(len: usize, phase: usize) -> Vec<f32> {
    let finite: Vec<f32> = NASTY.into_iter().filter(|w| w.is_finite()).collect();
    (0..len)
        .map(|i| finite[(i + phase) % finite.len()])
        .collect()
}

#[test]
fn issue_sum_rows_matches_an_ascending_scalar_loop() {
    // A 40-row matrix with a ragged stride, summed at an offset so row
    // slices start mid-row; rows ascend with gaps.
    let (n_rows, offset) = (40, 3);
    for len in 0..=23 {
        let stride = len + offset + 2;
        for phase in 0..NASTY.len() {
            let matrix = finite_vec(n_rows * stride, phase);
            for count in [0usize, 1, 2, 17] {
                let rows: Vec<usize> = (0..count).map(|i| 2 * i + phase % 3).collect();
                let mut want = vec![0.0f32; len];
                for &r in &rows {
                    for (j, w) in want.iter_mut().enumerate() {
                        *w += matrix[r * stride + offset + j];
                    }
                }
                for &kernel in Kernel::available() {
                    let mut got = vec![f32::NAN; len];
                    kernel.sum_rows(&mut got, &matrix, stride, offset, &rows);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "sum_rows {kernel:?} len={len} phase={phase} rows={count}"
                    );
                }
            }
        }
    }
}

#[test]
fn issue_lockstep_encoder_matches_serial_streams() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // Unequal plan lengths, so the lockstep prefix ends at the shortest
    // plan and the rest runs serially; thresholds at the accept edges
    // (0 never fires, 2²⁴ always does).
    const LENGTHS: [usize; 5] = [0, 1, 7, 483, 784];
    const THRESHOLDS: [u32; 5] = [1, 2, (1 << 24) - 1, 1 << 24, 0];
    let encoder = PoissonEncoder::standard();
    for streams in 1..=6 {
        for shift in 0..LENGTHS.len() {
            let plans: Vec<Vec<(u32, u32)>> = (0..streams)
                .map(|b| {
                    let len = LENGTHS[(b + shift) % LENGTHS.len()];
                    (0..len)
                        .map(|i| (i as u32, THRESHOLDS[(i + b) % THRESHOLDS.len()]))
                        .collect()
                })
                .collect();
            let seeded = || -> Vec<StdRng> {
                (0..streams)
                    .map(|b| StdRng::seed_from_u64_stream(7, (shift * 8 + b) as u64))
                    .collect()
            };
            let mut want_rngs = seeded();
            let mut want = vec![Vec::new(); streams];
            for &kernel in Kernel::available() {
                let mut rngs = seeded();
                let mut got = vec![vec![99usize; 3]; streams];
                for step in 0..3 {
                    for b in 0..streams {
                        encoder.encode_planned_step(&plans[b], &mut want_rngs[b], &mut want[b]);
                    }
                    encoder.encode_planned_chunk(kernel, &plans, &mut rngs, &mut got);
                    let what = format!("{kernel:?} streams={streams} shift={shift} step={step}");
                    assert_eq!(got, want, "{what}: spike trains");
                    let states = |r: &[StdRng]| r.iter().map(StdRng::state).collect::<Vec<_>>();
                    assert_eq!(states(&rngs), states(&want_rngs), "{what}: states");
                }
                want_rngs = seeded();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any kernel, at any point of the other axes.
    #[test]
    fn arbitrary_kernel_points_match_scalar(
        kernel_idx in 0usize..3,
        batch in 1usize..32,
        threads in 1usize..6,
        storage_idx in 0usize..12,
        tile in 1usize..40,
        intra_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        check_drawn(storage_idx, batch, threads, tile, kernel_idx, intra_idx, seed)?;
    }

    /// Any (len, phase) point: bitwise agreement of every kernel entry
    /// point, covering all tail alignments and nasty-word rotations the
    /// deterministic sweep does not enumerate.
    #[test]
    fn arbitrary_lane_counts_agree_bitwise(
        len in 0usize..64,
        phase in 0usize..256,
    ) {
        check_kernels_agree(len, phase);
        check_clean_kernels_match_generic(len, phase);
    }
}
