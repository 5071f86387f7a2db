//! Property tests for the runtime-dispatched kernel layer: every kernel
//! in [`Kernel::available()`] must produce **bit-identical** results —
//! at the single-call level (drive accumulate, LIF lane update,
//! inhibition sweep, and training's fused depression + drive pass and
//! normalisation scale pass) and through the full `BatchEvaluator` stack — to
//! the portable scalar kernel, for any weight contents (NaN, ±Inf,
//! negatives, denormals, signed zero), any dead-row pattern, and every
//! tail alignment `n % 8 ∈ {0..7}` the 8-lane AVX2 bodies can mishandle.
//!
//! Mirrors `tile_invariance.rs`: kernel pinning goes through the
//! `BatchEvaluator::with_kernel` / `BatchState::with_kernel` APIs rather
//! than the process-global `SPARKXD_KERNEL`, so these tests can run
//! concurrently. (`thread_invariance.rs` owns the env-var axis.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::snn::engine::{sample_rng, BatchEvaluator};
use sparkxd::snn::kernels::LifLanes;
use sparkxd::snn::{
    BatchState, DiehlCookNetwork, IntraChoice, Kernel, KernelChoice, LifConfig, NetworkParams,
    QuantizedImage, RunState, SnnConfig, WeightPrecision,
};
use std::sync::OnceLock;

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

/// Runs every available kernel's seven entry points against the scalar
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
        // Fused multi-member accumulate: 3 members in a stride-`len`+3 slab.
        let stride = len + 3;
        let members = [0usize, 1, 2];
        let mut a: Vec<f32> = (0..3 * stride)
            .map(|i| NASTY[(i + phase) % NASTY.len()])
            .collect();
        let mut b = a.clone();
        Kernel::Scalar.accumulate_members(&mut a, stride, 0, &members, &row);
        kernel.accumulate_members(&mut b, stride, 0, &members, &row);
        assert_bits_eq(&b, &a, "accumulate_members");
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
        }
    }
}

/// Applies the CI storage knob: with `SPARKXD_PRECISION=int8|int16` set,
/// the trained weights are replaced by their packed-image round-trip, so
/// the whole invariance matrix runs on the quantised weight substrate
/// (the corrupt words are planted afterwards and survive untouched).
fn apply_storage_precision(net: &mut DiehlCookNetwork) {
    let precision = WeightPrecision::from_env();
    if precision.is_quantized() {
        net.set_weights(QuantizedImage::roundtrip(net.weights(), precision));
    }
}

/// A trained network at `n_neurons = 23` (prime: every multi-tile sweep
/// ends on a ragged tail, and 23 % 8 = 7 exercises the widest SIMD tail)
/// with hand-planted corruption: adjacent dead rows against the merged
/// member lists, NaN/Inf on interior and last lanes, a negative word for
/// the clamp, and a denormal for the effective-weight transform.
fn fixture() -> &'static (NetworkParams, Dataset) {
    static FIXTURE: OnceLock<(NetworkParams, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let train = SynthDigits.generate(30, 1);
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(23).with_timesteps(30));
        net.train_epoch(&train, 3);
        apply_storage_precision(&mut net);
        net.with_weights_mut(|w| {
            for j in 0..23 {
                w.set(40, j, 0.0); // dead row in the active band
                w.set(41, j, 0.0); // two adjacent dead rows
            }
            w.set(42, 3, f32::NAN);
            w.set(42, 22, f32::INFINITY); // corrupt word on the last lane
            w.set(43, 0, -2.0);
            w.set(43, 7, 1.5e-41); // denormal on an 8-lane boundary
        });
        (net.into_params(), SynthDigits.generate(13, 2))
    })
}

/// Per-sample scalar reference counts on the pinned portable kernel —
/// the unchanged `run_sample` oracle.
fn scalar_counts(params: &NetworkParams, data: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let mut state = RunState::for_params(params).with_kernel(KernelChoice::Scalar);
    (0..data.len())
        .map(|idx| {
            let mut rng = sample_rng(seed, idx as u64);
            params
                .run_sample(&mut state, data.get(idx).0.pixels(), &mut rng)
                .unwrap()
        })
        .collect()
}

/// Batched counts at one (kernel, batch, tile) point.
fn batched_counts(
    params: &NetworkParams,
    data: &Dataset,
    seed: u64,
    choice: KernelChoice,
    batch: usize,
    tile: usize,
) -> Vec<Vec<u32>> {
    let mut state = BatchState::for_params(params, batch)
        .with_tile(tile)
        .with_kernel(choice);
    let mut got = Vec::with_capacity(data.len());
    let mut start = 0;
    while start < data.len() {
        let end = (start + batch).min(data.len());
        let pixels: Vec<&[f32]> = (start..end).map(|i| data.get(i).0.pixels()).collect();
        let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
        got.extend(params.run_batch(&mut state, &pixels, &mut rngs).unwrap());
        start = end;
    }
    got
}

#[test]
fn issue_kernel_matrix_is_bit_identical_to_scalar_reference() {
    let (params, data) = fixture();
    let reference = scalar_counts(params, data, 31);
    // Auto and Avx2 resolve to whatever the host supports (Avx2 falls
    // back to scalar off-AVX2 hosts, so the matrix is portable); tile
    // widths pin the same boundary shapes as `tile_invariance.rs`.
    for choice in [KernelChoice::Scalar, KernelChoice::Auto, KernelChoice::Avx2] {
        for tile in [1usize, 5, 9, 23, usize::MAX] {
            for batch in [2usize, 5, 13] {
                assert_eq!(
                    batched_counts(params, data, 31, choice, batch, tile),
                    reference,
                    "kernel={} tile={tile} batch={batch}",
                    choice.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (len, phase) point: bitwise agreement of every kernel entry
    /// point, covering all tail alignments and nasty-word rotations the
    /// deterministic sweep does not enumerate.
    #[test]
    fn arbitrary_lane_counts_agree_bitwise(
        len in 0usize..64,
        phase in 0usize..256,
    ) {
        check_kernels_agree(len, phase);
    }

    /// Any (kernel, batch, thread, tile, intra, seed) point — driven
    /// through the full `BatchEvaluator` sharding stack — matches the
    /// pinned-scalar serial path on labels, tiers and spike counts.
    #[test]
    fn arbitrary_kernel_points_match_scalar(
        kernel_idx in 0usize..3,
        batch in 1usize..12,
        threads in 1usize..5,
        tile in 1usize..40,
        intra_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let choice = [KernelChoice::Scalar, KernelChoice::Auto, KernelChoice::Avx2][kernel_idx];
        let intra = [
            IntraChoice::Off,
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
        ][intra_idx];
        let (params, data) = fixture();
        let scalar = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .with_kernel(KernelChoice::Scalar);
        let simd = BatchEvaluator::with_threads(threads)
            .with_batch(batch)
            .with_tile(tile)
            .with_kernel(choice)
            .with_intra(intra);
        prop_assert_eq!(
            simd.spike_counts(params, data, seed),
            scalar.spike_counts(params, data, seed)
        );
        let scalar_labels = scalar.label_neurons(params, data, seed);
        let simd_labels = simd.label_neurons(params, data, seed);
        prop_assert_eq!(simd_labels.assignments(), scalar_labels.assignments());
        prop_assert_eq!(
            simd.evaluate(params, data, &scalar_labels, seed),
            scalar.evaluate(params, data, &scalar_labels, seed)
        );
    }
}
