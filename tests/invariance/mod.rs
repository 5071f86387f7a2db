//! The fixture, reference and checker shared by the engine invariance
//! suites (`engine_`, `batch_`, `tile_`, `intra_` and
//! `kernel_invariance.rs`).
//!
//! `BatchEvaluator`, and through it `NetworkParams::run_batch`, must
//! reproduce the reference `NetworkParams::run_sample` (one call per image
//! on RNG stream `sample_rng(seed, i)`) at every engine point: the same
//! spike counts, the same neuron labels and the same accuracy bits. Each
//! suite holds the rows of one axis of the table and draws further points
//! from the full ranges; all of them run on this one adversarial fixture.
//!
//! Every axis is pinned through the `BatchEvaluator`/`BatchState`
//! builders, never the process-global environment, so the tests run
//! concurrently (`thread_invariance.rs` owns the env-var axis).

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::snn::engine::{sample_rng, BatchEvaluator};
use sparkxd::snn::{
    BatchState, DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, NeuronLabeler,
    QuantizedImage, RunState, SnnConfig, WeightPrecision,
};
use std::sync::OnceLock;
use IntraChoice::{Off, Workers};
use KernelChoice::{Avx2, Scalar};

/// How the fixture's weights are stored and read.
#[derive(Clone, Copy, Debug)]
pub struct Storage {
    pub precision: WeightPrecision,
    pub clamp_reads: bool,
    pub hard_wta: bool,
}

pub const FP32: Storage = Storage {
    precision: WeightPrecision::Fp32,
    clamp_reads: true,
    hard_wta: false,
};
pub const INT8: Storage = Storage {
    precision: WeightPrecision::Int8,
    ..FP32
};
pub const INT16: Storage = Storage {
    precision: WeightPrecision::Int16,
    ..FP32
};
pub const UNCLAMPED: Storage = Storage {
    clamp_reads: false,
    ..FP32
};
pub const HARD_WTA: Storage = Storage {
    hard_wta: true,
    ..FP32
};
pub const UNCLAMPED_HARD_WTA: Storage = Storage {
    clamp_reads: false,
    hard_wta: true,
    ..FP32
};

const PRECISIONS: [WeightPrecision; 3] = [
    WeightPrecision::Fp32,
    WeightPrecision::Int8,
    WeightPrecision::Int16,
];

/// Neurons in the fixture: prime, so no tile width in `2..23` divides it
/// and every multi-tile sweep ends on a ragged tail; 23 % 8 = 7 is also
/// the widest SIMD tail.
pub const N: usize = 23;

/// The adversarial fixture for one storage: a network trained under that
/// storage's read rule and WTA mode, round-tripped through the storage
/// precision, then planted with defects (after the round-trip, so
/// quantisation cannot scrub them):
///
/// * two adjacent dead rows, which the row merge must skip while keeping
///   every member's cursor in step;
/// * NaN and +Inf on an interior lane and on the last lane;
/// * a negative word, a word above `w_max`, and a denormal on an 8-lane
///   boundary, for the read rule;
/// * a row of negative words: dead under `clamp_reads`, a live inhibitory
///   row without it.
pub fn fixture(storage: Storage) -> &'static (NetworkParams, Dataset) {
    static CACHE: [OnceLock<(NetworkParams, Dataset)>; 12] = [const { OnceLock::new() }; 12];
    let precision = PRECISIONS.iter().position(|&p| p == storage.precision);
    let slot = precision.unwrap() * 4
        + usize::from(storage.clamp_reads) * 2
        + usize::from(storage.hard_wta);
    CACHE[slot].get_or_init(|| {
        let mut config = SnnConfig::for_neurons(N)
            .with_timesteps(30)
            .with_clamp_reads(storage.clamp_reads);
        config.hard_wta = storage.hard_wta;
        let mut net = DiehlCookNetwork::new(config);
        net.train_epoch(&SynthDigits.generate(30, 1), 3);
        if storage.precision.is_quantized() {
            net.set_weights(QuantizedImage::roundtrip(net.weights(), storage.precision));
        }
        // Rows 404..=408 are input pixels near the image centre, which
        // spike in most samples, so every defect is streamed.
        net.with_weights_mut(|w| {
            for j in 0..N {
                w.set(404, j, 0.0);
                w.set(405, j, 0.0);
                w.set(403, j, -0.25);
            }
            w.set(406, 3, f32::NAN);
            w.set(406, N - 1, f32::INFINITY);
            w.set(408, 11, f32::INFINITY);
            w.set(408, N - 1, f32::NAN);
            w.set(407, 0, -2.0);
            w.set(407, 5, 9.0);
            w.set(407, 7, 1.5e-41);
        });
        (net.into_params(), SynthDigits.generate(23, 2))
    })
}

/// Reference spike counts: one `run_sample` per image on the portable
/// kernel.
pub fn reference_counts(params: &NetworkParams, data: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let mut state = RunState::for_params(params).with_kernel(KernelChoice::Scalar);
    (0..data.len())
        .map(|i| {
            let mut rng = sample_rng(seed, i as u64);
            params
                .run_sample(&mut state, data.get(i).0.pixels(), &mut rng)
                .unwrap()
        })
        .collect()
}

/// `run_batch` called directly, in chunks of `batch` through one reused
/// `state`.
pub fn run_batch_counts(
    params: &NetworkParams,
    data: &Dataset,
    seed: u64,
    batch: usize,
    mut state: BatchState,
) -> Vec<Vec<u32>> {
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

/// What every engine point must reproduce bit for bit. The accuracy is
/// scored under the reference labels, so it depends on the counts alone.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub counts: Vec<Vec<u32>>,
    pub labels: Vec<Option<u8>>,
    pub accuracy_bits: u64,
}

/// The reference outcome, built from `run_sample` counts alone, and its
/// labels.
pub fn reference(storage: Storage, seed: u64) -> (Outcome, NeuronLabeler) {
    let (params, data) = fixture(storage);
    let counts = reference_counts(params, data, seed);
    let mut responses = vec![[0u64; 10]; N];
    for (i, sample) in counts.iter().enumerate() {
        let label = usize::from(data.get(i).1);
        for (response, &c) in responses.iter_mut().zip(sample) {
            response[label] += u64::from(c);
        }
    }
    let labeler = NeuronLabeler::from_responses(&responses);
    let correct = (0..data.len())
        .filter(|&i| labeler.predict(&counts[i]) == Some(data.get(i).1))
        .count();
    let outcome = Outcome {
        counts,
        labels: labeler.assignments().to_vec(),
        accuracy_bits: (correct as f64 / data.len() as f64).to_bits(),
    };
    (outcome, labeler)
}

/// One engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub storage: Storage,
    pub batch: usize,
    pub threads: usize,
    pub tile: usize,
    pub kernel: KernelChoice,
    pub intra: IntraChoice,
}

/// A table row: `(storage, batch, threads, tile, kernel, intra)`.
pub const fn row(
    storage: Storage,
    batch: usize,
    threads: usize,
    tile: usize,
    kernel: KernelChoice,
    intra: IntraChoice,
) -> Point {
    Point {
        storage,
        batch,
        threads,
        tile,
        kernel,
        intra,
    }
}

/// The engine's outcome at `point`: counts, labels and accuracy, all
/// through the `BatchEvaluator` sharding stack.
pub fn engine(point: Point, seed: u64, labeler: &NeuronLabeler) -> Outcome {
    let (params, data) = fixture(point.storage);
    let eval = BatchEvaluator::with_threads(point.threads)
        .with_batch(point.batch)
        .with_tile(point.tile)
        .with_kernel(point.kernel)
        .with_intra(point.intra);
    Outcome {
        counts: eval.spike_counts(params, data, seed),
        labels: eval
            .label_neurons(params, data, seed)
            .assignments()
            .to_vec(),
        accuracy_bits: eval.evaluate(params, data, labeler, seed).to_bits(),
    }
}

pub const MAX: usize = usize::MAX;
pub const K_AUTO: KernelChoice = KernelChoice::Auto;
pub const I_AUTO: IntraChoice = IntraChoice::Auto;

/// The seed of every table row.
pub const SEED: u64 = 31;

/// Every row must match the reference at [`SEED`].
///
/// At n = 23 the tile widths give 23 single-lane tiles (1), ragged splits
/// (4, 5, 7, 9), the last lane alone in its tile (22), an exact fit (23)
/// and the clamp to one tile (24, 64, `MAX`). `Workers(k)` splits the
/// tiles into `min(k, tiles)` range-jobs, so `Workers(17)` at tile 1 puts
/// a job boundary between most lanes and `Workers(6)` at tile 7 clamps to
/// four jobs; `Off` and single-tile rows run one job on the caller. Batch
/// 1 is the former scalar branch of the evaluator; 17 leaves a ragged
/// last chunk of the 23 images.
pub fn check_rows(rows: &[Point]) {
    for &point in rows {
        let (want, labeler) = reference(point.storage, SEED);
        assert_eq!(engine(point, SEED, &labeler), want, "{point:?}");
    }
}

/// Checks one point drawn from the full axis ranges: `storage_idx` in
/// `0..12` (precision × `clamp_reads` × `hard_wta`), `kernel_idx` in
/// `0..3` and `intra_idx` in `0..6`.
pub fn check_drawn(
    storage_idx: usize,
    batch: usize,
    threads: usize,
    tile: usize,
    kernel_idx: usize,
    intra_idx: usize,
    seed: u64,
) -> TestCaseResult {
    let storage = Storage {
        precision: PRECISIONS[storage_idx / 4],
        clamp_reads: storage_idx & 2 != 0,
        hard_wta: storage_idx & 1 != 0,
    };
    let kernel = [Scalar, K_AUTO, Avx2][kernel_idx];
    let intra = [Off, I_AUTO, Workers(2), Workers(3), Workers(6), Workers(17)][intra_idx];
    let point = row(storage, batch, threads, tile, kernel, intra);
    let (want, labeler) = reference(storage, seed);
    prop_assert_eq!(engine(point, seed, &labeler), want);
    Ok(())
}

/// An untrained 17-neuron hard-WTA network and 7 images, whose reference
/// spikes.
pub fn hard_wta_fixture() -> (NetworkParams, Dataset, Vec<Vec<u32>>) {
    let mut config = SnnConfig::for_neurons(17).with_timesteps(25);
    config.hard_wta = true;
    let params = NetworkParams::new(config);
    let data = SynthDigits.generate(7, 5);
    let reference = reference_counts(&params, &data, 9);
    let total: u32 = reference.iter().flatten().sum();
    assert!(total > 0, "hard-WTA fixture must actually spike");
    (params, data, reference)
}
