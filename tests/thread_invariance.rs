//! Thread-count, batch-size, tile-width and kernel invariance: the parallel
//! engine derives each sample's RNG from `(seed, sample_index)` and
//! merges order-independent aggregates, and the batched read path
//! accumulates per-sample drive in the same ascending-row order as the
//! scalar path regardless of how the neuron axis is tiled — so a
//! `PipelineOutcome` must be bit-identical whether the engine runs on
//! 1 worker or many, scalar (B = 1) or batched (any B), one drive tile
//! or many, or the machine defaults.
//!
//! The same test also runs fault-aware training (`FaultAwareTrainer::
//! improve`) on 1, 2 and 4 configured threads. With two or more, each BER
//! step's evaluation overlaps the next step's training on a pool helper;
//! with one, the steps run strictly in order. All three must agree bit
//! for bit on the outcome and on the final weights and thresholds.
//!
//! This file holds a single `#[test]` on purpose: `SPARKXD_THREADS`,
//! `SPARKXD_BATCH`, `SPARKXD_TILE`, `SPARKXD_KERNEL`, `SPARKXD_INTRA`
//! and `SPARKXD_TELEMETRY` are process-global, and cargo runs the tests
//! *within* a binary concurrently — a sibling test could otherwise
//! observe a half-way override.

use sparkxd::core::pipeline::{PipelineConfig, PipelineOutcome, SparkXdPipeline};
use sparkxd::core::{FaultAwareOutcome, FaultAwareTrainer, TrainingConfig};
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::snn::{DiehlCookNetwork, SnnConfig};

const THREADS_ENV: &str = "SPARKXD_THREADS";
const BATCH_ENV: &str = "SPARKXD_BATCH";
const TILE_ENV: &str = "SPARKXD_TILE";
const KERNEL_ENV: &str = "SPARKXD_KERNEL";
const INTRA_ENV: &str = "SPARKXD_INTRA";
const TELEMETRY_ENV: &str = "SPARKXD_TELEMETRY";

/// Trimmed below `small_demo` so the matrix of full pipeline runs stays in
/// seconds. Honours `SPARKXD_PRECISION` (the CI storage knob): with
/// `int8`/`int16` set, every run in the matrix takes the packed
/// quantised-image pipeline path, which must be just as engine-invariant
/// as the FP32 one.
fn tiny_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        ..PipelineConfig::small_demo(seed)
    }
    .with_precision(sparkxd::snn::WeightPrecision::from_env())
}

fn run_with(
    threads: Option<&str>,
    batch: Option<&str>,
    tile: Option<&str>,
    kernel: Option<&str>,
    intra: Option<&str>,
    telemetry: Option<&str>,
) -> PipelineOutcome {
    for (var, value) in [
        (THREADS_ENV, threads),
        (BATCH_ENV, batch),
        (TILE_ENV, tile),
        (KERNEL_ENV, kernel),
        (INTRA_ENV, intra),
        (TELEMETRY_ENV, telemetry),
    ] {
        match value {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
    }
    // The telemetry mode is read once per process by design; the matrix
    // needs each run to honour its own knob value.
    sparkxd::telemetry::force_mode_from_env();
    let outcome = SparkXdPipeline::new(tiny_config(42))
        .run()
        .expect("tiny pipeline run");
    for var in [
        THREADS_ENV,
        BATCH_ENV,
        TILE_ENV,
        KERNEL_ENV,
        INTRA_ENV,
        TELEMETRY_ENV,
    ] {
        std::env::remove_var(var);
    }
    outcome
}

/// Algorithm 1 on a tiny trained network under `threads` configured
/// workers: the outcome plus the `to_bits` of the final weights and
/// thresholds.
fn improve_with(threads: &str, accuracy_bound: f64) -> (FaultAwareOutcome, Vec<u32>, Vec<u32>) {
    std::env::set_var(THREADS_ENV, threads);
    let train = SynthDigits.generate(40, 1);
    let test = SynthDigits.generate(20, 2);
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(20));
    net.train_epoch(&train, 11);
    let trainer = FaultAwareTrainer::new(TrainingConfig {
        ber_schedule: vec![1e-5, 1e-4, 1e-3, 1e-2],
        accuracy_bound,
        eval_trials: 2,
        ..TrainingConfig::paper_default()
    });
    let outcome = trainer.improve(&mut net, &train, &test).expect("improve");
    std::env::remove_var(THREADS_ENV);
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (outcome, bits(net.weights().as_slice()), bits(net.thetas()))
}

#[test]
fn pipeline_outcome_is_bit_identical_across_thread_and_batch_counts() {
    // Fault-aware training: overlapped (2, 4 threads) against strictly
    // serial (1 thread). A bound of 1.0 lets the last step win (the
    // trained network itself is the result); at 0.02 the first and last
    // steps miss and the third displaces the second, so a snapshot wins.
    for bound in [0.02, 1.0] {
        let serial = improve_with("1", bound);
        for threads in ["2", "4"] {
            assert_eq!(
                serial,
                improve_with(threads, bound),
                "improve on {threads} threads (bound {bound}) diverged from serial"
            );
        }
    }

    // Scalar serial reference: 1 worker, batch size 1 (the pre-split
    // per-sample read path), default tiling, portable kernel, serial
    // sweep, telemetry off.
    let reference = run_with(
        Some("1"),
        Some("1"),
        None,
        Some("scalar"),
        Some("off"),
        Some("off"),
    );
    // Derived PartialEq compares every f64 exactly: any order-dependent
    // reduction, shared RNG stream, or scalar/batched read-path divergence
    // would show up here. Tile widths straddle the 20-neuron config:
    // single-lane tiles, a ragged 7-wide sweep, and an oversized width
    // that clamps back to one tile. The kernel axis crosses the same
    // points with the SIMD kernel pinned on (falls back to scalar on
    // non-AVX2 hosts, so the matrix stays portable) and left on auto; the
    // intra axis pins the sweep split explicitly (a `3` forces a real
    // multi-worker split regardless of host cores), on budget-sized
    // `auto`, and unset. The telemetry axis proves the observation-only
    // contract: counters-only, full spans, and unset must all leave the
    // outcome bit-identical to telemetry-off.
    for (threads, batch, tile, kernel, intra, telemetry) in [
        (
            Some("2"),
            Some("1"),
            None,
            Some("scalar"),
            Some("off"),
            Some("counters"),
        ),
        (
            Some("1"),
            Some("3"),
            Some("1"),
            Some("avx2"),
            Some("3"),
            Some("spans"),
        ),
        (
            Some("2"),
            Some("8"),
            Some("7"),
            Some("avx2"),
            Some("auto"),
            Some("off"),
        ),
        (
            Some("5"),
            Some("17"),
            Some("64"),
            Some("auto"),
            Some("2"),
            Some("spans"),
        ),
        (
            None,
            None,
            Some("1"),
            Some("avx2"),
            Some("4"),
            Some("counters"),
        ),
        (None, None, None, None, None, None),
    ] {
        let outcome = run_with(threads, batch, tile, kernel, intra, telemetry);
        assert_eq!(
            reference, outcome,
            "threads={threads:?} batch={batch:?} tile={tile:?} kernel={kernel:?} \
             intra={intra:?} telemetry={telemetry:?} diverged from scalar serial"
        );
    }
}
