//! Golden pins for STDP training: the exact bits a training epoch
//! produces. `determinism.rs` only proves same-seed ⇒ same result; these
//! pins catch any change to *what* that result is, so every training
//! speedup must reproduce the recorded weights and thresholds bit for bit.
//!
//! Each pin is a 64-bit FNV-1a hash over the `to_bits` of every stored
//! weight word (row-major) followed by every adaptive threshold, taken
//! after `train_epoch`. The configurations cover:
//!
//! * the demo network (`PipelineConfig::small_demo`'s SNN, N40 × 40 steps);
//! * a reduced N400 (400 neurons, 100 timesteps, 40 samples);
//! * that reduced N400 started from a planted-corrupt DRAM image
//!   (NaN, ±Inf, −1, 1e30, −0.0, ±denormal, > `w_max`, and one all-NaN /
//!   negative dead column) under `clamp_reads` × `hard_wta`;
//! * the same planted image without its dead column, so the first
//!   sample's normalisation scrubs every column: the first sample trains
//!   on a dirty store and every later one on a clean store;
//!
//! plus the full `PipelineOutcome` of the tiny pipeline at fp32, int8 and
//! int16, the weights and calibration accuracy of every tier of a mixed
//! int8/int16/fp32 ladder, and an int16 tolerance curve — the
//! corrupt-and-evaluate paths at every storage precision.
//!
//! The pins hold under every `SPARKXD_KERNEL` setting: kernel dispatch
//! never changes results.

use sparkxd::circuit::Volt;
use sparkxd::core::pipeline::{PipelineConfig, PipelineOutcome, SparkXdPipeline};
use sparkxd::core::tolerance::analyze_tolerance;
use sparkxd::core::TierBuilder;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::error::ErrorModel;
use sparkxd::snn::{DiehlCookNetwork, SnnConfig, WeightPrecision};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the bit patterns of the weights, then the thresholds.
fn network_hash(net: &DiehlCookNetwork) -> u64 {
    let words = net.weights().as_slice().iter().chain(net.thetas());
    words.fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// FNV-1a over the outcome's `Debug` rendering: every `f64` prints in its
/// shortest round-trip form, so any bit change in any field moves the hash.
fn outcome_hash(outcome: &PipelineOutcome) -> u64 {
    fnv1a(FNV_OFFSET, format!("{outcome:?}").as_bytes())
}

fn trained_hash(config: SnnConfig, data: &Dataset, seed: u64) -> u64 {
    let mut net = DiehlCookNetwork::new(config);
    net.train_epoch(data, seed);
    network_hash(&net)
}

fn reduced_n400() -> SnnConfig {
    SnnConfig::for_neurons(400)
        .with_timesteps(100)
        .with_weight_seed(0x400)
}

fn reduced_n400_data() -> Dataset {
    SynthDigits.generate(40, 0x5EED)
}

/// The dead column of the planted image: every word NaN or negative, so
/// its effective sum is zero and normalisation leaves it alone.
const DEAD_COLUMN: usize = 7;

/// Trains the reduced N400 from a corrupted initial image with its dead
/// column.
fn planted_hash(clamp_reads: bool, hard_wta: bool) -> u64 {
    let mut config = reduced_n400().with_clamp_reads(clamp_reads);
    config.hard_wta = hard_wta;
    planted_image_hash(config, true)
}

/// Trains `config` from the planted-corrupt initial image, with or without
/// the dead column.
fn planted_image_hash(config: SnnConfig, dead_column: bool) -> u64 {
    let mut net = DiehlCookNetwork::new(config);
    net.with_weights_mut(|w| {
        let n = w.neurons();
        let planted = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
            1.0e30,
            -0.0,
            1.5e-41,
            -7.0e-42,
            2.5,
        ];
        // Spread the species over many rows and columns (prime strides
        // so they land on both 8-lane bodies and tails of every row).
        for (k, &value) in planted.iter().cycle().take(900).enumerate() {
            let row = (k * 37 + 11) % w.inputs();
            let col = (k * 13 + 3) % n;
            if col != DEAD_COLUMN {
                w.set(row, col, value);
            }
        }
        if dead_column {
            for row in 0..w.inputs() {
                let value = if row % 2 == 0 { f32::NAN } else { -0.5 };
                w.set(row, DEAD_COLUMN, value);
            }
        }
    });
    net.train_epoch(&reduced_n400_data(), 0xC0FFEE);
    network_hash(&net)
}

#[test]
fn planted_corrupt_n400_without_dead_column_is_pinned() {
    assert_eq!(
        planted_image_hash(reduced_n400(), false),
        0x3380_3687_a162_40c1
    );
}

/// The tiny pipeline `determinism.rs` runs (seconds, not minutes).
fn tiny_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        ..PipelineConfig::small_demo(seed)
    }
}

/// The tiny pipeline's network after one baseline epoch, with its
/// calibration set.
fn tiny_trained(seed: u64) -> (PipelineConfig, DiehlCookNetwork, Dataset) {
    let cfg = tiny_config(seed);
    let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
    let test = cfg
        .dataset
        .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57);
    let snn_config = SnnConfig::for_neurons(cfg.neurons)
        .with_timesteps(cfg.timesteps)
        .with_weight_seed(cfg.device_seed ^ 0x11);
    let mut net = DiehlCookNetwork::new(snn_config);
    net.train_epoch(&train, 1);
    (cfg, net, test)
}

fn pipeline_hash(precision: WeightPrecision) -> u64 {
    let outcome = SparkXdPipeline::new(tiny_config(42).with_precision(precision))
        .run()
        .expect("tiny pipeline run");
    outcome_hash(&outcome)
}

#[test]
fn demo_network_epoch_is_pinned() {
    let demo = PipelineConfig::small_demo(42);
    let config = SnnConfig::for_neurons(demo.neurons)
        .with_timesteps(demo.timesteps)
        .with_weight_seed(demo.device_seed ^ 0x11);
    let data = demo.dataset.generate(demo.train_samples, demo.data_seed);
    assert_eq!(trained_hash(config, &data, 7), 0x9a5d_1f7a_b646_9858);
}

#[test]
fn reduced_n400_epoch_is_pinned() {
    assert_eq!(
        trained_hash(reduced_n400(), &reduced_n400_data(), 0xC0FFEE),
        0x9f7d_0fd4_f30b_455d
    );
}

/// Planted-image pins per WTA mode. `clamp_reads` cannot move them:
/// training's drive only ever reads rows that the same timestep's
/// depression has just rewritten into `[0, w_max]`, where the clamped
/// and the unclamped read rules agree — so each pair shares one value.
const PLANTED_SOFT_WTA: u64 = 0xda61_faaa_c019_4f24;
const PLANTED_HARD_WTA: u64 = 0xda93_a839_2a9f_74f7;

#[test]
fn planted_corrupt_n400_clamped_soft_wta_is_pinned() {
    assert_eq!(planted_hash(true, false), PLANTED_SOFT_WTA);
}

#[test]
fn planted_corrupt_n400_clamped_hard_wta_is_pinned() {
    assert_eq!(planted_hash(true, true), PLANTED_HARD_WTA);
}

#[test]
fn planted_corrupt_n400_unclamped_soft_wta_is_pinned() {
    assert_eq!(planted_hash(false, false), PLANTED_SOFT_WTA);
}

#[test]
fn planted_corrupt_n400_unclamped_hard_wta_is_pinned() {
    assert_eq!(planted_hash(false, true), PLANTED_HARD_WTA);
}

#[test]
fn tiny_pipeline_outcome_fp32_is_pinned() {
    assert_eq!(pipeline_hash(WeightPrecision::Fp32), 0x697b_cec7_1fe3_d6ac);
}

#[test]
fn tiny_pipeline_outcome_int8_is_pinned() {
    assert_eq!(pipeline_hash(WeightPrecision::Int8), 0x3f7f_5d30_975e_c4ea);
}

#[test]
fn tiny_pipeline_outcome_int16_is_pinned() {
    assert_eq!(pipeline_hash(WeightPrecision::Int16), 0xd7a9_14d2_cbfa_5671);
}

/// FNV-1a over every tier's corrupted weight bits, then its calibration
/// accuracy, in ladder order.
#[test]
fn mixed_precision_ladder_is_pinned() {
    let (cfg, net, _) = tiny_trained(8);
    let set = TierBuilder::new(cfg)
        .with_rungs(vec![
            (Volt(1.05), WeightPrecision::Int8),
            (Volt(1.1), WeightPrecision::Int16),
            (Volt(1.175), WeightPrecision::Fp32),
        ])
        .build_from_model(&net, 1e-4)
        .expect("mixed-precision ladder builds");
    assert_eq!(set.tiers.len(), 3, "every rung built");
    let hash = set.tiers.iter().fold(FNV_OFFSET, |h, tier| {
        let h = tier
            .params
            .weights()
            .as_slice()
            .iter()
            .fold(h, |h, w| fnv1a(h, &w.to_bits().to_le_bytes()));
        fnv1a(h, &tier.accuracy_estimate.to_bits().to_le_bytes())
    });
    assert_eq!(hash, 0xdc96_bbe5_813b_94a2);
}

/// FNV-1a over the `(ber, accuracy)` bits of an int16 tolerance curve.
#[test]
fn int16_tolerance_curve_is_pinned() {
    let (cfg, mut net, test) = tiny_trained(9);
    let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
    let labeler = net.label_neurons(&train, 6);
    let curve = analyze_tolerance(
        &mut net,
        &labeler,
        &test,
        &[1e-5, 1e-3, 1e-2, 5e-2],
        ErrorModel::Model0,
        2,
        99,
        WeightPrecision::Int16,
    );
    let hash = curve.points().iter().fold(FNV_OFFSET, |h, &(ber, acc)| {
        let h = fnv1a(h, &ber.to_bits().to_le_bytes());
        fnv1a(h, &acc.to_bits().to_le_bytes())
    });
    assert_eq!(hash, 0x086a_4041_3039_07ac);
}
