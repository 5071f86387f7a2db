//! [`SparkXdPipeline::run`](sparkxd_core::SparkXdPipeline::run) decomposed
//! into the public calls its stages make, each one timed.
//!
//! The stage order, seeds and arguments mirror `run()` exactly, so the
//! returned [`PipelineOutcome`] must equal `run()`'s field for field; the
//! benchmark checks that on every traced run, and a unit test checks it
//! on `PipelineConfig::small_demo` so drift between the two fails fast.

use crate::Spans;
use sparkxd_core::mapping::{BaselineMapping, MappingPolicy, SparkXdMapping};
use sparkxd_core::pipeline::{MappingSummary, PipelineConfig, PipelineOutcome};
use sparkxd_core::trace_gen::columns_for_network;
use sparkxd_core::{EnergyComparison, EnergyEvaluation, FaultAwareTrainer};
use sparkxd_dram::DramConfig;
use sparkxd_error::{Injector, WeakCellMap};
use sparkxd_snn::{DiehlCookNetwork, SnnConfig, WeightPrecision};

/// Work counts of one decomposed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// Samples presented for training.
    pub train_samples: u64,
    /// Samples presented for inference (labelling and evaluation).
    pub infer_samples: u64,
    /// Bits the benchmark's own injection calls flipped.
    pub flipped_bits: u64,
}

/// Runs the pipeline stage by stage, adding each public call's wall time
/// to `spans` under its layer metric name.
///
/// # Errors
///
/// A description of the first substrate error, as `run()` would return
/// it, or of an unsupported configuration (packed precisions take a
/// different operating-accuracy path that this decomposition omits).
pub fn run_traced(
    cfg: &PipelineConfig,
    spans: &mut Spans,
) -> Result<(PipelineOutcome, FlowCounts), String> {
    if cfg.precision != WeightPrecision::Fp32 {
        return Err(format!(
            "decomposition covers fp32 only, got {:?}",
            cfg.precision
        ));
    }
    let mut counts = FlowCounts::default();
    let train_len = cfg.train_samples as u64;
    let test_len = cfg.test_samples as u64;
    let spike_seed = cfg.training.spike_seed;

    // Stage 1: data.
    let (train, test) = spans.time("data.generate_s", || {
        (
            cfg.dataset.generate(cfg.train_samples, cfg.data_seed),
            cfg.dataset
                .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57),
        )
    });
    let snn_config = SnnConfig::for_neurons(cfg.neurons)
        .with_timesteps(cfg.timesteps)
        .with_weight_seed(cfg.device_seed ^ 0x11);

    // Stage 2: baseline model.
    let mut net = spans.time("snn.new_s", || DiehlCookNetwork::new(snn_config.clone()));
    for epoch in 0..cfg.baseline_epochs {
        spans.time("snn.train_epoch_s", || {
            net.train_epoch(&train, spike_seed ^ (epoch as u64))
        });
        counts.train_samples += train_len;
    }

    // Stage 3: fault-aware training (Algorithm 1, as
    // `FaultAwareTrainer::improve` runs it).
    let trainer = FaultAwareTrainer::new(cfg.training.clone());
    let labeler0 = spans.time("snn.label_s", || {
        net.label_neurons(&train, spike_seed ^ 0xABCD)
    });
    let baseline_accuracy = spans.time("snn.evaluate_s", || {
        net.evaluate(&test, &labeler0, spike_seed ^ 0xEF01)
    });
    counts.infer_samples += train_len + test_len;
    let target = baseline_accuracy - cfg.training.accuracy_bound;
    let mut injector = Injector::new(cfg.training.error_model, cfg.training.injection_seed);
    let mut curve = Vec::with_capacity(cfg.training.ber_schedule.len());
    let mut best = None;
    for (step, &ber) in cfg.training.ber_schedule.iter().enumerate() {
        let mut inject_s = 0.0;
        let rebuild_start = std::time::Instant::now();
        let report = net.with_weights_mut(|w| {
            let t = std::time::Instant::now();
            let report = injector.inject_uniform(w.as_mut_slice(), ber);
            inject_s = t.elapsed().as_secs_f64();
            report
        });
        spans.add("error.inject_s", inject_s);
        spans.add(
            "snn.plane_rebuild_s",
            rebuild_start.elapsed().as_secs_f64() - inject_s,
        );
        counts.flipped_bits += report.flips;
        for epoch in 0..cfg.training.epochs_per_rate {
            spans.time("snn.train_epoch_s", || {
                net.train_epoch(&train, spike_seed ^ ((step * 31 + epoch) as u64))
            });
            counts.train_samples += train_len;
        }
        let labeler = spans.time("snn.label_s", || {
            net.label_neurons(&train, spike_seed ^ 0xABCD)
        });
        let trials = cfg.training.eval_trials;
        let acc = spans.time("snn.evaluate_s", || {
            trainer.accuracy_under_errors(
                &mut net,
                &labeler,
                &test,
                ber,
                trials,
                cfg.training.injection_seed ^ (step as u64) << 16,
            )
        });
        counts.infer_samples += train_len + test_len * trials.max(1) as u64;
        curve.push((ber, acc));
        if acc >= target {
            best = Some((ber, spans.time("snn.clone_s", || net.clone()), labeler));
        }
    }
    let (max_tolerable_ber, labeler) = match best {
        Some((ber, model, labeler)) => {
            net = model;
            (Some(ber), labeler)
        }
        None => {
            counts.infer_samples += train_len;
            let labeler = spans.time("snn.label_s", || {
                net.label_neurons(&train, spike_seed ^ 0xABCD)
            });
            (None, labeler)
        }
    };
    let improved_clean_accuracy = spans.time("snn.evaluate_s", || {
        net.evaluate(&test, &labeler, spike_seed ^ 0xEF01)
    });
    counts.infer_samples += test_len;
    let (ber_th, target_met) = match max_tolerable_ber {
        Some(b) => (b, true),
        None => (
            *cfg.training
                .ber_schedule
                .first()
                .ok_or("empty BER schedule")?,
            false,
        ),
    };

    // Stage 4: operating point.
    let (v_op, operating_ber, approx_config, profile) =
        spans.time("core.operating_point_s", || -> Result<_, String> {
            let mut v_op = cfg.v_supply;
            let mut operating_ber = cfg.ber_curve.ber_at(v_op);
            if operating_ber > ber_th {
                v_op = cfg.ber_curve.voltage_for_ber(ber_th);
                operating_ber = cfg.ber_curve.ber_at(v_op);
            }
            let approx_config = DramConfig::approximate(v_op).map_err(|e| e.to_string())?;
            let weak_cells = WeakCellMap::generate(&approx_config.geometry, cfg.device_seed);
            let profile = weak_cells.profile(operating_ber);
            Ok((v_op, operating_ber, approx_config, profile))
        })?;

    // Stage 5: mapping.
    let (baseline_config, baseline_mapping, spark_mapping) =
        spans.time("core.mapping_s", || -> Result<_, String> {
            let geometry = approx_config.geometry;
            let n_columns = columns_for_network(&snn_config, geometry.col_bytes, cfg.precision);
            let baseline_config = DramConfig::lpddr3_1600_4gb();
            let baseline_columns = columns_for_network(
                &snn_config,
                baseline_config.geometry.col_bytes,
                WeightPrecision::Fp32,
            );
            let baseline_mapping = BaselineMapping
                .map(
                    baseline_columns,
                    &baseline_config.geometry,
                    &profile,
                    f64::MAX,
                )
                .map_err(|e| e.to_string())?;
            let spark_mapping = SparkXdMapping
                .map(n_columns, &geometry, &profile, ber_th)
                .map_err(|e| e.to_string())?
                .with_precision(cfg.precision);
            Ok((baseline_config, baseline_mapping, spark_mapping))
        })?;

    // Stage 6: accuracy at the operating point through the mapping.
    let (mut scratch, touched, flips) = spans.time("error.inject_s", || -> Result<_, String> {
        let placements = spark_mapping.placements(net.weights().len());
        let mut injector = Injector::new(cfg.training.error_model, cfg.device_seed ^ 0x0B5E);
        let mut scratch = net.weights().clone();
        let mut touched = Vec::new();
        let report = injector
            .inject_with_placements_tracked(
                scratch.as_mut_slice(),
                &placements,
                &profile,
                &mut touched,
            )
            .map_err(|e| e.to_string())?;
        Ok((scratch, touched, report.flips))
    })?;
    counts.flipped_bits += flips;
    let rows = scratch.rows_of_words(&touched);
    spans.time("snn.plane_rebuild_s", || {
        net.swap_weights_rows(&mut scratch, &rows)
    });
    let accuracy_at_operating_point = spans.time("snn.evaluate_s", || {
        net.evaluate(&test, &labeler, spike_seed ^ 0x0ACC)
    });
    counts.infer_samples += test_len;
    spans.time("snn.plane_rebuild_s", || {
        net.swap_weights_rows(&mut scratch, &rows)
    });

    // Stage 7: energy, through the DRAM trace replay.
    let energy = spans.time("core.energy_eval_s", || EnergyComparison {
        baseline: EnergyEvaluation::evaluate(&baseline_config, &baseline_mapping),
        improved: EnergyEvaluation::evaluate(&approx_config, &spark_mapping),
    });

    let mapping = MappingSummary {
        policy: spark_mapping.policy(),
        columns: spark_mapping.len(),
        subarrays_used: spark_mapping.subarrays_used().len(),
        safe_fraction: profile.safe_fraction(ber_th),
        word_bits: spark_mapping.precision().word_bits(),
    };
    let outcome = PipelineOutcome {
        baseline_accuracy,
        improved_clean_accuracy,
        accuracy_at_operating_point,
        max_tolerable_ber: ber_th,
        target_met,
        operating_voltage: v_op,
        operating_ber,
        tolerance_curve: curve,
        energy,
        mapping,
    };
    Ok((outcome, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_core::SparkXdPipeline;

    #[test]
    fn decomposition_equals_run_on_the_demo_config() {
        for seed in [3, 42] {
            let cfg = PipelineConfig::small_demo(seed);
            let expected = SparkXdPipeline::new(cfg.clone()).run().expect("demo run");
            let mut spans = Spans::default();
            let (outcome, counts) = run_traced(&cfg, &mut spans).expect("demo decomposition");
            assert_eq!(outcome, expected, "seed {seed}");
            // small_demo: 2 baseline + 2 FAT epochs of 120 samples; label
            // 120 × 3 (+1 without a tolerated BER) and evaluate 60 × 5.
            assert_eq!(counts.train_samples, 4 * 120);
            assert!([3 * 120 + 5 * 60, 4 * 120 + 5 * 60].contains(&counts.infer_samples));
            assert!(counts.flipped_bits > 0);
            assert!(spans.get("snn.train_epoch_s") > 0.0);
            assert!(spans.get("core.energy_eval_s") > 0.0);
        }
    }

    #[test]
    fn packed_precisions_are_refused() {
        let cfg = PipelineConfig::small_demo(1).with_precision(WeightPrecision::Int8);
        assert!(run_traced(&cfg, &mut Spans::default()).is_err());
    }
}
