//! The end-to-end SparkXD pipeline (paper Fig. 7 / Fig. 10 tool flow).
//!
//! Inputs: an SNN configuration, a dataset, a reduced DRAM supply voltage
//! and an accuracy target. Outputs: the improved (fault-aware-trained)
//! model, its maximum tolerable BER, the error-aware DRAM mapping, and the
//! energy/throughput comparison against the accurate-DRAM baseline.

use crate::corrupt::{self, Errors, Scratch};
use crate::energy_eval::{EnergyComparison, EnergyEvaluation};
use crate::mapping::{BaselineMapping, Mapping, MappingPolicy, SparkXdMapping};
use crate::trace_gen::columns_for_network;
use crate::training::{FaultAwareTrainer, TrainingConfig};
use crate::CoreError;
use sparkxd_circuit::Volt;
use sparkxd_data::{Dataset, SynthDigits, SynthFashion, SyntheticSource};
use sparkxd_dram::DramConfig;
use sparkxd_error::{BerCurve, Injector, WeakCellMap};
use sparkxd_snn::{DiehlCookNetwork, SnnConfig, WeightPrecision};

/// Which synthetic dataset to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DatasetKind {
    /// MNIST substitute.
    #[default]
    Digits,
    /// Fashion-MNIST substitute (harder).
    Fashion,
}

impl DatasetKind {
    /// Generates `n` samples with this kind's generator.
    pub fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::Digits => SynthDigits.generate(n, seed),
            DatasetKind::Fashion => SynthFashion.generate(n, seed),
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Digits => "digits",
            DatasetKind::Fashion => "fashion",
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Dataset to train/evaluate on.
    pub dataset: DatasetKind,
    /// Excitatory neuron count.
    pub neurons: usize,
    /// Presentation window per sample (timesteps at 1 ms).
    pub timesteps: usize,
    /// Training-set size.
    pub train_samples: usize,
    /// Test-set size.
    pub test_samples: usize,
    /// Error-free training epochs for the baseline model (`model0`).
    pub baseline_epochs: usize,
    /// Algorithm 1 configuration.
    pub training: TrainingConfig,
    /// Reduced DRAM supply voltage to operate at.
    pub v_supply: Volt,
    /// BER-vs-voltage curve of the device family.
    pub ber_curve: BerCurve,
    /// Seed identifying the physical device instance (weak-cell map).
    pub device_seed: u64,
    /// Seed for dataset generation.
    pub data_seed: u64,
    /// Storage precision of the DRAM weight image. FP32 streams the raw
    /// image; int8/int16 map, trace and inject a packed quantised image
    /// (4×/2× fewer columns) and dequantise at plane-build time.
    pub precision: WeightPrecision,
}

impl PipelineConfig {
    /// A configuration small enough for demos and integration tests
    /// (≈ seconds of CPU), exercising every pipeline stage.
    pub fn small_demo(seed: u64) -> Self {
        Self {
            dataset: DatasetKind::Digits,
            neurons: 40,
            timesteps: 40,
            train_samples: 120,
            test_samples: 60,
            baseline_epochs: 2,
            training: TrainingConfig {
                ber_schedule: vec![1e-5, 1e-3],
                epochs_per_rate: 1,
                ..TrainingConfig::paper_default()
            },
            v_supply: Volt(1.025),
            ber_curve: BerCurve::paper_default(),
            device_seed: seed,
            data_seed: seed ^ 0xDA7A,
            precision: WeightPrecision::Fp32,
        }
    }

    /// A paper-style configuration for `neurons` (N400…N3600), scaled to
    /// CPU budgets: 600 train / 200 test samples, 3 baseline epochs and the
    /// full decade BER schedule.
    pub fn paper_network(neurons: usize, dataset: DatasetKind, seed: u64) -> Self {
        Self {
            dataset,
            neurons,
            timesteps: 100,
            train_samples: 600,
            test_samples: 200,
            baseline_epochs: 3,
            training: TrainingConfig::paper_default(),
            v_supply: Volt(1.025),
            ber_curve: BerCurve::paper_default(),
            device_seed: seed,
            data_seed: seed ^ 0xDA7A,
            precision: WeightPrecision::Fp32,
        }
    }

    /// Selects the DRAM storage precision of the weight image.
    pub fn with_precision(mut self, precision: WeightPrecision) -> Self {
        self.precision = precision;
        self
    }
}

/// Summary of the DRAM mapping chosen for the improved model.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingSummary {
    /// Policy name.
    pub policy: &'static str,
    /// Columns mapped.
    pub columns: usize,
    /// Distinct subarrays used.
    pub subarrays_used: usize,
    /// Fraction of the device's subarrays that met the BER threshold.
    pub safe_fraction: f64,
    /// Bits per stored weight word (32 for FP32, 8/16 for packed images).
    pub word_bits: u32,
}

/// Everything the pipeline produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Error-free accuracy of the baseline model.
    pub baseline_accuracy: f64,
    /// Error-free accuracy of the improved model.
    pub improved_clean_accuracy: f64,
    /// Accuracy of the improved model with errors injected through the
    /// actual mapping at the operating voltage's per-subarray rates.
    pub accuracy_at_operating_point: f64,
    /// Maximum tolerable BER found by Algorithm 1 (`BER_th`).
    pub max_tolerable_ber: f64,
    /// Whether `BER_th` met the accuracy bound (false = fell back to the
    /// smallest scheduled rate).
    pub target_met: bool,
    /// Actual operating voltage (the requested voltage, raised if its
    /// error rate exceeded the model's tolerance).
    pub operating_voltage: Volt,
    /// Device-level BER at the operating voltage.
    pub operating_ber: f64,
    /// Accuracy-vs-BER curve gathered during Algorithm 1.
    pub tolerance_curve: Vec<(f64, f64)>,
    /// Energy/throughput comparison vs the accurate baseline.
    pub energy: EnergyComparison,
    /// Mapping summary.
    pub mapping: MappingSummary,
}

/// Orchestrates the full SparkXD flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkXdPipeline {
    config: PipelineConfig,
}

impl SparkXdPipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs every stage and returns the combined outcome.
    ///
    /// The flow is a fixed sequence of named stages, each feeding the
    /// parallel execution engine where its work is sample-parallel:
    ///
    /// 1. `stage_data` — dataset generation;
    /// 2. `stage_baseline_model` — error-free
    ///    training of `model0` (sequential STDP);
    /// 3. `stage_fault_aware_training`
    ///    — Algorithm 1 (evaluations sample-parallel);
    /// 4. `stage_operating_point` — device
    ///    error profile at the (possibly raised) operating voltage;
    /// 5. `stage_mapping` — baseline vs SparkXD
    ///    DRAM mappings;
    /// 6. `stage_operating_accuracy` —
    ///    mapped-error injection + parallel evaluation;
    /// 7. `stage_energy` — energy/throughput
    ///    comparison.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inject`] with `InvalidBer` if a scheduled rate is
    /// outside `[0, 0.5]` (NaN included), before any stage runs;
    /// [`CoreError::InsufficientSafeCapacity`] if the device's safe
    /// subarrays cannot hold the model at the operating voltage, and any
    /// error propagated from the substrates.
    pub fn run(&self) -> Result<PipelineOutcome, CoreError> {
        FaultAwareTrainer::check_schedule(&self.config.training)?;
        // Observation-only spans: one per named stage, so a `spans`-mode
        // run shows where pipeline wall time goes. Durations never feed
        // back into any stage decision (the bit-identity contract).
        let data = {
            let _span = sparkxd_telemetry::span!("pipeline.data");
            self.stage_data()
        };
        let mut net = {
            let _span = sparkxd_telemetry::span!("pipeline.baseline_model");
            self.stage_baseline_model(&data)
        };
        let tolerance = {
            let _span = sparkxd_telemetry::span!("pipeline.fault_aware_training");
            self.stage_fault_aware_training(&mut net, &data)?
        };
        let op = {
            let _span = sparkxd_telemetry::span!("pipeline.operating_point");
            self.stage_operating_point(tolerance.ber_th)?
        };
        let maps = {
            let _span = sparkxd_telemetry::span!("pipeline.mapping");
            self.stage_mapping(&data.snn_config, &op, tolerance.ber_th)?
        };
        let accuracy_at_operating_point = {
            let _span = sparkxd_telemetry::span!("pipeline.operating_accuracy");
            self.stage_operating_accuracy(&mut net, &tolerance, &data, &op, &maps)?
        };
        let energy = {
            let _span = sparkxd_telemetry::span!("pipeline.energy");
            self.stage_energy(&op, &maps)
        };

        let mapping = MappingSummary {
            policy: maps.spark_mapping.policy(),
            columns: maps.spark_mapping.len(),
            subarrays_used: maps.spark_mapping.subarrays_used().len(),
            safe_fraction: op.profile.safe_fraction(tolerance.ber_th),
            word_bits: maps.spark_mapping.precision().word_bits(),
        };

        Ok(PipelineOutcome {
            baseline_accuracy: tolerance.outcome.baseline_accuracy,
            improved_clean_accuracy: tolerance.outcome.improved_clean_accuracy,
            accuracy_at_operating_point,
            max_tolerable_ber: tolerance.ber_th,
            target_met: tolerance.target_met,
            operating_voltage: op.v_op,
            operating_ber: op.operating_ber,
            tolerance_curve: tolerance.outcome.curve,
            energy,
            mapping,
        })
    }

    /// Stage 1: train/test dataset generation and the SNN configuration.
    fn stage_data(&self) -> DataStage {
        let cfg = &self.config;
        DataStage {
            train: cfg.dataset.generate(cfg.train_samples, cfg.data_seed),
            test: cfg
                .dataset
                .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57),
            snn_config: SnnConfig::for_neurons(cfg.neurons)
                .with_timesteps(cfg.timesteps)
                .with_weight_seed(cfg.device_seed ^ 0x11),
        }
    }

    /// Stage 2: error-free training of the baseline model (`model0`).
    fn stage_baseline_model(&self, data: &DataStage) -> DiehlCookNetwork {
        let cfg = &self.config;
        let mut net = DiehlCookNetwork::new(data.snn_config.clone());
        for epoch in 0..cfg.baseline_epochs {
            net.train_epoch(&data.train, cfg.training.spike_seed ^ (epoch as u64));
        }
        net
    }

    /// Stage 3: fault-aware training + tolerance analysis (Algorithm 1);
    /// `net` holds the improved model on return.
    fn stage_fault_aware_training(
        &self,
        net: &mut DiehlCookNetwork,
        data: &DataStage,
    ) -> Result<ToleranceStage, CoreError> {
        let cfg = &self.config;
        let trainer = FaultAwareTrainer::new(cfg.training.clone());
        let outcome = trainer.improve(net, &data.train, &data.test)?;
        let (ber_th, target_met) = match outcome.max_tolerable_ber {
            Some(b) => (b, true),
            None => (
                cfg.training
                    .ber_schedule
                    .first()
                    .copied()
                    .ok_or(CoreError::NoToleratedBer)?,
                false,
            ),
        };
        Ok(ToleranceStage {
            outcome,
            ber_th,
            target_met,
        })
    }

    /// Stage 4: device error profile at the operating voltage. If the
    /// requested voltage is more error-prone than the model tolerates (its
    /// median subarray would exceed `BER_th`), the operating voltage is
    /// raised to the lowest one whose device-level BER fits — the
    /// framework's deployment rule: energy is minimised subject to the
    /// accuracy constraint.
    fn stage_operating_point(&self, ber_th: f64) -> Result<OperatingPointStage, CoreError> {
        let cfg = &self.config;
        let mut v_op = cfg.v_supply;
        let mut operating_ber = cfg.ber_curve.ber_at(v_op);
        if operating_ber > ber_th {
            v_op = cfg.ber_curve.voltage_for_ber(ber_th);
            operating_ber = cfg.ber_curve.ber_at(v_op);
        }
        let approx_config = DramConfig::approximate(v_op)?;
        let weak_cells = WeakCellMap::generate(&approx_config.geometry, cfg.device_seed);
        let profile = weak_cells.profile(operating_ber);
        Ok(OperatingPointStage {
            v_op,
            operating_ber,
            approx_config,
            profile,
        })
    }

    /// Stage 5: baseline (accurate DRAM) vs SparkXD (approximate) mappings.
    fn stage_mapping(
        &self,
        snn_config: &SnnConfig,
        op: &OperatingPointStage,
        ber_th: f64,
    ) -> Result<MappingStage, CoreError> {
        let precision = self.config.precision;
        let geometry = op.approx_config.geometry;
        let n_columns = columns_for_network(snn_config, geometry.col_bytes, precision);
        let baseline_config = DramConfig::lpddr3_1600_4gb();
        // The reference system stays the paper's accurate-DRAM FP32
        // baseline, so a quantised run's energy comparison captures the
        // combined voltage × traffic effect.
        let baseline_columns = columns_for_network(
            snn_config,
            baseline_config.geometry.col_bytes,
            WeightPrecision::Fp32,
        );
        let baseline_mapping = BaselineMapping.map(
            baseline_columns,
            &baseline_config.geometry,
            &op.profile,
            f64::MAX,
        )?;
        let spark_mapping = SparkXdMapping
            .map(n_columns, &geometry, &op.profile, ber_th)?
            .with_precision(precision);
        Ok(MappingStage {
            baseline_config,
            baseline_mapping,
            spark_mapping,
        })
    }

    /// Stage 6: accuracy at the operating point — inject once through the
    /// actual mapping and per-subarray rates into the DRAM image at the
    /// configured precision, then evaluate in parallel. Weights are
    /// restored afterwards.
    fn stage_operating_accuracy(
        &self,
        net: &mut DiehlCookNetwork,
        tolerance: &ToleranceStage,
        data: &DataStage,
        op: &OperatingPointStage,
        maps: &MappingStage,
    ) -> Result<f64, CoreError> {
        let cfg = &self.config;
        let placements = maps.spark_mapping.placements(net.weights().len());
        let mut scratch = Scratch::for_net(net);
        corrupt::mean_accuracy(
            net,
            cfg.precision,
            &mut scratch,
            Injector::new(cfg.training.error_model, cfg.device_seed ^ 0x0B5E),
            Errors::Placed(&placements, &op.profile),
            1,
            |net, _| {
                let labeler = &tolerance.outcome.labeler;
                net.evaluate(&data.test, labeler, cfg.training.spike_seed ^ 0x0ACC)
            },
        )
    }

    /// Stage 7: energy/throughput comparison against the accurate
    /// baseline.
    fn stage_energy(&self, op: &OperatingPointStage, maps: &MappingStage) -> EnergyComparison {
        EnergyComparison {
            baseline: EnergyEvaluation::evaluate(&maps.baseline_config, &maps.baseline_mapping),
            improved: EnergyEvaluation::evaluate(&op.approx_config, &maps.spark_mapping),
        }
    }
}

/// Stage 1 product: datasets and the network shape they are presented to.
struct DataStage {
    train: Dataset,
    test: Dataset,
    snn_config: SnnConfig,
}

/// Stage 3 product: Algorithm 1's outcome plus the resolved `BER_th`.
struct ToleranceStage {
    outcome: crate::training::FaultAwareOutcome,
    ber_th: f64,
    target_met: bool,
}

/// Stage 4 product: the deployment operating point of this device.
struct OperatingPointStage {
    v_op: Volt,
    operating_ber: f64,
    approx_config: DramConfig,
    profile: sparkxd_error::ErrorProfile,
}

/// Stage 5 product: both DRAM mappings and the baseline device config.
struct MappingStage {
    baseline_config: DramConfig,
    baseline_mapping: Mapping,
    spark_mapping: Mapping,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_demo_pipeline_runs_end_to_end() {
        let outcome = SparkXdPipeline::new(PipelineConfig::small_demo(7))
            .run()
            .expect("pipeline must complete");
        // Energy: the paper's ~40% saving band at 1.025 V.
        let saving = outcome.energy.saving_fraction_vs_baseline();
        assert!(
            (0.25..0.50).contains(&saving),
            "energy saving {saving} out of band"
        );
        // Throughput maintained (paper: ~1.02x).
        assert!(outcome.energy.speedup() > 0.9);
        // Tolerance curve covers the schedule.
        assert_eq!(outcome.tolerance_curve.len(), 2);
        // Mapping uses only safe subarrays and holds the whole image.
        assert_eq!(outcome.mapping.policy, "sparkxd");
        assert!(outcome.mapping.columns > 0);
        assert!(outcome.mapping.safe_fraction > 0.0);
        // Accuracies are probabilities.
        for acc in [
            outcome.baseline_accuracy,
            outcome.improved_clean_accuracy,
            outcome.accuracy_at_operating_point,
        ] {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = SparkXdPipeline::new(PipelineConfig::small_demo(3))
            .run()
            .unwrap();
        let b = SparkXdPipeline::new(PipelineConfig::small_demo(3))
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_pipeline_maps_quarter_columns_and_saves_energy() {
        let f32_outcome = SparkXdPipeline::new(PipelineConfig::small_demo(7))
            .run()
            .unwrap();
        let int8_outcome = SparkXdPipeline::new(
            PipelineConfig::small_demo(7).with_precision(WeightPrecision::Int8),
        )
        .run()
        .unwrap();
        assert_eq!(f32_outcome.mapping.word_bits, 32);
        assert_eq!(int8_outcome.mapping.word_bits, 8);
        // The packed image needs a quarter of the burst columns...
        assert_eq!(
            int8_outcome.mapping.columns * 4,
            f32_outcome.mapping.columns
        );
        // ...so streaming it costs proportionally less DRAM energy and
        // the end-to-end saving vs the FP32 baseline grows.
        assert!(
            int8_outcome.energy.improved.total_mj() < 0.5 * f32_outcome.energy.improved.total_mj()
        );
        assert!(
            int8_outcome.energy.saving_fraction_vs_baseline()
                > f32_outcome.energy.saving_fraction_vs_baseline()
        );
        // And the model still classifies: accuracy is a probability and
        // the quantised clean model matches the FP32 training outcome.
        assert!((0.0..=1.0).contains(&int8_outcome.accuracy_at_operating_point));
        assert_eq!(
            int8_outcome.improved_clean_accuracy,
            f32_outcome.improved_clean_accuracy
        );
    }

    #[test]
    fn quantized_pipeline_is_deterministic() {
        let run = || {
            SparkXdPipeline::new(
                PipelineConfig::small_demo(3).with_precision(WeightPrecision::Int16),
            )
            .run()
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dataset_kinds_generate() {
        assert_eq!(DatasetKind::Digits.generate(5, 1).len(), 5);
        assert_eq!(DatasetKind::Fashion.generate(5, 1).len(), 5);
        assert_eq!(DatasetKind::Fashion.label(), "fashion");
    }

    #[test]
    fn paper_network_config_scales() {
        let c = PipelineConfig::paper_network(400, DatasetKind::Digits, 1);
        assert_eq!(c.neurons, 400);
        assert_eq!(c.training.ber_schedule.len(), 7);
    }
}
