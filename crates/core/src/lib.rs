//! # sparkxd-core
//!
//! The SparkXD framework (paper Section IV): a conjoint solution for
//! resilient and energy-efficient SNN inference on approximate DRAM.
//!
//! The three mechanisms, mirroring the paper's Fig. 7 flow:
//!
//! 1. **Improving the SNN error tolerance** ([`training`], Algorithm 1):
//!    bit errors from the DRAM error model are injected into the synaptic
//!    weights during training, with the BER raised step by step, so the
//!    network learns to tolerate weight corruption.
//! 2. **Analyzing the error tolerance** ([`tolerance`]): a linear search
//!    over BER values finds the maximum tolerable BER (`BER_th`) whose
//!    accuracy still meets the user-specified target.
//! 3. **DRAM mapping for the improved SNN** ([`mapping`], Algorithm 2):
//!    weights are placed only in subarrays whose error rate ≤ `BER_th`,
//!    filling rows column-first and striping across banks to maximise
//!    row-buffer hits and exploit the multi-bank burst feature.
//!
//! [`pipeline`] wires all three together with the DRAM, energy and error
//! substrates and reports accuracy, `BER_th`, energy and throughput —
//! everything behind the paper's Figs. 8/11/12 and Table I.
//!
//! ## Example
//!
//! ```no_run
//! use sparkxd_core::pipeline::{PipelineConfig, SparkXdPipeline};
//!
//! let outcome = SparkXdPipeline::new(PipelineConfig::small_demo(42))
//!     .run()
//!     .expect("pipeline");
//! println!(
//!     "BER_th {:.1e}; DRAM energy saving {:.1}%",
//!     outcome.max_tolerable_ber,
//!     outcome.energy.saving_fraction_vs_baseline() * 100.0
//! );
//! ```

mod corrupt;
pub mod energy_eval;
pub mod mapping;
pub mod pipeline;
pub mod sweep;
pub mod tiers;
pub mod tolerance;
pub mod trace_gen;
pub mod training;

pub use energy_eval::{EnergyComparison, EnergyEvaluation};
pub use mapping::{BaselineMapping, Mapping, MappingPolicy, SafeSequentialMapping, SparkXdMapping};
pub use pipeline::{PipelineConfig, PipelineOutcome, SparkXdPipeline};
pub use sweep::{DeviceSweep, DeviceSweepReport, SweepStat};
pub use tiers::{TierBuilder, TierModel, TierSet};
pub use tolerance::{analyze_tolerance, ToleranceCurve};
pub use training::{FaultAwareOutcome, FaultAwareTrainer, TrainingConfig};

/// Errors reported by the SparkXD framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The safe subarrays cannot hold the weight image.
    InsufficientSafeCapacity {
        /// Columns required by the weight image.
        needed: usize,
        /// Columns available in safe subarrays.
        available: usize,
    },
    /// No BER in the schedule met the accuracy target.
    NoToleratedBer,
    /// A device sweep was started with no device seeds.
    EmptySweep,
    /// A voltage-tier set was requested with no supply voltages.
    EmptyTierSet,
    /// Underlying SNN error.
    Snn(sparkxd_snn::SnnError),
    /// Underlying injection error.
    Inject(sparkxd_error::InjectError),
    /// Underlying circuit-model error.
    Circuit(sparkxd_circuit::CircuitError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InsufficientSafeCapacity { needed, available } => write!(
                f,
                "safe subarrays hold {available} columns but the model needs {needed}"
            ),
            CoreError::NoToleratedBer => {
                write!(
                    f,
                    "no bit error rate in the schedule met the accuracy target"
                )
            }
            CoreError::EmptySweep => {
                write!(f, "device sweep needs at least one device seed")
            }
            CoreError::EmptyTierSet => {
                write!(f, "tier set needs at least one supply voltage")
            }
            CoreError::Snn(e) => write!(f, "snn: {e}"),
            CoreError::Inject(e) => write!(f, "injection: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<sparkxd_snn::SnnError> for CoreError {
    fn from(e: sparkxd_snn::SnnError) -> Self {
        CoreError::Snn(e)
    }
}

impl From<sparkxd_error::InjectError> for CoreError {
    fn from(e: sparkxd_error::InjectError) -> Self {
        CoreError::Inject(e)
    }
}

impl From<sparkxd_circuit::CircuitError> for CoreError {
    fn from(e: sparkxd_circuit::CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e: CoreError = sparkxd_snn::SnnError::EmptyDataset.into();
        assert!(e.to_string().contains("snn"));
        let e = CoreError::InsufficientSafeCapacity {
            needed: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
    }
}
