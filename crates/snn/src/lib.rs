//! # sparkxd-snn
//!
//! A clock-driven spiking neural network simulator implementing the
//! unsupervised architecture the SparkXD paper evaluates (paper Fig. 4a —
//! the Diehl & Cook style network also used by FSpiNN):
//!
//! * **Leaky Integrate-and-Fire neurons** with adaptive thresholds and
//!   refractory periods ([`neuron`]);
//! * **rate (Poisson) spike coding** of input images ([`coding`]);
//! * a fully connected input→excitatory projection with **lateral
//!   inhibition** for winner-take-all competition ([`network`]);
//! * **spike-timing-dependent plasticity (STDP)** with per-neuron weight
//!   normalisation ([`stdp`]);
//! * unsupervised **neuron labelling and vote-based classification**
//!   ([`eval`]);
//! * a **parallel batch-execution engine** sharding inference across a
//!   persistent condvar-parked [`WorkerPool`] and presenting samples in
//!   batched chunks — with an optional intra-chunk tile-parallel drive
//!   sweep (`SPARKXD_INTRA`) — per-sample RNG streams keeping results
//!   bit-identical for any worker count, batch size and sweep split
//!   ([`engine`]);
//! * **runtime-dispatched SIMD kernels** for the hot inner loops —
//!   portable scalar or x86_64 AVX2 (`SPARKXD_KERNEL`), bit-identical by
//!   construction ([`kernels`]);
//! * weight **pruning** and **fixed-point quantisation** utilities used by
//!   the paper's combined-techniques analyses ([`prune`], [`quant`]).
//!
//! Synaptic storage is split from the read path ([`synapse`]): the
//! [`StoredWeights`] DRAM image holds plain `f32`s bit-exactly, so the
//! `sparkxd-error` crate can flip the very bits that approximate DRAM
//! would corrupt, while inference consumes an [`EffectivePlane`] derived
//! once per corruption instance. When `clamp_reads` is enabled (the
//! default, modelling a bounded hardware synapse), corrupted values are
//! clamped to `[0, w_max]` at plane-build time; the paper's observation
//! that MSB flips are the damaging ones can be reproduced by disabling
//! the clamp.
//!
//! ## Example
//!
//! ```
//! use sparkxd_data::{SynthDigits, SyntheticSource};
//! use sparkxd_snn::{DiehlCookNetwork, SnnConfig};
//!
//! let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(30).with_timesteps(30));
//! let train = SynthDigits.generate(30, 1);
//! net.train_epoch(&train, 7);
//! let labeler = net.label_neurons(&train, 8);
//! let accuracy = net.evaluate(&train, &labeler, 9);
//! assert!(accuracy >= 0.0 && accuracy <= 1.0);
//! ```

pub mod coding;
pub mod engine;
pub mod eval;
mod feed;
pub mod kernels;
pub mod network;
pub mod neuron;
pub mod prune;
pub mod quant;
pub mod stdp;
pub mod synapse;

pub use coding::PoissonEncoder;
pub use engine::{BatchEvaluator, IntraChoice, WorkerPool};
pub use eval::{ClassVotes, NeuronLabeler};
pub use kernels::{Kernel, KernelChoice};
pub use network::{BatchState, DiehlCookNetwork, NetworkParams, RunState, SnnConfig};
pub use neuron::{LifConfig, LifState};
pub use prune::prune_to_connectivity;
pub use quant::{QuantizedImage, WeightPrecision};
pub use stdp::StdpConfig;
pub use synapse::{EffectivePlane, StoredWeights};

/// Errors reported by the SNN simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnnError {
    /// Input image size does not match the network input size.
    InputSizeMismatch {
        /// Pixels provided.
        provided: usize,
        /// Inputs expected.
        expected: usize,
    },
    /// A dataset was empty where samples were required.
    EmptyDataset,
}

impl std::fmt::Display for SnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnnError::InputSizeMismatch { provided, expected } => {
                write!(f, "input has {provided} pixels, network expects {expected}")
            }
            SnnError::EmptyDataset => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for SnnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SnnError::InputSizeMismatch {
            provided: 10,
            expected: 784,
        };
        assert!(e.to_string().contains("784"));
    }
}
