//! # sparkxd-error
//!
//! Probabilistic error models for approximate (reduced-voltage) DRAM,
//! following the four models of EDEN (Koppula et al., MICRO 2019) that the
//! SparkXD paper builds on (paper Section III):
//!
//! * **Model 0** — uniform random bit errors across a DRAM bank (the model
//!   the paper uses for training and evaluation);
//! * **Model 1** — errors clustered on weak *bitlines*;
//! * **Model 2** — errors clustered on weak *wordlines*;
//! * **Model 3** — data-dependent errors (cells holding `1` fail more often
//!   than cells holding `0`).
//!
//! The crate also provides:
//!
//! * the **BER-vs-voltage curve** of paper Fig. 2(c) ([`BerCurve`]),
//! * **weak-cell maps** with per-subarray error-rate variation
//!   ([`WeakCellMap`], [`ErrorProfile`]) — the input to SparkXD's
//!   safe-subarray mapping, and
//! * fast, deterministic **bit-flip injection** into weight images
//!   ([`Injector`]), raw FP32 or packed int8/int16 alike ([`WordImage`]).
//!
//! ## Example
//!
//! ```
//! use sparkxd_error::{BerCurve, ErrorModel, Injector};
//! use sparkxd_circuit::Volt;
//!
//! let curve = BerCurve::paper_default();
//! let ber = curve.ber_at(Volt(1.025));
//! assert!(ber > 1e-4 && ber < 1e-2);
//!
//! let mut weights = vec![0.5f32; 4096];
//! let report = Injector::new(ErrorModel::Model0, 42).inject_uniform(&mut weights, 1e-3);
//! assert!(report.flips > 0);
//! ```

pub mod ecc;
pub mod inject;
pub mod models;
pub mod sampling;
pub mod voltage;
pub mod weak_cells;

pub use ecc::{DecodeOutcome, SecDed};
pub use inject::{InjectionReport, Injector, WordImage, WordPlacement};
pub use models::ErrorModel;
pub use voltage::BerCurve;
pub use weak_cells::{ErrorProfile, WeakCellMap};

/// Errors reported by this crate's fallible APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectError {
    /// Placement slice shorter than the weight slice.
    PlacementLengthMismatch {
        /// Number of weight words.
        words: usize,
        /// Number of placements provided.
        placements: usize,
    },
    /// A bit-error rate outside `[0, 0.5]`.
    InvalidBer(f64),
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::PlacementLengthMismatch { words, placements } => write!(
                f,
                "placement length {placements} does not match {words} weight words"
            ),
            InjectError::InvalidBer(ber) => write!(f, "bit error rate {ber} outside [0, 0.5]"),
        }
    }
}

impl std::error::Error for InjectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = InjectError::InvalidBer(0.7);
        assert!(e.to_string().contains("0.7"));
    }
}
