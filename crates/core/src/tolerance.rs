//! Error-tolerance analysis (paper Section IV-C, Fig. 8).
//!
//! A linear search over BER values, valid because the SNN error-tolerance
//! curve is generally decreasing in BER: the largest rate whose accuracy
//! meets the target is the maximum tolerable BER (`BER_th`) used to drive
//! the DRAM mapping.

use crate::corrupt::{self, Errors, Scratch};
use sparkxd_data::Dataset;
use sparkxd_error::{ErrorModel, Injector};
use sparkxd_snn::{DiehlCookNetwork, NeuronLabeler, WeightPrecision};

/// An accuracy-versus-BER curve for one model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ToleranceCurve {
    points: Vec<(f64, f64)>,
}

impl ToleranceCurve {
    /// Builds a curve from `(ber, accuracy)` pairs sorted by BER.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Self {
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite BER"));
        Self { points }
    }

    /// The `(ber, accuracy)` pairs in ascending BER order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Linear search (paper Sec. IV-C): the largest BER whose accuracy is
    /// at least `target_accuracy`. `None` if no point qualifies.
    pub fn max_tolerable_ber(&self, target_accuracy: f64) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|(_, acc)| *acc >= target_accuracy)
            .map(|(ber, _)| *ber)
    }

    /// Accuracy at the given BER, if it was measured.
    pub fn accuracy_at(&self, ber: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(b, _)| (b / ber - 1.0).abs() < 1e-9 || b == &ber)
            .map(|(_, a)| *a)
    }

    /// Whether the curve is non-increasing (allowing `slack` of evaluation
    /// noise) — the property that justifies the linear search.
    pub fn is_generally_decreasing(&self, slack: f64) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + slack)
    }
}

/// Measures the tolerance curve of `net` (with frozen weights) across
/// `bers`, injecting `trials` fresh error patterns per rate into its DRAM
/// image at `precision` and averaging. Weights are restored before
/// returning.
///
/// At int8/int16 the bits flip in the packed codes at the native word
/// width, so 8/16-bit words see proportionally fewer flips per weight
/// than a 32-bit image at the same BER. Every precision uses the same
/// seed derivations per BER point and trial, so curves at two precisions
/// differ only in the image, not in the error-pattern stream.
///
/// Error patterns are generated sequentially (each BER point owns a
/// deterministic injector stream), but every evaluation under a pattern is
/// sharded across samples by the parallel batch engine, so the sweep's
/// wall time scales with the worker count while its result stays
/// bit-identical to a serial run.
#[allow(clippy::too_many_arguments)]
pub fn analyze_tolerance(
    net: &mut DiehlCookNetwork,
    labeler: &NeuronLabeler,
    test: &Dataset,
    bers: &[f64],
    model: ErrorModel,
    trials: usize,
    seed: u64,
    precision: WeightPrecision,
) -> ToleranceCurve {
    let mut scratch = Scratch::for_net(net);
    let points = bers
        .iter()
        .enumerate()
        .map(|(k, &ber)| {
            let accuracy = corrupt::mean_accuracy(
                net,
                precision,
                &mut scratch,
                Injector::new(model, seed ^ (k as u64) << 8),
                Errors::Uniform(ber),
                trials,
                |net, trial| net.evaluate(test, labeler, seed ^ 0xACC ^ ((trial as u64) << 24)),
            )
            .expect("uniform injection cannot fail");
            (ber, accuracy)
        })
        .collect();
    ToleranceCurve::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_data::{SynthDigits, SyntheticSource};
    use sparkxd_snn::SnnConfig;

    #[test]
    fn linear_search_finds_largest_qualifying_ber() {
        let c = ToleranceCurve::from_points(vec![
            (1e-9, 0.90),
            (1e-7, 0.89),
            (1e-5, 0.88),
            (1e-3, 0.70),
        ]);
        assert_eq!(c.max_tolerable_ber(0.875), Some(1e-5));
        assert_eq!(c.max_tolerable_ber(0.895), Some(1e-9));
        assert_eq!(c.max_tolerable_ber(0.95), None);
        assert_eq!(c.max_tolerable_ber(0.5), Some(1e-3));
    }

    #[test]
    fn points_are_sorted_on_construction() {
        let c = ToleranceCurve::from_points(vec![(1e-3, 0.7), (1e-9, 0.9)]);
        assert_eq!(c.points()[0].0, 1e-9);
    }

    #[test]
    fn generally_decreasing_check() {
        let down = ToleranceCurve::from_points(vec![(1e-9, 0.9), (1e-5, 0.85), (1e-3, 0.5)]);
        assert!(down.is_generally_decreasing(0.0));
        let bumpy = ToleranceCurve::from_points(vec![(1e-9, 0.9), (1e-5, 0.91), (1e-3, 0.5)]);
        assert!(bumpy.is_generally_decreasing(0.02));
        assert!(!bumpy.is_generally_decreasing(0.0));
    }

    #[test]
    fn accuracy_at_finds_measured_points() {
        let c = ToleranceCurve::from_points(vec![(1e-5, 0.88)]);
        assert_eq!(c.accuracy_at(1e-5), Some(0.88));
        assert_eq!(c.accuracy_at(1e-4), None);
    }

    #[test]
    fn quantized_analysis_restores_weights_and_tracks_fp32_shape() {
        let train = SynthDigits.generate(80, 1);
        let test = SynthDigits.generate(40, 2);
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(30).with_timesteps(40));
        net.train_epoch(&train, 5);
        let labeler = net.label_neurons(&train, 6);
        let before = net.weights().clone();
        let curve = analyze_tolerance(
            &mut net,
            &labeler,
            &test,
            &[1e-7, 5e-2],
            ErrorModel::Model0,
            2,
            99,
            WeightPrecision::Int8,
        );
        assert_eq!(net.weights(), &before, "weights restored");
        assert_eq!(curve.points().len(), 2);
        let (lo, hi) = (curve.points()[0].1, curve.points()[1].1);
        assert!(hi <= lo + 0.05, "accuracy at 5e-2 ({hi}) vs 1e-7 ({lo})");
        // Near-zero BER leaves the image effectively clean, so the int8
        // curve's first point must stay within quantisation distance of
        // the FP32 model's own near-clean accuracy.
        let fp32 = analyze_tolerance(
            &mut net,
            &labeler,
            &test,
            &[1e-7],
            ErrorModel::Model0,
            2,
            99,
            WeightPrecision::Fp32,
        );
        assert!((lo - fp32.points()[0].1).abs() <= 0.1);
    }

    #[test]
    fn analysis_restores_weights_and_measures_degradation() {
        let train = SynthDigits.generate(80, 1);
        let test = SynthDigits.generate(40, 2);
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(30).with_timesteps(40));
        net.train_epoch(&train, 5);
        let labeler = net.label_neurons(&train, 6);
        let before = net.weights().clone();
        let curve = analyze_tolerance(
            &mut net,
            &labeler,
            &test,
            &[1e-7, 5e-2],
            ErrorModel::Model0,
            2,
            99,
            WeightPrecision::Fp32,
        );
        assert_eq!(net.weights(), &before, "weights restored");
        assert_eq!(curve.points().len(), 2);
        // Extreme corruption must cost accuracy relative to near-zero BER.
        let (lo, hi) = (curve.points()[0].1, curve.points()[1].1);
        assert!(hi <= lo + 0.05, "accuracy at 5e-2 ({hi}) vs 1e-7 ({lo})");
    }
}
