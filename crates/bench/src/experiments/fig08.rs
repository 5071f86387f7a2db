//! Fig. 8: error-tolerance analysis of one network (paper: N900) — the
//! accuracy-vs-BER curves of the baseline and improved models, the minimum
//! target accuracy line, and the maximum tolerable BER (`BER_th`).

use crate::experiments::common::{train_pair, TrainedPair};
use crate::scale::Scale;
use crate::table::TextTable;
use sparkxd_core::pipeline::DatasetKind;
use sparkxd_core::tolerance::{analyze_tolerance, ToleranceCurve};
use sparkxd_error::ErrorModel;
use sparkxd_snn::WeightPrecision;

/// Result of the tolerance analysis for one network size.
#[derive(Debug, Clone)]
pub struct ToleranceAnalysis {
    /// Network size used (the scale's middle entry; N900 in the paper).
    pub neurons: usize,
    /// Error-free baseline accuracy.
    pub baseline_accuracy: f64,
    /// Minimum target accuracy (baseline − 1%).
    pub target_accuracy: f64,
    /// Baseline model's accuracy-vs-BER curve.
    pub baseline_curve: ToleranceCurve,
    /// Improved model's accuracy-vs-BER curve.
    pub improved_curve: ToleranceCurve,
    /// Maximum tolerable BER of the improved model at the target.
    pub max_tolerable_ber: Option<f64>,
}

/// Runs the Fig. 8 analysis at the scale's middle network size.
pub fn run(scale: &Scale, seed: u64) -> ToleranceAnalysis {
    let neurons = scale.network_sizes[scale.network_sizes.len() / 2];
    let TrainedPair {
        mut baseline,
        baseline_labeler,
        mut improved,
        outcome,
        test,
        ..
    } = train_pair(DatasetKind::Digits, neurons, scale, seed);
    let bers = scale.ber_points();
    let baseline_curve = analyze_tolerance(
        &mut baseline,
        &baseline_labeler,
        &test,
        &bers,
        ErrorModel::Model0,
        scale.eval_trials,
        seed ^ 0xF18,
        WeightPrecision::Fp32,
    );
    let improved_curve = analyze_tolerance(
        &mut improved,
        &outcome.labeler,
        &test,
        &bers,
        ErrorModel::Model0,
        scale.eval_trials,
        seed ^ 0xF19,
        WeightPrecision::Fp32,
    );
    let target_accuracy = outcome.baseline_accuracy - 0.01;
    ToleranceAnalysis {
        neurons,
        baseline_accuracy: outcome.baseline_accuracy,
        target_accuracy,
        max_tolerable_ber: improved_curve.max_tolerable_ber(target_accuracy),
        baseline_curve,
        improved_curve,
    }
}

/// Renders the two curves plus the derived `BER_th`.
pub fn print(a: &ToleranceAnalysis) -> String {
    let mut t = TextTable::new(vec![
        "BER".into(),
        "baseline+approx".into(),
        "improved+approx".into(),
    ]);
    for ((ber, base), (_, improved)) in a
        .baseline_curve
        .points()
        .iter()
        .zip(a.improved_curve.points())
    {
        t.row(vec![
            format!("{ber:.0e}"),
            format!("{:.1}%", base * 100.0),
            format!("{:.1}%", improved * 100.0),
        ]);
    }
    let mut out = format!(
        "N{} | baseline accurate-DRAM accuracy {:.1}% | min target {:.1}%\n",
        a.neurons,
        a.baseline_accuracy * 100.0,
        a.target_accuracy * 100.0
    );
    out.push_str(&t.render());
    out.push_str(&match a.max_tolerable_ber {
        Some(b) => format!("maximum tolerable BER (BER_th) = {b:.0e}\n"),
        None => "maximum tolerable BER: none met the target\n".to_string(),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_produces_full_curves() {
        let scale = Scale {
            label: "micro",
            network_sizes: vec![20],
            train_samples: 40,
            test_samples: 20,
            baseline_epochs: 1,
            epochs_per_rate: 1,
            timesteps: 30,
            eval_trials: 1,
        };
        let a = run(&scale, 2);
        assert_eq!(a.baseline_curve.points().len(), 5);
        assert_eq!(a.improved_curve.points().len(), 5);
        assert!(print(&a).contains("BER_th") || print(&a).contains("none met"));
    }
}
