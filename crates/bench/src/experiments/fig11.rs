//! Fig. 11: accuracy of the baseline SNN with accurate DRAM, the baseline
//! SNN with approximate DRAM, and the improved SNN with approximate DRAM,
//! across BER values, network sizes and both datasets.

use crate::experiments::common::{train_pair, TrainedPair};
use crate::scale::Scale;
use crate::table::TextTable;
use sparkxd_core::pipeline::DatasetKind;
use sparkxd_core::tolerance::{analyze_tolerance, ToleranceCurve};
use sparkxd_error::ErrorModel;
use sparkxd_snn::WeightPrecision;

/// One panel of the figure: a (dataset, size) pair's three configurations.
#[derive(Debug, Clone)]
pub struct Fig11Panel {
    /// Dataset of this panel.
    pub dataset: DatasetKind,
    /// Network size of this panel.
    pub neurons: usize,
    /// Baseline SNN with accurate DRAM (flat reference line).
    pub baseline_accurate: f64,
    /// Baseline SNN with approximate DRAM across BERs.
    pub baseline_curve: ToleranceCurve,
    /// Improved SNN with approximate DRAM across BERs.
    pub improved_curve: ToleranceCurve,
    /// Improved SNN streamed as a packed int8 DRAM image across BERs —
    /// flips hit the 8-bit codes at the native word width.
    pub improved_int8_curve: ToleranceCurve,
    /// Whether the improved model stayed within 1% of the baseline at
    /// every measured BER (the paper's headline accuracy claim).
    pub within_one_percent_everywhere: bool,
}

/// Runs every panel of the figure at the given scale.
pub fn run(scale: &Scale, seed: u64) -> Vec<Fig11Panel> {
    let mut panels = Vec::new();
    for kind in [DatasetKind::Digits, DatasetKind::Fashion] {
        for &neurons in &scale.network_sizes {
            let TrainedPair {
                mut baseline,
                baseline_labeler,
                mut improved,
                outcome,
                test,
                ..
            } = train_pair(kind, neurons, scale, seed);
            let bers = scale.ber_points();
            let baseline_curve = analyze_tolerance(
                &mut baseline,
                &baseline_labeler,
                &test,
                &bers,
                ErrorModel::Model0,
                scale.eval_trials,
                seed ^ 0x1101,
                WeightPrecision::Fp32,
            );
            let improved_curve = analyze_tolerance(
                &mut improved,
                &outcome.labeler,
                &test,
                &bers,
                ErrorModel::Model0,
                scale.eval_trials,
                seed ^ 0x1102,
                WeightPrecision::Fp32,
            );
            let improved_int8_curve = analyze_tolerance(
                &mut improved,
                &outcome.labeler,
                &test,
                &bers,
                ErrorModel::Model0,
                scale.eval_trials,
                seed ^ 0x1103,
                WeightPrecision::Int8,
            );
            let target = outcome.baseline_accuracy - 0.01;
            let within = improved_curve
                .points()
                .iter()
                .all(|(_, acc)| *acc >= target);
            panels.push(Fig11Panel {
                dataset: kind,
                neurons,
                baseline_accurate: outcome.baseline_accuracy,
                baseline_curve,
                improved_curve,
                improved_int8_curve,
                within_one_percent_everywhere: within,
            });
        }
    }
    panels
}

/// Renders one panel in the figure's series layout.
pub fn print_panel(p: &Fig11Panel) -> String {
    let mut out = format!(
        "[{} N{}] baseline accurate DRAM: {:.1}%\n",
        p.dataset.label(),
        p.neurons,
        p.baseline_accurate * 100.0
    );
    let mut t = TextTable::new(vec![
        "BER".into(),
        "baseline+approx".into(),
        "improved+approx (SparkXD)".into(),
        "improved+approx int8".into(),
    ]);
    for (((ber, b), (_, i)), (_, q)) in p
        .baseline_curve
        .points()
        .iter()
        .zip(p.improved_curve.points())
        .zip(p.improved_int8_curve.points())
    {
        t.row(vec![
            format!("{ber:.0e}"),
            format!("{:.1}%", b * 100.0),
            format!("{:.1}%", i * 100.0),
            format!("{:.1}%", q * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "improved model within 1% of accurate baseline everywhere: {}\n",
        if p.within_one_percent_everywhere {
            "yes"
        } else {
            "no"
        }
    ));
    out
}

/// Renders all panels.
pub fn print(panels: &[Fig11Panel]) -> String {
    panels
        .iter()
        .map(print_panel)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_run_produces_all_panels() {
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
        let panels = run(&scale, 4);
        assert_eq!(panels.len(), 2); // 1 size x 2 datasets
        assert_eq!(panels[0].dataset, DatasetKind::Digits);
        assert_eq!(panels[1].dataset, DatasetKind::Fashion);
        for p in &panels {
            assert_eq!(
                p.improved_int8_curve.points().len(),
                p.improved_curve.points().len()
            );
        }
        assert!(print(&panels).contains("SparkXD"));
        assert!(print(&panels).contains("int8"));
    }
}
