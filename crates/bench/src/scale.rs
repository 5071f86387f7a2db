//! Experiment scaling: demo (CPU-minutes) vs paper (paper-faithful sizes).

use sparkxd_telemetry::env_knob;
use std::str::FromStr;

/// Knobs shared by the accuracy experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Label printed in reports.
    pub label: &'static str,
    /// Excitatory neuron counts standing in for the paper's
    /// N400/N900/N1600/N2500/N3600.
    pub network_sizes: Vec<usize>,
    /// Training samples per epoch.
    pub train_samples: usize,
    /// Test samples.
    pub test_samples: usize,
    /// Error-free epochs for the baseline model.
    pub baseline_epochs: usize,
    /// Epochs per BER step in Algorithm 1.
    pub epochs_per_rate: usize,
    /// Presentation window (timesteps).
    pub timesteps: usize,
    /// Injection trials per BER point when measuring tolerance curves.
    pub eval_trials: usize,
}

impl Scale {
    /// CPU-friendly scale used by default: same code, smaller networks.
    /// The baseline is trained to (near) convergence so that Algorithm 1's
    /// additional epochs measure error tolerance rather than leftover
    /// learning headroom.
    pub fn demo() -> Self {
        Self {
            label: "demo",
            network_sizes: vec![50, 100, 200],
            train_samples: 600,
            test_samples: 100,
            baseline_epochs: 5,
            epochs_per_rate: 1,
            timesteps: 60,
            eval_trials: 1,
        }
    }

    /// The paper's five network sizes at fuller sample counts. Expect hours
    /// of CPU for the accuracy figures at this scale.
    pub fn paper() -> Self {
        Self {
            label: "paper",
            network_sizes: vec![400, 900, 1600, 2500, 3600],
            train_samples: 1000,
            test_samples: 300,
            baseline_epochs: 3,
            epochs_per_rate: 1,
            timesteps: 100,
            eval_trials: 2,
        }
    }

    /// Reads `SPARKXD_SCALE` (`demo` default, `paper` for full size);
    /// any other value warns once and runs at demo scale.
    pub fn from_env() -> Self {
        env_knob("SPARKXD_SCALE").unwrap_or_default()
    }

    /// The BER points of the paper's Figs. 8/11 x-axis (1e-9 … 1e-3).
    pub fn ber_points(&self) -> Vec<f64> {
        vec![1e-9, 1e-7, 1e-5, 1e-4, 1e-3]
    }
}

/// Parses a `SPARKXD_SCALE` value.
impl FromStr for Scale {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "demo" => Ok(Self::demo()),
            "paper" => Ok(Self::paper()),
            _ => Err("expected demo|paper"),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::demo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_is_small_paper_is_paper() {
        assert!(Scale::demo().network_sizes.iter().all(|&n| n <= 400));
        assert_eq!(
            Scale::paper().network_sizes,
            vec![400, 900, 1600, 2500, 3600]
        );
    }

    #[test]
    fn scale_parses_its_two_labels_only() {
        assert_eq!("demo".parse(), Ok(Scale::demo()));
        assert_eq!("paper".parse(), Ok(Scale::paper()));
        assert!("Paper".parse::<Scale>().is_err());
        assert!("full".parse::<Scale>().is_err());
    }

    #[test]
    fn ber_points_span_paper_axis() {
        let pts = Scale::demo().ber_points();
        assert_eq!(*pts.first().unwrap(), 1e-9);
        assert_eq!(*pts.last().unwrap(), 1e-3);
    }
}
