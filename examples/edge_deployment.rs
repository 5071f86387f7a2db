//! Edge-AI deployment scenario (the paper's motivating use case):
//! an energy-constrained embedded device must run SNN inference within an
//! accuracy budget. This example sweeps the approximate-DRAM operating
//! voltages and picks the lowest-energy point whose device BER the
//! fault-aware-trained model tolerates.
//!
//! ```sh
//! cargo run --release --example edge_deployment
//! ```

use sparkxd::circuit::Volt;
use sparkxd::core::energy_eval::EnergyEvaluation;
use sparkxd::core::mapping::{BaselineMapping, MappingPolicy, SparkXdMapping};
use sparkxd::core::tolerance::analyze_tolerance;
use sparkxd::core::trace_gen::columns_for_network;
use sparkxd::core::training::{FaultAwareTrainer, TrainingConfig};
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::dram::DramConfig;
use sparkxd::error::{BerCurve, ErrorModel, ErrorProfile, WeakCellMap};
use sparkxd::snn::{DiehlCookNetwork, SnnConfig, WeightPrecision};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the edge model (small for the demo) and harden it.
    let train = SynthDigits.generate(300, 1);
    let test = SynthDigits.generate(100, 2);
    let snn_config = SnnConfig::for_neurons(60).with_timesteps(50);
    let mut net = DiehlCookNetwork::new(snn_config.clone());
    for epoch in 0..4 {
        net.train_epoch(&train, 100 + epoch);
    }
    let trainer = FaultAwareTrainer::new(TrainingConfig::paper_default());
    let outcome = trainer.improve(&mut net, &train, &test)?;
    println!(
        "hardened model: baseline {:.1}%, improved (clean) {:.1}%",
        outcome.baseline_accuracy * 100.0,
        outcome.improved_clean_accuracy * 100.0
    );

    // 2. Measure its tolerance curve once.
    let curve = analyze_tolerance(
        &mut net,
        &outcome.labeler,
        &test,
        &[1e-9, 1e-7, 1e-5, 1e-4, 1e-3],
        ErrorModel::Model0,
        2,
        7,
        WeightPrecision::Fp32,
    );
    let target = outcome.baseline_accuracy - 0.01;
    let ber_th = curve.max_tolerable_ber(target).unwrap_or(1e-9);
    println!(
        "accuracy target {:.1}% -> BER_th {ber_th:.0e}",
        target * 100.0
    );

    // 3. Sweep operating voltages: energy per inference where deployable.
    let ber_curve = BerCurve::paper_default();
    let baseline_config = DramConfig::lpddr3_1600_4gb();
    let n_columns = columns_for_network(
        &snn_config,
        baseline_config.geometry.col_bytes,
        WeightPrecision::Fp32,
    );
    let flat = ErrorProfile::uniform(0.0, baseline_config.geometry.total_subarrays());
    let baseline_map =
        BaselineMapping.map(n_columns, &baseline_config.geometry, &flat, f64::MAX)?;
    let baseline = EnergyEvaluation::evaluate(&baseline_config, &baseline_map);
    println!(
        "\nbaseline @1.350V: {:.4} mJ per inference",
        baseline.total_mj()
    );

    let weak_cells = WeakCellMap::generate(&baseline_config.geometry, 42);
    let mut best: Option<(f64, f64)> = None;
    for v in [1.325, 1.25, 1.175, 1.1, 1.025] {
        let device_ber = ber_curve.ber_at(Volt(v));
        let config = DramConfig::approximate(Volt(v))?;
        let profile = weak_cells.profile(device_ber);
        match SparkXdMapping.map(n_columns, &config.geometry, &profile, ber_th) {
            Ok(mapping) if device_ber <= ber_th => {
                let eval = EnergyEvaluation::evaluate(&config, &mapping);
                let saving = 1.0 - eval.total_mj() / baseline.total_mj();
                println!(
                    "  {v:.3}V  BER {device_ber:.1e}  {:.4} mJ  (saving {:.1}%)  deployable",
                    eval.total_mj(),
                    saving * 100.0
                );
                best = Some((v, saving));
            }
            _ => println!("  {v:.3}V  BER {device_ber:.1e}  -- exceeds model tolerance, skipped"),
        }
    }
    match best {
        Some((v, saving)) => println!(
            "\nchosen operating point: {v:.3} V ({:.1}% DRAM energy saving)",
            saving * 100.0
        ),
        None => println!("\nno reduced-voltage point met the accuracy constraint"),
    }
    Ok(())
}
