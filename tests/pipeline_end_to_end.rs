//! Cross-crate integration: the full SparkXD pipeline against the paper's
//! headline claims, at smoke scale.

use sparkxd::circuit::Volt;
use sparkxd::core::pipeline::{DatasetKind, PipelineConfig, SparkXdPipeline};

fn demo_outcome(seed: u64) -> sparkxd::core::pipeline::PipelineOutcome {
    SparkXdPipeline::new(PipelineConfig::small_demo(seed))
        .run()
        .expect("pipeline completes")
}

#[test]
fn energy_saving_in_paper_band_at_lowest_voltage() {
    let outcome = demo_outcome(42);
    // Paper: ~40% average DRAM energy saving at 1.025 V.
    let saving = outcome.energy.saving_fraction_vs_baseline();
    assert!(
        (0.25..0.50).contains(&saving),
        "saving {saving} outside the paper band"
    );
}

#[test]
fn throughput_is_maintained() {
    let outcome = demo_outcome(42);
    // Paper: 1.02x average speed-up; at minimum, no meaningful loss.
    assert!(
        outcome.energy.speedup() > 0.95,
        "speedup {}",
        outcome.energy.speedup()
    );
}

#[test]
fn mapping_respects_tolerance_threshold() {
    let outcome = demo_outcome(42);
    assert_eq!(outcome.mapping.policy, "sparkxd");
    // Only a strict subset of subarrays qualifies at the threshold.
    assert!(outcome.mapping.safe_fraction > 0.0 && outcome.mapping.safe_fraction < 1.0);
    // The image fits: N40 -> 784*40 words / 4 per column.
    assert_eq!(outcome.mapping.columns, 784 * 40 / 4);
}

#[test]
fn operating_voltage_never_exceeds_tolerance() {
    let outcome = demo_outcome(42);
    assert!(
        outcome.operating_ber <= outcome.max_tolerable_ber * (1.0 + 1e-9),
        "operating BER {} must not exceed BER_th {}",
        outcome.operating_ber,
        outcome.max_tolerable_ber
    );
    // And the operating voltage stays in the modelled range.
    assert!(outcome.operating_voltage.0 >= 1.0 && outcome.operating_voltage.0 <= 1.35);
}

#[test]
fn different_device_seeds_change_mapping_not_energy_band() {
    use sparkxd::dram::DramGeometry;
    use sparkxd::error::WeakCellMap;
    // Different weak-cell maps -> different safe-subarray sets.
    let g = DramGeometry::lpddr3_1600_4gb();
    let safe = |seed: u64| {
        WeakCellMap::generate(&g, seed)
            .profile(1e-3)
            .safe_subarrays(1e-3)
    };
    assert_ne!(
        safe(1),
        safe(2),
        "distinct devices should salvage different subarrays"
    );
    // The energy saving tracks the operating voltage the model could
    // tolerate: a lower operating voltage must never save less.
    let a = demo_outcome(1);
    let b = demo_outcome(2);
    let (sa, sb) = (
        a.energy.saving_fraction_vs_baseline(),
        b.energy.saving_fraction_vs_baseline(),
    );
    assert!((0.05..0.50).contains(&sa), "saving {sa} out of sane band");
    assert!((0.05..0.50).contains(&sb), "saving {sb} out of sane band");
    if a.operating_voltage.0 < b.operating_voltage.0 {
        assert!(sa >= sb, "lower voltage must save at least as much");
    } else if b.operating_voltage.0 < a.operating_voltage.0 {
        assert!(sb >= sa, "lower voltage must save at least as much");
    }
}

#[test]
fn fashion_dataset_also_completes() {
    let mut config = PipelineConfig::small_demo(9);
    config.dataset = DatasetKind::Fashion;
    let outcome = SparkXdPipeline::new(config)
        .run()
        .expect("fashion pipeline");
    assert!(outcome.energy.saving_fraction_vs_baseline() > 0.2);
}

#[test]
fn requested_voltage_is_respected_when_tolerable() {
    let outcome = demo_outcome(42);
    if outcome.max_tolerable_ber >= outcome.operating_ber && outcome.target_met {
        // The demo requests 1.025 V; with BER_th = 1e-3 the device BER
        // (1e-3) fits, so no voltage raise should occur.
        assert_eq!(outcome.operating_voltage, Volt(1.025));
    }
}

#[test]
fn out_of_range_scheduled_ber_is_an_error_not_a_panic() {
    use sparkxd::core::CoreError;
    use sparkxd::error::InjectError;
    for bad in [2.0, -1e-3, f64::NAN] {
        let mut config = PipelineConfig::small_demo(3);
        // After a valid step: the check must come before that step trains.
        config.training.ber_schedule = vec![1e-5, bad];
        let result = std::panic::catch_unwind(|| SparkXdPipeline::new(config).run());
        match result {
            Ok(Err(CoreError::Inject(InjectError::InvalidBer(b)))) => {
                assert_eq!(b.to_bits(), bad.to_bits(), "reports the bad rate {bad}");
            }
            Ok(other) => panic!("ber {bad}: expected InvalidBer, got {other:?}"),
            Err(_) => panic!("ber {bad}: the pipeline panicked"),
        }
    }
}
