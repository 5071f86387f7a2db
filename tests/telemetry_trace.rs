//! Spans-mode acceptance: one tiny pipeline run in `SPARKXD_TELEMETRY=spans`
//! mode must produce a loadable Chrome trace-event file covering all
//! seven pipeline stage spans plus at least one training-epoch span, one
//! fault-aware-training step evaluation (`fat.step_eval`, the evaluation
//! that overlaps the next step's training), one `WorkerPool` dispatch span
//! and one DRAM replay span beneath them — and a snapshot holding
//! training's per-epoch counters (clean-store samples, inline encodes,
//! re-summed columns and the spans-only per-phase wall times), the
//! inference engine's spans-only per-phase wall times, and the samples
//! fault-aware training presented from spike trains drawn beforehand.
//!
//! Single `#[test]` on purpose: the telemetry mode is process-global,
//! like the engine knobs the sibling invariance suites pin.

use sparkxd::core::pipeline::{PipelineConfig, SparkXdPipeline};
use sparkxd::telemetry;

/// The tiny config the invariance suites use (seconds, not minutes).
fn tiny_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        ..PipelineConfig::small_demo(seed)
    }
}

#[test]
fn spans_mode_pipeline_run_yields_a_loadable_chrome_trace() {
    // Two engine workers so at least one dispatch takes the pooled path
    // (the single-worker fast path is deliberately un-instrumented).
    std::env::set_var("SPARKXD_THREADS", "2");
    telemetry::set_mode(telemetry::Mode::Spans);
    SparkXdPipeline::new(tiny_config(42))
        .run()
        .expect("tiny pipeline run");
    std::env::remove_var("SPARKXD_THREADS");

    let path = std::env::temp_dir().join(format!("sparkxd_trace_{}.json", std::process::id()));
    let written = telemetry::write_chrome_trace(&path).expect("trace file written");
    assert!(written > 0, "spans mode must buffer events");
    let trace = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);

    // Loadable: the trace-event envelope with balanced nesting (the
    // renderer emits no strings containing braces or brackets).
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    assert!(trace.contains("\"traceEvents\":["));
    assert_eq!(
        trace.matches(['{', '[']).count(),
        trace.matches(['}', ']']).count(),
        "unbalanced trace JSON"
    );

    // Coverage: every pipeline stage, plus the training, pool and DRAM
    // replay spans the stages fan out into.
    for span in [
        "pipeline.data",
        "pipeline.baseline_model",
        "pipeline.fault_aware_training",
        "pipeline.operating_point",
        "pipeline.mapping",
        "pipeline.operating_accuracy",
        "pipeline.energy",
        "snn.train_epoch",
        "fat.step_eval",
        "pool.run",
        "dram.replay",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "trace is missing the {span} span"
        );
    }

    // Training's once-per-epoch counters, including the spans-only
    // per-phase wall times. Training starts from a clean store, so most
    // samples take the clean kernels (a step's injected errors may put
    // its first samples back on the generic ones).
    let snapshot = telemetry::TelemetrySnapshot::capture();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("snapshot is missing the {name} counter"))
    };
    for name in [
        "snn.train_inline_encodes",
        "snn.train_phase_encode_wait_ns",
        "snn.train_phase_decay_ns",
        "snn.train_phase_depress_ns",
        "snn.train_phase_lif_ns",
        "snn.train_phase_potentiate_ns",
        "snn.train_phase_normalise_ns",
    ] {
        counter(name);
    }
    let samples = counter("snn.train_samples");
    assert!(samples > 0);
    let clean = counter("snn.train_clean_samples");
    assert!(clean > 0 && clean <= samples, "{clean} of {samples}");
    // Each clean sample after the first of its epoch re-sums only the
    // columns it wrote, so far fewer than one full pass per sample.
    let resummed = counter("snn.train_resummed_columns");
    let neurons = tiny_config(42).neurons as u64;
    assert!(
        resummed > 0 && resummed < samples * neurons,
        "{resummed} column sums over {samples} samples"
    );
    assert!(counter("snn.train_phase_depress_ns") > 0);

    // The engine's per-call phase split of `run_batch` (labelling and
    // evaluation run through it).
    for name in [
        "engine.phase_encode_ns",
        "engine.phase_sweep_ns",
        "engine.phase_fire_ns",
    ] {
        counter(name);
    }
    assert!(counter("engine.phase_encode_ns") > 0);
    assert!(counter("engine.phase_sweep_ns") > 0);

    // Algorithm 1 labels every checkpoint and scores every step from the
    // sets it drew once: 1 + 2 labellings of the 40 training samples
    // (one more without a tolerated rate) and 2 steps × 20 test samples.
    let drawn = counter("engine.drawn_samples");
    assert!(
        [3 * 40 + 2 * 20, 4 * 40 + 2 * 20].contains(&drawn),
        "{drawn}"
    );
}
