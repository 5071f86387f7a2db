//! `pipeline_n400`: the paper's tool flow, `SparkXdPipeline::run()` on
//! `PipelineConfig::paper_network(400, Digits, seed)` at fp32.

use crate::flow::{self, FlowCounts};
use crate::{median, peak_rss_mb, percentile, print_report, tail_quantile, Outcome, Spans};
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig, PipelineOutcome};
use sparkxd_core::SparkXdPipeline;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The workload's configuration at `seed`.
pub fn config(seed: u64) -> PipelineConfig {
    PipelineConfig::paper_network(400, DatasetKind::Digits, seed)
}

/// Samples one `run()` presents for training and for inference, given
/// whether Algorithm 1 met its accuracy target (a miss costs one more
/// labelling pass). The decomposition counts the same calls one by one.
pub fn presented(cfg: &PipelineConfig, target_met: bool) -> FlowCounts {
    let train = cfg.train_samples as u64;
    let test = cfg.test_samples as u64;
    let steps = cfg.training.ber_schedule.len() as u64;
    let trials = cfg.training.eval_trials.max(1) as u64;
    let labels = 1 + steps + u64::from(!target_met);
    FlowCounts {
        train_samples: train
            * (cfg.baseline_epochs as u64 + steps * cfg.training.epochs_per_rate as u64),
        infer_samples: train * labels + test * (1 + steps * trials + 2),
        flipped_bits: 0,
    }
}

/// The sanity bands of the N400 flow: the whole image mapped, the
/// error-aware policy, a saving in the paper's plausible band and
/// throughput kept.
fn sanity(cfg: &PipelineConfig, outcome: &PipelineOutcome) -> Result<(), String> {
    let columns = 784 * cfg.neurons / 4;
    let saving = outcome.energy.saving_fraction_vs_baseline();
    let speedup = outcome.energy.speedup();
    if outcome.mapping.columns != columns {
        return Err(format!(
            "mapped {} columns, expected {columns}",
            outcome.mapping.columns
        ));
    }
    if outcome.mapping.policy != "sparkxd" {
        return Err(format!("mapping policy {}", outcome.mapping.policy));
    }
    if !(0.05..0.60).contains(&saving) {
        return Err(format!("energy saving {saving} outside 5-60%"));
    }
    if speedup <= 0.9 {
        return Err(format!("speedup {speedup} <= 0.9"));
    }
    Ok(())
}

/// Runs the workload: `SETUPS` set-ups, then one `run()` per 10 s of
/// `seconds` (at least one). Traced: one decomposed run between two
/// `run()`s, whose mean wall time the overhead is taken against.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let cfg = config(seed);
    // Set-up: the flow's inputs, generated from the seed. `run()`
    // regenerates them itself; this is what a caller pays before it.
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let test = cfg
            .dataset
            .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57);
        std::hint::black_box((train, test));
        setup.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&mut setup);
    let pipeline = SparkXdPipeline::new(cfg.clone());

    let reps = if trace {
        2
    } else {
        (seconds / 10).max(1) as usize
    };
    let mut walls = Vec::with_capacity(reps);
    let mut first: Option<PipelineOutcome> = None;
    let mut spans = Spans::default();
    let mut traced = None;
    for rep in 0..reps {
        if trace && rep == 1 {
            let t = Instant::now();
            let result = flow::run_traced(&cfg, &mut spans);
            traced = Some((result, t.elapsed().as_secs_f64()));
        }
        let t = Instant::now();
        let result = pipeline.run();
        walls.push(t.elapsed().as_secs_f64());
        match result {
            Ok(outcome) => {
                if let Err(why) = sanity(&cfg, &outcome) {
                    out.check(false, &why);
                } else {
                    let same = first.as_ref().is_none_or(|f| *f == outcome);
                    out.check(same, "run() outcome changed between repetitions");
                }
                first.get_or_insert(outcome);
            }
            Err(e) => out.check(false, &format!("run() failed: {e}")),
        }
    }
    let Some(outcome) = first else {
        return;
    };
    let counts = presented(&cfg, outcome.target_met);
    let wall_p50 = median(&mut walls.clone());
    let tail_q = tail_quantile(walls.len());
    let wall_tail = percentile(&mut walls.clone(), tail_q);

    if let Some((result, traced_s)) = traced {
        let plain_s = walls.iter().sum::<f64>() / walls.len() as f64;
        match result {
            Ok((decomposed, flow_counts)) => {
                out.check(decomposed == outcome, "decomposed flow differs from run()");
                out.check(
                    flow_counts.train_samples == counts.train_samples
                        && flow_counts.infer_samples == counts.infer_samples,
                    "decomposed flow presented a different sample count",
                );
                put_layers(out, &spans, &flow_counts, traced_s, plain_s);
            }
            Err(e) => out.check(false, &format!("decomposed flow failed: {e}")),
        }
        return;
    }

    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    let samples = (counts.train_samples + counts.infer_samples) as f64;
    out.put("throughput_sps", samples / wall_p50, "1/s");
    out.put("latency_p50_ms", wall_p50 * 1e3, "ms");
    out.put("latency_tail_ms", wall_tail * 1e3, "ms");
    print_report(
        "pipeline_n400",
        &[
            ("pipeline_s", wall_p50, "s"),
            (
                "accuracy_op",
                outcome.accuracy_at_operating_point,
                "fraction",
            ),
            (
                "dram_saving_pct",
                outcome.energy.saving_fraction_vs_baseline() * 100.0,
                "%",
            ),
            ("speedup", outcome.energy.speedup(), "x"),
            ("ber_th", outcome.max_tolerable_ber, "fraction"),
            ("runs", walls.len() as f64, "count"),
            ("tail_quantile", tail_q, "fraction"),
            ("setup_s", setup_s, "s"),
            ("failed_frac", out.failed_frac(), "fraction"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    );
}

fn put_layers(out: &mut Outcome, spans: &Spans, counts: &FlowCounts, traced_s: f64, plain_s: f64) {
    for name in [
        "data.generate_s",
        "snn.train_epoch_s",
        "snn.label_s",
        "snn.evaluate_s",
        "snn.plane_rebuild_s",
        "error.inject_s",
        "core.operating_point_s",
        "core.mapping_s",
        "core.energy_eval_s",
    ] {
        out.put(name, spans.get(name), "s");
    }
    out.put(
        "snn.train_sps",
        counts.train_samples as f64 / spans.get("snn.train_epoch_s"),
        "1/s",
    );
    out.put("snn.infer_samples", counts.infer_samples as f64, "count");
    out.put("error.flipped_bits", counts.flipped_bits as f64, "count");
    out.put(
        "pipeline.coverage_pct",
        spans.total() / traced_s * 100.0,
        "%",
    );
    out.put(
        "pipeline.trace_overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presented_counts_match_the_decomposition() {
        let cfg = PipelineConfig::small_demo(42);
        let mut spans = Spans::default();
        let (outcome, counts) = flow::run_traced(&cfg, &mut spans).expect("demo decomposition");
        let expected = presented(&cfg, outcome.target_met);
        assert_eq!(counts.train_samples, expected.train_samples);
        assert_eq!(counts.infer_samples, expected.infer_samples);
    }

    #[test]
    fn paper_n400_presents_6800_inference_samples_when_the_target_is_met() {
        assert_eq!(presented(&config(42), true).infer_samples, 6_800);
        assert_eq!(presented(&config(42), true).train_samples, 6_000);
    }
}
