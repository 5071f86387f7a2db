//! The SparkXD repository benchmark.
//!
//! Two workloads drive the workspace crates only through their public
//! API (see `README.md` in this directory for what each one measures and
//! why). This library holds the pieces the workloads share and that can
//! be tested without running a workload: percentile selection, metric
//! naming, the result line, host facts, and the pipeline's stage-by-stage
//! decomposition ([`flow`]).

pub mod flow;
pub mod pipeline;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_sps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Every per-layer metric with its unit. A traced run reports all of
/// them, 0 for a layer its workload never calls.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // pipeline_n400 (data and training also in serve_n400's set-up)
    ("data.generate_s", "s"),
    ("snn.train_epoch_s", "s"),
    ("snn.train_sps", "1/s"),
    ("snn.label_s", "s"),
    ("snn.evaluate_s", "s"),
    ("snn.infer_samples", "count"),
    ("snn.plane_rebuild_s", "s"),
    ("error.inject_s", "s"),
    ("error.flipped_bits", "count"),
    ("core.operating_point_s", "s"),
    ("core.mapping_s", "s"),
    ("core.energy_eval_s", "s"),
    ("pipeline.coverage_pct", "%"),
    ("pipeline.trace_overhead_pct", "%"),
    // serve_n400's engine probe (pool counts on both workloads)
    ("snn.run_batch_ms_p50", "ms"),
    ("snn.run_batch_ms_p99", "ms"),
    ("snn.serial_sps", "1/s"),
    ("snn.parallel_eff", "ratio"),
    ("snn.spikes_per_sample", "count"),
    ("pool.busy_peak", "count"),
    ("pool.dispatches", "count"),
    // serve_n400
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.chunk_fill.paced", "ratio"),
    ("serve.chunk_fill.burst", "ratio"),
    ("serve.dram_mj_per_req", "mJ"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.tier_hits.0", "count"),
    ("serve.tier_hits.1", "count"),
    ("serve.tier_hits.2", "count"),
    ("core.build_tier_s", "s"),
];

/// The tail percentiles a timing may be reported at, highest first.
pub const TAIL_QUANTILES: [f64; 4] = [0.99, 0.95, 0.9, 0.5];

/// Samples a reported percentile must have beyond it.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_QUANTILES`] with at least
/// [`SAMPLES_BEYOND`] of `n` samples above it. With fewer than 20 samples
/// (a handful of long runs) no tail can be resolved and the median
/// stands in for it.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| n.saturating_sub(rank(q, n)) >= SAMPLES_BEYOND)
        .unwrap_or(0.5)
}

/// 1-based nearest rank of percentile `q` among `n` samples; the small
/// slack keeps e.g. `0.9 × 100` at rank 90 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` of `values` (sorted in place); 0 when
/// empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[rank(q, values.len()) - 1]
}

/// Median of `values` (nearest rank, so an even count takes the lower
/// middle); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median over windows of each window's tail (by [`tail_quantile`]),
/// for `(window, value)` samples; windows too small to resolve a tail
/// are skipped. One stall of the host then moves one window's tail, not
/// the figure, which a single tail over the whole run would take up.
pub fn windowed_tail(samples: &[(u64, f64)]) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(window, value) in samples {
        windows.entry(window).or_default().push(value);
    }
    let mut tails: Vec<f64> = windows
        .into_values()
        .filter(|v| v.len() >= 2 * SAMPLES_BEYOND)
        .map(|mut v| {
            let q = tail_quantile(v.len());
            percentile(&mut v, q)
        })
        .collect();
    median(&mut tails)
}

/// Whether `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value, reported with every digit.
    pub value: f64,
    /// Its unit (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: String,
}

/// The result line a run prints last.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Operations attempted (at least 1 for a valid result).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a non-finite value: both are bugs in
    /// the benchmark, never a measurement.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one check, failed when `ok` is false; reports the failure
    /// on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result. `f64`'s `Display` prints the shortest
    /// decimal that parses back to the same value, never with an exponent,
    /// so no digit is lost.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escapes `s` as a JSON string body.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock accumulators keyed by layer metric name: the benchmark's
/// own spans around the public calls it makes.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f`, adding its wall time to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Adds `secs` to `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.secs.entry(name).or_insert(0.0) += secs;
    }

    /// Seconds recorded under `name` (0 when never timed).
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Seconds recorded under every name.
    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }
}

/// Host facts recorded with every result: the numbers depend on them.
pub fn host_json(workload: &str, seed: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SPARKXD_"))
        .collect();
    vars.sort();
    let vars = vars
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"avx2\": {avx2}, \"git_rev\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"telemetry\": {}, \
         \"sparkxd_env\": {{{vars}}}}}}}",
        json_string(&rev),
        json_string(workload),
        json_string(sparkxd_telemetry::mode().as_str()),
    )
}

/// Prints the workload's human-facing figures, by name and unit, as one
/// JSON line ahead of the result line.
pub fn print_report(workload: &str, figures: &[(&str, f64, &str)]) {
    let body = figures
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"report\": {}, \"figures\": {{{body}}}}}",
        json_string(workload)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(3), 0.5, "a few long runs report the median");
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(1_000_000), 0.99);
        for n in [20, 100, 200, 1000, 5000] {
            let q = tail_quantile(n);
            let beyond = n - rank(q, n);
            assert!(beyond >= SAMPLES_BEYOND, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
        let mut many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut many, tail_quantile(1000)), 990.0);
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // Three 1000-sample windows whose p99 is 990; a stall then
        // delays the last 50 samples of the middle one.
        let mut samples: Vec<(u64, f64)> = (0..3)
            .flat_map(|w| (1..=1000).map(move |v| (w, f64::from(v))))
            .collect();
        assert_eq!(windowed_tail(&samples), 990.0);
        for s in &mut samples[1950..2000] {
            s.1 += 1e6;
        }
        assert_eq!(windowed_tail(&samples), 990.0);
        let mut whole: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert!(
            percentile(&mut whole, 0.99) > 1e6,
            "one tail takes the stall up"
        );
        assert_eq!(windowed_tail(&samples[..15]), 0.0, "too few to resolve");
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "snn.train_epoch_s",
            "serve.tier_hits.0",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        let mut names: Vec<&str> = LAYER_METRICS
            .iter()
            .chain(END_TO_END)
            .map(|m| m.0)
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            LAYER_METRICS.len() + END_TO_END.len(),
            "names repeat"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn outcome_refuses_a_bad_name() {
        Outcome::default().put("bad name", 1.0, "s");
    }

    /// Parses the flat result line back: the inverse of
    /// [`Outcome::to_json`] for the shapes it prints.
    fn parse(line: &str) -> (bool, u64, u64, Vec<(String, f64, String)>) {
        let field = |key: &str| {
            let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
            let rest = &line[start..];
            rest[..rest.find([',', '}']).unwrap()].trim().to_string()
        };
        let metrics_at = line.find("\"metrics\": {").unwrap() + 12;
        let mut metrics = Vec::new();
        let mut rest = &line[metrics_at..];
        while let Some(open) = rest.find('"') {
            let close = open + 1 + rest[open + 1..].find('"').unwrap();
            let name = rest[open + 1..close].to_string();
            let v_at = close + rest[close..].find("\"value\": ").unwrap() + 9;
            let v_end = v_at + rest[v_at..].find(',').unwrap();
            let value: f64 = rest[v_at..v_end].parse().unwrap();
            let u_at = v_end + rest[v_end..].find("\"unit\": \"").unwrap() + 9;
            let u_end = u_at + rest[u_at..].find('"').unwrap();
            metrics.push((name, value, rest[u_at..u_end].to_string()));
            rest = &rest[u_end + 1..];
        }
        (
            field("correct") == "true",
            field("attempted").parse().unwrap(),
            field("failed").parse().unwrap(),
            metrics,
        )
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let mut out = Outcome::default();
        out.tally(1000, 0);
        let values = [
            1.2034,
            0.1 + 0.2,
            1e-9,
            123_456_789.123_456_78,
            7.0,
            2.5e-300,
        ];
        let names = ["latency_p50_ms", "setup_s", "a.b", "c-d", "e_f", "g"];
        for (name, v) in names.iter().zip(values) {
            out.put(name, v, "ms");
        }
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let (correct, attempted, failed, metrics) = parse(&line);
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(metrics.len(), names.len());
        for (name, value, unit) in metrics {
            let want = out.metrics[&name].value;
            assert_eq!(value.to_bits(), want.to_bits(), "{name}");
            assert_eq!(unit, "ms");
        }
        out.tally(1, 1);
        assert!(
            !parse(&out.to_json()).0,
            "a failure makes the run incorrect"
        );
        assert!((out.failed_frac() - 1.0 / 1001.0).abs() < 1e-15);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
