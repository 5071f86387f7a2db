//! Rendering of a [`TelemetrySnapshot`] as the bench harness's
//! [`TextTable`], for the `repro_all` / `nightly_n400` / `serve_load`
//! job summaries. Lives here rather than in `sparkxd-telemetry` because
//! the telemetry crate is a leaf (everything depends on it) and must not
//! pull the bench table type in.

use crate::table::TextTable;
use sparkxd_telemetry::TelemetrySnapshot;

/// Renders `snapshot` as one combined counters/gauges/histograms/spans
/// table, or `None` when nothing was recorded (telemetry off).
pub fn telemetry_table(snapshot: &TelemetrySnapshot) -> Option<String> {
    if snapshot.is_empty() {
        return None;
    }
    let mut table = TextTable::new(vec![
        "metric".to_string(),
        "kind".to_string(),
        "count".to_string(),
        "total".to_string(),
        "p50".to_string(),
        "max".to_string(),
    ]);
    for (name, value) in &snapshot.counters {
        table.row(vec![
            name.clone(),
            "counter".to_string(),
            value.to_string(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    for (name, value) in &snapshot.gauges {
        table.row(vec![
            name.clone(),
            "gauge".to_string(),
            String::new(),
            value.to_string(),
            String::new(),
            String::new(),
        ]);
    }
    for h in &snapshot.histograms {
        table.row(vec![
            h.name.clone(),
            "hist".to_string(),
            h.count.to_string(),
            h.sum.to_string(),
            h.p50.to_string(),
            h.max.to_string(),
        ]);
    }
    for s in &snapshot.spans {
        table.row(vec![
            s.name.clone(),
            "span".to_string(),
            s.count.to_string(),
            format!("{:.3}ms", s.total_ns as f64 / 1e6),
            format!("{:.3}ms", s.p50_ns as f64 / 1e6),
            format!("{:.3}ms", s.max_ns as f64 / 1e6),
        ]);
    }
    Some(table.render())
}

/// Captures the live registry and renders it; `None` when telemetry is
/// off or nothing has been recorded. The one-call form the repro/serve
/// binaries append to their summaries.
pub fn telemetry_summary() -> Option<String> {
    telemetry_table(&TelemetrySnapshot::capture())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_telemetry::{HistogramSnapshot, SpanSnapshot};

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            mode: "spans".to_string(),
            counters: vec![("pool.dispatches".to_string(), 12)],
            gauges: vec![("pool.busy_peak".to_string(), 4)],
            histograms: vec![HistogramSnapshot {
                name: "dram.bus_busy_ns".to_string(),
                count: 3,
                sum: 120,
                p50: 40,
                p99: 60,
                max: 60,
            }],
            spans: vec![SpanSnapshot {
                name: "pipeline.data".to_string(),
                count: 1,
                total_ns: 2_500_000,
                p50_ns: 2_500_000,
                max_ns: 2_500_000,
            }],
            dropped_events: 0,
        }
    }

    #[test]
    fn table_lists_every_metric_kind() {
        let rendered = telemetry_table(&sample()).expect("non-empty snapshot renders");
        for needle in [
            "pool.dispatches",
            "counter",
            "pool.busy_peak",
            "gauge",
            "dram.bus_busy_ns",
            "hist",
            "pipeline.data",
            "span",
            "2.500ms",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }

    #[test]
    fn empty_snapshot_renders_nothing() {
        let empty = TelemetrySnapshot {
            mode: "off".to_string(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            dropped_events: 0,
        };
        assert!(telemetry_table(&empty).is_none());
    }
}
