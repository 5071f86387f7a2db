//! # sparkxd-bench
//!
//! The benchmark harness of the SparkXD reproduction: one module per paper
//! table/figure, each with a `run(...)` function returning structured data
//! and a `print(...)` helper emitting the same rows/series the paper
//! reports. The `src/bin/` binaries wrap these modules (`fig02b`, `fig11`,
//! `repro_all`, …) and the Criterion benches in `benches/` time their
//! computational kernels.
//!
//! Accuracy experiments accept an [`Scale`]: the default
//! [`Scale::demo`] runs CPU-sized networks (N50–N200, hundreds of samples)
//! so the whole suite regenerates in minutes; [`Scale::paper`] switches to
//! the paper's N400–N3600 at full sample counts (hours of CPU). Energy
//! experiments always use the paper's exact network sizes — they replay
//! weight-streaming traces and need no training.

pub mod experiments;
pub mod report;
pub mod scale;
pub mod table;
pub mod telemetry_report;

pub use report::{append_job_summary, paper_sections, run_sections, run_sections_with, Section};
pub use scale::Scale;
pub use table::TextTable;
pub use telemetry_report::{telemetry_summary, telemetry_table};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_distinct_sizes() {
        assert_ne!(Scale::demo().network_sizes, Scale::paper().network_sizes);
    }
}
