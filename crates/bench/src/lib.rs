//! Shared helpers of the paper-reproduction binaries (`table1`–`table3`,
//! `coverage`, `ablation`): machine selection by the `--full` flag and the
//! experiment configuration of the tables.
//!
//! The repository's performance benchmark is `perfbench/` (see
//! `BENCHMARK.json`); nothing here is timed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stfsm::encode::misr::MisrAssignmentConfig;
use stfsm::experiments::ExperimentConfig;
use stfsm::fsm::suite::{quick_benchmarks, BenchmarkInfo, BENCHMARKS};

/// The benchmark set selected by a `--full` flag: the whole suite when full,
/// otherwise the small/medium subset.
pub fn selected_benchmarks(full: bool) -> Vec<&'static BenchmarkInfo> {
    if full {
        BENCHMARKS.iter().collect()
    } else {
        quick_benchmarks()
    }
}

/// The experiment configuration used by the table-reproduction binaries.
pub fn table_config(full: bool) -> ExperimentConfig {
    ExperimentConfig {
        random_encodings: if full { 50 } else { 15 },
        misr: MisrAssignmentConfig::default(),
        ..ExperimentConfig::default()
    }
}

/// Returns `true` if the command line of a binary contains `--full`.
pub fn full_flag() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_machines() {
        assert!(selected_benchmarks(false).len() < selected_benchmarks(true).len());
        assert_eq!(table_config(true).random_encodings, 50);
        assert_eq!(table_config(false).random_encodings, 15);
    }
}
