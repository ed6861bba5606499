//! Experiment drivers reproducing the paper's evaluation.
//!
//! Each driver corresponds to one table/figure of the paper (see the
//! experiment index in README.md, "Reproduction notes"):
//!
//! * [`table1_rows`] — structure comparison (quantified Table 1),
//! * [`table2_row`] — PST/SIG state assignment vs. random encodings
//!   (Table 2),
//! * [`table3_row`] — area of PST/SIG vs. DFF vs. PAT (Table 3),
//! * [`coverage_comparison`] — fault coverage and test length per structure
//!   (the [EsWu 91] "+30 % patterns for PST" claim, experiment E5).

use crate::flow::{AssignmentMethod, SynthesisFlow};
use crate::report::{CoverageComparison, CoverageRow, Table1Row, Table2Row, Table3Row};
use crate::{BistStructure, Campaign, Result};
use stfsm_bist::netlist::Netlist;
use stfsm_encode::misr::MisrAssignmentConfig;
use stfsm_faults::{FaultList, Injection};
use stfsm_fsm::suite::BenchmarkInfo;
use stfsm_fsm::Fsm;
use stfsm_testsim::coverage::{CoverageResult, SimEngine};

/// Parameters shared by the experiment drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of random encodings for the Table 2 baseline (the paper uses
    /// 50).
    pub random_encodings: usize,
    /// Seed for the random-encoding baseline.
    pub seed: u64,
    /// MISR-assignment configuration (beam width etc.).
    pub misr: MisrAssignmentConfig,
    /// Patterns applied in coverage campaigns.
    pub max_patterns: usize,
    /// Target coverage for the test-length comparison.
    pub target_coverage: f64,
    /// Keep only every n-th fault in coverage campaigns (1 = all).
    pub fault_sample: usize,
    /// Fault-simulation engine for coverage campaigns (`Auto` by default;
    /// scalar is the slow differential-testing reference).
    pub engine: SimEngine,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            random_encodings: 50,
            seed: 0xDAC_1991,
            misr: MisrAssignmentConfig::default(),
            max_patterns: 2048,
            target_coverage: 0.95,
            fault_sample: 1,
            engine: SimEngine::default(),
        }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for CI-speed runs: 5 random encodings,
    /// a narrower MISR-assignment search, few patterns.
    pub fn quick() -> Self {
        Self {
            random_encodings: 5,
            misr: MisrAssignmentConfig::fast(),
            max_patterns: 256,
            fault_sample: 2,
            ..Self::default()
        }
    }
}

/// Reproduces one row of Table 2 for a machine: product terms of the
/// heuristic MISR-targeted assignment versus the average and best of
/// `config.random_encodings` random encodings.
///
/// # Errors
///
/// Propagates synthesis errors from any of the runs.
pub fn table2_row(
    fsm: &Fsm,
    info: Option<&BenchmarkInfo>,
    config: &ExperimentConfig,
) -> Result<Table2Row> {
    let mut random_terms: Vec<usize> = Vec::with_capacity(config.random_encodings);
    for i in 0..config.random_encodings {
        let result = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Random {
                seed: config.seed.wrapping_add(i as u64),
            })
            .synthesize(fsm)?;
        random_terms.push(result.product_terms());
    }
    let heuristic = SynthesisFlow::new(BistStructure::Pst)
        .with_misr_config(config.misr.clone())
        .synthesize(fsm)?;

    let random_average = if random_terms.is_empty() {
        0.0
    } else {
        random_terms.iter().sum::<usize>() as f64 / random_terms.len() as f64
    };
    let random_best = random_terms.iter().copied().min().unwrap_or(0);

    Ok(Table2Row {
        benchmark: fsm.name().to_string(),
        states: fsm.state_count(),
        random_count: config.random_encodings,
        random_average,
        random_best,
        heuristic: heuristic.product_terms(),
        paper_random_average: info.map(|i| i.paper.random_avg_terms),
        paper_random_best: info.map(|i| i.paper.random_best_terms),
        paper_heuristic: info.map(|i| i.paper.pst_sig_terms),
    })
}

/// Reproduces one row of Table 3 for a machine: product terms and literal
/// estimates of the PST/SIG, DFF and PAT solutions.
///
/// # Errors
///
/// Propagates synthesis errors from any of the runs.
pub fn table3_row(
    fsm: &Fsm,
    info: Option<&BenchmarkInfo>,
    config: &ExperimentConfig,
) -> Result<Table3Row> {
    let pst = SynthesisFlow::new(BistStructure::Pst)
        .with_misr_config(config.misr.clone())
        .synthesize(fsm)?;
    let dff = SynthesisFlow::new(BistStructure::Dff).synthesize(fsm)?;
    let pat = SynthesisFlow::new(BistStructure::Pat).synthesize(fsm)?;

    Ok(Table3Row {
        benchmark: fsm.name().to_string(),
        product_terms: [
            pst.product_terms(),
            dff.product_terms(),
            pat.product_terms(),
        ],
        literals: [pst.literals(), dff.literals(), pat.literals()],
        paper_product_terms: info
            .map(|i| [i.paper.pst_sig_terms, i.paper.dff_terms, i.paper.pat_terms]),
        paper_literals: info.map(|i| {
            [
                i.paper.pst_sig_literals,
                i.paper.dff_literals,
                i.paper.pat_literals,
            ]
        }),
    })
}

/// The stuck-at campaign of the coverage experiments: the collapsed fault
/// list with every `fault_sample`-th fault kept.
fn stuck_at_coverage(netlist: &Netlist, config: &ExperimentConfig) -> CoverageResult {
    let faults: Vec<Injection> = FaultList::collapsed(netlist)
        .sampled(config.fault_sample)
        .faults()
        .iter()
        .map(|&f| f.into())
        .collect();
    Campaign::new(netlist)
        .engine(config.engine)
        .patterns(config.max_patterns)
        .seed(config.seed)
        .faults("stuck_at", faults)
        .run()
        .coverage(0)
}

/// Synthesizes a machine for every structure and reports the quantified
/// Table 1 metrics (optionally including a fault-coverage campaign).
///
/// # Errors
///
/// Propagates synthesis errors from any of the runs.
pub fn table1_rows(
    fsm: &Fsm,
    config: &ExperimentConfig,
    with_coverage: bool,
) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::with_capacity(BistStructure::ALL.len());
    for structure in BistStructure::ALL {
        let result = SynthesisFlow::new(structure)
            .with_misr_config(config.misr.clone())
            .synthesize(fsm)?;
        let (fault_coverage, test_length) = if with_coverage {
            let campaign = stuck_at_coverage(&result.netlist, config);
            (
                Some(campaign.fault_coverage()),
                campaign.test_length_for_coverage(config.target_coverage),
            )
        } else {
            (None, None)
        };
        rows.push(Table1Row {
            benchmark: fsm.name().to_string(),
            structure: structure.name().to_string(),
            product_terms: result.metrics.product_terms,
            literals: result.metrics.factored_literals,
            storage_bits: result.metrics.storage_bits,
            control_signals: result.metrics.control_signals,
            xor_gates: result.metrics.xor_gates_in_path,
            mode_multiplexers: result.metrics.mode_multiplexers,
            dynamic_fault_detection: result.metrics.detects_system_dynamic_faults,
            fault_coverage,
            test_length,
        });
    }
    Ok(rows)
}

/// Runs the fault-coverage / test-length comparison of experiment E5 for all
/// four structures of one machine.
///
/// # Errors
///
/// Propagates synthesis errors from any of the runs.
pub fn coverage_comparison(fsm: &Fsm, config: &ExperimentConfig) -> Result<CoverageComparison> {
    let mut rows = Vec::new();
    for structure in BistStructure::ALL {
        let result = SynthesisFlow::new(structure)
            .with_misr_config(config.misr.clone())
            .synthesize(fsm)?;
        let campaign = stuck_at_coverage(&result.netlist, config);
        rows.push(CoverageRow {
            structure: structure.name().to_string(),
            total_faults: campaign.total_faults,
            detected_faults: campaign.detected_faults,
            coverage: campaign.fault_coverage(),
            test_length: campaign.test_length_for_coverage(config.target_coverage),
        });
    }
    Ok(CoverageComparison {
        benchmark: fsm.name().to_string(),
        target_coverage: config.target_coverage,
        rows,
    })
}

/// Formats Table 2 rows as an aligned text table (paper values in
/// parentheses when available).
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "benchmark     states  avg-random  best-random  heuristic   (paper: avg / best / heur)\n",
    );
    for r in rows {
        let paper = match (
            r.paper_random_average,
            r.paper_random_best,
            r.paper_heuristic,
        ) {
            (Some(a), Some(b), Some(h)) => format!("({a:.1} / {b} / {h})"),
            _ => String::from("(-)"),
        };
        out.push_str(&format!(
            "{:<13} {:>6} {:>11.1} {:>12} {:>10}   {}\n",
            r.benchmark, r.states, r.random_average, r.random_best, r.heuristic, paper
        ));
    }
    out
}

/// Formats Table 3 rows as an aligned text table.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "benchmark     terms PST/SIG  DFF  PAT   literals PST/SIG  DFF  PAT   (paper terms)\n",
    );
    for r in rows {
        let paper = match r.paper_product_terms {
            Some([a, b, c]) => format!("({a} / {b} / {c})"),
            None => String::from("(-)"),
        };
        out.push_str(&format!(
            "{:<13} {:>13} {:>4} {:>4} {:>18} {:>4} {:>4}   {}\n",
            r.benchmark,
            r.product_terms[0],
            r.product_terms[1],
            r.product_terms[2],
            r.literals[0],
            r.literals[1],
            r.literals[2],
            paper
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfsm_fsm::suite::{benchmark, fig3_example, modulo12_exact};

    #[test]
    fn table2_quick_run_preserves_the_ordering() {
        let fsm = modulo12_exact().unwrap();
        let row = table2_row(&fsm, None, &ExperimentConfig::quick()).unwrap();
        assert_eq!(row.random_count, 5);
        assert!(row.random_best as f64 <= row.random_average + 1e-9);
        assert!(row.heuristic > 0);
    }

    #[test]
    fn table3_quick_run_produces_all_columns() {
        let fsm = fig3_example().unwrap();
        let info = benchmark("dk512");
        let row = table3_row(&fsm, info, &ExperimentConfig::quick()).unwrap();
        assert!(row.product_terms.iter().all(|&t| t > 0));
        assert!(row.literals.iter().all(|&l| l > 0));
        assert!(row.paper_product_terms.is_some());
        assert!(row.pst_overhead_terms() > 0.0);
    }

    #[test]
    fn table1_rows_cover_all_structures() {
        let fsm = fig3_example().unwrap();
        let rows = table1_rows(&fsm, &ExperimentConfig::quick(), false).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.fault_coverage.is_none()));
        let names: Vec<&str> = rows.iter().map(|r| r.structure.as_str()).collect();
        assert_eq!(names, vec!["DFF", "PAT", "SIG", "PST"]);
    }

    #[test]
    fn coverage_comparison_runs_quickly_on_the_example() {
        let fsm = fig3_example().unwrap();
        let cmp = coverage_comparison(&fsm, &ExperimentConfig::quick()).unwrap();
        assert_eq!(cmp.rows.len(), 4);
        for row in &cmp.rows {
            assert!(row.coverage > 0.5, "{}: {}", row.structure, row.coverage);
        }
    }

    #[test]
    fn formatting_contains_benchmark_names() {
        let fsm = fig3_example().unwrap();
        let cfg = ExperimentConfig::quick();
        let t2 = vec![table2_row(&fsm, None, &cfg).unwrap()];
        let t3 = vec![table3_row(&fsm, None, &cfg).unwrap()];
        assert!(format_table2(&t2).contains("fig3"));
        assert!(format_table3(&t3).contains("fig3"));
    }
}
