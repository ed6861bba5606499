//! Reproduces experiment E5: fault coverage and test length of the self-test
//! per structure (the quantified "test length" / "fault coverage" rows of
//! Table 1 and the ≈ +30 % PST test-length claim of [EsWu 91]).
//!
//! ```text
//! cargo run --release -p stfsm-bench --bin coverage [--full]
//! ```
//!
//! A second table gives the coverage of every fault model of `all_models()`
//! per machine and structure: one campaign per netlist with one section per
//! model (collapsed lists, default seed and engine, 1024 patterns).

use stfsm::experiments::{coverage_comparison, ExperimentConfig};
use stfsm::faults::all_models;
use stfsm::{BistStructure, CoverageObserver, SynthesisFlow};
use stfsm_bench::{full_flag, selected_benchmarks, table_config};

/// Patterns of the per-model campaigns.
const MODEL_PATTERNS: usize = 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = full_flag();
    let base = table_config(full);
    let config = ExperimentConfig {
        max_patterns: 4096,
        fault_sample: if full { 1 } else { 2 },
        ..base
    };
    for info in selected_benchmarks(full)
        .into_iter()
        .filter(|i| i.states <= 32)
    {
        let fsm = info.fsm()?;
        eprintln!("coverage: {} ({} states)", info.name, info.states);
        let cmp = coverage_comparison(&fsm, &config)?;
        println!(
            "{} (target {:.0}% coverage, {} patterns):",
            cmp.benchmark,
            cmp.target_coverage * 100.0,
            config.max_patterns
        );
        for row in &cmp.rows {
            println!(
                "  {:<4} faults {:>5}  detected {:>5}  coverage {:>6.2}%  test-length {}",
                row.structure,
                row.total_faults,
                row.detected_faults,
                row.coverage * 100.0,
                row.test_length
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into())
            );
        }
        if let Some(ratio) = cmp.pst_vs_dff_test_length_ratio() {
            println!("  PST/DFF test-length ratio: {ratio:.2} (paper: ~1.3)");
        }
        println!();
    }

    println!("coverage per fault model ({MODEL_PATTERNS} patterns):");
    println!(
        "{:<10} {:<6} {:<11} {:>7} {:>9} {:>9}",
        "machine", "struct", "model", "faults", "detected", "coverage"
    );
    let models = all_models();
    for info in selected_benchmarks(full) {
        let fsm = info.fsm()?;
        for structure in BistStructure::ALL {
            let result = SynthesisFlow::new(structure).synthesize(&fsm)?;
            let mut campaign = result.campaign().patterns(MODEL_PATTERNS);
            for model in &models {
                campaign = campaign.faults(model.name(), model.fault_list(&result.netlist, true));
            }
            let mut coverage = CoverageObserver::new();
            campaign.observe(&mut coverage).run();
            for (model, row) in coverage.results() {
                println!(
                    "{:<10} {:<6} {:<11} {:>7} {:>9} {:>8.1}%",
                    info.name,
                    structure.name(),
                    model,
                    row.total_faults,
                    row.detected_faults,
                    row.fault_coverage() * 100.0
                );
            }
        }
    }
    Ok(())
}
