//! Reproduces the (quantified) Table 1: structural comparison of the DFF,
//! PAT, SIG and PST structures including measured fault coverage.
//!
//! ```text
//! cargo run --release -p stfsm-bench --bin table1 [--full]
//! ```

use stfsm::experiments::table1_rows;
use stfsm_bench::{full_flag, selected_benchmarks, table_config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = full_flag();
    let config = table_config(full);
    println!(
        "{:<12} {:<5} {:>6} {:>9} {:>8} {:>5} {:>5} {:>5} {:>10} {:>9} {:>9}",
        "benchmark",
        "struct",
        "terms",
        "literals",
        "storage",
        "ctrl",
        "xor",
        "mux",
        "dyn-fault",
        "coverage",
        "test-len"
    );
    for info in selected_benchmarks(full) {
        let fsm = info.fsm()?;
        let with_coverage = info.states <= 32;
        let rows = table1_rows(&fsm, &config, with_coverage)?;
        for row in rows {
            println!(
                "{:<12} {:<5} {:>6} {:>9} {:>8} {:>5} {:>5} {:>5} {:>10} {:>9} {:>9}",
                row.benchmark,
                row.structure,
                row.product_terms,
                row.literals,
                row.storage_bits,
                row.control_signals,
                row.xor_gates,
                row.mode_multiplexers,
                if row.dynamic_fault_detection {
                    "all"
                } else {
                    "partial"
                },
                row.fault_coverage
                    .map_or_else(|| "-".into(), |c| format!("{:.1}%", c * 100.0)),
                row.test_length
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into())
            );
        }
        println!();
    }
    Ok(())
}
