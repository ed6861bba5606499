//! Integration tests over the benchmark suite: every named benchmark of the
//! paper can be generated, assigned and synthesized (at reduced scale for the
//! largest machines so the suite stays fast in debug builds).

use stfsm::experiments::{table2_row, table3_row, ExperimentConfig};
use stfsm::fsm::suite::{benchmark, quick_benchmarks, BENCHMARKS};
use stfsm::logic::espresso::verify;
use stfsm::{BistStructure, SynthesisFlow};

#[test]
fn all_paper_benchmarks_are_present_with_paper_numbers() {
    assert_eq!(BENCHMARKS.len(), 13);
    for info in BENCHMARKS {
        assert!(info.paper.pst_sig_terms > 0, "{}", info.name);
        assert!(info.paper.dff_terms > 0, "{}", info.name);
        assert!(info.paper.pat_terms > 0, "{}", info.name);
        assert!(info.states >= 12, "{}", info.name);
    }
    for name in ["dk16", "kirkman", "planet", "scf", "tbk"] {
        assert!(benchmark(name).is_some(), "{name} missing from the suite");
    }
}

#[test]
fn quick_benchmarks_synthesize_for_pst_at_reduced_scale() {
    let config = ExperimentConfig::quick();
    for info in quick_benchmarks().into_iter().take(4) {
        let fsm = info.fsm_scaled(0.5).unwrap();
        let result = SynthesisFlow::new(BistStructure::Pst)
            .with_misr_config(config.misr.clone())
            .synthesize(&fsm)
            .unwrap();
        assert!(verify(&result.pla, &result.cover), "{}", info.name);
        assert!(result.product_terms() > 0);
    }
}

#[test]
fn table2_ordering_holds_on_a_small_benchmark() {
    let info = benchmark("dk512").unwrap();
    let fsm = info.fsm().unwrap();
    let row = table2_row(&fsm, Some(info), &ExperimentConfig::quick()).unwrap();
    // The heuristic optimizes the surrogate cost, so it should at least not
    // be dramatically worse than the random baseline on this small machine.
    assert!(
        (row.heuristic as f64) <= row.random_average * 1.15 + 2.0,
        "heuristic {} vs random average {}",
        row.heuristic,
        row.random_average
    );
    assert!(row.paper_heuristic.is_some());
}

#[test]
fn table3_shape_holds_on_a_small_benchmark() {
    let info = benchmark("modulo12").unwrap();
    let fsm = stfsm::fsm::suite::modulo12_exact().unwrap();
    let row = table3_row(&fsm, Some(info), &ExperimentConfig::quick()).unwrap();
    // The PAT structure exploits the LFSR overlap, so it must not need more
    // terms than the DFF solution (paper: 9 vs 13).
    assert!(
        row.product_terms[2] <= row.product_terms[1],
        "PAT {} vs DFF {}",
        row.product_terms[2],
        row.product_terms[1]
    );
    // The PST/SIG solution stays within a factor ~2 of the DFF solution
    // (paper: 13 vs 13 for this machine).
    assert!(
        row.pst_overhead_terms() <= 2.0,
        "PST/SIG overhead {}",
        row.pst_overhead_terms()
    );
}

#[test]
fn scaled_generation_is_monotone_in_state_count() {
    let info = benchmark("planet").unwrap();
    let small = info.fsm_scaled(0.2).unwrap();
    let large = info.fsm_scaled(0.6).unwrap();
    assert!(small.state_count() < large.state_count());
    assert!(large.state_count() <= info.states);
    assert_eq!(small.num_inputs(), info.inputs);
    assert_eq!(large.num_outputs(), info.outputs);
}
