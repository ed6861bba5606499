//! Integration tests of the testability claims: fault coverage of the
//! self-test per structure, reachability preservation of the PST structure,
//! and the relative test-length behaviour.

use stfsm::bist::netlist::Netlist;
use stfsm::experiments::{coverage_comparison, ExperimentConfig};
use stfsm::faults::{FaultList, Injection, StuckAt};
use stfsm::fsm::suite::{fig3_example, modulo12_exact, quick_benchmarks, traffic_light};
use stfsm::lfsr::Misr;
use stfsm::testsim::coverage::{CampaignConfig, CoverageResult, SimEngine, StateStimulation};
use stfsm::{BistStructure, Campaign, SynthesisFlow};

/// The collapsed stuck-at campaign over `netlist`.
fn stuck_at(netlist: &Netlist, config: CampaignConfig) -> CoverageResult {
    Campaign::new(netlist)
        .config(config)
        .model(&StuckAt)
        .run()
        .coverage(0)
}

#[test]
fn self_test_reaches_high_stuck_at_coverage_on_small_machines() {
    for fsm in [fig3_example().unwrap(), modulo12_exact().unwrap()] {
        for structure in [BistStructure::Dff, BistStructure::Pst] {
            let result = SynthesisFlow::new(structure).synthesize(&fsm).unwrap();
            let campaign = stuck_at(
                &result.netlist,
                CampaignConfig {
                    max_patterns: 1024,
                    ..CampaignConfig::default()
                },
            );
            assert!(
                campaign.fault_coverage() > 0.9,
                "{} / {structure}: coverage {}",
                fsm.name(),
                campaign.fault_coverage()
            );
        }
    }
}

#[test]
fn packed_engine_matches_scalar_on_every_suite_machine_and_structure() {
    // The packed 64-way engine must be indistinguishable from the scalar
    // reference — same detection pattern vector, same curve, same totals —
    // on every machine of the benchmark suite and every BIST structure.
    let mut machines = vec![
        fig3_example().unwrap(),
        modulo12_exact().unwrap(),
        traffic_light().unwrap(),
    ];
    for info in quick_benchmarks() {
        machines.push(info.fsm().unwrap());
    }
    for fsm in &machines {
        for structure in BistStructure::ALL {
            let Ok(result) = SynthesisFlow::new(structure).synthesize(fsm) else {
                // Some structures reject some machines (e.g. PAT needs an
                // overlappable transition chain); nothing to compare then.
                continue;
            };
            let faults: Vec<Injection> = FaultList::collapsed(&result.netlist)
                .sampled(2)
                .faults()
                .iter()
                .map(|&f| f.into())
                .collect();
            let run = |engine| {
                Campaign::new(&result.netlist)
                    .engine(engine)
                    .patterns(192)
                    .faults("stuck_at", faults.clone())
                    .run()
                    .coverage(0)
            };
            let scalar = run(SimEngine::Scalar);
            let packed = run(SimEngine::Packed);
            assert_eq!(
                scalar,
                packed,
                "engines disagree on {} / {structure}",
                fsm.name()
            );
        }
    }
}

#[test]
fn pst_self_test_keeps_all_system_states_reachable() {
    // Because the PST self-test *is* system operation, every state reachable
    // in system mode stays reachable during the test (Section 2.4).  We check
    // that the fault-free self-test run actually visits every state code of
    // the machine.
    let fsm = modulo12_exact().unwrap();
    let result = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .unwrap();
    let mut sim = stfsm::testsim::Simulator::new(&result.netlist);
    let reset_code = result.encoding.code(fsm.reset_state().unwrap());
    let bits: Vec<bool> = (0..result.encoding.num_bits())
        .map(|b| reset_code.bit(b))
        .collect();
    sim.set_state(&bits);
    let mut visited = std::collections::HashSet::new();
    let mut lcg = 7u64;
    for _ in 0..4096 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Bias towards count-enable so the counter advances often.
        let inputs = vec![!lcg.is_multiple_of(4)];
        sim.evaluate(&inputs);
        sim.clock();
        let code: u64 = sim
            .state()
            .iter()
            .enumerate()
            .map(|(i, &b)| if b { 1u64 << i } else { 0 })
            .sum();
        visited.insert(code);
    }
    for state in 0..fsm.state_count() {
        let code = result.encoding.code(stfsm::fsm::StateId(state));
        assert!(
            visited.contains(&code.value()),
            "state {state} (code {code}) never visited during PST self-test"
        );
    }
}

#[test]
fn pst_needs_no_more_patterns_than_its_own_random_state_variant_by_a_bounded_factor() {
    // The paper quotes ~30% more patterns for PST at equal confidence.  The
    // exact factor depends on the machine; here we only check that the
    // system-state stimulation reaches the target at all and that its test
    // length is within a small multiple of the random-state variant.
    let fsm = traffic_light().unwrap();
    let result = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .unwrap();
    let base = CampaignConfig {
        max_patterns: 4096,
        ..CampaignConfig::default()
    };
    let system = stuck_at(&result.netlist, base.clone());
    let random = stuck_at(
        &result.netlist,
        CampaignConfig {
            stimulation: Some(StateStimulation::RandomState),
            ..base
        },
    );
    let target = 0.90;
    let len_system = system.test_length_for_coverage(target);
    let len_random = random.test_length_for_coverage(target);
    assert!(
        len_random.is_some(),
        "random-state stimulation should reach {target}"
    );
    if let (Some(ls), Some(lr)) = (len_system, len_random) {
        assert!(
            (ls as f64) <= (lr as f64) * 8.0 + 64.0,
            "system-state test length {ls} is unreasonably larger than {lr}"
        );
    }
}

#[test]
fn coverage_comparison_reports_all_structures_and_reasonable_coverage() {
    let fsm = fig3_example().unwrap();
    let cmp = coverage_comparison(
        &fsm,
        &ExperimentConfig {
            max_patterns: 1024,
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    assert_eq!(cmp.rows.len(), 4);
    for row in &cmp.rows {
        assert!(row.total_faults > 0);
        // The PAT structure ignores its register D path during pattern
        // generation, so faults in the mode multiplexers and the LFSR
        // feedback are structurally hard to observe — exactly the kind of
        // coverage compromise the paper attributes to reconfigured
        // registers.  The combinational-logic-dominated structures must
        // reach high coverage.
        if row.structure == "PAT" {
            assert!(row.coverage > 0.4, "{}: {}", row.structure, row.coverage);
        } else {
            assert!(row.coverage > 0.8, "{}: {}", row.structure, row.coverage);
        }
    }
}

#[test]
fn single_bit_response_errors_are_not_masked_by_the_signature_register() {
    // Complements the fault simulation: the MISR itself never aliases a
    // single corrupted response word (error polynomial with one term).
    let fsm = traffic_light().unwrap();
    let result = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .unwrap();
    let misr = Misr::new(result.feedback).unwrap();
    let width = result.encoding.num_bits();
    let zero = stfsm::lfsr::Gf2Vec::zero(width).unwrap();
    let stream: Vec<stfsm::lfsr::Gf2Vec> = (0..32u64)
        .map(|i| stfsm::lfsr::Gf2Vec::from_value(i * 0x9E37 % (1 << width), width).unwrap())
        .collect();
    let reference = misr.signature(zero, &stream).unwrap();
    for pos in 0..stream.len() {
        for bit in 0..width {
            let mut corrupted = stream.clone();
            let mut w = corrupted[pos];
            w.set_bit(bit, !w.bit(bit));
            corrupted[pos] = w;
            assert_ne!(misr.signature(zero, &corrupted).unwrap(), reference);
        }
    }
}
