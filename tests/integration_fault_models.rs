//! Cross-crate integration tests of the fault-model subsystem: for every
//! benchmark of the quick suite and every fault model, the scalar, packed
//! and multi-worker differential engines must produce identical
//! `CoverageResult`s; the fault dictionary must agree with the campaign;
//! degenerate campaigns must be total.

use stfsm::bist::netlist::Netlist;
use stfsm::faults::{
    all_models, Bridging, FaultList, FaultModel, Injection, StuckAt, TransitionDelay,
};
use stfsm::testsim::coverage::{CampaignConfig, CoverageResult, SimEngine};
use stfsm::{BistStructure, Campaign, DictionaryObserver, SynthesisFlow};

/// A one-section coverage campaign over `faults`.
fn coverage(netlist: &Netlist, faults: &[Injection], config: &CampaignConfig) -> CoverageResult {
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .run()
        .coverage(0)
}

fn quick_netlists() -> Vec<(String, stfsm::bist::netlist::Netlist)> {
    let mut netlists = Vec::new();
    for info in stfsm::fsm::suite::quick_benchmarks() {
        let fsm = info.fsm().expect("generator succeeds");
        for structure in [BistStructure::Dff, BistStructure::Pst] {
            let netlist = SynthesisFlow::new(structure)
                .synthesize(&fsm)
                .expect("synthesis succeeds")
                .netlist;
            netlists.push((format!("{}/{structure}", info.name), netlist));
        }
    }
    netlists
}

/// The satellite differential guarantee: scalar vs packed vs five-worker
/// differential on every model across the benchmark suite.
#[test]
fn every_engine_agrees_for_every_model_across_the_suite() {
    let config = CampaignConfig {
        max_patterns: 128,
        ..CampaignConfig::default()
    };
    for (name, netlist) in quick_netlists() {
        for model in all_models() {
            let faults = model.fault_list(&netlist, true);
            assert!(
                !faults.is_empty(),
                "{}: {} finds faults",
                name,
                model.name()
            );
            let scalar = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Scalar,
                    ..config.clone()
                },
            );
            let packed = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Packed,
                    ..config.clone()
                },
            );
            let threaded = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Differential,
                    threads: 5,
                    ..config.clone()
                },
            );
            assert_eq!(
                scalar,
                packed,
                "scalar vs packed: {} {}",
                name,
                model.name()
            );
            assert_eq!(
                packed,
                threaded,
                "packed vs threaded: {} {}",
                name,
                model.name()
            );
        }
    }
}

/// The stuck-at model enumerates exactly the classic stuck-at universe:
/// `FaultList::collapsed` or `FaultList::full`, in the same order.
#[test]
fn stuck_at_model_matches_the_classic_self_test() {
    for (name, netlist) in quick_netlists() {
        for collapse in [true, false] {
            let classic = if collapse {
                FaultList::collapsed(&netlist)
            } else {
                FaultList::full(&netlist)
            };
            let classic: Vec<Injection> = classic.faults().iter().map(|&f| f.into()).collect();
            assert_eq!(
                StuckAt.fault_list(&netlist, collapse),
                classic,
                "{name} collapse={collapse}"
            );
        }
    }
}

/// Thread count must never change results — only wall-clock time.
#[test]
fn threaded_results_are_independent_of_the_thread_count() {
    let fsm = stfsm::fsm::suite::modulo12_exact().expect("fixed machine");
    let netlist = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .expect("synthesis succeeds")
        .netlist;
    let faults = TransitionDelay.fault_list(&netlist, true);
    let reference = coverage(
        &netlist,
        &faults,
        &CampaignConfig {
            max_patterns: 256,
            ..CampaignConfig::default()
        },
    );
    for threads in [1, 2, 3, 7, 16, 64] {
        let threaded = coverage(
            &netlist,
            &faults,
            &CampaignConfig {
                max_patterns: 256,
                engine: SimEngine::Differential,
                threads,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(reference, threaded, "{threads} threads");
    }
}

/// The dictionary's first-detect column is the campaign's detection
/// pattern, for every model.
#[test]
fn dictionaries_agree_with_campaigns() {
    let fsm = stfsm::fsm::suite::fig3_example().expect("fixed machine");
    let netlist = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .expect("synthesis succeeds")
        .netlist;
    for model in all_models() {
        let faults = model.fault_list(&netlist, true);
        let campaign = Campaign::new(&netlist)
            .patterns(256)
            .faults("faults", faults.clone())
            .run()
            .coverage(0);
        let mut dictionaries = DictionaryObserver::new();
        Campaign::new(&netlist)
            .patterns(256)
            .faults("faults", faults.clone())
            .observe(&mut dictionaries)
            .run();
        let dictionary = dictionaries.dictionary().expect("one section");
        assert_eq!(dictionary.entries.len(), faults.len());
        for (entry, expected) in dictionary.entries.iter().zip(&campaign.detection_pattern) {
            assert_eq!(entry.first_detect, *expected, "{}", model.name());
        }
        assert_eq!(dictionary.detected_count(), campaign.detected_faults);
    }
}

/// Degenerate campaigns are total across the public entry points.
#[test]
fn degenerate_campaigns_return_zero_coverage() {
    let fsm = stfsm::fsm::suite::fig3_example().expect("fixed machine");
    let netlist = SynthesisFlow::new(BistStructure::Dff)
        .synthesize(&fsm)
        .expect("synthesis succeeds")
        .netlist;
    for (engine, threads) in [
        (SimEngine::Scalar, 1),
        (SimEngine::Packed, 1),
        (SimEngine::Differential, 2),
    ] {
        let no_patterns = Campaign::new(&netlist)
            .engine(engine)
            .threads(threads)
            .patterns(0)
            .model(&StuckAt)
            .run()
            .coverage(0);
        assert_eq!(no_patterns.detected_faults, 0);
        assert_eq!(no_patterns.fault_coverage(), 0.0);
        assert!(no_patterns.test_length_for_coverage(0.9).is_none());

        let no_faults = coverage(
            &netlist,
            &[],
            &CampaignConfig {
                max_patterns: 32,
                engine,
                threads,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(no_faults.total_faults, 0);
        assert_eq!(no_faults.fault_coverage(), 0.0);
    }
}

/// Every model's faults display readably (the dictionary and report names).
#[test]
fn fault_names_are_readable() {
    let fsm = stfsm::fsm::suite::fig3_example().expect("fixed machine");
    let netlist = SynthesisFlow::new(BistStructure::Dff)
        .synthesize(&fsm)
        .expect("synthesis succeeds")
        .netlist;
    for model in all_models() {
        for injection in model.fault_list(&netlist, true) {
            let name = injection.to_string();
            assert!(
                name.contains("net") || name.contains("gate"),
                "{name} names its site"
            );
            assert!(
                name.contains("/SA")
                    || name.contains("/ST")
                    || name.contains("/BR")
                    || name.contains("/GD")
                    || name.contains("/PDF"),
                "{name} names its mechanism"
            );
        }
    }
}

/// Bridging rides on the netlist adjacency query; the faults it enumerates
/// stay within the netlist and respect the aggressor-before-victim order.
#[test]
fn bridging_faults_are_well_formed_across_the_suite() {
    for (name, netlist) in quick_netlists() {
        let pairs = netlist.adjacent_net_pairs();
        for injection in Bridging::default().fault_list(&netlist, false) {
            match injection {
                Injection::Bridge {
                    victim, aggressor, ..
                } => {
                    assert!(aggressor < victim, "{name}");
                    assert!(pairs.contains(&(aggressor, victim)), "{name}");
                }
                other => panic!("{name}: foreign injection {other}"),
            }
        }
    }
}
