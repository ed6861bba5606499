//! Randomized differential tests: the 64-way packed and the cone-restricted
//! differential fault-simulation engines, the latter at several worker
//! counts, must produce detection patterns bit-for-bit identical to the scalar
//! engine on randomly generated controllers, across fault models,
//! structures, seeds and campaign configurations — and the fault
//! dictionaries built on the differential block engine must equal the
//! classic packed ones.

use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
use stfsm_bist::netlist::{build_netlist, Netlist};
use stfsm_bist::BistStructure;
use stfsm_encode::StateEncoding;
use stfsm_faults::{all_models, FaultList, Injection, StuckAt};
use stfsm_fsm::generate::small_random;
use stfsm_lfsr::{primitive_polynomial, Misr};
use stfsm_logic::espresso::minimize;
use stfsm_testsim::campaign::{Campaign, DictionaryObserver};
use stfsm_testsim::coverage::{CampaignConfig, CoverageResult, SimEngine};
use stfsm_testsim::dictionary::FaultDictionary;

fn synthesize(fsm: &stfsm_fsm::Fsm, structure: BistStructure) -> Netlist {
    let encoding = StateEncoding::natural(fsm).expect("encodable");
    let (transform, poly) = match structure {
        BistStructure::Dff => (RegisterTransform::Dff, None),
        BistStructure::Sig | BistStructure::Pst => {
            let poly = primitive_polynomial(encoding.num_bits()).expect("tabled polynomial");
            (
                RegisterTransform::Misr(Misr::new(poly).expect("positive degree")),
                Some(poly),
            )
        }
        BistStructure::Pat => unreachable!("PAT needs its own assignment; not used here"),
    };
    let pla = build_pla(fsm, &encoding, &transform).expect("pla");
    let cover = minimize(&pla).cover;
    let lay = layout(fsm, &encoding, &transform);
    build_netlist(fsm.name(), &cover, &lay, structure, poly).expect("netlist")
}

/// A one-section coverage campaign over `faults`.
fn coverage(netlist: &Netlist, faults: &[Injection], config: &CampaignConfig) -> CoverageResult {
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .run()
        .coverage(0)
}

/// The collapsed stuck-at campaign over `netlist`.
fn stuck_at(netlist: &Netlist, config: &CampaignConfig) -> CoverageResult {
    Campaign::new(netlist)
        .config(config.clone())
        .model(&StuckAt)
        .run()
        .coverage(0)
}

/// A one-section campaign's dictionary over `faults`.
fn dictionary(netlist: &Netlist, faults: &[Injection], config: &CampaignConfig) -> FaultDictionary {
    let mut dictionaries = DictionaryObserver::new();
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .observe(&mut dictionaries)
        .run();
    dictionaries.into_dictionaries().remove(0)
}

#[test]
fn packed_matches_scalar_on_random_controllers() {
    for seed in 0..12u64 {
        let fsm = small_random(seed);
        for structure in [BistStructure::Dff, BistStructure::Sig, BistStructure::Pst] {
            let netlist = synthesize(&fsm, structure);
            // Vary the campaign shape with the seed: pattern count, fault
            // collapsing and sampling all change chunk layouts.
            let list = if seed % 2 == 0 {
                FaultList::collapsed(&netlist)
            } else {
                FaultList::full(&netlist)
            };
            let faults: Vec<Injection> = list
                .sampled(1 + seed as usize % 3)
                .faults()
                .iter()
                .map(|&f| f.into())
                .collect();
            let base = CampaignConfig {
                max_patterns: 64 + 32 * (seed as usize % 5),
                seed: 0xD1FF ^ seed,
                ..Default::default()
            };
            let scalar = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Scalar,
                    ..base.clone()
                },
            );
            let packed = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Packed,
                    ..base
                },
            );
            assert_eq!(
                scalar,
                packed,
                "engines disagree: seed {seed}, {structure} on {}",
                fsm.name()
            );
        }
    }
}

/// The randomized-netlist property: for every fault model, the scalar,
/// packed and differential engines agree bit-for-bit — across random
/// controllers, structures and worker counts (including more workers than
/// shards and a worker count that does not divide the fault list).
#[test]
fn all_engines_agree_for_every_model_on_random_controllers() {
    for seed in 0..8u64 {
        let fsm = small_random(400 + seed);
        for structure in [BistStructure::Dff, BistStructure::Sig, BistStructure::Pst] {
            let netlist = synthesize(&fsm, structure);
            for model in all_models() {
                let faults = model.fault_list(&netlist, seed % 2 == 0);
                let base = CampaignConfig {
                    max_patterns: 64 + 48 * (seed as usize % 4),
                    seed: 0xFA_0715 ^ seed,
                    ..Default::default()
                };
                let scalar = coverage(
                    &netlist,
                    &faults,
                    &CampaignConfig {
                        engine: SimEngine::Scalar,
                        ..base.clone()
                    },
                );
                let packed = coverage(
                    &netlist,
                    &faults,
                    &CampaignConfig {
                        engine: SimEngine::Packed,
                        ..base.clone()
                    },
                );
                assert_eq!(
                    scalar,
                    packed,
                    "scalar vs packed: seed {seed}, {} faults, {structure} on {}",
                    model.name(),
                    fsm.name()
                );
                let differential = coverage(
                    &netlist,
                    &faults,
                    &CampaignConfig {
                        engine: SimEngine::Differential,
                        ..base.clone()
                    },
                );
                assert_eq!(
                    scalar,
                    differential,
                    "scalar vs differential: seed {seed}, {} faults, {structure} on {}",
                    model.name(),
                    fsm.name()
                );
                for threads in [2, 3, 64] {
                    let threaded = coverage(
                        &netlist,
                        &faults,
                        &CampaignConfig {
                            engine: SimEngine::Differential,
                            threads,
                            ..base.clone()
                        },
                    );
                    assert_eq!(
                        scalar,
                        threaded,
                        "scalar vs {threads}-thread: seed {seed}, {} faults, {structure} on {}",
                        model.name(),
                        fsm.name()
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_stuck_at_self_test_matches_packed() {
    for seed in 0..4u64 {
        let fsm = small_random(500 + seed);
        let netlist = synthesize(&fsm, BistStructure::Pst);
        let base = CampaignConfig {
            max_patterns: 192,
            ..Default::default()
        };
        let packed = stuck_at(&netlist, &base);
        let threaded = stuck_at(
            &netlist,
            &CampaignConfig {
                engine: SimEngine::Differential,
                threads: 4,
                ..base
            },
        );
        assert_eq!(packed, threaded, "seed {seed}");
    }
}

/// Under system-state stimulation (PST), an undetected fault's register
/// state can diverge from the reference for many cycles — sometimes for the
/// entire campaign — before (ever) being observed.  The differential engine
/// must widen those lane blocks to the register cones and still reproduce
/// the packed engine's full result (detection pattern indices and coverage
/// curve) over long campaigns.
#[test]
fn differential_matches_packed_through_long_divergence() {
    for seed in 0..4u64 {
        let fsm = small_random(700 + seed);
        let netlist = synthesize(&fsm, BistStructure::Pst);
        for model in all_models() {
            let faults = model.fault_list(&netlist, true);
            let base = CampaignConfig {
                max_patterns: 1024,
                seed: 0xD1_FF00 ^ seed,
                ..Default::default()
            };
            let packed = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Packed,
                    ..base.clone()
                },
            );
            let differential = coverage(
                &netlist,
                &faults,
                &CampaignConfig {
                    engine: SimEngine::Differential,
                    ..base
                },
            );
            assert_eq!(
                packed.detection_pattern,
                differential.detection_pattern,
                "detection indices: seed {seed}, {} faults on {}",
                model.name(),
                fsm.name()
            );
            assert_eq!(
                packed.coverage_curve,
                differential.coverage_curve,
                "coverage curve: seed {seed} on {}",
                fsm.name()
            );
            assert_eq!(packed, differential, "seed {seed} on {}", fsm.name());
        }
    }
}

/// Fault dictionaries built on the differential block engine must be
/// bit-for-bit those of the classic packed pass — same first-detect
/// indices, same MISR signatures, same reference — on random controllers
/// for every model and structure.
#[test]
fn differential_dictionary_matches_packed_on_random_controllers() {
    for seed in 0..4u64 {
        let fsm = small_random(800 + seed);
        for structure in [BistStructure::Dff, BistStructure::Pst] {
            let netlist = synthesize(&fsm, structure);
            for model in all_models() {
                let faults = model.fault_list(&netlist, true);
                let base = CampaignConfig {
                    max_patterns: 160 + 32 * (seed as usize % 3),
                    seed: 0xD1C7 ^ seed,
                    ..Default::default()
                };
                let packed = dictionary(&netlist, &faults, &base);
                let differential = dictionary(
                    &netlist,
                    &faults,
                    &CampaignConfig {
                        engine: SimEngine::Differential,
                        ..base.clone()
                    },
                );
                assert_eq!(
                    packed,
                    differential,
                    "dictionary: seed {seed}, {} faults, {structure} on {}",
                    model.name(),
                    fsm.name()
                );
                // The dictionary's first-detect column equals the campaign's
                // detection pattern on the differential engine too.
                let campaign = coverage(
                    &netlist,
                    &faults,
                    &CampaignConfig {
                        engine: SimEngine::Differential,
                        ..base
                    },
                );
                let first: Vec<Option<usize>> = differential
                    .entries
                    .iter()
                    .map(|e| e.first_detect)
                    .collect();
                assert_eq!(first, campaign.detection_pattern);
            }
        }
    }
}

#[test]
fn packed_matches_scalar_with_weighted_inputs() {
    for seed in 0..4u64 {
        let fsm = small_random(100 + seed);
        let netlist = synthesize(&fsm, BistStructure::Dff);
        let weights: Vec<f64> = (0..netlist.primary_inputs().len())
            .map(|i| 0.2 + 0.15 * (i as f64 + seed as f64))
            .collect();
        let base = CampaignConfig {
            max_patterns: 128,
            input_weights: Some(weights),
            ..Default::default()
        };
        let scalar = stuck_at(
            &netlist,
            &CampaignConfig {
                engine: SimEngine::Scalar,
                ..base.clone()
            },
        );
        let packed = stuck_at(&netlist, &base);
        assert_eq!(scalar, packed, "seed {seed}");
    }
}
