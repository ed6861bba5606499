//! Integration tests of the event-driven differential engine: every
//! lane-block width `W ∈ {1, 4, 8}` and more than one worker must produce
//! detection patterns and dictionaries bit-for-bit identical to the
//! scalar reference — across the whole
//! benchmark suite, on randomized controllers whose DFF structure keeps
//! faulty register state diverged over long sequences, and under early
//! stop.  Lazy stimulus generation is pinned down by a regression test:
//! an early-stopped campaign must not materialise a single stimulus cycle
//! past the boundary at which it stopped.

use std::sync::OnceLock;
use stfsm::bist::netlist::Netlist;
use stfsm::faults::Injection;
use stfsm::faults::{all_models, FaultModel, StuckAt};
use stfsm::fsm::generate::small_random;
use stfsm::testsim::campaign::{Campaign, CampaignOutcome, CoverageTargetObserver};
use stfsm::testsim::coverage::{CampaignConfig, SimEngine};
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow};

/// Patterns per suite campaign (debug-build friendly).
const PATTERNS: usize = 48;

/// Cap per fault list; larger lists are strided down.
const MAX_FAULTS: usize = 96;

/// The differential matrix: `(label, block_words, threads)`.  Covers the
/// width resolved from the fault count, every explicit block width and
/// two workers sharding the widest blocks.
const TUNINGS: [(&str, Option<usize>, usize); 4] = [
    ("event-driven", None, 1),
    ("w1", Some(1), 1),
    ("w8", Some(8), 1),
    ("w8-x2", Some(8), 2),
];

fn tuned_config(
    max_patterns: usize,
    seed: u64,
    (_, block_words, threads): (&str, Option<usize>, usize),
) -> CampaignConfig {
    CampaignConfig {
        max_patterns,
        seed,
        engine: SimEngine::Differential,
        block_words,
        threads,
        ..CampaignConfig::default()
    }
}

fn suite_netlists() -> &'static Vec<(String, Netlist)> {
    static NETLISTS: OnceLock<Vec<(String, Netlist)>> = OnceLock::new();
    NETLISTS.get_or_init(|| {
        stfsm::fsm::suite::BENCHMARKS
            .iter()
            .map(|info| {
                let fsm = info.fsm().expect("suite generator succeeds");
                let result = SynthesisFlow::new(BistStructure::Pst)
                    .with_assignment(AssignmentMethod::Natural)
                    .synthesize(&fsm)
                    .expect("suite machine synthesizes");
                (info.name.to_string(), result.netlist)
            })
            .collect()
    })
}

/// The model's collapsed fault list, strided down to at most `cap` faults.
fn capped_faults(model: &dyn FaultModel, netlist: &Netlist, cap: usize) -> Vec<Injection> {
    let faults = model.fault_list(netlist, true);
    let stride = faults.len().div_ceil(cap).max(1);
    faults.into_iter().step_by(stride).collect()
}

/// One campaign (coverage pass, no observers) under `config`.
fn run_campaign(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
) -> CampaignOutcome {
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .run()
}

/// One un-dropped dictionary pass under `config` (signature identity).
fn run_dictionary(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
) -> stfsm::testsim::FaultDictionary {
    let mut dictionaries = stfsm::testsim::campaign::DictionaryObserver::new();
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .observe(&mut dictionaries)
        .run();
    dictionaries
        .into_dictionaries()
        .pop()
        .expect("one section yields one dictionary")
}

/// Every block width and worker count equals the scalar reference —
/// detection patterns *and* full dictionaries (signatures, checkpoint
/// segments, reference) — on all 13 suite machines.
#[test]
fn tuning_matrix_matches_scalar_across_the_suite() {
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(&StuckAt, netlist, MAX_FAULTS);
        let scalar = CampaignConfig {
            max_patterns: PATTERNS,
            engine: SimEngine::Scalar,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(netlist, &faults, &scalar);
        let reference_dictionary = run_dictionary(netlist, &faults, &scalar);
        for tuning in TUNINGS {
            let config = tuned_config(PATTERNS, scalar.seed, tuning);
            let outcome = run_campaign(netlist, &faults, &config);
            assert_eq!(
                reference.sections[0].detection_pattern, outcome.sections[0].detection_pattern,
                "detection: {name} {}",
                tuning.0
            );
            let dictionary = run_dictionary(netlist, &faults, &config);
            assert_eq!(
                reference_dictionary, dictionary,
                "dictionary: {name} {}",
                tuning.0
            );
        }
    }
}

/// Randomized controllers on the conventional DFF structure: faulty
/// register state diverges and *stays* diverged over long sequences
/// (functional stimulation never reloads it), exercising the per-word
/// widening and re-narrowing paths.  Every model's full fault list, every
/// width and worker count — all bit-for-bit against scalar.
#[test]
fn tuning_matrix_matches_scalar_on_random_dff_controllers() {
    for seed in 0..4u64 {
        let fsm = small_random(9200 + seed);
        let result = SynthesisFlow::new(BistStructure::Dff)
            .with_assignment(AssignmentMethod::Natural)
            .synthesize(&fsm)
            .expect("random machine synthesizes");
        let netlist = &result.netlist;
        let patterns = 96 + 32 * (seed as usize % 3);
        let faults: Vec<Injection> = all_models()
            .iter()
            .flat_map(|m| m.fault_list(netlist, true))
            .collect();
        let scalar = CampaignConfig {
            max_patterns: patterns,
            seed: 0xD1FF ^ seed,
            engine: SimEngine::Scalar,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(netlist, &faults, &scalar);
        for tuning in TUNINGS {
            let config = tuned_config(patterns, scalar.seed, tuning);
            let outcome = run_campaign(netlist, &faults, &config);
            assert_eq!(
                reference.sections[0].detection_pattern, outcome.sections[0].detection_pattern,
                "seed {seed} {}",
                tuning.0
            );
        }
    }
}

/// The campaign resolves the block width from the fault count and reports
/// it in the plan; an explicit width is used as given, and validation
/// rejects any width but 1, 4 and 8 before a campaign runs.
#[test]
fn resolved_block_width_scales_with_the_fault_count() {
    let config = CampaignConfig::default();
    assert_eq!(config.resolved_block_words(1), 1);
    assert_eq!(config.resolved_block_words(63), 1);
    assert_eq!(config.resolved_block_words(64), 4);
    assert_eq!(config.resolved_block_words(255), 4);
    assert_eq!(config.resolved_block_words(256), 8);
    assert_eq!(config.resolved_block_words(100_000), 8);
    for words in [1, 4, 8] {
        let explicit = CampaignConfig {
            block_words: Some(words),
            ..CampaignConfig::default()
        };
        assert_eq!(explicit.resolved_block_words(100_000), words);
        assert!(explicit.validate().is_ok());
    }
    let unsupported = CampaignConfig {
        block_words: Some(3),
        ..CampaignConfig::default()
    };
    assert!(unsupported.validate().is_err());
}

/// The lazy-stimulus regression of the rework's acceptance criteria: an
/// scf/DFF campaign with a 4096-pattern budget, early-stopped by a 90 %
/// coverage target, must stop at the 1984-pattern boundary of the pinned
/// doubling segment schedule and must have generated stimulus for exactly
/// the applied segments — not one cycle of the remaining budget.
#[test]
fn early_stop_generates_stimulus_only_for_applied_segments() {
    let fsm = stfsm::fsm::suite::benchmark("scf")
        .expect("scf is a suite benchmark")
        .fsm()
        .expect("scf generator succeeds");
    let netlist = SynthesisFlow::new(BistStructure::Dff)
        .synthesize(&fsm)
        .expect("scf synthesizes")
        .netlist;
    let mut target = CoverageTargetObserver::new(0.9);
    let outcome = Campaign::new(&netlist)
        .model(&StuckAt)
        .patterns(4096)
        .observe(&mut target)
        .run();
    assert!(outcome.stopped_early(), "90 % must stop scf/DFF early");
    assert_eq!(
        outcome.patterns_applied, 1984,
        "scf/DFF crosses 90 % coverage at the 1984-pattern boundary"
    );
    assert_eq!(
        outcome.stimulus_generated, outcome.patterns_applied,
        "no stimulus may be generated past the stop boundary"
    );
}

/// A full-budget campaign generates exactly its budget, and a degenerate
/// zero-pattern campaign generates nothing.
#[test]
fn full_runs_generate_exactly_the_budget() {
    let fsm = stfsm::fsm::suite::benchmark("dk16")
        .expect("dk16 is a suite benchmark")
        .fsm()
        .expect("dk16 generator succeeds");
    let netlist = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .expect("dk15 synthesizes")
        .netlist;
    let faults = StuckAt.fault_list(&netlist, true);
    for engine in [
        SimEngine::Scalar,
        SimEngine::Packed,
        SimEngine::Differential,
    ] {
        let config = CampaignConfig {
            max_patterns: 80,
            engine,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&netlist, &faults, &config);
        assert_eq!(outcome.patterns_applied, 80, "{engine:?}");
        assert_eq!(outcome.stimulus_generated, 80, "{engine:?}");
        let empty = CampaignConfig {
            max_patterns: 0,
            engine,
            ..CampaignConfig::default()
        };
        let degenerate = run_campaign(&netlist, &faults, &empty);
        assert_eq!(degenerate.stimulus_generated, 0, "{engine:?}");
    }
}
