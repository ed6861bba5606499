//! Integration tests of the campaign API: a multi-section campaign's
//! observers must be bit-for-bit equivalent to one-section campaigns per
//! fault model across the whole benchmark suite × every fault model ×
//! every simulation engine, on randomized controllers, and total on
//! degenerate campaigns — and the top-level diagnosis flow must resolve a
//! known injected fault's signature on every suite machine.
//!
//! The suite netlists are synthesized once (natural assignment) and
//! shared; fault lists of the largest machines are strided down so the
//! full matrix stays debug-build fast.

use std::sync::OnceLock;
use stfsm::bist::netlist::Netlist;
use stfsm::faults::Injection;
use stfsm::faults::{all_models, FaultModel};
use stfsm::fsm::generate::small_random;
use stfsm::testsim::campaign::{
    Campaign, CoverageObserver, CoverageTargetObserver, DictionaryObserver, TestLengthObserver,
};
use stfsm::testsim::coverage::{segment_schedule, CampaignConfig, CoverageResult, SimEngine};
use stfsm::testsim::diagnosis::DiagnosisObserver;
use stfsm::testsim::dictionary::FaultDictionary;
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow};

/// Every engine of the matrix, including the size-resolved `Auto`, with
/// its worker count: the differential engine runs at one and at two.
const ENGINES: [(SimEngine, usize); 5] = [
    (SimEngine::Scalar, 1),
    (SimEngine::Packed, 1),
    (SimEngine::Differential, 1),
    (SimEngine::Differential, 2),
    (SimEngine::Auto, 1),
];

/// Patterns per campaign: small enough for the debug-build matrix, large
/// enough that every machine detects plenty of faults.
const PATTERNS: usize = 48;

/// Cap per fault-model list; larger lists are strided down.
const MAX_FAULTS: usize = 96;

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

/// A one-section campaign over `faults` with no signature observer (the
/// drop-on-detect pass).
fn coverage_alone(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
) -> CoverageResult {
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .run()
        .coverage(0)
}

/// A one-section campaign over `faults` with a dictionary observer (the
/// un-dropped signature pass).
fn dictionary_alone(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
) -> FaultDictionary {
    let mut dictionaries = DictionaryObserver::new();
    Campaign::new(netlist)
        .config(config.clone())
        .faults("faults", faults.to_vec())
        .observe(&mut dictionaries)
        .run();
    dictionaries.into_dictionaries().remove(0)
}

/// The model's collapsed fault list, strided down to at most `cap` faults.
fn capped_faults(model: &dyn FaultModel, netlist: &Netlist, cap: usize) -> Vec<Injection> {
    let faults = model.fault_list(netlist, true);
    let stride = faults.len().div_ceil(cap).max(1);
    faults.into_iter().step_by(stride).collect()
}

/// Multi-section against one-section campaigns, bit-for-bit: all 13
/// suite machines × 3 fault models × every engine.  One multi-section
/// campaign per (machine, engine) carries coverage *and* dictionary
/// observers through a single pass; its per-section results must equal
/// one-section campaigns per model (a section's result does not depend on
/// the other sections), and every engine must agree with the scalar
/// reference.
#[test]
fn observers_match_legacy_across_suite_models_and_engines() {
    let models = all_models();
    for (name, netlist) in suite_netlists() {
        let fault_lists: Vec<(String, Vec<Injection>)> = models
            .iter()
            .map(|m| {
                (
                    m.name().to_string(),
                    capped_faults(m.as_ref(), netlist, MAX_FAULTS),
                )
            })
            .collect();
        let mut scalar_reference: Option<Vec<Vec<Option<usize>>>> = None;
        for (engine, threads) in ENGINES {
            let config = CampaignConfig {
                max_patterns: PATTERNS,
                engine,
                threads,
                ..CampaignConfig::default()
            };
            let mut coverage = CoverageObserver::new();
            let mut dictionaries = DictionaryObserver::new();
            let mut campaign = Campaign::new(netlist).config(config.clone());
            for (label, faults) in &fault_lists {
                campaign = campaign.faults(label.clone(), faults.clone());
            }
            let outcome = campaign
                .observe(&mut coverage)
                .observe(&mut dictionaries)
                .run();
            assert_eq!(outcome.sections.len(), models.len(), "{name} {engine:?}");

            for (i, (label, faults)) in fault_lists.iter().enumerate() {
                // Coverage observer == a one-section coverage campaign.
                let single = coverage_alone(netlist, faults, &config);
                assert_eq!(
                    &coverage.results()[i].1,
                    &single,
                    "coverage: {name} {label} {engine:?} x{threads}"
                );
                // Dictionary observer == a one-section dictionary
                // campaign, and its first-detects == the coverage
                // detection pattern (one un-dropped pass serves both
                // observers).
                let single_dictionary = dictionary_alone(netlist, faults, &config);
                let dictionary = dictionaries.dictionaries()[i].1.as_ref();
                assert_eq!(
                    dictionary, &single_dictionary,
                    "dictionary: {name} {label} {engine:?} x{threads}"
                );
                let first: Vec<Option<usize>> =
                    dictionary.entries.iter().map(|e| e.first_detect).collect();
                assert_eq!(
                    first, single.detection_pattern,
                    "first-detect: {name} {label} {engine:?} x{threads}"
                );
            }

            // Every engine agrees with the scalar reference bit-for-bit.
            let patterns: Vec<Vec<Option<usize>>> = outcome
                .sections
                .iter()
                .map(|s| s.detection_pattern.clone())
                .collect();
            match &scalar_reference {
                None => scalar_reference = Some(patterns),
                Some(reference) => {
                    assert_eq!(
                        reference, &patterns,
                        "{name} {engine:?} x{threads} vs scalar"
                    )
                }
            }
        }
    }
}

/// Randomized controllers: a multi-section campaign's observers equal
/// one-section campaigns for every model on freshly generated machines and
/// varying configurations.
#[test]
fn observers_match_legacy_on_random_controllers() {
    for seed in 0..6u64 {
        let fsm = small_random(7100 + seed);
        let result = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Natural)
            .synthesize(&fsm)
            .expect("random machine synthesizes");
        let netlist = &result.netlist;
        let (engine, threads) = ENGINES[seed as usize % ENGINES.len()];
        let config = CampaignConfig {
            max_patterns: 64 + 32 * (seed as usize % 3),
            seed: 0xCA_4A1C ^ seed,
            engine,
            threads,
            ..CampaignConfig::default()
        };
        let models = all_models();
        let mut coverage = CoverageObserver::new();
        let mut dictionaries = DictionaryObserver::new();
        let mut campaign = Campaign::new(netlist).config(config.clone());
        for model in &models {
            campaign = campaign.model(model.as_ref());
        }
        campaign
            .observe(&mut coverage)
            .observe(&mut dictionaries)
            .run();
        for (i, model) in models.iter().enumerate() {
            let faults = model.fault_list(netlist, true);
            assert_eq!(
                coverage.results()[i].1,
                coverage_alone(netlist, &faults, &config),
                "seed {seed} {}",
                model.name()
            );
            assert_eq!(
                dictionaries.dictionaries()[i].1.as_ref(),
                &dictionary_alone(netlist, &faults, &config),
                "seed {seed} {}",
                model.name()
            );
        }
    }
}

/// Degenerate campaigns return cleanly on every engine: zero faults, zero
/// patterns, zero observers and zero sections.
#[test]
fn degenerate_campaigns_are_total_on_every_engine() {
    let (_, netlist) = &suite_netlists()[0];
    for (engine, threads) in ENGINES {
        // Zero faults (with signatures requested).
        let mut coverage = CoverageObserver::new();
        let mut dictionaries = DictionaryObserver::new();
        let outcome = Campaign::new(netlist)
            .engine(engine)
            .threads(threads)
            .patterns(16)
            .faults("empty", Vec::new())
            .observe(&mut coverage)
            .observe(&mut dictionaries)
            .run();
        assert_eq!(outcome.total_faults(), 0, "{engine:?}");
        let result = coverage.result().unwrap();
        assert_eq!(result.fault_coverage(), 0.0);
        assert!(dictionaries.dictionary().unwrap().entries.is_empty());

        // Zero patterns.
        let mut coverage = CoverageObserver::new();
        let outcome = Campaign::new(netlist)
            .engine(engine)
            .threads(threads)
            .patterns(0)
            .model(&stfsm::faults::StuckAt)
            .observe(&mut coverage)
            .run();
        assert_eq!(outcome.patterns_applied, 0, "{engine:?}");
        let result = coverage.result().unwrap();
        assert!(result.total_faults > 0);
        assert_eq!(result.detected_faults, 0);

        // Zero observers, zero sections.
        let outcome = Campaign::new(netlist).engine(engine).threads(threads).run();
        assert!(outcome.sections.is_empty(), "{engine:?}");
    }
}

/// The diagnosis acceptance criterion: on every suite machine, the
/// signature of a known injected (and detected, un-aliased) fault resolves
/// back to that fault through `Diagnosis::candidates`, and the
/// per-segment disambiguation ranks a full-checkpoint match first.
#[test]
fn diagnosis_resolves_known_fault_signatures_on_every_suite_machine() {
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(&stfsm::faults::StuckAt, netlist, MAX_FAULTS);
        let mut observer = DiagnosisObserver::new();
        Campaign::new(netlist)
            .faults("stuck_at", faults)
            .engine(SimEngine::Auto)
            .patterns(96)
            .observe(&mut observer)
            .run();
        let diagnosis = observer.into_diagnosis().expect("campaign ran");
        let reference = diagnosis.reference_signature().expect("one section");
        let (_, dictionary) = &diagnosis.sections()[0];
        let known = dictionary
            .entries
            .iter()
            .find(|e| e.first_detect.is_some() && e.signature != reference)
            .unwrap_or_else(|| panic!("{name}: no detected un-aliased fault at 96 patterns"));
        let candidates = diagnosis.candidates(known.signature);
        assert!(
            candidates.iter().any(|c| c.fault == known.fault),
            "{name}: {} not among the candidates of its own signature",
            known.fault
        );
        let ranked = diagnosis.disambiguate(known.signature, &known.segments);
        assert_eq!(
            ranked.first().map(|c| c.matching_segments),
            Some(known.segments.len()),
            "{name}: full-checkpoint match must rank first"
        );
    }
}

/// `SimEngine::Auto` resolves by machine size: packed on the smallest
/// suite machine, differential on the largest.
#[test]
fn auto_engine_resolves_per_machine_size() {
    let netlists = suite_netlists();
    let smallest = netlists
        .iter()
        .min_by_key(|(_, n)| n.gates().len())
        .unwrap();
    let largest = netlists
        .iter()
        .max_by_key(|(_, n)| n.gates().len())
        .unwrap();
    assert_eq!(
        SimEngine::Auto.resolve(&smallest.1),
        SimEngine::Packed,
        "{} ({} gates)",
        smallest.0,
        smallest.1.gates().len()
    );
    assert_eq!(
        SimEngine::Auto.resolve(&largest.1),
        SimEngine::Differential,
        "{} ({} gates)",
        largest.0,
        largest.1.gates().len()
    );
}

/// The early-stop acceptance criterion: a `CoverageTargetObserver` must
/// end the campaign at the same segment boundary, with identical
/// detection sets, on every engine and for any worker count — on all 13
/// suite machines.
#[test]
fn early_stop_is_deterministic_across_engines_and_threads() {
    const TARGET: f64 = 0.5;
    const BUDGET: usize = 4096;
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(&stfsm::faults::StuckAt, netlist, MAX_FAULTS);
        let mut reference: Option<(usize, Vec<Option<usize>>)> = None;
        let mut check = |engine: SimEngine, threads: usize| {
            let label = format!("{name} {engine:?} x{threads}");
            let mut target = CoverageTargetObserver::new(TARGET);
            let outcome = Campaign::new(netlist)
                .faults("stuck_at", faults.clone())
                .engine(engine)
                .threads(threads)
                .patterns(BUDGET)
                .observe(&mut target)
                .run();
            // The stop boundary is a boundary of the pinned schedule.
            assert!(
                segment_schedule(BUDGET).contains(&outcome.patterns_applied),
                "{label}: stop not at a schedule boundary"
            );
            assert_eq!(
                target.patterns_applied(),
                outcome.patterns_applied,
                "{label}"
            );
            let detections = outcome.sections[0].detection_pattern.clone();
            match &reference {
                None => reference = Some((outcome.patterns_applied, detections)),
                Some((patterns, detection_sets)) => {
                    assert_eq!(
                        *patterns, outcome.patterns_applied,
                        "{label}: stop boundary"
                    );
                    assert_eq!(detection_sets, &detections, "{label}: detection sets");
                }
            }
        };
        for (engine, threads) in ENGINES {
            check(engine, threads);
        }
        check(SimEngine::Differential, 5);
    }
}

/// Early-stop determinism on randomized controllers, including the
/// un-dropped signature pass: a stopping observer riding next to nothing
/// else must stop the dictionary-building campaign at the same boundary
/// on every engine.
#[test]
fn early_stop_is_deterministic_on_random_controllers() {
    struct StoppingDictionary {
        inner: CoverageTargetObserver,
        dictionaries: DictionaryObserver,
    }
    impl stfsm::testsim::CampaignObserver for StoppingDictionary {
        fn needs_signatures(&self) -> bool {
            true
        }
        fn on_begin(&mut self, plan: &stfsm::testsim::CampaignPlan) {
            self.inner.on_begin(plan);
        }
        fn on_segment(
            &mut self,
            snapshot: &stfsm::testsim::SegmentSnapshot<'_>,
        ) -> stfsm::testsim::ObserverControl {
            self.inner.on_segment(snapshot)
        }
        fn on_finish(&mut self, outcome: &stfsm::testsim::CampaignOutcome) {
            self.inner.on_finish(outcome);
            self.dictionaries.on_finish(outcome);
        }
    }

    for seed in 0..4u64 {
        let fsm = small_random(9300 + seed);
        let result = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Natural)
            .synthesize(&fsm)
            .expect("random machine synthesizes");
        let netlist = &result.netlist;
        let faults = stfsm::faults::StuckAt.fault_list(netlist, true);
        let mut reference: Option<(usize, Vec<Option<usize>>, usize)> = None;
        for (engine, threads) in ENGINES {
            // Coverage pass (drop-on-detect) with a stopper.
            let mut target = CoverageTargetObserver::new(0.6);
            let outcome = Campaign::new(netlist)
                .faults("stuck_at", faults.clone())
                .engine(engine)
                .threads(threads)
                .patterns(2048)
                .observe(&mut target)
                .run();
            // Un-dropped signature pass with the same stopper must stop at
            // the same boundary (first-detects are shared).
            let mut stopping = StoppingDictionary {
                inner: CoverageTargetObserver::new(0.6),
                dictionaries: DictionaryObserver::new(),
            };
            let dict_outcome = Campaign::new(netlist)
                .faults("stuck_at", faults.clone())
                .engine(engine)
                .threads(threads)
                .patterns(2048)
                .observe(&mut stopping)
                .run();
            assert_eq!(
                outcome.patterns_applied, dict_outcome.patterns_applied,
                "seed {seed} {engine:?}: coverage vs dictionary stop"
            );
            let dictionary = stopping.dictionaries.dictionary().expect("ran");
            assert_eq!(dictionary.patterns_applied, outcome.patterns_applied);
            let detections = outcome.sections[0].detection_pattern.clone();
            match &reference {
                None => {
                    reference = Some((
                        outcome.patterns_applied,
                        detections,
                        dictionary.entries.len(),
                    ))
                }
                Some((patterns, detection_sets, entries)) => {
                    assert_eq!(
                        *patterns, outcome.patterns_applied,
                        "seed {seed} {engine:?}"
                    );
                    assert_eq!(detection_sets, &detections, "seed {seed} {engine:?}");
                    assert_eq!(*entries, dictionary.entries.len());
                }
            }
        }
    }
}

/// Observer-vote interaction: one stopper plus one full-run observer runs
/// the full budget (the stop requires unanimity), and the full-run
/// observer's results equal the stopper-free campaign's.
#[test]
fn stopper_plus_full_run_observer_runs_the_full_budget() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(&stfsm::faults::StuckAt, netlist, MAX_FAULTS);
    let mut target = CoverageTargetObserver::new(0.0);
    let mut coverage = CoverageObserver::new();
    let outcome = Campaign::new(netlist)
        .faults("stuck_at", faults.clone())
        .patterns(256)
        .observe(&mut target)
        .observe(&mut coverage)
        .run();
    assert!(target.reached(), "a 0 % target is trivially reached");
    assert_eq!(outcome.patterns_applied, 256, "full-run observer vetoes");
    let alone = coverage_alone(
        netlist,
        &faults,
        &CampaignConfig {
            max_patterns: 256,
            ..Default::default()
        },
    );
    assert_eq!(coverage.result().unwrap(), &alone);

    // The stopper alone does stop, and the test-length instrument agrees
    // with the full run's post-hoc metric.
    let mut observer = TestLengthObserver::new(0.5);
    let outcome = Campaign::new(netlist)
        .faults("stuck_at", faults)
        .patterns(256)
        .observe(&mut observer)
        .run();
    if observer.test_length().is_some() {
        assert_eq!(observer.test_length(), alone.test_length_for_coverage(0.5));
        assert!(outcome.patterns_applied <= 256);
    }
}
