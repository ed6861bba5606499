//! Acceptance of the delay-test subsystem: the path-delay and multi-cycle
//! gross-delay fault models must behave like first-class citizens of the
//! campaign stack.
//!
//! * **Engine identity** — detection patterns and full dictionaries are
//!   bit-for-bit identical across every engine (scalar, packed,
//!   differential at every block width and at several worker counts,
//!   auto), on the whole benchmark suite and on randomized
//!   controllers, with and without two-pattern input pairing.
//! * **Crash safety** — a campaign over delay faults killed at *any*
//!   segment boundary and resumed from its checkpoint reproduces the
//!   uninterrupted run exactly (the delay-line lane memories survive the
//!   text round-trip).
//! * **Diagnosis round-trip** — a dictionary artifact written from a
//!   delay campaign, loaded from disk and served over TCP answers every
//!   signature query identically to the in-process [`Diagnosis`].

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use stfsm::bist::netlist::Netlist;
use stfsm::faults::{FaultModel, Injection, MultiCycleDelay, PathDelay};
use stfsm::fsm::generate::{controller, ControllerSpec};
use stfsm::testsim::artifact::DictionaryArtifact;
use stfsm::testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, DictionaryObserver, ObserverControl,
    SegmentSnapshot,
};
use stfsm::testsim::coverage::{segment_schedule, CampaignConfig, SimEngine};
use stfsm::testsim::Diagnosis;
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow};
use stfsm_serve::{
    Catalog, DiagnosisClient, DiagnosisServer, DiagnosisService, Query, ServerConfig,
};

/// Patterns per campaign (debug-build friendly; covers several segments
/// of the doubling schedule).
const PATTERNS: usize = 48;

/// Cap per fault list; larger lists are strided down.
const MAX_FAULTS: usize = 72;

/// Every non-scalar engine configuration that must match the scalar
/// reference: `(label, engine, block_words, threads)`.
const ENGINE_MATRIX: [(&str, SimEngine, Option<usize>, usize); 7] = [
    ("packed", SimEngine::Packed, None, 1),
    ("diff-w1", SimEngine::Differential, Some(1), 1),
    ("diff-w4", SimEngine::Differential, Some(4), 1),
    ("diff-w8", SimEngine::Differential, Some(8), 1),
    ("diff", SimEngine::Differential, None, 1),
    ("diff-w8-x5", SimEngine::Differential, Some(8), 5),
    ("auto", SimEngine::Auto, None, 1),
];

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

/// The delay-fault universe of one netlist: structurally longest paths in
/// both polarities plus gross delays at one, two and three cycles, capped
/// to keep debug-build campaigns quick.
fn delay_faults(netlist: &Netlist) -> Vec<Injection> {
    let mut faults = Vec::new();
    for model in [
        &PathDelay::default() as &dyn FaultModel,
        &MultiCycleDelay::with_depth(1),
        &MultiCycleDelay::with_depth(2),
        &MultiCycleDelay::with_depth(3),
    ] {
        faults.extend(model.fault_list(netlist, true));
    }
    let stride = faults.len().div_ceil(MAX_FAULTS).max(1);
    faults.into_iter().step_by(stride).collect()
}

fn config_for(
    seed: u64,
    paired: bool,
    (_, engine, block_words, threads): (&str, SimEngine, Option<usize>, usize),
) -> CampaignConfig {
    CampaignConfig {
        max_patterns: PATTERNS,
        seed,
        engine,
        block_words,
        threads,
        paired_patterns: paired,
        ..CampaignConfig::default()
    }
}

fn scalar_config(seed: u64, paired: bool) -> CampaignConfig {
    CampaignConfig {
        max_patterns: PATTERNS,
        seed,
        engine: SimEngine::Scalar,
        paired_patterns: paired,
        ..CampaignConfig::default()
    }
}

/// One campaign with an un-dropped dictionary pass (signature identity is
/// part of the bit-for-bit contract, not just the detection sets).
fn run_with_dictionary(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
) -> (CampaignOutcome, Vec<stfsm::testsim::FaultDictionary>) {
    let mut observer = DictionaryObserver::new();
    let outcome = Campaign::new(netlist)
        .config(config.clone())
        .faults("delay", faults.to_vec())
        .observe(&mut observer)
        .run();
    (outcome, observer.into_dictionaries())
}

/// Every engine configuration reproduces the scalar detection patterns
/// and dictionaries on all 13 suite machines, with two-pattern pairing
/// both off and on.
#[test]
fn engines_match_scalar_on_the_suite() {
    for (name, netlist) in suite_netlists() {
        let faults = delay_faults(netlist);
        assert!(!faults.is_empty(), "{name}: no delay faults enumerated");
        for paired in [false, true] {
            let (reference, reference_dicts) = run_with_dictionary(
                netlist,
                &faults,
                &scalar_config(0xDE1A + paired as u64, paired),
            );
            for cell in ENGINE_MATRIX {
                let config = config_for(0xDE1A + paired as u64, paired, cell);
                let (outcome, dicts) = run_with_dictionary(netlist, &faults, &config);
                assert_eq!(
                    reference.sections[0].detection_pattern, outcome.sections[0].detection_pattern,
                    "detection: {name} {} paired={paired}",
                    cell.0
                );
                assert_eq!(
                    reference_dicts, dicts,
                    "dictionary: {name} {} paired={paired}",
                    cell.0
                );
            }
        }
    }
}

/// Randomized controllers on the conventional DFF structure: the faulty
/// register state stays diverged over long stretches, exercising the
/// differential widening paths with multi-cycle memories in flight.
#[test]
fn engines_match_scalar_on_random_controllers() {
    for seed in 0..3u64 {
        let spec = ControllerSpec::new(format!("delayctl{seed}"), 6 + seed as usize, 3, 2)
            .with_seed(0xC0DE_0000 + seed);
        let fsm = controller(&spec).expect("controller generates");
        let netlist = SynthesisFlow::new(BistStructure::Dff)
            .with_assignment(AssignmentMethod::Natural)
            .synthesize(&fsm)
            .expect("controller synthesizes")
            .netlist;
        let faults = delay_faults(&netlist);
        let (reference, reference_dicts) =
            run_with_dictionary(&netlist, &faults, &scalar_config(0xD1FF ^ seed, true));
        for cell in ENGINE_MATRIX {
            let config = config_for(0xD1FF ^ seed, true, cell);
            let (outcome, dicts) = run_with_dictionary(&netlist, &faults, &config);
            assert_eq!(
                reference.sections[0].detection_pattern, outcome.sections[0].detection_pattern,
                "detection: seed {seed} {}",
                cell.0
            );
            assert_eq!(reference_dicts, dicts, "dictionary: seed {seed} {}", cell.0);
        }
    }
}

/// An observer that votes stop from segment `at` onward (the stand-in for
/// a crash right after the boundary's checkpoint was written).
struct StopAt {
    at: usize,
}

impl CampaignObserver for StopAt {
    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        if snapshot.segment >= self.at {
            ObserverControl::Stop
        } else {
            ObserverControl::Continue
        }
    }

    fn on_finish(&mut self, _outcome: &CampaignOutcome) {}
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stfsm-delay-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.ckpt"))
}

/// Delay campaigns killed at every segment boundary and resumed from the
/// checkpoint reproduce the uninterrupted run bit-for-bit on every
/// engine: the multi-cycle delay lines and two-pattern launch memories
/// survive the text round-trip mid-fill.
#[test]
fn resume_from_any_boundary_matches_uninterrupted() {
    let (name, netlist) = &suite_netlists()[0];
    let faults = delay_faults(netlist);
    let boundaries = segment_schedule(PATTERNS);
    for cell in [
        ("scalar", SimEngine::Scalar, None, 1),
        ENGINE_MATRIX[0],
        ENGINE_MATRIX[3],
        ENGINE_MATRIX[6],
    ] {
        let config = config_for(0xC4A5, true, cell);
        let full = Campaign::new(netlist)
            .config(config.clone())
            .faults("delay", faults.clone())
            .run();
        for (k, &boundary) in boundaries.iter().enumerate() {
            let context = format!("{name} {} boundary {k}", cell.0);
            let path = scratch(&format!("{}-{k}", cell.0));
            let mut stop = StopAt { at: k };
            let interrupted = Campaign::new(netlist)
                .config(config.clone())
                .faults("delay", faults.clone())
                .checkpoint_to(&path)
                .observe(&mut stop)
                .run();
            assert_eq!(
                interrupted.patterns_applied, boundary,
                "stop boundary: {context}"
            );
            let resumed = Campaign::new(netlist)
                .config(config.clone())
                .faults("delay", faults.clone())
                .resume_from(&path)
                .run();
            assert_eq!(
                full.patterns_applied, resumed.patterns_applied,
                "patterns: {context}"
            );
            assert_eq!(
                full.sections[0].detection_pattern, resumed.sections[0].detection_pattern,
                "detections: {context}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A delay-campaign dictionary artifact served over TCP answers every
/// signature query with candidates identical to the in-process
/// [`Diagnosis`] built from the same outcome.
#[test]
fn delay_dictionary_artifact_round_trips_over_tcp() {
    let (_, netlist) = &suite_netlists()[1];
    let config = CampaignConfig {
        max_patterns: PATTERNS,
        paired_patterns: true,
        ..CampaignConfig::default()
    };
    let mut observer = DictionaryObserver::new();
    let outcome = Campaign::new(netlist)
        .config(config.clone())
        .model(&PathDelay::default())
        .model(&MultiCycleDelay::default())
        .observe(&mut observer)
        .run();
    let reference = Diagnosis::from_shared(
        outcome
            .sections
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    Arc::clone(s.dictionary.as_ref().expect("dictionary")),
                )
            })
            .collect(),
    );
    let artifact =
        DictionaryArtifact::from_outcome(netlist, &config, &outcome).expect("artifact builds");
    let dir = std::env::temp_dir().join(format!("stfsm-delay-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("delay.dict");
    artifact.write_to(&path).expect("artifact writes");

    let mut catalog = Catalog::new();
    let machine = catalog.load(&path).expect("catalog loads from disk");
    let service = DiagnosisService::new(catalog);
    let server = DiagnosisServer::start("127.0.0.1:0", service.handle(), ServerConfig::default())
        .expect("server starts");
    let mut client = DiagnosisClient::connect(server.local_addr()).expect("client connects");

    let mut signatures: Vec<u64> = outcome
        .sections
        .iter()
        .flat_map(|s| {
            let dictionary = s.dictionary.as_ref().expect("dictionary");
            let mut all: Vec<u64> = dictionary.entries.iter().map(|e| e.signature).collect();
            all.push(dictionary.reference_signature);
            all
        })
        .collect();
    signatures.sort_unstable();
    signatures.dedup();
    for signature in signatures {
        let expected = reference.candidates(signature);
        let answer = client
            .query(&Query::new(machine.clone(), signature))
            .expect("query answers");
        assert_eq!(
            expected.len(),
            answer.candidates.len(),
            "candidate count for 0x{signature:016x}"
        );
        for (want, got) in expected.iter().zip(&answer.candidates) {
            assert_eq!(want.model, got.model, "model for 0x{signature:016x}");
            assert_eq!(
                want.fault.to_string(),
                got.fault,
                "fault for 0x{signature:016x}"
            );
            assert_eq!(
                want.first_detect, got.first_detect,
                "first detect for 0x{signature:016x}"
            );
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
