//! Robustness integration tests: crash-safe campaigns.
//!
//! Three families of guarantees, all exercised through the public API:
//!
//! 1. **Checkpoint/resume is bit-for-bit.**  A campaign killed at any
//!    segment boundary and resumed from its on-disk checkpoint must
//!    produce exactly the result-bearing outcome of the uninterrupted
//!    run — detection patterns, dictionaries, pattern counts — across
//!    all 13 suite machines × every engine, for both the detect and the
//!    signature pass (a kill is simulated by an observer vote that stops
//!    the checkpointing run at the chosen boundary).
//! 2. **Injected failures never abort a run or change results.**  The
//!    deterministic failpoint harness ([`stfsm::testsim::failpoints`])
//!    injects worker panics, observer panics and checkpoint write
//!    failures; the campaign must recover (quarantined re-run, observer
//!    latch-out, checkpoint latch-off), report the recoverable incidents
//!    on the outcome, and keep every result bit identical to a clean run.
//! 3. **Invalid inputs fail with typed errors.**  Config validation and
//!    checkpoint loading reject bad inputs with the precise
//!    [`CampaignError`] variant instead of panicking or silently
//!    clamping.
//!
//! Tests that arm failpoints or write checkpoint files take the chaos
//! session lock (an [`arm`] guard, empty plan where nothing is injected)
//! so concurrently running tests cannot observe each other's injections.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use stfsm::bist::netlist::Netlist;
use stfsm::faults::{FaultModel, Injection, StuckAt};
use stfsm::testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CoverageObserver, ObserverControl, SegmentSnapshot,
};
use stfsm::testsim::coverage::{segment_schedule, CampaignConfig, SimEngine};
use stfsm::testsim::failpoints::{arm, ChaosObserver, ChaosPlan};
use stfsm::{AssignmentMethod, BistStructure, CampaignError, ObserverPhase, SynthesisFlow};

/// Every engine of the matrix, including the size-resolved `Auto`, with
/// its worker count: the differential engine runs at one and at two.
const ENGINES: [(SimEngine, usize); 5] = [
    (SimEngine::Scalar, 1),
    (SimEngine::Packed, 1),
    (SimEngine::Differential, 1),
    (SimEngine::Differential, 2),
    (SimEngine::Auto, 1),
];

/// Pattern budget: three segments of the pinned doubling schedule
/// (boundaries 64, 192, 200), so every run crosses a checkpoint the
/// resume tests can kill at.
const PATTERNS: usize = 200;

/// Cap per fault list; larger lists are strided down to keep the
/// debug-build matrix fast.
const MAX_FAULTS: usize = 32;

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
fn capped_faults(netlist: &Netlist, cap: usize) -> Vec<Injection> {
    let faults = StuckAt.fault_list(netlist, true);
    let stride = faults.len().div_ceil(cap).max(1);
    faults.into_iter().step_by(stride).collect()
}

/// A unique scratch path for one checkpoint file.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "stfsm-robustness-{}-{n}-{tag}.ckpt",
        std::process::id()
    ))
}

/// An observer that votes [`ObserverControl::Stop`] from segment index
/// `at` onward — the test's stand-in for killing a campaign at a segment
/// boundary (the checkpoint for the stopping segment is written before
/// the stop takes effect, exactly like a crash right after the boundary).
/// With `at == usize::MAX` it is a passive witness, useful only for its
/// `needs_signatures` vote.
struct StopAt {
    at: usize,
    signatures: bool,
}

impl StopAt {
    fn new(at: usize) -> Self {
        Self {
            at,
            signatures: false,
        }
    }

    fn with_signatures(at: usize) -> Self {
        Self {
            at,
            signatures: true,
        }
    }

    /// A passive observer whose only effect is forcing the signature pass.
    fn witness() -> Self {
        Self::with_signatures(usize::MAX)
    }
}

impl CampaignObserver for StopAt {
    fn needs_signatures(&self) -> bool {
        self.signatures
    }

    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        if snapshot.segment >= self.at {
            ObserverControl::Stop
        } else {
            ObserverControl::Continue
        }
    }

    fn on_finish(&mut self, _outcome: &CampaignOutcome) {}
}

/// Asserts the result-bearing fields of two outcomes are bit-for-bit
/// equal.  Telemetry (timings, counters) is deliberately excluded: a
/// resumed run replays stored segments without re-simulating them, so its
/// spans differ while its results must not.
fn assert_results_equal(a: &CampaignOutcome, b: &CampaignOutcome, context: &str) {
    assert_eq!(a.engine, b.engine, "engine: {context}");
    assert_eq!(a.max_patterns, b.max_patterns, "budget: {context}");
    assert_eq!(
        a.patterns_applied, b.patterns_applied,
        "patterns: {context}"
    );
    assert_eq!(
        a.stimulus_generated, b.stimulus_generated,
        "stimulus: {context}"
    );
    assert_eq!(a.sections.len(), b.sections.len(), "sections: {context}");
    for (sa, sb) in a.sections.iter().zip(&b.sections) {
        assert_eq!(sa.label, sb.label, "label: {context}");
        assert_eq!(sa.faults, sb.faults, "faults: {context}");
        assert_eq!(
            sa.detection_pattern, sb.detection_pattern,
            "detections: {context}"
        );
        assert_eq!(sa.dictionary, sb.dictionary, "dictionary: {context}");
    }
}

fn config_for(engine: SimEngine) -> CampaignConfig {
    CampaignConfig {
        max_patterns: PATTERNS,
        engine,
        ..CampaignConfig::default()
    }
}

/// [`config_for`] an entry of [`ENGINES`].
fn config_on((engine, threads): (SimEngine, usize)) -> CampaignConfig {
    CampaignConfig {
        threads,
        ..config_for(engine)
    }
}

/// Runs the kill-and-resume check for one (netlist, faults, engine,
/// boundary) cell: a checkpointing run stopped at boundary `k` must leave
/// a checkpoint from which a fresh campaign resumes to an outcome
/// bit-for-bit equal to `full`.
fn check_resume(
    name: &str,
    netlist: &Netlist,
    faults: &[Injection],
    engine: (SimEngine, usize),
    k: usize,
    signatures: bool,
    full: &CampaignOutcome,
) {
    let boundaries = segment_schedule(PATTERNS);
    let context = format!(
        "{name} {engine:?} boundary {k} ({} pass)",
        if signatures { "signature" } else { "detect" }
    );
    let path = scratch(&format!("{name}-{engine:?}-{k}"));

    // The "kill": a checkpointing run stopped at boundary `k`.
    let mut stop = if signatures {
        StopAt::with_signatures(k)
    } else {
        StopAt::new(k)
    };
    let interrupted = Campaign::new(netlist)
        .config(config_on(engine))
        .faults("stuck-at", faults.to_vec())
        .checkpoint_to(&path)
        .observe(&mut stop)
        .try_run()
        .unwrap_or_else(|e| panic!("interrupted run failed: {context}: {e}"));
    assert_eq!(
        interrupted.patterns_applied, boundaries[k],
        "stop boundary: {context}"
    );
    assert!(interrupted.incidents.is_empty(), "incidents: {context}");
    assert_eq!(
        interrupted.telemetry.totals.checkpoints_written,
        (k + 1) as u64,
        "checkpoints written: {context}"
    );
    assert!(
        interrupted.telemetry.totals.checkpoint_bytes > 0,
        "checkpoint bytes: {context}"
    );
    assert!(path.exists(), "checkpoint file: {context}");

    // The resume: a fresh campaign picking up from the checkpoint must
    // finish the budget and match the uninterrupted run bit-for-bit.
    let mut witness = StopAt::witness();
    let mut resumed = Campaign::new(netlist)
        .config(config_on(engine))
        .faults("stuck-at", faults.to_vec())
        .resume_from(&path);
    if signatures {
        resumed = resumed.observe(&mut witness);
    }
    let resumed = resumed
        .try_run()
        .unwrap_or_else(|e| panic!("resumed run failed: {context}: {e}"));
    assert!(resumed.incidents.is_empty(), "resume incidents: {context}");
    assert_results_equal(&resumed, full, &context);
    std::fs::remove_file(&path).ok();
}

/// Tentpole acceptance: every suite machine × every engine × every
/// segment boundary, detect pass.  Killing the campaign at the boundary
/// and resuming reproduces the uninterrupted detection sets exactly.
#[test]
fn resume_matches_uninterrupted_detect_pass_across_suite_and_engines() {
    let _session = arm(ChaosPlan::new());
    let boundaries = segment_schedule(PATTERNS);
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(netlist, MAX_FAULTS);
        for engine in ENGINES {
            let full = Campaign::new(netlist)
                .config(config_on(engine))
                .faults("stuck-at", faults.clone())
                .try_run()
                .unwrap_or_else(|e| panic!("full run failed: {name} {engine:?}: {e}"));
            for k in 0..boundaries.len() {
                check_resume(name, netlist, &faults, engine, k, false, &full);
            }
        }
    }
}

/// Same matrix for the signature (dictionary) pass: resumed dictionaries
/// — signatures, checkpoint planes, first-detects — are bit-for-bit
/// equal to the uninterrupted ones on every machine and engine.
#[test]
fn resume_matches_uninterrupted_signature_pass_across_suite_and_engines() {
    let _session = arm(ChaosPlan::new());
    let boundaries = segment_schedule(PATTERNS);
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(netlist, MAX_FAULTS);
        for engine in ENGINES {
            let mut witness = StopAt::witness();
            let full = Campaign::new(netlist)
                .config(config_on(engine))
                .faults("stuck-at", faults.clone())
                .observe(&mut witness)
                .try_run()
                .unwrap_or_else(|e| panic!("full run failed: {name} {engine:?}: {e}"));
            assert!(
                full.sections[0].dictionary.is_some(),
                "witness forces the signature pass: {name} {engine:?}"
            );
            for k in 0..boundaries.len() {
                check_resume(name, netlist, &faults, engine, k, true, &full);
            }
        }
    }
}

// Property flavour of the resume guarantee: random (machine, engine,
// boundary, seed, pass) cells, including non-default stimulus seeds, all
// reproduce the uninterrupted run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn resume_reproduces_uninterrupted_runs(
        machine in 0usize..64,
        engine in 0usize..ENGINES.len(),
        boundary in 0usize..3,
        seed in 1u64..u32::MAX as u64,
        pass in 0usize..2,
    ) {
        let _session = arm(ChaosPlan::new());
        let netlists = suite_netlists();
        let (name, netlist) = &netlists[machine % netlists.len()];
        let engine = ENGINES[engine];
        let signatures = pass == 1;
        let faults = capped_faults(netlist, MAX_FAULTS);
        let config = CampaignConfig {
            seed,
            ..config_on(engine)
        };
        let mut witness = StopAt::witness();
        let mut full = Campaign::new(netlist)
            .config(config.clone())
            .faults("stuck-at", faults.clone());
        if signatures {
            full = full.observe(&mut witness);
        }
        let full = full.try_run().unwrap();

        let path = scratch(&format!("prop-{name}-{engine:?}-{boundary}"));
        let mut stop = if signatures {
            StopAt::with_signatures(boundary)
        } else {
            StopAt::new(boundary)
        };
        let interrupted = Campaign::new(netlist)
            .config(config.clone())
            .faults("stuck-at", faults.clone())
            .checkpoint_to(&path)
            .observe(&mut stop)
            .try_run()
            .unwrap();
        prop_assert_eq!(
            interrupted.patterns_applied,
            segment_schedule(PATTERNS)[boundary]
        );

        let mut witness = StopAt::witness();
        let mut resumed = Campaign::new(netlist)
            .config(config.clone())
            .faults("stuck-at", faults.clone())
            .resume_from(&path);
        if signatures {
            resumed = resumed.observe(&mut witness);
        }
        let resumed = resumed.try_run().unwrap();
        std::fs::remove_file(&path).ok();
        assert_results_equal(
            &resumed,
            &full,
            &format!("property {name} {engine:?} boundary {boundary} seed {seed}"),
        );
    }
}

/// A resume whose replayed history already satisfies a stop vote must
/// assemble the outcome entirely from the checkpoint (running the pass
/// would simulate extra segments) and match the early-stopped reference.
#[test]
fn resume_of_an_early_stopped_campaign_replays_the_stop() {
    let _session = arm(ChaosPlan::new());
    let (name, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    for engine in ENGINES {
        for signatures in [false, true] {
            let context = format!("{name} {engine:?} signatures={signatures}");
            let make_stop = || {
                if signatures {
                    StopAt::with_signatures(1)
                } else {
                    StopAt::new(1)
                }
            };

            // Reference: the early-stopped run, no checkpointing.
            let mut stop = make_stop();
            let reference = Campaign::new(netlist)
                .config(config_on(engine))
                .faults("stuck-at", faults.clone())
                .observe(&mut stop)
                .try_run()
                .unwrap();
            assert!(reference.stopped_early(), "{context}");

            // The same run, checkpointed.
            let path = scratch(&format!("stop-{name}-{engine:?}-{signatures}"));
            let mut stop = make_stop();
            Campaign::new(netlist)
                .config(config_on(engine))
                .faults("stuck-at", faults.clone())
                .checkpoint_to(&path)
                .observe(&mut stop)
                .try_run()
                .unwrap();

            // Resume with the same stopping observer: the replay of the
            // stored segments re-raises the stop, so the outcome is
            // assembled from the checkpoint without further simulation.
            let mut stop = make_stop();
            let resumed = Campaign::new(netlist)
                .config(config_on(engine))
                .faults("stuck-at", faults.clone())
                .resume_from(&path)
                .observe(&mut stop)
                .try_run()
                .unwrap();
            std::fs::remove_file(&path).ok();
            assert!(resumed.stopped_early(), "{context}");
            assert_results_equal(&resumed, &reference, &context);
        }
    }
}

/// Injected worker panics are recovered by the quarantined re-run:
/// results stay bit-for-bit identical to a clean multi-worker run, the
/// recoveries are counted, and none of it surfaces as an incident.
#[test]
fn injected_worker_panics_are_recovered_without_changing_results() {
    let netlists = suite_netlists();
    let (name, netlist) = &netlists[netlists.len() / 2];
    let faults = capped_faults(netlist, 96);
    assert!(
        faults.len() > 63,
        "need more than one 63-lane block for a real fan-out"
    );
    // Narrow lane blocks (63 fault lanes) so 96 faults split into two
    // shards — the differential fan-out only spawns workers when there is
    // more than one block to hand out.
    let config = CampaignConfig {
        threads: 4,
        block_words: Some(1),
        ..config_for(SimEngine::Differential)
    };
    for signatures in [false, true] {
        let context = format!("{name} signatures={signatures}");
        let run = |chaos: bool| {
            let _guard = if chaos {
                // Panic the first item of the first fan-out (guaranteed to
                // fire) plus a seeded pseudo-random sprinkle.
                Some(arm(ChaosPlan::seeded(0xC0FFEE, 16, 8, 3).worker_panic(0, 0)))
            } else {
                None
            };
            let mut witness = StopAt::witness();
            let mut campaign = Campaign::new(netlist)
                .config(config.clone())
                .faults("stuck-at", faults.clone());
            if signatures {
                campaign = campaign.observe(&mut witness);
            }
            campaign.try_run().unwrap()
        };
        let clean = run(false);
        let chaotic = run(true);
        assert!(
            chaotic.telemetry.totals.worker_panics_recovered >= 1,
            "recoveries counted: {context}"
        );
        assert!(
            chaotic.incidents.is_empty(),
            "recovered worker panics are not incidents: {context}"
        );
        assert_results_equal(&chaotic, &clean, &context);
    }
}

/// A panicking observer is latched out of the remaining lifecycle and
/// reported as an incident; the campaign completes with its results
/// untouched and the surviving observers still served.
#[test]
fn observer_panic_is_latched_and_reported_not_fatal() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    let clean = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .try_run()
        .unwrap();

    let mut chaos = ChaosObserver::panic_at(1);
    let mut coverage = CoverageObserver::new();
    let outcome = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .observe(&mut chaos)
        .observe(&mut coverage)
        .try_run()
        .unwrap();

    // The run completed to budget with identical results...
    assert_results_equal(&outcome, &clean, "observer panic");
    // ...the panic became an incident naming the observer and phase...
    assert!(outcome.incidents.iter().any(|incident| matches!(
        incident,
        CampaignError::ObserverFailure {
            observer: 0,
            phase: ObserverPhase::Segment,
            message,
        } if message.contains("injected observer panic")
    )));
    // ...the panicking observer was latched out (saw segment 0, then
    // nothing — not even `on_finish`)...
    assert_eq!(chaos.segments_seen, 1);
    assert!(!chaos.finished);
    // ...and the surviving observer was served normally.
    assert_eq!(coverage.results().len(), 1);
    assert_eq!(
        coverage.result().unwrap().detection_pattern,
        clean.sections[0].detection_pattern
    );
}

/// A latched (non-panic) observer failure — [`CampaignObserver::failure`]
/// — is polled after `on_finish` and reported as an incident.
#[test]
fn latched_observer_failures_surface_as_incidents() {
    struct Latched;
    impl CampaignObserver for Latched {
        fn on_finish(&mut self, outcome: &CampaignOutcome) {
            // The outcome handed to observers predates the poll.
            assert!(outcome.incidents.is_empty());
        }
        fn failure(&self) -> Option<String> {
            Some("sink ran dry".into())
        }
    }

    let (_, netlist) = &suite_netlists()[0];
    let mut latched = Latched;
    let outcome = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", capped_faults(netlist, MAX_FAULTS))
        .observe(&mut latched)
        .try_run()
        .unwrap();
    assert!(outcome.incidents.iter().any(|incident| matches!(
        incident,
        CampaignError::ObserverFailure {
            observer: 0,
            phase: ObserverPhase::Finish,
            message,
        } if message == "sink ran dry"
    )));
}

/// An injected checkpoint write failure latches checkpointing off: the
/// campaign finishes with identical results and a
/// [`CampaignError::CheckpointIo`] incident, and no partial file is left
/// when the very first write failed.
#[test]
fn checkpoint_write_failure_latches_off_and_is_reported() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    let clean = {
        let _session = arm(ChaosPlan::new());
        Campaign::new(netlist)
            .config(config_for(SimEngine::Auto))
            .faults("stuck-at", faults.clone())
            .try_run()
            .unwrap()
    };

    // First write fails: no file is ever created.
    let path = scratch("io-first");
    let outcome = {
        let _guard = arm(ChaosPlan::new().checkpoint_io(0));
        Campaign::new(netlist)
            .config(config_for(SimEngine::Auto))
            .faults("stuck-at", faults.clone())
            .checkpoint_to(&path)
            .try_run()
            .unwrap()
    };
    assert!(!path.exists());
    assert_results_equal(&outcome, &clean, "checkpoint io at segment 0");
    assert!(outcome.incidents.iter().any(|incident| matches!(
        incident,
        CampaignError::CheckpointIo { message, .. }
            if message.contains("injected checkpoint write failure")
    )));
    // Latch-off: exactly one write was attempted, none succeeded.
    assert_eq!(outcome.telemetry.totals.checkpoints_written, 0);

    // Second write fails: the segment-0 file survives and still resumes.
    let path = scratch("io-second");
    let outcome = {
        let _guard = arm(ChaosPlan::new().checkpoint_io(1));
        Campaign::new(netlist)
            .config(config_for(SimEngine::Auto))
            .faults("stuck-at", faults.clone())
            .checkpoint_to(&path)
            .try_run()
            .unwrap()
    };
    assert!(path.exists());
    assert_results_equal(&outcome, &clean, "checkpoint io at segment 1");
    assert_eq!(outcome.telemetry.totals.checkpoints_written, 1);
    let resumed = {
        let _session = arm(ChaosPlan::new());
        Campaign::new(netlist)
            .config(config_for(SimEngine::Auto))
            .faults("stuck-at", faults.clone())
            .resume_from(&path)
            .try_run()
            .unwrap()
    };
    std::fs::remove_file(&path).ok();
    assert_results_equal(&resumed, &clean, "resume from surviving segment-0 file");
}

/// Config validation at plan time: out-of-range knobs fail `try_run` with
/// the precise typed error instead of being silently clamped, while the
/// degenerate zero-pattern campaign stays total (unless it is asked to
/// checkpoint, which would have nothing to write).
#[test]
fn invalid_configs_fail_with_typed_errors() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, 8);

    let err = Campaign::new(netlist)
        .config(CampaignConfig {
            block_words: Some(3),
            ..config_for(SimEngine::Differential)
        })
        .faults("stuck-at", faults.clone())
        .try_run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::InvalidBlockWords { requested: 3 }
    ));

    let err = Campaign::new(netlist)
        .faults("stuck-at", faults.clone())
        .threads(0)
        .try_run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::InvalidThreads { requested: 0 }
    ));

    // Zero patterns: fine on its own, an error when asked to checkpoint.
    let outcome = Campaign::new(netlist)
        .faults("stuck-at", faults.clone())
        .patterns(0)
        .try_run()
        .unwrap();
    assert_eq!(outcome.patterns_applied, 0);
    let err = Campaign::new(netlist)
        .faults("stuck-at", faults.clone())
        .patterns(0)
        .checkpoint_to(scratch("zero"))
        .try_run()
        .unwrap_err();
    assert!(matches!(err, CampaignError::ZeroPatternBudget));
}

/// Checkpoint loading rejects missing, corrupt and mismatched files with
/// the precise typed error.
#[test]
fn bad_checkpoints_fail_with_typed_errors() {
    let _session = arm(ChaosPlan::new());
    let netlists = suite_netlists();
    let (_, netlist) = &netlists[0];
    let (_, other) = &netlists[1];
    let faults = capped_faults(netlist, MAX_FAULTS);

    // Missing file.
    let err = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .resume_from(scratch("missing"))
        .try_run()
        .unwrap_err();
    assert!(matches!(err, CampaignError::CheckpointIo { .. }));

    // Corrupt file.
    let path = scratch("corrupt");
    std::fs::write(&path, "not a checkpoint\n").unwrap();
    let err = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .resume_from(&path)
        .try_run()
        .unwrap_err();
    assert!(matches!(err, CampaignError::CheckpointFormat { .. }));
    std::fs::remove_file(&path).ok();

    // A real checkpoint to mismatch against.
    let path = scratch("mismatch");
    let mut stop = StopAt::new(0);
    Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .checkpoint_to(&path)
        .observe(&mut stop)
        .try_run()
        .unwrap();

    // Wrong budget.
    let err = Campaign::new(netlist)
        .config(CampaignConfig {
            max_patterns: PATTERNS * 2,
            ..config_for(SimEngine::Auto)
        })
        .faults("stuck-at", faults.clone())
        .resume_from(&path)
        .try_run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::CheckpointMismatch { field, .. } if field == "max_patterns"
    ));

    // Wrong campaign (different netlist): digest mismatch.
    let err = Campaign::new(other)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", capped_faults(other, MAX_FAULTS))
        .resume_from(&path)
        .try_run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::CheckpointMismatch { field, .. } if field == "digest"
    ));

    // Wrong pass kind: the checkpoint holds a detect-pass snapshot, the
    // resuming campaign asks for signatures.
    let mut witness = StopAt::witness();
    let err = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", faults.clone())
        .resume_from(&path)
        .observe(&mut witness)
        .try_run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::CheckpointMismatch { field, .. } if field == "pass"
    ));
    std::fs::remove_file(&path).ok();
}

/// Checkpoints are engine-agnostic: a checkpoint written by one engine
/// resumes on any other, bit-for-bit.
#[test]
fn checkpoints_resume_across_engines() {
    let _session = arm(ChaosPlan::new());
    let (name, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    let full = Campaign::new(netlist)
        .config(config_for(SimEngine::Scalar))
        .faults("stuck-at", faults.clone())
        .try_run()
        .unwrap();

    let path = scratch("cross-engine");
    let mut stop = StopAt::new(1);
    Campaign::new(netlist)
        .config(config_for(SimEngine::Packed))
        .faults("stuck-at", faults.clone())
        .checkpoint_to(&path)
        .observe(&mut stop)
        .try_run()
        .unwrap();

    for engine in ENGINES {
        let resumed = Campaign::new(netlist)
            .config(config_on(engine))
            .faults("stuck-at", faults.clone())
            .resume_from(&path)
            .try_run()
            .unwrap();
        // Engines agree bit-for-bit, so compare results (not the engine
        // tag) against the scalar reference.
        assert_eq!(
            resumed.sections[0].detection_pattern, full.sections[0].detection_pattern,
            "{name}: packed checkpoint resumed on {engine:?}"
        );
        assert_eq!(resumed.patterns_applied, full.patterns_applied);
    }
    std::fs::remove_file(&path).ok();
}

/// The JSONL trace observer's deferred write error surfaces on the
/// outcome as an [`CampaignError::ObserverFailure`] incident.
#[test]
fn trace_write_errors_surface_on_the_outcome() {
    use std::io::Write;

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let (_, netlist) = &suite_netlists()[0];
    let mut trace = stfsm_trace::TraceObserver::new(FailingWriter);
    let outcome = Campaign::new(netlist)
        .config(config_for(SimEngine::Auto))
        .faults("stuck-at", capped_faults(netlist, 8))
        .observe(&mut trace)
        .try_run()
        .unwrap();
    assert_eq!(outcome.patterns_applied, PATTERNS);
    assert!(outcome.incidents.iter().any(|incident| matches!(
        incident,
        CampaignError::ObserverFailure { phase: ObserverPhase::Finish, message, .. }
            if message.contains("disk full")
    )));
}
