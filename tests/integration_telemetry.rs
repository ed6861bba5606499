//! Integration tests of the campaign telemetry layer: instrumentation
//! must be *faithful* — counters satisfy their defining invariants, spans
//! tick, and the plan reports the worker count that actually runs.

use std::sync::OnceLock;
use stfsm::bist::netlist::Netlist;
use stfsm::faults::{FaultModel, Injection, StuckAt};
use stfsm::testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignPlan, DictionaryObserver,
};
use stfsm::testsim::coverage::{CampaignConfig, SimEngine};
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow};

/// Patterns per suite campaign (debug-build friendly).
const PATTERNS: usize = 48;

/// Cap per fault list; larger lists are strided down.
const MAX_FAULTS: usize = 96;

/// Every engine with its worker count: the differential engine runs at
/// one and at two.
const ENGINES: [(SimEngine, usize); 5] = [
    (SimEngine::Scalar, 1),
    (SimEngine::Packed, 1),
    (SimEngine::Differential, 1),
    (SimEngine::Differential, 2),
    (SimEngine::Auto, 1),
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

/// The model's collapsed fault list, strided down to at most `cap` faults.
fn capped_faults(netlist: &Netlist, cap: usize) -> Vec<Injection> {
    let faults = StuckAt.fault_list(netlist, true);
    let stride = faults.len().div_ceil(cap).max(1);
    faults.into_iter().step_by(stride).collect()
}

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

/// Captures the campaign plan for assertions on its resolved fields.
#[derive(Default)]
struct PlanCapture {
    threads: Option<usize>,
    block_words: Option<usize>,
}

impl CampaignObserver for PlanCapture {
    fn on_begin(&mut self, plan: &CampaignPlan) {
        self.threads = Some(plan.threads);
        self.block_words = plan.block_words;
    }

    fn on_finish(&mut self, _outcome: &CampaignOutcome) {}
}

/// The counters' defining invariants on a coverage campaign, per engine:
/// stimulus rows equal the outcome's generated count, retirements equal
/// detections, cache traffic balances, the worklist never drains fewer
/// steps than it schedules, and segment bookkeeping matches the outcome.
#[test]
fn counters_satisfy_their_invariants_on_every_engine() {
    let (name, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    for (engine, threads) in ENGINES {
        let config = CampaignConfig {
            max_patterns: PATTERNS,
            engine,
            threads,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(netlist, &faults, &config);
        let totals = &outcome.telemetry.totals;
        let detected: u64 = outcome.sections[0]
            .detection_pattern
            .iter()
            .flatten()
            .count() as u64;
        assert_eq!(
            totals.stimulus_patterns, outcome.stimulus_generated as u64,
            "stimulus rows: {name} {engine:?} x{threads}"
        );
        assert_eq!(
            totals.lane_retirements, detected,
            "every detection retires exactly one lane: {name} {engine:?} x{threads}"
        );
        assert_eq!(
            totals.cache_lookups,
            totals.cache_hits + totals.cache_misses,
            "cache traffic must balance: {name} {engine:?} x{threads}"
        );
        assert!(
            totals.events_scheduled <= totals.events_drained,
            "drained covers scheduled plus the per-cycle seeds: {name} {engine:?} x{threads}"
        );
        assert!(
            totals.cycles_simulated <= outcome.patterns_applied as u64,
            "no pass simulates more cycles than it applies: {name} {engine:?} x{threads}"
        );
        assert_eq!(
            outcome
                .telemetry
                .segments
                .last()
                .map(|s| s.patterns_applied),
            Some(outcome.patterns_applied),
            "last segment ends at the outcome's pattern count: {name} {engine:?} x{threads}"
        );
        for segment in &outcome.telemetry.segments {
            assert!(
                segment.end_ns >= segment.start_ns,
                "{name} {engine:?} x{threads}"
            );
        }
        // The event-driven engines actually exercise the worklist and the
        // full-sweep fallback on fresh blocks; the sweep engines never do.
        // Keyed off the *resolved* engine — `Auto` picks packed below the
        // differential gate threshold.
        let event_driven = outcome.engine == SimEngine::Differential;
        assert_eq!(
            totals.events_drained > 0,
            event_driven,
            "worklist drains iff the engine is event-driven: {name} {engine:?} x{threads}"
        );
        if event_driven {
            assert!(
                totals.full_sweeps > 0,
                "fresh blocks sweep: {name} {engine:?} x{threads}"
            );
        }
    }
}

/// The resolved thread count lands on the plan: the configured count for
/// the differential engine, 1 for the scalar and packed engines, which run
/// on the calling thread whatever the count says.  The default is one
/// worker.
#[test]
fn plan_reports_the_resolved_thread_count() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    assert_eq!(CampaignConfig::default().threads, 1);
    for (engine, threads, expected) in [
        (SimEngine::Scalar, 1, 1),
        (SimEngine::Packed, 3, 1),
        (SimEngine::Differential, 3, 3),
    ] {
        let mut capture = PlanCapture::default();
        Campaign::new(netlist)
            .config(CampaignConfig {
                max_patterns: PATTERNS,
                engine,
                threads,
                ..CampaignConfig::default()
            })
            .faults("faults", faults.to_vec())
            .observe(&mut capture)
            .run();
        assert_eq!(capture.threads, Some(expected), "{engine:?}");
    }
}

/// A dictionary campaign exercises the good-trace cache's reuse path: the
/// signature pass re-reads each segment's recording, so hits are at least
/// the segment count and the dictionary phase span ticks.
#[test]
fn dictionary_campaigns_hit_the_good_trace_cache() {
    let (name, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    for threads in [1, 2] {
        let mut dictionary = DictionaryObserver::new();
        let outcome = Campaign::new(netlist)
            .config(CampaignConfig {
                max_patterns: PATTERNS,
                engine: SimEngine::Differential,
                threads,
                ..CampaignConfig::default()
            })
            .faults("faults", faults.to_vec())
            .observe(&mut dictionary)
            .run();
        let totals = &outcome.telemetry.totals;
        let segments = outcome.telemetry.segments.len() as u64;
        assert!(
            totals.cache_hits >= segments,
            "the signature pass re-reads every segment's recording: \
             {name} x{threads} ({} hits, {segments} segments)",
            totals.cache_hits
        );
        assert_eq!(
            totals.cache_lookups,
            totals.cache_hits + totals.cache_misses,
            "{name} x{threads}"
        );
        assert!(
            totals.dictionary_ns > 0,
            "the dictionary phase span must tick: {name} x{threads}"
        );
        assert!(
            totals.widenings > 0,
            "the un-dropped pass widens diverged words: {name} x{threads}"
        );
    }
}
