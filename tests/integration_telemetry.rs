//! Integration tests of the campaign telemetry layer: instrumentation
//! must be *faithful* (counters satisfy their defining invariants, spans
//! only tick when enabled) and *free of observable effect* — every suite
//! machine on every engine produces bit-for-bit identical results with
//! span timing on and off.

use std::sync::OnceLock;
use stfsm::bist::netlist::Netlist;
use stfsm::faults::{FaultModel, StuckAt};
use stfsm::logic::espresso::MinimizeConfig;
use stfsm::testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignPlan, DictionaryObserver,
};
use stfsm::testsim::coverage::{CampaignConfig, SimEngine};
use stfsm::testsim::telemetry::CampaignMetrics;
use stfsm::testsim::Injection;
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow};

/// Patterns per suite campaign (debug-build friendly).
const PATTERNS: usize = 48;

/// Cap per fault list; larger lists are strided down.
const MAX_FAULTS: usize = 96;

const ENGINES: [SimEngine; 5] = [
    SimEngine::Scalar,
    SimEngine::Packed,
    SimEngine::Differential,
    SimEngine::Threaded,
    SimEngine::Auto,
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
                    .with_minimizer(MinimizeConfig::fast())
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

/// Span timing on vs off must be bit-for-bit invisible: identical
/// detection patterns, applied/generated pattern counts and segment
/// boundaries on all 13 suite machines across all five engines.  Only the
/// `*_ns` spans may differ (and with timing off they must all be zero).
#[test]
fn telemetry_is_bit_for_bit_neutral_across_the_suite() {
    for (name, netlist) in suite_netlists() {
        let faults = capped_faults(netlist, MAX_FAULTS);
        for engine in ENGINES {
            let instrumented = CampaignConfig {
                max_patterns: PATTERNS,
                engine,
                telemetry: true,
                ..CampaignConfig::default()
            };
            let bare = CampaignConfig {
                telemetry: false,
                ..instrumented.clone()
            };
            let on = run_campaign(netlist, &faults, &instrumented);
            let off = run_campaign(netlist, &faults, &bare);
            assert_eq!(
                on.sections[0].detection_pattern, off.sections[0].detection_pattern,
                "detection patterns must not depend on telemetry: {name} {engine:?}"
            );
            assert_eq!(
                on.patterns_applied, off.patterns_applied,
                "{name} {engine:?}"
            );
            assert_eq!(
                on.stimulus_generated, off.stimulus_generated,
                "{name} {engine:?}"
            );
            assert_eq!(
                on.telemetry.segments.len(),
                off.telemetry.segments.len(),
                "{name} {engine:?}"
            );
            // Counters stay on either way — only the clocks stop.
            assert_eq!(
                strip_spans(&on.telemetry.totals),
                strip_spans(&off.telemetry.totals),
                "counter values must not depend on span timing: {name} {engine:?}"
            );
            let off_totals = &off.telemetry.totals;
            for (span, value) in [
                ("stimulus_ns", off_totals.stimulus_ns),
                ("good_trace_ns", off_totals.good_trace_ns),
                ("fault_eval_ns", off_totals.fault_eval_ns),
                ("dictionary_ns", off_totals.dictionary_ns),
                ("observer_ns", off_totals.observer_ns),
            ] {
                assert_eq!(
                    value, 0,
                    "{span} must be zero with timing off: {name} {engine:?}"
                );
            }
        }
    }
}

/// A metrics copy with every wall-clock span zeroed, for comparing the
/// deterministic counters across timing modes.
fn strip_spans(metrics: &CampaignMetrics) -> CampaignMetrics {
    CampaignMetrics {
        stimulus_ns: 0,
        good_trace_ns: 0,
        fault_eval_ns: 0,
        dictionary_ns: 0,
        observer_ns: 0,
        ..metrics.clone()
    }
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
    for engine in ENGINES {
        let config = CampaignConfig {
            max_patterns: PATTERNS,
            engine,
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
            "stimulus rows: {name} {engine:?}"
        );
        assert_eq!(
            totals.lane_retirements, detected,
            "every detection retires exactly one lane: {name} {engine:?}"
        );
        assert_eq!(
            totals.cache_lookups,
            totals.cache_hits + totals.cache_misses,
            "cache traffic must balance: {name} {engine:?}"
        );
        assert!(
            totals.events_scheduled <= totals.events_drained,
            "drained covers scheduled plus the per-cycle seeds: {name} {engine:?}"
        );
        assert!(
            totals.cycles_simulated <= outcome.patterns_applied as u64,
            "no pass simulates more cycles than it applies: {name} {engine:?}"
        );
        assert_eq!(
            outcome
                .telemetry
                .segments
                .last()
                .map(|s| s.patterns_applied),
            Some(outcome.patterns_applied),
            "last segment ends at the outcome's pattern count: {name} {engine:?}"
        );
        for segment in &outcome.telemetry.segments {
            assert!(segment.end_ns >= segment.start_ns, "{name} {engine:?}");
        }
        // The event-driven engines actually exercise the worklist and the
        // full-sweep fallback on fresh blocks; the sweep engines never do.
        // Keyed off the *resolved* engine — `Auto` picks packed below the
        // differential gate threshold.
        let event_driven = matches!(
            outcome.engine,
            SimEngine::Differential | SimEngine::Threaded
        );
        assert_eq!(
            totals.events_drained > 0,
            event_driven,
            "worklist drains iff the engine is event-driven: {name} {engine:?}"
        );
        if event_driven {
            assert!(
                totals.full_sweeps > 0,
                "fresh blocks sweep: {name} {engine:?}"
            );
        }
    }
}

/// The resolved thread count lands on the plan: the configured count for
/// the threaded engine, 1 for every single-threaded engine.
#[test]
fn plan_reports_the_resolved_thread_count() {
    let (_, netlist) = &suite_netlists()[0];
    let faults = capped_faults(netlist, MAX_FAULTS);
    for (engine, threads, expected) in [
        (SimEngine::Scalar, None, 1),
        (SimEngine::Differential, Some(3), 1),
        (SimEngine::Threaded, Some(3), 3),
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
    for engine in [SimEngine::Differential, SimEngine::Threaded] {
        let mut dictionary = DictionaryObserver::new();
        let outcome = Campaign::new(netlist)
            .config(CampaignConfig {
                max_patterns: PATTERNS,
                engine,
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
             {name} {engine:?} ({} hits, {segments} segments)",
            totals.cache_hits
        );
        assert_eq!(
            totals.cache_lookups,
            totals.cache_hits + totals.cache_misses,
            "{name} {engine:?}"
        );
        assert!(
            totals.dictionary_ns > 0,
            "the dictionary phase span must tick: {name} {engine:?}"
        );
        assert!(
            totals.widenings > 0,
            "the un-dropped pass widens diverged words: {name} {engine:?}"
        );
    }
}
