//! The unified campaign API: one simulation pass, streamed to composable
//! lifecycle observers.
//!
//! The paper's self-test flow is one pipeline — synthesize a BIST
//! structure, simulate the fault universe, compress the responses into a
//! MISR signature, diagnose from that signature — and its headline
//! economic claim is about *test length*: a practical campaign stops as
//! soon as the target coverage is met instead of burning the full pattern
//! budget.  A [`Campaign`] therefore runs the fault universe **once** and
//! streams its progress to any number of composable, object-safe
//! [`CampaignObserver`]s through a three-phase lifecycle:
//!
//! 1. [`on_begin`](CampaignObserver::on_begin) — the resolved
//!    [`CampaignPlan`] (structure, stimulation, engine, fault sections and
//!    the pinned segment schedule) before the first pattern is applied;
//! 2. [`on_segment`](CampaignObserver::on_segment) — one
//!    [`SegmentSnapshot`] per compaction segment *during* the run: the
//!    newly detected fault indices per section, the patterns applied so
//!    far and the running coverage.  The returned [`ObserverControl`] is
//!    the observer's standing vote: once **every** observer has voted
//!    [`ObserverControl::Stop`], the campaign ends at that segment
//!    boundary and the remaining pattern budget is never simulated;
//! 3. [`on_finish`](CampaignObserver::on_finish) — the complete
//!    [`CampaignOutcome`], exactly once per run.
//!
//! Early stopping is **deterministic**: every engine of the
//! [`SimEngine`] matrix advances through the same engine-independent
//! doubling segment schedule ([`segment_schedule`]), reports identical
//! snapshots at identical boundaries, and therefore stops an early-stopped
//! campaign at the same pattern count with the same detection sets —
//! bit for bit, across engines and thread counts.
//!
//! [`Campaign`] is the only way to run fault simulation: the coverage,
//! dictionary and diagnosis results all come out of its observers.
//!
//! # Observers
//!
//! * [`CoverageObserver`] — fault coverage, detection patterns and the
//!   coverage curve, one [`CoverageResult`] per section;
//! * [`DictionaryObserver`] — full fault dictionaries with final and
//!   per-segment intermediate MISR signatures;
//! * [`DiagnosisObserver`](crate::diagnosis::DiagnosisObserver) — a
//!   [`Diagnosis`](crate::diagnosis::Diagnosis) that maps an observed
//!   failing signature back to ranked candidate faults across models;
//! * [`CoverageTargetObserver`] — votes to stop once a coverage target is
//!   reached (the paper's stop-at-X% campaign);
//! * [`TestLengthObserver`] — measures the patterns-to-target of one BIST
//!   structure (and stops there), the instrument behind the paper's
//!   test-length comparison.
//!
//! The first three never vote to stop, so a campaign carrying only them
//! runs its full budget and reproduces the pre-streaming results
//! bit for bit.
//!
//! # Delay testing
//!
//! The delay-fault models ride the same campaign pipeline as the static
//! ones, with two extra moving parts:
//!
//! * **Two-pattern stimulus** — path-delay faults detect through a
//!   *launch/capture* pair: a cycle that creates the slow transition at
//!   the path's launch net and a next cycle that observes the stale value
//!   at its terminal.  [`Campaign::paired_patterns`] (backed by
//!   [`CampaignConfig::paired_patterns`]) wraps the input source in
//!   [`PairedPatterns`](crate::patterns::PairedPatterns): every odd cycle
//!   re-applies the previous pattern with exactly one input flipped, so
//!   each pair carries one controlled input transition.  Purely functional
//!   stimulation (PST) works too — system-state transitions launch paths
//!   on their own — but pairing raises the sensitization rate.
//! * **Lane memory** — delay faults are stateful: a transition lane
//!   remembers one cycle, a `net/GD3` gross delay carries a three-slot
//!   delay line, a `net3→net9/PDF-R` path lane tracks its launch history.
//!   The campaign engines carry that memory through lane compaction,
//!   segment reseeding and checkpoint/resume (the `m`-token of the
//!   checkpoint text format), so a killed-and-resumed delay campaign is
//!   bit-for-bit identical to an uninterrupted one — on every engine and
//!   at every thread count.
//!
//! How often paths actually fired is visible in the campaign telemetry:
//! [`CampaignMetrics::path_launches`](crate::telemetry::CampaignMetrics::path_launches)
//! counts committed slow-polarity launch edges and
//! [`CampaignMetrics::path_activations`](crate::telemetry::CampaignMetrics::path_activations)
//! counts fully sensitized launch/capture pairs.
//!
//! # Observability
//!
//! Every run fills a [`CampaignMetrics`](crate::telemetry::CampaignMetrics)
//! counter set per segment, surfaced live on
//! [`SegmentSnapshot::telemetry`] and in aggregate on
//! [`CampaignOutcome::telemetry`], together with per-phase wall-clock spans
//! and, when the differential engine runs more than one worker
//! ([`Campaign::threads`]), per-worker spans.  Telemetry never feeds back
//! into simulation, so it never changes a result bit.
//!
//! Counter glossary (each [`CampaignMetrics`](crate::telemetry::CampaignMetrics)
//! field documents its exact accounting):
//!
//! | Counter | Meaning |
//! |---|---|
//! | `events_scheduled` / `events_drained` / `steps_skipped` | the differential engine's worklist: fanout marks newly set, worklist entries evaluated, plan steps the worklist let a cycle skip |
//! | `full_sweeps` / `event_cycles` | block-cycles evaluated by full cone sweep vs through the event worklist |
//! | `widenings` / `narrowings` | per-word transitions onto / off the diverged-register step set |
//! | `lane_retirements` | fault lanes retired by a detection |
//! | `compaction_rebuilds` | survivor-compaction recompiles (differential) and chunk compiles (packed) |
//! | `cache_lookups` / `cache_hits` / `cache_misses` | `GoodTraceCache` traffic (`hits + misses = lookups`) |
//! | `stimulus_patterns` | stimulus rows generated (equals [`CampaignOutcome::stimulus_generated`]) |
//! | `cycles_simulated` | pattern cycles applied, summed over segments |
//! | `*_ns` spans | per-phase wall time: stimulus / good-trace / fault-eval / dictionary / observer |
//!
//! The `stfsm-trace` crate turns the stream into files.  Its
//! `TraceObserver` writes one JSONL record per lifecycle event: a
//! `{"type":"plan",...}` line from `on_begin`, one
//! `{"type":"segment","segment":N,"patterns_applied":...,"detected_faults":...,"metrics":{...},"workers":[...]}`
//! line per boundary, and a `{"type":"summary",...,"totals":{...}}` line
//! from `on_finish`.  Its Chrome-trace exporter renders a run as a Trace
//! Event Format file: open `chrome://tracing` (or
//! <https://ui.perfetto.dev>), load the file, and read the segment
//! timeline, the per-phase lane and — when the differential engine runs
//! several workers — one lane per worker.  `examples/campaign_trace.rs` is
//! the end-to-end recipe.
//!
//! # Migrating from the one-shot `observe()` API
//!
//! Until this redesign, `CampaignObserver` had a single
//! `observe(&CampaignOutcome)` callback invoked after the run.  That
//! method is now called [`on_finish`](CampaignObserver::on_finish) and is
//! the only required method — a post-hoc observer migrates by renaming
//! `fn observe` to `fn on_finish`.  The new `on_begin` / `on_segment`
//! hooks have default implementations (do nothing, vote
//! [`ObserverControl::Continue`]), so implementing only `on_finish`
//! preserves the exact pre-redesign behaviour.
//!
//! Fault universes are declared as *sections* — one per fault model (or
//! explicit injection list) — and observers see per-section results, so a
//! single pass covers multi-model campaigns end to end.  Section
//! dictionaries are shared as [`Arc<FaultDictionary>`]: signature-consuming
//! observers clone a pointer, not the dictionary.
//!
//! The campaign needs exactly one simulation style per run: if any observer
//! requires signatures, the whole universe runs the un-dropped dictionary
//! pass (whose first-detect indices are bit-for-bit the coverage
//! campaign's detection patterns, so segment snapshots — and stop
//! decisions — are identical); otherwise it runs the cheaper
//! drop-on-detect coverage pass.  Either way the engine matrix of
//! [`SimEngine`] applies unchanged, including the default
//! [`SimEngine::Auto`].
//!
//! # Example
//!
//! ```
//! use stfsm_fsm::suite::fig3_example;
//! use stfsm_encode::StateEncoding;
//! use stfsm_bist::{BistStructure, excitation::{build_pla, layout, RegisterTransform}, netlist::build_netlist};
//! use stfsm_logic::espresso::minimize;
//! use stfsm_faults::StuckAt;
//! use stfsm_testsim::campaign::{Campaign, CoverageObserver, CoverageTargetObserver};
//!
//! let fsm = fig3_example()?;
//! let encoding = StateEncoding::natural(&fsm)?;
//! let transform = RegisterTransform::Dff;
//! let pla = build_pla(&fsm, &encoding, &transform)?;
//! let cover = minimize(&pla).cover;
//! let lay = layout(&fsm, &encoding, &transform);
//! let netlist = build_netlist("fig3", &cover, &lay, BistStructure::Dff, None)?;
//!
//! // Stop as soon as 90 % of the stuck-at faults are covered.
//! let mut target = CoverageTargetObserver::new(0.9);
//! let outcome = Campaign::new(&netlist)
//!     .model(&StuckAt)
//!     .patterns(4096)
//!     .observe(&mut target)
//!     .run();
//! assert!(target.reached());
//! assert!(outcome.patterns_applied < 4096, "stopped early");
//!
//! // A full-budget run with a passive observer is unchanged.
//! let mut coverage = CoverageObserver::new();
//! let outcome = Campaign::new(&netlist)
//!     .model(&StuckAt)
//!     .patterns(256)
//!     .observe(&mut coverage)
//!     .run();
//! assert_eq!(outcome.patterns_applied, 256);
//! assert!(coverage.result().expect("one section").fault_coverage() > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Robustness
//!
//! Campaigns are crash-safe: configuration mistakes surface as typed
//! errors before any simulation work, mid-run failures are recovered from
//! without aborting (or changing a single result bit), and long campaigns
//! can checkpoint at segment boundaries and resume after a kill.
//! [`Campaign::try_run`] is the fallible entry point;
//! [`Campaign::run`] remains the historical wrapper that panics on error.
//!
//! ## Error taxonomy
//!
//! | [`CampaignError`] variant | When | Effect |
//! |---|---|---|
//! | `InvalidBlockWords` | plan time: `block_words` override ∉ {1, 4, 8} | `try_run` returns the error; nothing runs |
//! | `InvalidThreads` | plan time: `threads` is 0 or implausibly large | `try_run` returns the error; nothing runs |
//! | `ZeroPatternBudget` | plan time: checkpoint/resume requested with a zero-pattern budget | `try_run` returns the error; nothing runs |
//! | `ObserverFailure` | an observer panicked in `on_begin` / `on_segment` / `on_finish`, or reported a latched failure via [`CampaignObserver::failure`] | observer is latched out of the remaining lifecycle; the run completes and the failure lands on [`CampaignOutcome::incidents`] |
//! | `WorkerPanic` | a differential shard worker panicked *and* the deterministic single-threaded re-run of the quarantined shard panicked too | `try_run` returns the error (a recoverable panic is re-run transparently and only counted in [`CampaignMetrics::worker_panics_recovered`](crate::telemetry::CampaignMetrics::worker_panics_recovered)) |
//! | `CheckpointIo` | a checkpoint file could not be read (resume) or written (mid-run) | resume: `try_run` returns the error; mid-run write: checkpointing is latched off, the run completes, the error lands on [`CampaignOutcome::incidents`] |
//! | `CheckpointFormat` | a resume file parsed as something other than a version-1 checkpoint | `try_run` returns the error; nothing runs |
//! | `CheckpointMismatch` | a structurally valid checkpoint belongs to a different campaign (digest, budget or pass kind) | `try_run` returns the error; nothing runs |
//!
//! ## Checkpoint format and version policy
//!
//! [`Campaign::checkpoint_to`] writes a versioned, self-describing text
//! checkpoint (see the [`checkpoint`](crate::checkpoint) module docs for
//! the line grammar) atomically at *every* segment boundary: detection
//! state, survivor lanes or MISR checkpoint planes, the stimulus cursor
//! and the replayable segment history.  The format version is bumped on
//! any incompatible change and a resuming campaign rejects any version it
//! does not know ([`CampaignError::CheckpointFormat`]) — there is no
//! silent migration.  Checkpoints are engine-agnostic: the identity
//! digest covers the netlist, fault sections, seed, weights, stimulation
//! and budget but *not* the engine, thread count or block width, so a
//! checkpoint written by any engine resumes on any other bit-for-bit.
//!
//! ## Recovery semantics
//!
//! * A resumed campaign ([`Campaign::resume_from`]) replays the stored
//!   segment history through every observer (stop votes latch exactly as
//!   they did live), restores the engine state at the last stored
//!   boundary, regenerates only the stimulus prefix (a pure function of
//!   the seed) and finishes bit-for-bit equal to the uninterrupted run.
//! * A panicking observer never aborts the run: it is latched out, its
//!   sticky stop vote (if any) stands, and the panic is reported as an
//!   [`CampaignError::ObserverFailure`] incident.  A latched-out observer
//!   that never voted keeps the campaign running to its budget, so
//!   detection results never change.
//! * A panicking shard worker is quarantined and its block re-run
//!   single-threaded on the same inputs; the merge order is unchanged, so
//!   the outcome is bit-for-bit identical and the recovery is visible
//!   only in the `worker_panics_recovered` telemetry counter.  Likewise
//!   `checkpoints_written` and `checkpoint_bytes` count checkpoint writes
//!   on the segment they happened in.

use crate::checkpoint::{CampaignCheckpoint, EngineSnapshot, PassKind, StoredSegment};
use crate::coverage::{
    assemble_coverage, detect_streaming, misr_aliasing_probability, segment_schedule,
    CampaignConfig, CoverageResult, PassPersistence, ResumePoint, SegmentReport, SimEngine,
    StateStimulation,
};
use crate::dictionary::{
    build_dictionary_streaming, segment_checkpoints, DictionaryEntry, FaultDictionary,
    MAX_SIGNATURE_BITS,
};
use crate::error::{panic_message, CampaignError, ObserverPhase};
use crate::telemetry::{CampaignTelemetry, PhaseTimer, SegmentTelemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use stfsm_bist::netlist::Netlist;
use stfsm_bist::BistStructure;
use stfsm_faults::{FaultModel, Injection};

/// One fault universe of a campaign: a label (usually the fault-model
/// name) and its injection list.
#[derive(Debug, Clone)]
struct Section {
    label: String,
    faults: Vec<Injection>,
}

/// An observer's standing vote at a segment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverControl {
    /// Keep applying patterns (the default of every passive observer).
    Continue,
    /// This observer has seen enough.  The campaign ends at the segment
    /// boundary at which **every** registered observer has voted `Stop`;
    /// a single full-run observer keeps the campaign alive to its budget.
    Stop,
}

/// One fault section as the campaign will run it.
#[derive(Debug, Clone)]
pub struct SectionPlan {
    /// The section's label (the fault-model name for [`Campaign::model`]
    /// sections).
    pub label: String,
    /// Number of faults in the section.
    pub faults: usize,
}

/// Everything an observer knows before the first pattern is applied.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The structure of the netlist under test.
    pub structure: BistStructure,
    /// The stimulation mode that will be used.
    pub stimulation: StateStimulation,
    /// The engine that will run ([`SimEngine::Auto`] already resolved).
    pub engine: SimEngine,
    /// The pattern budget (the campaign may stop earlier on a unanimous
    /// [`ObserverControl::Stop`] vote).
    pub max_patterns: usize,
    /// Total number of faults across all sections.
    pub total_faults: usize,
    /// The declared fault sections, in declaration order.
    pub sections: Vec<SectionPlan>,
    /// The pinned segment schedule ([`segment_schedule`] of the budget):
    /// the boundaries at which [`CampaignObserver::on_segment`] fires and
    /// at which the campaign can stop.
    pub segments: Vec<usize>,
    /// The lane-block width (in 64-lane words) the differential engine
    /// will pack faults into, resolved by
    /// [`CampaignConfig::resolved_block_words`] from the total fault
    /// count; `None` when the resolved engine is not differential.  Purely
    /// informational: the width never changes any result bit.
    pub block_words: Option<usize>,
    /// The number of worker threads the campaign will actually use:
    /// [`CampaignConfig::threads`] for the differential engine, `1` for the
    /// scalar and packed engines.  Purely informational — the merge
    /// discipline keeps results identical for any worker count.
    pub threads: usize,
}

/// What every observer sees at a segment boundary, identical across
/// engines and thread counts.
#[derive(Debug)]
pub struct SegmentSnapshot<'a> {
    /// Index of the segment in [`CampaignPlan::segments`].
    pub segment: usize,
    /// Patterns applied so far (the segment's end boundary).
    pub patterns_applied: usize,
    /// Total number of faults across all sections.
    pub total_faults: usize,
    /// Faults detected so far, across all sections (running total).
    pub detected_faults: usize,
    /// Per section (declaration order): this segment's newly detected
    /// `(fault index within the section, detecting pattern)` pairs, sorted
    /// by `(pattern, index)`.
    pub sections: &'a [Vec<(usize, usize)>],
    /// The segment's engine telemetry: counters and phase spans (its
    /// `observer_ns` is still being measured while observers run, so it
    /// reads zero here; the final value lands on
    /// [`CampaignOutcome::telemetry`]).
    pub telemetry: &'a SegmentTelemetry,
}

impl SegmentSnapshot<'_> {
    /// Running fault coverage (detected / total; zero for a campaign
    /// without faults — nothing was demonstrated, so nothing is claimed).
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detected_faults as f64 / self.total_faults as f64
        }
    }

    /// Number of faults newly detected in this segment.
    pub fn segment_detections(&self) -> usize {
        self.sections.iter().map(Vec::len).sum()
    }
}

/// A composable, object-safe streaming sink for campaign progress and
/// results; see the [module docs](self) for the lifecycle and the
/// migration note from the pre-streaming `observe()` API.
///
/// Observers declare up front whether they need full-campaign signatures
/// ([`CampaignObserver::needs_signatures`]); the campaign runs the
/// un-dropped dictionary pass iff at least one observer does, so a pure
/// coverage campaign never pays for signatures it will not read.
pub trait CampaignObserver {
    /// Whether this observer needs MISR signatures (forcing the un-dropped
    /// dictionary pass).  Defaults to `false`.
    fn needs_signatures(&self) -> bool {
        false
    }

    /// Called once per [`Campaign::run`], before the first pattern, with
    /// the resolved plan.  Defaults to doing nothing.
    fn on_begin(&mut self, _plan: &CampaignPlan) {}

    /// Called at every boundary of the pinned segment schedule with the
    /// segment's snapshot; the return value is this observer's standing
    /// vote (see [`ObserverControl`]).  Defaults to
    /// [`ObserverControl::Continue`], so a passive observer never cuts a
    /// campaign short.
    fn on_segment(&mut self, _snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        ObserverControl::Continue
    }

    /// Called exactly once per [`Campaign::run`], after the simulation
    /// pass (full-budget or early-stopped), with the complete outcome.
    fn on_finish(&mut self, outcome: &CampaignOutcome);

    /// A failure this observer latched instead of panicking (for example a
    /// sink's deferred write error).  Polled once after `on_finish`; a
    /// `Some` is reported as an [`CampaignError::ObserverFailure`] on the
    /// *returned* [`CampaignOutcome::incidents`] (the outcome handed to
    /// `on_finish` predates the poll).  Defaults to `None`.
    fn failure(&self) -> Option<String> {
        None
    }
}

/// The per-section result of a campaign run.
#[derive(Debug, Clone)]
pub struct SectionOutcome {
    /// The section's label (the fault-model name for [`Campaign::model`]
    /// sections).
    pub label: String,
    /// The section's fault list, in simulation order.
    pub faults: Vec<Injection>,
    /// `detection_pattern[i]`: the first pattern that detected `faults[i]`.
    pub detection_pattern: Vec<Option<usize>>,
    /// The section's fault dictionary, shared (not deep-copied) with every
    /// observer; present iff at least one observer asked for signatures.
    pub dictionary: Option<Arc<FaultDictionary>>,
}

/// The complete outcome of one campaign run, handed to every observer.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The structure of the netlist under test.
    pub structure: BistStructure,
    /// The stimulation mode that was used.
    pub stimulation: StateStimulation,
    /// The engine that actually ran ([`SimEngine::Auto`] already resolved).
    pub engine: SimEngine,
    /// The pattern budget the campaign was configured with.
    pub max_patterns: usize,
    /// Number of patterns actually applied: the budget, or the segment
    /// boundary at which every observer had voted to stop.
    pub patterns_applied: usize,
    /// Number of stimulus cycles actually *generated*: the campaign
    /// generates patterns lazily per segment, so an early-stopped run
    /// never materialises stimulus past the boundary after the stop.
    pub stimulus_generated: usize,
    /// The `2^{-r}` aliasing probability of the netlist's compactor.
    pub aliasing_probability: f64,
    /// One outcome per declared section, in declaration order.
    pub sections: Vec<SectionOutcome>,
    /// The run's engine telemetry: one [`SegmentTelemetry`] per simulated
    /// segment plus the folded totals.
    pub telemetry: CampaignTelemetry,
    /// Failures the campaign recovered from without aborting: observer
    /// panics and latched observer failures ([`CampaignError::ObserverFailure`])
    /// and mid-run checkpoint write errors ([`CampaignError::CheckpointIo`]),
    /// in the order they happened.  Empty on a clean run.  Recovered
    /// *worker* panics are not incidents — they change nothing observable
    /// and are counted in
    /// [`CampaignMetrics::worker_panics_recovered`](crate::telemetry::CampaignMetrics::worker_panics_recovered).
    pub incidents: Vec<CampaignError>,
}

impl CampaignOutcome {
    /// Assembles the [`CoverageResult`] of section `index` (over
    /// [`CampaignOutcome::patterns_applied`] patterns when the campaign
    /// stopped early).
    pub fn coverage(&self, index: usize) -> CoverageResult {
        assemble_coverage(
            self.structure,
            self.stimulation,
            self.aliasing_probability,
            self.sections[index].detection_pattern.clone(),
            self.patterns_applied,
        )
    }

    /// Total number of faults across all sections.
    pub fn total_faults(&self) -> usize {
        self.sections.iter().map(|s| s.faults.len()).sum()
    }

    /// Whether a unanimous observer vote ended the campaign before its
    /// pattern budget.
    pub fn stopped_early(&self) -> bool {
        self.patterns_applied < self.max_patterns
    }
}

/// A fault-simulation campaign builder: one netlist, one configuration,
/// any number of fault sections and observers; see the
/// [module docs](self) for the full picture.
///
/// `'n` borrows the netlist, `'o` the observers.
pub struct Campaign<'n, 'o> {
    netlist: &'n Netlist,
    config: CampaignConfig,
    sections: Vec<Section>,
    observers: Vec<&'o mut dyn CampaignObserver>,
    checkpoint_to: Option<PathBuf>,
    resume_from: Option<PathBuf>,
}

impl<'n, 'o> Campaign<'n, 'o> {
    /// A campaign over `netlist` with the default [`CampaignConfig`], no
    /// sections and no observers.
    pub fn new(netlist: &'n Netlist) -> Self {
        Self {
            netlist,
            config: CampaignConfig::default(),
            sections: Vec::new(),
            observers: Vec::new(),
            checkpoint_to: None,
            resume_from: None,
        }
    }

    /// Replaces the whole simulation configuration.
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a fault section from a pluggable model (structurally collapsed
    /// fault list, labelled with the model's name).  Repeatable; sections
    /// run in declaration order within the single simulation pass.
    pub fn model(self, model: &dyn FaultModel) -> Self {
        let faults = model.fault_list(self.netlist, true);
        self.faults(model.name(), faults)
    }

    /// Adds a fault section from the *uncollapsed* universe of a model.
    pub fn model_uncollapsed(self, model: &dyn FaultModel) -> Self {
        let faults = model.fault_list(self.netlist, false);
        self.faults(model.name(), faults)
    }

    /// Adds an explicit fault section.
    pub fn faults(mut self, label: impl Into<String>, faults: Vec<Injection>) -> Self {
        self.sections.push(Section {
            label: label.into(),
            faults,
        });
        self
    }

    /// Selects the simulation engine ([`SimEngine::Auto`] resolves per
    /// machine size at run time).
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the number of test patterns (clock cycles) applied.
    pub fn patterns(mut self, max_patterns: usize) -> Self {
        self.config.max_patterns = max_patterns;
        self
    }

    /// Sets the seed of the pattern generators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker count of the differential engine (1 by default).
    /// The scalar and packed engines always run on the calling thread, so
    /// the count takes effect whenever the engine resolves to
    /// [`SimEngine::Differential`], chosen or by [`SimEngine::Auto`].  Any
    /// count gives bit-for-bit the same results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Overrides the state-stimulation mode (the default derives it from
    /// the netlist's BIST structure).
    pub fn stimulation(mut self, stimulation: StateStimulation) -> Self {
        self.config.stimulation = Some(stimulation);
        self
    }

    /// Sets per-input one-probabilities (weighted random test).
    pub fn input_weights(mut self, weights: Vec<f64>) -> Self {
        self.config.input_weights = Some(weights);
        self
    }

    /// Enables two-pattern (launch/capture) input pairing: every odd cycle
    /// re-applies the previous pattern with exactly one input flipped (see
    /// [`PairedPatterns`](crate::patterns::PairedPatterns)), giving the
    /// delay-fault models a controlled launch transition each pair.
    pub fn paired_patterns(mut self, paired: bool) -> Self {
        self.config.paired_patterns = paired;
        self
    }

    /// Registers an observer.  Repeatable; every observer sees the same
    /// single simulation pass.
    pub fn observe(mut self, observer: &'o mut dyn CampaignObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Writes a versioned checkpoint to `path` (atomically, temp file +
    /// rename) at every segment boundary, so a killed campaign can be
    /// resumed with [`Campaign::resume_from`]; see the
    /// [Robustness](self#robustness) section of the module docs.  A write
    /// failure never aborts the run: checkpointing is latched off and the
    /// [`CampaignError::CheckpointIo`] lands on
    /// [`CampaignOutcome::incidents`].
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }

    /// Resumes from a checkpoint previously written by
    /// [`Campaign::checkpoint_to`]: the stored segment history is replayed
    /// through every observer, the engine state is restored at the last
    /// stored boundary, and the remaining schedule runs bit-for-bit as the
    /// uninterrupted campaign would have.  The checkpoint may have been
    /// written by a different engine, thread count or block width.
    /// [`Campaign::try_run`] fails up front with a typed error when the
    /// file is unreadable, malformed or belongs to another campaign.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Runs the campaign: one simulation pass over the concatenated fault
    /// sections, streamed segment by segment to every observer (see the
    /// [module docs](self) for the lifecycle and the early-stop vote).
    /// Returns the outcome (so running without observers is also useful).
    ///
    /// Degenerate campaigns are total: no sections, empty fault lists or
    /// zero patterns all return cleanly.
    ///
    /// The historical infallible wrapper over [`Campaign::try_run`]:
    /// recoverable failures are still recovered from (they land on
    /// [`CampaignOutcome::incidents`]), but a hard [`CampaignError`]
    /// panics here instead of returning.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Campaign::try_run`] would return.
    pub fn run(self) -> CampaignOutcome {
        match self.try_run() {
            Ok(outcome) => outcome,
            Err(error) => panic!("campaign failed: {error}"),
        }
    }

    /// Runs the campaign, returning a typed [`CampaignError`] instead of
    /// panicking on invalid configuration, unusable resume checkpoints or
    /// unrecoverable worker panics; see the [Robustness](self#robustness)
    /// section of the module docs for the taxonomy.  Failures the run
    /// *recovered* from are reported on [`CampaignOutcome::incidents`].
    pub fn try_run(self) -> Result<CampaignOutcome, CampaignError> {
        let Campaign {
            netlist,
            config,
            sections,
            mut observers,
            checkpoint_to,
            resume_from,
        } = self;
        config.validate()?;
        let engine = config.engine.resolve(netlist);
        let config = CampaignConfig { engine, ..config };
        let stimulation = config.resolved_stimulation(netlist);
        if config.max_patterns == 0 && (checkpoint_to.is_some() || resume_from.is_some()) {
            return Err(CampaignError::ZeroPatternBudget);
        }
        let all_faults: Vec<Injection> = sections
            .iter()
            .flat_map(|s| s.faults.iter().cloned())
            .collect();
        let total_faults = all_faults.len();
        let digest = campaign_digest(netlist, &sections, &config, stimulation);

        let plan = CampaignPlan {
            structure: netlist.structure(),
            stimulation,
            engine,
            max_patterns: config.max_patterns,
            total_faults,
            sections: sections
                .iter()
                .map(|s| SectionPlan {
                    label: s.label.clone(),
                    faults: s.faults.len(),
                })
                .collect(),
            segments: segment_schedule(config.max_patterns),
            block_words: match engine {
                SimEngine::Differential => Some(config.resolved_block_words(total_faults)),
                _ => None,
            },
            threads: match engine {
                SimEngine::Differential => config.threads,
                _ => 1,
            },
        };
        // Observer guard discipline: a panicking observer is latched out
        // of the remaining lifecycle (its sticky stop vote, if any,
        // stands) and the panic becomes an incident — never an abort.
        let mut incidents: Vec<CampaignError> = Vec::new();
        let mut alive = vec![true; observers.len()];
        for (index, observer) in observers.iter_mut().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| observer.on_begin(&plan))) {
                alive[index] = false;
                incidents.push(CampaignError::ObserverFailure {
                    observer: index,
                    phase: ObserverPhase::Begin,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        let needs_signatures = observers
            .iter()
            .zip(&alive)
            .any(|(observer, &ok)| ok && observer.needs_signatures());
        let pass_kind = if needs_signatures {
            PassKind::Signatures
        } else {
            PassKind::Detect
        };

        // A resume checkpoint must exist, parse, and belong to *this*
        // campaign before anything runs.
        let resumed: Option<CampaignCheckpoint> = match &resume_from {
            Some(path) => {
                let checkpoint = crate::checkpoint::load(path)?;
                let mismatch = |field: &str, expected: String, found: String| {
                    CampaignError::CheckpointMismatch {
                        field: field.to_string(),
                        expected,
                        found,
                    }
                };
                if checkpoint.max_patterns != config.max_patterns {
                    return Err(mismatch(
                        "max_patterns",
                        config.max_patterns.to_string(),
                        checkpoint.max_patterns.to_string(),
                    ));
                }
                if checkpoint.digest != digest {
                    return Err(mismatch(
                        "digest",
                        format!("{digest:016x}"),
                        format!("{:016x}", checkpoint.digest),
                    ));
                }
                if checkpoint.pass != pass_kind {
                    return Err(mismatch(
                        "pass",
                        format!("{pass_kind:?}"),
                        format!("{:?}", checkpoint.pass),
                    ));
                }
                Some(checkpoint)
            }
            None => None,
        };

        // Flat fault index → section mapping for the snapshots.
        let offsets: Vec<usize> = sections
            .iter()
            .scan(0usize, |acc, s| {
                let offset = *acc;
                *acc += s.faults.len();
                Some(offset)
            })
            .collect();
        let mut per_section: Vec<Vec<(usize, usize)>> = vec![Vec::new(); sections.len()];
        let mut detected_running = 0usize;
        // Sticky votes: once an observer has voted Stop it counts as
        // stopped; the campaign ends at the first boundary where every
        // observer has.
        let mut voted = vec![false; observers.len()];
        let mut segment_telemetry: Vec<SegmentTelemetry> = Vec::new();
        let capture = checkpoint_to.is_some();
        let mut checkpoint_path = checkpoint_to;
        let engine_name = format!("{engine:?}");
        // The replayable segment history grows one entry per live boundary
        // and seeds from the resume checkpoint, so every checkpoint written
        // by this run carries the history from segment 0.
        let mut stored_segments: Vec<StoredSegment> = resumed
            .as_ref()
            .map(|checkpoint| checkpoint.segments.clone())
            .unwrap_or_default();
        // One handler for live boundaries and for replaying a resume
        // checkpoint's stored history (`live == false`): replayed segments
        // reach observers — and count toward the sticky stop votes —
        // exactly as they did in the interrupted run, but are neither
        // re-stored nor re-checkpointed.
        let mut process = |report: &SegmentReport<'_>, live: bool| -> bool {
            for section in per_section.iter_mut() {
                section.clear();
            }
            for &(flat, cycle) in report.new_detections {
                let section = offsets.partition_point(|&o| o <= flat) - 1;
                per_section[section].push((flat - offsets[section], cycle));
            }
            detected_running += report.new_detections.len();
            let mut telemetry = report.telemetry.clone();
            let snapshot = SegmentSnapshot {
                segment: report.segment,
                patterns_applied: report.patterns_applied,
                total_faults,
                detected_faults: detected_running,
                sections: &per_section,
                telemetry: &telemetry,
            };
            let observer_timer = PhaseTimer::start();
            let mut all_stopped = !observers.is_empty();
            for ((index, observer), vote) in observers.iter_mut().enumerate().zip(voted.iter_mut())
            {
                if alive[index] {
                    match catch_unwind(AssertUnwindSafe(|| observer.on_segment(&snapshot))) {
                        Ok(control) => {
                            if control == ObserverControl::Stop {
                                *vote = true;
                            }
                        }
                        Err(payload) => {
                            alive[index] = false;
                            incidents.push(CampaignError::ObserverFailure {
                                observer: index,
                                phase: ObserverPhase::Segment,
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
                all_stopped &= *vote;
            }
            telemetry.metrics.observer_ns = observer_timer.elapsed_ns();
            if live && capture {
                stored_segments.push(StoredSegment {
                    index: report.segment,
                    to: report.patterns_applied,
                    detections: report.new_detections.to_vec(),
                    metrics: telemetry.metrics.clone(),
                });
                // `checkpoint_path` is `None` after a write failure: the
                // first CheckpointIo latches checkpointing off for the
                // rest of the run.
                if let (Some(path), Some(state)) =
                    (checkpoint_path.as_ref(), report.snapshot.as_ref())
                {
                    let checkpoint = CampaignCheckpoint {
                        digest,
                        engine: engine_name.clone(),
                        max_patterns: config.max_patterns,
                        pass: pass_kind,
                        stimulus_generated: report.stimulus_generated,
                        segments: stored_segments.clone(),
                        snapshot: state.clone(),
                    };
                    match crate::checkpoint::save(path, &checkpoint, report.segment) {
                        Ok(bytes) => {
                            telemetry.metrics.checkpoints_written += 1;
                            telemetry.metrics.checkpoint_bytes += bytes;
                        }
                        Err(error) => {
                            incidents.push(error);
                            checkpoint_path = None;
                        }
                    }
                }
            }
            segment_telemetry.push(telemetry);
            !all_stopped
        };

        // Replay the stored history of a resume checkpoint through the
        // observers (spans read zero — they are not re-measured — but the
        // counter deltas are the interrupted run's).
        let mut replay_continue = true;
        if let Some(checkpoint) = &resumed {
            for stored in &checkpoint.segments {
                let report = SegmentReport {
                    segment: stored.index,
                    patterns_applied: stored.to,
                    new_detections: &stored.detections,
                    stimulus_generated: checkpoint.stimulus_generated,
                    snapshot: None,
                    telemetry: SegmentTelemetry {
                        segment: stored.index,
                        patterns_applied: stored.to,
                        start_ns: 0,
                        end_ns: 0,
                        metrics: stored.metrics.clone(),
                        workers: Vec::new(),
                    },
                };
                replay_continue = process(&report, false);
            }
        }

        // The single pass: un-dropped with signatures when any observer
        // asked for them (its first-detect indices are bit-for-bit the
        // coverage detection patterns, so the segment stream — and any
        // stop decision — is identical), drop-on-detect otherwise.  The
        // good-trace cache outlives the pass so future multi-pass layouts
        // (and the differential pass's per-segment recordings) share one
        // recording of the fault-free machine.
        let mut good_cache = crate::differential::GoodTraceCache::new();
        let (mut detection_pattern, patterns_applied, stimulus_generated, dictionary) =
            if !replay_continue {
                // The interrupted run had already stopped (a unanimous
                // vote at the checkpoint's last boundary, re-latched
                // during replay): simulating anything further would
                // diverge from the uninterrupted outcome, so the result is
                // assembled entirely from the stored state.
                let checkpoint = resumed
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("replay only runs when resuming"));
                assemble_stopped(checkpoint, netlist, &all_faults, &config)
            } else {
                let persist = PassPersistence {
                    capture,
                    resume: resumed.as_ref().map(|checkpoint| ResumePoint {
                        from: checkpoint.patterns_applied(),
                        stimulus_generated: checkpoint.stimulus_generated,
                        snapshot: &checkpoint.snapshot,
                    }),
                };
                let mut on_segment = |report: &SegmentReport<'_>| process(report, true);
                // The pass itself runs under an unwind guard: a worker
                // panic that survives the deterministic single-threaded
                // re-run of its quarantined shard surfaces as a typed
                // error instead of unwinding through the caller.
                let pass = catch_unwind(AssertUnwindSafe(|| {
                    if needs_signatures {
                        let (dictionary, stimulus_generated) = build_dictionary_streaming(
                            netlist,
                            &all_faults,
                            &config,
                            &mut good_cache,
                            &persist,
                            &mut on_segment,
                        );
                        let detection: Vec<Option<usize>> =
                            dictionary.entries.iter().map(|e| e.first_detect).collect();
                        let patterns_applied = dictionary.patterns_applied;
                        (
                            detection,
                            patterns_applied,
                            stimulus_generated,
                            Some(Arc::new(dictionary)),
                        )
                    } else {
                        let outcome = detect_streaming(
                            netlist,
                            &all_faults,
                            &config,
                            stimulation,
                            &mut good_cache,
                            &persist,
                            &mut on_segment,
                        );
                        (
                            outcome.detection_pattern,
                            outcome.patterns_applied,
                            outcome.stimulus_generated,
                            None,
                        )
                    }
                }));
                match pass {
                    Ok(result) => result,
                    Err(payload) => {
                        return Err(CampaignError::WorkerPanic {
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            };

        // A resumed pass only reports post-resume detections; the
        // pre-resume first-detects come from the stored history (for the
        // un-dropped dictionary pass the restored lanes already carry
        // them, and re-stamping the same values is a no-op).
        if let Some(checkpoint) = &resumed {
            for stored in &checkpoint.segments {
                for &(flat, cycle) in &stored.detections {
                    detection_pattern[flat] = Some(cycle);
                }
            }
        }

        // Split the concatenated results back into the declared sections
        // (the common single-section case shares the one dictionary `Arc`
        // instead of slicing a copy).
        let single_section = sections.len() == 1;
        let mut outcome_sections = Vec::with_capacity(sections.len());
        let mut offset = 0usize;
        for section in sections {
            let count = section.faults.len();
            let section_dictionary = if single_section {
                dictionary.clone()
            } else {
                dictionary
                    .as_ref()
                    .map(|d| Arc::new(d.slice(offset..offset + count)))
            };
            outcome_sections.push(SectionOutcome {
                label: section.label,
                faults: section.faults,
                detection_pattern: detection_pattern[offset..offset + count].to_vec(),
                dictionary: section_dictionary,
            });
            offset += count;
        }

        let mut outcome = CampaignOutcome {
            structure: netlist.structure(),
            stimulation,
            engine,
            max_patterns: config.max_patterns,
            patterns_applied,
            stimulus_generated,
            aliasing_probability: misr_aliasing_probability(netlist.observation_points().len()),
            sections: outcome_sections,
            telemetry: CampaignTelemetry::from_segments(segment_telemetry),
            incidents,
        };
        // `on_finish` failures (and latched observer failures polled via
        // `CampaignObserver::failure`) are appended to the *returned*
        // outcome — the copies already handed to earlier observers are
        // immutable history.
        let mut late: Vec<CampaignError> = Vec::new();
        for (index, observer) in observers.iter_mut().enumerate() {
            if !alive[index] {
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| observer.on_finish(&outcome))) {
                Ok(()) => {
                    if let Some(message) = observer.failure() {
                        late.push(CampaignError::ObserverFailure {
                            observer: index,
                            phase: ObserverPhase::Finish,
                            message,
                        });
                    }
                }
                Err(payload) => {
                    alive[index] = false;
                    late.push(CampaignError::ObserverFailure {
                        observer: index,
                        phase: ObserverPhase::Finish,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        outcome.incidents.extend(late);
        Ok(outcome)
    }
}

/// The campaign identity digest stamped into (and checked against) every
/// checkpoint: netlist shape, budget, seed, weights, stimulation and the
/// full fault-section list.  Deliberately *excludes* the engine, thread
/// count and block width — checkpoints are engine-agnostic.
fn campaign_digest(
    netlist: &Netlist,
    sections: &[Section],
    config: &CampaignConfig,
    stimulation: StateStimulation,
) -> u64 {
    crate::checkpoint::identity_digest(
        netlist,
        config,
        stimulation,
        sections
            .iter()
            .map(|s| (s.label.as_str(), s.faults.as_slice())),
    )
}

/// Assembles the pass result of a campaign whose replayed history ends in
/// a unanimous stop: the interrupted run had already stopped at the
/// checkpoint's last boundary, so the stored detections and (for the
/// dictionary pass) the stored lane signatures *are* the final result —
/// including the early-stop tail-fill, where every checkpoint slot beyond
/// the stop holds the stop-time signature.
fn assemble_stopped(
    checkpoint: &CampaignCheckpoint,
    netlist: &Netlist,
    all_faults: &[Injection],
    config: &CampaignConfig,
) -> (
    Vec<Option<usize>>,
    usize,
    usize,
    Option<Arc<FaultDictionary>>,
) {
    let patterns_applied = checkpoint.patterns_applied();
    let mut detection_pattern = vec![None; all_faults.len()];
    for stored in &checkpoint.segments {
        for &(flat, cycle) in &stored.detections {
            detection_pattern[flat] = Some(cycle);
        }
    }
    let dictionary = match &checkpoint.snapshot {
        EngineSnapshot::Detect { .. } => None,
        EngineSnapshot::Signatures {
            good_state: _,
            reference_signature,
            reference_segments,
            lanes,
        } => {
            let obs_count = netlist.observation_points().len();
            let signature_bits = obs_count.clamp(1, MAX_SIGNATURE_BITS);
            let checkpoints = segment_checkpoints(config.max_patterns);
            let mut reference_segments = reference_segments.clone();
            while reference_segments.len() < checkpoints.len() {
                reference_segments.push(*reference_signature);
            }
            let entries: Vec<DictionaryEntry> = all_faults
                .iter()
                .zip(lanes)
                .map(|(fault, record)| {
                    let mut segments = record.segments.clone();
                    while segments.len() < checkpoints.len() {
                        segments.push(record.signature);
                    }
                    DictionaryEntry {
                        fault: fault.clone(),
                        first_detect: record.first_detect,
                        signature: record.signature,
                        segments,
                    }
                })
                .collect();
            Some(Arc::new(FaultDictionary::new(
                signature_bits,
                *reference_signature,
                reference_segments,
                checkpoints,
                patterns_applied,
                entries,
            )))
        }
    };
    (
        detection_pattern,
        patterns_applied,
        checkpoint.stimulus_generated,
        dictionary,
    )
}

/// The coverage sink: one [`CoverageResult`] per section.  A passive
/// full-run observer: it never votes to stop.
#[derive(Debug, Default)]
pub struct CoverageObserver {
    results: Vec<(String, CoverageResult)>,
}

impl CoverageObserver {
    /// An empty coverage sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The labelled coverage results, one per section in declaration
    /// order; empty before the campaign ran.
    pub fn results(&self) -> &[(String, CoverageResult)] {
        &self.results
    }

    /// The first section's result (the common single-model case).
    pub fn result(&self) -> Option<&CoverageResult> {
        self.results.first().map(|(_, r)| r)
    }

    /// Consumes the observer into its results, dropping the labels.
    pub fn into_results(self) -> Vec<CoverageResult> {
        self.results.into_iter().map(|(_, r)| r).collect()
    }
}

impl CampaignObserver for CoverageObserver {
    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.results = outcome
            .sections
            .iter()
            .enumerate()
            .map(|(i, section)| (section.label.clone(), outcome.coverage(i)))
            .collect();
    }
}

/// The dictionary sink: one shared [`FaultDictionary`] per section (final
/// and per-segment intermediate MISR signatures included).  The
/// dictionaries are [`Arc`]-shared with the campaign outcome, so
/// observing costs a pointer clone per section, not a deep copy.
#[derive(Debug, Default)]
pub struct DictionaryObserver {
    dictionaries: Vec<(String, Arc<FaultDictionary>)>,
}

impl DictionaryObserver {
    /// An empty dictionary sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The labelled dictionaries, one per section in declaration order;
    /// empty before the campaign ran.
    pub fn dictionaries(&self) -> &[(String, Arc<FaultDictionary>)] {
        &self.dictionaries
    }

    /// The first section's dictionary (the common single-model case).
    pub fn dictionary(&self) -> Option<&FaultDictionary> {
        self.dictionaries.first().map(|(_, d)| d.as_ref())
    }

    /// Consumes the observer into its shared dictionaries.
    pub fn into_shared(self) -> Vec<(String, Arc<FaultDictionary>)> {
        self.dictionaries
    }

    /// Consumes the observer into owned dictionaries, dropping the labels
    /// (cloning only if a dictionary is still shared elsewhere).
    pub fn into_dictionaries(self) -> Vec<FaultDictionary> {
        self.dictionaries
            .into_iter()
            .map(|(_, d)| Arc::try_unwrap(d).unwrap_or_else(|shared| (*shared).clone()))
            .collect()
    }
}

impl CampaignObserver for DictionaryObserver {
    fn needs_signatures(&self) -> bool {
        true
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.dictionaries = outcome
            .sections
            .iter()
            .map(|section| {
                (
                    section.label.clone(),
                    section
                        .dictionary
                        .clone()
                        .expect("needs_signatures guarantees a dictionary"),
                )
            })
            .collect();
    }
}

/// A stopping observer: votes [`ObserverControl::Stop`] at the first
/// segment boundary where the running fault coverage reaches `target`
/// (the campaign then ends there, unless another observer still wants the
/// full budget).
///
/// Besides the boundary it stopped at
/// ([`CoverageTargetObserver::patterns_applied`]), the observer records
/// every detection cycle it saw, so
/// [`CoverageTargetObserver::patterns_to_target`] reports the *exact*
/// pattern count at which coverage first reached the target — the
/// paper's test-length metric — independent of the segment granularity.
#[derive(Debug)]
pub struct CoverageTargetObserver {
    target: f64,
    total_faults: usize,
    detection_cycles: Vec<usize>,
    patterns_applied: usize,
    reached: bool,
}

impl CoverageTargetObserver {
    /// A stopping observer for a fractional coverage `target`
    /// (`0.0 ..= 1.0`; a target of zero stops at the first boundary, an
    /// unreachable target never stops).
    pub fn new(target: f64) -> Self {
        Self {
            target,
            total_faults: 0,
            detection_cycles: Vec::new(),
            patterns_applied: 0,
            reached: false,
        }
    }

    /// The configured coverage target.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Whether the target was reached before the campaign ended.
    pub fn reached(&self) -> bool {
        self.reached
    }

    /// The coverage accumulated up to the last boundary seen.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detection_cycles.len() as f64 / self.total_faults as f64
        }
    }

    /// Patterns applied when the campaign ended (the stop boundary for an
    /// early-stopped run, the full budget otherwise).
    pub fn patterns_applied(&self) -> usize {
        self.patterns_applied
    }

    /// The smallest number of patterns after which the coverage reaches
    /// the target — computed from the exact detection cycles, so it is
    /// finer-grained than the stop boundary — or `None` if the target was
    /// not reached (the same crossing formula as
    /// [`CoverageResult::test_length_for_coverage`], shared so the
    /// in-flight and post-hoc metrics can never drift apart).
    pub fn patterns_to_target(&self) -> Option<usize> {
        crate::coverage::test_length_from_cycles(
            self.detection_cycles.clone(),
            self.total_faults,
            self.target,
        )
    }
}

impl CampaignObserver for CoverageTargetObserver {
    fn on_begin(&mut self, plan: &CampaignPlan) {
        self.total_faults = plan.total_faults;
        self.detection_cycles.clear();
        self.patterns_applied = 0;
        self.reached = false;
    }

    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        self.detection_cycles
            .extend(snapshot.sections.iter().flatten().map(|&(_, cycle)| cycle));
        self.patterns_applied = snapshot.patterns_applied;
        if snapshot.coverage() >= self.target {
            self.reached = true;
            ObserverControl::Stop
        } else {
            ObserverControl::Continue
        }
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.patterns_applied = outcome.patterns_applied;
    }
}

/// The test-length instrument behind the paper's economic comparison:
/// measures how many patterns one BIST structure needs to reach a
/// coverage target, and stops the campaign there (so the measurement
/// costs only the patterns it measures).
///
/// Run one campaign per synthesized structure with its own
/// `TestLengthObserver` and compare
/// [`TestLengthObserver::test_length`] across structures — e.g. the
/// PST-vs-conventional test-length comparison of experiment E5.
#[derive(Debug)]
pub struct TestLengthObserver {
    structure: Option<BistStructure>,
    inner: CoverageTargetObserver,
}

impl TestLengthObserver {
    /// A test-length instrument for a fractional coverage `target`.
    pub fn new(target: f64) -> Self {
        Self {
            structure: None,
            inner: CoverageTargetObserver::new(target),
        }
    }

    /// The BIST structure of the measured campaign (`None` before
    /// [`Campaign::run`]).
    pub fn structure(&self) -> Option<BistStructure> {
        self.structure
    }

    /// The configured coverage target.
    pub fn target(&self) -> f64 {
        self.inner.target()
    }

    /// The exact patterns-to-target (see
    /// [`CoverageTargetObserver::patterns_to_target`]); `None` if the
    /// target was never reached within the budget.
    pub fn test_length(&self) -> Option<usize> {
        self.inner.patterns_to_target()
    }

    /// The coverage accumulated when the campaign ended.
    pub fn coverage(&self) -> f64 {
        self.inner.coverage()
    }

    /// Patterns applied when the campaign ended (the stop boundary of the
    /// early stop, or the full budget if the target was out of reach).
    pub fn patterns_applied(&self) -> usize {
        self.inner.patterns_applied()
    }
}

impl CampaignObserver for TestLengthObserver {
    fn on_begin(&mut self, plan: &CampaignPlan) {
        self.structure = Some(plan.structure);
        self.inner.on_begin(plan);
    }

    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        self.inner.on_segment(snapshot)
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.inner.on_finish(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::build_netlist;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::{all_models, StuckAt};
    use stfsm_fsm::suite::modulo12_exact;
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    fn pst_netlist() -> Netlist {
        let fsm = modulo12_exact().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("pst", &cover, &lay, BistStructure::Pst, Some(poly)).unwrap()
    }

    /// A one-section campaign over `faults` with no signature observer:
    /// the drop-on-detect coverage pass.
    fn coverage_alone(
        netlist: &Netlist,
        config: &CampaignConfig,
        faults: &[Injection],
    ) -> CoverageResult {
        Campaign::new(netlist)
            .config(config.clone())
            .faults("faults", faults.to_vec())
            .run()
            .coverage(0)
    }

    /// A one-section campaign over `faults` with a dictionary observer:
    /// the un-dropped signature pass.
    fn dictionary_alone(
        netlist: &Netlist,
        config: &CampaignConfig,
        faults: &[Injection],
    ) -> FaultDictionary {
        let mut dictionaries = DictionaryObserver::new();
        Campaign::new(netlist)
            .config(config.clone())
            .faults("faults", faults.to_vec())
            .observe(&mut dictionaries)
            .run();
        dictionaries.into_dictionaries().remove(0)
    }

    #[test]
    fn multi_section_campaign_matches_per_model_runs() {
        let netlist = pst_netlist();
        let config = CampaignConfig {
            max_patterns: 192,
            ..Default::default()
        };
        let mut coverage = CoverageObserver::new();
        let mut dictionaries = DictionaryObserver::new();
        let models = all_models();
        let mut campaign = Campaign::new(&netlist).config(config.clone());
        for model in &models {
            campaign = campaign.model(model.as_ref());
        }
        let outcome = campaign
            .observe(&mut coverage)
            .observe(&mut dictionaries)
            .run();
        assert_eq!(outcome.sections.len(), models.len());
        assert!(!outcome.stopped_early());
        for (i, model) in models.iter().enumerate() {
            let faults = model.fault_list(&netlist, true);
            let single_coverage = coverage_alone(&netlist, &config, &faults);
            let single_dictionary = dictionary_alone(&netlist, &config, &faults);
            assert_eq!(coverage.results()[i].0, model.name());
            assert_eq!(coverage.results()[i].1, single_coverage, "{}", model.name());
            assert_eq!(
                dictionaries.dictionaries()[i].1.as_ref(),
                &single_dictionary,
                "{}",
                model.name()
            );
            assert_eq!(
                outcome.sections[i].detection_pattern,
                single_coverage.detection_pattern
            );
            assert_eq!(outcome.coverage(i), single_coverage);
        }
        assert_eq!(
            outcome.total_faults(),
            models
                .iter()
                .map(|m| m.fault_list(&netlist, true).len())
                .sum::<usize>()
        );
    }

    #[test]
    fn degenerate_campaigns_are_total() {
        let netlist = pst_netlist();
        // No sections at all.
        let mut coverage = CoverageObserver::new();
        let outcome = Campaign::new(&netlist).observe(&mut coverage).run();
        assert!(outcome.sections.is_empty());
        assert_eq!(outcome.total_faults(), 0);
        assert!(coverage.results().is_empty());
        assert!(coverage.result().is_none());

        // No observers.
        let outcome = Campaign::new(&netlist).model(&StuckAt).patterns(16).run();
        assert_eq!(outcome.sections.len(), 1);

        // An empty fault section, with signatures requested.
        let mut dictionaries = DictionaryObserver::new();
        let outcome = Campaign::new(&netlist)
            .faults("empty", Vec::new())
            .patterns(16)
            .observe(&mut dictionaries)
            .run();
        assert!(outcome.sections[0].detection_pattern.is_empty());
        let dictionary = dictionaries.dictionary().unwrap();
        assert!(dictionary.entries.is_empty());
        assert_ne!(dictionary.reference_signature, 0);

        // Zero patterns.
        let mut coverage = CoverageObserver::new();
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(0)
            .observe(&mut coverage)
            .run();
        assert_eq!(outcome.patterns_applied, 0);
        assert!(!outcome.stopped_early());
        let result = coverage.result().unwrap();
        assert_eq!(result.detected_faults, 0);
        assert!(result.total_faults > 0);
    }

    #[test]
    fn auto_engine_resolves_by_machine_size() {
        let netlist = pst_netlist();
        assert!(netlist.gates().len() < SimEngine::AUTO_DIFFERENTIAL_GATES);
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .engine(SimEngine::Auto)
            .patterns(64)
            .run();
        assert_eq!(outcome.engine, SimEngine::Packed);
        assert_eq!(SimEngine::Packed.resolve(&netlist), SimEngine::Packed);
        assert_eq!(
            SimEngine::Differential.resolve(&netlist),
            SimEngine::Differential
        );
        // The default engine is the size-resolved Auto.
        assert_eq!(SimEngine::default(), SimEngine::Auto);
        assert_eq!(CampaignConfig::default().engine, SimEngine::Auto);
    }

    #[test]
    fn observers_share_one_pass_with_identical_results() {
        // A coverage observer riding along a dictionary observer sees the
        // un-dropped pass; its results must still equal the standalone
        // drop-on-detect pass.
        let netlist = pst_netlist();
        let config = CampaignConfig {
            max_patterns: 256,
            ..Default::default()
        };
        let faults = StuckAt.fault_list(&netlist, true);
        let mut coverage = CoverageObserver::new();
        let mut dictionaries = DictionaryObserver::new();
        Campaign::new(&netlist)
            .config(config.clone())
            .faults("stuck_at", faults.clone())
            .observe(&mut coverage)
            .observe(&mut dictionaries)
            .run();
        assert_eq!(
            coverage.result().unwrap(),
            &coverage_alone(&netlist, &config, &faults)
        );
        let dictionary = dictionaries.dictionary().unwrap();
        assert_eq!(dictionary, &dictionary_alone(&netlist, &config, &faults));
    }

    /// A lifecycle probe that records every hook invocation.
    #[derive(Default)]
    struct Probe {
        plan: Option<CampaignPlan>,
        snapshots: Vec<(usize, usize, usize)>, // (segment, patterns, new)
        finished: usize,
        stop_from_segment: Option<usize>,
    }

    impl CampaignObserver for Probe {
        fn on_begin(&mut self, plan: &CampaignPlan) {
            self.plan = Some(plan.clone());
        }

        fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
            self.snapshots.push((
                snapshot.segment,
                snapshot.patterns_applied,
                snapshot.segment_detections(),
            ));
            match self.stop_from_segment {
                Some(s) if snapshot.segment >= s => ObserverControl::Stop,
                _ => ObserverControl::Continue,
            }
        }

        fn on_finish(&mut self, outcome: &CampaignOutcome) {
            self.finished += 1;
            assert!(outcome.patterns_applied <= outcome.max_patterns);
        }
    }

    #[test]
    fn lifecycle_hooks_fire_in_schedule_order() {
        let netlist = pst_netlist();
        let mut probe = Probe::default();
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(300)
            .observe(&mut probe)
            .run();
        let plan = probe.plan.as_ref().expect("on_begin fired");
        assert_eq!(plan.max_patterns, 300);
        assert_eq!(plan.segments, segment_schedule(300));
        assert_eq!(plan.segments, vec![64, 192, 300]);
        assert_eq!(plan.sections.len(), 1);
        assert_eq!(plan.total_faults, outcome.total_faults());
        // One snapshot per boundary, in order, patterns matching the plan.
        assert_eq!(
            probe
                .snapshots
                .iter()
                .map(|&(_, p, _)| p)
                .collect::<Vec<_>>(),
            plan.segments
        );
        assert_eq!(probe.finished, 1);
        // The snapshots' detection totals cover every detected fault.
        let detected: usize = probe.snapshots.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(
            detected,
            outcome.sections[0]
                .detection_pattern
                .iter()
                .filter(|d| d.is_some())
                .count()
        );
    }

    #[test]
    fn unanimous_stop_ends_the_campaign_at_the_boundary() {
        let netlist = pst_netlist();
        let mut probe = Probe {
            stop_from_segment: Some(0),
            ..Default::default()
        };
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(4096)
            .observe(&mut probe)
            .run();
        assert_eq!(
            outcome.patterns_applied, 64,
            "stopped at the first boundary"
        );
        assert!(outcome.stopped_early());
        assert_eq!(probe.snapshots.len(), 1);
        assert_eq!(probe.finished, 1);
        // Detections after the stop boundary do not exist.
        assert!(outcome.sections[0]
            .detection_pattern
            .iter()
            .flatten()
            .all(|&p| p < 64));
    }

    #[test]
    fn one_full_run_observer_vetoes_the_early_stop() {
        let netlist = pst_netlist();
        let mut stopper = CoverageTargetObserver::new(0.0);
        let mut full_run = CoverageObserver::new();
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(256)
            .observe(&mut stopper)
            .observe(&mut full_run)
            .run();
        // The stopper voted Stop at the first boundary, but the passive
        // coverage observer never votes, so the campaign runs its budget.
        assert!(stopper.reached());
        assert_eq!(outcome.patterns_applied, 256);
        assert!(!outcome.stopped_early());
        // And the full-run observer's result equals an observer-free run.
        let alone = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(256)
            .run()
            .coverage(0);
        assert_eq!(full_run.result().unwrap(), &alone);
    }

    #[test]
    fn coverage_target_observer_stops_across_all_engines_identically() {
        let netlist = pst_netlist();
        let mut reference: Option<(usize, Vec<Option<usize>>)> = None;
        for (engine, threads) in [
            (SimEngine::Scalar, 1),
            (SimEngine::Packed, 1),
            (SimEngine::Differential, 1),
            (SimEngine::Differential, 2),
            (SimEngine::Auto, 1),
        ] {
            let mut target = CoverageTargetObserver::new(0.5);
            let outcome = Campaign::new(&netlist)
                .model(&StuckAt)
                .engine(engine)
                .threads(threads)
                .patterns(4096)
                .observe(&mut target)
                .run();
            assert!(target.reached(), "{engine:?}");
            assert!(outcome.stopped_early(), "{engine:?}");
            assert_eq!(target.patterns_applied(), outcome.patterns_applied);
            let detections = outcome.sections[0].detection_pattern.clone();
            match &reference {
                None => reference = Some((outcome.patterns_applied, detections)),
                Some((patterns, pattern_sets)) => {
                    assert_eq!(*patterns, outcome.patterns_applied, "{engine:?}");
                    assert_eq!(pattern_sets, &detections, "{engine:?}");
                }
            }
        }
    }

    #[test]
    fn degenerate_targets_zero_and_unreachable() {
        let netlist = pst_netlist();
        // Target 0 %: satisfied at the very first boundary.
        let mut zero = CoverageTargetObserver::new(0.0);
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(2048)
            .observe(&mut zero)
            .run();
        assert!(zero.reached());
        assert_eq!(outcome.patterns_applied, 64);

        // An unreachable 100 % target: the campaign runs its full budget.
        let mut unreachable = CoverageTargetObserver::new(1.0);
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(128)
            .observe(&mut unreachable)
            .run();
        if unreachable.coverage() < 1.0 {
            assert!(!unreachable.reached());
            assert_eq!(outcome.patterns_applied, 128);
            assert!(unreachable.patterns_to_target().is_none());
        }
    }

    #[test]
    fn test_length_observer_measures_the_exact_crossing() {
        let netlist = pst_netlist();
        let mut observer = TestLengthObserver::new(0.5);
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(2048)
            .observe(&mut observer)
            .run();
        assert_eq!(observer.structure(), Some(BistStructure::Pst));
        assert!(observer.coverage() >= 0.5);
        let length = observer.test_length().expect("target reached");
        assert!(length <= outcome.patterns_applied);
        // The exact crossing matches the full-budget coverage result's
        // test-length metric.
        let full = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(2048)
            .run()
            .coverage(0);
        assert_eq!(full.test_length_for_coverage(0.5), Some(length));
    }

    #[test]
    fn early_stopped_dictionary_holds_stop_time_checkpoints() {
        let netlist = pst_netlist();
        let mut target = CoverageTargetObserver::new(0.5);
        let mut dictionaries = DictionaryObserver::new();
        // A passive DictionaryObserver riding a stopper vetoes the early
        // stop: the campaign runs its full budget.
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(2048)
            .observe(&mut target)
            .observe(&mut dictionaries)
            .run();
        assert!(!outcome.stopped_early());
        assert_eq!(dictionaries.dictionary().unwrap().patterns_applied, 2048);

        // A stopper that itself needs signatures ends the un-dropped pass
        // at the first boundary.
        struct StopWithSignatures;
        impl CampaignObserver for StopWithSignatures {
            fn needs_signatures(&self) -> bool {
                true
            }
            fn on_segment(&mut self, _snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
                ObserverControl::Stop
            }
            fn on_finish(&mut self, _outcome: &CampaignOutcome) {}
        }
        let mut stopper = StopWithSignatures;
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(2048)
            .observe(&mut stopper)
            .run();
        assert!(outcome.stopped_early());
        assert_eq!(outcome.patterns_applied, 64);
        let dictionary = outcome.sections[0].dictionary.as_ref().unwrap();
        assert_eq!(dictionary.patterns_applied, 64);
        // Checkpoints beyond the stop hold the stop-time (final) signature.
        for e in &dictionary.entries {
            for (k, &cp) in dictionary.segment_checkpoints.iter().enumerate() {
                if cp > 64 {
                    assert_eq!(e.segments[k], e.signature);
                }
            }
        }
    }
}
