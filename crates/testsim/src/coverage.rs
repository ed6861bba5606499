//! Self-test fault-coverage campaigns.
//!
//! A campaign drives the synthesized netlist with random primary-input
//! patterns, stimulates the state lines the way the chosen BIST structure
//! does, and checks for every single stuck-at fault whether the response at
//! the observation points ever deviates from the fault-free machine:
//!
//! * **DFF / PAT / SIG** — the state lines are driven by a pattern-generation
//!   register, so every cycle applies an (almost) independent random state
//!   to the combinational logic ("random state" stimulation);
//! * **PST** — there is no pattern-generation mode at all: after a scan
//!   initialisation the state register follows the *system* behaviour, so the
//!   state lines only take values the machine actually reaches ("system
//!   state" stimulation).  This is exactly the effect that makes the PST test
//!   somewhat longer for the same confidence (the ≈ 30 % of [EsWu 91]).
//!
//! Signature aliasing is not modelled cycle by cycle; the standard `2^{-r}`
//! masking probability of an `r`-bit MISR is reported alongside the results.

use crate::checkpoint::{EngineSnapshot, SurvivorRecord};
use crate::engine::PackedCore;
use crate::error::{CampaignError, MAX_THREADS};
use crate::packed::FAULT_LANES;
use crate::patterns::{PairedPatterns, PatternSource, RandomPatterns, WeightedPatterns};
use crate::sim::Simulator;
use crate::telemetry::{CampaignMetrics, PhaseTimer, SegmentTelemetry};
use stfsm_bist::netlist::Netlist;
use stfsm_bist::BistStructure;
use stfsm_faults::Injection;
use stfsm_lfsr::bitvec::broadcast;

/// Which simulation engine drives the fault-coverage campaign.
///
/// All engines produce bit-for-bit identical [`CoverageResult`]s for any
/// fault model; the packed engine simulates up to 63 faulty machines per
/// word operation and is roughly an order of magnitude faster than the
/// scalar reference, and the differential engine restricts each multi-word
/// lane block to the fanout cones of its faults on top of that.  The
/// scalar engine is retained as the differential-testing reference and for
/// debugging single faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// One fault at a time on the boolean [`Simulator`].
    Scalar,
    /// 63 faults per chunk on one 64-lane word, every plan step evaluated
    /// every cycle.
    Packed,
    /// Cone-restricted differential simulation: the good machine runs once
    /// per pattern, faults run in multi-word lane blocks that evaluate only
    /// the plan steps their active faults (or diverged register states) can
    /// actually perturb (see [`crate::differential`]).  The blocks are
    /// sharded across [`CampaignConfig::threads`] workers
    /// (`std::thread::scope`), all reading one shared good-machine trace
    /// per campaign segment.  The block split is a deterministic function
    /// of the fault list alone and every fault's trajectory is independent
    /// of its block and worker, so the merged result is bit-for-bit
    /// independent of the worker count.
    Differential,
    /// Pick [`SimEngine::Packed`] or [`SimEngine::Differential`] per
    /// machine size: the differential engine's cone bookkeeping only pays
    /// off once the netlist is large relative to the average fault cone
    /// (the crossover sits around [`SimEngine::AUTO_DIFFERENTIAL_GATES`]
    /// gates on the benchmark suite, timed at 512 patterns).
    /// The default engine: callers that do not choose get the right
    /// engine for their machine size.
    #[default]
    Auto,
}

impl SimEngine {
    /// The gate count from which [`SimEngine::Auto`] selects the
    /// differential engine (below it, the packed engine wins on the
    /// benchmark suite).
    ///
    /// Re-calibrated against the event-driven engine on the full suite at
    /// 512 patterns (packed against differential): machines up to ~174
    /// gates (`sand`, `styr` and below) still run at or slightly below
    /// packed parity single-threaded — the per-cycle worklist and
    /// divergence bookkeeping has to amortise over enough quiescent logic
    /// — while `planet` (249 gates) and `scf` (622) win outright.  200
    /// splits the measured suite cleanly.  Extra workers
    /// ([`CampaignConfig::threads`]) speed up only the differential engine,
    /// so multi-core callers may pick [`SimEngine::Differential`] below the
    /// threshold.
    pub const AUTO_DIFFERENTIAL_GATES: usize = 200;

    /// Resolves [`SimEngine::Auto`] against a concrete netlist; every other
    /// engine resolves to itself.
    pub fn resolve(self, netlist: &Netlist) -> SimEngine {
        match self {
            SimEngine::Auto => {
                if netlist.gates().len() >= Self::AUTO_DIFFERENTIAL_GATES {
                    SimEngine::Differential
                } else {
                    SimEngine::Packed
                }
            }
            engine => engine,
        }
    }
}

/// How the state lines are stimulated during self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateStimulation {
    /// The state register acts as a pattern generator (DFF, PAT, SIG).
    RandomState,
    /// The state register follows the system behaviour (PST).
    SystemState,
}

impl StateStimulation {
    /// The stimulation mode implied by a BIST structure.
    pub fn for_structure(structure: BistStructure) -> Self {
        match structure {
            BistStructure::Dff | BistStructure::Pat | BistStructure::Sig => {
                StateStimulation::RandomState
            }
            BistStructure::Pst => StateStimulation::SystemState,
        }
    }
}

/// The simulation settings of a [`Campaign`](crate::campaign::Campaign):
/// every pass it runs (coverage, dictionary, diagnosis) reads them.
///
/// Fault *enumeration* does not belong here: which faults run is the
/// business of the fault model (or of the caller-supplied list), not of the
/// simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Maximum number of test patterns (clock cycles) applied.
    pub max_patterns: usize,
    /// Seed of the pattern generators.
    pub seed: u64,
    /// Optional per-input one-probabilities (weighted random test); `None`
    /// uses unbiased patterns.
    pub input_weights: Option<Vec<f64>>,
    /// Override of the state stimulation mode; `None` derives it from the
    /// netlist's structure.
    pub stimulation: Option<StateStimulation>,
    /// Simulation engine ([`SimEngine::Auto`] by default, which picks
    /// packed vs differential per machine size).
    pub engine: SimEngine,
    /// Worker count of the differential engine (1 by default, at most
    /// [`MAX_THREADS`]); the scalar and packed engines always run on the
    /// calling thread.  Any count is bit-for-bit identical.
    pub threads: usize,
    /// Lane-block word count of the differential engine (1, 4 or 8);
    /// `None` picks automatically from the fault-list size.  Any value is
    /// bit-for-bit identical — block packing never changes results.
    pub block_words: Option<usize>,
    /// Two-pattern (launch/capture) input pairing: wraps the input source
    /// in [`crate::patterns::PairedPatterns`], so every odd cycle applies
    /// the previous pattern with exactly one input flipped.  Aimed at the
    /// delay-fault models, which detect through launch/capture transitions;
    /// changes the stimulus stream (and therefore the campaign identity),
    /// but stays bit-for-bit identical across engines and thread counts.
    pub paired_patterns: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            max_patterns: 2048,
            seed: 0xBEEF_1991,
            input_weights: None,
            stimulation: None,
            engine: SimEngine::default(),
            threads: 1,
            block_words: None,
            paired_patterns: false,
        }
    }
}

impl CampaignConfig {
    /// The stimulation mode a campaign over `netlist` will use: the
    /// explicit override if set, the structure's natural mode otherwise.
    pub fn resolved_stimulation(&self, netlist: &Netlist) -> StateStimulation {
        self.stimulation
            .unwrap_or_else(|| StateStimulation::for_structure(netlist.structure()))
    }

    /// The lane-block word count a differential campaign over `num_faults`
    /// faults resolves to: the explicit [`CampaignConfig::block_words`]
    /// override (one of 1, 4 or 8, see [`CampaignConfig::validate`]), else
    /// the narrowest block that still packs the whole list into one block —
    /// a short fault list gains nothing from wide blocks but would pay
    /// their larger cone unions.
    pub fn resolved_block_words(&self, num_faults: usize) -> usize {
        match self.block_words {
            Some(w) => w,
            // 63 / 255 fault lanes at W = 1 / 4 (lane 0 is the reference).
            None if num_faults <= FAULT_LANES => 1,
            None if num_faults < 4 * 64 => 4,
            None => 8,
        }
    }

    /// Validates the configuration the way
    /// [`Campaign::try_run`](crate::campaign::Campaign::try_run) does at
    /// plan time: an explicit [`CampaignConfig::block_words`] must be one
    /// of the supported widths (1, 4 or 8) and [`CampaignConfig::threads`]
    /// must lie in `1..=`[`MAX_THREADS`].  `try_run` rejects a nonsensical
    /// configuration with a typed error instead of silently guessing.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if let Some(w) = self.block_words {
            if !matches!(w, 1 | 4 | 8) {
                return Err(CampaignError::InvalidBlockWords { requested: w });
            }
        }
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(CampaignError::InvalidThreads {
                requested: self.threads,
            });
        }
        Ok(())
    }
}

/// The outcome of a self-test campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageResult {
    /// The structure of the netlist under test.
    pub structure: BistStructure,
    /// The stimulation mode that was used.
    pub stimulation: StateStimulation,
    /// Number of faults simulated.
    pub total_faults: usize,
    /// Number of faults whose effect reached an observation point.
    pub detected_faults: usize,
    /// Number of patterns applied.
    pub patterns_applied: usize,
    /// For every fault: the index of the first pattern that detected it.
    pub detection_pattern: Vec<Option<usize>>,
    /// `(patterns, coverage)` checkpoints for plotting the coverage curve.
    pub coverage_curve: Vec<(usize, f64)>,
    /// The signature-aliasing probability of the response compactor
    /// (`2^{-r}` for the `r` observation bits of the structure).
    pub aliasing_probability: f64,
}

impl CoverageResult {
    /// Final fault coverage (detected / total).
    ///
    /// A degenerate campaign with no faults reports zero coverage — nothing
    /// was demonstrated, so nothing is claimed.
    pub fn fault_coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detected_faults as f64 / self.total_faults as f64
        }
    }

    /// The smallest number of patterns after which the coverage reaches
    /// `target` (0 < target ≤ 1), or `None` if it never does within the
    /// campaign (in particular for a degenerate campaign without faults).
    pub fn test_length_for_coverage(&self, target: f64) -> Option<usize> {
        let times: Vec<usize> = self.detection_pattern.iter().flatten().copied().collect();
        test_length_from_cycles(times, self.total_faults, target)
    }

    /// Faults that escaped the campaign.
    pub fn undetected_faults(&self) -> usize {
        self.total_faults - self.detected_faults
    }
}

/// The one test-length crossing formula, shared by
/// [`CoverageResult::test_length_for_coverage`] and the streaming
/// [`CoverageTargetObserver`](crate::campaign::CoverageTargetObserver) so
/// the post-hoc and in-flight metrics can never drift apart: the smallest
/// pattern count at which `ceil(target * total_faults).max(1)` of the
/// given detection cycles have fired.  Consumes (and sorts) `cycles`.
pub(crate) fn test_length_from_cycles(
    mut cycles: Vec<usize>,
    total_faults: usize,
    target: f64,
) -> Option<usize> {
    if total_faults == 0 {
        return None;
    }
    let needed = ((target * total_faults as f64).ceil() as usize).max(1);
    if cycles.len() < needed {
        return None;
    }
    cycles.sort_unstable();
    Some(cycles[needed - 1] + 1)
}

/// First segment length of the doubling compaction schedule.
const FIRST_SEGMENT: usize = 64;

/// The engine-independent segment schedule of a campaign: the exclusive
/// end boundaries of the doubling compaction segments (64, 192, 448, 960,
/// … patterns), capped at `total_cycles`.  The last boundary always equals
/// `total_cycles`; a zero-pattern campaign has no segments.
///
/// Every engine — scalar, packed, differential at any worker count — advances
/// through exactly these segments, compacts survivors only at these
/// boundaries, and reports progress to streaming
/// [`CampaignObserver`](crate::campaign::CampaignObserver)s only here.
/// Pinning the schedule makes a campaign stopped early by an observer
/// vote bit-for-bit identical across engines and thread counts.
pub fn segment_schedule(total_cycles: usize) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut from = 0usize;
    let mut len = FIRST_SEGMENT;
    while from < total_cycles {
        let to = (from + len).min(total_cycles);
        boundaries.push(to);
        len = len.saturating_mul(2);
        from = to;
    }
    boundaries
}

/// What the campaign layer learns at every segment boundary: the newly
/// detected `(fault index, cycle)` pairs of the segment, sorted by
/// `(cycle, index)` so the report is identical for every engine and
/// thread count.
pub(crate) struct SegmentReport<'a> {
    /// Index of the segment in [`segment_schedule`].
    pub(crate) segment: usize,
    /// Patterns applied once this segment completed (its end boundary).
    pub(crate) patterns_applied: usize,
    /// The segment's new detections over the *flat* fault list.
    pub(crate) new_detections: &'a [(usize, usize)],
    /// Stimulus cycles generated so far — recorded into a checkpoint
    /// written at this boundary (the rows themselves regenerate from the
    /// seed on resume).
    pub(crate) stimulus_generated: usize,
    /// The engine's resumable state at this boundary, captured only when
    /// the campaign layer armed checkpointing
    /// ([`PassPersistence::capture`]); `None` otherwise.
    pub(crate) snapshot: Option<EngineSnapshot>,
    /// The segment's telemetry record: counter deltas, phase spans and
    /// per-worker spans.
    pub(crate) telemetry: SegmentTelemetry,
}

/// Checkpoint/resume plumbing of one streaming pass, threaded from the
/// campaign layer into [`detect_streaming`] and the dictionary passes.
pub(crate) struct PassPersistence<'a> {
    /// Capture an [`EngineSnapshot`] into every [`SegmentReport`] — armed
    /// when the campaign writes checkpoints, off otherwise (capture costs
    /// a copy of the live state per boundary).
    pub(crate) capture: bool,
    /// Resume state: the checkpoint to restore.  The pass restores the
    /// snapshot, skips every schedule boundary at or below the covered
    /// one, and regenerates only the stimulus prefix (a pure function of
    /// the seed) — so the remaining segments are bit-for-bit the
    /// uninterrupted run's.
    pub(crate) resume: Option<ResumePoint<'a>>,
}

/// Where a resumed pass re-enters the schedule.
#[derive(Clone, Copy)]
pub(crate) struct ResumePoint<'a> {
    /// The boundary the checkpoint covers; boundaries at or below it are
    /// skipped.
    pub(crate) from: usize,
    /// Stimulus cycles the interrupted run had generated when it wrote the
    /// checkpoint.  This is *not* always `from`: the drop-on-detect pass
    /// stops generating once every fault is detected, and resuming must
    /// reproduce [`DetectOutcome::stimulus_generated`] bit for bit.
    pub(crate) stimulus_generated: usize,
    /// The engine state to restore.
    pub(crate) snapshot: &'a EngineSnapshot,
}

impl PassPersistence<'_> {
    /// The boundary up to which a resumed pass skips (zero when not
    /// resuming).
    pub(crate) fn resume_from(&self) -> usize {
        self.resume.as_ref().map(|r| r.from).unwrap_or(0)
    }
}

/// One engine's view of the campaign: run the cycles of one segment,
/// pushing every new `(fault index, cycle)` detection.  State (survivors,
/// register images, transition memories) is carried inside the runner
/// between calls; segments are always requested in schedule order.
pub(crate) trait SegmentRunner {
    fn run_segment(&mut self, from: usize, to: usize, detections: &mut Vec<(usize, usize)>);

    /// Stimulus cycles this runner actually generated — early-stop
    /// accounting for [`DetectOutcome::stimulus_generated`].  The
    /// degenerate runner generates none.
    fn stimulus_cycles(&self) -> usize {
        0
    }

    /// Drains the telemetry of the segment just run (counter deltas and
    /// worker spans; the driver stamps segment index and wall-clock
    /// window).  The degenerate runner has nothing to report.
    fn telemetry_snapshot(&mut self) -> SegmentTelemetry {
        SegmentTelemetry::default()
    }

    /// Captures the engine-agnostic resumable state at the boundary just
    /// run, for a campaign checkpoint.  `None` means the runner cannot be
    /// checkpointed (only the degenerate runner, which has no state).
    fn capture(&mut self) -> Option<EngineSnapshot> {
        None
    }
}

/// Advances a runner through the segment schedule, reporting every
/// boundary to `on_segment`; a `false` return stops the campaign at that
/// boundary.  Returns the per-fault detection pattern and the patterns
/// actually applied.
fn drive_segments(
    num_faults: usize,
    boundaries: &[usize],
    runner: &mut dyn SegmentRunner,
    persist: &PassPersistence<'_>,
    on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
) -> (Vec<Option<usize>>, usize) {
    let mut detection_pattern = vec![None; num_faults];
    let mut detections: Vec<(usize, usize)> = Vec::new();
    // A resumed pass re-enters the schedule where its checkpoint left off:
    // boundaries the checkpoint covers are skipped (their detections were
    // stored), keeping the true segment indices for the live remainder.
    let mut from = persist.resume_from();
    let epoch = PhaseTimer::start();
    for (segment, &to) in boundaries.iter().enumerate() {
        if to <= from {
            continue;
        }
        let start_ns = epoch.elapsed_ns();
        detections.clear();
        runner.run_segment(from, to, &mut detections);
        detections.sort_unstable_by_key(|&(index, cycle)| (cycle, index));
        for &(index, cycle) in &detections {
            detection_pattern[index] = Some(cycle);
        }
        let mut telemetry = runner.telemetry_snapshot();
        telemetry.segment = segment;
        telemetry.patterns_applied = to;
        telemetry.start_ns = start_ns;
        telemetry.end_ns = epoch.elapsed_ns();
        // Retirements are counted here, uniformly over every engine (the
        // table tail and the degenerate runner included): one per first
        // detection.
        telemetry.metrics.lane_retirements += detections.len() as u64;
        let report = SegmentReport {
            segment,
            patterns_applied: to,
            new_detections: &detections,
            stimulus_generated: runner.stimulus_cycles(),
            snapshot: if persist.capture {
                runner.capture()
            } else {
                None
            },
            telemetry,
        };
        if !on_segment(&report) {
            return (detection_pattern, to);
        }
        from = to;
    }
    (detection_pattern, boundaries.last().copied().unwrap_or(0))
}

/// What [`detect_streaming`] reports back to the campaign layer.
pub(crate) struct DetectOutcome {
    /// For every fault: the cycle of its first detection, if any.
    pub(crate) detection_pattern: Vec<Option<usize>>,
    /// Patterns applied (the stop boundary of an early-stopped campaign).
    pub(crate) patterns_applied: usize,
    /// Stimulus cycles actually generated — with the lazy per-segment
    /// stimulus this equals the stop boundary, never the full budget.
    pub(crate) stimulus_generated: usize,
}

/// The engine room of every coverage campaign: dispatches an explicit
/// fault list to the configured (resolved) simulation engine, streaming
/// one [`SegmentReport`] per schedule boundary to `on_segment` — whose
/// `false` return ends the campaign at that boundary.  Returns the
/// per-fault first-detection cycles, the patterns actually applied and the
/// stimulus cycles actually generated.
///
/// The differential engines record the fault-free machine through
/// `good_cache`, so a later pass over the same netlist and stimulus (e.g.
/// the dictionary build of a multi-observer campaign) reuses the good
/// trace of a segment instead of re-simulating it.
///
/// Empty fault lists and zero-pattern campaigns are total: no stimulus is
/// generated, the (empty) boundary reports still stream.
pub(crate) fn detect_streaming(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
    stimulation: StateStimulation,
    good_cache: &mut crate::differential::GoodTraceCache,
    persist: &PassPersistence<'_>,
    on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
) -> DetectOutcome {
    let boundaries = segment_schedule(config.max_patterns);
    if faults.is_empty() || config.max_patterns == 0 {
        // Nothing to simulate; still walk the schedule so streaming
        // observers see the same boundaries they would on any campaign.
        let mut noop = NoopSegments;
        let (detection_pattern, patterns_applied) =
            drive_segments(faults.len(), &boundaries, &mut noop, persist, on_segment);
        return DetectOutcome {
            detection_pattern,
            patterns_applied,
            stimulus_generated: 0,
        };
    }
    // A detect-pass checkpoint restores onto any engine: the survivor list
    // and reference state are the canonical inter-segment images every
    // runner already exchanges at boundaries.
    let resume_detect = match persist.resume {
        Some(ResumePoint {
            from,
            stimulus_generated,
            snapshot:
                EngineSnapshot::Detect {
                    reference_state,
                    survivors,
                },
        }) => Some((from, stimulus_generated, reference_state, survivors)),
        _ => None,
    };
    let stimulus = generate_stimulus(netlist, config);
    fn drive<R: SegmentRunner>(
        num_faults: usize,
        boundaries: &[usize],
        mut runner: R,
        persist: &PassPersistence<'_>,
        on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
    ) -> DetectOutcome {
        let (detection_pattern, patterns_applied) =
            drive_segments(num_faults, boundaries, &mut runner, persist, on_segment);
        DetectOutcome {
            detection_pattern,
            patterns_applied,
            stimulus_generated: runner.stimulus_cycles(),
        }
    }
    match config.engine.resolve(netlist) {
        SimEngine::Scalar => {
            let mut runner = ScalarSegments::new(netlist, faults, stimulus, stimulation);
            if let Some((from, generated, reference_state, survivors)) = resume_detect {
                runner.restore(faults, reference_state, survivors, from, generated);
            }
            drive(faults.len(), &boundaries, runner, persist, on_segment)
        }
        SimEngine::Packed => {
            let mut runner = PackedSegments::new(netlist, faults, stimulus, stimulation);
            if let Some((from, generated, reference_state, survivors)) = resume_detect {
                runner.restore(faults, reference_state, survivors, from, generated);
            }
            drive(faults.len(), &boundaries, runner, persist, on_segment)
        }
        SimEngine::Differential => {
            let mut runner = crate::differential::DiffSegments::new(
                netlist,
                faults,
                stimulus,
                stimulation,
                config.threads,
                config.resolved_block_words(faults.len()),
                good_cache,
            );
            if let Some((from, generated, reference_state, survivors)) = resume_detect {
                runner.restore(faults, reference_state, survivors, from, generated);
            }
            drive(faults.len(), &boundaries, runner, persist, on_segment)
        }
        SimEngine::Auto => unreachable!("SimEngine::resolve never returns Auto"),
    }
}

/// The degenerate runner of fault-free / pattern-free campaigns.
struct NoopSegments;

impl SegmentRunner for NoopSegments {
    fn run_segment(&mut self, _from: usize, _to: usize, _detections: &mut Vec<(usize, usize)>) {}

    fn capture(&mut self) -> Option<EngineSnapshot> {
        // A fault-free campaign still checkpoints (and resumes) cleanly:
        // there is simply nothing to restore.
        Some(EngineSnapshot::Detect {
            reference_state: Vec::new(),
            survivors: Vec::new(),
        })
    }
}

/// Assembles a [`CoverageResult`] from a detection pattern: detected
/// counts and the ~32-checkpoint coverage curve.  The single result
/// assembly shared by [`CampaignOutcome::coverage`](crate::campaign::CampaignOutcome::coverage)
/// and the [`CoverageObserver`](crate::campaign::CoverageObserver).
pub(crate) fn assemble_coverage(
    structure: BistStructure,
    stimulation: StateStimulation,
    aliasing_probability: f64,
    detection_pattern: Vec<Option<usize>>,
    max_patterns: usize,
) -> CoverageResult {
    let detected_faults = detection_pattern.iter().filter(|d| d.is_some()).count();
    let total_faults = detection_pattern.len();

    // Coverage curve at roughly 32 checkpoints.
    let mut coverage_curve = Vec::new();
    let step = (max_patterns / 32).max(1);
    let mut checkpoint = 1;
    while checkpoint <= max_patterns {
        let covered = detection_pattern
            .iter()
            .flatten()
            .filter(|&&p| p < checkpoint)
            .count();
        coverage_curve.push((
            checkpoint,
            if total_faults == 0 {
                0.0
            } else {
                covered as f64 / total_faults as f64
            },
        ));
        checkpoint += step;
    }

    CoverageResult {
        structure,
        stimulation,
        total_faults,
        detected_faults,
        patterns_applied: max_patterns,
        detection_pattern,
        coverage_curve,
        aliasing_probability,
    }
}

/// Builds the campaign stimulus: the pattern sources are seeded exactly as
/// before, but no rows are generated yet — every runner extends the buffers
/// per campaign segment with [`Stimulus::ensure`], so an early-stopped
/// campaign never generates (or allocates) patterns past its stop boundary.
/// The generated prefix is a pure function of (netlist, config): the
/// fault-free and every faulty machine, on every engine and every thread,
/// see exactly the same sequence.
pub(crate) fn generate_stimulus(netlist: &Netlist, config: &CampaignConfig) -> Stimulus {
    let num_inputs = netlist.primary_inputs().len();
    let num_state = netlist.flip_flops().len();
    let pair_seed = config.seed ^ 0xD31A_7E57;
    let pi_source: Box<dyn PatternSource + Send + Sync> =
        match (&config.input_weights, config.paired_patterns) {
            (Some(w), false) => Box::new(WeightedPatterns::new(w.clone(), config.seed)),
            (Some(w), true) => Box::new(PairedPatterns::new(
                WeightedPatterns::new(w.clone(), config.seed),
                pair_seed,
            )),
            (None, false) => Box::new(RandomPatterns::new(num_inputs.max(1), config.seed)),
            (None, true) => Box::new(PairedPatterns::new(
                RandomPatterns::new(num_inputs.max(1), config.seed),
                pair_seed,
            )),
        };
    let st_source = RandomPatterns::new(num_state.max(1), config.seed ^ 0x5A5A_5A5A);
    Stimulus {
        cycles: config.max_patterns,
        pi_width: num_inputs,
        st_width: num_state.max(1),
        pi: Vec::new(),
        st: Vec::new(),
        generated: 0,
        pi_source,
        st_source,
    }
}

/// The signature-aliasing (fault-masking) probability `2^{-r}` of an
/// `r`-bit response compactor.
///
/// Computed as `exp2(-r)` without clamping the width: every result up to
/// `r = 1074` is the exact IEEE-754 value (subnormal below `r = 1023`), and
/// wider compactors underflow to `0.0`, which is the honest double-precision
/// answer (the probability is below the smallest representable number).
pub fn misr_aliasing_probability(r: usize) -> f64 {
    f64::exp2(-(r.min(u32::MAX as usize) as f64))
}

/// Scalar engine as a segment runner: the fault-free reference is
/// re-simulated per segment from the carried register state, and every
/// surviving fault runs the segment's cycles one at a time against the
/// reference observations, carrying its register state and transition
/// memory across the boundary — the per-fault trajectories (and hence the
/// detection pattern) are exactly those of the unsegmented scalar sweep.
struct ScalarSegments<'a> {
    netlist: &'a Netlist,
    stimulus: Stimulus,
    stimulation: StateStimulation,
    /// The fault-free machine's register state at the segment start.
    reference_state: Vec<bool>,
    alive: Vec<AliveFault>,
    /// Telemetry of the segment in flight, drained by
    /// [`SegmentRunner::telemetry_snapshot`].
    metrics: CampaignMetrics,
    /// Stimulus rows already tallied into
    /// [`CampaignMetrics::stimulus_patterns`].
    counted_generated: usize,
}

impl<'a> ScalarSegments<'a> {
    fn new(
        netlist: &'a Netlist,
        faults: &[Injection],
        mut stimulus: Stimulus,
        stimulation: StateStimulation,
    ) -> Self {
        let num_state = netlist.flip_flops().len();
        // Scan initialisation needs the first random state up front.
        stimulus.ensure(1);
        let init_state = stimulus.st(0)[..num_state].to_vec();
        Self {
            netlist,
            stimulus,
            stimulation,
            reference_state: init_state.clone(),
            alive: initial_alive(faults, &init_state),
            metrics: CampaignMetrics::default(),
            counted_generated: 0,
        }
    }

    /// Resumes from a detect checkpoint: the carried reference state and
    /// survivor list replace the campaign-start images, and the stimulus
    /// prefix the interrupted run had generated is regenerated eagerly —
    /// stimulus is a pure function of the seed, so the regenerated rows
    /// (and hence every later row) are identical.  The regeneration is the
    /// resume overhead: state restores from the checkpoint, rows replay
    /// from the generator.
    fn restore(
        &mut self,
        faults: &[Injection],
        reference_state: &[bool],
        survivors: &[SurvivorRecord],
        _from: usize,
        generated: usize,
    ) {
        self.reference_state = reference_state.to_vec();
        self.alive = restore_alive(faults, survivors);
        self.stimulus.ensure(generated);
        self.counted_generated = generated;
    }
}

impl SegmentRunner for ScalarSegments<'_> {
    fn run_segment(&mut self, from: usize, to: usize, detections: &mut Vec<(usize, usize)>) {
        if self.alive.is_empty() {
            return;
        }
        let stim_timer = PhaseTimer::start();
        self.stimulus.ensure(to);
        self.metrics.stimulus_patterns +=
            (self.stimulus.generated_cycles() - self.counted_generated) as u64;
        self.counted_generated = self.stimulus.generated_cycles();
        self.metrics.stimulus_ns += stim_timer.elapsed_ns();
        self.metrics.cycles_simulated += (to - from) as u64;
        let good_timer = PhaseTimer::start();
        let num_state = self.netlist.flip_flops().len();
        // Fault-free reference observations of this segment.
        let mut good = Simulator::new(self.netlist);
        good.set_state(&self.reference_state);
        let mut good_obs: Vec<Vec<bool>> = Vec::with_capacity(to - from);
        for cycle in from..to {
            if self.stimulation == StateStimulation::RandomState {
                good.set_state(&self.stimulus.st(cycle)[..num_state]);
            }
            good.evaluate(self.stimulus.pi(cycle));
            good_obs.push(good.observations());
            good.clock();
        }
        self.reference_state = good.state().to_vec();
        self.metrics.good_trace_ns += good_timer.elapsed_ns();

        let eval_timer = PhaseTimer::start();
        let mut survivors = Vec::with_capacity(self.alive.len());
        let mut obs = Vec::with_capacity(self.netlist.observation_points().len());
        for alive_fault in self.alive.drain(..) {
            let mut sim = Simulator::with_injection(self.netlist, alive_fault.fault.clone());
            sim.set_state(&alive_fault.state);
            sim.seed_injection_memory(&alive_fault.memory);
            let mut detected = false;
            for cycle in from..to {
                if self.stimulation == StateStimulation::RandomState {
                    sim.set_state(&self.stimulus.st(cycle)[..num_state]);
                }
                sim.evaluate(self.stimulus.pi(cycle));
                sim.observations_into(&mut obs);
                if obs != good_obs[cycle - from] {
                    detections.push((alive_fault.index, cycle));
                    detected = true;
                    break;
                }
                sim.clock();
            }
            let (launches, activations) = sim.take_path_counters();
            self.metrics.path_launches += launches;
            self.metrics.path_activations += activations;
            if !detected {
                survivors.push(AliveFault {
                    index: alive_fault.index,
                    fault: alive_fault.fault,
                    state: sim.state().to_vec(),
                    memory: sim.injection_memory(),
                });
            }
        }
        self.alive = survivors;
        self.metrics.fault_eval_ns += eval_timer.elapsed_ns();
    }

    fn stimulus_cycles(&self) -> usize {
        self.stimulus.generated_cycles()
    }

    fn telemetry_snapshot(&mut self) -> SegmentTelemetry {
        SegmentTelemetry {
            metrics: std::mem::take(&mut self.metrics),
            ..SegmentTelemetry::default()
        }
    }

    fn capture(&mut self) -> Option<EngineSnapshot> {
        Some(EngineSnapshot::Detect {
            reference_state: self.reference_state.clone(),
            survivors: survivor_records(&self.alive),
        })
    }
}

/// A still-undetected fault between compaction segments: its position in
/// the fault list, the register state its machine has reached and (for
/// stateful delay faults) the canonical lane memory — one previous-cycle
/// bit for a delayed transition, the filled delay-line slots for a
/// multi-cycle delay, the launch/terminal pair for a path fault.
pub(crate) struct AliveFault {
    pub(crate) index: usize,
    pub(crate) fault: Injection,
    pub(crate) state: Vec<bool>,
    pub(crate) memory: Vec<bool>,
}

/// Converts a survivor list into its engine-agnostic checkpoint records
/// (the fault descriptors are not stored — a resume re-derives them from
/// the digest-validated fault list).
pub(crate) fn survivor_records(alive: &[AliveFault]) -> Vec<SurvivorRecord> {
    alive
        .iter()
        .map(|a| SurvivorRecord {
            index: a.index,
            state: a.state.clone(),
            memory: a.memory.clone(),
        })
        .collect()
}

/// Restores the survivor list of a detect-pass checkpoint against the
/// campaign's fault list.  Records are stored in ascending fault order —
/// exactly the order every engine's compaction emits — so the restored
/// list packs into the same chunks and blocks the uninterrupted run used.
pub(crate) fn restore_alive(faults: &[Injection], survivors: &[SurvivorRecord]) -> Vec<AliveFault> {
    survivors
        .iter()
        .map(|s| AliveFault {
            index: s.index,
            fault: faults[s.index].clone(),
            state: s.state.clone(),
            memory: s.memory.clone(),
        })
        .collect()
}

/// The campaign-start survivor list: every fault alive, every machine scan
/// initialised to the first random state, transition memories at their
/// identity values and delay lines empty.
pub(crate) fn initial_alive(faults: &[Injection], init_state: &[bool]) -> Vec<AliveFault> {
    faults
        .iter()
        .enumerate()
        .map(|(index, fault)| AliveFault {
            index,
            fault: fault.clone(),
            state: init_state.to_vec(),
            memory: match fault {
                Injection::DelayedTransition { slow_to_rise, .. } => vec![*slow_to_rise],
                // Multi-cycle and path lanes start with empty (unfilled)
                // delay lines.
                _ => Vec::new(),
            },
        })
        .collect()
}

/// Per-lane transition/observation tables for one fault chunk, built by
/// evaluating the packed simulator over the whole `2^(m + r)` input/state
/// space.  For small controllers this turns the long low-occupancy tail of
/// a campaign (a handful of stubborn faults times thousands of patterns)
/// into two table lookups per machine per cycle.
pub(crate) struct LaneTables {
    r: usize,
    combos: usize,
    /// `obs_sig[lane * combos + idx]`: the observation vector of lane
    /// `lane` for input/state combination `idx`, packed into a word.
    obs_sig: Vec<u32>,
    /// `next_state[lane * combos + idx]`: the register state the lane loads
    /// at the clock edge.
    next_state: Vec<u16>,
}

impl LaneTables {
    /// Hard limits under which table mode is exact and worthwhile:
    /// all observation bits must fit one `u32` signature, the state one
    /// `u16`, and the table must stay small enough to build and cache.
    /// Stateful injections (delayed transitions) carry memory beyond the
    /// register, so their lanes are no pure function of (state, input) and
    /// table mode is ruled out for the chunk.
    pub(crate) fn applicable(
        netlist: &Netlist,
        faults: &[AliveFault],
        lanes: usize,
        remaining_cycles: usize,
    ) -> bool {
        let r = netlist.flip_flops().len();
        let m = netlist.primary_inputs().len();
        let bits = r + m;
        faults.iter().all(|a| !a.fault.is_stateful())
            && bits <= 16
            && r <= 16
            && netlist.observation_points().len() <= 32
            && (1usize << bits) * lanes <= 1 << 20
            // Building costs ~2 packed evaluations per combination; only
            // switch when the remaining tail clearly amortises it.
            && (1usize << bits) * 4 <= remaining_cycles.saturating_mul(lanes.max(8))
    }

    pub(crate) fn build(netlist: &Netlist, faults: &[Injection]) -> Self {
        let plan = netlist.plan();
        let r = netlist.flip_flops().len();
        let m = netlist.primary_inputs().len();
        let combos = 1usize << (r + m);
        let lanes = faults.len() + 1;
        let mut sim = PackedCore::<1>::compile(netlist, faults);
        let mut obs_sig = vec![0u32; lanes * combos];
        let mut next_state = vec![0u16; lanes * combos];
        let mut state_bits = vec![false; r];
        let mut input_words = vec![0u64; m];
        for combo in 0..combos {
            for (j, bit) in state_bits.iter_mut().enumerate() {
                *bit = (combo >> j) & 1 == 1;
            }
            for (k, word) in input_words.iter_mut().enumerate() {
                *word = broadcast((combo >> (r + k)) & 1 == 1);
            }
            sim.set_state_broadcast_bits(&state_bits);
            sim.eval_all(&input_words);
            for (bit, &net) in plan.observation_points().iter().enumerate() {
                let [w] = sim.values[net as usize];
                for (lane, sig) in obs_sig.iter_mut().skip(combo).step_by(combos).enumerate() {
                    *sig |= (((w >> lane) & 1) as u32) << bit;
                }
            }
            for (bit, &d) in plan.flip_flop_inputs().iter().enumerate() {
                let [w] = sim.values[d as usize];
                for (lane, ns) in next_state
                    .iter_mut()
                    .skip(combo)
                    .step_by(combos)
                    .enumerate()
                {
                    *ns |= (((w >> lane) & 1) as u16) << bit;
                }
            }
        }
        Self {
            r,
            combos,
            obs_sig,
            next_state,
        }
    }

    fn sig(&self, lane: usize, idx: usize) -> u32 {
        self.obs_sig[lane * self.combos + idx]
    }

    fn next(&self, lane: usize, idx: usize) -> u16 {
        self.next_state[lane * self.combos + idx]
    }
}

fn bits_to_index(bits: &[bool]) -> usize {
    bits.iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i))
}

/// The compiled-table tail of a campaign: once the survivors of a small
/// machine fit one chunk, the remaining segments run as two table lookups
/// per machine per cycle.  Built once at a segment boundary and then
/// advanced segment by segment (the tables are exact, so the detection
/// cycles equal the word-parallel and scalar engines' bit for bit).
pub(crate) struct TableTail {
    tables: LaneTables,
    /// (lane, detection index, current state) of the still-active machines.
    live: Vec<(usize, usize, u16)>,
    ref_state: u16,
}

impl TableTail {
    pub(crate) fn new(netlist: &Netlist, alive: &[AliveFault], reference_state: &[bool]) -> Self {
        let faults: Vec<Injection> = alive.iter().map(|a| a.fault.clone()).collect();
        let tables = LaneTables::build(netlist, &faults);
        let live = alive
            .iter()
            .enumerate()
            .map(|(i, a)| (i + 1, a.index, bits_to_index(&a.state) as u16))
            .collect();
        let ref_state = bits_to_index(reference_state) as u16;
        Self {
            tables,
            live,
            ref_state,
        }
    }

    /// The still-live machines as checkpoint records: the packed `u16`
    /// states unfold into the canonical per-register booleans (the same
    /// little-endian order [`bits_to_index`] folded them with), so a
    /// table-mode checkpoint restores onto any engine.  Table mode rules
    /// out stateful faults, so the transition memories are always empty.
    pub(crate) fn survivor_records(&self) -> Vec<SurvivorRecord> {
        let r = self.tables.r;
        self.live
            .iter()
            .map(|&(_, index, state)| SurvivorRecord {
                index,
                state: (0..r).map(|b| (state >> b) & 1 == 1).collect(),
                memory: Vec::new(),
            })
            .collect()
    }

    /// The fault-free machine's register state as booleans (see
    /// [`TableTail::survivor_records`] for the bit order).
    pub(crate) fn reference_state_bits(&self) -> Vec<bool> {
        let r = self.tables.r;
        (0..r).map(|b| (self.ref_state >> b) & 1 == 1).collect()
    }

    /// Runs cycles `from..to`, pushing every new `(fault index, cycle)`
    /// detection and carrying all machine states to the next call.
    pub(crate) fn run(
        &mut self,
        stimulus: &Stimulus,
        stimulation: StateStimulation,
        from: usize,
        to: usize,
        detections: &mut Vec<(usize, usize)>,
    ) {
        let r = self.tables.r;
        let tables = &self.tables;
        for cycle in from..to {
            if self.live.is_empty() {
                break;
            }
            let input_bits = bits_to_index(stimulus.pi(cycle)) << r;
            match stimulation {
                StateStimulation::SystemState => {
                    let ref_idx = input_bits | self.ref_state as usize;
                    let ref_sig = tables.sig(0, ref_idx);
                    self.live.retain_mut(|(lane, index, state)| {
                        let idx = input_bits | *state as usize;
                        if tables.sig(*lane, idx) != ref_sig {
                            detections.push((*index, cycle));
                            false
                        } else {
                            *state = tables.next(*lane, idx);
                            true
                        }
                    });
                    self.ref_state = tables.next(0, ref_idx);
                }
                StateStimulation::RandomState => {
                    // The pattern register overrides the state: all machines
                    // (including the reference) share the same index.
                    let idx = input_bits | (bits_to_index(&stimulus.st(cycle)[..r]));
                    let ref_sig = tables.sig(0, idx);
                    self.live.retain_mut(|(lane, index, _)| {
                        if tables.sig(*lane, idx) != ref_sig {
                            detections.push((*index, cycle));
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
    }
}

/// Packed engine as a segment runner: faults are simulated in chunks of up
/// to [`FAULT_LANES`] per machine word, with the fault-free reference in
/// lane 0 of every chunk.  The stimulus is generated and packed into
/// broadcast words one segment at a time, so an early-stopped campaign
/// allocates neither patterns nor broadcast words past its stop boundary.
///
/// Most faults are caught within a few dozen patterns, which would leave
/// later cycles of a chunk running for just one or two stubborn lanes.  The
/// campaign therefore *compacts* the surviving faults into fresh, dense
/// chunks between the schedule's segments, carrying each machine's register
/// state across the boundary — the per-fault trajectories (and hence the
/// detection pattern) are exactly those of the scalar engine.  Once the
/// survivors of a small machine fit one chunk, the runner switches to the
/// compiled [`TableTail`] for the remaining segments (and drops the
/// broadcast buffers — the tail indexes the boolean rows directly).
struct PackedSegments<'a> {
    netlist: &'a Netlist,
    stimulus: Stimulus,
    stimulation: StateStimulation,
    /// Broadcast words of the generated rows, cycle-major; extended per
    /// segment, covering cycles `0..packed_cycles`.
    pi_words: Vec<u64>,
    st_words: Vec<u64>,
    packed_cycles: usize,
    reference_state: Vec<bool>,
    alive: Vec<AliveFault>,
    table: Option<TableTail>,
    /// Telemetry of the segment in flight, drained by
    /// [`SegmentRunner::telemetry_snapshot`].
    metrics: CampaignMetrics,
    /// Stimulus rows already tallied into
    /// [`CampaignMetrics::stimulus_patterns`].
    counted_generated: usize,
}

impl<'a> PackedSegments<'a> {
    fn new(
        netlist: &'a Netlist,
        faults: &[Injection],
        mut stimulus: Stimulus,
        stimulation: StateStimulation,
    ) -> Self {
        let num_state = netlist.flip_flops().len();
        // Scan initialisation: every machine starts from the first random
        // state (the generated rows are at least as wide as the register).
        stimulus.ensure(1);
        let init_state = stimulus.st(0)[..num_state].to_vec();
        Self {
            netlist,
            stimulus,
            stimulation,
            pi_words: Vec::new(),
            st_words: Vec::new(),
            packed_cycles: 0,
            reference_state: init_state.clone(),
            alive: initial_alive(faults, &init_state),
            table: None,
            metrics: CampaignMetrics::default(),
            counted_generated: 0,
        }
    }

    /// Resumes from a detect checkpoint (see [`ScalarSegments::restore`]).
    /// The runner restarts in chunked mode; the table-tail applicability
    /// check re-runs at the next boundary over the same survivors and
    /// remaining budget, and the tables are exact either way.
    fn restore(
        &mut self,
        faults: &[Injection],
        reference_state: &[bool],
        survivors: &[SurvivorRecord],
        _from: usize,
        generated: usize,
    ) {
        self.reference_state = reference_state.to_vec();
        self.alive = restore_alive(faults, survivors);
        self.stimulus.ensure(generated);
        self.counted_generated = generated;
    }
}

impl SegmentRunner for PackedSegments<'_> {
    fn run_segment(&mut self, from: usize, to: usize, detections: &mut Vec<(usize, usize)>) {
        let total_cycles = self.stimulus.cycles;
        if self.table.is_none() {
            if self.alive.is_empty() {
                return;
            }
            // Once the survivors fit a single chunk and the machine is
            // small enough, finish the campaign on compiled tables.
            if self.alive.len() <= FAULT_LANES
                && LaneTables::applicable(
                    self.netlist,
                    &self.alive,
                    self.alive.len() + 1,
                    total_cycles - from,
                )
            {
                self.table = Some(TableTail::new(
                    self.netlist,
                    &self.alive,
                    &self.reference_state,
                ));
                self.alive = Vec::new();
                // The tail reads the boolean rows directly; the packed
                // broadcast buffers are dead weight from here on.
                self.pi_words = Vec::new();
                self.st_words = Vec::new();
            }
        }
        let stim_timer = PhaseTimer::start();
        self.stimulus.ensure(to);
        self.metrics.stimulus_patterns +=
            (self.stimulus.generated_cycles() - self.counted_generated) as u64;
        self.counted_generated = self.stimulus.generated_cycles();
        self.metrics.stimulus_ns += stim_timer.elapsed_ns();
        self.metrics.cycles_simulated += (to - from) as u64;
        if let Some(table) = &mut self.table {
            let eval_timer = PhaseTimer::start();
            table.run(&self.stimulus, self.stimulation, from, to, detections);
            self.metrics.fault_eval_ns += eval_timer.elapsed_ns();
            return;
        }
        // Extend the broadcast words over this segment's rows: every
        // machine sees the same inputs, so each bit is one broadcast word.
        let stim_timer = PhaseTimer::start();
        for cycle in self.packed_cycles..to {
            self.pi_words
                .extend(self.stimulus.pi(cycle).iter().map(|&b| broadcast(b)));
            self.st_words
                .extend(self.stimulus.st(cycle).iter().map(|&b| broadcast(b)));
        }
        self.packed_cycles = self.packed_cycles.max(to);
        self.metrics.stimulus_ns += stim_timer.elapsed_ns();

        let eval_timer = PhaseTimer::start();
        let num_inputs = self.netlist.primary_inputs().len();
        let num_state = self.netlist.flip_flops().len();
        let mut survivors: Vec<AliveFault> = Vec::new();
        let mut next_reference_state = None;
        for chunk in self.alive.chunks(FAULT_LANES) {
            let faults: Vec<Injection> = chunk.iter().map(|a| a.fault.clone()).collect();
            // Survivors are compacted into fresh, dense chunks per
            // segment: every compile here is one compaction rebuild.
            self.metrics.compaction_rebuilds += 1;
            let mut sim = PackedCore::<1>::compile(self.netlist, &faults);
            // Seed the lanes: lane 0 resumes the fault-free reference, lane
            // `i + 1` resumes faulty machine `chunk[i]`.
            let mut state_words = vec![0u64; num_state];
            for (ff, word) in state_words.iter_mut().enumerate() {
                let mut w = self.reference_state[ff] as u64;
                for (i, a) in chunk.iter().enumerate() {
                    w |= (a.state[ff] as u64) << (i + 1);
                }
                *word = w;
            }
            sim.set_state_words(&state_words);
            // Stateful lanes also resume their delay memories.
            for (i, a) in chunk.iter().enumerate() {
                sim.seed_injection_memory(i + 1, &a.memory);
            }
            let [mut active] = sim.fault_lanes();
            for cycle in from..to {
                if active == 0 {
                    break; // every fault of the chunk has been detected
                }
                if self.stimulation == StateStimulation::RandomState {
                    // The pattern-generation register overrides the state.
                    let row = cycle * self.stimulus.st_width;
                    sim.set_state_words(&self.st_words[row..row + num_state]);
                }
                let row = cycle * num_inputs;
                sim.eval_all(&self.pi_words[row..row + num_inputs]);
                let mut detected = sim.mismatch_word() & active;
                sim.clock();
                active &= !detected;
                while detected != 0 {
                    let lane = detected.trailing_zeros() as usize;
                    detections.push((chunk[lane - 1].index, cycle));
                    detected &= detected - 1;
                }
            }
            let (launches, activations) = sim.take_path_counters();
            self.metrics.path_launches += launches;
            self.metrics.path_activations += activations;
            if active != 0 {
                // This chunk ran the full segment, so its lane 0 holds the
                // fault-free state at `to` for seeding the next segment.
                let words: Vec<u64> = sim.state_words();
                if next_reference_state.is_none() {
                    next_reference_state =
                        Some(words.iter().map(|&w| w & 1 == 1).collect::<Vec<bool>>());
                }
                while active != 0 {
                    let lane = active.trailing_zeros() as usize;
                    active &= active - 1;
                    let a = &chunk[lane - 1];
                    survivors.push(AliveFault {
                        index: a.index,
                        fault: a.fault.clone(),
                        state: words.iter().map(|&w| (w >> lane) & 1 == 1).collect(),
                        memory: sim.injection_memory(lane),
                    });
                }
            }
        }
        if let Some(state) = next_reference_state {
            self.reference_state = state;
        }
        self.alive = survivors;
        self.metrics.fault_eval_ns += eval_timer.elapsed_ns();
    }

    fn stimulus_cycles(&self) -> usize {
        self.stimulus.generated_cycles()
    }

    fn telemetry_snapshot(&mut self) -> SegmentTelemetry {
        SegmentTelemetry {
            metrics: std::mem::take(&mut self.metrics),
            ..SegmentTelemetry::default()
        }
    }

    fn capture(&mut self) -> Option<EngineSnapshot> {
        Some(match &self.table {
            Some(table) => EngineSnapshot::Detect {
                reference_state: table.reference_state_bits(),
                survivors: table.survivor_records(),
            },
            None => EngineSnapshot::Detect {
                reference_state: self.reference_state.clone(),
                survivors: survivor_records(&self.alive),
            },
        })
    }
}

/// The campaign stimulus in flat row-major buffers: cycle `c` occupies
/// `pi[c * pi_width ..]` and `st[c * st_width ..]`.  Rows are generated
/// lazily, one campaign segment at a time: [`Stimulus::ensure`] extends the
/// generated prefix, and readers may only index below it.  Laziness is
/// invisible to the simulation — the sources draw the exact sequence the
/// old eager generator drew, only on demand.
pub(crate) struct Stimulus {
    /// The campaign budget (`max_patterns`); `ensure` never generates past
    /// this.
    pub(crate) cycles: usize,
    pub(crate) pi_width: usize,
    /// Width of the generated state rows (`num_state.max(1)`, mirroring the
    /// state pattern source).
    pub(crate) st_width: usize,
    pi: Vec<bool>,
    st: Vec<bool>,
    /// Cycles generated so far: `pi`/`st` hold rows `0..generated`.
    generated: usize,
    pi_source: Box<dyn PatternSource + Send + Sync>,
    st_source: RandomPatterns,
}

impl Stimulus {
    /// Extends the generated prefix to `to` cycles (clamped to the
    /// campaign budget); a no-op when the rows already exist.
    pub(crate) fn ensure(&mut self, to: usize) {
        let to = to.min(self.cycles);
        if to <= self.generated {
            return;
        }
        self.pi.resize(to * self.pi_width, false);
        self.st.resize(to * self.st_width, false);
        for cycle in self.generated..to {
            if self.pi_width > 0 {
                self.pi_source
                    .fill(&mut self.pi[cycle * self.pi_width..(cycle + 1) * self.pi_width]);
            }
            self.st_source
                .fill(&mut self.st[cycle * self.st_width..(cycle + 1) * self.st_width]);
        }
        self.generated = to;
    }

    /// Cycles generated so far — the early-stop accounting the campaign
    /// reports as `stimulus_generated`.
    pub(crate) fn generated_cycles(&self) -> usize {
        self.generated
    }

    pub(crate) fn pi(&self, cycle: usize) -> &[bool] {
        debug_assert!(
            cycle < self.generated,
            "stimulus cycle {cycle} not generated"
        );
        &self.pi[cycle * self.pi_width..(cycle + 1) * self.pi_width]
    }

    pub(crate) fn st(&self, cycle: usize) -> &[bool] {
        debug_assert!(
            cycle < self.generated,
            "stimulus cycle {cycle} not generated"
        );
        &self.st[cycle * self.st_width..(cycle + 1) * self.st_width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::build_netlist;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::{FaultList, StuckAt};
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_fsm::Fsm;
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    fn netlist_for(fsm: &Fsm, structure: BistStructure) -> Netlist {
        let encoding = StateEncoding::natural(fsm).unwrap();
        let r = encoding.num_bits();
        match structure {
            BistStructure::Dff => {
                let transform = RegisterTransform::Dff;
                let pla = build_pla(fsm, &encoding, &transform).unwrap();
                let cover = minimize(&pla).cover;
                let lay = layout(fsm, &encoding, &transform);
                build_netlist(fsm.name(), &cover, &lay, BistStructure::Dff, None).unwrap()
            }
            BistStructure::Sig | BistStructure::Pst => {
                let poly = primitive_polynomial(r).unwrap();
                let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
                let pla = build_pla(fsm, &encoding, &transform).unwrap();
                let cover = minimize(&pla).cover;
                let lay = layout(fsm, &encoding, &transform);
                build_netlist(fsm.name(), &cover, &lay, structure, Some(poly)).unwrap()
            }
            BistStructure::Pat => unreachable!("not used in these tests"),
        }
    }

    /// The collapsed stuck-at campaign over `netlist` under `config`.
    fn stuck_at(netlist: &Netlist, config: CampaignConfig) -> CoverageResult {
        Campaign::new(netlist)
            .config(config)
            .model(&StuckAt)
            .run()
            .coverage(0)
    }

    fn patterns(max_patterns: usize) -> CampaignConfig {
        CampaignConfig {
            max_patterns,
            ..Default::default()
        }
    }

    #[test]
    fn dff_self_test_reaches_high_coverage() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        let result = stuck_at(&netlist, patterns(512));
        assert_eq!(result.stimulation, StateStimulation::RandomState);
        assert!(
            result.fault_coverage() > 0.9,
            "coverage {}",
            result.fault_coverage()
        );
        assert!(result.total_faults > 0);
        assert_eq!(result.patterns_applied, 512);
        assert!(result.aliasing_probability < 0.5);
    }

    #[test]
    fn pst_self_test_reaches_high_coverage() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Pst);
        let result = stuck_at(&netlist, patterns(512));
        assert_eq!(result.stimulation, StateStimulation::SystemState);
        assert!(
            result.fault_coverage() > 0.85,
            "coverage {}",
            result.fault_coverage()
        );
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let fsm = modulo12_exact().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        let result = stuck_at(&netlist, patterns(256));
        let mut last = 0.0;
        for &(_, c) in &result.coverage_curve {
            assert!(c >= last - 1e-12);
            last = c;
        }
        assert!(!result.coverage_curve.is_empty());
    }

    #[test]
    fn test_length_for_coverage_is_consistent() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        let result = stuck_at(&netlist, patterns(512));
        let half = result
            .test_length_for_coverage(0.5)
            .expect("should reach 50% quickly");
        let ninety = result
            .test_length_for_coverage(0.9)
            .expect("should reach 90%");
        assert!(half <= ninety);
        assert!(result.test_length_for_coverage(1.01).is_none() || result.fault_coverage() >= 1.0);
        assert_eq!(
            result.undetected_faults(),
            result.total_faults - result.detected_faults
        );
    }

    #[test]
    fn weighted_patterns_and_sampling_are_supported() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        let faults: Vec<Injection> = FaultList::full(&netlist)
            .sampled(2)
            .faults()
            .iter()
            .map(|&f| f.into())
            .collect();
        let result = Campaign::new(&netlist)
            .patterns(128)
            .input_weights(vec![0.7])
            .faults("stuck_at", faults)
            .run()
            .coverage(0);
        assert!(result.total_faults > 0);
        assert!(result.fault_coverage() > 0.0);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Pst);
        let a = stuck_at(&netlist, patterns(128));
        let b = stuck_at(&netlist, patterns(128));
        assert_eq!(a, b);
    }

    #[test]
    fn stimulation_override_is_honoured() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Pst);
        let config = CampaignConfig {
            stimulation: Some(StateStimulation::RandomState),
            ..patterns(128)
        };
        let result = stuck_at(&netlist, config);
        assert_eq!(result.stimulation, StateStimulation::RandomState);
    }

    #[test]
    fn packed_and_scalar_engines_agree_bit_for_bit() {
        for structure in [BistStructure::Dff, BistStructure::Sig, BistStructure::Pst] {
            for fsm in [fig3_example().unwrap(), modulo12_exact().unwrap()] {
                let netlist = netlist_for(&fsm, structure);
                let scalar = stuck_at(
                    &netlist,
                    CampaignConfig {
                        engine: SimEngine::Scalar,
                        ..patterns(512)
                    },
                );
                let packed = stuck_at(
                    &netlist,
                    CampaignConfig {
                        engine: SimEngine::Packed,
                        ..patterns(512)
                    },
                );
                assert_eq!(
                    scalar.detection_pattern,
                    packed.detection_pattern,
                    "{structure} on {}",
                    fsm.name()
                );
                assert_eq!(scalar, packed, "{structure} on {}", fsm.name());
            }
        }
    }

    #[test]
    fn packed_engine_handles_uncollapsed_and_wide_fault_lists() {
        // An uncollapsed list exercises input-pin faults and needs multiple
        // 63-fault chunks.
        let fsm = modulo12_exact().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        let uncollapsed = |engine| {
            Campaign::new(&netlist)
                .engine(engine)
                .patterns(256)
                .model_uncollapsed(&StuckAt)
                .run()
                .coverage(0)
        };
        let scalar = uncollapsed(SimEngine::Scalar);
        assert!(
            scalar.total_faults > FAULT_LANES,
            "need more than one chunk, got {} faults",
            scalar.total_faults
        );
        let packed = uncollapsed(SimEngine::Auto);
        assert_eq!(scalar, packed);
    }

    #[test]
    fn degenerate_campaigns_are_total() {
        let fsm = fig3_example().unwrap();
        let netlist = netlist_for(&fsm, BistStructure::Dff);
        for (engine, threads) in [
            (SimEngine::Scalar, 1),
            (SimEngine::Packed, 1),
            (SimEngine::Differential, 1),
            (SimEngine::Differential, 2),
        ] {
            let config = |max_patterns| CampaignConfig {
                engine,
                threads,
                ..patterns(max_patterns)
            };
            // Zero patterns: nothing applied, nothing detected, no panic.
            let zero_patterns = stuck_at(&netlist, config(0));
            assert_eq!(zero_patterns.patterns_applied, 0, "{engine:?}");
            assert!(zero_patterns.total_faults > 0);
            assert_eq!(zero_patterns.detected_faults, 0);
            assert_eq!(zero_patterns.fault_coverage(), 0.0);
            assert!(zero_patterns.coverage_curve.is_empty());
            assert!(zero_patterns.test_length_for_coverage(0.9).is_none());

            // Empty fault list: a zero-coverage result, no panic.
            let no_faults = |max_patterns| {
                Campaign::new(&netlist)
                    .config(config(max_patterns))
                    .faults("none", Vec::new())
                    .run()
                    .coverage(0)
            };
            let empty = no_faults(64);
            assert_eq!(empty.total_faults, 0, "{engine:?}");
            assert!(empty.detection_pattern.is_empty());
            assert_eq!(empty.fault_coverage(), 0.0);
            assert_eq!(empty.undetected_faults(), 0);
            assert!(empty.test_length_for_coverage(0.5).is_none());
            assert!(empty.coverage_curve.iter().all(|&(_, c)| c == 0.0));

            // Both at once.
            assert_eq!(no_faults(0).fault_coverage(), 0.0);
        }
    }

    #[test]
    fn aliasing_probability_is_exact_for_wide_misrs() {
        assert_eq!(misr_aliasing_probability(1), 0.5);
        assert_eq!(misr_aliasing_probability(4), 0.0625);
        assert_eq!(misr_aliasing_probability(64), (0.5f64).powi(64));
        // The old implementation clamped to 2^-64; wide compactors must keep
        // shrinking instead.
        assert!(misr_aliasing_probability(100) < misr_aliasing_probability(64));
        assert_eq!(misr_aliasing_probability(100), f64::exp2(-100.0));
        // Subnormal but still non-zero…
        assert!(misr_aliasing_probability(1074) > 0.0);
        // …and a documented graceful underflow beyond double precision.
        assert_eq!(misr_aliasing_probability(1100), 0.0);
        assert_eq!(misr_aliasing_probability(usize::MAX), 0.0);
    }

    #[test]
    fn structure_to_stimulation_mapping() {
        assert_eq!(
            StateStimulation::for_structure(BistStructure::Dff),
            StateStimulation::RandomState
        );
        assert_eq!(
            StateStimulation::for_structure(BistStructure::Sig),
            StateStimulation::RandomState
        );
        assert_eq!(
            StateStimulation::for_structure(BistStructure::Pst),
            StateStimulation::SystemState
        );
    }
}
