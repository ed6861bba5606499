//! Campaign telemetry: engine counters and per-segment phase spans.
//!
//! Every engine of the [`SimEngine`](crate::coverage::SimEngine) matrix
//! fills a [`CampaignMetrics`] counter set while it simulates — how many
//! worklist events were scheduled and drained versus steps the event
//! scheduler skipped, how often the full-sweep fallback fired, per-word
//! widening/narrowing transitions, lane retirements, cone-union rebuilds,
//! `GoodTraceCache` hits and
//! misses, stimulus rows generated — and the campaign layer stamps one
//! [`SegmentTelemetry`] record per compaction segment with wall-clock
//! phase spans (stimulus / good-trace / fault-eval / dictionary /
//! observer) plus per-worker busy spans when the differential engine runs
//! more than one worker.
//!
//! The instrumentation is always on: counters are plain integer increments
//! on state the engines already touch, and wall-clock reads happen only at
//! segment and phase boundaries (a handful of [`std::time::Instant`] calls
//! per segment).  Telemetry never feeds back into simulation.
//!
//! [`CampaignMetrics::peak_rss_kb`] is *not* filled by the engines (this
//! crate deliberately has no platform probes); the `stfsm-trace` layer and
//! perfbench stamp it from `stfsm::sys::peak_rss_kb` when they record
//! a campaign.

/// The flat counter set of one campaign (or one campaign segment): every
/// field is a plain saturating-free `u64` tally, summed across lane
/// blocks, workers and segments by [`CampaignMetrics::absorb`].
///
/// Counters that a given engine has no mechanism for simply stay zero —
/// the scalar and packed engines never schedule events, so their
/// event-driven counters are all zero, while every engine fills the
/// stimulus, cycle and retirement tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignMetrics {
    /// Worklist propagation events enqueued by the event-driven
    /// differential scheduler (a consumer step newly marked pending
    /// because one of its inputs changed).  Seed events (frontier diffs,
    /// register loads, fault sites) are counted only in
    /// [`CampaignMetrics::events_drained`], so `events_scheduled <=
    /// events_drained`.
    pub events_scheduled: u64,
    /// Worklist steps actually evaluated by the event-driven scheduler
    /// (every pending bit popped and recomputed), across all lane blocks.
    pub events_drained: u64,
    /// Member steps the event scheduler did *not* have to evaluate —
    /// quiescent logic inside the active step set, summed per event-driven
    /// cycle.  The work the worklist saves over a full-cone sweep.
    pub steps_skipped: u64,
    /// Full member-set sweeps: cycles on which stored values could not be
    /// trusted incrementally (fresh or rebuilt step sets, entry into the
    /// wide set, a newly diverged word while wide), so the whole active
    /// step set was evaluated.
    pub full_sweeps: u64,
    /// Cycles advanced by the event-driven worklist (the complement of
    /// [`CampaignMetrics::full_sweeps`] over all block-cycles).
    pub event_cycles: u64,
    /// Per-word widening transitions: a packing word whose lanes had all
    /// agreed with the good machine gained a diverged lane, widening that
    /// word to the register-cone step set.
    pub widenings: u64,
    /// Per-word narrowing transitions: every lane of a diverged packing
    /// word reconverged onto the good machine, releasing the word back to
    /// the narrow (fault-cone) step set.
    pub narrowings: u64,
    /// First-detection events: faults whose response deviated from the
    /// fault-free machine (and, in the drop-on-detect coverage pass, were
    /// retired from their lane).  Equals the campaign's detected-fault
    /// count.
    pub lane_retirements: u64,
    /// Narrow cone-union rebuilds (swap compactions): a lane block
    /// rebuilt its restricted step sets after at least half of its faults
    /// had been retired.
    pub compaction_rebuilds: u64,
    /// `GoodTraceCache` lookups
    /// (always `cache_hits + cache_misses`).
    pub cache_lookups: u64,
    /// Cache lookups answered from the recorded segment trace.
    pub cache_hits: u64,
    /// Cache lookups that had to record the fault-free machine.
    pub cache_misses: u64,
    /// Stimulus rows (patterns) actually generated — with lazy
    /// per-segment generation this tracks the applied, not budgeted,
    /// pattern count.
    pub stimulus_patterns: u64,
    /// Reference-machine cycles the pass advanced through (segment cycles
    /// with live work; a segment whose faults were all already detected
    /// simulates nothing and counts nothing).
    pub cycles_simulated: u64,
    /// Process peak resident set in KiB.  Always zero inside the
    /// simulation engines; stamped by the `stfsm-trace` /
    /// perfbench layers from `stfsm::sys::peak_rss_kb` (see the
    /// [module docs](self)).  [`CampaignMetrics::absorb`] takes the max,
    /// not the sum.
    pub peak_rss_kb: u64,
    /// Wall time spent generating and broadcasting stimulus rows, in
    /// nanoseconds.
    pub stimulus_ns: u64,
    /// Wall time spent recording (or replaying) the fault-free machine's
    /// trace and advancing its reference signature, in nanoseconds.
    pub good_trace_ns: u64,
    /// Wall time spent evaluating faulty machines in the drop-on-detect
    /// coverage pass, in nanoseconds.
    pub fault_eval_ns: u64,
    /// Wall time spent in the un-dropped dictionary pass (faulty-machine
    /// evaluation plus MISR compaction), in nanoseconds.
    pub dictionary_ns: u64,
    /// Wall time spent inside observer `on_segment` callbacks, in
    /// nanoseconds.
    pub observer_ns: u64,
    /// Worker panics that were recovered by quarantining the shard and
    /// deterministically re-running it single-threaded.  Always zero
    /// outside chaos testing unless real worker code panicked (in which
    /// case results are still bit-for-bit intact — that is what the
    /// counter certifies was needed).
    pub worker_panics_recovered: u64,
    /// Segment-boundary checkpoints successfully written to disk.
    pub checkpoints_written: u64,
    /// Total bytes of checkpoint data written (sum over all checkpoints
    /// of the run; each boundary atomically replaces the previous file,
    /// so the on-disk footprint is the last checkpoint's size).
    pub checkpoint_bytes: u64,
    /// Path-delay lanes: slow-polarity launch transitions committed into
    /// a capture cycle (the two-pattern opportunities the stimulus
    /// produced, sensitized or not).
    pub path_launches: u64,
    /// Path-delay lanes: committed launch/capture pairs that passed the
    /// non-robust sensitization check (the cycles where the faulty path
    /// actually presented its delayed value).
    pub path_activations: u64,
}

impl CampaignMetrics {
    /// Folds another counter set into this one: every tally and span is
    /// summed, except [`CampaignMetrics::peak_rss_kb`], which is a
    /// high-water mark and takes the maximum.
    pub fn absorb(&mut self, other: &CampaignMetrics) {
        self.events_scheduled += other.events_scheduled;
        self.events_drained += other.events_drained;
        self.steps_skipped += other.steps_skipped;
        self.full_sweeps += other.full_sweeps;
        self.event_cycles += other.event_cycles;
        self.widenings += other.widenings;
        self.narrowings += other.narrowings;
        self.lane_retirements += other.lane_retirements;
        self.compaction_rebuilds += other.compaction_rebuilds;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stimulus_patterns += other.stimulus_patterns;
        self.cycles_simulated += other.cycles_simulated;
        self.peak_rss_kb = self.peak_rss_kb.max(other.peak_rss_kb);
        self.stimulus_ns += other.stimulus_ns;
        self.good_trace_ns += other.good_trace_ns;
        self.fault_eval_ns += other.fault_eval_ns;
        self.dictionary_ns += other.dictionary_ns;
        self.observer_ns += other.observer_ns;
        self.worker_panics_recovered += other.worker_panics_recovered;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.path_launches += other.path_launches;
        self.path_activations += other.path_activations;
    }
}

/// The busy span of one worker of a multi-worker segment fan-out: the
/// wall-clock window (nanoseconds, relative to the segment's fault-eval
/// phase start) during which the worker was advancing lane blocks.
///
/// Workers are the contiguous block groups of the deterministic sharding
/// (`worker = block index / group length`); the spans are measurement
/// only — scheduling never changes a result bit — and are empty when the
/// segment ran on one worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSpan {
    /// Worker index within the segment's fan-out.
    pub worker: usize,
    /// Nanoseconds from the fault-eval phase start to the worker's first
    /// block starting.
    pub start_ns: u64,
    /// Nanoseconds from the fault-eval phase start to the worker's last
    /// block finishing.
    pub end_ns: u64,
}

/// The telemetry record of one campaign segment: the wall-clock window,
/// the segment's counter deltas and the per-worker busy spans of a
/// multi-worker fan-out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentTelemetry {
    /// Index of the segment in the pinned schedule
    /// ([`CampaignPlan::segments`](crate::campaign::CampaignPlan::segments)).
    pub segment: usize,
    /// Patterns applied once this segment completed (its end boundary).
    pub patterns_applied: usize,
    /// Nanoseconds from the start of the simulation pass to this segment
    /// starting.
    pub start_ns: u64,
    /// Nanoseconds from the start of the simulation pass to this segment's
    /// boundary report.
    pub end_ns: u64,
    /// The segment's counter and span deltas (not running totals).
    pub metrics: CampaignMetrics,
    /// Per-worker busy spans of the segment's fault-eval fan-out; empty
    /// unless the segment ran on more than one worker.
    pub workers: Vec<WorkerSpan>,
}

/// The full telemetry of one campaign run, surfaced on
/// [`CampaignOutcome`](crate::campaign::CampaignOutcome): one record per
/// segment the campaign actually ran, plus the folded totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// One record per segment, in schedule order (an early-stopped
    /// campaign has records only up to its stop boundary).
    pub segments: Vec<SegmentTelemetry>,
    /// Every segment's metrics folded together with
    /// [`CampaignMetrics::absorb`].
    pub totals: CampaignMetrics,
}

impl CampaignTelemetry {
    /// Assembles the run telemetry from its per-segment records, folding
    /// the totals.
    pub fn from_segments(segments: Vec<SegmentTelemetry>) -> Self {
        let mut totals = CampaignMetrics::default();
        for segment in &segments {
            totals.absorb(&segment.metrics);
        }
        Self { segments, totals }
    }
}

/// A phase stopwatch.  Non-consuming, so one timer can serve as a segment
/// epoch for several offset reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseTimer(std::time::Instant);

impl PhaseTimer {
    /// Starts the stopwatch.
    pub(crate) fn start() -> Self {
        Self(std::time::Instant::now())
    }

    /// Nanoseconds elapsed since [`PhaseTimer::start`].
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_maxes_peak_rss() {
        let mut a = CampaignMetrics {
            events_scheduled: 1,
            events_drained: 2,
            steps_skipped: 3,
            full_sweeps: 4,
            event_cycles: 5,
            widenings: 6,
            narrowings: 7,
            lane_retirements: 8,
            compaction_rebuilds: 9,
            cache_lookups: 10,
            cache_hits: 4,
            cache_misses: 6,
            stimulus_patterns: 11,
            cycles_simulated: 12,
            peak_rss_kb: 100,
            stimulus_ns: 13,
            good_trace_ns: 14,
            fault_eval_ns: 15,
            dictionary_ns: 16,
            observer_ns: 17,
            worker_panics_recovered: 18,
            checkpoints_written: 19,
            checkpoint_bytes: 20,
            path_launches: 21,
            path_activations: 22,
        };
        let b = CampaignMetrics {
            events_scheduled: 10,
            peak_rss_kb: 50,
            worker_panics_recovered: 2,
            checkpoint_bytes: 5,
            ..CampaignMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.events_scheduled, 11);
        assert_eq!(a.events_drained, 2);
        assert_eq!(a.worker_panics_recovered, 20);
        assert_eq!(a.checkpoints_written, 19);
        assert_eq!(a.checkpoint_bytes, 25);
        assert_eq!(a.path_launches, 21);
        assert_eq!(a.path_activations, 22);
        assert_eq!(a.peak_rss_kb, 100, "peak RSS is a high-water mark");
        let c = CampaignMetrics {
            peak_rss_kb: 200,
            ..CampaignMetrics::default()
        };
        a.absorb(&c);
        assert_eq!(a.peak_rss_kb, 200);
    }

    #[test]
    fn from_segments_folds_totals() {
        let segments = vec![
            SegmentTelemetry {
                segment: 0,
                patterns_applied: 64,
                metrics: CampaignMetrics {
                    events_drained: 5,
                    cache_lookups: 1,
                    cache_misses: 1,
                    ..CampaignMetrics::default()
                },
                ..SegmentTelemetry::default()
            },
            SegmentTelemetry {
                segment: 1,
                patterns_applied: 192,
                metrics: CampaignMetrics {
                    events_drained: 7,
                    cache_lookups: 1,
                    cache_hits: 1,
                    ..CampaignMetrics::default()
                },
                ..SegmentTelemetry::default()
            },
        ];
        let telemetry = CampaignTelemetry::from_segments(segments);
        assert_eq!(telemetry.segments.len(), 2);
        assert_eq!(telemetry.totals.events_drained, 12);
        assert_eq!(telemetry.totals.cache_lookups, 2);
        assert_eq!(
            telemetry.totals.cache_hits + telemetry.totals.cache_misses,
            telemetry.totals.cache_lookups
        );
    }

    #[test]
    fn phase_timer_is_monotone() {
        let timer = PhaseTimer::start();
        // Monotone, not zero-pinned: any reading is valid, including 0 on
        // a coarse clock, so only assert it never *decreases*.
        let first = timer.elapsed_ns();
        assert!(timer.elapsed_ns() >= first);
    }
}
