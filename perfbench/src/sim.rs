//! Campaign runs and the work counters the engines publish on
//! `CampaignOutcome::telemetry`.

use stfsm::testsim::telemetry::CampaignMetrics;
use stfsm::{Campaign, CampaignError, CampaignOutcome};

use crate::report::ratio;
use crate::trace::Tracer;
use crate::Values;

/// Runs `campaign` inside a `testsim.campaign` span and records the
/// engine's own phase timings as its derived children; what they leave
/// uncovered is the span's self time (`testsim.unattributed`).
pub fn run_campaign(
    tr: &mut Tracer,
    campaign: Campaign<'_, '_>,
) -> Result<CampaignOutcome, CampaignError> {
    tr.span("testsim.campaign", |tr| {
        let outcome = campaign.try_run()?;
        let t = &outcome.telemetry.totals;
        tr.derived("testsim.stimulus", t.stimulus_ns);
        tr.derived("testsim.good_trace", t.good_trace_ns);
        tr.derived("testsim.fault_eval", t.fault_eval_ns);
        tr.derived("testsim.dictionary_span", t.dictionary_ns);
        tr.derived("testsim.observer", t.observer_ns);
        Ok(outcome)
    })
}

/// Counters summed over the campaigns of a pass.
#[derive(Debug, Default, Clone)]
pub struct CampaignStats {
    pub totals: CampaignMetrics,
    /// Σ over faults of the cycles simulated while the fault was live: its
    /// first-detect pattern + 1, or the patterns applied when it was never
    /// detected or the pass never drops faults (dictionary campaigns).
    pub fault_cycles: u64,
    pub faults: u64,
    pub detected: u64,
    pub incidents: u64,
}

impl CampaignStats {
    pub fn absorb(&mut self, outcome: &CampaignOutcome) {
        self.totals.absorb(&outcome.telemetry.totals);
        self.incidents += outcome.incidents.len() as u64;
        let applied = outcome.patterns_applied as u64;
        for section in &outcome.sections {
            let undropped = section.dictionary.is_some();
            for first in &section.detection_pattern {
                self.faults += 1;
                self.detected += u64::from(first.is_some());
                self.fault_cycles += match first {
                    Some(pattern) if !undropped => *pattern as u64 + 1,
                    _ => applied,
                };
            }
        }
    }

    pub fn merge(&mut self, other: &CampaignStats) {
        self.totals.absorb(&other.totals);
        self.fault_cycles += other.fault_cycles;
        self.faults += other.faults;
        self.detected += other.detected;
        self.incidents += other.incidents;
    }

    /// The campaign counters that repeat exactly for a given seed.
    /// `checkpoint_bytes` is left out: checkpoints embed span timings.
    pub fn exact_counters(&self) -> Vec<(&'static str, u64)> {
        let t = &self.totals;
        vec![
            ("testsim.fault_cycles", self.fault_cycles),
            ("testsim.cycles_simulated", t.cycles_simulated),
            ("testsim.lane_retirements", t.lane_retirements),
            ("testsim.events_drained", t.events_drained),
            ("testsim.steps_skipped", t.steps_skipped),
            ("testsim.full_sweeps", t.full_sweeps),
            ("testsim.event_cycles", t.event_cycles),
            ("testsim.widenings", t.widenings),
            ("testsim.compaction_rebuilds", t.compaction_rebuilds),
            ("testsim.checkpoints_written", t.checkpoints_written),
        ]
    }

    /// The `testsim` counters and ratios of the per-layer report.
    pub fn per_layer(&self, campaign_ms: f64, values: &mut Values) {
        for (name, value) in self.exact_counters() {
            values.insert(name, value as f64);
        }
        let t = &self.totals;
        values.insert("testsim.path_activations", t.path_activations as f64);
        values.insert("testsim.checkpoint_bytes", t.checkpoint_bytes as f64);
        values.insert("testsim.incidents", self.incidents as f64);
        values.insert(
            "testsim.ns_per_fault_cycle",
            ratio(campaign_ms * 1e6, self.fault_cycles as f64),
        );
        values.insert(
            "testsim.event_skip_ratio",
            ratio(
                t.steps_skipped as f64,
                (t.steps_skipped + t.events_drained) as f64,
            ),
        );
        values.insert(
            "testsim.full_sweep_ratio",
            ratio(
                t.full_sweeps as f64,
                (t.full_sweeps + t.event_cycles) as f64,
            ),
        );
        values.insert(
            "testsim.detect_ratio",
            ratio(self.detected as f64, self.faults as f64),
        );
    }
}
