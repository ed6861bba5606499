//! `grade_small` and `grade_large`: one fault-coverage campaign per
//! netlist over all five fault models, `SimEngine::Auto`, default
//! stimulus and a `CoverageObserver` only, so every campaign runs its
//! full pattern budget.
//!
//! `grade_small` grades the eleven suite machines below
//! `SimEngine::AUTO_DIFFERENTIAL_GATES` under all four structures (all
//! resolve to the packed engine).  `grade_large` grades planet and scf
//! under DFF and PST — the two stimulation modes — which resolve to the
//! differential engine, and writes a checkpoint at every segment.

use stfsm::faults::{all_models, Injection};
use stfsm::testsim::coverage::StateStimulation;
use stfsm::{
    BistStructure, Campaign, CampaignOutcome, CoverageObserver, SimEngine, SynthesisResult,
};

use crate::clock::Clock;
use crate::flow::{area_counters, suite_fsms, synthesize_all, SplitMix};
use crate::report::{median, quantile, Ledger};
use crate::sim::{run_campaign, CampaignStats};
use crate::trace::{Breakdown, Tracer};
use crate::{Ctx, Values, Workload};

/// The two suite machines at or above the `Auto` crossover.
const LARGE_MACHINES: &[&str] = &["planet", "scf"];
/// Faults per section re-run on the scalar reference engine.
const SCALAR_SAMPLE: usize = 4;

pub struct Grade {
    large: bool,
    structures: &'static [BistStructure],
    patterns: usize,
}

impl Grade {
    pub const SMALL: Grade = Grade {
        large: false,
        structures: &BistStructure::ALL,
        patterns: 4096,
    };
    pub const LARGE: Grade = Grade {
        large: true,
        structures: &[BistStructure::Dff, BistStructure::Pst],
        patterns: 512,
    };
}

/// One pass: every campaign, built (fault enumeration included) and run.
pub struct GradePass {
    /// `(structure, reference seconds, fault cycles)` per campaign, in
    /// input order.
    campaigns: Vec<(BistStructure, f64, u64)>,
    stats: CampaignStats,
}

impl Workload for Grade {
    type Inputs = Vec<SynthesisResult>;
    type Pass = GradePass;

    fn setup(&self, _ctx: &Ctx, tr: &mut Tracer, ledger: &mut Ledger) -> Vec<SynthesisResult> {
        let fsms = suite_fsms(tr, |name| LARGE_MACHINES.contains(&name) == self.large);
        synthesize_all(&fsms, self.structures, tr, ledger)
    }

    fn pass(
        &self,
        ctx: &Ctx,
        netlists: &Vec<SynthesisResult>,
        index: usize,
        clock: &mut Clock,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> GradePass {
        let models = all_models();
        let mut pass = GradePass {
            campaigns: Vec::new(),
            stats: CampaignStats::default(),
        };
        for (n, synthesized) in netlists.iter().enumerate() {
            let netlist = &synthesized.netlist;
            let what = format!("{} {} campaign", netlist.name(), synthesized.structure);
            let checkpoint = self.large.then(|| {
                ctx.work_dir
                    .join(format!("{}-{}.ckpt", netlist.name(), synthesized.structure))
            });
            let mark = clock.start();
            let sections: Vec<(&str, Vec<Injection>)> = tr.span("faults.enumerate", |_| {
                models
                    .iter()
                    .map(|m| (m.name(), m.fault_list(netlist, true)))
                    .collect()
            });
            let mut coverage = CoverageObserver::new();
            let mut campaign = Campaign::new(netlist)
                .engine(SimEngine::Auto)
                .patterns(self.patterns)
                .seed(ctx.campaign_seed);
            for (label, faults) in sections {
                campaign = campaign.faults(label, faults);
            }
            if let Some(path) = &checkpoint {
                campaign = campaign.checkpoint_to(path);
            }
            let outcome = run_campaign(tr, campaign.observe(&mut coverage));
            let seconds = clock.stop(mark);
            if let Some(path) = &checkpoint {
                let _ = std::fs::remove_file(path);
            }
            let Some(outcome) = ledger.attempt(&what, outcome) else {
                continue;
            };
            ledger.check(outcome.incidents.is_empty(), || {
                format!("{what}: incidents {:?}", outcome.incidents)
            });
            if index == 0 {
                let mut rng = SplitMix::new(ctx.campaign_seed ^ n as u64);
                tr.span("bench.check", |_| {
                    scalar_check(
                        synthesized,
                        &outcome,
                        ctx.campaign_seed,
                        &mut rng,
                        ledger,
                        &what,
                    )
                });
            }
            let mut one = CampaignStats::default();
            one.absorb(&outcome);
            pass.stats.absorb(&outcome);
            pass.campaigns
                .push((synthesized.structure, seconds, one.fault_cycles));
        }
        pass
    }

    fn exact_counters(
        &self,
        netlists: &Vec<SynthesisResult>,
        pass: &GradePass,
    ) -> Vec<(&'static str, u64)> {
        let mut counters = area_counters(netlists);
        counters.push(("faults.count", pass.stats.faults));
        counters.extend(pass.stats.exact_counters());
        counters
    }

    fn same_outputs(
        &self,
        untraced: (&Vec<SynthesisResult>, &GradePass),
        traced: (&Vec<SynthesisResult>, &GradePass),
        ledger: &mut Ledger,
    ) {
        ledger.check(untraced.0 == traced.0, || {
            "the stage-by-stage replay differs from SynthesisFlow::synthesize".to_string()
        });
    }

    fn end_to_end(
        &self,
        netlists: &Vec<SynthesisResult>,
        passes: &[GradePass],
        values: &mut Values,
    ) {
        // The median time of each campaign over the passes.
        let campaigns = &passes[0].campaigns;
        let medians: Vec<f64> = (0..campaigns.len())
            .map(|i| {
                let samples: Vec<f64> = passes.iter().map(|p| p.campaigns[i].1).collect();
                median(&samples)
            })
            .collect();
        // Stage a: the state register as pattern generator (DFF/PAT/SIG);
        // stage b: system-state stimulation (PST).
        let stage = |random: bool| -> f64 {
            campaigns
                .iter()
                .zip(&medians)
                .filter(|((s, _, _), _)| {
                    (StateStimulation::for_structure(*s) == StateStimulation::RandomState) == random
                })
                .map(|(_, t)| t)
                .sum()
        };
        let fault_cycles: u64 = campaigns.iter().map(|c| c.2).sum();
        let wall: f64 = medians.iter().sum();
        let micros: Vec<f64> = medians.iter().map(|t| t * 1e6).collect();
        values.insert("stage_a_s", stage(true));
        values.insert("stage_b_s", stage(false));
        values.insert("rate_per_s", fault_cycles as f64 / wall);
        values.insert("p50_us", quantile(&micros, 0.5));
        values.insert("p90_us", quantile(&micros, 0.9));
        for (name, value) in area_counters(netlists).into_iter() {
            values.insert(name, value as f64);
        }
    }

    fn per_layer(
        &self,
        netlists: &Vec<SynthesisResult>,
        pass: &GradePass,
        breakdown: &Breakdown,
        values: &mut Values,
    ) {
        for (name, value) in area_counters(netlists).into_iter() {
            values.insert(name, value as f64);
        }
        values.insert("faults.count", pass.stats.faults as f64);
        pass.stats
            .per_layer(breakdown.inclusive_ms("testsim.campaign"), values);
        values.insert("bench.samples", pass.campaigns.len() as f64);
    }
}

/// Re-runs a seeded sample of each section's faults on the scalar
/// reference engine and checks their detection patterns.
fn scalar_check(
    synthesized: &SynthesisResult,
    outcome: &CampaignOutcome,
    seed: u64,
    rng: &mut SplitMix,
    ledger: &mut Ledger,
    what: &str,
) {
    let mut campaign = Campaign::new(&synthesized.netlist)
        .engine(SimEngine::Scalar)
        .patterns(outcome.max_patterns)
        .seed(seed);
    let mut picks = Vec::new();
    for section in &outcome.sections {
        let mut picked: Vec<usize> = (0..SCALAR_SAMPLE.min(section.faults.len()))
            .map(|_| rng.below(section.faults.len()))
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let faults = picked.iter().map(|&i| section.faults[i].clone()).collect();
        campaign = campaign.faults(section.label.clone(), faults);
        picks.push(picked);
    }
    let Some(scalar) = ledger.attempt(&format!("{what}: scalar re-run"), campaign.try_run()) else {
        return;
    };
    let mismatch = outcome
        .sections
        .iter()
        .zip(&scalar.sections)
        .zip(&picks)
        .flat_map(|((full, sample), picked)| {
            picked
                .iter()
                .zip(&sample.detection_pattern)
                .filter(|(&i, detected)| full.detection_pattern[i] != **detected)
                .map(move |(&i, detected)| (full.label.clone(), i, *detected))
        })
        .next();
    ledger.check(mismatch.is_none(), || {
        format!("{what}: scalar engine disagrees on {mismatch:?}")
    });
}
