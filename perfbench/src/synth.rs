//! `synth`: the paper's own flow (Tables 2–3) — the suite machines but
//! scf under DFF/PAT/SIG/PST with the default heuristic assignment and
//! minimizer.  It loads only `encode`, `logic` and `bist`.

use stfsm::fsm::Fsm;
use stfsm::logic::espresso::verify;
use stfsm::{BistStructure, SynthesisResult};

use crate::clock::Clock;
use crate::flow::{area_counters, suite_fsms, synthesize};
use crate::report::{median, quantile, Ledger};
use crate::trace::{Breakdown, Tracer};
use crate::{Ctx, Values, Workload};

pub struct Synth;

/// The suite machine left out.  Its four syntheses take 6 of the suite's
/// 10 s, so with it a run fits only two passes, too few for a steady
/// median.  scf is still synthesized in the set-up of `grade_large` and
/// `diagnose` and by each coordinator worker.
const LEFT_OUT: &str = "scf";

/// One pass: every `(machine, structure)` synthesis, timed once.
pub struct SynthPass {
    /// `(structure, reference seconds)` per synthesis, in suite ×
    /// structure order.
    timings: Vec<(BistStructure, f64)>,
    counters: Vec<(&'static str, u64)>,
    /// The results themselves, kept from pass 0 only so that memory use
    /// does not grow with the number of passes.
    results: Vec<SynthesisResult>,
}

/// Stage a: DFF and PAT, whose time is mostly the minimizer; stage b:
/// SIG and PST, whose time is mostly MISR state assignment.
fn in_stage_a(structure: BistStructure) -> bool {
    matches!(structure, BistStructure::Dff | BistStructure::Pat)
}

impl Workload for Synth {
    type Inputs = Vec<Fsm>;
    type Pass = SynthPass;

    fn setup(&self, _ctx: &Ctx, tr: &mut Tracer, _ledger: &mut Ledger) -> Vec<Fsm> {
        suite_fsms(tr, |name| name != LEFT_OUT)
    }

    fn pass(
        &self,
        _ctx: &Ctx,
        fsms: &Vec<Fsm>,
        index: usize,
        clock: &mut Clock,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> SynthPass {
        let mut timings = Vec::new();
        let mut results = Vec::new();
        for fsm in fsms {
            for structure in BistStructure::ALL {
                let mark = clock.start();
                let result = synthesize(fsm, structure, tr);
                timings.push((structure, clock.stop(mark)));
                let what = format!("synthesis of {} {structure}", fsm.name());
                let Some(result) = ledger.attempt(&what, result) else {
                    continue;
                };
                if index == 0 {
                    tr.span("bench.check", |_| {
                        ledger.check(verify(&result.pla, &result.cover), || {
                            format!("{what}: cover does not implement its PLA")
                        })
                    });
                }
                results.push(result);
            }
        }
        SynthPass {
            timings,
            counters: area_counters(&results),
            results: if index == 0 { results } else { Vec::new() },
        }
    }

    fn exact_counters(&self, _fsms: &Vec<Fsm>, pass: &SynthPass) -> Vec<(&'static str, u64)> {
        pass.counters.clone()
    }

    fn same_outputs(
        &self,
        untraced: (&Vec<Fsm>, &SynthPass),
        traced: (&Vec<Fsm>, &SynthPass),
        ledger: &mut Ledger,
    ) {
        ledger.check(untraced.1.results == traced.1.results, || {
            "the stage-by-stage replay differs from SynthesisFlow::synthesize".to_string()
        });
    }

    fn end_to_end(&self, _fsms: &Vec<Fsm>, passes: &[SynthPass], values: &mut Values) {
        // The median time of each synthesis over the passes.
        let items = passes[0].timings.len();
        let medians: Vec<(BistStructure, f64)> = (0..items)
            .map(|i| {
                let samples: Vec<f64> = passes.iter().map(|p| p.timings[i].1).collect();
                (passes[0].timings[i].0, median(&samples))
            })
            .collect();
        let stage = |a: bool| -> f64 {
            medians
                .iter()
                .filter(|(s, _)| in_stage_a(*s) == a)
                .map(|(_, t)| t)
                .sum()
        };
        let (stage_a, stage_b) = (stage(true), stage(false));
        let micros: Vec<f64> = medians.iter().map(|(_, t)| t * 1e6).collect();
        values.insert("stage_a_s", stage_a);
        values.insert("stage_b_s", stage_b);
        values.insert("rate_per_s", items as f64 / (stage_a + stage_b));
        values.insert("p50_us", quantile(&micros, 0.5));
        values.insert("p90_us", quantile(&micros, 0.9));
        for &(name, value) in passes[0].counters.iter() {
            values.insert(name, value as f64);
        }
    }

    fn per_layer(&self, _fsms: &Vec<Fsm>, pass: &SynthPass, _b: &Breakdown, values: &mut Values) {
        for &(name, value) in pass.counters.iter() {
            values.insert(name, value as f64);
        }
        values.insert("bench.samples", pass.timings.len() as f64);
    }
}
