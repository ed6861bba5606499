//! Workload inputs shared by every workload: the suite machines, their
//! synthesis, and the traced stage-by-stage replay of
//! `SynthesisFlow::synthesize`.

use std::collections::HashSet;

use stfsm::bist::excitation::{build_pla, layout, RegisterTransform};
use stfsm::bist::metrics::StructureMetrics;
use stfsm::bist::netlist::build_netlist;
use stfsm::encode::{dff, misr, pat};
use stfsm::fsm::suite::BENCHMARKS;
use stfsm::fsm::Fsm;
use stfsm::lfsr::{primitive_polynomial, Lfsr, Misr};
use stfsm::logic::espresso::{minimize_with, MinimizeConfig};
use stfsm::{BistStructure, SynthesisFlow, SynthesisResult};

use crate::report::Ledger;
use crate::trace::Tracer;

/// Generates the suite machines that `keep` selects, in suite order.
pub fn suite_fsms(tr: &mut Tracer, keep: impl Fn(&str) -> bool) -> Vec<Fsm> {
    BENCHMARKS
        .iter()
        .filter(|info| keep(info.name))
        .map(|info| {
            tr.span("fsm.generate", |_| info.fsm())
                .expect("suite machines are generated from fixed specs")
        })
        .collect()
}

/// Synthesizes `fsm` for `structure`: one `SynthesisFlow::synthesize`
/// call untraced, the stage-by-stage replay traced.
pub fn synthesize(
    fsm: &Fsm,
    structure: BistStructure,
    tr: &mut Tracer,
) -> stfsm::Result<SynthesisResult> {
    if tr.enabled() {
        synthesize_staged(fsm, structure, tr)
    } else {
        SynthesisFlow::new(structure).synthesize(fsm)
    }
}

/// The default flow (heuristic assignment, default minimizer) replayed
/// one public stage at a time, each stage in its own span.
fn synthesize_staged(
    fsm: &Fsm,
    structure: BistStructure,
    tr: &mut Tracer,
) -> stfsm::Result<SynthesisResult> {
    let (encoding, feedback, covered) = match structure {
        BistStructure::Pst | BistStructure::Sig => tr.span("encode.misr_assign", |_| {
            let result = misr::assign(fsm, &misr::MisrAssignmentConfig::default());
            (result.encoding, result.feedback, Vec::new())
        }),
        BistStructure::Pat => tr.span("encode.pat_assign", |_| {
            pat::assign(fsm, &pat::PatAssignmentConfig::default())
                .map(|r| (r.encoding, r.polynomial, r.covered_transitions))
        })?,
        BistStructure::Dff => tr.span("encode.dff_assign", |_| -> stfsm::Result<_> {
            let result = dff::assign(fsm, &dff::DffAssignmentConfig::default())?;
            let poly = primitive_polynomial(result.encoding.num_bits())?;
            Ok((result.encoding, poly, Vec::new()))
        })?,
    };
    let (pla, lay) = tr.span("bist.excitation", |_| -> stfsm::Result<_> {
        let transform = match structure {
            BistStructure::Dff => RegisterTransform::Dff,
            BistStructure::Pat => RegisterTransform::SmartLfsr {
                lfsr: Lfsr::new(feedback)?,
                covered: covered.iter().copied().collect::<HashSet<usize>>(),
            },
            BistStructure::Sig | BistStructure::Pst => {
                RegisterTransform::Misr(Misr::new(feedback)?)
            }
        };
        let pla = build_pla(fsm, &encoding, &transform)?;
        Ok((pla, layout(fsm, &encoding, &transform)))
    })?;
    let minimized = tr.span("logic.minimize", |_| {
        minimize_with(&pla, &MinimizeConfig::default())
    });
    let netlist_feedback = (structure != BistStructure::Dff).then_some(feedback);
    let netlist = tr.span("bist.netlist", |_| {
        build_netlist(
            fsm.name(),
            &minimized.cover,
            &lay,
            structure,
            netlist_feedback,
        )
    })?;
    let metrics = tr.span("bist.metrics", |_| {
        StructureMetrics::from_cover(
            structure,
            encoding.num_bits(),
            &minimized.cover,
            Some(&netlist),
        )
    });
    Ok(SynthesisResult {
        structure,
        encoding,
        feedback,
        covered_transitions: covered,
        layout: lay,
        pla,
        cover: minimized.cover,
        minimize_stats: minimized.stats,
        netlist,
        metrics,
    })
}

/// Synthesizes every `(machine, structure)` pair, recording each attempt.
pub fn synthesize_all(
    fsms: &[Fsm],
    structures: &[BistStructure],
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<SynthesisResult> {
    let mut results = Vec::new();
    for fsm in fsms {
        for &structure in structures {
            let result = synthesize(fsm, structure, tr);
            let what = format!("synthesis of {} {structure}", fsm.name());
            if let Some(result) = ledger.attempt(&what, result) {
                results.push(result);
            }
        }
    }
    results
}

/// Exact-repeat counters of a set of synthesis results.
pub fn area_counters(results: &[SynthesisResult]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&SynthesisResult) -> usize| results.iter().map(f).sum::<usize>() as u64;
    vec![
        ("product_terms", sum(SynthesisResult::product_terms)),
        ("literals", sum(SynthesisResult::literals)),
        (
            "logic.initial_cubes",
            sum(|r| r.minimize_stats.initial_cubes),
        ),
        ("logic.final_cubes", sum(|r| r.minimize_stats.final_cubes)),
        ("bist.gates", sum(|r| r.netlist.gates().len())),
    ]
}

/// SplitMix64: the benchmark's only source of pseudo-randomness, so one
/// seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}
