//! The unified synthesis flow (Fig. 7 of the paper).

use crate::{Error, Result};
use std::collections::HashSet;
use stfsm_bist::excitation::{build_pla, layout, PlaLayout, RegisterTransform};
use stfsm_bist::metrics::StructureMetrics;
use stfsm_bist::netlist::{build_netlist, Netlist};
use stfsm_bist::BistStructure;
use stfsm_encode::dff::{assign as dff_assign, DffAssignmentConfig};
use stfsm_encode::misr::{assign as misr_assign, MisrAssignmentConfig};
use stfsm_encode::pat::{assign as pat_assign, PatAssignmentConfig};
use stfsm_encode::random::random_encoding;
use stfsm_encode::StateEncoding;
use stfsm_fsm::Fsm;
use stfsm_lfsr::{primitive_polynomial, Gf2Poly, Lfsr, Misr};
use stfsm_logic::espresso::{minimize, MinimizeStats};
use stfsm_logic::{Cover, Pla};

/// How the state assignment is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentMethod {
    /// The structure-specific heuristic of the paper (MISR-targeted for
    /// PST/SIG, LFSR-overlap for PAT, adjacency-based for DFF).
    Heuristic,
    /// A uniformly random injective encoding with the given seed — the
    /// baseline of Table 2.
    Random {
        /// Seed of the random encoding.
        seed: u64,
    },
    /// The natural binary encoding (state `i` gets code `i`).
    Natural,
    /// A caller-supplied encoding.
    Fixed(StateEncoding),
}

/// The complete synthesis flow: structure choice, state assignment,
/// excitation functions, logic minimization, netlist generation and metrics.
///
/// The builder-style setters select the assignment method and the tuning
/// knobs of the underlying algorithms.
#[derive(Debug, Clone)]
pub struct SynthesisFlow {
    structure: BistStructure,
    assignment: AssignmentMethod,
    misr_config: MisrAssignmentConfig,
    dff_config: DffAssignmentConfig,
    pat_config: PatAssignmentConfig,
}

impl SynthesisFlow {
    /// Creates a flow targeting the given BIST structure with default
    /// settings (heuristic assignment).
    pub fn new(structure: BistStructure) -> Self {
        Self {
            structure,
            assignment: AssignmentMethod::Heuristic,
            misr_config: MisrAssignmentConfig::default(),
            dff_config: DffAssignmentConfig::default(),
            pat_config: PatAssignmentConfig::default(),
        }
    }

    /// Selects the state-assignment method.
    pub fn with_assignment(mut self, assignment: AssignmentMethod) -> Self {
        self.assignment = assignment;
        self
    }

    /// Overrides the MISR-assignment configuration (PST / SIG).
    pub fn with_misr_config(mut self, config: MisrAssignmentConfig) -> Self {
        self.misr_config = config;
        self
    }

    /// Overrides the DFF-assignment configuration.
    pub fn with_dff_config(mut self, config: DffAssignmentConfig) -> Self {
        self.dff_config = config;
        self
    }

    /// Overrides the PAT-assignment configuration.
    pub fn with_pat_config(mut self, config: PatAssignmentConfig) -> Self {
        self.pat_config = config;
        self
    }

    /// The targeted structure.
    pub fn structure(&self) -> BistStructure {
        self.structure
    }

    /// Runs the complete flow on a machine.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails (invalid encoding, missing
    /// primitive polynomial, inconsistent specification, …).
    pub fn synthesize(&self, fsm: &Fsm) -> Result<SynthesisResult> {
        // ---- state assignment --------------------------------------------
        let (encoding, feedback, covered) = self.assign(fsm)?;

        // ---- excitation functions -----------------------------------------
        let transform = self.transform(&encoding, feedback, &covered)?;
        let pla = build_pla(fsm, &encoding, &transform)?;
        let lay = layout(fsm, &encoding, &transform);

        // ---- logic minimization -------------------------------------------
        let minimized = minimize(&pla);

        // ---- structural netlist --------------------------------------------
        let netlist_feedback = match self.structure {
            BistStructure::Dff => None,
            _ => Some(feedback),
        };
        let netlist = build_netlist(
            fsm.name(),
            &minimized.cover,
            &lay,
            self.structure,
            netlist_feedback,
        )?;

        let metrics = StructureMetrics::from_cover(
            self.structure,
            encoding.num_bits(),
            &minimized.cover,
            Some(&netlist),
        );

        Ok(SynthesisResult {
            structure: self.structure,
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

    /// Runs the state assignment stage only.
    fn assign(&self, fsm: &Fsm) -> Result<(StateEncoding, Gf2Poly, Vec<usize>)> {
        let bits = fsm.min_state_bits();
        match (&self.assignment, self.structure) {
            (AssignmentMethod::Heuristic, BistStructure::Pst | BistStructure::Sig) => {
                let result = misr_assign(fsm, &self.misr_config);
                Ok((result.encoding, result.feedback, Vec::new()))
            }
            (AssignmentMethod::Heuristic, BistStructure::Pat) => {
                let result = pat_assign(fsm, &self.pat_config)?;
                Ok((
                    result.encoding,
                    result.polynomial,
                    result.covered_transitions,
                ))
            }
            (AssignmentMethod::Heuristic, BistStructure::Dff) => {
                let result = dff_assign(fsm, &self.dff_config)?;
                let poly = primitive_polynomial(result.encoding.num_bits())?;
                Ok((result.encoding, poly, Vec::new()))
            }
            (AssignmentMethod::Random { seed }, _) => {
                let encoding = random_encoding(fsm, bits, *seed)?;
                self.finish_non_heuristic(fsm, encoding)
            }
            (AssignmentMethod::Natural, _) => {
                let encoding = StateEncoding::natural(fsm)?;
                self.finish_non_heuristic(fsm, encoding)
            }
            (AssignmentMethod::Fixed(encoding), _) => {
                self.finish_non_heuristic(fsm, encoding.clone())
            }
        }
    }

    /// For random/natural/fixed encodings: pick the canonical primitive
    /// polynomial and (for PAT) recompute which transitions the LFSR covers.
    fn finish_non_heuristic(
        &self,
        fsm: &Fsm,
        encoding: StateEncoding,
    ) -> Result<(StateEncoding, Gf2Poly, Vec<usize>)> {
        let poly = primitive_polynomial(encoding.num_bits())?;
        let covered = if self.structure == BistStructure::Pat {
            let lfsr = Lfsr::new(poly)?;
            fsm.transitions()
                .iter()
                .enumerate()
                .filter_map(|(idx, t)| {
                    let to = t.to?;
                    (lfsr.step(&encoding.code(t.from)) == encoding.code(to)).then_some(idx)
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok((encoding, poly, covered))
    }

    /// The register transform implied by the structure.
    fn transform(
        &self,
        _encoding: &StateEncoding,
        feedback: Gf2Poly,
        covered: &[usize],
    ) -> Result<RegisterTransform> {
        Ok(match self.structure {
            BistStructure::Dff => RegisterTransform::Dff,
            BistStructure::Pat => RegisterTransform::SmartLfsr {
                lfsr: Lfsr::new(feedback).map_err(Error::from)?,
                covered: covered.iter().copied().collect::<HashSet<usize>>(),
            },
            BistStructure::Sig | BistStructure::Pst => {
                RegisterTransform::Misr(Misr::new(feedback).map_err(Error::from)?)
            }
        })
    }
}

/// The output of one synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisResult {
    /// The targeted BIST structure.
    pub structure: BistStructure,
    /// The state assignment that was used.
    pub encoding: StateEncoding,
    /// The feedback polynomial of the MISR / LFSR (also present for DFF,
    /// where it describes the test-only registers).
    pub feedback: Gf2Poly,
    /// For PAT: the transitions realised by the autonomous LFSR.
    pub covered_transitions: Vec<usize>,
    /// The input/output column layout of the specification.
    pub layout: PlaLayout,
    /// The encoded specification before minimization.
    pub pla: Pla,
    /// The minimized combinational cover.
    pub cover: Cover,
    /// Statistics of the minimization run.
    pub minimize_stats: MinimizeStats,
    /// The gate-level netlist of the complete structure.
    pub netlist: Netlist,
    /// The structure metrics (Table 1 quantities).
    pub metrics: StructureMetrics,
}

impl SynthesisResult {
    /// A fault-simulation [`Campaign`](stfsm_testsim::campaign::Campaign)
    /// over this result's netlist — the bridge from synthesis straight into
    /// the self-test flow: add fault-model sections, observers
    /// (coverage / dictionary / diagnosis) and run.
    ///
    /// ```
    /// use stfsm::{BistStructure, SynthesisFlow};
    /// use stfsm::fsm::suite::fig3_example;
    /// use stfsm::testsim::campaign::CoverageObserver;
    /// use stfsm::faults::StuckAt;
    ///
    /// let fsm = fig3_example()?;
    /// let result = SynthesisFlow::new(BistStructure::Pst).synthesize(&fsm)?;
    /// let mut coverage = CoverageObserver::new();
    /// result.campaign().model(&StuckAt).patterns(256).observe(&mut coverage).run();
    /// assert!(coverage.result().expect("one section").fault_coverage() > 0.5);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn campaign(&self) -> stfsm_testsim::campaign::Campaign<'_, '_> {
        stfsm_testsim::campaign::Campaign::new(&self.netlist)
    }

    /// Number of product terms of the combinational logic (the paper's main
    /// area metric).
    pub fn product_terms(&self) -> usize {
        self.cover.len()
    }

    /// Factored-literal estimate (the Table 3 literal metric).
    pub fn literals(&self) -> usize {
        self.metrics.factored_literals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfsm_fsm::suite::{fig3_example, modulo12_exact, traffic_light};
    use stfsm_logic::espresso::verify;

    #[test]
    fn all_structures_synthesize_the_example() {
        let fsm = fig3_example().unwrap();
        for structure in BistStructure::ALL {
            let result = SynthesisFlow::new(structure).synthesize(&fsm).unwrap();
            assert_eq!(result.structure, structure);
            assert!(result.product_terms() >= 1, "{structure}");
            assert!(verify(&result.pla, &result.cover), "{structure}");
            assert_eq!(result.netlist.structure(), structure);
            assert_eq!(result.metrics.state_bits, 2);
        }
    }

    #[test]
    fn random_and_natural_assignments_work() {
        let fsm = modulo12_exact().unwrap();
        let random = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Random { seed: 11 })
            .synthesize(&fsm)
            .unwrap();
        let natural = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Natural)
            .synthesize(&fsm)
            .unwrap();
        assert!(verify(&random.pla, &random.cover));
        assert!(verify(&natural.pla, &natural.cover));
    }

    #[test]
    fn fixed_assignment_is_used_verbatim() {
        let fsm = fig3_example().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let result = SynthesisFlow::new(BistStructure::Sig)
            .with_assignment(AssignmentMethod::Fixed(encoding.clone()))
            .synthesize(&fsm)
            .unwrap();
        assert_eq!(result.encoding, encoding);
    }

    #[test]
    fn heuristic_assignment_not_worse_than_random_for_pst() {
        let fsm = traffic_light().unwrap();
        let heuristic = SynthesisFlow::new(BistStructure::Pst)
            .synthesize(&fsm)
            .unwrap();
        let random = SynthesisFlow::new(BistStructure::Pst)
            .with_assignment(AssignmentMethod::Random { seed: 5 })
            .synthesize(&fsm)
            .unwrap();
        // The heuristic is not guaranteed to win on every single seed, but it
        // must stay within a small margin on this well-structured controller.
        assert!(
            heuristic.product_terms() <= random.product_terms() + 2,
            "heuristic {} vs random {}",
            heuristic.product_terms(),
            random.product_terms()
        );
    }

    #[test]
    fn pat_synthesis_reports_covered_transitions() {
        let fsm = modulo12_exact().unwrap();
        let result = SynthesisFlow::new(BistStructure::Pat)
            .synthesize(&fsm)
            .unwrap();
        assert!(!result.covered_transitions.is_empty());
        assert!(result.layout.has_mode);
        assert_eq!(result.layout.num_outputs(), 1 + 4 + 1);
    }

    #[test]
    fn builder_setters_apply() {
        let flow = SynthesisFlow::new(BistStructure::Pst)
            .with_misr_config(MisrAssignmentConfig::fast())
            .with_dff_config(DffAssignmentConfig::default())
            .with_pat_config(PatAssignmentConfig::default());
        assert_eq!(flow.structure(), BistStructure::Pst);
        let fsm = fig3_example().unwrap();
        let result = flow.synthesize(&fsm).unwrap();
        assert_eq!(result.minimize_stats.final_cubes, result.cover.len());
    }

    #[test]
    fn dff_feedback_polynomial_is_primitive() {
        let fsm = fig3_example().unwrap();
        let result = SynthesisFlow::new(BistStructure::Dff)
            .synthesize(&fsm)
            .unwrap();
        assert!(result.feedback.is_primitive());
        assert_eq!(result.literals(), result.metrics.factored_literals);
    }
}
