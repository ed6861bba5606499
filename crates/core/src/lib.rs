//! Unified synthesis of self-testable finite state machines.
//!
//! This crate is a from-scratch reproduction of
//! *B. Eschermann, H.-J. Wunderlich: "A Unified Approach for the Synthesis of
//! Self-Testable Finite State Machines", 28th Design Automation Conference
//! (DAC), 1991*.  Conventional design flows add built-in self-test (BIST)
//! hardware after synthesis; for highly sequential circuits (controllers)
//! that either costs a lot of area or compromises fault coverage.  The paper
//! — and this library — instead accounts for the self-test registers *during*
//! synthesis:
//!
//! 1. choose one of four BIST target structures
//!    ([`BistStructure`]: DFF, PAT, SIG, PST),
//! 2. run a state assignment targeted at that structure
//!    (MISR-targeted column-wise assignment for PST/SIG, LFSR-overlap for
//!    PAT, adjacency-based for DFF),
//! 3. derive the excitation functions `τ(s, s⁺)` of the chosen register type,
//! 4. minimize the resulting two-level logic,
//! 5. emit a gate-level netlist and evaluate area, test length and fault
//!    coverage.
//!
//! The whole pipeline is available through [`SynthesisFlow`]; the individual
//! building blocks live in the re-exported substrate crates
//! ([`fsm`], [`lfsr`], [`logic`], [`encode`], [`bist`], [`testsim`]).
//! Fault simulation and diagnosis of a synthesized result run through the
//! [`Campaign`] builder
//! ([`SynthesisResult::campaign`](crate::SynthesisResult::campaign)), the
//! only way in: one simulation pass, composable observers
//! ([`CoverageObserver`], [`DictionaryObserver`], [`DiagnosisObserver`]).
//! Fault lists come from [`faults`].
//!
//! # Quick start
//!
//! ```
//! use stfsm::{SynthesisFlow, BistStructure, CoverageObserver};
//! use stfsm::faults::StuckAt;
//! use stfsm::fsm::suite::fig3_example;
//!
//! let fsm = fig3_example()?;
//! let result = SynthesisFlow::new(BistStructure::Pst).synthesize(&fsm)?;
//! println!("{} product terms, {} literals",
//!          result.metrics.product_terms, result.metrics.factored_literals);
//! assert!(result.metrics.product_terms >= 1);
//! // From synthesis straight into the self-test campaign:
//! let mut coverage = CoverageObserver::new();
//! result.campaign().model(&StuckAt).patterns(256).observe(&mut coverage).run();
//! assert!(coverage.result().expect("one section").fault_coverage() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod experiments;
mod flow;
pub mod json;
pub mod report;
pub mod sys;

pub use error::{Error, Result};
pub use flow::{AssignmentMethod, SynthesisFlow, SynthesisResult};

pub use stfsm_bist::BistStructure;
pub use stfsm_testsim::artifact::{ArtifactError, DictionaryArtifact};
pub use stfsm_testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignPlan, CoverageObserver,
    CoverageTargetObserver, DictionaryObserver, ObserverControl, SegmentSnapshot,
    TestLengthObserver,
};
pub use stfsm_testsim::checkpoint::CampaignCheckpoint;
pub use stfsm_testsim::coverage::{CampaignConfig, SimEngine};
pub use stfsm_testsim::diagnosis::{Diagnosis, DiagnosisCandidate, DiagnosisObserver};
pub use stfsm_testsim::error::{CampaignError, ObserverPhase};

/// Re-export of the BIST structures and netlists (`stfsm-bist`).
pub use stfsm_bist as bist;
/// Re-export of the state-assignment algorithms (`stfsm-encode`).
pub use stfsm_encode as encode;
/// Re-export of the pluggable fault models (`stfsm-faults`).
pub use stfsm_faults as faults;
/// Re-export of the FSM substrate (`stfsm-fsm`).
pub use stfsm_fsm as fsm;
/// Re-export of the GF(2)/LFSR substrate (`stfsm-lfsr`).
pub use stfsm_lfsr as lfsr;
/// Re-export of the logic-minimization substrate (`stfsm-logic`).
pub use stfsm_logic as logic;
/// Re-export of the fault-simulation substrate (`stfsm-testsim`).
pub use stfsm_testsim as testsim;
