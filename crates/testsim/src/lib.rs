//! Gate-level simulation, fault simulation and diagnosis for self-testable
//! controllers.
//!
//! The paper's Table 1 rows "test length", "fault coverage" and "dynamic
//! fault detection" rest on an analysis of how the different BIST structures
//! stimulate and observe the next-state logic ([EsWu 91]).  This crate makes
//! those rows measurable for the synthesized netlists of `stfsm-bist`:
//!
//! * [`sim`] — a deterministic scalar gate-level simulator (combinational
//!   evaluation plus sequential stepping of the state register), executing
//!   the netlist's precomputed evaluation plan with no per-cycle
//!   allocation,
//! * the 64-way bit-parallel packed engine: lane 0 of every `u64` runs the
//!   fault-free reference, lanes 1–63 each run one injected fault of *any*
//!   model; it is the single-word instance of the same compile/eval core
//!   the differential engine runs,
//! * [`differential`] — the cone-restricted differential engine: the good
//!   machine is simulated once per pattern, faults run in multi-word lane
//!   blocks (255 fault lanes + the shared good reference) that evaluate
//!   only the plan steps inside the union of their active faults' fanout
//!   cones, widening to cover the register cones only while a lane's state
//!   actually diverges from the reference; its blocks shard over any
//!   number of workers,
//! * [`patterns`] — pseudo-random and weighted-random primary-input sources,
//! * [`campaign`] — **the campaign API, the only way in**: a [`Campaign`]
//!   builder runs a fault universe (one or more fault-model sections)
//!   exactly once and *streams* it to composable [`CampaignObserver`]
//!   lifecycle sinks (`on_begin` / per-segment `on_segment` / `on_finish`) —
//!   [`CoverageObserver`], [`DictionaryObserver`], [`DiagnosisObserver`],
//!   plus the stopping observers [`CoverageTargetObserver`] and
//!   [`TestLengthObserver`], which end the campaign at the next boundary
//!   of the pinned [`coverage::segment_schedule`] once every observer has
//!   voted to stop — deterministically, bit-for-bit identical across
//!   engines and thread counts,
//! * [`coverage`] — the coverage result types, the [`CampaignConfig`]
//!   settings and the engine choice ([`SimEngine`]),
//! * [`dictionary`] — fault dictionaries for diagnosis: per-fault
//!   first-detect indices plus full-campaign and per-segment intermediate
//!   MISR signatures, computed word-parallel across all lanes of the
//!   selected engine through the single shared recurrence
//!   [`stfsm_lfsr::Misr::step_planes`] (run a campaign with a
//!   [`DictionaryObserver`]),
//! * [`diagnosis`] — the top-level diagnosis flow: map an observed failing
//!   signature to ranked candidate faults across models, with per-segment
//!   intermediate signatures disambiguating aliases,
//! * [`artifact`] — versioned, endian-stable on-disk dictionary artifacts
//!   ([`DictionaryArtifact`]): a campaign's full diagnosis product frozen
//!   to a single binary file, stamped with the same identity digest as
//!   checkpoints, round-tripping bit-for-bit for the `stfsm-serve`
//!   diagnosis server,
//! * [`error`] — the typed [`CampaignError`] taxonomy behind
//!   [`Campaign::try_run`], covering invalid configuration, observer
//!   failures, unrecoverable worker panics and checkpoint I/O/format
//!   errors,
//! * [`checkpoint`] — versioned, self-describing on-disk campaign
//!   checkpoints written at segment boundaries, so a killed campaign
//!   resumes mid-schedule bit-for-bit equal to an uninterrupted run on
//!   any engine,
//! * [`failpoints`] — the deterministic chaos-injection harness
//!   (worker panics, observer errors, checkpoint write failures) that the
//!   robustness test matrix drives the recovery paths with,
//! * [`telemetry`] — campaign observability: the [`CampaignMetrics`]
//!   counter set every engine fills (worklist events, full-sweep
//!   fallbacks, widenings, cache hits, …) and the per-segment
//!   [`SegmentTelemetry`] phase spans surfaced on [`SegmentSnapshot`] and
//!   [`CampaignOutcome`]; both are always on, and neither ever changes a
//!   result bit.
//!
//! Fault universes come from the `stfsm-faults` crate
//! ([`Injection`](stfsm_faults::Injection) descriptors of any model).
//!
//! # The engine matrix
//!
//! Campaigns are driven by one of four engine choices, all bit-for-bit
//! interchangeable ([`coverage::SimEngine`]):
//!
//! | Engine | Technique | When it wins |
//! |---|---|---|
//! | `Scalar` | one fault per boolean sweep | debugging a single fault; the differential-testing reference every other engine is checked against |
//! | `Packed` | 63 faults + reference per `u64` word | small fault lists and tiny machines, where the cone bookkeeping of the differential engine cannot pay for itself |
//! | `Differential` | good machine once per pattern, up to 511 faults per lane block, evaluation restricted to the active faults' fanout cones, blocks sharded over [`CampaignConfig::threads`] workers | large netlists and long campaigns — the bigger the netlist relative to the average fault cone, the bigger the win; extra workers help on multi-core hosts |
//! | `Auto` | picks `Packed` vs `Differential` per machine size | when the caller does not want to care |
//!
//! # Example
//!
//! ```
//! use stfsm_fsm::suite::fig3_example;
//! use stfsm_encode::StateEncoding;
//! use stfsm_bist::{BistStructure, excitation::{build_pla, layout, RegisterTransform}, netlist::build_netlist};
//! use stfsm_logic::espresso::minimize;
//! use stfsm_faults::StuckAt;
//! use stfsm_testsim::campaign::{Campaign, CoverageObserver};
//! use stfsm_testsim::coverage::SimEngine;
//!
//! let fsm = fig3_example()?;
//! let encoding = StateEncoding::natural(&fsm)?;
//! let transform = RegisterTransform::Dff;
//! let pla = build_pla(&fsm, &encoding, &transform)?;
//! let cover = minimize(&pla).cover;
//! let lay = layout(&fsm, &encoding, &transform);
//! let netlist = build_netlist("fig3", &cover, &lay, BistStructure::Dff, None)?;
//! let mut coverage = CoverageObserver::new();
//! Campaign::new(&netlist)
//!     .model(&StuckAt)
//!     .engine(SimEngine::Auto)
//!     .patterns(256)
//!     .observe(&mut coverage)
//!     .run();
//! assert!(coverage.result().expect("one section").fault_coverage() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod checkpoint;
pub mod coverage;
pub mod diagnosis;
pub mod dictionary;
pub mod differential;
mod engine;
pub mod error;
pub mod failpoints;
mod packed;
pub mod patterns;
pub mod sim;
pub mod telemetry;

pub use artifact::{ArtifactError, DictionaryArtifact};
pub use campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignPlan, CoverageObserver,
    CoverageTargetObserver, DictionaryObserver, ObserverControl, SectionOutcome, SectionPlan,
    SegmentSnapshot, TestLengthObserver,
};
pub use checkpoint::CampaignCheckpoint;
pub use coverage::{segment_schedule, CampaignConfig, CoverageResult, SimEngine};
pub use diagnosis::{Diagnosis, DiagnosisCandidate, DiagnosisObserver};
pub use dictionary::{DictionaryEntry, FaultDictionary};
pub use differential::LaneBlock;
pub use error::{CampaignError, ObserverPhase};
pub use sim::Simulator;
pub use telemetry::{CampaignMetrics, CampaignTelemetry, SegmentTelemetry, WorkerSpan};
