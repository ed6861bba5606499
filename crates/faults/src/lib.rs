//! Pluggable fault models for self-testable controllers.
//!
//! The paper's self-test results ([EsWu 91], Tables 2/3) are all single
//! stuck-at; this crate makes fault *models* a first-class, pluggable
//! subsystem so new defect mechanisms can be evaluated on every synthesized
//! netlist without touching the simulation engines:
//!
//! * [`Injection`] — the model-agnostic description of how one fault patches
//!   one gate or pin during simulation.  The engines of `stfsm-testsim`
//!   (scalar, 64-way packed and the cone-restricted differential) consume
//!   injections and know nothing about the model that produced them.
//! * [`FaultModel`] — the pluggable model interface: enumerate the fault
//!   universe of a [`Netlist`](stfsm_bist::netlist::Netlist) and structurally
//!   collapse it.
//! * [`StuckAt`] — the classic single stuck-at model, over the universe
//!   that [`Fault`], [`FaultSite`] and [`FaultList`] describe.
//! * [`TransitionDelay`] — slow-to-rise / slow-to-fall gate-output faults,
//!   simulated as a one-cycle-delayed value on the faulty lane.
//! * [`Bridging`] — wired-AND / wired-OR shorts between physically adjacent
//!   nets (enumerated through
//!   [`Netlist::adjacent_net_pairs`](stfsm_bist::netlist::Netlist::adjacent_net_pairs)).
//! * [`PathDelay`] — structurally longest sensitizable paths arriving one
//!   clock late in one transition polarity, detected by two-pattern
//!   (launch/capture) tests under a non-robust sensitization check.
//! * [`MultiCycleDelay`] — N-cycle gross delays generalizing the one-cycle
//!   transition memory to a configurable delay-line depth.
//!
//! # Example
//!
//! ```
//! use stfsm_faults::{FaultModel, StuckAt, TransitionDelay, Bridging};
//! # use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
//! # use stfsm_bist::netlist::build_netlist;
//! # use stfsm_bist::BistStructure;
//! # use stfsm_encode::StateEncoding;
//! # use stfsm_fsm::suite::fig3_example;
//! # use stfsm_logic::espresso::minimize;
//! # let fsm = fig3_example()?;
//! # let encoding = StateEncoding::natural(&fsm)?;
//! # let transform = RegisterTransform::Dff;
//! # let pla = build_pla(&fsm, &encoding, &transform)?;
//! # let cover = minimize(&pla).cover;
//! # let lay = layout(&fsm, &encoding, &transform);
//! # let netlist = build_netlist("fig3", &cover, &lay, BistStructure::Dff, None)?;
//! for model in [&StuckAt as &dyn FaultModel, &TransitionDelay, &Bridging::default()] {
//!     let faults = model.fault_list(&netlist, true);
//!     println!("{}: {} collapsed faults", model.name(), faults.len());
//!     assert!(!faults.is_empty());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridging;
pub mod delay;
pub mod injection;
pub mod model;
pub mod stuck;
pub mod transition;

pub use bridging::Bridging;
pub use delay::{MultiCycleDelay, PathDelay};
pub use injection::Injection;
pub use model::{all_models, observable_nets, FaultModel};
pub use stuck::{Fault, FaultList, FaultSite, StuckAt};
pub use transition::TransitionDelay;

#[cfg(test)]
mod testutil {
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::{build_netlist, Netlist};
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_fsm::suite::fig3_example;
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    /// The fig. 3 example synthesized for the DFF structure.
    pub fn fig3_netlist() -> Netlist {
        let fsm = fig3_example().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let transform = RegisterTransform::Dff;
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("faults", &cover, &lay, BistStructure::Dff, None).unwrap()
    }

    /// The fig. 3 example synthesized for the PST structure (XOR register
    /// path, register D inputs observed).
    pub fn fig3_pst_netlist() -> Netlist {
        let fsm = fig3_example().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("faults-pst", &cover, &lay, BistStructure::Pst, Some(poly)).unwrap()
    }
}
