//! The fault-simulation engine matrix, driven through the [`Campaign`]
//! API: selecting Scalar, Packed, Differential or Auto, and the
//! differential engine's worker count, is one builder call each, and every
//! choice runs the identical campaign.
//!
//! ```text
//! cargo run --release --example packed_coverage
//! ```
//!
//! Every engine runs the *identical* campaign — same stimulus, same fault
//! list, same detection semantics — so they are freely interchangeable:
//!
//! * `Scalar` simulates one fault at a time on the boolean simulator; it is
//!   the differential-testing reference and the tool for stepping through a
//!   single fault.
//! * `Packed` treats one `u64` as 64 machines: lane 0 runs the fault-free
//!   reference, lanes 1–63 carry one injected fault each, so a chunk of 63
//!   faults advances per word operation.  It is literally the 1-word
//!   instance of the same simulation core the differential engine runs.
//! * `Differential` simulates the good machine once per pattern and packs
//!   up to 511 faults into multi-word lane blocks that evaluate only the
//!   plan steps inside their faults' fanout cones — the bigger the netlist
//!   relative to the average cone, the bigger the win.  `.threads(n)`
//!   shards its lane blocks over `n` workers that all read one shared
//!   good-machine trace per campaign segment; that needs a multi-core host
//!   and a fault list spanning several blocks to pay off.
//! * `Auto` (the default) picks Packed vs Differential per machine size,
//!   so callers who do not want to care get the right engine anyway.
//!
//! Engine selection is one `.engine(...)` call on the campaign builder (or
//! a [`CampaignConfig`] field); no simulator is ever constructed by hand.

use std::time::Instant;
use stfsm::testsim::campaign::CoverageObserver;
use stfsm::testsim::coverage::{CoverageResult, SimEngine};
use stfsm::{BistStructure, SynthesisFlow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's modulo-12 counter with the PST (parallel self-test)
    // structure: the MISR state register is the pattern source *and* the
    // signature register, so the self-test follows system behaviour.
    let fsm = stfsm::fsm::suite::modulo12_exact()?;
    let result = SynthesisFlow::new(BistStructure::Pst).synthesize(&fsm)?;

    let engines = [
        ("scalar", SimEngine::Scalar, 1),
        ("packed", SimEngine::Packed, 1),
        ("differential", SimEngine::Differential, 1),
        ("2 workers", SimEngine::Differential, 2),
        ("auto", SimEngine::Auto, 1),
    ];

    println!(
        "machine            : {} ({} states)",
        fsm.name(),
        fsm.state_count()
    );
    println!(
        "structure          : {} ({} gates)",
        result.netlist.structure(),
        result.netlist.gates().len()
    );

    let mut reference: Option<CoverageResult> = None;
    for (name, engine, threads) in engines {
        let mut coverage = CoverageObserver::new();
        let start = Instant::now();
        let outcome = result
            .campaign()
            .model(&stfsm::faults::StuckAt)
            .engine(engine)
            .threads(threads)
            .patterns(4096)
            .observe(&mut coverage)
            .run();
        let elapsed = start.elapsed();
        let outcome_engine = outcome.engine;
        let result = coverage.result().expect("one section");
        println!(
            "engine {name:<12}: {elapsed:>10.3?}  ({} / {} faults detected, {:.1} % coverage, ran {outcome_engine:?})",
            result.detected_faults,
            result.total_faults,
            result.fault_coverage() * 100.0
        );
        // The engines are interchangeable — identical detection patterns,
        // coverage curve and totals.
        match &reference {
            None => reference = Some(result.clone()),
            Some(reference) => {
                assert_eq!(reference, result, "engines must agree bit for bit")
            }
        }
    }
    let reference = reference.expect("at least one engine ran");
    println!("patterns applied   : {}", reference.patterns_applied);
    println!(
        "all {} runs returned identical results ({} detections)",
        engines.len(),
        reference.detected_faults
    );
    Ok(())
}
