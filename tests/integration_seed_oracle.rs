//! The seed's scalar fault simulator as an independent oracle.
//!
//! `SeedSimulator` below is a frozen copy of the one-fault-at-a-time inner
//! loop exactly as it shipped in the seed tree (per-gate `Gate` enum
//! dispatch through heap-allocated fan-in `Vec`s, a fresh observation `Vec`
//! per cycle, and a staging `Vec` per clock edge).  It shares no code with
//! `Simulator`, `EvalPlan` or any lane engine, so the engines are checked
//! against a fixed, historical implementation rather than against each
//! other.  Do not optimise this module.
//!
//! The oracle models system-state (PST) stimulation only: the first random
//! state vector loads the register, after which the machine runs on its own
//! next-state logic.  It is therefore compared on PST netlists only, against
//! the first-detect vector of a `Campaign` over the collapsed stuck-at list
//! on the scalar, packed, differential and auto engines.

use stfsm::bist::netlist::{Gate, Netlist};
use stfsm::faults::{Fault, FaultList, FaultModel, FaultSite, Injection, StuckAt};
use stfsm::fsm::Fsm;
use stfsm::testsim::patterns::{PatternSource, RandomPatterns};
use stfsm::{BistStructure, Campaign, CampaignConfig, SimEngine, SynthesisFlow};

/// Patterns per campaign.
const PATTERNS: usize = 1024;

/// The seed's scalar gate-level simulator (verbatim behaviour).
struct SeedSimulator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    state: Vec<bool>,
    fault: Option<Fault>,
}

impl<'a> SeedSimulator<'a> {
    fn new(netlist: &'a Netlist, fault: Option<Fault>) -> Self {
        Self {
            netlist,
            values: vec![false; netlist.gates().len()],
            state: vec![false; netlist.flip_flops().len()],
            fault,
        }
    }

    fn set_state(&mut self, state: &[bool]) {
        self.state.copy_from_slice(state);
    }

    fn evaluate(&mut self, inputs: &[bool]) {
        let mut input_iter = 0usize;
        for (id, gate) in self.netlist.gates().iter().enumerate() {
            let value = match gate {
                Gate::Input { .. } => {
                    let v = inputs[input_iter];
                    input_iter += 1;
                    v
                }
                Gate::FlipFlopOutput { flip_flop } => self.state[*flip_flop],
                Gate::Constant(c) => *c,
                Gate::And(ins) => ins
                    .iter()
                    .enumerate()
                    .all(|(pin, &n)| self.pin_value(id, pin, n)),
                Gate::Or(ins) => ins
                    .iter()
                    .enumerate()
                    .any(|(pin, &n)| self.pin_value(id, pin, n)),
                Gate::Xor(ins) => ins
                    .iter()
                    .enumerate()
                    .fold(false, |acc, (pin, &n)| acc ^ self.pin_value(id, pin, n)),
                Gate::Not(a) => !self.pin_value(id, 0, *a),
            };
            self.values[id] = self.apply_output_fault(id, value);
        }
    }

    fn pin_value(&self, gate: usize, pin: usize, source: usize) -> bool {
        if let Some(fault) = &self.fault {
            if let FaultSite::GateInput { gate: fg, pin: fp } = fault.site {
                if fg == gate && fp == pin {
                    return fault.stuck_at;
                }
            }
        }
        self.values[source]
    }

    fn apply_output_fault(&self, net: usize, value: bool) -> bool {
        if let Some(fault) = &self.fault {
            if let FaultSite::GateOutput(fn_) = fault.site {
                if fn_ == net {
                    return fault.stuck_at;
                }
            }
        }
        value
    }

    /// Fresh `Vec` per cycle, exactly like the seed.
    fn observations(&self) -> Vec<bool> {
        self.netlist
            .observation_points()
            .iter()
            .map(|&n| self.values[n])
            .collect()
    }

    /// Staging `Vec` per clock edge, exactly like the seed.
    fn clock(&mut self) {
        let next: Vec<bool> = self
            .netlist
            .flip_flops()
            .iter()
            .map(|ff| self.values[ff.d])
            .collect();
        self.state.copy_from_slice(&next);
    }
}

/// Runs the seed's full scalar campaign (system-state stimulation, i.e. the
/// PST test mode) and returns the detection pattern, exactly as the seed's
/// scalar self-test computed it for a PST netlist.
///
/// `stimulus` is the flat `(pi, st)` sequence per cycle.
fn seed_scalar_detection(
    netlist: &Netlist,
    faults: &FaultList,
    stimulus: &[(Vec<bool>, Vec<bool>)],
) -> Vec<Option<usize>> {
    // Fault-free reference responses (observations stored per cycle).
    let mut good = SeedSimulator::new(netlist, None);
    if let Some((_, st)) = stimulus.first() {
        good.set_state(st);
    }
    let mut reference: Vec<Vec<bool>> = Vec::with_capacity(stimulus.len());
    for (pi, _) in stimulus {
        good.evaluate(pi);
        reference.push(good.observations());
        good.clock();
    }

    // One faulty machine at a time, dropped at its first mismatch.
    faults
        .faults()
        .iter()
        .map(|&fault| {
            let mut sim = SeedSimulator::new(netlist, Some(fault));
            if let Some((_, st)) = stimulus.first() {
                sim.set_state(st);
            }
            for (cycle, (pi, _)) in stimulus.iter().enumerate() {
                sim.evaluate(pi);
                if sim.observations() != reference[cycle] {
                    return Some(cycle);
                }
                sim.clock();
            }
            None
        })
        .collect()
}

/// The campaign stimulus, drawn from the generators a `Campaign` seeds:
/// inputs on `seed`, register states on `seed ^ 0x5A5A_5A5A`.
fn campaign_stimulus(netlist: &Netlist, seed: u64) -> Vec<(Vec<bool>, Vec<bool>)> {
    let num_inputs = netlist.primary_inputs().len();
    let num_state = netlist.flip_flops().len();
    let mut pi_source = RandomPatterns::new(num_inputs.max(1), seed);
    let mut st_source = RandomPatterns::new(num_state.max(1), seed ^ 0x5A5A_5A5A);
    (0..PATTERNS)
        .map(|_| (pi_source.next_pattern(), st_source.next_pattern()))
        .collect()
}

/// Every engine's first-detect vector on the PST netlist of `fsm` equals
/// the oracle's.
fn engines_match_the_oracle(fsm: &Fsm) {
    let netlist = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(fsm)
        .expect("synthesis succeeds")
        .netlist;
    let seed = CampaignConfig::default().seed;
    let faults = FaultList::collapsed(&netlist);
    let oracle = seed_scalar_detection(&netlist, &faults, &campaign_stimulus(&netlist, seed));
    assert!(
        oracle.iter().any(Option::is_some),
        "{}: the oracle detects no fault",
        fsm.name()
    );
    let injections: Vec<Injection> = faults.faults().iter().map(|&f| f.into()).collect();
    assert_eq!(
        StuckAt.fault_list(&netlist, true),
        injections,
        "{}: the collapsed stuck-at model lists the oracle's faults",
        fsm.name()
    );
    for engine in [
        SimEngine::Scalar,
        SimEngine::Packed,
        SimEngine::Differential,
        SimEngine::Auto,
    ] {
        let outcome = Campaign::new(&netlist)
            .engine(engine)
            .patterns(PATTERNS)
            .seed(seed)
            .faults("stuck_at", injections.clone())
            .run();
        assert_eq!(
            outcome.sections[0].detection_pattern,
            oracle,
            "{} PST: {engine:?} disagrees with the seed oracle",
            fsm.name()
        );
    }
}

fn suite_machines(names: &[&str]) {
    for name in names {
        let fsm = stfsm::fsm::suite::benchmark(name)
            .expect("suite machine")
            .fsm()
            .expect("generator succeeds");
        engines_match_the_oracle(&fsm);
    }
}

// The machines are spread over three tests, which the harness runs in
// parallel; the oracle's time grows with faults × patterns, so the larger
// suite machines (sand, styr, planet, scf) are left out.

#[test]
fn engines_match_the_seed_oracle_on_the_smallest_machines() {
    for fsm in [
        stfsm::fsm::suite::fig3_example().expect("fixed machine"),
        stfsm::fsm::suite::modulo12_exact().expect("fixed machine"),
        stfsm::fsm::suite::traffic_light().expect("fixed machine"),
    ] {
        engines_match_the_oracle(&fsm);
    }
    suite_machines(&["modulo12", "dk512"]);
}

#[test]
fn engines_match_the_seed_oracle_on_small_suite_machines() {
    suite_machines(&["ex4", "kirkman", "donfile"]);
}

#[test]
fn engines_match_the_seed_oracle_on_medium_suite_machines() {
    suite_machines(&["mark1", "dk16"]);
}
