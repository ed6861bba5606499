//! Deterministic gate-level simulation.

use stfsm_bist::netlist::{EvalPlan, Netlist, PlanOp};
use stfsm_faults::{Fault, Injection};

/// A gate-level simulator for one [`Netlist`].
///
/// The simulator separates combinational evaluation from the sequential
/// update of the state register, mirroring how the BIST structures operate:
/// every clock cycle the combinational logic is evaluated for the current
/// primary inputs and register state, the observation points are sampled
/// (that is what the signature register compacts), and then the flip-flops
/// load their D inputs.
///
/// Evaluation executes the netlist's precomputed [`EvalPlan`] — a flat
/// opcode array with dense operand indices — and the whole simulate cycle
/// (`evaluate` / [`Simulator::observations_into`] / [`Simulator::clock`])
/// performs no heap allocation, so this scalar path is a lean reference for
/// the 64-way packed engine ([`SimEngine::Packed`](crate::coverage::SimEngine::Packed)).
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    state: Vec<bool>,
    injection: Option<Injection>,
    /// Delay-line memory of a stateful injection: previous raw
    /// (pre-injection) values of the patched net, newest first
    /// (`delay_hist[k]` is the raw value `k + 1` clock cycles ago).  One
    /// slot for a [`Injection::DelayedTransition`] or
    /// [`Injection::PathDelay`] terminal, `depth` slots for a
    /// [`Injection::MultiCycleDelay`].
    delay_hist: Vec<bool>,
    /// Number of slots of `delay_hist` holding committed (or seeded) raw
    /// values; a multi-cycle lane stays injection-free until its full
    /// delay line is filled.
    delay_filled: usize,
    /// The raw value of the patched net this cycle, committed into
    /// `delay_hist[0]` at the clock edge.
    delay_next: bool,
    /// Two-pattern launch memory of a [`Injection::PathDelay`]: the launch
    /// net's value at the previous clock cycle.
    path_launch_prev: bool,
    /// The launch net's value this cycle, committed at the clock edge.
    path_launch_seen: bool,
    /// Whether the launch memory holds a real previous cycle yet (the
    /// first cycle has no launch transition to observe).
    path_filled: bool,
    /// Precompiled non-robust sensitization conditions of the path (see
    /// [`stfsm_faults::delay::path_conditions`]).
    path_conds: Vec<(u32, bool)>,
    /// Whether the path presented the delayed value this evaluation
    /// (tallied into the sensitization telemetry at the clock edge).
    path_active: bool,
    /// Slow-polarity launch edges committed (telemetry).
    path_launches: u64,
    /// Sensitized launch/capture activations committed (telemetry).
    path_activations: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a fault-free simulator with the register initialised to zero.
    pub fn new(netlist: &'a Netlist) -> Self {
        Self {
            netlist,
            values: vec![false; netlist.gates().len()],
            state: vec![false; netlist.flip_flops().len()],
            injection: None,
            delay_hist: Vec::new(),
            delay_filled: 0,
            delay_next: false,
            path_launch_prev: false,
            path_launch_seen: false,
            path_filled: false,
            path_conds: Vec::new(),
            path_active: false,
            path_launches: 0,
            path_activations: 0,
        }
    }

    /// Creates a simulator with a single stuck-at fault injected.
    pub fn with_fault(netlist: &'a Netlist, fault: Fault) -> Self {
        Self::with_injection(netlist, fault.into())
    }

    /// Creates a simulator with one model-agnostic fault injection.
    ///
    /// # Panics
    ///
    /// Panics if a [`Injection::Bridge`] aggressor does not precede its
    /// victim in the topological net order, or if a
    /// [`Injection::PathDelay`] chain is not strictly ascending (the
    /// enumeration in `stfsm-faults` guarantees both).
    pub fn with_injection(netlist: &'a Netlist, injection: Injection) -> Self {
        let mut sim = Self::new(netlist);
        match &injection {
            Injection::Bridge {
                victim, aggressor, ..
            } => {
                assert!(
                    aggressor < victim,
                    "bridge aggressor must precede the victim in net order"
                );
            }
            // The transition memory starts at the direction's identity
            // value, so the first cycle is injection-free.
            Injection::DelayedTransition { slow_to_rise, .. } => {
                sim.delay_hist = vec![*slow_to_rise];
                sim.delay_filled = 1;
                sim.delay_next = *slow_to_rise;
            }
            // The delay line starts empty: the lane tracks the fault-free
            // raw value until `depth` cycles of history exist.
            Injection::MultiCycleDelay { depth, .. } => {
                sim.delay_hist = vec![false; (*depth).max(1)];
            }
            Injection::PathDelay { path, .. } => {
                assert!(
                    path.len() >= 2 && path.windows(2).all(|w| w[0] < w[1]),
                    "path nets must be strictly ascending"
                );
                sim.delay_hist = vec![false];
                sim.path_conds = stfsm_faults::delay::path_conditions(netlist, path);
            }
            _ => {}
        }
        sim.injection = Some(injection);
        sim
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The current register state (stage 1 first).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Overrides the register state (used to model the scan-based
    /// initialisation of the self-test).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the number of flip-flops.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// The canonical lane memory of a stateful injection: the bits every
    /// engine reduces the lane's extra state to at a segment boundary.
    /// Empty for stateless injections (and for delay lanes whose history
    /// is still filling).
    ///
    /// * [`Injection::DelayedTransition`]: one bit, the raw value of the
    ///   previous clock cycle.
    /// * [`Injection::MultiCycleDelay`]: the filled delay-line slots,
    ///   newest first (up to `depth` bits).
    /// * [`Injection::PathDelay`]: launch-net previous value followed by
    ///   the terminal net's previous raw value, once a launch cycle has
    ///   been committed.
    pub fn injection_memory(&self) -> Vec<bool> {
        match &self.injection {
            Some(Injection::DelayedTransition { .. }) => vec![self.delay_hist[0]],
            Some(Injection::MultiCycleDelay { .. }) => {
                self.delay_hist[..self.delay_filled].to_vec()
            }
            Some(Injection::PathDelay { .. }) if self.path_filled => {
                vec![self.path_launch_prev, self.delay_hist[0]]
            }
            _ => Vec::new(),
        }
    }

    /// Seeds the lane memory from its canonical form (used when a
    /// segmented campaign resumes a surviving fault mid-run).  No-op for
    /// stateless injections or an empty memory.
    pub fn seed_injection_memory(&mut self, memory: &[bool]) {
        if memory.is_empty() {
            return;
        }
        match &self.injection {
            Some(Injection::DelayedTransition { .. }) => {
                self.delay_hist[0] = memory[0];
                self.delay_next = memory[0];
            }
            Some(Injection::MultiCycleDelay { .. }) => {
                let len = memory.len().min(self.delay_hist.len());
                self.delay_hist[..len].copy_from_slice(&memory[..len]);
                self.delay_filled = len;
            }
            Some(Injection::PathDelay { .. }) => {
                self.path_launch_prev = memory[0];
                self.path_launch_seen = memory[0];
                self.delay_hist[0] = memory[1];
                self.delay_next = memory[1];
                self.path_filled = true;
            }
            _ => {}
        }
    }

    /// The one-cycle memory of a [`Injection::DelayedTransition`] fault:
    /// the raw value the faulty net carried at the previous clock cycle.
    /// `None` when the injection (if any) is stateless.
    pub fn transition_memory(&self) -> Option<bool> {
        match self.injection {
            Some(Injection::DelayedTransition { .. }) => Some(self.delay_hist[0]),
            _ => None,
        }
    }

    /// Seeds the one-cycle transition memory (used when a segmented
    /// campaign resumes a surviving fault mid-run).  No-op unless the
    /// injection is a [`Injection::DelayedTransition`].
    pub fn seed_transition_memory(&mut self, bit: bool) {
        if let Some(Injection::DelayedTransition { .. }) = self.injection {
            self.delay_hist[0] = bit;
            self.delay_next = bit;
        }
    }

    /// Evaluates the combinational logic for the given primary inputs and the
    /// current register state.  Returns nothing; use the probe methods to
    /// read nets.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate(&mut self, inputs: &[bool]) {
        let plan = self.netlist.plan();
        assert_eq!(
            inputs.len(),
            plan.num_inputs(),
            "primary input width mismatch"
        );
        match &self.injection {
            None => self.evaluate_fault_free(plan, inputs),
            Some(Injection::StuckPin { gate, pin, value }) => {
                let (gate, pin, value) = (*gate, *pin, *value);
                self.evaluate_with_stuck_pin(plan, inputs, gate, pin, value)
            }
            Some(injection) => {
                // The scalar engine is the readable reference machine; one
                // clone per evaluation (an `Arc` bump for path lanes) keeps
                // the borrow structure simple.
                let injection = injection.clone();
                self.evaluate_with_output_patch(plan, inputs, injection)
            }
        }
    }

    /// The hot path of the fault-free reference machine: a straight sweep
    /// over the plan with no per-gate fault checks.
    fn evaluate_fault_free(&mut self, plan: &EvalPlan, inputs: &[bool]) {
        let fanin = plan.fanin();
        for (id, step) in plan.steps().iter().enumerate() {
            let ops = &fanin[step.fanin_range()];
            let value = match step.op {
                PlanOp::Input(k) => inputs[k as usize],
                PlanOp::FlipFlop(k) => self.state[k as usize],
                PlanOp::Const(c) => c,
                PlanOp::And => ops.iter().all(|&n| self.values[n as usize]),
                PlanOp::Or => ops.iter().any(|&n| self.values[n as usize]),
                PlanOp::Xor => ops
                    .iter()
                    .fold(false, |acc, &n| acc ^ self.values[n as usize]),
                PlanOp::Not => !self.values[ops[0] as usize],
            };
            self.values[id] = value;
        }
    }

    /// A single stuck input pin: the pin-aware sweep of the seed engine.
    fn evaluate_with_stuck_pin(
        &mut self,
        plan: &EvalPlan,
        inputs: &[bool],
        faulty_gate: usize,
        faulty_pin: usize,
        stuck_at: bool,
    ) {
        let fanin = plan.fanin();
        for (id, step) in plan.steps().iter().enumerate() {
            let ops = &fanin[step.fanin_range()];
            let pin_value = |pin: usize, source: u32| -> bool {
                if id == faulty_gate && pin == faulty_pin {
                    stuck_at
                } else {
                    self.values[source as usize]
                }
            };
            let value = match step.op {
                PlanOp::Input(k) => inputs[k as usize],
                PlanOp::FlipFlop(k) => self.state[k as usize],
                PlanOp::Const(c) => c,
                PlanOp::And => ops.iter().enumerate().all(|(pin, &n)| pin_value(pin, n)),
                PlanOp::Or => ops.iter().enumerate().any(|(pin, &n)| pin_value(pin, n)),
                PlanOp::Xor => ops
                    .iter()
                    .enumerate()
                    .fold(false, |acc, (pin, &n)| acc ^ pin_value(pin, n)),
                PlanOp::Not => !pin_value(0, ops[0]),
            };
            self.values[id] = value;
        }
    }

    /// Injections that rewrite one gate's output (stuck output, delayed
    /// transition, multi-cycle delay, path delay, bridge): a fault-free
    /// sweep with a post-override at the patched net.
    fn evaluate_with_output_patch(
        &mut self,
        plan: &EvalPlan,
        inputs: &[bool],
        injection: Injection,
    ) {
        let fanin = plan.fanin();
        let patched = injection.patched_gate();
        for (id, step) in plan.steps().iter().enumerate() {
            let ops = &fanin[step.fanin_range()];
            let mut value = match step.op {
                PlanOp::Input(k) => inputs[k as usize],
                PlanOp::FlipFlop(k) => self.state[k as usize],
                PlanOp::Const(c) => c,
                PlanOp::And => ops.iter().all(|&n| self.values[n as usize]),
                PlanOp::Or => ops.iter().any(|&n| self.values[n as usize]),
                PlanOp::Xor => ops
                    .iter()
                    .fold(false, |acc, &n| acc ^ self.values[n as usize]),
                PlanOp::Not => !self.values[ops[0] as usize],
            };
            if id == patched {
                value = match &injection {
                    Injection::StuckOutput { value: stuck, .. } => *stuck,
                    Injection::DelayedTransition { slow_to_rise, .. } => {
                        self.delay_next = value;
                        if *slow_to_rise {
                            value && self.delay_hist[0]
                        } else {
                            value || self.delay_hist[0]
                        }
                    }
                    // The gross delay presents the raw value of `depth`
                    // cycles ago once the delay line is filled; until then
                    // the lane is injection-free.
                    Injection::MultiCycleDelay { .. } => {
                        self.delay_next = value;
                        let depth = self.delay_hist.len();
                        if self.delay_filled == depth {
                            self.delay_hist[depth - 1]
                        } else {
                            value
                        }
                    }
                    // Non-robust two-pattern check: the previous (launch)
                    // cycle put the opposite value on the launch net, this
                    // (capture) cycle puts the slow polarity there, and every
                    // off-path side input carries its non-controlling value —
                    // then the late transition has not reached the terminal
                    // yet and it presents the previous cycle's raw value.
                    // All read nets precede the terminal in the strictly
                    // ascending path order, so a single forward sweep
                    // resolves the check.
                    Injection::PathDelay { path, rising } => {
                        let launch = self.values[path[0] as usize];
                        self.path_launch_seen = launch;
                        self.delay_next = value;
                        let active = self.path_filled
                            && launch == *rising
                            && self.path_launch_prev != launch
                            && self
                                .path_conds
                                .iter()
                                .all(|&(n, req)| self.values[n as usize] == req);
                        self.path_active = active;
                        if active {
                            self.delay_hist[0]
                        } else {
                            value
                        }
                    }
                    Injection::Bridge {
                        aggressor,
                        wired_and,
                        ..
                    } => {
                        if *wired_and {
                            value && self.values[*aggressor]
                        } else {
                            value || self.values[*aggressor]
                        }
                    }
                    Injection::StuckPin { .. } => unreachable!("handled by the pin-aware sweep"),
                };
            }
            self.values[id] = value;
        }
    }

    /// The value of a net after the last [`Simulator::evaluate`] call.
    pub fn net(&self, net: usize) -> bool {
        self.values[net]
    }

    /// The primary output values after the last evaluation.
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|&n| self.values[n])
            .collect()
    }

    /// Writes the primary output values after the last evaluation into
    /// `buf` (cleared first), avoiding a fresh allocation per cycle.
    pub fn outputs_into(&self, buf: &mut Vec<bool>) {
        buf.clear();
        buf.extend(
            self.netlist
                .primary_outputs()
                .iter()
                .map(|&n| self.values[n]),
        );
    }

    /// The observation-point values after the last evaluation (what the
    /// response compactor sees this cycle).
    pub fn observations(&self) -> Vec<bool> {
        self.netlist
            .observation_points()
            .iter()
            .map(|&n| self.values[n])
            .collect()
    }

    /// Writes the observation-point values after the last evaluation into
    /// `buf` (cleared first), avoiding a fresh allocation per cycle.
    pub fn observations_into(&self, buf: &mut Vec<bool>) {
        buf.clear();
        buf.extend(
            self.netlist
                .observation_points()
                .iter()
                .map(|&n| self.values[n]),
        );
    }

    /// Loads the flip-flops from their D inputs (one clock edge).
    pub fn clock(&mut self) {
        // `values` and `state` are disjoint arrays, so the flip-flops can be
        // loaded directly without staging the next state in a scratch `Vec`.
        for (i, &d) in self.netlist.plan().flip_flop_inputs().iter().enumerate() {
            self.state[i] = self.values[d as usize];
        }
        // The delay memory advances once per clock cycle, regardless of how
        // many combinational evaluations happened in between: the newest raw
        // value shifts into slot 0 and the oldest slot falls off the end.
        if !self.delay_hist.is_empty() {
            self.delay_hist.rotate_right(1);
            self.delay_hist[0] = self.delay_next;
            self.delay_filled = (self.delay_filled + 1).min(self.delay_hist.len());
        }
        if let Some(Injection::PathDelay { ref rising, .. }) = self.injection {
            if self.path_filled
                && self.path_launch_prev != self.path_launch_seen
                && self.path_launch_seen == *rising
            {
                self.path_launches += 1;
            }
            if self.path_active {
                self.path_activations += 1;
            }
            self.path_active = false;
            self.path_launch_prev = self.path_launch_seen;
            self.path_filled = true;
        }
    }

    /// Drains the path-delay telemetry accumulated since the last call:
    /// committed slow-polarity launch edges and sensitized launch/capture
    /// activations (see
    /// [`CampaignMetrics`](crate::telemetry::CampaignMetrics)).
    pub fn take_path_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.path_launches),
            std::mem::take(&mut self.path_activations),
        )
    }

    /// Convenience: evaluate, sample the observation points, clock.
    pub fn cycle(&mut self, inputs: &[bool]) -> Vec<bool> {
        let mut obs = Vec::new();
        self.cycle_into(inputs, &mut obs);
        obs
    }

    /// Allocation-free variant of [`Simulator::cycle`]: evaluate, sample the
    /// observation points into `obs`, clock.
    pub fn cycle_into(&mut self, inputs: &[bool], obs: &mut Vec<bool>) {
        self.evaluate(inputs);
        self.observations_into(obs);
        self.clock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::{build_netlist, Gate};
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::FaultSite;
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_fsm::{Fsm, StateId};
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    fn dff_netlist(fsm: &Fsm) -> (stfsm_bist::netlist::Netlist, StateEncoding) {
        let encoding = StateEncoding::natural(fsm).unwrap();
        let transform = RegisterTransform::Dff;
        let pla = build_pla(fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(fsm, &encoding, &transform);
        (
            build_netlist(fsm.name(), &cover, &lay, BistStructure::Dff, None).unwrap(),
            encoding,
        )
    }

    fn pst_netlist(fsm: &Fsm) -> (stfsm_bist::netlist::Netlist, StateEncoding, Misr) {
        let encoding = StateEncoding::natural(fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let misr = Misr::new(poly).unwrap();
        let transform = RegisterTransform::Misr(misr.clone());
        let pla = build_pla(fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(fsm, &encoding, &transform);
        (
            build_netlist(fsm.name(), &cover, &lay, BistStructure::Pst, Some(poly)).unwrap(),
            encoding,
            misr,
        )
    }

    /// Drive the synthesized netlist and the symbolic machine in lockstep and
    /// compare outputs and state codes — the fundamental correctness check of
    /// the entire synthesis flow.
    fn check_against_fsm(
        fsm: &Fsm,
        netlist: &stfsm_bist::netlist::Netlist,
        encoding: &StateEncoding,
        cycles: usize,
    ) {
        let mut sim = Simulator::new(netlist);
        let reset = fsm.reset_state().unwrap_or(StateId(0));
        let reset_code = encoding.code(reset);
        let bits: Vec<bool> = (0..encoding.num_bits())
            .map(|b| reset_code.bit(b))
            .collect();
        sim.set_state(&bits);
        let mut symbolic = reset;
        let mut lcg = 0x12345678u64;
        for cycle in 0..cycles {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let inputs: Vec<bool> = (0..fsm.num_inputs())
                .map(|i| (lcg >> (i + 7)) & 1 == 1)
                .collect();
            let Some((next, output)) = fsm.step(symbolic, &inputs) else {
                // Unspecified input combination: symbolic machine stalls, skip.
                continue;
            };
            sim.evaluate(&inputs);
            // Primary outputs must match wherever the machine specifies them.
            let sim_outputs = sim.outputs();
            for (j, trit) in output.trits().iter().enumerate() {
                match trit {
                    stfsm_fsm::TritValue::One => {
                        assert!(sim_outputs[j], "cycle {cycle} output {j}")
                    }
                    stfsm_fsm::TritValue::Zero => {
                        assert!(!sim_outputs[j], "cycle {cycle} output {j}")
                    }
                    stfsm_fsm::TritValue::DontCare => {}
                }
            }
            sim.clock();
            if let Some(next) = next {
                let expected = encoding.code(next);
                for b in 0..encoding.num_bits() {
                    assert_eq!(
                        sim.state()[b],
                        expected.bit(b),
                        "cycle {cycle} state bit {b}"
                    );
                }
                symbolic = next;
            } else {
                break;
            }
        }
    }

    #[test]
    fn dff_netlist_reproduces_the_machine() {
        let fsm = fig3_example().unwrap();
        let (netlist, encoding) = dff_netlist(&fsm);
        check_against_fsm(&fsm, &netlist, &encoding, 50);
    }

    #[test]
    fn dff_netlist_reproduces_the_counter() {
        let fsm = modulo12_exact().unwrap();
        let (netlist, encoding) = dff_netlist(&fsm);
        check_against_fsm(&fsm, &netlist, &encoding, 100);
    }

    #[test]
    fn pst_netlist_reproduces_the_machine_through_the_misr() {
        let fsm = fig3_example().unwrap();
        let (netlist, encoding, _misr) = pst_netlist(&fsm);
        check_against_fsm(&fsm, &netlist, &encoding, 50);
    }

    #[test]
    fn pst_netlist_reproduces_the_counter_through_the_misr() {
        let fsm = modulo12_exact().unwrap();
        let (netlist, encoding, _misr) = pst_netlist(&fsm);
        check_against_fsm(&fsm, &netlist, &encoding, 100);
    }

    #[test]
    fn fault_injection_changes_behaviour() {
        let fsm = fig3_example().unwrap();
        let (netlist, _encoding) = dff_netlist(&fsm);
        // Find an AND gate to break.
        let target = netlist
            .gates()
            .iter()
            .position(|g| matches!(g, Gate::And(_) | Gate::Or(_)))
            .expect("netlist has logic gates");
        let fault = Fault {
            site: FaultSite::GateOutput(target),
            stuck_at: true,
        };
        let mut good = Simulator::new(&netlist);
        let mut bad = Simulator::with_fault(&netlist, fault);
        let mut diverged = false;
        for i in 0..32u32 {
            let inputs = vec![i % 2 == 0];
            let g = good.cycle(&inputs);
            let b = bad.cycle(&inputs);
            if g != b {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "a stuck-at-1 on a logic gate should be observable"
        );
    }

    /// With the register forced from outside every cycle (the random-state
    /// stimulation), the faulty machine's raw values equal the fault-free
    /// ones, so the transition-fault semantics are exactly checkable: the
    /// faulty net carries `v ∧ v_prev` (slow-to-rise) or `v ∨ v_prev`
    /// (slow-to-fall), with the first cycle injection-free.
    #[test]
    fn transition_fault_delays_the_slow_edge_by_one_cycle() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let target = netlist
            .gates()
            .iter()
            .position(|g| g.is_logic())
            .expect("netlist has logic gates");
        for slow_to_rise in [true, false] {
            let mut good = Simulator::new(&netlist);
            let mut bad = Simulator::with_injection(
                &netlist,
                Injection::DelayedTransition {
                    net: target,
                    slow_to_rise,
                },
            );
            let mut prev = slow_to_rise; // the identity value
            let mut lcg = 0x0123_4567u64;
            let r = netlist.flip_flops().len();
            for cycle in 0..64 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let state: Vec<bool> = (0..r).map(|i| (lcg >> (i + 5)) & 1 == 1).collect();
                let inputs = vec![(lcg >> 23) & 1 == 1];
                good.set_state(&state);
                bad.set_state(&state);
                good.evaluate(&inputs);
                bad.evaluate(&inputs);
                let raw = good.net(target);
                let expected = if slow_to_rise {
                    raw && prev
                } else {
                    raw || prev
                };
                assert_eq!(
                    bad.net(target),
                    expected,
                    "cycle {cycle}, slow_to_rise {slow_to_rise}"
                );
                prev = raw;
                good.clock();
                bad.clock();
            }
        }
    }

    /// Same forced-state setup for bridges: the victim carries the wired
    /// AND/OR of its raw value with the aggressor, which equals the
    /// fault-free values of both nets.
    #[test]
    fn bridge_fault_ties_the_victim_to_the_aggressor() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let (aggressor, victim) = *netlist
            .adjacent_net_pairs()
            .first()
            .expect("adjacent pairs exist");
        for wired_and in [true, false] {
            let mut good = Simulator::new(&netlist);
            let mut bad = Simulator::with_injection(
                &netlist,
                Injection::Bridge {
                    victim,
                    aggressor,
                    wired_and,
                },
            );
            let mut lcg = 0x89AB_CDEFu64;
            let r = netlist.flip_flops().len();
            for cycle in 0..64 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let state: Vec<bool> = (0..r).map(|i| (lcg >> (i + 11)) & 1 == 1).collect();
                let inputs = vec![(lcg >> 31) & 1 == 1];
                good.set_state(&state);
                bad.set_state(&state);
                good.evaluate(&inputs);
                bad.evaluate(&inputs);
                let (v, a) = (good.net(victim), good.net(aggressor));
                let expected = if wired_and { v && a } else { v || a };
                assert_eq!(bad.net(victim), expected, "cycle {cycle}, and {wired_and}");
                assert_eq!(bad.net(aggressor), a, "the aggressor keeps its value");
                good.clock();
                bad.clock();
            }
        }
    }

    /// Same forced-state setup for the multi-cycle gross delay: the faulty
    /// net is injection-free while the delay line fills, then presents the
    /// raw value of exactly `depth` cycles ago.
    #[test]
    fn multi_cycle_delay_presents_the_value_depth_cycles_ago() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let target = netlist
            .gates()
            .iter()
            .position(|g| g.is_logic())
            .expect("netlist has logic gates");
        for depth in [1usize, 2, 3] {
            let mut good = Simulator::new(&netlist);
            let mut bad = Simulator::with_injection(
                &netlist,
                Injection::MultiCycleDelay { net: target, depth },
            );
            let mut history: Vec<bool> = Vec::new(); // raw values, oldest first
            let mut lcg = 0xDEAD_BEEFu64;
            let r = netlist.flip_flops().len();
            for cycle in 0..64 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let state: Vec<bool> = (0..r).map(|i| (lcg >> (i + 9)) & 1 == 1).collect();
                let inputs = vec![(lcg >> 27) & 1 == 1];
                good.set_state(&state);
                bad.set_state(&state);
                good.evaluate(&inputs);
                bad.evaluate(&inputs);
                let raw = good.net(target);
                let expected = if history.len() >= depth {
                    history[history.len() - depth]
                } else {
                    raw
                };
                assert_eq!(bad.net(target), expected, "cycle {cycle}, depth {depth}");
                history.push(raw);
                good.clock();
                bad.clock();
            }
        }
    }

    /// Forced-state lockstep for path-delay faults: the terminal presents
    /// the previous cycle's raw value exactly when the launch net makes the
    /// slow transition into the capture cycle and every off-path side input
    /// sits at its non-controlling value.
    #[test]
    fn path_delay_activates_on_sensitized_launch_capture_pairs() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let faults = stfsm_faults::FaultModel::fault_list(
            &stfsm_faults::PathDelay::default(),
            &netlist,
            false,
        );
        assert!(!faults.is_empty());
        let mut activations = 0u32;
        for injection in &faults {
            let Injection::PathDelay { path, rising } = injection else {
                panic!("foreign injection {injection}");
            };
            let conds = stfsm_faults::delay::path_conditions(&netlist, path);
            let terminal = *path.last().unwrap() as usize;
            let launch_net = path[0] as usize;
            let mut good = Simulator::new(&netlist);
            let mut bad = Simulator::with_injection(&netlist, injection.clone());
            let mut lcg = 0x5555_AAAAu64 ^ terminal as u64;
            let r = netlist.flip_flops().len();
            let (mut launch_prev, mut term_prev, mut filled) = (false, false, false);
            for cycle in 0..128 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let state: Vec<bool> = (0..r).map(|i| (lcg >> (i + 13)) & 1 == 1).collect();
                let inputs = vec![(lcg >> 29) & 1 == 1];
                good.set_state(&state);
                bad.set_state(&state);
                good.evaluate(&inputs);
                bad.evaluate(&inputs);
                let raw = good.net(terminal);
                let launch = good.net(launch_net);
                let sensitized = conds.iter().all(|&(n, req)| good.net(n as usize) == req);
                let active = filled && launch == *rising && launch_prev != launch && sensitized;
                let expected = if active { term_prev } else { raw };
                assert_eq!(
                    bad.net(terminal),
                    expected,
                    "cycle {cycle}, fault {injection}"
                );
                if active {
                    activations += 1;
                }
                launch_prev = launch;
                term_prev = raw;
                filled = true;
                good.clock();
                bad.clock();
            }
        }
        assert!(
            activations > 0,
            "the random stimulation should sensitize at least one path"
        );
    }

    /// A stateful lane snapshotted mid-run (register state + canonical lane
    /// memory) and re-seeded into a fresh simulator continues bit-for-bit.
    #[test]
    fn injection_memory_round_trips_mid_run() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let target = netlist
            .gates()
            .iter()
            .position(|g| g.is_logic())
            .expect("netlist has logic gates");
        let path_fault = stfsm_faults::FaultModel::fault_list(
            &stfsm_faults::PathDelay::default(),
            &netlist,
            false,
        )
        .into_iter()
        .next()
        .expect("paths exist");
        let injections = [
            Injection::DelayedTransition {
                net: target,
                slow_to_rise: true,
            },
            Injection::MultiCycleDelay {
                net: target,
                depth: 3,
            },
            path_fault,
        ];
        for injection in &injections {
            for snapshot_at in [0usize, 1, 2, 5, 8] {
                let mut original = Simulator::with_injection(&netlist, injection.clone());
                let mut lcg = 0x0F0F_1234u64;
                let drive = |sim: &mut Simulator, lcg: &mut u64| {
                    *lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let inputs = vec![(*lcg >> 17) & 1 == 1];
                    sim.cycle(&inputs)
                };
                for _ in 0..snapshot_at {
                    drive(&mut original, &mut lcg);
                }
                let memory = original.injection_memory();
                let state = original.state().to_vec();
                let mut resumed = Simulator::with_injection(&netlist, injection.clone());
                resumed.set_state(&state);
                resumed.seed_injection_memory(&memory);
                let mut lcg_resumed = lcg;
                for step in 0..24 {
                    let a = drive(&mut original, &mut lcg);
                    let b = drive(&mut resumed, &mut lcg_resumed);
                    assert_eq!(
                        a, b,
                        "fault {injection}, snapshot at {snapshot_at}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "aggressor must precede")]
    fn reversed_bridge_is_rejected() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let _ = Simulator::with_injection(
            &netlist,
            Injection::Bridge {
                victim: 1,
                aggressor: 5,
                wired_and: true,
            },
        );
    }

    #[test]
    fn observations_and_state_access() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let mut sim = Simulator::new(&netlist);
        assert_eq!(sim.state().len(), 2);
        sim.set_state(&[true, false]);
        assert_eq!(sim.state(), &[true, false]);
        sim.evaluate(&[true]);
        assert_eq!(sim.observations().len(), netlist.observation_points().len());
        assert_eq!(sim.outputs().len(), 1);
        assert_eq!(sim.netlist().name(), "fig3");
        let _ = sim.net(0);
    }

    #[test]
    #[should_panic(expected = "primary input width mismatch")]
    fn wrong_input_width_panics() {
        let fsm = fig3_example().unwrap();
        let (netlist, _) = dff_netlist(&fsm);
        let mut sim = Simulator::new(&netlist);
        sim.evaluate(&[true, false]);
    }
}
