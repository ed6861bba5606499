//! Event-driven, cone-restricted differential fault simulation over
//! multi-word lane blocks.
//!
//! The 64-way packed full sweep still pays for work that provably cannot
//! matter: it re-simulates the fault-free machine in lane 0
//! of every chunk, and every lane evaluates the *entire* evaluation plan
//! even though an injected fault can only perturb the nets in its fanout
//! cone until its effect reaches a flip-flop.  The differential engine
//! (the PROOFS-style concurrent/differential technique) removes both
//! costs, and an event-driven scheduler removes most of what remains of
//! the first:
//!
//! * the **good machine is simulated once per pattern** on the scalar
//!   simulator and its net values are broadcast to every lane block
//!   (`GoodTrace`); the trace of a campaign segment is recorded once,
//!   shared read-only by every block *and every worker thread* of that
//!   segment, and cached across campaign passes (`GoodTraceCache`) so a
//!   multi-observer campaign never re-records it;
//! * within the active step set, a cycle is advanced by an **event-driven
//!   worklist** instead of a full sweep: per-cycle event sources — primary
//!   input bits whose broadcast value changed against the previous cycle,
//!   state registers whose loaded value differs from the block's current
//!   net value, and the always-dirty patched/injection steps — seed a
//!   pending-step bitset, which is drained in ascending net id (fanins,
//!   and bridge aggressors, always precede their consumers) and a step's
//!   fanout steps are enqueued only when its recomputed words actually
//!   changed.  Quiescent logic is never touched; the values after every
//!   cycle are exactly those of the full sweep, by induction over the
//!   drain order;
//! * faults are packed into **multi-word lane blocks** ([`LaneBlock`]):
//!   `64 * W - 1` fault lanes plus the shared good reference in lane 0,
//!   with the width `W ∈ {1, 4, 8}` resolved from the fault count
//!   ([`crate::coverage::CampaignConfig::resolved_block_words`]) so one
//!   sweep advances up to eight packed words per step;
//! * each block evaluates only the steps in the **union of its active
//!   faults' fanout cones** (the `narrow` step set, from
//!   [`stfsm_bist::netlist::EvalPlan::fanout_cone`]) while every lane's
//!   register state still agrees with the good machine; divergence is
//!   tracked **per packing word**, so a single split lane widens only its
//!   own 64-lane word to the register-fanout step set — the remaining
//!   words keep evaluating (masked) on the narrow set — and each word
//!   re-narrows independently when its lanes reconverge;
//! * detected faults are dropped from the active mask inside a segment,
//!   detected lanes are clamped back onto the good state so they stop
//!   forcing wide evaluation, and the narrow cone union is rebuilt
//!   (swap-compacted) whenever at least half of the block's faults have
//!   been retired.
//!
//! The word-parallel compile/eval machinery itself — opcodes, patched
//! gates, the injection algebra, change-detecting step evaluation — is
//! *not* duplicated here: it is the shared `engine::PackedCore<W>` whose
//! `W = 1` instance the packed engine sweeps.  This module adds only the
//! event scheduling, the cone-restricted step sets and the differential
//! campaign driver.
//!
//! The engine is model-agnostic over [`Injection`] — stuck outputs, stuck
//! pins, delayed transitions (with the one-cycle memory carried per word)
//! and bridges all keep working — and produces detection patterns
//! bit-for-bit identical to the scalar and packed engines, for every
//! block width, thread count and early-stop boundary.

use crate::coverage::{
    initial_alive, AliveFault, LaneTables, SegmentRunner, StateStimulation, Stimulus, TableTail,
};
use crate::engine::{Op, PackedCore};
use crate::packed::FAULT_LANES as PACKED_FAULT_LANES;
use crate::sim::Simulator;
use crate::telemetry::{CampaignMetrics, PhaseTimer, WorkerSpan};
use stfsm_bist::netlist::{EvalPlan, Netlist};
use stfsm_faults::Injection;
use stfsm_lfsr::bitvec::broadcast;

/// A block of `W` 64-lane packing words: `64 * W` simulated machines that
/// advance together through word-wide logic operations.
///
/// Lane 0 of word 0 carries the shared good reference (it is seeded from —
/// and always agrees with — the good machine), the remaining
/// [`LaneBlock::FAULT_LANES`] lanes each carry one injected fault.
pub struct LaneBlock<const W: usize>;

impl<const W: usize> LaneBlock<W> {
    /// Total number of lanes in the block.
    pub const LANES: usize = 64 * W;
    /// Number of fault lanes (all lanes except the good reference).
    pub const FAULT_LANES: usize = 64 * W - 1;
    /// Number of packing words.
    pub const WORDS: usize = W;
}

/// Words per lane block of the differential campaign engine: 4 words = 255
/// fault lanes plus the shared good reference.
pub const BLOCK_WORDS: usize = 4;

/// Fault lanes per default-width campaign block (test convenience; the
/// campaign resolves the width per fault count, see
/// [`crate::coverage::CampaignConfig::resolved_block_words`]).
#[cfg(test)]
pub(crate) const BLOCK_FAULT_LANES: usize = LaneBlock::<BLOCK_WORDS>::FAULT_LANES;

/// Extracts bit `net` from a bitset row (layout of
/// [`stfsm_bist::netlist::EvalPlan::fanout_cone`] and [`GoodTrace`] rows).
#[inline(always)]
fn row_bit(row: &[u64], net: usize) -> bool {
    EvalPlan::cone_contains(row, net)
}

/// The good machine's trajectory over one campaign segment, recorded once
/// on the scalar simulator and shared (read-only) by every lane block and
/// every worker of the differential engine.
pub(crate) struct GoodTrace {
    stride: usize,
    num_state: usize,
    from: usize,
    /// Per cycle: all net values as a bitset row of `stride` words.
    bits: Vec<u64>,
    /// Per cycle: the register state at evaluation time (after a
    /// random-state override, before the clock edge).
    pre_states: Vec<bool>,
    /// The register state after the last cycle of the segment.
    end_state: Vec<bool>,
}

impl GoodTrace {
    /// Simulates the fault-free machine over cycles `from..to` of the
    /// stimulus, starting from `start_state`.
    pub(crate) fn record(
        netlist: &Netlist,
        stimulus: &Stimulus,
        stimulation: StateStimulation,
        start_state: &[bool],
        from: usize,
        to: usize,
    ) -> Self {
        let num_nets = netlist.gates().len();
        let stride = num_nets.div_ceil(64);
        let num_state = netlist.flip_flops().len();
        let cycles = to - from;
        let mut sim = Simulator::new(netlist);
        sim.set_state(start_state);
        let mut bits = vec![0u64; cycles * stride];
        let mut pre_states = Vec::with_capacity(cycles * num_state);
        for cycle in from..to {
            if stimulation == StateStimulation::RandomState {
                sim.set_state(&stimulus.st(cycle)[..num_state]);
            }
            pre_states.extend_from_slice(sim.state());
            sim.evaluate(stimulus.pi(cycle));
            let row = &mut bits[(cycle - from) * stride..][..stride];
            for net in 0..num_nets {
                if sim.net(net) {
                    row[net / 64] |= 1u64 << (net % 64);
                }
            }
            sim.clock();
        }
        Self {
            stride,
            num_state,
            from,
            bits,
            pre_states,
            end_state: sim.state().to_vec(),
        }
    }

    /// The net-value bitset of (absolute) cycle `cycle`.
    pub(crate) fn row(&self, cycle: usize) -> &[u64] {
        &self.bits[(cycle - self.from) * self.stride..][..self.stride]
    }

    /// The register state the good machine carried into cycle `cycle`.
    pub(crate) fn pre_state(&self, cycle: usize) -> &[bool] {
        &self.pre_states[(cycle - self.from) * self.num_state..][..self.num_state]
    }

    /// The register state after the last recorded cycle.
    pub(crate) fn end_state(&self) -> &[bool] {
        &self.end_state
    }
}

/// A one-segment-deep cache of the good machine's recorded trace, shared
/// across the differential passes of one campaign (coverage, dictionary,
/// diagnosis): whichever pass first reaches a segment records it, any
/// later pass over the same pinned schedule replays it for free instead of
/// re-simulating the fault-free machine.
///
/// The key is `(from, to, start_state)` — within one campaign the netlist,
/// stimulation mode and stimulus are fixed and the segment schedule is
/// pinned, so an equal key implies an identical trace.  One segment of
/// depth suffices because every pass walks the schedule in order.
pub(crate) struct GoodTraceCache {
    entry: Option<CachedTrace>,
}

struct CachedTrace {
    from: usize,
    to: usize,
    start_state: Vec<bool>,
    trace: GoodTrace,
}

impl GoodTraceCache {
    /// An empty cache (nothing recorded yet).
    pub(crate) fn new() -> Self {
        Self { entry: None }
    }

    /// The good trace of segment `from..to` from `start_state`: replayed
    /// from the cache when the previous request had the same key, recorded
    /// on the scalar simulator (and cached) otherwise.  The second element
    /// reports whether the lookup hit (for the caller's
    /// [`CampaignMetrics`] cache tallies).
    pub(crate) fn get_or_record(
        &mut self,
        netlist: &Netlist,
        stimulus: &Stimulus,
        stimulation: StateStimulation,
        start_state: &[bool],
        from: usize,
        to: usize,
    ) -> (&GoodTrace, bool) {
        let hit = matches!(
            &self.entry,
            Some(e) if e.from == from && e.to == to && e.start_state == start_state
        );
        if !hit {
            let trace = GoodTrace::record(netlist, stimulus, stimulation, start_state, from, to);
            self.entry = Some(CachedTrace {
                from,
                to,
                start_state: start_state.to_vec(),
                trace,
            });
        }
        (&self.entry.as_ref().expect("just recorded").trace, hit)
    }
}

/// A restricted evaluation schedule: the member bitset over nets, the
/// member steps in topological order, the frontier (nets read by member
/// steps but computed outside the set, seeded from the good machine each
/// cycle), the observable members and the per-flip-flop membership of the
/// D nets — plus the event metadata of the worklist scheduler: the member
/// flip-flop and patched steps (the per-cycle event sources) and the
/// `masked` bitset of register-cone-only members whose converged words the
/// per-word widening pass is allowed to leave stale.
struct StepSet {
    member: Vec<u64>,
    steps: Vec<u32>,
    frontier: Vec<u32>,
    obs: Vec<u32>,
    ff_d_in: Vec<bool>,
    /// Member flip-flop steps as `(q_net, ff_index)`: re-evaluated when
    /// their state row no longer matches the stored Q value (the
    /// state-register-load event source).
    ff_steps: Vec<(u32, u32)>,
    /// Member steps carrying an injected fault: always dirty (their raw
    /// value feeds the one-cycle transition memory, and bridges read
    /// aggressors outside the fan-in list), the fault-site event source.
    patched: Vec<u32>,
    /// Members that neither belong to the narrow (fault-cone) union nor
    /// transitively feed it — pure register-cone interior.  On words whose
    /// lanes all agree with the good machine these provably carry the
    /// broadcast good value, so per-word widening masks their change
    /// detection to the diverged words and substitutes the good value at
    /// every read.  Empty (all-zero) for the narrow set.
    masked: Vec<u64>,
}

/// What the last combinational evaluation covered — the validity state the
/// event scheduler keys its full-sweep fallback on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LastEval {
    /// Nothing valid (fresh block or rebuilt step sets): full sweep.
    Stale,
    /// The narrow set was evaluated; wide-only values are stale.
    Narrow,
    /// The wide set was evaluated; wide-only values are valid on the words
    /// of `valid_div`.
    Wide,
}

/// A `W`-word differential lane-block simulator for one [`Netlist`]: the
/// shared `PackedCore<W>` plus cone-restricted step scheduling.
///
/// Lane `i + 1` (word `(i + 1) / 64`, bit `(i + 1) % 64`) carries
/// `injections[i]`; lane 0 of word 0 is the good reference.
pub(crate) struct DiffSimulator<'a, const W: usize> {
    core: PackedCore<'a, W>,
    /// Lanes whose fault has not been detected yet.
    active: [u64; W],
    narrow: StepSet,
    wide: StepSet,
    /// Active-fault count the narrow cone union was last built for.
    narrow_basis: usize,
    /// Per-word divergence masks of the last [`DiffSimulator::needs_wide`]
    /// check: all-ones on words with at least one diverged lane.
    div: [u64; W],
    /// Words whose `masked` (register-cone-only) values are currently
    /// valid; a divergence mask escaping this set forces a full wide sweep.
    valid_div: [u64; W],
    /// What the last evaluation covered (drives the full-sweep fallback).
    last_eval: LastEval,
    /// Pending-step bitset of the worklist, drained in ascending net id —
    /// a refinement of the topological level order (every consumer sits at
    /// a deeper level *and* a higher id, and bridge aggressors precede
    /// their victims in id order, which plain level buckets cannot
    /// guarantee).
    pending: Vec<u64>,
    /// Scheduler tallies since the last [`DiffSimulator::take_metrics`]:
    /// plain increments on state the scheduler already touches, never fed
    /// back into simulation.
    metrics: CampaignMetrics,
}

impl<'a, const W: usize> DiffSimulator<'a, W> {
    /// Compiles a block with `injections[i]` on lane `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LaneBlock::FAULT_LANES`] injections are given
    /// or a bridge aggressor does not precede its victim.
    pub(crate) fn with_injections(netlist: &'a Netlist, injections: &[Injection]) -> Self {
        let core = PackedCore::compile(netlist, injections);
        let active = core.fault_lanes();
        let empty = || StepSet {
            member: Vec::new(),
            steps: Vec::new(),
            frontier: Vec::new(),
            obs: Vec::new(),
            ff_d_in: Vec::new(),
            ff_steps: Vec::new(),
            patched: Vec::new(),
            masked: Vec::new(),
        };
        let stride = netlist.plan().cone_stride();
        let mut sim = Self {
            core,
            active,
            narrow: empty(),
            wide: empty(),
            narrow_basis: 0,
            div: [0u64; W],
            valid_div: [0u64; W],
            last_eval: LastEval::Stale,
            pending: vec![0u64; stride],
            metrics: CampaignMetrics::default(),
        };
        sim.rebuild_sets();
        sim
    }

    /// Drains the scheduler tallies accumulated since the last call (or
    /// since compilation): the counters reset to zero, so consecutive
    /// takes yield per-segment deltas.
    pub(crate) fn take_metrics(&mut self) -> CampaignMetrics {
        let (launches, activations) = self.core.take_path_counters();
        self.metrics.path_launches += launches;
        self.metrics.path_activations += activations;
        std::mem::take(&mut self.metrics)
    }

    /// The lanes whose fault is still undetected (word-major lane masks).
    pub(crate) fn active(&self) -> [u64; W] {
        self.active
    }

    /// Whether every fault of the block has been detected.
    pub(crate) fn active_is_empty(&self) -> bool {
        self.active.iter().all(|&w| w == 0)
    }

    fn active_count(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rebuilds the narrow/wide step sets from the currently active faults:
    /// narrow = union of the active fault sites' fanout cones, wide = narrow
    /// plus the fanout cones of every register stage's Q output.
    fn rebuild_sets(&mut self) {
        let plan = self.core.netlist.plan();
        let stride = plan.cone_stride();
        let mut narrow_bits = vec![0u64; stride];
        for (w, &aw) in self.active.iter().enumerate() {
            let mut lanes = aw;
            while lanes != 0 {
                let bit = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let lane = w * 64 + bit;
                let site = self.core.injections[lane - 1].patched_gate();
                for (dst, &src) in narrow_bits.iter_mut().zip(plan.fanout_cone(site)) {
                    *dst |= src;
                }
            }
        }
        let mut wide_bits = narrow_bits.clone();
        for &q in plan.flip_flop_outputs() {
            for (dst, &src) in wide_bits.iter_mut().zip(plan.fanout_cone(q as usize)) {
                *dst |= src;
            }
        }
        self.narrow = self.make_set(narrow_bits, None);
        let narrow_member = self.narrow.member.clone();
        self.wide = self.make_set(wide_bits, Some(&narrow_member));
        self.narrow_basis = self.active_count();
        // New sets mean no stored value can be trusted incrementally: the
        // next evaluation sweeps its full step set.
        self.last_eval = LastEval::Stale;
    }

    fn make_set(&self, member: Vec<u64>, narrow_member: Option<&[u64]>) -> StepSet {
        let plan = self.core.netlist.plan();
        let num_nets = self.core.code.len();
        let mut steps = Vec::new();
        let mut ff_steps = Vec::new();
        let mut patched = Vec::new();
        let mut frontier_bits = vec![0u64; member.len()];
        for id in 0..num_nets {
            if !row_bit(&member, id) {
                continue;
            }
            steps.push(id as u32);
            for &f in plan.step_fanin(id) {
                if !row_bit(&member, f as usize) {
                    frontier_bits[f as usize / 64] |= 1u64 << (f % 64);
                }
            }
            match self.core.code[id].op {
                Op::Patched => {
                    patched.push(id as u32);
                    let gate = &self.core.patched[self.core.code[id].a as usize];
                    for bridge in
                        &self.core.bridges[gate.bridge_start as usize..gate.bridge_end as usize]
                    {
                        let agg = bridge.aggressor as usize;
                        if !row_bit(&member, agg) {
                            frontier_bits[agg / 64] |= 1u64 << (agg % 64);
                        }
                    }
                    for lane in
                        &self.core.path_lanes[gate.path_start as usize..gate.path_end as usize]
                    {
                        let launch = lane.launch as usize;
                        if !row_bit(&member, launch) {
                            frontier_bits[launch / 64] |= 1u64 << (launch % 64);
                        }
                        for &(cond, _) in &lane.conds {
                            let cond = cond as usize;
                            if !row_bit(&member, cond) {
                                frontier_bits[cond / 64] |= 1u64 << (cond % 64);
                            }
                        }
                    }
                }
                Op::Ff => ff_steps.push((id as u32, self.core.code[id].a)),
                _ => {}
            }
        }
        let mut frontier = Vec::new();
        for (w, &word) in frontier_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                frontier.push((w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
        let obs: Vec<u32> = plan
            .observation_points()
            .iter()
            .copied()
            .filter(|&n| row_bit(&member, n as usize))
            .collect();
        let ff_d_in: Vec<bool> = plan
            .flip_flop_inputs()
            .iter()
            .map(|&d| row_bit(&member, d as usize))
            .collect();
        // Register-cone-only members: everything that neither lies in the
        // narrow (fault-cone) union nor transitively feeds it.  Bridge
        // aggressors of member victims are read outside the fan-in lists,
        // so they seed the keep closure alongside the narrow members; the
        // descending sweep then closes it over the fan-in relation.
        let masked = match narrow_member {
            None => vec![0u64; member.len()],
            Some(narrow) => {
                let mut keep: Vec<u64> = narrow.iter().zip(&member).map(|(&n, &m)| n & m).collect();
                for &id in &patched {
                    let gate = &self.core.patched[self.core.code[id as usize].a as usize];
                    for bridge in
                        &self.core.bridges[gate.bridge_start as usize..gate.bridge_end as usize]
                    {
                        let agg = bridge.aggressor as usize;
                        if row_bit(&member, agg) {
                            keep[agg / 64] |= 1u64 << (agg % 64);
                        }
                    }
                    for lane in
                        &self.core.path_lanes[gate.path_start as usize..gate.path_end as usize]
                    {
                        let launch = lane.launch as usize;
                        if row_bit(&member, launch) {
                            keep[launch / 64] |= 1u64 << (launch % 64);
                        }
                        for &(cond, _) in &lane.conds {
                            let cond = cond as usize;
                            if row_bit(&member, cond) {
                                keep[cond / 64] |= 1u64 << (cond % 64);
                            }
                        }
                    }
                }
                for id in (0..num_nets).rev() {
                    if row_bit(&keep, id) {
                        for &f in plan.step_fanin(id) {
                            let f = f as usize;
                            if row_bit(&member, f) {
                                keep[f / 64] |= 1u64 << (f % 64);
                            }
                        }
                    }
                }
                member.iter().zip(&keep).map(|(&m, &k)| m & !k).collect()
            }
        };
        StepSet {
            member,
            steps,
            frontier,
            obs,
            ff_d_in,
            ff_steps,
            patched,
            masked,
        }
    }

    /// Seeds the register: lane 0 (and every unused lane) resumes the good
    /// reference, lane `i + 1` resumes faulty machine `chunk[i]`.
    pub(crate) fn set_state_lanes(&mut self, reference: &[bool], chunk: &[AliveFault]) {
        assert_eq!(
            reference.len(),
            self.core.state.len(),
            "state width mismatch"
        );
        for (ff, words) in self.core.state.iter_mut().enumerate() {
            let mut row = [broadcast(reference[ff]); W];
            for (i, alive) in chunk.iter().enumerate() {
                let lane = i + 1;
                let (w, b) = (lane / 64, lane % 64);
                if alive.state[ff] {
                    row[w] |= 1u64 << b;
                } else {
                    row[w] &= !(1u64 << b);
                }
            }
            *words = row;
        }
    }

    /// Sets every lane of the register to the same state (the
    /// pattern-generation override of the random-state stimulation).
    pub(crate) fn set_state_broadcast_bits(&mut self, bits: &[bool]) {
        self.core.set_state_broadcast_bits(bits);
    }

    /// Reads the register state of one lane (stage 1 first).
    pub(crate) fn lane_state(&self, lane: usize) -> Vec<bool> {
        self.core.lane_state(lane)
    }

    /// The canonical lane memory of a faulty lane (empty for stateless
    /// injections and unfilled delay lanes).
    pub(crate) fn injection_memory(&self, lane: usize) -> Vec<bool> {
        self.core.injection_memory(lane)
    }

    /// Seeds the lane memory of a faulty lane from its canonical form
    /// (no-op for stateless injections).
    pub(crate) fn seed_injection_memory(&mut self, lane: usize, memory: &[bool]) {
        self.core.seed_injection_memory(lane, memory);
    }

    /// The per-cycle divergence check: recomputes the per-word divergence
    /// masks (all-ones on every word with at least one lane whose register
    /// state differs from the good machine) and returns whether the block
    /// needs the wide step set this cycle.
    pub(crate) fn needs_wide(&mut self, good_pre_state: &[bool]) -> bool {
        let mut div = [0u64; W];
        for (row, &bit) in self.core.state.iter().zip(good_pre_state) {
            let good = broadcast(bit);
            for k in 0..W {
                div[k] |= row[k] ^ good;
            }
        }
        let mut wide = false;
        for d in div.iter_mut() {
            *d = if *d != 0 { u64::MAX } else { 0 };
            wide |= *d != 0;
        }
        for (old, new) in self.div.iter().zip(&div) {
            match (*old != 0, *new != 0) {
                (false, true) => self.metrics.widenings += 1,
                (true, false) => self.metrics.narrowings += 1,
                _ => {}
            }
        }
        self.div = div;
        wide
    }

    /// Evaluates the selected step set for this cycle by draining the
    /// levelized worklist: only steps whose inputs changed since the cycle
    /// they were last evaluated are recomputed (frontier good-value diffs,
    /// state-register loads and the always-dirty fault sites seed the
    /// events).  The full member sweep remains as the fallback whenever
    /// stored values cannot be trusted incrementally: after a set rebuild,
    /// on entry into the wide set, or when a word newly diverges while
    /// wide.
    pub(crate) fn eval_cycle(&mut self, wide: bool, good_row: &[u64], inputs: &[u64]) {
        let full = match self.last_eval {
            LastEval::Stale => true,
            LastEval::Narrow => wide,
            LastEval::Wide => wide && (0..W).any(|k| self.div[k] & !self.valid_div[k] != 0),
        };
        if full {
            self.metrics.full_sweeps += 1;
            let set = if wide { &self.wide } else { &self.narrow };
            for &n in &set.frontier {
                self.core.values[n as usize] = [broadcast(row_bit(good_row, n as usize)); W];
            }
            self.core.eval_steps(&set.steps, inputs);
        } else {
            self.metrics.event_cycles += 1;
            self.eval_events(wide, good_row, inputs);
        }
        self.last_eval = if wide {
            LastEval::Wide
        } else {
            LastEval::Narrow
        };
        self.valid_div = if wide {
            if full {
                [u64::MAX; W]
            } else {
                self.div
            }
        } else {
            [0u64; W]
        };
    }

    /// One event-driven evaluation: seed change events, then drain the
    /// pending bitset in ascending net id (a topological order in which
    /// bridge aggressors also precede their victims).
    fn eval_events(&mut self, wide: bool, good_row: &[u64], inputs: &[u64]) {
        let netlist = self.core.netlist;
        let plan = netlist.plan();
        let fanin = plan.fanin();
        let set = if wide { &self.wide } else { &self.narrow };
        let member_steps = set.steps.len() as u64;
        let div = self.div;
        let pending = &mut self.pending;
        // Telemetry tallies stay local through the drain (the closure
        // below needs them by parameter) and are committed at the end.
        let mut scheduled = 0u64;
        let mut drained = 0u64;
        let mark_consumers = |pending: &mut Vec<u64>, scheduled: &mut u64, n: usize| {
            for &t in plan.fanout_steps(n) {
                if row_bit(&set.member, t as usize) {
                    let (w, b) = (t as usize / 64, t % 64);
                    if pending[w] & (1u64 << b) == 0 {
                        pending[w] |= 1u64 << b;
                        *scheduled += 1;
                    }
                }
            }
        };
        // Event source 1: frontier nets whose broadcast good value changed
        // since they were last seeded.
        for &n in &set.frontier {
            let n = n as usize;
            let good = [broadcast(row_bit(good_row, n)); W];
            if self.core.values[n] != good {
                self.core.values[n] = good;
                mark_consumers(pending, &mut scheduled, n);
            }
        }
        // Event source 2: register loads — member flip-flop steps whose
        // state row no longer matches their stored Q value (covers the
        // clock edge, the random-state overrides and the segment reseed).
        for &(q, k) in &set.ff_steps {
            if self.core.values[q as usize] != self.core.state[k as usize] {
                pending[q as usize / 64] |= 1u64 << (q % 64);
            }
        }
        // Event source 3: fault sites are always dirty — their raw value
        // must stay fresh for the transition memories, and their injected
        // masks and bridge aggressors change the output without any fan-in
        // event.
        for &p in &set.patched {
            pending[p as usize / 64] |= 1u64 << (p % 64);
        }
        // Drain in ascending net id; consumers always sit at higher ids, so
        // a single forward scan never misses a mark.
        let full_mask = [u64::MAX; W];
        let mut w = 0;
        while w < pending.len() {
            let word = pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let bit = word.trailing_zeros() as usize;
            pending[w] &= !(1u64 << bit);
            let id = w * 64 + bit;
            drained += 1;
            let mask = if row_bit(&set.masked, id) {
                &div
            } else {
                &full_mask
            };
            if self.core.eval_step_changed(id, fanin, inputs, mask) {
                mark_consumers(pending, &mut scheduled, id);
            }
        }
        self.metrics.events_scheduled += scheduled;
        self.metrics.events_drained += drained;
        // Each member step is evaluated at most once per drain, so the
        // difference is exactly the quiescent logic the worklist skipped.
        self.metrics.steps_skipped += member_steps.saturating_sub(drained);
    }

    /// The lanes whose observation points differ from the good machine
    /// after the last [`DiffSimulator::eval_cycle`] (pass the same `wide`).
    /// Masked (register-cone-only) observation points contribute only on
    /// diverged words — their converged words provably carry the good
    /// value, even when the event scheduler left them stale.
    pub(crate) fn mismatch(&self, wide: bool, good_row: &[u64]) -> [u64; W] {
        let set = if wide { &self.wide } else { &self.narrow };
        let mut acc = [0u64; W];
        for &net in &set.obs {
            let good = broadcast(row_bit(good_row, net as usize));
            let value = &self.core.values[net as usize];
            if row_bit(&set.masked, net as usize) {
                for k in 0..W {
                    acc[k] |= (value[k] ^ good) & self.div[k];
                }
            } else {
                for (a, &v) in acc.iter_mut().zip(value.iter()) {
                    *a |= v ^ good;
                }
            }
        }
        acc
    }

    /// The packed value of `net` after the last evaluation: the computed
    /// lane words if the net was in the evaluated set, the broadcast good
    /// value otherwise (every lane provably agrees with the reference).
    /// Converged words of masked members substitute the good value for the
    /// same reason.
    pub(crate) fn net_value(&self, wide: bool, net: usize, good_row: &[u64]) -> [u64; W] {
        let set = if wide { &self.wide } else { &self.narrow };
        if row_bit(&set.member, net) {
            let v = self.core.values[net];
            if row_bit(&set.masked, net) {
                let good = broadcast(row_bit(good_row, net));
                std::array::from_fn(|k| (v[k] & self.div[k]) | (good & !self.div[k]))
            } else {
                v
            }
        } else {
            [broadcast(row_bit(good_row, net)); W]
        }
    }

    /// Clocks the register: member D nets load their computed lane words
    /// (masked members per diverged word), the rest load the broadcast good
    /// value.  Also commits the one-cycle transition memories.
    pub(crate) fn clock_cycle(&mut self, wide: bool, good_row: &[u64]) {
        let plan = self.core.netlist.plan();
        let set = if wide { &self.wide } else { &self.narrow };
        for (i, &d) in plan.flip_flop_inputs().iter().enumerate() {
            let d = d as usize;
            let good = broadcast(row_bit(good_row, d));
            self.core.state[i] = if set.ff_d_in[i] {
                let v = self.core.values[d];
                if row_bit(&set.masked, d) {
                    std::array::from_fn(|k| (v[k] & self.div[k]) | (good & !self.div[k]))
                } else {
                    v
                }
            } else {
                [good; W]
            };
        }
        self.core.commit_transitions();
    }

    /// One fused campaign cycle: pick narrow/wide from the divergence
    /// check, evaluate, compare against the good machine, drop newly
    /// detected lanes from the active mask, clock, clamp retired lanes back
    /// onto the good state and re-narrow the cone union if at least half of
    /// the block's faults have been retired since it was last built.
    /// Returns the newly detected lanes.
    pub(crate) fn step_detect(
        &mut self,
        good_row: &[u64],
        good_pre_state: &[bool],
        inputs: &[u64],
    ) -> [u64; W] {
        let wide = self.needs_wide(good_pre_state);
        self.eval_cycle(wide, good_row, inputs);
        let mut detected = self.mismatch(wide, good_row);
        for (d, a) in detected.iter_mut().zip(self.active.iter_mut()) {
            *d &= *a;
            *a &= !*d;
        }
        self.clock_cycle(wide, good_row);
        // Clamp every retired (and unused) lane back onto the good state so
        // it stops forcing wide evaluation; the good next state is the
        // broadcast of the good machine's D values.
        let plan = self.core.netlist.plan();
        let live = self.active;
        for (i, &d) in plan.flip_flop_inputs().iter().enumerate() {
            let good = broadcast(row_bit(good_row, d as usize));
            for (s, &l) in self.core.state[i].iter_mut().zip(live.iter()) {
                *s = (*s & l) | (good & !l);
            }
        }
        let count = self.active_count();
        if count > 0 && count * 2 <= self.narrow_basis {
            self.metrics.compaction_rebuilds += 1;
            self.rebuild_sets();
        }
        detected
    }
}

/// The per-segment output of one lane block: the `(fault index, cycle)`
/// detections and the surviving faults (with their carried register state
/// and transition memory), in lane order — plus the block's scheduler
/// tallies and its busy span relative to the segment's fan-out epoch.
struct BlockResult {
    detections: Vec<(usize, usize)>,
    survivors: Vec<AliveFault>,
    metrics: CampaignMetrics,
    span: (u64, u64),
}

/// Runs one `W`-word lane block over cycles `from..to` of a campaign
/// segment against the shared good trace.
#[allow(clippy::too_many_arguments)]
fn run_block<const W: usize>(
    netlist: &Netlist,
    chunk: &[AliveFault],
    trace: &GoodTrace,
    stimulus: &Stimulus,
    pi_words: &[u64],
    stimulation: StateStimulation,
    reference_state: &[bool],
    from: usize,
    to: usize,
    epoch: PhaseTimer,
) -> BlockResult {
    let span_start = epoch.elapsed_ns();
    let num_inputs = netlist.primary_inputs().len();
    let num_state = netlist.flip_flops().len();
    let injections: Vec<Injection> = chunk.iter().map(|a| a.fault.clone()).collect();
    let mut sim = DiffSimulator::<W>::with_injections(netlist, &injections);
    sim.set_state_lanes(reference_state, chunk);
    for (i, alive_fault) in chunk.iter().enumerate() {
        sim.seed_injection_memory(i + 1, &alive_fault.memory);
    }
    let mut detections = Vec::new();
    for cycle in from..to {
        if sim.active_is_empty() {
            break;
        }
        if stimulation == StateStimulation::RandomState {
            sim.set_state_broadcast_bits(&stimulus.st(cycle)[..num_state]);
        }
        let row = cycle * num_inputs;
        let detected = sim.step_detect(
            trace.row(cycle),
            trace.pre_state(cycle),
            &pi_words[row..row + num_inputs],
        );
        for (w, &word) in detected.iter().enumerate() {
            let mut lanes = word;
            while lanes != 0 {
                let lane = w * 64 + lanes.trailing_zeros() as usize;
                detections.push((chunk[lane - 1].index, cycle));
                lanes &= lanes - 1;
            }
        }
    }
    let mut survivors = Vec::new();
    let active = sim.active();
    for (w, &word) in active.iter().enumerate() {
        let mut lanes = word;
        while lanes != 0 {
            let lane = w * 64 + lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let alive_fault = &chunk[lane - 1];
            survivors.push(AliveFault {
                index: alive_fault.index,
                fault: alive_fault.fault.clone(),
                state: sim.lane_state(lane),
                memory: sim.injection_memory(lane),
            });
        }
    }
    BlockResult {
        detections,
        survivors,
        metrics: sim.take_metrics(),
        span: (span_start, epoch.elapsed_ns()),
    }
}

/// Folds per-chunk busy spans into per-worker [`WorkerSpan`]s, replicating
/// the contiguous-group sharding of [`sharded_map`] (`worker = chunk index
/// / group length`): each worker's span runs from its first chunk starting
/// to its last chunk finishing.  Measurement only — the spans never feed
/// back into scheduling.
pub(crate) fn fold_worker_spans(spans: &[(u64, u64)], threads: usize) -> Vec<WorkerSpan> {
    let workers = threads.max(1).min(spans.len().max(1));
    if workers <= 1 || spans.is_empty() {
        return Vec::new();
    }
    let group_len = spans.len().div_ceil(workers);
    let mut folded: Vec<WorkerSpan> = Vec::new();
    for (i, &(start_ns, end_ns)) in spans.iter().enumerate() {
        let worker = i / group_len;
        match folded.last_mut() {
            Some(last) if last.worker == worker => {
                last.start_ns = last.start_ns.min(start_ns);
                last.end_ns = last.end_ns.max(end_ns);
            }
            _ => folded.push(WorkerSpan {
                worker,
                start_ns,
                end_ns,
            }),
        }
    }
    folded
}

/// One worker's per-item results: each slot is either the item's result
/// or the panic message of a worker panic caught around that item.
type ShardSlots<R> = Vec<Result<R, String>>;

/// Runs one item inside a worker, consulting the chaos plan first and
/// converting a panic (injected or organic) into its message.  The
/// failpoint fires *before* `f` touches the item, so an injected panic
/// always leaves the item's state untouched and the quarantined re-run is
/// bit-for-bit equivalent to never having panicked.
fn run_shard_item<R>(
    chaos_call: Option<u64>,
    item_index: usize,
    f: impl FnOnce() -> R,
) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if crate::failpoints::worker_panic_armed(chaos_call, item_index) {
            panic!("failpoint: injected worker panic at item {item_index}");
        }
        f()
    }))
    .map_err(|payload| crate::error::panic_message(payload.as_ref()))
}

/// Maps independent work items through `f`, fanned out over up to
/// `threads` scoped workers in contiguous groups.  Results are merged in
/// item order, so the output is identical for any worker count — the one
/// sharding discipline shared by the differential detection driver and
/// the differential dictionary pass.
///
/// Worker panics are isolated per item: a panicking item is quarantined
/// and deterministically re-run in-line on the campaign thread (the item
/// is immutable, so the re-run sees exactly the state the worker saw, and
/// the merged results stay bit-for-bit identical to a panic-free run).
/// Returns the in-order results plus the number of recoveries; a re-run
/// that panics again propagates, to be converted into
/// [`CampaignError::WorkerPanic`](crate::error::CampaignError::WorkerPanic)
/// at the campaign boundary.
pub(crate) fn sharded_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, u64) {
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        return (items.iter().map(&f).collect(), 0);
    }
    let chaos_call = crate::failpoints::begin_fan_out();
    let group_len = items.len().div_ceil(workers);
    let f = &f;
    let slots: Vec<ShardSlots<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(group_len)
            .enumerate()
            .map(|(group_index, group)| {
                scope.spawn(move || {
                    group
                        .iter()
                        .enumerate()
                        .map(|(i, item)| {
                            run_shard_item(chaos_call, group_index * group_len + i, || f(item))
                        })
                        .collect::<ShardSlots<R>>()
                })
            })
            .collect();
        // Joined in spawn order, which is item order: deterministic merge.
        // Per-item panics were caught inside the worker, so a join failure
        // is a panic outside the guarded region; resume it.
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut results = Vec::with_capacity(items.len());
    let mut recovered = 0u64;
    for (index, slot) in slots.into_iter().flatten().enumerate() {
        match slot {
            Ok(result) => results.push(result),
            Err(_) => {
                // Quarantined deterministic re-run on the campaign thread.
                recovered += 1;
                results.push(f(&items[index]));
            }
        }
    }
    (results, recovered)
}

/// The mutable sibling of [`sharded_map`]: fans `f` out over contiguous
/// groups of *mutable* items — the persistent per-block simulator states
/// of the streaming dictionary pass — with the same deterministic
/// in-order merge and the same per-item panic quarantine.
///
/// The recovery guarantee matches the injection window: failpoint panics
/// fire before `f` touches the item, so the in-line re-run of an injected
/// panic is bit-for-bit identical to a panic-free run.  An organic panic
/// from *inside* `f` may leave the item's state partially advanced; the
/// re-run still completes the run (strictly better than the poisoned-
/// thread death it replaces), and the recovery is counted so callers can
/// see it happened.
pub(crate) fn sharded_map_mut<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(&mut T) -> R + Sync,
) -> (Vec<R>, u64) {
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        return (items.iter_mut().map(&f).collect(), 0);
    }
    let chaos_call = crate::failpoints::begin_fan_out();
    let group_len = items.len().div_ceil(workers);
    let f = &f;
    let slots: Vec<ShardSlots<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(group_len)
            .enumerate()
            .map(|(group_index, group)| {
                scope.spawn(move || {
                    group
                        .iter_mut()
                        .enumerate()
                        .map(|(i, item)| {
                            run_shard_item(chaos_call, group_index * group_len + i, || f(item))
                        })
                        .collect::<ShardSlots<R>>()
                })
            })
            .collect();
        // Joined in spawn order, which is item order: deterministic merge.
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut results = Vec::with_capacity(items.len());
    let mut recovered = 0u64;
    for (index, slot) in slots.into_iter().flatten().enumerate() {
        match slot {
            Ok(result) => results.push(result),
            Err(_) => {
                recovered += 1;
                results.push(f(&mut items[index]));
            }
        }
    }
    (results, recovered)
}

/// The differential campaign driver as a segment runner, generalized over
/// a worker count: each segment records the good machine's trace **once**
/// and shares it read-only across all lane blocks, processed either
/// in-line (`threads <= 1`) or fanned out over `std::thread::scope`
/// workers in contiguous block groups.
///
/// Every fault's trajectory is that of its own isolated machine — block
/// packing and worker scheduling never change results, only wall-clock
/// time — and blocks are merged in block order, so the result is
/// bit-for-bit identical to the single-threaded engines regardless of the
/// thread count.  Once the survivors of a small machine fit one packed
/// chunk, the runner switches to the same compiled
/// [`TableTail`] as the packed engine, keeping the two engines
/// interchangeable.
pub(crate) struct DiffSegments<'a> {
    netlist: &'a Netlist,
    stimulus: Stimulus,
    stimulation: StateStimulation,
    /// Broadcast input words of the generated rows (cycle-major), extended
    /// lazily per segment, covering cycles `0..packed_cycles`.
    pi_words: Vec<u64>,
    packed_cycles: usize,
    threads: usize,
    /// The lane-block word count (dispatched in
    /// [`DiffSegments::run_segment`]).
    words: usize,
    /// The campaign-wide good-trace cache, shared with any other
    /// differential pass of the same campaign.
    cache: &'a mut GoodTraceCache,
    reference_state: Vec<bool>,
    alive: Vec<AliveFault>,
    table: Option<TableTail>,
    /// Telemetry of the segment in flight, drained by
    /// [`SegmentRunner::telemetry_snapshot`].
    metrics: CampaignMetrics,
    workers: Vec<WorkerSpan>,
    /// Stimulus rows already tallied into
    /// [`CampaignMetrics::stimulus_patterns`].
    counted_generated: usize,
}

impl<'a> DiffSegments<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        netlist: &'a Netlist,
        faults: &[Injection],
        mut stimulus: Stimulus,
        stimulation: StateStimulation,
        threads: usize,
        words: usize,
        cache: &'a mut GoodTraceCache,
    ) -> Self {
        let num_state = netlist.flip_flops().len();
        // Scan initialisation needs the first random state up front.
        stimulus.ensure(1);
        let init_state = stimulus.st(0)[..num_state].to_vec();
        Self {
            netlist,
            stimulus,
            stimulation,
            pi_words: Vec::new(),
            packed_cycles: 0,
            threads,
            words,
            cache,
            reference_state: init_state.clone(),
            alive: initial_alive(faults, &init_state),
            table: None,
            metrics: CampaignMetrics::default(),
            workers: Vec::new(),
            counted_generated: 0,
        }
    }

    /// Resumes from a detect checkpoint (see
    /// `ScalarSegments::restore` in [`crate::coverage`]): the carried
    /// reference state and survivor list replace the campaign-start
    /// images.  The restored survivors arrive in ascending fault order, so
    /// they pack into the same lane blocks the uninterrupted run's
    /// compaction produced at this boundary.
    pub(crate) fn restore(
        &mut self,
        faults: &[Injection],
        reference_state: &[bool],
        survivors: &[crate::checkpoint::SurvivorRecord],
        _from: usize,
        generated: usize,
    ) {
        self.reference_state = reference_state.to_vec();
        self.alive = crate::coverage::restore_alive(faults, survivors);
        self.stimulus.ensure(generated);
        self.counted_generated = generated;
    }

    /// The segment body at a concrete lane-block width.
    fn run_blocks<const W: usize>(
        &mut self,
        from: usize,
        to: usize,
        detections: &mut Vec<(usize, usize)>,
    ) {
        // Field destructuring: the good trace borrows the cache while the
        // block fan-out reads the other fields.
        let Self {
            netlist,
            stimulus,
            stimulation,
            pi_words,
            threads,
            cache,
            reference_state,
            alive,
            metrics,
            workers,
            ..
        } = self;
        // One good-machine recording per segment, shared by every block,
        // every worker and (through the cache) every pass of the campaign.
        let good_timer = PhaseTimer::start();
        let (trace, cache_hit) =
            cache.get_or_record(netlist, stimulus, *stimulation, reference_state, from, to);
        metrics.good_trace_ns += good_timer.elapsed_ns();
        metrics.cache_lookups += 1;
        if cache_hit {
            metrics.cache_hits += 1;
        } else {
            metrics.cache_misses += 1;
        }
        let chunks: Vec<&[AliveFault]> = alive.chunks(LaneBlock::<W>::FAULT_LANES).collect();
        let epoch = PhaseTimer::start();
        let (block_results, panics_recovered): (Vec<BlockResult>, u64) =
            sharded_map(&chunks, *threads, |chunk| {
                run_block::<W>(
                    netlist,
                    chunk,
                    trace,
                    stimulus,
                    pi_words,
                    *stimulation,
                    reference_state,
                    from,
                    to,
                    epoch,
                )
            });
        metrics.fault_eval_ns += epoch.elapsed_ns();
        metrics.worker_panics_recovered += panics_recovered;
        let spans: Vec<(u64, u64)> = block_results.iter().map(|b| b.span).collect();
        workers.extend(fold_worker_spans(&spans, *threads));
        let mut survivors: Vec<AliveFault> = Vec::new();
        for block in block_results {
            detections.extend(block.detections);
            survivors.extend(block.survivors);
            metrics.absorb(&block.metrics);
        }
        *reference_state = trace.end_state().to_vec();
        *alive = survivors;
    }
}

impl SegmentRunner for DiffSegments<'_> {
    fn run_segment(&mut self, from: usize, to: usize, detections: &mut Vec<(usize, usize)>) {
        let total_cycles = self.stimulus.cycles;
        if self.table.is_none() {
            if self.alive.is_empty() {
                return;
            }
            // The same compiled-table tail as the packed engine, under the
            // same conditions, so the two engines stay bit-for-bit
            // interchangeable.
            if self.alive.len() <= PACKED_FAULT_LANES
                && LaneTables::applicable(
                    self.netlist,
                    &self.alive,
                    self.alive.len() + 1,
                    total_cycles - from,
                )
            {
                self.table = Some(TableTail::new(
                    self.netlist,
                    &self.alive,
                    &self.reference_state,
                ));
                self.alive = Vec::new();
                // The tail reads the boolean rows directly; the broadcast
                // input words are dead weight from here on.
                self.pi_words = Vec::new();
            }
        }
        let stim_timer = PhaseTimer::start();
        self.stimulus.ensure(to);
        self.metrics.stimulus_patterns +=
            (self.stimulus.generated_cycles() - self.counted_generated) as u64;
        self.counted_generated = self.stimulus.generated_cycles();
        self.metrics.stimulus_ns += stim_timer.elapsed_ns();
        self.metrics.cycles_simulated += (to - from) as u64;
        if let Some(table) = &mut self.table {
            let eval_timer = PhaseTimer::start();
            table.run(&self.stimulus, self.stimulation, from, to, detections);
            self.metrics.fault_eval_ns += eval_timer.elapsed_ns();
            return;
        }
        // Extend the broadcast input words over this segment's rows.
        for cycle in self.packed_cycles..to {
            self.pi_words
                .extend(self.stimulus.pi(cycle).iter().map(|&b| broadcast(b)));
        }
        self.packed_cycles = self.packed_cycles.max(to);

        match self.words {
            1 => self.run_blocks::<1>(from, to, detections),
            8 => self.run_blocks::<8>(from, to, detections),
            _ => self.run_blocks::<4>(from, to, detections),
        }
    }

    fn stimulus_cycles(&self) -> usize {
        self.stimulus.generated_cycles()
    }

    fn telemetry_snapshot(&mut self) -> crate::telemetry::SegmentTelemetry {
        crate::telemetry::SegmentTelemetry {
            metrics: std::mem::take(&mut self.metrics),
            workers: std::mem::take(&mut self.workers),
            ..crate::telemetry::SegmentTelemetry::default()
        }
    }

    fn capture(&mut self) -> Option<crate::checkpoint::EngineSnapshot> {
        Some(match &self.table {
            Some(table) => crate::checkpoint::EngineSnapshot::Detect {
                reference_state: table.reference_state_bits(),
                survivors: table.survivor_records(),
            },
            None => crate::checkpoint::EngineSnapshot::Detect {
                reference_state: self.reference_state.clone(),
                survivors: crate::coverage::survivor_records(&self.alive),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::coverage::{CampaignConfig, CoverageResult, SimEngine};
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::build_netlist;
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::{all_models, FaultList, StuckAt};
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    fn pst_netlist() -> Netlist {
        let fsm = modulo12_exact().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("pst", &cover, &lay, BistStructure::Pst, Some(poly)).unwrap()
    }

    fn dff_netlist() -> Netlist {
        let fsm = fig3_example().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let transform = RegisterTransform::Dff;
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("dff", &cover, &lay, BistStructure::Dff, None).unwrap()
    }

    /// A one-section coverage campaign over `faults` on `engine`.
    fn coverage(
        netlist: &Netlist,
        faults: &[Injection],
        engine: SimEngine,
        threads: usize,
        max_patterns: usize,
    ) -> CoverageResult {
        Campaign::new(netlist)
            .config(CampaignConfig {
                max_patterns,
                engine,
                threads,
                ..Default::default()
            })
            .faults("faults", faults.to_vec())
            .run()
            .coverage(0)
    }

    #[test]
    fn lane_block_geometry() {
        assert_eq!(LaneBlock::<1>::LANES, 64);
        assert_eq!(LaneBlock::<1>::FAULT_LANES, 63);
        assert_eq!(LaneBlock::<4>::LANES, 256);
        assert_eq!(LaneBlock::<4>::FAULT_LANES, 255);
        assert_eq!(LaneBlock::<4>::WORDS, 4);
        assert_eq!(BLOCK_FAULT_LANES, 255);
    }

    /// The narrow set must contain every active fault site, the frontier
    /// must be disjoint from the members, and the wide set must be a
    /// superset of the narrow one.
    #[test]
    fn step_sets_are_consistent() {
        let netlist = pst_netlist();
        let faults: Vec<Injection> = FaultList::collapsed(&netlist)
            .faults()
            .iter()
            .map(|&f| f.into())
            .take(100)
            .collect();
        let sim = DiffSimulator::<4>::with_injections(&netlist, &faults);
        for injection in &faults {
            assert!(
                row_bit(&sim.narrow.member, injection.patched_gate()),
                "site of {injection} missing from the narrow set"
            );
        }
        for &f in &sim.narrow.frontier {
            assert!(!row_bit(&sim.narrow.member, f as usize));
        }
        for (w, &word) in sim.narrow.member.iter().enumerate() {
            assert_eq!(word & !sim.wide.member[w], 0, "narrow ⊄ wide at word {w}");
        }
        // Steps are listed in topological (ascending net) order.
        assert!(sim.narrow.steps.windows(2).all(|p| p[0] < p[1]));
        assert!(sim.wide.steps.windows(2).all(|p| p[0] < p[1]));
        // A single-fault block restricts to that fault's cone — strictly
        // fewer steps than the full plan: the whole point of the engine.
        let single = DiffSimulator::<4>::with_injections(&netlist, &faults[..1]);
        assert_eq!(
            single.narrow.steps.len(),
            netlist
                .plan()
                .fanout_cone(faults[0].patched_gate())
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        );
        assert!(single.narrow.steps.len() < netlist.gates().len());
    }

    /// The differential campaign must reproduce the packed campaign
    /// bit-for-bit on the suite machines, for stuck-at self-tests and for
    /// every fault model (including the stateful transition faults whose
    /// machines diverge for many cycles under system-state stimulation).
    #[test]
    fn differential_matches_packed_on_fixed_machines() {
        for netlist in [pst_netlist(), dff_netlist()] {
            let stuck_at = |engine| {
                Campaign::new(&netlist)
                    .model(&StuckAt)
                    .engine(engine)
                    .patterns(768)
                    .run()
                    .coverage(0)
            };
            let packed = stuck_at(SimEngine::Packed);
            let differential = stuck_at(SimEngine::Differential);
            assert_eq!(packed, differential, "stuck-at on {}", netlist.name());
            for model in all_models() {
                let faults = model.fault_list(&netlist, true);
                let packed = coverage(&netlist, &faults, SimEngine::Packed, 1, 768);
                let differential = coverage(&netlist, &faults, SimEngine::Differential, 1, 768);
                assert_eq!(
                    packed,
                    differential,
                    "{} on {}",
                    model.name(),
                    netlist.name()
                );
            }
        }
    }

    /// A mixed-model fault universe exceeding one 255-lane block exercises
    /// stuck-pin, transition and bridge patches across block boundaries.
    #[test]
    fn differential_handles_multi_block_fault_lists() {
        let netlist = pst_netlist();
        let faults: Vec<Injection> = all_models()
            .iter()
            .flat_map(|m| m.fault_list(&netlist, false))
            .collect();
        assert!(
            faults.len() > BLOCK_FAULT_LANES,
            "need more than one block, got {} faults",
            faults.len()
        );
        let packed = coverage(&netlist, &faults, SimEngine::Packed, 1, 256);
        let differential = coverage(&netlist, &faults, SimEngine::Differential, 1, 256);
        assert_eq!(packed, differential);
    }

    /// Worker fan-out over the shared per-segment trace must not change a
    /// single detection, for any worker count (including more workers than
    /// blocks).
    #[test]
    fn sharded_driver_is_worker_count_invariant() {
        let netlist = pst_netlist();
        let faults: Vec<Injection> = all_models()
            .iter()
            .flat_map(|m| m.fault_list(&netlist, false))
            .collect();
        let single = coverage(&netlist, &faults, SimEngine::Differential, 1, 192);
        for threads in [2usize, 3, 17, 64] {
            let sharded = coverage(&netlist, &faults, SimEngine::Differential, threads, 192);
            assert_eq!(single, sharded, "{threads} workers");
        }
    }

    /// sand's PST netlist as the synthesis flow builds it (MISR assignment,
    /// default minimizer).
    fn sand_pst_netlist() -> Netlist {
        let fsm = stfsm_fsm::suite::benchmark("sand").unwrap().fsm().unwrap();
        let assignment =
            stfsm_encode::misr::assign(&fsm, &stfsm_encode::misr::MisrAssignmentConfig::default());
        let transform = RegisterTransform::Misr(Misr::new(assignment.feedback).unwrap());
        let pla = build_pla(&fsm, &assignment.encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &assignment.encoding, &transform);
        build_netlist(
            "sand",
            &cover,
            &lay,
            BistStructure::Pst,
            Some(assignment.feedback),
        )
        .unwrap()
    }

    /// Runs the fault-free machine (lane 0) and one scalar machine per
    /// injection (lane `i` carries `injections[i - 1]`) for 200 seeded
    /// cycles from register state `init`, and checks every net of every
    /// lane against the net words that `cycle` returns.  `cycle` gets the
    /// good machine's pre-state, its net values as a bit row and the
    /// broadcast input words; it evaluates and clocks the packed engine
    /// once.
    fn check_lanes_against_scalar<const W: usize>(
        netlist: &Netlist,
        injections: &[Injection],
        init: &[bool],
        seed: u64,
        mut cycle: impl FnMut(&[bool], &[u64], &[u64]) -> Vec<[u64; W]>,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut scalar: Vec<Simulator> = std::iter::once(Simulator::new(netlist))
            .chain(
                injections
                    .iter()
                    .map(|i| Simulator::with_injection(netlist, i.clone())),
            )
            .collect();
        for sim in &mut scalar {
            sim.set_state(init);
        }
        let num_nets = netlist.gates().len();
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..200 {
            let inputs: Vec<bool> = (0..netlist.primary_inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let words: Vec<u64> = inputs.iter().map(|&b| broadcast(b)).collect();
            let pre_state = scalar[0].state().to_vec();
            for sim in &mut scalar {
                sim.evaluate(&inputs);
            }
            let mut good_row = vec![0u64; num_nets.div_ceil(64)];
            for net in 0..num_nets {
                if scalar[0].net(net) {
                    good_row[net / 64] |= 1u64 << (net % 64);
                }
            }
            let values = cycle(&pre_state, &good_row, &words);
            for (net, value) in values.iter().enumerate() {
                for (lane, sim) in scalar.iter().enumerate() {
                    assert_eq!(
                        (value[lane / 64] >> (lane % 64)) & 1 == 1,
                        sim.net(net),
                        "cycle {t}, net {net}, lane {lane}: {:?}",
                        injections.get(lane.wrapping_sub(1))
                    );
                }
            }
            for sim in &mut scalar {
                sim.clock();
            }
        }
    }

    /// Every pin fault of a gate wider than one word, in shuffled order,
    /// plus one key on two lanes and one bridge pair as both wired-AND and
    /// wired-OR: the patch merge must give every lane the scalar
    /// reference's net values, at `W = 1` (three chunks) and in one `W = 8`
    /// block spanning three words.
    #[test]
    fn pin_patch_merge_matches_scalar_on_a_wide_gate() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        const FAULT_LANES: usize = LaneBlock::<1>::FAULT_LANES;
        let netlist = sand_pst_netlist();
        let num_nets = netlist.gates().len();
        let (gate, width) = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(id, g)| (id, g.fanin().len()))
            .max_by_key(|&(_, width)| width)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0x5A4D);
        let mut injections: Vec<Injection> = (0..width)
            .flat_map(|pin| [false, true].map(|value| Injection::StuckPin { gate, pin, value }))
            .collect();
        assert!(
            injections.len() > 2 * FAULT_LANES,
            "widest gate has only {width} pins"
        );
        injections.shuffle(&mut rng);
        // The first fault of the third W = 1 chunk sits in word 1 of the
        // W = 8 block; its copy and the bridge pair land in word 2.
        injections.push(injections[2 * FAULT_LANES].clone());
        let aggressor = netlist.gates()[gate].fanin()[0];
        for wired_and in [true, false] {
            injections.push(Injection::Bridge {
                victim: gate,
                aggressor,
                wired_and,
            });
        }
        assert!(injections.len() < LaneBlock::<8>::LANES);
        let init: Vec<bool> = (0..netlist.flip_flops().len())
            .map(|_| rng.gen_bool(0.5))
            .collect();

        for (c, chunk) in injections.chunks(FAULT_LANES).enumerate() {
            let mut sim = PackedCore::<1>::compile(&netlist, chunk);
            sim.set_state_broadcast_bits(&init);
            check_lanes_against_scalar(&netlist, chunk, &init, c as u64, |_, _, words| {
                sim.eval_all(words);
                let values = sim.values.clone();
                sim.clock();
                values
            });
        }

        let mut sim = DiffSimulator::<8>::with_injections(&netlist, &injections);
        sim.set_state_broadcast_bits(&init);
        check_lanes_against_scalar(
            &netlist,
            &injections,
            &init,
            0,
            |pre_state, good_row, words| {
                let wide = sim.needs_wide(pre_state);
                sim.eval_cycle(wide, good_row, words);
                let values = (0..num_nets)
                    .map(|net| sim.net_value(wide, net, good_row))
                    .collect();
                sim.clock_cycle(wide, good_row);
                values
            },
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_faults_panics() {
        let netlist = dff_netlist();
        let faults = vec![
            Injection::StuckOutput {
                net: 0,
                value: true
            };
            LaneBlock::<1>::FAULT_LANES + 1
        ];
        let _ = DiffSimulator::<1>::with_injections(&netlist, &faults);
    }
}
