//! The single word-parallel simulation core shared by every packed engine.
//!
//! Both campaign engines — the classic 64-way packed simulator of
//! [`crate::packed`] and the cone-restricted differential lane blocks of
//! [`crate::differential`] — simulate the same thing: `64 * W` machines per
//! [`LaneBlock`](crate::differential::LaneBlock), advanced by word-wide
//! logic operations over a compiled instruction stream, with fault
//! injection folded into per-lane masks.  This module owns that machinery
//! *once*, generic over the word count `W`:
//!
//! * the **compiler** ([`PackedCore::compile`]) that specialises the
//!   netlist's [`EvalPlan`](stfsm_bist::netlist::EvalPlan) per fault chunk
//!   — inline operands for arity ≤ 2, shared fan-in ranges for wider
//!   gates, and a side table for every instruction carrying an injected
//!   fault (fault lists enumerate a gate's pins one after another, so one
//!   chunk may patch every pin of a wide gate);
//! * the **evaluator** ([`PackedCore::eval_all`] /
//!   [`PackedCore::eval_steps`]) sweeping the whole plan or a restricted
//!   step set, plus the change-detecting single-step form
//!   ([`PackedCore::eval_step_changed`]) the event-driven differential
//!   scheduler drains its levelized worklist with;
//! * the branch-free **injection algebra** (stuck outputs/pins, delayed
//!   transitions with their one-cycle memory, aggressor–victim bridges) in
//!   [`eval_patched`].
//!
//! `PackedSimulator` is literally the `W = 1` instantiation of this core
//! (one word, 63 fault lanes + the reference in lane 0);
//! `DiffSimulator<W>` wraps the same core with cone-restricted step sets
//! and a shared good-machine trace, at `W = 4` or `W = 8` words per block.
//! The wide-`W` hot loops — the N-ary fan-in folds — accumulate in place
//! with explicitly unrolled `u64`-quad bodies ([`acc_words`]), so the
//! `W = 8` instantiation vectorises on stable Rust without nightly
//! `std::simd`.  There is no second copy of the step-evaluation logic
//! anywhere in the crate.

use crate::faults::Injection;
use stfsm_bist::netlist::{Netlist, PlanOp};
use stfsm_lfsr::bitvec::broadcast;

/// Compiled opcodes of the word-parallel evaluator.  The generic
/// [`PlanOp`] + fan-in-range interpretation is specialised per gate once
/// per fault chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Primary input `a`.
    In,
    /// Flip-flop output `a`.
    Ff,
    /// Constant-0 word.
    Const0,
    /// Constant-1 word.
    Const1,
    /// Single-operand complement of net `a`.
    Not,
    /// Two-operand AND over nets `a`, `b`.
    And2,
    /// Two-operand OR over nets `a`, `b`.
    Or2,
    /// Two-operand XOR over nets `a`, `b`.
    Xor2,
    /// N-ary AND over the fan-in range `a..b`.
    AndN,
    /// N-ary OR over the fan-in range `a..b`.
    OrN,
    /// N-ary XOR over the fan-in range `a..b`.
    XorN,
    /// Any gate with an injected fault (output mask, stuck pin, transition
    /// memory or bridge); `a` indexes into [`PackedCore::patched`].
    Patched,
}

/// One compiled instruction; instruction `i` produces the value of net `i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub(crate) op: Op,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// An input-pin stuck-at patch: lanes in `set` see the pin stuck at 1,
/// lanes in `clear` see it stuck at 0.
///
/// [`PackedCore::pin_patches`] holds the patches sorted by `(gate, pin)`
/// with one entry per key: [`eval_patched`] walks a gate's patches with one
/// cursor alongside its ascending operand fold, which misses a patch listed
/// out of pin order and applies only one of two patches on the same pin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PinPatch<const W: usize> {
    pub(crate) gate: u32,
    pub(crate) pin: u32,
    pub(crate) set: [u64; W],
    pub(crate) clear: [u64; W],
}

/// A bridge patch on one victim net: lanes in `and_mask` see the wired-AND
/// with the aggressor net, lanes in `or_mask` the wired-OR.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BridgePatch<const W: usize> {
    pub(crate) victim: u32,
    pub(crate) aggressor: u32,
    pub(crate) and_mask: [u64; W],
    pub(crate) or_mask: [u64; W],
}

/// Side-table entry for a faulted gate: the original opcode, its fan-in
/// range, its pin-patch, bridge-patch and path-lane ranges and its output
/// masks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PatchedGate<const W: usize> {
    pub(crate) op: PlanOp,
    pub(crate) fanin_start: u32,
    pub(crate) fanin_end: u32,
    pub(crate) patch_start: u32,
    pub(crate) patch_end: u32,
    pub(crate) bridge_start: u32,
    pub(crate) bridge_end: u32,
    /// Range into [`PackedCore::path_lanes`] of the path-delay lanes whose
    /// terminal is this gate.
    pub(crate) path_start: u32,
    pub(crate) path_end: u32,
    pub(crate) out_set: [u64; W],
    pub(crate) out_clear: [u64; W],
    /// Lanes with a slow-to-rise / slow-to-fall output.
    pub(crate) rise: [u64; W],
    pub(crate) fall: [u64; W],
}

/// Per-lane state of one [`Injection::PathDelay`] fault: the two-pattern
/// launch memory and the compiled non-robust sensitization conditions.
/// Path lanes are evaluated bit-serially at their terminal gate — path
/// counts are bounded by the model's `limit`, so the scalar loop stays off
/// the profile.
#[derive(Debug, Clone)]
pub(crate) struct PathLane {
    /// Lane word index.
    pub(crate) word: u32,
    /// Lane bit index within the word.
    pub(crate) bit: u32,
    /// The launch net (first net of the path).
    pub(crate) launch: u32,
    /// Slow polarity: `true` = the rising transition arrives late.
    pub(crate) rising: bool,
    /// Compiled sensitization conditions (net, required value) — see
    /// [`stfsm_faults::delay::path_conditions`].
    pub(crate) conds: Vec<(u32, bool)>,
    /// The launch net's value at the previous clock cycle.
    pub(crate) launch_prev: bool,
    /// The launch net's value this evaluation (committed at the clock
    /// edge).
    pub(crate) launch_seen: bool,
    /// Whether `launch_prev` holds a committed cycle yet (the first cycle
    /// has no launch transition to observe).
    pub(crate) filled: bool,
    /// Whether the lane presented the delayed value this evaluation
    /// (counted into the sensitization telemetry at the clock edge).
    pub(crate) active: bool,
}

/// The word-parallel simulation core for one [`Netlist`] and one fault
/// chunk: `64 * W` lanes, lane 0 of word 0 reserved for the fault-free
/// reference, lane `i + 1` carrying `injections[i]`.
#[derive(Debug, Clone)]
pub(crate) struct PackedCore<'a, const W: usize> {
    pub(crate) netlist: &'a Netlist,
    /// The packed value of every net after the last evaluation.
    pub(crate) values: Vec<[u64; W]>,
    /// The packed register state (one row per flip-flop, stage 1 first).
    pub(crate) state: Vec<[u64; W]>,
    /// Compiled instruction per net.
    pub(crate) code: Vec<Instr>,
    /// Faulted gates (output masks, stuck pins, delayed transitions or
    /// bridges).
    pub(crate) patched: Vec<PatchedGate<W>>,
    /// The pin patches, sorted by (gate, pin) with one entry per key.
    pub(crate) pin_patches: Vec<PinPatch<W>>,
    /// The bridge patches, sorted by (victim, aggressor) with one entry per
    /// key.
    pub(crate) bridges: Vec<BridgePatch<W>>,
    /// Per patched gate: ring of raw (pre-injection) value words of the
    /// previous clock cycles, newest first (`hist[g][s]` holds the raw
    /// word of `s + 1` cycles ago).  Sized to the deepest delay memory
    /// among the gate's lanes; empty when no lane carries memory.  Slot 0
    /// starts at the transition identity (`rise`), so transition lanes are
    /// injection-free on the first cycle.
    pub(crate) hist: Vec<Vec<[u64; W]>>,
    /// Per patched gate: number of ring slots holding committed raw values
    /// (saturating at the ring length); multi-cycle lanes stay
    /// injection-free until their depth is filled.
    pub(crate) committed: Vec<u32>,
    /// Per patched gate: the raw value of the current evaluation, shifted
    /// into the ring at the clock edge.
    pub(crate) next: Vec<[u64; W]>,
    /// Per patched gate: multi-cycle delay lane masks, grouped by depth.
    pub(crate) mc: Vec<Vec<(u32, [u64; W])>>,
    /// Path-delay lane states, grouped per terminal gate
    /// ([`PatchedGate::path_start`] / [`PatchedGate::path_end`]).
    pub(crate) path_lanes: Vec<PathLane>,
    /// Slow-polarity path launch edges committed (telemetry).
    pub(crate) path_launches: u64,
    /// Sensitized launch/capture activations committed (telemetry).
    pub(crate) path_activations: u64,
    /// The injected faults (lane `i + 1` carries `injections[i]`).
    pub(crate) injections: Vec<Injection>,
}

impl<'a, const W: usize> PackedCore<'a, W> {
    /// Compiles the evaluation plan for one fault chunk: `injections[i]`
    /// patches lane `i + 1`, lane 0 stays fault-free.
    ///
    /// # Panics
    ///
    /// Panics if more than `64 * W - 1` injections are given, or if a
    /// [`Injection::Bridge`] aggressor does not precede its victim in the
    /// topological net order.
    pub(crate) fn compile(netlist: &'a Netlist, injections: &[Injection]) -> Self {
        assert!(
            injections.len() < 64 * W,
            "at most {} faults per {W}-word block, got {}",
            64 * W - 1,
            injections.len()
        );
        let num_nets = netlist.gates().len();
        let zero = [0u64; W];
        let mut out_set = vec![zero; num_nets];
        let mut out_clear = vec![zero; num_nets];
        let mut rise = vec![zero; num_nets];
        let mut fall = vec![zero; num_nets];
        let mut pin_patches: Vec<PinPatch<W>> = Vec::new();
        let mut bridge_patches: Vec<BridgePatch<W>> = Vec::new();
        let mut mc_masks: Vec<Vec<(u32, [u64; W])>> = vec![Vec::new(); num_nets];
        let mut path_per_net: Vec<Vec<PathLane>> = vec![Vec::new(); num_nets];
        for (i, injection) in injections.iter().enumerate() {
            let lane = i + 1;
            let (word, bit) = (lane / 64, lane % 64);
            let mask = 1u64 << bit;
            match injection {
                &Injection::StuckOutput { net, value } => {
                    if value {
                        out_set[net][word] |= mask;
                    } else {
                        out_clear[net][word] |= mask;
                    }
                }
                &Injection::StuckPin { gate, pin, value } => {
                    let mut patch = PinPatch {
                        gate: gate as u32,
                        pin: pin as u32,
                        set: zero,
                        clear: zero,
                    };
                    if value {
                        patch.set[word] = mask;
                    } else {
                        patch.clear[word] = mask;
                    }
                    pin_patches.push(patch);
                }
                &Injection::DelayedTransition { net, slow_to_rise } => {
                    if slow_to_rise {
                        rise[net][word] |= mask;
                    } else {
                        fall[net][word] |= mask;
                    }
                }
                &Injection::MultiCycleDelay { net, depth } => {
                    let depth = depth.max(1) as u32;
                    match mc_masks[net].iter_mut().find(|(d, _)| *d == depth) {
                        Some((_, m)) => m[word] |= mask,
                        None => {
                            let mut m = zero;
                            m[word] |= mask;
                            mc_masks[net].push((depth, m));
                        }
                    }
                }
                Injection::PathDelay { path, rising } => {
                    assert!(
                        path.len() >= 2 && path.windows(2).all(|w| w[0] < w[1]),
                        "path nets must be strictly ascending"
                    );
                    let terminal = path[path.len() - 1] as usize;
                    path_per_net[terminal].push(PathLane {
                        word: word as u32,
                        bit: bit as u32,
                        launch: path[0],
                        rising: *rising,
                        conds: crate::faults::path_conditions(netlist, path),
                        launch_prev: false,
                        launch_seen: false,
                        filled: false,
                        active: false,
                    });
                }
                &Injection::Bridge {
                    victim,
                    aggressor,
                    wired_and,
                } => {
                    assert!(
                        aggressor < victim,
                        "bridge aggressor must precede the victim in net order"
                    );
                    let mut patch = BridgePatch {
                        victim: victim as u32,
                        aggressor: aggressor as u32,
                        and_mask: zero,
                        or_mask: zero,
                    };
                    if wired_and {
                        patch.and_mask[word] = mask;
                    } else {
                        patch.or_mask[word] = mask;
                    }
                    bridge_patches.push(patch);
                }
            }
        }
        // One patch per injection so far: sort, then merge equal keys into
        // one patch whose masks carry all of the key's lanes.
        pin_patches.sort_unstable_by_key(|p| (p.gate, p.pin));
        pin_patches.dedup_by(|later, kept| {
            let same = (later.gate, later.pin) == (kept.gate, kept.pin);
            if same {
                for k in 0..W {
                    kept.set[k] |= later.set[k];
                    kept.clear[k] |= later.clear[k];
                }
            }
            same
        });
        bridge_patches.sort_unstable_by_key(|b| (b.victim, b.aggressor));
        bridge_patches.dedup_by(|later, kept| {
            let same = (later.victim, later.aggressor) == (kept.victim, kept.aggressor);
            if same {
                for k in 0..W {
                    kept.and_mask[k] |= later.and_mask[k];
                    kept.or_mask[k] |= later.or_mask[k];
                }
            }
            same
        });
        // Group the patches per gate so the evaluator reads only a gate's
        // own patch range.
        let mut patch_ranges = vec![(0u32, 0u32); num_nets];
        let mut i = 0;
        while i < pin_patches.len() {
            let gate = pin_patches[i].gate as usize;
            let start = i;
            while i < pin_patches.len() && pin_patches[i].gate as usize == gate {
                i += 1;
            }
            patch_ranges[gate] = (start as u32, i as u32);
        }
        let mut bridge_ranges = vec![(0u32, 0u32); num_nets];
        let mut i = 0;
        while i < bridge_patches.len() {
            let victim = bridge_patches[i].victim as usize;
            let start = i;
            while i < bridge_patches.len() && bridge_patches[i].victim as usize == victim {
                i += 1;
            }
            bridge_ranges[victim] = (start as u32, i as u32);
        }

        // Compile the evaluation plan for this fault chunk: inline operands
        // for arity <= 2, shared fan-in ranges for wider gates, and a side
        // table for the faulted gates.
        let plan = netlist.plan();
        let fanin = plan.fanin();
        let mut code = Vec::with_capacity(num_nets);
        let mut patched = Vec::new();
        let mut mc: Vec<Vec<(u32, [u64; W])>> = Vec::new();
        let mut path_lanes: Vec<PathLane> = Vec::new();
        for (id, step) in plan.steps().iter().enumerate() {
            let (patch_start, patch_end) = patch_ranges[id];
            let (bridge_start, bridge_end) = bridge_ranges[id];
            if patch_start != patch_end
                || bridge_start != bridge_end
                || out_set[id] != zero
                || out_clear[id] != zero
                || rise[id] != zero
                || fall[id] != zero
                || !mc_masks[id].is_empty()
                || !path_per_net[id].is_empty()
            {
                let path_start = path_lanes.len() as u32;
                path_lanes.append(&mut path_per_net[id]);
                mc.push(std::mem::take(&mut mc_masks[id]));
                patched.push(PatchedGate {
                    op: step.op,
                    fanin_start: step.fanin_start,
                    fanin_end: step.fanin_end,
                    patch_start,
                    patch_end,
                    bridge_start,
                    bridge_end,
                    path_start,
                    path_end: path_lanes.len() as u32,
                    out_set: out_set[id],
                    out_clear: out_clear[id],
                    rise: rise[id],
                    fall: fall[id],
                });
                code.push(Instr {
                    op: Op::Patched,
                    a: (patched.len() - 1) as u32,
                    b: 0,
                });
                continue;
            }
            let ops = &fanin[step.fanin_range()];
            let instr = match step.op {
                PlanOp::Input(k) => Instr {
                    op: Op::In,
                    a: k,
                    b: 0,
                },
                PlanOp::FlipFlop(k) => Instr {
                    op: Op::Ff,
                    a: k,
                    b: 0,
                },
                PlanOp::Const(false) => Instr {
                    op: Op::Const0,
                    a: 0,
                    b: 0,
                },
                PlanOp::Const(true) => Instr {
                    op: Op::Const1,
                    a: 0,
                    b: 0,
                },
                PlanOp::Not => Instr {
                    op: Op::Not,
                    a: ops[0],
                    b: 0,
                },
                PlanOp::And if ops.len() == 2 => Instr {
                    op: Op::And2,
                    a: ops[0],
                    b: ops[1],
                },
                PlanOp::Or if ops.len() == 2 => Instr {
                    op: Op::Or2,
                    a: ops[0],
                    b: ops[1],
                },
                PlanOp::Xor if ops.len() == 2 => Instr {
                    op: Op::Xor2,
                    a: ops[0],
                    b: ops[1],
                },
                PlanOp::And => Instr {
                    op: Op::AndN,
                    a: step.fanin_start,
                    b: step.fanin_end,
                },
                PlanOp::Or => Instr {
                    op: Op::OrN,
                    a: step.fanin_start,
                    b: step.fanin_end,
                },
                PlanOp::Xor => Instr {
                    op: Op::XorN,
                    a: step.fanin_start,
                    b: step.fanin_end,
                },
            };
            code.push(instr);
        }

        // Size each patched gate's raw-value ring to the deepest delay
        // memory among its lanes: one slot for transition and path-terminal
        // lanes, `depth` slots for multi-cycle lanes, none for purely
        // combinational injections.  Slot 0 starts at the transition
        // identity value (1 on slow-to-rise lanes, 0 on slow-to-fall
        // lanes), so the first cycle is injection-free.
        let mut hist: Vec<Vec<[u64; W]>> = Vec::with_capacity(patched.len());
        for (idx, g) in patched.iter().enumerate() {
            let needs_prev = g.rise != zero || g.fall != zero || g.path_start != g.path_end;
            let depth_max = mc[idx].iter().map(|&(d, _)| d).max().unwrap_or(0);
            let len = depth_max.max(u32::from(needs_prev)) as usize;
            let mut ring = vec![zero; len];
            if let Some(slot) = ring.first_mut() {
                *slot = g.rise;
            }
            hist.push(ring);
        }
        let next: Vec<[u64; W]> = patched.iter().map(|g| g.rise).collect();
        let committed = vec![0u32; patched.len()];
        debug_assert!(
            pin_patches
                .windows(2)
                .all(|p| (p[0].gate, p[0].pin) < (p[1].gate, p[1].pin)),
            "pin patches must be sorted by (gate, pin) with one entry per key"
        );
        Self {
            netlist,
            values: vec![zero; num_nets],
            state: vec![zero; netlist.flip_flops().len()],
            code,
            patched,
            pin_patches,
            bridges: bridge_patches,
            hist,
            committed,
            next,
            mc,
            path_lanes,
            path_launches: 0,
            path_activations: 0,
            injections: injections.to_vec(),
        }
    }

    /// Evaluates one compiled instruction and stores its value.
    #[inline(always)]
    fn eval_one(&mut self, id: usize, fanin: &[u32], inputs: &[u64]) {
        let instr = self.code[id];
        let value = if instr.op == Op::Patched {
            let idx = instr.a as usize;
            let gate = &self.patched[idx];
            let prev = self.hist[idx].first().copied().unwrap_or([0u64; W]);
            let (mut value, raw) = eval_patched(
                &self.values,
                &self.state,
                inputs,
                fanin,
                &self.pin_patches,
                &self.bridges,
                gate,
                prev,
            );
            // Multi-cycle lanes present the raw value of `depth` cycles ago
            // once that ring slot is committed; injection-free while the
            // delay line fills.  Lane masks never overlap across classes,
            // so the rewrite order against the other injections is
            // immaterial.
            for &(depth, mask) in &self.mc[idx] {
                if self.committed[idx] >= depth {
                    let slot = self.hist[idx][depth as usize - 1];
                    value = std::array::from_fn(|k| (value[k] & !mask[k]) | (slot[k] & mask[k]));
                }
            }
            // Path lanes: bit-serial non-robust two-pattern check.  Every
            // net the check reads (launch, side inputs) precedes the
            // terminal in the strictly ascending path order, so the values
            // are already computed this sweep.
            if gate.path_start != gate.path_end {
                let values = &self.values;
                let hist0 = &self.hist[idx][0];
                for lane in &mut self.path_lanes[gate.path_start as usize..gate.path_end as usize] {
                    let (w, b) = (lane.word as usize, lane.bit as usize);
                    let read = |net: u32| (values[net as usize][w] >> b) & 1 == 1;
                    let launch = read(lane.launch);
                    lane.launch_seen = launch;
                    lane.active = lane.filled
                        && launch == lane.rising
                        && lane.launch_prev != launch
                        && lane.conds.iter().all(|&(n, req)| read(n) == req);
                    if lane.active {
                        let mask = 1u64 << b;
                        value[w] = (value[w] & !mask) | (((hist0[w] >> b) & 1) << b);
                    }
                }
            }
            self.next[idx] = raw;
            value
        } else {
            eval_instr(&self.values, &self.state, inputs, fanin, instr)
        };
        self.values[id] = value;
    }

    /// Evaluates one step and reports whether its stored value word
    /// changed — the primitive the event-driven differential scheduler
    /// drains its worklist with: a step whose recomputed value equals the
    /// stored one produces no downstream events.  `mask` limits the
    /// change comparison (all-ones for full-width detection; the per-word
    /// widening pass masks out converged words of register-cone-only
    /// steps).
    #[inline(always)]
    pub(crate) fn eval_step_changed(
        &mut self,
        id: usize,
        fanin: &[u32],
        inputs: &[u64],
        mask: &[u64; W],
    ) -> bool {
        let old = self.values[id];
        self.eval_one(id, fanin, inputs);
        let new = self.values[id];
        let mut diff = 0u64;
        for k in 0..W {
            diff |= (old[k] ^ new[k]) & mask[k];
        }
        diff != 0
    }

    /// Evaluates the complete plan (every net, in topological order) for
    /// broadcast primary-input words.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub(crate) fn eval_all(&mut self, inputs: &[u64]) {
        let plan = self.netlist.plan();
        assert_eq!(
            inputs.len(),
            plan.num_inputs(),
            "primary input width mismatch"
        );
        let fanin = plan.fanin();
        for id in 0..self.code.len() {
            self.eval_one(id, fanin, inputs);
        }
    }

    /// Evaluates a restricted step set (topologically ordered net ids); the
    /// caller must have seeded every frontier net the member steps read.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub(crate) fn eval_steps(&mut self, steps: &[u32], inputs: &[u64]) {
        let plan = self.netlist.plan();
        assert_eq!(
            inputs.len(),
            plan.num_inputs(),
            "primary input width mismatch"
        );
        let fanin = plan.fanin();
        for &s in steps {
            self.eval_one(s as usize, fanin, inputs);
        }
    }

    /// Advances every delay memory at the clock edge (once per clock
    /// cycle, regardless of how many combinational evaluations happened in
    /// between): the newest raw word shifts into ring slot 0, the path
    /// launch memories commit, and the sensitization telemetry counts.
    /// Drains the path-delay telemetry accumulated since the last call
    /// (committed slow-polarity launch edges and sensitized launch/capture
    /// activations).
    pub(crate) fn take_path_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.path_launches),
            std::mem::take(&mut self.path_activations),
        )
    }

    pub(crate) fn commit_transitions(&mut self) {
        for idx in 0..self.patched.len() {
            let ring = &mut self.hist[idx];
            if ring.is_empty() {
                continue;
            }
            ring.rotate_right(1);
            ring[0] = self.next[idx];
            self.committed[idx] = (self.committed[idx] + 1).min(ring.len() as u32);
        }
        for lane in &mut self.path_lanes {
            if lane.filled
                && lane.launch_prev != lane.launch_seen
                && lane.launch_seen == lane.rising
            {
                self.path_launches += 1;
            }
            if lane.active {
                self.path_activations += 1;
            }
            lane.launch_prev = lane.launch_seen;
            lane.filled = true;
            lane.active = false;
        }
    }

    /// Sets every lane of the register to the same state (the scan
    /// initialisation and the pattern-generation override both load one
    /// shared value into all machines).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the number of flip-flops.
    pub(crate) fn set_state_broadcast_bits(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.state.len(), "state width mismatch");
        for (row, &bit) in self.state.iter_mut().zip(bits) {
            *row = [broadcast(bit); W];
        }
    }

    /// Reads the register state of one lane (stage 1 first).
    pub(crate) fn lane_state(&self, lane: usize) -> Vec<bool> {
        let (w, b) = (lane / 64, lane % 64);
        self.state
            .iter()
            .map(|row| (row[w] >> b) & 1 == 1)
            .collect()
    }

    /// The canonical lane memory of a faulty lane, matching the scalar
    /// [`Simulator::injection_memory`](crate::sim::Simulator::injection_memory)
    /// bit for bit: one previous-cycle bit for a delayed transition, the
    /// filled delay-line slots (newest first) for a multi-cycle delay, the
    /// launch bit followed by the terminal's previous raw bit for a path
    /// fault.  Empty for stateless injections and unfilled delay lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or exceeds the number of injected faults.
    pub(crate) fn injection_memory(&self, lane: usize) -> Vec<bool> {
        self.assert_lane(lane);
        let (w, b) = (lane / 64, lane % 64);
        match &self.injections[lane - 1] {
            Injection::DelayedTransition { net, .. } => {
                let idx = self.patch_index(*net);
                vec![(self.hist[idx][0][w] >> b) & 1 == 1]
            }
            Injection::MultiCycleDelay { net, depth } => {
                let idx = self.patch_index(*net);
                let filled = (self.committed[idx] as usize).min((*depth).max(1));
                (0..filled)
                    .map(|s| (self.hist[idx][s][w] >> b) & 1 == 1)
                    .collect()
            }
            Injection::PathDelay { path, .. } => {
                let lane_state = &self.path_lanes[self.path_lane_index(lane)];
                if !lane_state.filled {
                    return Vec::new();
                }
                let idx = self.patch_index(path[path.len() - 1] as usize);
                vec![lane_state.launch_prev, (self.hist[idx][0][w] >> b) & 1 == 1]
            }
            _ => Vec::new(),
        }
    }

    /// Seeds the lane memory from its canonical form (used when a campaign
    /// migrates a surviving fault into a fresh chunk or resumes from a
    /// checkpoint).  No-op for stateless injections or an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or exceeds the number of injected faults.
    pub(crate) fn seed_injection_memory(&mut self, lane: usize, memory: &[bool]) {
        self.assert_lane(lane);
        if memory.is_empty() {
            return;
        }
        let (w, b) = (lane / 64, lane % 64);
        let mask = 1u64 << b;
        let set = |word: &mut u64, bit: bool| {
            if bit {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        };
        match self.injections[lane - 1].clone() {
            Injection::DelayedTransition { net, .. } => {
                let idx = self.patch_index(net);
                set(&mut self.hist[idx][0][w], memory[0]);
                set(&mut self.next[idx][w], memory[0]);
            }
            Injection::MultiCycleDelay { net, .. } => {
                let idx = self.patch_index(net);
                let len = memory.len().min(self.hist[idx].len());
                for (s, &bit) in memory[..len].iter().enumerate() {
                    set(&mut self.hist[idx][s][w], bit);
                }
                // Fill levels are uniform across a campaign's lanes (every
                // lane has run the same stimulus cycles), so the per-gate
                // commit count can only grow here.
                self.committed[idx] = self.committed[idx].max(len as u32);
            }
            Injection::PathDelay { path, .. } => {
                let idx = self.patch_index(path[path.len() - 1] as usize);
                set(&mut self.hist[idx][0][w], memory[1]);
                set(&mut self.next[idx][w], memory[1]);
                let lane_index = self.path_lane_index(lane);
                let lane_state = &mut self.path_lanes[lane_index];
                lane_state.launch_prev = memory[0];
                lane_state.launch_seen = memory[0];
                lane_state.filled = true;
            }
            _ => {}
        }
    }

    fn assert_lane(&self, lane: usize) {
        assert!(
            lane >= 1 && lane <= self.injections.len(),
            "lane {lane} carries no injected fault"
        );
    }

    /// The patched-gate index producing `net`.
    fn patch_index(&self, net: usize) -> usize {
        let instr = self.code[net];
        assert_eq!(
            instr.op,
            Op::Patched,
            "stateful fault compiles to a patched gate"
        );
        instr.a as usize
    }

    /// The [`PathLane`] index carrying the path fault of `lane`.
    fn path_lane_index(&self, lane: usize) -> usize {
        let (w, b) = (lane / 64, lane % 64);
        self.path_lanes
            .iter()
            .position(|p| p.word as usize == w && p.bit as usize == b)
            .expect("path fault compiles to a path lane")
    }
}

/// Evaluates one unfaulted instruction over `W`-word lane rows.
#[inline(always)]
pub(crate) fn eval_instr<const W: usize>(
    values: &[[u64; W]],
    state: &[[u64; W]],
    inputs: &[u64],
    fanin: &[u32],
    Instr { op, a, b }: Instr,
) -> [u64; W] {
    match op {
        Op::In => [inputs[a as usize]; W],
        Op::Ff => state[a as usize],
        Op::Const0 => [0; W],
        Op::Const1 => [u64::MAX; W],
        Op::Not => {
            let x = values[a as usize];
            std::array::from_fn(|k| !x[k])
        }
        Op::And2 => {
            let (x, y) = (values[a as usize], values[b as usize]);
            std::array::from_fn(|k| x[k] & y[k])
        }
        Op::Or2 => {
            let (x, y) = (values[a as usize], values[b as usize]);
            std::array::from_fn(|k| x[k] | y[k])
        }
        Op::Xor2 => {
            let (x, y) = (values[a as usize], values[b as usize]);
            std::array::from_fn(|k| x[k] ^ y[k])
        }
        Op::AndN => {
            let mut acc = [u64::MAX; W];
            for &n in &fanin[a as usize..b as usize] {
                acc_words(&mut acc, &values[n as usize], |x, y| x & y);
            }
            acc
        }
        Op::OrN => {
            let mut acc = [0u64; W];
            for &n in &fanin[a as usize..b as usize] {
                acc_words(&mut acc, &values[n as usize], |x, y| x | y);
            }
            acc
        }
        Op::XorN => {
            let mut acc = [0u64; W];
            for &n in &fanin[a as usize..b as usize] {
                acc_words(&mut acc, &values[n as usize], |x, y| x ^ y);
            }
            acc
        }
        Op::Patched => unreachable!("patched gates are dispatched by the core evaluator"),
    }
}

/// In-place word-wise accumulation with an explicitly unrolled `u64`-quad
/// body — the hot loop of the N-ary folds at `W = 4` and `W = 8`.  The
/// quad body keeps four independent accumulator words in flight per
/// iteration so the backend can keep them in one 256-bit register (or two
/// 128-bit ones) without relying on nightly `std::simd`.
#[inline(always)]
fn acc_words<const W: usize>(acc: &mut [u64; W], v: &[u64; W], f: impl Fn(u64, u64) -> u64) {
    let mut k = 0;
    while k + 4 <= W {
        acc[k] = f(acc[k], v[k]);
        acc[k + 1] = f(acc[k + 1], v[k + 1]);
        acc[k + 2] = f(acc[k + 2], v[k + 2]);
        acc[k + 3] = f(acc[k + 3], v[k + 3]);
        k += 4;
    }
    while k < W {
        acc[k] = f(acc[k], v[k]);
        k += 1;
    }
}

/// Folds a gate's operands through an operand accessor (statically
/// dispatched, one monomorphization per patch specialisation of
/// [`eval_patched`]), calling it once per pin in ascending pin order.
#[inline(always)]
fn fold_operands<const W: usize>(
    op: PlanOp,
    ops: &[u32],
    inputs: &[u64],
    state: &[[u64; W]],
    mut operand: impl FnMut(usize, u32) -> [u64; W],
) -> [u64; W] {
    match op {
        PlanOp::Input(k) => [inputs[k as usize]; W],
        PlanOp::FlipFlop(k) => state[k as usize],
        PlanOp::Const(c) => [broadcast(c); W],
        PlanOp::And => {
            let mut acc = [u64::MAX; W];
            for (pin, &n) in ops.iter().enumerate() {
                let v = operand(pin, n);
                acc_words(&mut acc, &v, |x, y| x & y);
            }
            acc
        }
        PlanOp::Or => {
            let mut acc = [0u64; W];
            for (pin, &n) in ops.iter().enumerate() {
                let v = operand(pin, n);
                acc_words(&mut acc, &v, |x, y| x | y);
            }
            acc
        }
        PlanOp::Xor => {
            let mut acc = [0u64; W];
            for (pin, &n) in ops.iter().enumerate() {
                let v = operand(pin, n);
                acc_words(&mut acc, &v, |x, y| x ^ y);
            }
            acc
        }
        PlanOp::Not => {
            let v = operand(0, ops[0]);
            std::array::from_fn(|k| !v[k])
        }
    }
}

/// Slow path for faulted gates: applies pin patches while folding the
/// operands, then the transition, bridge and output-mask injections.  Each
/// lane carries at most one fault, so the mask classes never overlap on a
/// lane.  Returns the injected value and the raw (pre-injection) value
/// that feeds the transition memory.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_patched<const W: usize>(
    values: &[[u64; W]],
    state: &[[u64; W]],
    inputs: &[u64],
    fanin: &[u32],
    pin_patches: &[PinPatch<W>],
    bridges: &[BridgePatch<W>],
    gate: &PatchedGate<W>,
    prev: [u64; W],
) -> ([u64; W], [u64; W]) {
    let patches = &pin_patches[gate.patch_start as usize..gate.patch_end as usize];
    let ops = &fanin[gate.fanin_start as usize..gate.fanin_end as usize];
    // Gates without pin patches (stuck outputs, transitions and bridges)
    // read their operands unpatched.  The others merge their patch list,
    // sorted by pin with one entry per pin, into the ascending pin order of
    // the fold with one cursor, so a gate costs O(fan-in + patches) however
    // many of its pins one chunk faults.
    let raw: [u64; W] = if patches.is_empty() {
        fold_operands(gate.op, ops, inputs, state, |_pin, net| {
            values[net as usize]
        })
    } else {
        let mut cursor = 0;
        fold_operands(gate.op, ops, inputs, state, |pin, net| {
            let w = values[net as usize];
            match patches.get(cursor) {
                Some(patch) if patch.pin as usize == pin => {
                    cursor += 1;
                    std::array::from_fn(|k| (w[k] & !patch.clear[k]) | patch.set[k])
                }
                _ => w,
            }
        })
    };
    // Branch-free fault injection: delayed transitions first (they rewrite
    // the raw value through the one-cycle memory), then bridges, then stuck
    // outputs.
    let mut value = raw;
    let tmask: [u64; W] = std::array::from_fn(|k| gate.rise[k] | gate.fall[k]);
    if tmask.iter().any(|&t| t != 0) {
        value = std::array::from_fn(|k| {
            (value[k] & !tmask[k])
                | (raw[k] & prev[k] & gate.rise[k])
                | ((raw[k] | prev[k]) & gate.fall[k])
        });
    }
    for bridge in &bridges[gate.bridge_start as usize..gate.bridge_end as usize] {
        let aggressor = values[bridge.aggressor as usize];
        value = std::array::from_fn(|k| {
            let bmask = bridge.and_mask[k] | bridge.or_mask[k];
            (value[k] & !bmask)
                | (raw[k] & aggressor[k] & bridge.and_mask[k])
                | ((raw[k] | aggressor[k]) & bridge.or_mask[k])
        });
    }
    (
        std::array::from_fn(|k| (value[k] & !gate.out_clear[k]) | gate.out_set[k]),
        raw,
    )
}
