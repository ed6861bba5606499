//! Model-agnostic fault-injection descriptors.
//!
//! An [`Injection`] tells a simulation engine how one fault patches one gate
//! or pin of the netlist, without saying anything about the defect mechanism
//! behind it.  Every fault model reduces its faults to this vocabulary, so
//! the scalar, packed and differential engines of `stfsm-testsim` support
//! any present or future model for free.

use std::fmt;
use std::sync::Arc;

/// How a single fault patches the netlist during simulation.
///
/// All variants describe the patch of exactly one lane (one faulty machine):
/// a gate output, one input pin, a delayed output transition, a resistive
/// bridge pulling the output towards a neighbouring net, an N-cycle gross
/// delay or a whole sensitized path arriving late.
///
/// `Injection` is deliberately `Clone` but not `Copy`: the path-delay
/// variant carries a shared, variable-length net chain (`Arc<[u32]>`), so
/// cloning stays a cheap reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Injection {
    /// The output net of a gate is stuck at a constant.
    StuckOutput {
        /// The stuck net (gate index; net `i` is the output of gate `i`).
        net: usize,
        /// The stuck value (`false` = stuck-at-0, `true` = stuck-at-1).
        value: bool,
    },
    /// One input pin of a gate is stuck at a constant (the driving net
    /// itself is healthy).
    StuckPin {
        /// Index of the gate whose pin is faulty.
        gate: usize,
        /// Pin position within the gate's fan-in list.
        pin: usize,
        /// The stuck value.
        value: bool,
    },
    /// The gate output propagates a transition one clock cycle late in one
    /// direction (gross-delay / transition fault).
    ///
    /// A slow-to-rise output stays 0 for the cycle in which the fault-free
    /// gate would have risen; a slow-to-fall output stays 1 symmetrically.
    /// With the previous-cycle value `p` and the currently computed value
    /// `v`, the faulty output is `v ∧ p` (slow-to-rise) or `v ∨ p`
    /// (slow-to-fall) — a one-cycle memory on the faulty lane.
    DelayedTransition {
        /// The late net.
        net: usize,
        /// `true` = slow-to-rise, `false` = slow-to-fall.
        slow_to_rise: bool,
    },
    /// A resistive short between two physically adjacent nets, in the
    /// aggressor–victim style: the victim net takes the wired-AND or
    /// wired-OR of both nets, the aggressor keeps its value.
    ///
    /// The aggressor must precede the victim in the topological net order so
    /// a single forward sweep sees its final value (enforced by the
    /// simulation engines).
    Bridge {
        /// The victim net whose value is overridden.
        victim: usize,
        /// The aggressor net it is shorted to (`aggressor < victim`).
        aggressor: usize,
        /// `true` = wired-AND bridge, `false` = wired-OR bridge.
        wired_and: bool,
    },
    /// The gate output propagates every value change `depth` clock cycles
    /// late (multi-cycle gross delay), generalizing the one-cycle
    /// [`Injection::DelayedTransition`] memory to an N-deep delay line.
    ///
    /// The faulty output at cycle `t` is the fault-free raw value the gate
    /// computed at cycle `t - depth` in both directions.  Until `depth`
    /// cycles of history exist the lane tracks the fault-free value
    /// (injection-free warm-up), mirroring the identity-initialized
    /// one-cycle transition memory.
    MultiCycleDelay {
        /// The late net.
        net: usize,
        /// Delay depth in clock cycles (≥ 1; `1` behaves like a
        /// polarity-free gross delay, not like a transition fault).
        depth: usize,
    },
    /// A structural path (launch net → gate chain → terminal net) whose
    /// total delay exceeds the clock period for one transition polarity
    /// (path-delay fault).
    ///
    /// Detection needs a two-pattern test: the launch cycle must put the
    /// required transition on the path input (previous value ≠ current
    /// value, current value = `rising`), and the capture cycle evaluates
    /// the fault under a **non-robust** sensitization check — every
    /// off-path fan-in of every on-path gate must sit at its
    /// non-controlling value in the capture vector.  When activated, the
    /// terminal net presents its previous-cycle value (the late transition
    /// missed the capture edge); otherwise the lane is fault-free.
    PathDelay {
        /// The on-path nets in topological order: `path[0]` is the launch
        /// net (a primary input or flip-flop output), each following net is
        /// a gate fed by its predecessor, and the last net is the terminal
        /// whose capture is patched.  Net ids are strictly ascending, so
        /// one forward sweep sees every on-path value before the terminal.
        path: Arc<[u32]>,
        /// `true` = slow rising transition at the launch net, `false` =
        /// slow falling.
        rising: bool,
    },
}

impl Injection {
    /// Whether the faulty machine carries state beyond the register (the
    /// transition/delay-line memory or the two-pattern launch memory).
    /// Stateful injections cannot be driven through precomputed transition
    /// tables.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            Injection::DelayedTransition { .. }
                | Injection::MultiCycleDelay { .. }
                | Injection::PathDelay { .. }
        )
    }

    /// The gate whose evaluation is patched by this injection.
    pub fn patched_gate(&self) -> usize {
        match self {
            Injection::StuckOutput { net, .. } => *net,
            Injection::StuckPin { gate, .. } => *gate,
            Injection::DelayedTransition { net, .. } => *net,
            Injection::Bridge { victim, .. } => *victim,
            Injection::MultiCycleDelay { net, .. } => *net,
            Injection::PathDelay { path, .. } => path.last().map(|&n| n as usize).unwrap_or(0),
        }
    }

    /// The number of memory bits the faulty machine carries beyond the
    /// register: the canonical length of the lane's survivor-memory vector
    /// at a segment boundary (zero for combinationally patched lanes).
    pub fn memory_len(&self) -> usize {
        match self {
            Injection::DelayedTransition { .. } => 1,
            // Launch-net previous value + terminal-net previous raw value.
            Injection::PathDelay { .. } => 2,
            Injection::MultiCycleDelay { depth, .. } => *depth,
            _ => 0,
        }
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injection::StuckOutput { net, value } => {
                write!(f, "net{net}/SA{}", *value as u8)
            }
            Injection::StuckPin { gate, pin, value } => {
                write!(f, "gate{gate}.pin{pin}/SA{}", *value as u8)
            }
            Injection::DelayedTransition { net, slow_to_rise } => {
                write!(f, "net{net}/{}", if *slow_to_rise { "STR" } else { "STF" })
            }
            Injection::Bridge {
                victim,
                aggressor,
                wired_and,
            } => write!(
                f,
                "net{victim}{}net{aggressor}/BR",
                if *wired_and { "&" } else { "|" }
            ),
            Injection::MultiCycleDelay { net, depth } => {
                write!(f, "net{net}/GD{depth}")
            }
            Injection::PathDelay { path, rising } => {
                let launch = path.first().copied().unwrap_or(0);
                let terminal = path.last().copied().unwrap_or(0);
                write!(
                    f,
                    "net{launch}\u{2192}net{terminal}/PDF-{}",
                    if *rising { 'R' } else { 'F' }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_readable() {
        assert_eq!(
            Injection::StuckOutput {
                net: 3,
                value: true
            }
            .to_string(),
            "net3/SA1"
        );
        assert_eq!(
            Injection::StuckPin {
                gate: 7,
                pin: 1,
                value: false
            }
            .to_string(),
            "gate7.pin1/SA0"
        );
        assert_eq!(
            Injection::DelayedTransition {
                net: 4,
                slow_to_rise: true
            }
            .to_string(),
            "net4/STR"
        );
        assert_eq!(
            Injection::DelayedTransition {
                net: 4,
                slow_to_rise: false
            }
            .to_string(),
            "net4/STF"
        );
        assert_eq!(
            Injection::Bridge {
                victim: 9,
                aggressor: 2,
                wired_and: true
            }
            .to_string(),
            "net9&net2/BR"
        );
        assert_eq!(
            Injection::Bridge {
                victim: 9,
                aggressor: 2,
                wired_and: false
            }
            .to_string(),
            "net9|net2/BR"
        );
        assert_eq!(
            Injection::MultiCycleDelay { net: 4, depth: 3 }.to_string(),
            "net4/GD3"
        );
        assert_eq!(
            Injection::PathDelay {
                path: Arc::from([3u32, 5, 9]),
                rising: true
            }
            .to_string(),
            "net3\u{2192}net9/PDF-R"
        );
        assert_eq!(
            Injection::PathDelay {
                path: Arc::from([3u32, 9]),
                rising: false
            }
            .to_string(),
            "net3\u{2192}net9/PDF-F"
        );
    }

    #[test]
    fn statefulness_and_patched_gate() {
        let tr = Injection::DelayedTransition {
            net: 5,
            slow_to_rise: false,
        };
        assert!(tr.is_stateful());
        assert_eq!(tr.patched_gate(), 5);
        let br = Injection::Bridge {
            victim: 8,
            aggressor: 1,
            wired_and: true,
        };
        assert!(!br.is_stateful());
        assert_eq!(br.patched_gate(), 8);
        assert_eq!(
            Injection::StuckPin {
                gate: 2,
                pin: 0,
                value: true
            }
            .patched_gate(),
            2
        );
        assert_eq!(
            Injection::StuckOutput {
                net: 1,
                value: false
            }
            .patched_gate(),
            1
        );
        let mc = Injection::MultiCycleDelay { net: 6, depth: 4 };
        assert!(mc.is_stateful());
        assert_eq!(mc.patched_gate(), 6);
        assert_eq!(mc.memory_len(), 4);
        let pd = Injection::PathDelay {
            path: Arc::from([1u32, 4, 7]),
            rising: false,
        };
        assert!(pd.is_stateful());
        assert_eq!(pd.patched_gate(), 7);
        assert_eq!(pd.memory_len(), 2);
        assert_eq!(
            Injection::StuckOutput {
                net: 0,
                value: true
            }
            .memory_len(),
            0
        );
        assert_eq!(
            Injection::DelayedTransition {
                net: 0,
                slow_to_rise: true
            }
            .memory_len(),
            1
        );
    }
}
