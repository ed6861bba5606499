//! The benchmark suite used to reproduce the paper's Tables 2 and 3.
//!
//! The MCNC'88 FSM benchmark *files* are not redistributable, so every named
//! machine is regenerated deterministically with the interface sizes of the
//! original benchmark (see README.md, "Reproduction notes").  In addition the
//! suite contains a handful of fully hand-written machines (the paper's
//! Fig. 3 example, a modulo-12 counter, a simple traffic-light controller)
//! whose behaviour is specified exactly.

use crate::generate::{controller, ControllerSpec};
use crate::{Fsm, Result};

/// The numbers the paper reports for one benchmark (Tables 2 and 3).
///
/// `None` entries mean the paper does not report that value for the
/// benchmark.  These figures are used by the experiment drivers to print
/// "paper vs. measured" rows; they are never fed back into the algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperNumbers {
    /// Table 2: average product terms over 50 random encodings (PST/SIG).
    pub random_avg_terms: f64,
    /// Table 2: best of the 50 random encodings.
    pub random_best_terms: u32,
    /// Table 2 / Table 3: product terms of the heuristic PST/SIG assignment.
    pub pst_sig_terms: u32,
    /// Table 3: product terms of the DFF (conventional) solution.
    pub dff_terms: u32,
    /// Table 3: product terms of the PAT solution.
    pub pat_terms: u32,
    /// Table 3: multi-level literals of the PST/SIG solution.
    pub pst_sig_literals: u32,
    /// Table 3: multi-level literals of the DFF solution.
    pub dff_literals: u32,
    /// Table 3: multi-level literals of the PAT solution.
    pub pat_literals: u32,
}

/// Static description of one suite entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkInfo {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// Number of primary inputs of the original MCNC machine.
    pub inputs: usize,
    /// Number of primary outputs of the original MCNC machine.
    pub outputs: usize,
    /// Number of symbolic states of the original MCNC machine.
    pub states: usize,
    /// Paper-reported result numbers for this benchmark.
    pub paper: PaperNumbers,
}

impl BenchmarkInfo {
    /// Builds the synthetic stand-in machine for this benchmark at full size.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (which cannot occur for the fixed specs in
    /// the table).
    pub fn fsm(&self) -> Result<Fsm> {
        self.fsm_scaled(1.0)
    }

    /// Builds the stand-in machine with the state count scaled by `factor`
    /// (at least 4 states).  Scaling is used by quick tests that need
    /// sub-second runs on the largest machines.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (which cannot occur for positive scale
    /// factors).
    pub fn fsm_scaled(&self, factor: f64) -> Result<Fsm> {
        let states = ((self.states as f64 * factor).round() as usize)
            .max(4)
            .min(self.states);
        let spec = ControllerSpec::new(self.name, states, self.inputs, self.outputs);
        controller(&spec)
    }

    /// The minimum number of state bits of the full-size machine.
    pub fn min_state_bits(&self) -> usize {
        let n = self.states;
        if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }
}

/// All benchmarks evaluated in the paper (Tables 2 and 3), with the original
/// interface sizes and the paper-reported result numbers.
pub const BENCHMARKS: &[BenchmarkInfo] = &[
    BenchmarkInfo {
        name: "dk16",
        inputs: 2,
        outputs: 3,
        states: 27,
        paper: PaperNumbers {
            random_avg_terms: 91.7,
            random_best_terms: 87,
            pst_sig_terms: 76,
            dff_terms: 59,
            pat_terms: 57,
            pst_sig_literals: 289,
            dff_literals: 270,
            pat_literals: 241,
        },
    },
    BenchmarkInfo {
        name: "dk512",
        inputs: 1,
        outputs: 3,
        states: 15,
        paper: PaperNumbers {
            random_avg_terms: 25.5,
            random_best_terms: 23,
            pst_sig_terms: 19,
            dff_terms: 18,
            pat_terms: 17,
            pst_sig_literals: 67,
            dff_literals: 70,
            pat_literals: 48,
        },
    },
    BenchmarkInfo {
        name: "donfile",
        inputs: 2,
        outputs: 1,
        states: 24,
        paper: PaperNumbers {
            random_avg_terms: 73.5,
            random_best_terms: 65,
            pst_sig_terms: 42,
            dff_terms: 29,
            pat_terms: 28,
            pst_sig_literals: 121,
            dff_literals: 160,
            pat_literals: 74,
        },
    },
    BenchmarkInfo {
        name: "ex1",
        inputs: 9,
        outputs: 19,
        states: 20,
        paper: PaperNumbers {
            random_avg_terms: 73.8,
            random_best_terms: 69,
            pst_sig_terms: 64,
            dff_terms: 48,
            pat_terms: 44,
            pst_sig_literals: 288,
            dff_literals: 280,
            pat_literals: 253,
        },
    },
    BenchmarkInfo {
        name: "ex4",
        inputs: 6,
        outputs: 9,
        states: 14,
        paper: PaperNumbers {
            random_avg_terms: 20.6,
            random_best_terms: 18,
            pst_sig_terms: 18,
            dff_terms: 19,
            pat_terms: 16,
            pst_sig_literals: 65,
            dff_literals: 77,
            pat_literals: 70,
        },
    },
    BenchmarkInfo {
        name: "kirkman",
        inputs: 12,
        outputs: 6,
        states: 16,
        paper: PaperNumbers {
            random_avg_terms: 122.1,
            random_best_terms: 94,
            pst_sig_terms: 67,
            dff_terms: 64,
            pat_terms: 54,
            pst_sig_literals: 153,
            dff_literals: 176,
            pat_literals: 146,
        },
    },
    BenchmarkInfo {
        name: "mark1",
        inputs: 5,
        outputs: 16,
        states: 15,
        paper: PaperNumbers {
            random_avg_terms: 26.0,
            random_best_terms: 25,
            pst_sig_terms: 23,
            dff_terms: 20,
            pat_terms: 17,
            pst_sig_literals: 119,
            dff_literals: 108,
            pat_literals: 94,
        },
    },
    BenchmarkInfo {
        name: "modulo12",
        inputs: 1,
        outputs: 1,
        states: 12,
        paper: PaperNumbers {
            random_avg_terms: 17.4,
            random_best_terms: 15,
            pst_sig_terms: 13,
            dff_terms: 13,
            pat_terms: 9,
            pst_sig_literals: 39,
            dff_literals: 35,
            pat_literals: 29,
        },
    },
    BenchmarkInfo {
        name: "planet",
        inputs: 7,
        outputs: 19,
        states: 48,
        paper: PaperNumbers {
            random_avg_terms: 103.9,
            random_best_terms: 102,
            pst_sig_terms: 94,
            dff_terms: 91,
            pat_terms: 83,
            pst_sig_literals: 545,
            dff_literals: 578,
            pat_literals: 569,
        },
    },
    BenchmarkInfo {
        name: "sand",
        inputs: 11,
        outputs: 9,
        states: 32,
        paper: PaperNumbers {
            random_avg_terms: 116.3,
            random_best_terms: 111,
            pst_sig_terms: 107,
            dff_terms: 97,
            pat_terms: 97,
            pst_sig_literals: 566,
            dff_literals: 570,
            pat_literals: 547,
        },
    },
    BenchmarkInfo {
        name: "scf",
        inputs: 27,
        outputs: 56,
        states: 121,
        paper: PaperNumbers {
            random_avg_terms: 168.0,
            random_best_terms: 156,
            pst_sig_terms: 138,
            dff_terms: 146,
            pat_terms: 136,
            pst_sig_literals: 714,
            dff_literals: 822,
            pat_literals: 773,
        },
    },
    BenchmarkInfo {
        name: "styr",
        inputs: 9,
        outputs: 10,
        states: 30,
        paper: PaperNumbers {
            random_avg_terms: 143.5,
            random_best_terms: 132,
            pst_sig_terms: 128,
            dff_terms: 94,
            pat_terms: 93,
            pst_sig_literals: 629,
            dff_literals: 594,
            pat_literals: 512,
        },
    },
    BenchmarkInfo {
        name: "tbk",
        inputs: 6,
        outputs: 3,
        states: 32,
        paper: PaperNumbers {
            random_avg_terms: 261.9,
            random_best_terms: 224,
            pst_sig_terms: 159,
            dff_terms: 149,
            pat_terms: 59,
            pst_sig_literals: 421,
            dff_literals: 547,
            pat_literals: 496,
        },
    },
];

/// Looks up a benchmark by name.
pub fn benchmark(name: &str) -> Option<&'static BenchmarkInfo> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

/// Names of all paper benchmarks, in the order of Table 2.
pub fn benchmark_names() -> Vec<&'static str> {
    BENCHMARKS.iter().map(|b| b.name).collect()
}

/// A subset of small-to-medium benchmarks suitable for CI-speed tests and
/// quick table runs (everything except `planet`, `scf`, `sand`, `styr`,
/// `tbk`).
pub fn quick_benchmarks() -> Vec<&'static BenchmarkInfo> {
    BENCHMARKS
        .iter()
        .filter(|b| b.states <= 27 && b.inputs <= 12)
        .collect()
}

/// The worked example of the paper's Fig. 3: a three-state machine whose
/// transitions under input `1` follow the autonomous cycle of the LFSR with
/// feedback polynomial `1 + x + x²` when the states are encoded
/// `A = 01`, `B = 11`, `C = 10`.
///
/// # Errors
///
/// Construction of the fixed machine cannot fail in practice.
pub fn fig3_example() -> Result<Fsm> {
    Fsm::builder("fig3", 1, 1)
        .transition("1", "A", "B", "0")?
        .transition("1", "B", "C", "1")?
        .transition("1", "C", "A", "0")?
        .transition("0", "A", "A", "0")?
        .transition("0", "B", "A", "1")?
        .transition("0", "C", "C", "0")?
        .reset("A")
        .build()
}

/// A hand-written modulo-12 counter with a count-enable input and a carry
/// output: the exact behaviour of the `modulo12` MCNC benchmark.
///
/// # Errors
///
/// Construction of the fixed machine cannot fail in practice.
pub fn modulo12_exact() -> Result<Fsm> {
    let mut b = Fsm::builder("modulo12_exact", 1, 1);
    for i in 0..12usize {
        let carry = if i == 11 { "1" } else { "0" };
        b = b
            .transition("0", &format!("c{i}"), &format!("c{i}"), "0")?
            .transition("1", &format!("c{i}"), &format!("c{}", (i + 1) % 12), carry)?;
    }
    b.reset("c0").build()
}

/// A hand-written traffic-light controller (8 states, 3 inputs, 5 outputs)
/// used as a fully specified, human-readable example machine.
///
/// Inputs: `car` (car waiting on side road), `timer_short`, `timer_long`.
/// Outputs: main-street green/yellow/red, side-street green, walk light.
///
/// # Errors
///
/// Construction of the fixed machine cannot fail in practice.
pub fn traffic_light() -> Result<Fsm> {
    Fsm::builder("traffic", 3, 5)
        // Main green: stay until a car waits and the long timer expired.
        .transition("0--", "MG", "MG", "10000")?
        .transition("1-0", "MG", "MG", "10000")?
        .transition("1-1", "MG", "MY", "01000")?
        // Main yellow: one short-timer period.
        .transition("--0", "MY", "MY", "01000")?
        .transition("--1", "MY", "MR", "00100")?
        // All red before side green.
        .transition("---", "MR", "SG", "00110")?
        // Side green with walk light.
        .transition("--0", "SG", "SG", "00110")?
        .transition("--1", "SG", "SW", "00111")?
        // Walk phase.
        .transition("--0", "SW", "SW", "00111")?
        .transition("--1", "SW", "SY", "00100")?
        // Side yellow.
        .transition("--0", "SY", "SY", "00100")?
        .transition("--1", "SY", "AR", "00100")?
        // All red before main green again.
        .transition("---", "AR", "PRE", "00100")?
        .transition("---", "PRE", "MG", "10000")?
        .reset("MG")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build() {
        for info in BENCHMARKS {
            let fsm = info.fsm().unwrap();
            assert_eq!(fsm.state_count(), info.states, "{}", info.name);
            assert_eq!(fsm.num_inputs(), info.inputs, "{}", info.name);
            assert_eq!(fsm.num_outputs(), info.outputs, "{}", info.name);
            assert!(fsm.analysis().is_strongly_connected, "{}", info.name);
        }
    }

    #[test]
    fn scaled_benchmarks_shrink_but_keep_interface() {
        let info = benchmark("planet").unwrap();
        let fsm = info.fsm_scaled(0.25).unwrap();
        assert!(fsm.state_count() <= 13);
        assert!(fsm.state_count() >= 4);
        assert_eq!(fsm.num_inputs(), info.inputs);
        // scale factor above 1 does not grow beyond the original
        let full = info.fsm_scaled(2.0).unwrap();
        assert_eq!(full.state_count(), info.states);
    }

    #[test]
    fn lookup_and_names() {
        assert!(benchmark("dk16").is_some());
        assert!(benchmark("nonexistent").is_none());
        assert_eq!(benchmark_names().len(), 13);
        assert!(quick_benchmarks().len() >= 6);
        assert!(quick_benchmarks().iter().all(|b| b.states <= 27));
    }

    #[test]
    fn paper_numbers_match_table2_ordering() {
        // The heuristic is never worse than the best random encoding in the
        // paper; keep the transcription consistent with that.
        for info in BENCHMARKS {
            assert!(
                f64::from(info.paper.pst_sig_terms) <= info.paper.random_avg_terms,
                "{}",
                info.name
            );
            assert!(
                info.paper.pst_sig_terms <= info.paper.random_best_terms,
                "{}",
                info.name
            );
        }
    }

    #[test]
    fn min_state_bits_of_known_benchmarks() {
        assert_eq!(benchmark("dk16").unwrap().min_state_bits(), 5);
        assert_eq!(benchmark("modulo12").unwrap().min_state_bits(), 4);
        assert_eq!(benchmark("scf").unwrap().min_state_bits(), 7);
    }

    #[test]
    fn fig3_example_structure() {
        let fsm = fig3_example().unwrap();
        assert_eq!(fsm.state_count(), 3);
        assert_eq!(fsm.num_inputs(), 1);
        assert!(fsm.analysis().is_strongly_connected);
        fsm.check_deterministic().unwrap();
    }

    #[test]
    fn modulo12_counts_to_twelve() {
        let fsm = modulo12_exact().unwrap();
        assert_eq!(fsm.state_count(), 12);
        let mut state = fsm.reset_state().unwrap();
        let mut carries = 0;
        for _ in 0..24 {
            let (next, out) = fsm.step(state, &[true]).unwrap();
            if out.to_string() == "1" {
                carries += 1;
            }
            state = next.unwrap();
        }
        assert_eq!(carries, 2);
        assert_eq!(state, fsm.reset_state().unwrap());
        fsm.check_deterministic().unwrap();
    }

    #[test]
    fn traffic_light_cycles_back_to_main_green() {
        let fsm = traffic_light().unwrap();
        assert_eq!(fsm.state_count(), 8);
        assert!(fsm.analysis().is_strongly_connected);
        fsm.check_deterministic().unwrap();
        // Drive it around one full cycle with all timers expired and a car.
        let mut state = fsm.reset_state().unwrap();
        for _ in 0..8 {
            let (next, _) = fsm.step(state, &[true, true, true]).unwrap();
            state = next.unwrap();
        }
        assert_eq!(fsm.state_name(state), "MG");
    }
}
