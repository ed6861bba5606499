//! The single-word instance of the word-parallel core: 64-way
//! bit-parallel (packed) fault simulation.
//!
//! `PackedCore<1>` evaluates a netlist on `u64` words instead of booleans:
//! bit `i` of every word is an independent simulated machine ("lane" `i`).
//! Lane 0 always runs the fault-free reference; lanes `1..=63` each carry
//! one injected fault of any model ([`Injection`](stfsm_faults::Injection)).
//! One sweep over the evaluation plan therefore advances the reference
//! *and* up to [`FAULT_LANES`] faulty machines at once — the classic
//! parallel-fault simulation technique, generalized to model-agnostic
//! lanes.
//!
//! The compiled opcodes, the injection algebra and the step evaluation
//! live once in `engine`, generic over the word count.  This module adds
//! what the full-sweep packed engine, the packed dictionary pass and the
//! compiled transition tables need on top at `W = 1`: register state as
//! one word per flip-flop, and word-wide mismatch detection against lane 0
//! ([`PackedCore::mismatch_word`]) — XOR-ing each observation word with
//! the broadcast of its lane-0 bit yields a word whose set bits are
//! exactly the lanes that currently disagree with the fault-free machine.
//! Retired (already detected) lanes are simply masked out by the caller —
//! fault dropping without any per-fault state.

use crate::engine::PackedCore;
use stfsm_lfsr::bitvec::{broadcast, WORD_LANES};

/// Number of faulty machines per packed word (lane 0 is the reference).
pub(crate) const FAULT_LANES: usize = WORD_LANES - 1;

impl PackedCore<'_, 1> {
    /// Sets the register from per-lane words (stage 1 first).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the number of flip-flops.
    pub(crate) fn set_state_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.state.len(), "state width mismatch");
        for (row, &w) in self.state.iter_mut().zip(words) {
            *row = [w];
        }
    }

    /// The packed register state (one word per flip-flop, stage 1 first).
    pub(crate) fn state_words(&self) -> Vec<u64> {
        self.state.iter().map(|row| row[0]).collect()
    }

    /// Lanes whose observation points currently differ from the fault-free
    /// lane 0: bit `i` is set iff machine `i` disagrees with the reference
    /// on at least one observation point this cycle.  Bit 0 is always zero.
    #[inline]
    pub(crate) fn mismatch_word(&self) -> u64 {
        let mut acc = 0u64;
        for &net in self.netlist.plan().observation_points() {
            let w = self.values[net as usize][0];
            acc |= w ^ broadcast(w & 1 == 1);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::{build_netlist, Netlist};
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::{Fault, FaultList, FaultSite, Injection};
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_lfsr::bitvec::lane;
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

    fn with_faults<'a>(netlist: &'a Netlist, faults: &[Fault]) -> PackedCore<'a, 1> {
        let injections: Vec<Injection> = faults.iter().map(|&f| f.into()).collect();
        PackedCore::compile(netlist, &injections)
    }

    /// Lane 0 of a fault-free packed run must equal the scalar simulator on
    /// every net, every cycle.
    #[test]
    fn fault_free_lane_matches_scalar() {
        for netlist in [pst_netlist(), dff_netlist()] {
            let mut scalar = Simulator::new(&netlist);
            let mut packed = with_faults(&netlist, &[]);
            let ni = netlist.primary_inputs().len();
            let mut lcg = 0xABCD_EF01u64;
            for _ in 0..200 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let inputs: Vec<bool> = (0..ni).map(|i| (lcg >> (i + 13)) & 1 == 1).collect();
                let words: Vec<u64> = inputs.iter().map(|&b| broadcast(b)).collect();
                scalar.evaluate(&inputs);
                packed.eval_all(&words);
                for net in 0..netlist.gates().len() {
                    assert_eq!(scalar.net(net), lane(packed.values[net][0], 0), "net {net}");
                    // No faults: all lanes agree.
                    assert!(
                        packed.values[net][0] == 0 || packed.values[net][0] == u64::MAX,
                        "net {net} diverged without faults"
                    );
                }
                assert_eq!(packed.mismatch_word(), 0);
                scalar.clock();
                packed.clock();
            }
        }
    }

    /// Each faulty lane must track its scalar single-fault counterpart.
    #[test]
    fn faulty_lanes_match_scalar_single_fault_runs() {
        let netlist = pst_netlist();
        let faults: Vec<Fault> = FaultList::collapsed(&netlist)
            .faults()
            .iter()
            .copied()
            .take(FAULT_LANES)
            .collect();
        let mut packed = with_faults(&netlist, &faults);
        let mut scalars: Vec<Simulator<'_>> = faults
            .iter()
            .map(|&f| Simulator::with_fault(&netlist, f))
            .collect();
        let mut reference = Simulator::new(&netlist);
        let ni = netlist.primary_inputs().len();
        let mut lcg = 0x5EED_0001u64;
        for cycle in 0..100 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let inputs: Vec<bool> = (0..ni).map(|i| (lcg >> (i + 17)) & 1 == 1).collect();
            let words: Vec<u64> = inputs.iter().map(|&b| broadcast(b)).collect();
            packed.eval_all(&words);
            reference.evaluate(&inputs);
            let mismatch = packed.mismatch_word();
            let ref_obs = reference.observations();
            for (i, scalar) in scalars.iter_mut().enumerate() {
                scalar.evaluate(&inputs);
                for net in 0..netlist.gates().len() {
                    assert_eq!(
                        scalar.net(net),
                        lane(packed.values[net][0], i + 1),
                        "cycle {cycle} fault {i} net {net}"
                    );
                }
                let differs = scalar.observations() != ref_obs;
                assert_eq!(differs, lane(mismatch, i + 1), "cycle {cycle} fault {i}");
                scalar.clock();
            }
            assert!(
                !lane(mismatch, 0),
                "reference lane can never mismatch itself"
            );
            reference.clock();
            packed.clock();
        }
    }

    #[test]
    fn state_broadcast_and_words() {
        let netlist = dff_netlist();
        let mut packed = with_faults(&netlist, &[]);
        packed.set_state_broadcast_bits(&[true, false]);
        assert_eq!(packed.state_words(), &[u64::MAX, 0]);
        packed.set_state_words(&[5, 9]);
        assert_eq!(packed.state_words(), &[5, 9]);
        assert_eq!(packed.fault_lanes(), [0]);
    }

    #[test]
    fn fault_lanes_mask_covers_exactly_the_faulty_lanes() {
        let netlist = dff_netlist();
        let faults = FaultList::collapsed(&netlist);
        for n in [1usize, 2, 5, FAULT_LANES.min(faults.len())] {
            let chunk: Vec<Fault> = faults.faults().iter().copied().take(n).collect();
            let packed = with_faults(&netlist, &chunk);
            let [mask] = packed.fault_lanes();
            assert_eq!(mask.count_ones() as usize, n);
            assert_eq!(mask & 1, 0, "lane 0 must stay fault-free");
            assert_eq!(mask, ((1u128 << (n + 1)) - 2) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_faults_panics() {
        let netlist = dff_netlist();
        let fault = Fault {
            site: FaultSite::GateOutput(0),
            stuck_at: true,
        };
        let _ = with_faults(&netlist, &vec![fault; FAULT_LANES + 1]);
    }

    #[test]
    #[should_panic(expected = "primary input width mismatch")]
    fn wrong_input_width_panics() {
        let netlist = dff_netlist();
        let mut packed = with_faults(&netlist, &[]);
        packed.eval_all(&[0, 0, 0]);
    }
}
