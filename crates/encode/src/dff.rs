//! Adjacency-driven state assignment for D-flip-flop state registers.
//!
//! The DFF columns of Table 3 were produced by the authors with `nova` and
//! `mustang`.  This module implements a heuristic in the same family: state
//! pairs receive an *affinity weight* derived from shared predecessors,
//! shared successors and similar outputs (the MUSTANG fan-in/fan-out
//! heuristics); codes are then embedded into the hypercube so that heavy
//! pairs end up at small Hamming distance, followed by a pairwise-swap
//! improvement pass.
//!
//! The weights are a dense `n × n` matrix of `f64`, row-major, symmetric,
//! with a zero diagonal; a zero entry means the pair has no affinity.  Both
//! the greedy placement and the swap pass read it by row and add the pair
//! terms in state order, so their sums, and with them every comparison the
//! search makes, do not depend on how the weights are stored.

use crate::{Result, StateEncoding};
use stfsm_fsm::{Fsm, StateId};
use stfsm_lfsr::Gf2Vec;

/// Configuration of the DFF assignment heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct DffAssignmentConfig {
    /// Number of code bits; `None` uses the minimum `⌈log₂ |S|⌉`.
    pub bits: Option<usize>,
    /// Weight of shared-predecessor affinity (fan-out oriented).
    pub fanout_weight: f64,
    /// Weight of shared-successor affinity (fan-in oriented).
    pub fanin_weight: f64,
    /// Weight of output-similarity affinity.
    pub output_weight: f64,
    /// Number of steepest-descent swap-improvement passes.
    pub improvement_passes: usize,
}

impl Default for DffAssignmentConfig {
    fn default() -> Self {
        Self {
            bits: None,
            fanout_weight: 1.0,
            fanin_weight: 1.0,
            output_weight: 0.5,
            improvement_passes: 4,
        }
    }
}

/// The result of the DFF assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DffAssignment {
    /// The chosen encoding.
    pub encoding: StateEncoding,
    /// The weighted sum of Hamming distances the embedding achieved (lower is
    /// better).
    pub embedding_cost: f64,
}

/// Runs the adjacency-based DFF state assignment.
///
/// # Errors
///
/// Returns an error if the requested code width cannot distinguish all
/// states.
pub fn assign(fsm: &Fsm, config: &DffAssignmentConfig) -> Result<DffAssignment> {
    let bits = config.bits.unwrap_or_else(|| fsm.min_state_bits());
    if (1usize << bits.min(63)) < fsm.state_count() {
        return Err(crate::Error::TooFewBits {
            states: fsm.state_count(),
            bits,
        });
    }
    let n = fsm.state_count();
    let weights = affinity_weights(fsm, config);

    // ---- greedy placement -------------------------------------------------
    // Order states by total affinity (heaviest first) and place each state on
    // the free code that minimises the weighted distance to already placed
    // neighbours.
    let mut total_affinity: Vec<(usize, f64)> =
        (0..n).map(|s| (s, weights.row(s).iter().sum())).collect();
    total_affinity.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    let code_space: Vec<u64> = (0..(1u64 << bits)).collect();
    let mut code_of: Vec<Option<u64>> = vec![None; n];
    let mut used = vec![false; code_space.len()];

    for &(state, _) in &total_affinity {
        let row = weights.row(state);
        let mut best_code = None;
        let mut best_cost = f64::INFINITY;
        for (ci, &code) in code_space.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let mut cost = 0.0;
            for (&w, oc) in row.iter().zip(&code_of) {
                if let Some(oc) = *oc {
                    if w > 0.0 {
                        cost += w * (code ^ oc).count_ones() as f64;
                    }
                }
            }
            // Prefer low codes on ties for determinism.
            if cost < best_cost - 1e-12 {
                best_cost = cost;
                best_code = Some(ci);
            }
        }
        let ci = best_code.expect("code space is large enough");
        used[ci] = true;
        code_of[state] = Some(code_space[ci]);
    }

    let mut codes: Vec<u64> = code_of
        .into_iter()
        .map(|c| c.expect("all states placed"))
        .collect();

    // ---- pairwise swap improvement -----------------------------------------
    for _ in 0..config.improvement_passes {
        let mut improved = false;
        for a in 0..n {
            for b in (a + 1)..n {
                let before = embedding_cost_for(&codes, &weights, a, b);
                codes.swap(a, b);
                let after = embedding_cost_for(&codes, &weights, a, b);
                if after + 1e-12 < before {
                    improved = true;
                } else {
                    codes.swap(a, b);
                }
            }
        }
        if !improved {
            break;
        }
    }

    let cost = full_embedding_cost(&codes, &weights);
    let code_vecs = codes
        .iter()
        .map(|&c| Gf2Vec::from_value(c, bits).map_err(crate::Error::from))
        .collect::<Result<Vec<_>>>()?;
    Ok(DffAssignment {
        encoding: StateEncoding::new(fsm, code_vecs)?,
        embedding_cost: cost,
    })
}

/// A dense, symmetric `n × n` affinity matrix (see the module docs).
#[derive(Debug)]
struct Affinity {
    n: usize,
    weights: Vec<f64>,
}

impl Affinity {
    /// The weights between state `a` and every state, in state order.
    fn row(&self, a: usize) -> &[f64] {
        &self.weights[a * self.n..(a + 1) * self.n]
    }

    /// Adds `w` to the weight of the pair `{a, b}`; self-pairs and
    /// non-positive weights are ignored.
    fn add(&mut self, a: usize, b: usize, w: f64) {
        if a != b && w > 0.0 {
            self.weights[a * self.n + b] += w;
            self.weights[b * self.n + a] += w;
        }
    }
}

/// MUSTANG-style affinity weights between state pairs.
fn affinity_weights(fsm: &Fsm, config: &DffAssignmentConfig) -> Affinity {
    let n = fsm.state_count();
    let mut weights = Affinity {
        n,
        weights: vec![0.0; n * n],
    };

    // Fan-out rule: next states of the same present state should be adjacent.
    for s in 0..n {
        let succ: Vec<usize> = fsm
            .transitions_from(StateId(s))
            .filter_map(|t| t.to.map(StateId::index))
            .collect();
        for i in 0..succ.len() {
            for j in (i + 1)..succ.len() {
                weights.add(succ[i], succ[j], config.fanout_weight);
            }
        }
    }

    // Fan-in rule: present states with a common successor should be adjacent.
    let mut by_successor: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in fsm.transitions() {
        if let Some(to) = t.to {
            by_successor[to.index()].push(t.from.index());
        }
    }
    for preds in &by_successor {
        for i in 0..preds.len() {
            for j in (i + 1)..preds.len() {
                weights.add(preds[i], preds[j], config.fanin_weight);
            }
        }
    }

    // Output rule: states asserting similar outputs should be adjacent.
    let signatures: Vec<Vec<(String, String)>> = (0..n)
        .map(|s| {
            fsm.transitions_from(StateId(s))
                .map(|t| (t.input.to_string(), t.output.to_string()))
                .collect()
        })
        .collect();
    for a in 0..n {
        for b in (a + 1)..n {
            let mut similarity = 0usize;
            for (ia, oa) in &signatures[a] {
                for (ib, ob) in &signatures[b] {
                    if ia == ib {
                        similarity += oa
                            .chars()
                            .zip(ob.chars())
                            .filter(|(x, y)| x == y && *x != '-')
                            .count();
                    }
                }
            }
            weights.add(a, b, config.output_weight * similarity as f64);
        }
    }
    weights
}

/// Cost contribution of the pairs touching state `a` or state `b > a`, each
/// pair counted once: row `a`, then row `b` without the pair `{a, b}`.
/// A pair without affinity adds `0.0`, which leaves the sum unchanged.
fn embedding_cost_for(codes: &[u64], weights: &Affinity, a: usize, b: usize) -> f64 {
    let mut cost = 0.0;
    for (&w, &code) in weights.row(a).iter().zip(codes) {
        cost += w * (codes[a] ^ code).count_ones() as f64;
    }
    for (y, (&w, &code)) in weights.row(b).iter().zip(codes).enumerate() {
        if y != a {
            cost += w * (codes[b] ^ code).count_ones() as f64;
        }
    }
    cost
}

/// Total weighted Hamming-distance cost of an embedding.
fn full_embedding_cost(codes: &[u64], weights: &Affinity) -> f64 {
    let mut cost = 0.0;
    for a in 0..codes.len() {
        for (b, &w) in weights.row(a).iter().enumerate().skip(a + 1) {
            if w > 0.0 {
                cost += w * (codes[a] ^ codes[b]).count_ones() as f64;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_encoding;
    use stfsm_fsm::generate::{controller, ControllerSpec};
    use stfsm_fsm::suite::{modulo12_exact, traffic_light};

    #[test]
    fn assignment_is_injective_and_minimal_width() {
        let fsm = modulo12_exact().unwrap();
        let result = assign(&fsm, &DffAssignmentConfig::default()).unwrap();
        assert_eq!(result.encoding.num_bits(), 4);
        assert_eq!(result.encoding.state_count(), 12);
    }

    #[test]
    fn extra_bits_can_be_requested() {
        let fsm = traffic_light().unwrap();
        let cfg = DffAssignmentConfig {
            bits: Some(5),
            ..DffAssignmentConfig::default()
        };
        let result = assign(&fsm, &cfg).unwrap();
        assert_eq!(result.encoding.num_bits(), 5);
        let too_few = DffAssignmentConfig {
            bits: Some(2),
            ..DffAssignmentConfig::default()
        };
        assert!(assign(&fsm, &too_few).is_err());
    }

    #[test]
    fn heuristic_beats_random_on_bit_changes() {
        // The adjacency heuristic should produce fewer state-bit toggles per
        // transition than a random encoding on a counter-like machine.
        let fsm = modulo12_exact().unwrap();
        let heuristic = assign(&fsm, &DffAssignmentConfig::default()).unwrap();
        let random = random_encoding(&fsm, 4, 3).unwrap();
        assert!(
            heuristic.encoding.transition_bit_changes(&fsm) <= random.transition_bit_changes(&fsm)
        );
    }

    #[test]
    fn deterministic_output() {
        let fsm = controller(&ControllerSpec::new("dffdet", 10, 3, 2)).unwrap();
        let a = assign(&fsm, &DffAssignmentConfig::default()).unwrap();
        let b = assign(&fsm, &DffAssignmentConfig::default()).unwrap();
        assert_eq!(a.encoding, b.encoding);
        assert_eq!(a.embedding_cost, b.embedding_cost);
    }

    #[test]
    fn improvement_passes_do_not_hurt() {
        let fsm = controller(&ControllerSpec::new("dffimp", 12, 3, 2)).unwrap();
        let no_improve = assign(
            &fsm,
            &DffAssignmentConfig {
                improvement_passes: 0,
                ..DffAssignmentConfig::default()
            },
        )
        .unwrap();
        let improved = assign(&fsm, &DffAssignmentConfig::default()).unwrap();
        assert!(improved.embedding_cost <= no_improve.embedding_cost + 1e-9);
    }

    #[test]
    fn affinity_weights_are_symmetric_keys() {
        let fsm = traffic_light().unwrap();
        let w = affinity_weights(&fsm, &DffAssignmentConfig::default());
        let n = fsm.state_count();
        for a in 0..n {
            assert_eq!(w.row(a)[a], 0.0);
            for b in 0..n {
                assert_eq!(w.row(a)[b], w.row(b)[a]);
            }
        }
        assert!(w.weights.iter().any(|&x| x > 0.0));
    }

    /// The assignment of the previous implementation, kept as the oracle of
    /// the dense matrix: weights in a `HashMap` keyed by ordered pair, read
    /// with one lookup per pair.
    mod hashed {
        use super::super::DffAssignmentConfig;
        use std::collections::HashMap;
        use stfsm_fsm::{Fsm, StateId};

        pub fn pair(a: usize, b: usize) -> (usize, usize) {
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        }

        pub fn affinity_weights(
            fsm: &Fsm,
            config: &DffAssignmentConfig,
        ) -> HashMap<(usize, usize), f64> {
            let n = fsm.state_count();
            let mut weights: HashMap<(usize, usize), f64> = HashMap::new();
            let mut add = |a: usize, b: usize, w: f64| {
                if a != b && w > 0.0 {
                    *weights.entry(pair(a, b)).or_insert(0.0) += w;
                }
            };
            for s in 0..n {
                let succ: Vec<usize> = fsm
                    .transitions_from(StateId(s))
                    .filter_map(|t| t.to.map(StateId::index))
                    .collect();
                for i in 0..succ.len() {
                    for j in (i + 1)..succ.len() {
                        add(succ[i], succ[j], config.fanout_weight);
                    }
                }
            }
            let mut by_successor: HashMap<usize, Vec<usize>> = HashMap::new();
            for t in fsm.transitions() {
                if let Some(to) = t.to {
                    by_successor
                        .entry(to.index())
                        .or_default()
                        .push(t.from.index());
                }
            }
            for preds in by_successor.values() {
                for i in 0..preds.len() {
                    for j in (i + 1)..preds.len() {
                        add(preds[i], preds[j], config.fanin_weight);
                    }
                }
            }
            let signatures: Vec<Vec<(String, String)>> = (0..n)
                .map(|s| {
                    fsm.transitions_from(StateId(s))
                        .map(|t| (t.input.to_string(), t.output.to_string()))
                        .collect()
                })
                .collect();
            for a in 0..n {
                for b in (a + 1)..n {
                    let mut similarity = 0usize;
                    for (ia, oa) in &signatures[a] {
                        for (ib, ob) in &signatures[b] {
                            if ia == ib {
                                similarity += oa
                                    .chars()
                                    .zip(ob.chars())
                                    .filter(|(x, y)| x == y && *x != '-')
                                    .count();
                            }
                        }
                    }
                    add(a, b, config.output_weight * similarity as f64);
                }
            }
            weights
        }

        pub fn embedding_cost_for(
            codes: &[u64],
            weights: &HashMap<(usize, usize), f64>,
            touched: &[usize],
        ) -> f64 {
            let mut cost = 0.0;
            for &a in touched {
                for b in 0..codes.len() {
                    if touched.contains(&b) && b <= a {
                        continue;
                    }
                    if let Some(&w) = weights.get(&pair(a, b)) {
                        cost += w * (codes[a] ^ codes[b]).count_ones() as f64;
                    }
                }
            }
            cost
        }

        /// The codes the greedy placement and swap passes choose.
        pub fn codes(fsm: &Fsm, config: &DffAssignmentConfig, bits: usize) -> Vec<u64> {
            let n = fsm.state_count();
            let weights = affinity_weights(fsm, config);
            let mut total_affinity: Vec<(usize, f64)> = (0..n)
                .map(|s| {
                    (
                        s,
                        (0..n)
                            .map(|t| weights.get(&pair(s, t)).copied().unwrap_or(0.0))
                            .sum(),
                    )
                })
                .collect();
            total_affinity
                .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let code_space: Vec<u64> = (0..(1u64 << bits)).collect();
            let mut code_of: Vec<Option<u64>> = vec![None; n];
            let mut used = vec![false; code_space.len()];
            for &(state, _) in &total_affinity {
                let mut best_code = None;
                let mut best_cost = f64::INFINITY;
                for (ci, &code) in code_space.iter().enumerate() {
                    if used[ci] {
                        continue;
                    }
                    let mut cost = 0.0;
                    for (other, oc) in code_of.iter().enumerate().take(n) {
                        if let Some(oc) = *oc {
                            let w = weights.get(&pair(state, other)).copied().unwrap_or(0.0);
                            if w > 0.0 {
                                cost += w * (code ^ oc).count_ones() as f64;
                            }
                        }
                    }
                    if cost < best_cost - 1e-12 {
                        best_cost = cost;
                        best_code = Some(ci);
                    }
                }
                let ci = best_code.expect("code space is large enough");
                used[ci] = true;
                code_of[state] = Some(code_space[ci]);
            }
            let mut codes: Vec<u64> = code_of.into_iter().map(Option::unwrap).collect();
            for _ in 0..config.improvement_passes {
                let mut improved = false;
                for a in 0..n {
                    for b in (a + 1)..n {
                        let before = embedding_cost_for(&codes, &weights, &[a, b]);
                        codes.swap(a, b);
                        let after = embedding_cost_for(&codes, &weights, &[a, b]);
                        if after + 1e-12 < before {
                            improved = true;
                        } else {
                            codes.swap(a, b);
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            codes
        }
    }

    #[test]
    fn dense_weights_match_the_hashed_oracle() {
        // Dyadic weights keep every sum exact, so the oracle's HashMap
        // iteration order cannot move a weight.
        let configs = [
            DffAssignmentConfig::default(),
            DffAssignmentConfig {
                fanout_weight: 2.0,
                fanin_weight: 0.25,
                output_weight: 1.5,
                improvement_passes: 2,
                ..DffAssignmentConfig::default()
            },
        ];
        let mut machines = vec![modulo12_exact().unwrap(), traffic_light().unwrap()];
        for (i, states) in [9usize, 16, 23, 40, 70].into_iter().enumerate() {
            let spec = ControllerSpec::new(format!("dense{i}"), states, 4, 3)
                .with_decision_vars(1 + i % 3);
            machines.push(controller(&spec).unwrap());
        }
        let mut rng = 0xd0e5_f00du64;
        for fsm in &machines {
            let n = fsm.state_count();
            let bits = fsm.min_state_bits();
            for config in &configs {
                let dense = affinity_weights(fsm, config);
                let hashed = hashed::affinity_weights(fsm, config);
                for a in 0..n {
                    for b in 0..n {
                        let expected = hashed.get(&hashed::pair(a, b)).copied().unwrap_or(0.0);
                        assert_eq!(dense.row(a)[b], expected, "{} {a} {b}", fsm.name());
                    }
                }
                // Pair costs on scrambled codes.
                let mut codes: Vec<u64> = (0..n as u64).collect();
                for _ in 0..20 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = (rng >> 33) as usize % (n - 1);
                    let b = a + 1 + (rng >> 13) as usize % (n - 1 - a);
                    codes.swap(a, b);
                    assert_eq!(
                        embedding_cost_for(&codes, &dense, a, b),
                        hashed::embedding_cost_for(&codes, &hashed, &[a, b])
                    );
                }
                let result = assign(fsm, config).unwrap();
                let codes: Vec<u64> = result.encoding.codes().iter().map(|c| c.value()).collect();
                assert_eq!(codes, hashed::codes(fsm, config, bits), "{}", fsm.name());
            }
        }
    }
}
