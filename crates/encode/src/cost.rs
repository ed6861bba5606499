//! The symbolic-implicant cost model of the MISR-targeted state assignment.
//!
//! Section 3.3.2 of the paper estimates the quality of a (partial) encoding
//! by the number of symbolic implicants that have to be *split* when a coding
//! column is fixed:
//!
//! * **input incompatibility** — a group of symbolic present states can no
//!   longer be embedded in a sub-space of the code space that contains no
//!   other states, so the group has to be split;
//! * **output incompatibility** — the excitation variable of the new column,
//!   `yᵢ = sᵢ⁺ ⊕ sᵢ₋₁`, takes different values for state transitions merged
//!   in the same symbolic implicant, so the implicant has to be split.
//!
//! The functions in this module compute the initial symbolic implicants
//! (a symbolic minimization restricted to identical input cubes, giving a
//! lower bound on the product terms of any encoding) and the incremental
//! cost of fixing one additional coding column.
//!
//! # Kernel
//!
//! The assignment rates a candidate column once per flipped state of its
//! improvement sweep, thousands of times per machine, so the rating works on
//! bitsets and allocates only the two piece sets it may need:
//!
//! * A *state set* — a code column, or the present states of an implicant —
//!   is a `Vec<u64>` of `⌈|S| / 64⌉` words.  State `s` is bit `s % 64` of
//!   word `s / 64`; the bits above `|S|` are zero.  A column holds the states
//!   whose code bit is 1.
//! * [`CostModel`] resolves every transition's present and next state once
//!   per machine.
//! * An implicant splits when the excitation of its specified transitions
//!   takes both values.  The piece with more specified transitions absorbs
//!   the don't-care ones (they fit either value) and comes first in the
//!   refined groups.  When both pieces are the same size, the `y = 0` piece
//!   is the one that absorbs them and comes first.
//! * A piece's *face* is the AND, over the columns on which all its states
//!   agree, of that column (where they all read 1) or its complement (where
//!   they all read 0).  The piece is an input violation when the face holds
//!   a state outside the piece.

use std::collections::HashMap;
use stfsm_fsm::{Fsm, StateId};

/// Number of `u64` words of a state set over `states` states.
fn state_words(states: usize) -> usize {
    states.div_ceil(64)
}

/// Whether state `s` is in the set.
pub(crate) fn contains(set: &[u64], s: usize) -> bool {
    set[s / 64] >> (s % 64) & 1 == 1
}

/// Flips the membership of state `s`.
pub(crate) fn toggle(set: &mut [u64], s: usize) {
    set[s / 64] ^= 1 << (s % 64);
}

/// The members of a state set, ascending.
pub(crate) fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Packs a per-state 0/1 column into a state set.
pub fn pack(column: &[bool]) -> Vec<u64> {
    let mut set = vec![0u64; state_words(column.len())];
    for (s, _) in column.iter().enumerate().filter(|(_, &b)| b) {
        toggle(&mut set, s);
    }
    set
}

/// A symbolic implicant: a maximal set of transition-table rows that share
/// the same input cube, output pattern and next state and therefore can be
/// realised by a single product term if their present states can be embedded
/// in a common face of the code space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicImplicant {
    /// Indices of the merged transitions in [`Fsm::transitions`], ascending.
    pub transitions: Vec<usize>,
    /// The present states of the merged transitions, as a state set (see the
    /// module docs).
    pub present_states: Vec<u64>,
    /// The common next state (`None` for don't-care next states).
    pub next_state: Option<usize>,
}

impl SymbolicImplicant {
    /// Number of distinct present states.
    pub fn state_count(&self) -> usize {
        self.present_states
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Groups the transition table into symbolic implicants.
///
/// Rows merge when they agree on the input cube, the output pattern and the
/// next state.  The number of groups is a lower bound for the number of
/// product terms of the output/next-state logic under *any* encoding, which
/// is how the paper seeds its cost function (symbolic minimization of
/// `fo(i, S)`).  Groups are ordered by their first transition.
pub fn symbolic_implicants(fsm: &Fsm) -> Vec<SymbolicImplicant> {
    let words = state_words(fsm.state_count());
    let mut index: HashMap<(String, String, Option<usize>), usize> = HashMap::new();
    let mut groups: Vec<SymbolicImplicant> = Vec::new();
    for (idx, t) in fsm.transitions().iter().enumerate() {
        let next_state = t.to.map(StateId::index);
        let key = (t.input.to_string(), t.output.to_string(), next_state);
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(SymbolicImplicant {
                transitions: Vec::new(),
                present_states: vec![0; words],
                next_state,
            });
            groups.len() - 1
        });
        groups[g].transitions.push(idx);
        let set = &mut groups[g].present_states;
        let s = t.from.index();
        set[s / 64] |= 1 << (s % 64);
    }
    groups
}

/// Weights of the two incompatibility terms (the E7 ablation of README.md,
/// "Reproduction notes", sets one of them to zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the input-incompatibility (face violation) term.
    pub input_incompatibility: f64,
    /// Weight of the output-incompatibility (excitation split) term.
    pub output_incompatibility: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            input_incompatibility: 1.0,
            output_incompatibility: 1.0,
        }
    }
}

/// The cost of fixing one more coding column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnCost {
    /// Weighted total cost increase.
    pub total: f64,
    /// Number of implicant splits forced by differing excitation values.
    pub output_splits: usize,
    /// Number of face violations (groups whose spanning sub-space captures
    /// foreign states).
    pub input_violations: usize,
}

/// The per-machine tables of the cost kernel: every transition's present
/// and next state, resolved once.
#[derive(Debug, Clone)]
pub struct CostModel {
    words: usize,
    /// The set of all states.
    universe: Vec<u64>,
    from: Vec<usize>,
    to: Vec<Option<usize>>,
}

impl CostModel {
    /// Resolves the transition table of `fsm`.
    pub fn new(fsm: &Fsm) -> Self {
        let n = fsm.state_count();
        Self {
            words: state_words(n),
            universe: pack(&vec![true; n]),
            from: fsm.transitions().iter().map(|t| t.from.index()).collect(),
            to: fsm
                .transitions()
                .iter()
                .map(|t| t.to.map(StateId::index))
                .collect(),
        }
    }

    /// Rates fixing `new` as the next state variable.
    ///
    /// * `groups` — the current (already refined) symbolic implicants;
    /// * `previous` — state variable `sᵢ₋₁`, or `None` when the first column
    ///   is being assigned (the paper evaluates the first column on the input
    ///   term only, because `y₁` depends on the not-yet-chosen feedback
    ///   polynomial);
    /// * `assigned` — all previously fixed columns, **excluding** `new`;
    /// * `new` — the candidate column.
    ///
    /// All columns are state sets, at most 64 of them (a code is at most 64
    /// bits wide).
    pub fn rate(
        &self,
        groups: &[SymbolicImplicant],
        previous: Option<&[u64]>,
        assigned: &[Vec<u64>],
        new: &[u64],
        weights: &CostWeights,
    ) -> ColumnCost {
        let mut output_splits = 0;
        let mut input_violations = 0;
        let mut pieces = vec![0u64; 2 * self.words];
        for group in groups {
            let Some((prev, major)) = self.split(group, previous, new) else {
                if group.state_count() > 1
                    && self.captures_foreign_state(&group.present_states, assigned, new)
                {
                    input_violations += 1;
                }
                continue;
            };
            output_splits += 1;
            pieces.fill(0);
            let (first, second) = pieces.split_at_mut(self.words);
            for &t in &group.transitions {
                let piece = if self.in_first_piece(t, prev, new, major) {
                    &mut *first
                } else {
                    &mut *second
                };
                let s = self.from[t];
                piece[s / 64] |= 1 << (s % 64);
            }
            for piece in [&*first, &*second] {
                let states: u32 = piece.iter().map(|w| w.count_ones()).sum();
                if states > 1 && self.captures_foreign_state(piece, assigned, new) {
                    input_violations += 1;
                }
            }
        }
        ColumnCost {
            total: weights.input_incompatibility * input_violations as f64
                + weights.output_incompatibility * output_splits as f64,
            output_splits,
            input_violations,
        }
    }

    /// The implicant groups refined by the excitation splits of `new`, the
    /// starting point for the next column (same arguments as
    /// [`rate`](Self::rate)).
    pub fn refine(
        &self,
        groups: &[SymbolicImplicant],
        previous: Option<&[u64]>,
        new: &[u64],
    ) -> Vec<SymbolicImplicant> {
        let mut refined = Vec::with_capacity(groups.len());
        for group in groups {
            let Some((prev, major)) = self.split(group, previous, new) else {
                refined.push(group.clone());
                continue;
            };
            let (first, second): (Vec<usize>, Vec<usize>) = group
                .transitions
                .iter()
                .partition(|&&t| self.in_first_piece(t, prev, new, major));
            for transitions in [first, second] {
                let mut present_states = vec![0u64; self.words];
                for &t in &transitions {
                    let s = self.from[t];
                    present_states[s / 64] |= 1 << (s % 64);
                }
                refined.push(SymbolicImplicant {
                    transitions,
                    present_states,
                    next_state: group.next_state,
                });
            }
        }
        refined
    }

    /// The excitation of transition `t` under `prev` and `new`, `None` for a
    /// don't-care next state.
    fn excitation(&self, t: usize, prev: &[u64], new: &[u64]) -> Option<bool> {
        self.to[t].map(|to| contains(new, to) ^ contains(prev, self.from[t]))
    }

    /// Whether `group` splits under `previous` and `new`: `Some((previous,
    /// y))` names the excitation value `y` of the first piece (see the
    /// module docs), `None` keeps the group whole.  The first column splits
    /// nothing.
    fn split<'p>(
        &self,
        group: &SymbolicImplicant,
        previous: Option<&'p [u64]>,
        new: &[u64],
    ) -> Option<(&'p [u64], bool)> {
        let prev = previous?;
        if group.transitions.len() < 2 {
            return None;
        }
        let (mut zeros, mut ones) = (0usize, 0usize);
        for &t in &group.transitions {
            match self.excitation(t, prev, new) {
                Some(true) => ones += 1,
                Some(false) => zeros += 1,
                None => {}
            }
        }
        (zeros > 0 && ones > 0).then_some((prev, ones > zeros))
    }

    /// Whether transition `t` belongs to the first piece of a split whose
    /// first piece has excitation `major`.
    fn in_first_piece(&self, t: usize, prev: &[u64], new: &[u64], major: bool) -> bool {
        self.excitation(t, prev, new).is_none_or(|y| y == major)
    }

    /// Whether the face of `piece` over `assigned` and `new` (see the module
    /// docs) holds a state outside the piece.
    fn captures_foreign_state(&self, piece: &[u64], assigned: &[Vec<u64>], new: &[u64]) -> bool {
        let columns = || {
            assigned
                .iter()
                .map(Vec::as_slice)
                .chain(std::iter::once(new))
        };
        // Bit j of `ones` (`zeros`): every state of the piece reads 1 (0) in
        // column j.
        debug_assert!(assigned.len() < 64, "codes are at most 64 bits wide");
        let (mut ones, mut zeros) = (0u64, 0u64);
        for (j, column) in columns().enumerate() {
            let (mut any_one, mut any_zero) = (false, false);
            for (&p, &c) in piece.iter().zip(column) {
                any_one |= p & c != 0;
                any_zero |= p & !c != 0;
            }
            if !any_zero {
                ones |= 1 << j;
            } else if !any_one {
                zeros |= 1 << j;
            }
        }
        (0..self.words).any(|w| {
            let mut face = self.universe[w] & !piece[w];
            for (j, column) in columns().enumerate() {
                if ones >> j & 1 == 1 {
                    face &= column[w];
                } else if zeros >> j & 1 == 1 {
                    face &= !column[w];
                }
            }
            face != 0
        })
    }
}

/// The cost of a *complete* encoding under a fixed feedback column
/// assignment: rates and refines column by column and sums the costs.
/// Used to compare full encodings (e.g. during feedback-polynomial selection
/// and in tests).
pub fn total_assignment_cost(fsm: &Fsm, columns: &[Vec<bool>], weights: &CostWeights) -> f64 {
    let model = CostModel::new(fsm);
    let mut groups = symbolic_implicants(fsm);
    let mut total = 0.0;
    let mut assigned: Vec<Vec<u64>> = Vec::new();
    for col in columns {
        let new = pack(col);
        let previous = assigned.last().map(Vec::as_slice);
        total += model
            .rate(&groups, previous, &assigned, &new, weights)
            .total;
        groups = model.refine(&groups, previous, &new);
        assigned.push(new);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_encoding;
    use stfsm_fsm::generate::{controller, ControllerSpec};
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_fsm::Fsm;

    /// The column-by-column cost of the previous implementation, kept as the
    /// oracle of the bitset kernel.  It holds implicants as index vectors
    /// and `BTreeSet`s, splits them through a `HashMap`, and scans every
    /// foreign state against every fixed column.  The one change is the tie
    /// rule: it used to take equal-size pieces in `HashMap` order, which
    /// varies per process; here the `y = 0` piece comes first, as in the
    /// kernel.
    mod oracle {
        use std::collections::{BTreeSet, HashMap};
        use stfsm_fsm::Fsm;

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Implicant {
            pub transitions: Vec<usize>,
            pub present_states: BTreeSet<usize>,
            pub next_state: Option<usize>,
        }

        pub struct Cost {
            pub output_splits: usize,
            pub input_violations: usize,
            pub refined_groups: Vec<Implicant>,
        }

        pub fn column_cost(
            fsm: &Fsm,
            groups: &[Implicant],
            previous_column: Option<&[bool]>,
            assigned_columns: &[Vec<bool>],
            new_column: &[bool],
        ) -> Cost {
            let mut output_splits = 0usize;
            let mut input_violations = 0usize;
            let mut refined: Vec<Implicant> = Vec::with_capacity(groups.len());
            for group in groups {
                let pieces: Vec<Implicant> = if let Some(prev) = previous_column {
                    let mut by_value: HashMap<Option<bool>, Vec<usize>> = HashMap::new();
                    for &tidx in &group.transitions {
                        let t = &fsm.transitions()[tidx];
                        let y = t.to.map(|to| new_column[to.index()] ^ prev[t.from.index()]);
                        by_value.entry(y).or_default().push(tidx);
                    }
                    let dc = by_value.remove(&None).unwrap_or_default();
                    let mut pieces: Vec<Vec<usize>> = [Some(false), Some(true)]
                        .iter()
                        .filter_map(|y| by_value.remove(y))
                        .collect();
                    pieces.sort_by_key(|p| std::cmp::Reverse(p.len()));
                    if pieces.is_empty() {
                        pieces.push(dc);
                    } else {
                        pieces[0].extend(dc);
                    }
                    if pieces.len() > 1 {
                        output_splits += pieces.len() - 1;
                    }
                    pieces
                        .into_iter()
                        .filter(|p| !p.is_empty())
                        .map(|transitions| {
                            let present_states = transitions
                                .iter()
                                .map(|&i| fsm.transitions()[i].from.index())
                                .collect();
                            Implicant {
                                transitions,
                                present_states,
                                next_state: group.next_state,
                            }
                        })
                        .collect()
                } else {
                    vec![group.clone()]
                };
                for piece in &pieces {
                    if piece.present_states.len() > 1
                        && face_captures_foreign_state(
                            &piece.present_states,
                            assigned_columns,
                            new_column,
                            fsm.state_count(),
                        )
                    {
                        input_violations += 1;
                    }
                }
                refined.extend(pieces);
            }
            Cost {
                output_splits,
                input_violations,
                refined_groups: refined,
            }
        }

        pub fn face_captures_foreign_state(
            states: &BTreeSet<usize>,
            assigned_columns: &[Vec<bool>],
            new_column: &[bool],
            state_count: usize,
        ) -> bool {
            let mut fixed: Vec<Option<bool>> = Vec::with_capacity(assigned_columns.len() + 1);
            for col in assigned_columns
                .iter()
                .map(Vec::as_slice)
                .chain(std::iter::once(new_column))
            {
                let mut iter = states.iter();
                let first = col[*iter.next().expect("non-empty state set")];
                let all_same = iter.all(|&s| col[s] == first);
                fixed.push(if all_same { Some(first) } else { None });
            }
            (0..state_count).filter(|s| !states.contains(s)).any(|s| {
                fixed.iter().enumerate().all(|(ci, f)| match f {
                    Some(v) => {
                        let col: &[bool] = if ci < assigned_columns.len() {
                            &assigned_columns[ci]
                        } else {
                            new_column
                        };
                        col[s] == *v
                    }
                    None => true,
                })
            })
        }
    }

    /// The oracle's view of a kernel implicant.
    fn to_oracle(group: &SymbolicImplicant) -> oracle::Implicant {
        oracle::Implicant {
            transitions: group.transitions.clone(),
            present_states: members(&group.present_states).collect(),
            next_state: group.next_state,
        }
    }

    /// Implicants compared as sets: the order of transitions inside a piece
    /// never reaches a result.
    fn same_groups(kernel: &[SymbolicImplicant], oracle: &[oracle::Implicant]) -> bool {
        kernel.len() == oracle.len()
            && kernel.iter().zip(oracle).all(|(k, o)| {
                let mut transitions = o.transitions.clone();
                transitions.sort_unstable();
                let k = to_oracle(k);
                k.transitions == transitions
                    && k.present_states == o.present_states
                    && k.next_state == o.next_state
            })
    }

    /// A copy of `fsm` in which every `every`-th transition has a don't-care
    /// next state.
    fn with_dont_care_next_states(fsm: &Fsm, every: usize) -> Fsm {
        let mut builder = Fsm::builder(
            format!("{}_dc", fsm.name()),
            fsm.num_inputs(),
            fsm.num_outputs(),
        );
        for (i, t) in fsm.transitions().iter().enumerate() {
            let to = match t.to {
                Some(to) if i % every != 0 => fsm.state_name(to).to_string(),
                _ => "*".to_string(),
            };
            builder = builder
                .transition(
                    &t.input.to_string(),
                    fsm.state_name(t.from),
                    &to,
                    &t.output.to_string(),
                )
                .unwrap();
        }
        builder.build().unwrap()
    }

    #[test]
    fn kernel_matches_the_oracle_on_seeded_machines() {
        let mut rng = 0x5eed_c057u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let weights = CostWeights::default();
        let mut splits_seen = 0;
        let mut violations_seen = 0;
        for (case, states) in [5usize, 9, 12, 17, 24, 40, 70, 130].into_iter().enumerate() {
            let spec = ControllerSpec::new(format!("oracle{case}"), states, 3, 2)
                .with_decision_vars(1 + case % 3);
            let base = controller(&spec).unwrap();
            for fsm in [with_dont_care_next_states(&base, 3 + case % 4), base] {
                let n = fsm.state_count();
                let bits = fsm.min_state_bits();
                let model = CostModel::new(&fsm);
                // Feasible columns (the bits of a random injective encoding)
                // and unconstrained random ones.
                let encoding = random_encoding(&fsm, bits, next()).unwrap();
                let runs: [Vec<Vec<bool>>; 2] = [
                    (0..bits).map(|c| encoding.column(c)).collect(),
                    (0..bits + 1)
                        .map(|_| (0..n).map(|_| next() & 1 == 1).collect())
                        .collect(),
                ];
                for columns in runs {
                    let mut groups = symbolic_implicants(&fsm);
                    let mut oracle_groups: Vec<oracle::Implicant> =
                        groups.iter().map(to_oracle).collect();
                    let mut assigned: Vec<Vec<u64>> = Vec::new();
                    for (i, column) in columns.iter().enumerate() {
                        let previous_bools = i.checked_sub(1).map(|p| columns[p].as_slice());
                        let expected = oracle::column_cost(
                            &fsm,
                            &oracle_groups,
                            previous_bools,
                            &columns[..i],
                            column,
                        );
                        let new = pack(column);
                        let previous = assigned.last().map(Vec::as_slice);
                        let cost = model.rate(&groups, previous, &assigned, &new, &weights);
                        assert_eq!(cost.output_splits, expected.output_splits, "{}", fsm.name());
                        assert_eq!(
                            cost.input_violations,
                            expected.input_violations,
                            "{}",
                            fsm.name()
                        );
                        groups = model.refine(&groups, previous, &new);
                        assert!(same_groups(&groups, &expected.refined_groups));
                        splits_seen += cost.output_splits;
                        violations_seen += cost.input_violations;
                        oracle_groups = expected.refined_groups;
                        assigned.push(new);
                    }
                }
            }
        }
        // The machines exercise both terms, not just the all-zero case.
        assert!(splits_seen > 0 && violations_seen > 0);
    }

    #[test]
    fn implicants_group_identical_rows() {
        // Two states with identical behaviour rows merge into shared groups.
        let fsm = Fsm::builder("m", 1, 1)
            .transition("0", "A", "C", "1")
            .unwrap()
            .transition("0", "B", "C", "1")
            .unwrap()
            .transition("1", "A", "A", "0")
            .unwrap()
            .transition("1", "B", "A", "0")
            .unwrap()
            .transition("-", "C", "A", "0")
            .unwrap()
            .build()
            .unwrap();
        let groups = symbolic_implicants(&fsm);
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|g| g.transitions.len()).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
        assert!(groups
            .iter()
            .all(|g| g.state_count() == g.transitions.len()));
    }

    #[test]
    fn implicant_count_lower_bounds_transition_count() {
        for fsm in [fig3_example().unwrap(), modulo12_exact().unwrap()] {
            let groups = symbolic_implicants(&fsm);
            assert!(groups.len() <= fsm.transition_count());
            let total: usize = groups.iter().map(|g| g.transitions.len()).sum();
            assert_eq!(total, fsm.transition_count());
        }
    }

    #[test]
    fn output_incompatibility_detects_differing_excitations() {
        // A and B share an implicant (same input cube, output and next state
        // C); if the previous column separates A and B, their excitations
        // yᵢ = sᵢ⁺(C) ⊕ sᵢ₋₁ differ and the implicant must split.
        let fsm = Fsm::builder("split", 1, 1)
            .transition("0", "A", "C", "1")
            .unwrap()
            .transition("0", "B", "C", "1")
            .unwrap()
            .transition("1", "A", "D", "0")
            .unwrap()
            .transition("1", "B", "A", "0")
            .unwrap()
            .transition("-", "C", "A", "0")
            .unwrap()
            .transition("-", "D", "B", "0")
            .unwrap()
            .build()
            .unwrap();
        let model = CostModel::new(&fsm);
        let groups = symbolic_implicants(&fsm);
        // State order: A=0, C=1, B=2, D=3 (first appearance).  Previous
        // column separates A (0) from B (1).
        let b = fsm.state_id("B").unwrap().index();
        let mut prev = vec![false; fsm.state_count()];
        prev[b] = true;
        let prev = pack(&prev);
        let candidate = pack(&[false, true, false, true]);
        let assigned = std::slice::from_ref(&prev);
        let cost = model.rate(
            &groups,
            Some(&prev),
            assigned,
            &candidate,
            &CostWeights::default(),
        );
        assert!(
            cost.output_splits >= 1,
            "expected a split for the shared A/B implicant"
        );
        assert!(model.refine(&groups, Some(&prev), &candidate).len() > groups.len());
        assert!(cost.total > 0.0);
    }

    #[test]
    fn first_column_only_counts_input_term() {
        let fsm = fig3_example().unwrap();
        let model = CostModel::new(&fsm);
        let groups = symbolic_implicants(&fsm);
        let candidate = pack(&[false, true, false]);
        let cost = model.rate(&groups, None, &[], &candidate, &CostWeights::default());
        assert_eq!(cost.output_splits, 0);
        assert_eq!(model.refine(&groups, None, &candidate), groups);
    }

    #[test]
    fn face_violation_detected() {
        // States {0, 2} agree on a column where state 1 also agrees -> the
        // face spanned by {0,2} captures 1.
        let fsm = Fsm::builder("three", 1, 1)
            .transition("-", "S0", "S1", "0")
            .unwrap()
            .transition("-", "S1", "S2", "0")
            .unwrap()
            .transition("-", "S2", "S0", "0")
            .unwrap()
            .build()
            .unwrap();
        let model = CostModel::new(&fsm);
        let states = pack(&[true, false, true]);
        let col = pack(&[true, true, true]);
        assert!(model.captures_foreign_state(&states, &[], &col));
        // With a column separating them, no capture.
        let col2 = pack(&[true, false, true]);
        assert!(!model.captures_foreign_state(&states, std::slice::from_ref(&col2), &col));
    }

    #[test]
    fn equal_pieces_put_the_zero_excitation_first() {
        // A, B, C and D all go to E on input 0 with the same output; E's bit
        // is 0, so y = s⁻ and the previous column {A, B} splits the group
        // into two equal pieces.  The y = 0 piece {C, D} comes first and
        // takes the don't-care row of F.
        let fsm = Fsm::builder("tie", 1, 1)
            .transition("0", "A", "E", "1")
            .unwrap()
            .transition("0", "B", "E", "1")
            .unwrap()
            .transition("0", "C", "E", "1")
            .unwrap()
            .transition("0", "D", "E", "1")
            .unwrap()
            .transition("1", "E", "A", "0")
            .unwrap()
            .transition("1", "F", "*", "0")
            .unwrap()
            .transition("0", "F", "*", "1")
            .unwrap()
            .build()
            .unwrap();
        let model = CostModel::new(&fsm);
        let index = |name: &str| fsm.state_id(name).unwrap().index();
        let mut prev = vec![false; fsm.state_count()];
        prev[index("A")] = true;
        prev[index("B")] = true;
        let prev = pack(&prev);
        let new = pack(&vec![false; fsm.state_count()]);
        let groups: Vec<SymbolicImplicant> = symbolic_implicants(&fsm)
            .into_iter()
            .filter(|g| g.next_state == Some(index("E")))
            .collect();
        assert_eq!(groups.len(), 1);
        let refined = model.refine(&groups, Some(&prev), &new);
        let names = |g: &SymbolicImplicant| -> Vec<String> {
            members(&g.present_states)
                .map(|s| fsm.state_name(StateId(s)).to_string())
                .collect()
        };
        assert_eq!(refined.len(), 2);
        assert_eq!(names(&refined[0]), ["C", "D"]);
        assert_eq!(names(&refined[1]), ["A", "B"]);
    }

    #[test]
    fn weights_scale_the_total() {
        let fsm = modulo12_exact().unwrap();
        let model = CostModel::new(&fsm);
        let groups = symbolic_implicants(&fsm);
        let n = fsm.state_count();
        let prev = pack(&vec![false; n]);
        let candidate = pack(&(0..n).map(|i| i % 2 == 1).collect::<Vec<_>>());
        let assigned = std::slice::from_ref(&prev);
        let unit = model.rate(
            &groups,
            Some(&prev),
            assigned,
            &candidate,
            &CostWeights::default(),
        );
        let double = model.rate(
            &groups,
            Some(&prev),
            assigned,
            &candidate,
            &CostWeights {
                input_incompatibility: 2.0,
                output_incompatibility: 2.0,
            },
        );
        assert!((double.total - 2.0 * unit.total).abs() < 1e-9);
    }

    #[test]
    fn total_assignment_cost_is_deterministic() {
        let fsm = modulo12_exact().unwrap();
        let n = fsm.state_count();
        let columns: Vec<Vec<bool>> = (0..4)
            .map(|c| (0..n).map(|s| (s >> c) & 1 == 1).collect())
            .collect();
        let a = total_assignment_cost(&fsm, &columns, &CostWeights::default());
        let b = total_assignment_cost(&fsm, &columns, &CostWeights::default());
        assert_eq!(a, b);
    }

    #[test]
    fn state_sets_round_trip() {
        let column: Vec<bool> = (0..130).map(|s| s % 3 == 0 || s == 129).collect();
        let set = pack(&column);
        assert_eq!(set.len(), 3);
        let expected: Vec<usize> = (0..130).filter(|&s| column[s]).collect();
        assert_eq!(members(&set).collect::<Vec<_>>(), expected);
        assert!((0..130).all(|s| contains(&set, s) == column[s]));
    }
}
