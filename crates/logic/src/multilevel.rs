//! Literal counting and a greedy factoring estimate.
//!
//! Table 3 of the paper reports "number of literals" after multi-level logic
//! minimization with `mustang`/`misII`.  A full multi-level synthesis system
//! is outside the scope of this reproduction; instead this module provides
//! the standard two-level literal count plus a greedy common-divisor
//! (factoring) estimate that approximates the literal savings a multi-level
//! optimizer obtains from shared sub-expressions.  The estimate is computed
//! identically for all BIST structures, so the *relative* comparison of
//! Table 3 is preserved.
//!
//! # Pair counts
//!
//! Each round of the extraction loop needs the number of cubes that hold
//! each pair of literals.  Literals are numbered densely in the order the
//! choice rule uses: input `v` complemented is `2v`, uncomplemented
//! `2v + 1`, and the intermediate literals follow every input literal in the
//! order they are made.  The counts live in a triangular table, pair `a < b`
//! at `b(b − 1)/2 + a`, so a new intermediate appends its row.  They are
//! counted once from the cover and then kept up to date: when a cube holding
//! the extracted pair `{a, b}` and the other literals `X` gets the
//! intermediate `r` in its place, the pairs `(a, b)`, `(a, x)` and `(b, x)`
//! lose that cube and each `(r, x)` gains it.
//!
//! A round extracts the pair with the highest count and, among equal counts,
//! the smallest pair `(a, b)` in that order, so the result does not depend
//! on how the pairs are stored.

use crate::{Cover, Trit};

/// Breakdown of the multi-level literal estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiteralEstimate {
    /// Literals of the flat two-level cover (AND-plane contacts).
    pub two_level: usize,
    /// Output (OR-plane) contacts of the flat cover.
    pub output_connections: usize,
    /// Literals saved by greedily extracting common literal pairs
    /// (single-cube divisors of size 2).
    pub factoring_savings: usize,
    /// The resulting factored-literal estimate
    /// (`two_level - factoring_savings`, never below the number of cubes).
    pub factored: usize,
}

/// Counts the literals of every cube and estimates the factored literal count
/// by greedy extraction of common literal pairs.
///
/// The extraction loop repeatedly finds the pair of literals that co-occurs
/// in the largest number of cubes (see the module docs for the tie rule); if
/// it occurs in `k ≥ 2` cubes, replacing it by a new intermediate signal
/// saves `2k − (2 + k) = k − 2` literals (two literals per cube become one
/// reference, plus the divisor itself costs two literals).  The loop stops
/// when no pair saves anything, or after `max(cubes, 16)` rounds.
pub fn estimate_literals(cover: &Cover) -> LiteralEstimate {
    let two_level = cover.literal_count();
    let output_connections = cover.output_literal_count();

    // Each cube as the numbers of its literals (see the module docs).
    let mut cubes: Vec<Vec<usize>> = cover
        .cubes()
        .iter()
        .map(|c| {
            c.inputs()
                .iter()
                .enumerate()
                .filter_map(|(v, t)| match t {
                    Trit::Zero => Some(2 * v),
                    Trit::One => Some(2 * v + 1),
                    Trit::DontCare => None,
                })
                .collect()
        })
        .collect();
    let mut pairs = PairCounts::new(2 * cover.num_inputs());
    for cube in &cubes {
        for (i, &a) in cube.iter().enumerate() {
            for &b in &cube[i + 1..] {
                pairs.counts[pair_index(a, b)] += 1;
            }
        }
    }

    let mut savings = 0usize;
    // Bound the number of extraction rounds to keep the estimate cheap even
    // for very large covers.
    for _ in 0..cover.len().max(16) {
        let (a, b, count) = pairs.best();
        if count < 3 {
            // k - 2 <= 0: no saving from extracting this pair.
            break;
        }
        savings += count as usize - 2;
        // Replace the pair by a fresh intermediate literal in every cube that
        // contains it, so later rounds can stack factors.
        let replacement = pairs.add_literal();
        for cube in &mut cubes {
            if cube.contains(&a) && cube.contains(&b) {
                cube.retain(|&l| l != a && l != b);
                for &x in cube.iter() {
                    pairs.counts[pair_index(a, x)] -= 1;
                    pairs.counts[pair_index(b, x)] -= 1;
                    pairs.counts[pair_index(replacement, x)] += 1;
                }
                pairs.counts[pair_index(a, b)] -= 1;
                cube.push(replacement);
            }
        }
    }

    let factored = two_level.saturating_sub(savings).max(cover.len());
    LiteralEstimate {
        two_level,
        output_connections,
        factoring_savings: savings,
        factored,
    }
}

/// The slot of the pair of distinct literals `a`, `b` in the triangular
/// table (see the module docs).
fn pair_index(a: usize, b: usize) -> usize {
    let (low, high) = if a < b { (a, b) } else { (b, a) };
    high * (high - 1) / 2 + low
}

/// The pair counts of the extraction loop (see the module docs).
struct PairCounts {
    literals: usize,
    counts: Vec<u32>,
}

impl PairCounts {
    /// Zero counts over `literals` literals.
    fn new(literals: usize) -> Self {
        Self {
            literals,
            counts: vec![0; literals * literals.saturating_sub(1) / 2],
        }
    }

    /// Numbers a new literal, after every existing one, and returns it.
    fn add_literal(&mut self) -> usize {
        let literal = self.literals;
        self.literals += 1;
        self.counts.resize(self.counts.len() + literal, 0);
        literal
    }

    /// The pair `(a, b)`, `a < b`, with the highest count, the smallest pair
    /// among equal counts, and its count; the count is 0 if no cube holds a
    /// pair.
    fn best(&self) -> (usize, usize, u32) {
        let mut best = (0, 0, 0);
        for high in 1..self.literals {
            let row = &self.counts[high * (high - 1) / 2..][..high];
            // The first maximum of the row has the smallest `a`; a later row
            // wins only with a higher count or a smaller `a`.
            let (mut low, mut count) = (0, row[0]);
            for (a, &c) in row.iter().enumerate().skip(1) {
                if c > count {
                    (low, count) = (a, c);
                }
            }
            if count > best.2 || (count == best.2 && count > 0 && low < best.0) {
                best = (low, high, count);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cube;
    use std::collections::HashMap;

    /// A literal: an input variable together with its polarity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Literal {
        variable: usize,
        positive: bool,
    }

    /// The estimate with pair counts rebuilt in a `HashMap` every round: the
    /// reference for [`estimate_literals`].  Also returns how many extracted
    /// pairs held an intermediate literal.
    fn hashed_estimate(cover: &Cover) -> (LiteralEstimate, usize) {
        let two_level = cover.literal_count();
        let output_connections = cover.output_literal_count();

        let mut cubes: Vec<Vec<Literal>> = cover
            .cubes()
            .iter()
            .map(|c| {
                c.inputs()
                    .iter()
                    .enumerate()
                    .filter_map(|(v, t)| match t {
                        Trit::Zero => Some(Literal {
                            variable: v,
                            positive: false,
                        }),
                        Trit::One => Some(Literal {
                            variable: v,
                            positive: true,
                        }),
                        Trit::DontCare => None,
                    })
                    .collect()
            })
            .collect();

        let mut savings = 0usize;
        let mut stacked = 0;
        let mut next_intermediate = cover.num_inputs();
        #[allow(clippy::explicit_counter_loop)]
        for _ in 0..cover.len().max(16) {
            let mut pair_counts: HashMap<(Literal, Literal), usize> = HashMap::new();
            for cube in &cubes {
                for i in 0..cube.len() {
                    for j in (i + 1)..cube.len() {
                        let (a, b) = if cube[i] <= cube[j] {
                            (cube[i], cube[j])
                        } else {
                            (cube[j], cube[i])
                        };
                        *pair_counts.entry((a, b)).or_insert(0) += 1;
                    }
                }
            }
            // Highest count, ties broken by the pair itself.
            let Some((&pair, &count)) = pair_counts
                .iter()
                .max_by_key(|(&pair, &c)| (c, std::cmp::Reverse(pair)))
            else {
                break;
            };
            if count < 3 {
                break;
            }
            savings += count - 2;
            stacked += usize::from(pair.1.variable >= cover.num_inputs());
            let replacement = Literal {
                variable: next_intermediate,
                positive: true,
            };
            next_intermediate += 1;
            for cube in &mut cubes {
                if cube.contains(&pair.0) && cube.contains(&pair.1) {
                    cube.retain(|l| *l != pair.0 && *l != pair.1);
                    cube.push(replacement);
                }
            }
        }

        let factored = two_level.saturating_sub(savings).max(cover.len());
        let estimate = LiteralEstimate {
            two_level,
            output_connections,
            factoring_savings: savings,
            factored,
        };
        (estimate, stacked)
    }

    fn cover(num_inputs: usize, cubes: &[&str]) -> Cover {
        let cubes = cubes.iter().map(|i| Cube::parse(i, "1").unwrap()).collect();
        Cover::from_cubes(num_inputs, 1, cubes).unwrap()
    }

    #[test]
    fn two_level_count_matches_cover() {
        let c = cover(3, &["01-", "1-0", "111"]);
        let est = estimate_literals(&c);
        assert_eq!(est.two_level, 2 + 2 + 3);
        assert_eq!(est.output_connections, 3);
        assert!(est.factored <= est.two_level);
    }

    #[test]
    fn shared_pair_is_factored() {
        // Four cubes all containing the pair (x0=1, x1=1): extracting it
        // saves 4 - 2 = 2 literals.
        let c = cover(4, &["11-0", "11-1", "110-", "111-"]);
        let est = estimate_literals(&c);
        assert_eq!(est.two_level, 12);
        assert!(est.factoring_savings >= 2);
        assert_eq!(est.factored, est.two_level - est.factoring_savings);
    }

    #[test]
    fn no_sharing_means_no_savings() {
        let c = cover(4, &["1---", "-0--", "--1-", "---0"]);
        let est = estimate_literals(&c);
        assert_eq!(est.two_level, 4);
        assert_eq!(est.factoring_savings, 0);
        assert_eq!(est.factored, 4);
    }

    #[test]
    fn factored_never_drops_below_cube_count() {
        let c = cover(3, &["111", "111", "111", "111"]);
        let est = estimate_literals(&c);
        assert!(est.factored >= c.len());
    }

    #[test]
    fn empty_cover() {
        let c = Cover::new(4, 1);
        let est = estimate_literals(&c);
        assert_eq!(est.two_level, 0);
        assert_eq!(est.factored, 0);
        assert_eq!(est.factoring_savings, 0);
    }

    #[test]
    fn estimate_is_deterministic() {
        let c = cover(5, &["11--0", "11-1-", "1-1-0", "0-11-", "00--1"]);
        let a = estimate_literals(&c);
        let b = estimate_literals(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_counts_match_the_hashed_estimate() {
        let mut state = 0x1ee7_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut stacked = 0;
        for case in 0..400 {
            let inputs = 2 + case % 11;
            let len = 1 + next() as usize % 40;
            // Few distinct cubes and few don't-cares: many pairs tie, and
            // the intermediates pair up with each other in later rounds.
            let pool: Vec<String> = (0..1 + next() % 6)
                .map(|_| {
                    (0..inputs)
                        .map(|_| match next() % 8 {
                            0 => '-',
                            1 | 2 => '0',
                            _ => '1',
                        })
                        .collect()
                })
                .collect();
            let cubes: Vec<&str> = (0..len)
                .map(|_| pool[next() as usize % pool.len()].as_str())
                .collect();
            let c = cover(inputs, &cubes);
            let (expected, intermediates) = hashed_estimate(&c);
            assert_eq!(estimate_literals(&c), expected, "{c}");
            stacked += usize::from(intermediates > 0);
        }
        assert!(stacked > 100, "{stacked} covers stacked replacements");
    }

    #[test]
    fn ties_take_the_smallest_pair() {
        let mut pairs = PairCounts::new(6);
        for (a, b) in [(4, 5), (2, 5), (1, 3), (2, 3)] {
            pairs.counts[pair_index(a, b)] = 7;
        }
        pairs.counts[pair_index(0, 5)] = 6;
        assert_eq!(pairs.best(), (1, 3, 7));
        pairs.counts[pair_index(3, 1)] = 0;
        assert_eq!(pairs.best(), (2, 3, 7));
        let intermediate = pairs.add_literal();
        assert_eq!(intermediate, 6);
        pairs.counts[pair_index(0, intermediate)] = 7;
        assert_eq!(pairs.best(), (0, 6, 7));
        assert_eq!(PairCounts::new(1).best().2, 0);
    }
}
