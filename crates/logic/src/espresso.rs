//! Espresso-style heuristic two-level minimization.
//!
//! The minimizer follows the classical EXPAND / IRREDUNDANT loop of espresso
//! on a multi-output cover with "fr" semantics (see [`crate::Pla`]): the
//! OFF-set is exactly the set of rows specifying `0`, every input vector not
//! covered by a specification row is a global don't-care.  These are the
//! semantics of an encoded FSM transition table, where unused state codes and
//! unspecified input combinations may be used freely by the optimizer — the
//! effect the paper's synthesis procedures exploit (Section 2.3).
//!
//! # The packed working cover
//!
//! [`minimize`] packs the ON-cover and the OFF-set into `u64` words once
//! (`PackedCubes`), runs EXPAND, single-cube containment and IRREDUNDANT on
//! those words, and unpacks the result into [`Cube`]s at the end:
//!
//! * each input takes two bits, 32 inputs per word: bit `2v` set means the
//!   literal admits 0, bit `2v + 1` that it admits 1 (`0` → `01`,
//!   `1` → `10`, `-` → `11`), and the fields past the last input read `11`;
//! * each output takes one bit, 64 outputs per word.
//!
//! Two cubes meet when no 2-bit input field of their AND is `00` and their
//! output words share a bit (the predicate of [`Cube::intersects`]); a cube
//! covers another when it has every bit the other has (the predicate of
//! [`Cube::covers`]).  EXPAND tests every raised literal and every added
//! output against the whole OFF-set with the first, containment removal
//! compares cubes with the second.
//!
//! IRREDUNDANT drops a cube when the rest of the cover covers it on every
//! output it drives.  For one output that is a tautology question: the cubes
//! of the rest that drive the output and meet the candidate, each cofactored
//! against the candidate, must cover the whole input space.  The cofactor is
//! an OR with the candidate's specified-field mask (`11` in every field the
//! candidate specifies), which frees the variables the candidate fixes.  The
//! tautology test is unate-recursive, on the same words:
//!
//! * no cubes: not a tautology; a universal cube (every field `11`): a
//!   tautology;
//! * no binate variable (none appears in both polarities): not a tautology,
//!   since the point that sets every variable against the one polarity it
//!   appears in lies in no cube — the unate rule of Brayton et al., *Logic
//!   Minimization Algorithms for VLSI Synthesis* (1984);
//! * otherwise split on the most binate variable (the binate variable
//!   specified in the most cubes, the lowest one on a tie): both halves, each
//!   a copy of the cubes that admit the value with the variable freed, must be
//!   tautologies.  Each recursion depth reuses one scratch buffer.
//!
//! Every test answers exactly what the scalar predicate answers, so each step
//! makes the decisions it would make on `Vec<Trit>` cubes.  [`verify`] keeps
//! the scalar [`Cover::covers_cube`] so that it checks the minimizer with code
//! the minimizer does not share.
//!
//! # One pass
//!
//! The minimizer runs EXPAND → containment → IRREDUNDANT once, because a
//! second pass cannot change the cover.  A raise that EXPAND refused stays
//! refused: the cube only grows afterwards, and a larger cube meets more of
//! the OFF-set.  Containment removal leaves no cube inside another, and
//! IRREDUNDANT only removes cubes, so that stays true.  IRREDUNDANT kept a
//! cube because the rest of the cover did not cover it, and the rest only
//! shrinks afterwards.

use crate::{Cover, Cube, Pla, Trit};
use std::cmp::Reverse;

/// The low bit of every 2-bit input field.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Cubes packed into words (see the module docs).
#[derive(Debug)]
struct PackedCubes {
    num_inputs: usize,
    num_outputs: usize,
    input_words: usize,
    output_words: usize,
    /// Number of cubes; a cube of no inputs and no outputs takes no words.
    len: usize,
    /// `input_words` input words then `output_words` output words per cube.
    words: Vec<u64>,
}

impl PackedCubes {
    /// Packs every cube of `cover`.
    fn new(cover: &Cover) -> Self {
        let mut packed = Self {
            num_inputs: cover.num_inputs(),
            num_outputs: cover.num_outputs(),
            input_words: cover.num_inputs().div_ceil(32),
            output_words: cover.num_outputs().div_ceil(64),
            len: cover.len(),
            words: Vec::new(),
        };
        for cube in cover.cubes() {
            let row = packed.pack(cube);
            packed.words.extend(row);
        }
        packed
    }

    /// One cube in the layout of the packed cubes.
    fn pack(&self, cube: &Cube) -> Vec<u64> {
        let mut row = vec![u64::MAX; self.input_words];
        for (v, &t) in cube.inputs().iter().enumerate() {
            set_input_field(&mut row, v, t);
        }
        row.extend(std::iter::repeat_n(0, self.output_words));
        for (j, _) in cube.outputs().iter().enumerate().filter(|(_, &o)| o) {
            row[self.input_words + j / 64] |= 1 << (j % 64);
        }
        row
    }

    /// Words per cube.
    fn stride(&self) -> usize {
        self.input_words + self.output_words
    }

    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride()..(i + 1) * self.stride()]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let stride = self.stride();
        &mut self.words[i * stride..(i + 1) * stride]
    }

    /// Number of specified input literals of cube `i`.
    fn literal_count(&self, i: usize) -> usize {
        let dont_cares: u32 = self.row(i)[..self.input_words]
            .iter()
            .map(|w| (w & (w >> 1) & LOW_BITS).count_ones())
            .sum();
        32 * self.input_words - dont_cares as usize
    }

    /// Whether the packed `cube` intersects any of the packed cubes, in the
    /// sense of [`Cube::intersects`].
    fn any_intersects(&self, cube: &[u64]) -> bool {
        let (inputs, outputs) = cube.split_at(self.input_words);
        // Without outputs no cubes share one, and there are no words to scan.
        self.words.chunks_exact(self.stride().max(1)).any(|other| {
            let (other_inputs, other_outputs) = other.split_at(self.input_words);
            outputs.iter().zip(other_outputs).any(|(a, b)| a & b != 0)
                && inputs_meet(inputs, other_inputs)
        })
    }

    /// Keeps the cubes `i` for which `keep(i)` holds, in order.
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let stride = self.stride();
        let mut kept = 0;
        for i in 0..self.len {
            if keep(i) {
                self.words
                    .copy_within(i * stride..(i + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        self.len = kept;
        self.words.truncate(kept * stride);
    }

    /// Removes every cube that another single cube covers; of two equal
    /// cubes the first stays.
    fn remove_contained(&mut self) {
        let covers = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(a, b)| b & !a == 0);
        let mut keep = vec![true; self.len];
        for i in 0..self.len {
            keep[i] = !(0..self.len).any(|j| {
                j != i
                    && keep[j]
                    && covers(self.row(j), self.row(i))
                    && !(j > i && covers(self.row(i), self.row(j)))
            });
        }
        self.retain(|i| keep[i]);
    }

    /// The cubes as a [`Cover`].
    fn unpack(&self) -> Cover {
        let cubes = (0..self.len)
            .map(|i| {
                let row = self.row(i);
                let inputs = (0..self.num_inputs)
                    .map(|v| match row[v / 32] >> (2 * (v % 32)) & 0b11 {
                        0b01 => Trit::Zero,
                        0b10 => Trit::One,
                        _ => Trit::DontCare,
                    })
                    .collect();
                let outputs = (0..self.num_outputs)
                    .map(|j| row[self.input_words + j / 64] >> (j % 64) & 1 == 1)
                    .collect();
                Cube::new(inputs, outputs)
            })
            .collect();
        Cover::from_cubes(self.num_inputs, self.num_outputs, cubes).expect("dimensions preserved")
    }
}

/// Whether two packed input parts share a point: no field of their AND is
/// `00`.
fn inputs_meet(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(a, b)| {
        let meet = a & b;
        (meet | meet >> 1) & LOW_BITS == LOW_BITS
    })
}

/// Writes the 2-bit field of input `v` (see the module docs).
fn set_input_field(row: &mut [u64], v: usize, value: Trit) {
    let field: u64 = match value {
        Trit::Zero => 0b01,
        Trit::One => 0b10,
        Trit::DontCare => 0b11,
    };
    let shift = 2 * (v % 32);
    row[v / 32] = (row[v / 32] & !(0b11 << shift)) | field << shift;
}

/// The covering test of IRREDUNDANT and its scratch space, which is reused
/// from one test to the next (see the module docs).
#[derive(Debug, Default)]
struct CoverCheck {
    /// Cubes of the rest of the cover that meet the candidate.
    meeting: Vec<usize>,
    /// The candidate's specified-field mask.
    mask: Vec<u64>,
    /// Cofactored input parts, one buffer per recursion depth.
    levels: Vec<Vec<u64>>,
    /// Fields holding a literal 0 in some cube at hand, one bit per field.
    zeros: Vec<u64>,
    /// Fields holding a literal 1 in some cube, then the binate fields.
    binate: Vec<u64>,
    /// Literals per binate variable.
    counts: Vec<u32>,
}

impl CoverCheck {
    /// Whether the cubes `i` of `cover` with `skip(i)` false cover the packed
    /// `cube` on every output it drives, in the sense of
    /// [`Cover::covers_cube`].
    fn covers(&mut self, cover: &PackedCubes, cube: &[u64], skip: impl Fn(usize) -> bool) -> bool {
        let input_words = cover.input_words;
        let (inputs, outputs) = cube.split_at(input_words);
        self.meeting.clear();
        self.meeting.extend(
            (0..cover.len())
                .filter(|&i| !skip(i) && inputs_meet(inputs, &cover.row(i)[..input_words])),
        );
        self.mask.clear();
        self.mask.extend(inputs.iter().map(|w| {
            let specified = !(w & (w >> 1)) & LOW_BITS;
            specified | specified << 1
        }));
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        for (k, &word) in outputs.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let mut driving = 0;
                let level = &mut self.levels[0];
                level.clear();
                for &i in &self.meeting {
                    let row = cover.row(i);
                    if row[input_words + k] & bit != 0 {
                        driving += 1;
                        level.extend(
                            row[..input_words]
                                .iter()
                                .zip(&self.mask)
                                .map(|(w, m)| w | m),
                        );
                    }
                }
                // Without inputs every driving cube is universal.
                let covered = match (driving, input_words) {
                    (0, _) => false,
                    (_, 0) => true,
                    _ => self.tautology(input_words, 0),
                };
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the input parts in `levels[depth]`, `stride` words each, cover
    /// the whole input space.
    fn tautology(&mut self, stride: usize, depth: usize) -> bool {
        let cubes = &self.levels[depth];
        if cubes.is_empty() {
            return false;
        }
        if cubes
            .chunks_exact(stride)
            .any(|c| c.iter().all(|&w| w == u64::MAX))
        {
            return true;
        }
        let Some(v) = self.most_binate(stride, depth) else {
            return false;
        };
        if self.levels.len() == depth + 1 {
            self.levels.push(Vec::new());
        }
        let (word, shift) = (v / 32, 2 * (v % 32));
        for half in [0b01, 0b10] {
            let (lower, upper) = self.levels.split_at_mut(depth + 1);
            let next = &mut upper[0];
            next.clear();
            for c in lower[depth].chunks_exact(stride) {
                if c[word] >> shift & half != 0 {
                    next.extend_from_slice(c);
                    let freed = next.len() - stride + word;
                    next[freed] |= 0b11 << shift;
                }
            }
            if !self.tautology(stride, depth + 1) {
                return false;
            }
        }
        true
    }

    /// The binate variable of `levels[depth]` specified in the most cubes,
    /// the lowest on a tie; `None` if the cubes are unate.
    fn most_binate(&mut self, stride: usize, depth: usize) -> Option<usize> {
        let cubes = &self.levels[depth];
        self.zeros.clear();
        self.zeros.resize(stride, 0);
        self.binate.clear();
        self.binate.resize(stride, 0);
        for c in cubes.chunks_exact(stride) {
            for ((z, b), w) in self.zeros.iter_mut().zip(&mut self.binate).zip(c) {
                // Fields `01` (literal 0) and `10` (literal 1).
                *z |= w & !(w >> 1) & LOW_BITS;
                *b |= (w >> 1) & !w & LOW_BITS;
            }
        }
        let mut any = false;
        for (b, z) in self.binate.iter_mut().zip(&self.zeros) {
            *b &= z;
            any |= *b != 0;
        }
        if !any {
            return None;
        }
        self.counts.clear();
        self.counts.resize(32 * stride, 0);
        for c in cubes.chunks_exact(stride) {
            for (k, (w, b)) in c.iter().zip(&self.binate).enumerate() {
                let mut specified = !(w & (w >> 1)) & b;
                while specified != 0 {
                    self.counts[32 * k + specified.trailing_zeros() as usize / 2] += 1;
                    specified &= specified - 1;
                }
            }
        }
        let (mut best, mut best_count) = (None, 0);
        for (v, &count) in self.counts.iter().enumerate() {
            if count > best_count {
                (best, best_count) = (Some(v), count);
            }
        }
        best
    }
}

/// The minimizer's configuration, which has no settings (it always runs
/// one pass, see the [module docs](self#one-pass)).  The type remains only
/// as the second argument of [`minimize_with`], which the repository
/// benchmark (`perfbench/src/flow.rs`) calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeConfig;

/// Statistics of one minimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Cubes in the initial ON-cover (specification rows with at least one
    /// `1` output).
    pub initial_cubes: usize,
    /// Cubes in the final cover (the "number of product terms" reported in
    /// the paper's tables).
    pub final_cubes: usize,
    /// Input literals of the final cover.
    pub literals: usize,
    /// Output (OR-plane) connections of the final cover.
    pub output_literals: usize,
}

/// The result of minimization: the final cover plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeResult {
    /// The minimized multi-output cover.
    pub cover: Cover,
    /// Run statistics.
    pub stats: MinimizeStats,
}

impl MinimizeResult {
    /// The number of product terms of the minimized cover.
    pub fn product_terms(&self) -> usize {
        self.cover.len()
    }

    /// The number of input literals of the minimized cover.
    pub fn literals(&self) -> usize {
        self.cover.literal_count()
    }
}

/// Minimizes a specification: one EXPAND → containment → IRREDUNDANT
/// pass (see the [module docs](self#one-pass)).
pub fn minimize(pla: &Pla) -> MinimizeResult {
    let mut cover = PackedCubes::new(&pla.on_cover());
    let off = PackedCubes::new(&pla.off_cover());
    let initial_cubes = cover.len();

    expand(&mut cover, &off);
    cover.remove_contained();
    irredundant(&mut cover, &mut CoverCheck::default());

    let cover = cover.unpack();
    let stats = MinimizeStats {
        initial_cubes,
        final_cubes: cover.len(),
        literals: cover.literal_count(),
        output_literals: cover.output_literal_count(),
    };
    MinimizeResult { cover, stats }
}

/// Minimizes a specification; the same as [`minimize`] (the configuration
/// has no settings).
pub fn minimize_with(pla: &Pla, _config: &MinimizeConfig) -> MinimizeResult {
    minimize(pla)
}

/// EXPAND: raise literals of every cube to don't-care and grow its output
/// set as long as the cube stays disjoint from the OFF-set of every output
/// it drives.
fn expand(cover: &mut PackedCubes, off: &PackedCubes) {
    // Process the most specific cubes first (they profit most from
    // expansion).
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&i| cover.literal_count(i));

    let mut cube = vec![0; cover.stride()];
    for &idx in &order {
        cube.copy_from_slice(cover.row(idx));
        // Try to raise each specified input literal.
        for v in 0..cover.num_inputs {
            let (word, field) = (v / 32, 0b11 << (2 * (v % 32)));
            let saved = cube[word];
            if saved & field == field {
                continue;
            }
            cube[word] |= field;
            if off.any_intersects(&cube) {
                cube[word] = saved;
            }
        }
        // Try to add further outputs.
        for j in 0..cover.num_outputs {
            let (word, bit) = (cover.input_words + j / 64, 1u64 << (j % 64));
            if cube[word] & bit != 0 {
                continue;
            }
            cube[word] |= bit;
            if off.any_intersects(&cube) {
                cube[word] &= !bit;
            }
        }
        cover.row_mut(idx).copy_from_slice(&cube);
    }
}

/// IRREDUNDANT: greedily drop cubes that are entirely covered by the rest of
/// the cover.  (This is a sufficient condition for removability; parts of a
/// cube reaching into the global don't-care space would not strictly need to
/// be covered, so the result is conservative but always correct.)
fn irredundant(cover: &mut PackedCubes, check: &mut CoverCheck) {
    // Removing large cubes first tends to keep the prime cubes produced by
    // EXPAND and drop the leftovers they absorbed.
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&i| Reverse(cover.literal_count(i)));

    let mut removed = vec![false; cover.len()];
    for &idx in &order {
        if check.covers(cover, cover.row(idx), |i| i == idx || removed[i]) {
            removed[idx] = true;
        }
    }
    cover.retain(|i| !removed[i]);
}

/// Exact verification that a cover implements a specification:
///
/// * every `1` entry of the specification is covered by the cover, and
/// * no cube of the cover intersects a `0` entry of the specification on an
///   output the cube drives.
///
/// Returns `true` if both conditions hold.
pub fn verify(pla: &Pla, cover: &Cover) -> bool {
    // Correctness on the OFF-set.
    let off = pla.off_cover();
    for c in cover.cubes() {
        if off.cubes().iter().any(|o| o.intersects(c)) {
            return false;
        }
    }
    // Coverage of the ON-set.
    let on = pla.on_cover();
    for row in on.cubes() {
        if !cover.covers_cube(row) {
            return false;
        }
    }
    true
}
#[cfg(test)]
mod tests {
    use super::*;

    fn pla(num_inputs: usize, num_outputs: usize, rows: &[(&str, &str)]) -> Pla {
        let mut p = Pla::new(num_inputs, num_outputs);
        for (i, o) in rows {
            p.add_row(i, o).unwrap();
        }
        p
    }

    #[test]
    fn already_minimal_function_is_preserved() {
        let p = pla(2, 1, &[("01", "1"), ("10", "1"), ("00", "0"), ("11", "0")]);
        let r = minimize(&p);
        assert_eq!(r.product_terms(), 2);
        assert!(verify(&p, &r.cover));
        assert_eq!(r.stats.initial_cubes, 2);
        assert_eq!(r.stats.final_cubes, 2);
    }

    #[test]
    fn dont_cares_enable_merging() {
        // XOR with 11 as a don't-care can be covered by two larger cubes or
        // even fewer terms.
        let p = pla(2, 1, &[("01", "1"), ("10", "1"), ("00", "0"), ("11", "-")]);
        let r = minimize(&p);
        assert!(r.product_terms() <= 2);
        assert!(r.literals() <= 2);
        assert!(verify(&p, &r.cover));
    }

    #[test]
    fn unspecified_space_is_a_dont_care() {
        // Only two rows are given; the rest of the input space is free, so a
        // single universal-ish cube should suffice.
        let p = pla(3, 1, &[("000", "1"), ("111", "1")]);
        let r = minimize(&p);
        assert_eq!(r.product_terms(), 1);
        assert_eq!(r.cover.cubes()[0].literal_count(), 0);
        assert!(verify(&p, &r.cover));
    }

    #[test]
    fn redundant_rows_are_removed() {
        let p = pla(
            3,
            1,
            &[("0-0", "1"), ("00-", "1"), ("0-1", "1"), ("1--", "0")],
        );
        let r = minimize(&p);
        assert!(r.product_terms() <= 2);
        assert!(verify(&p, &r.cover));
    }

    #[test]
    fn multi_output_sharing() {
        // Both outputs have the same ON cube; output expansion should let a
        // single product term drive both.
        let p = pla(
            2,
            2,
            &[("11", "11"), ("00", "00"), ("01", "00"), ("10", "00")],
        );
        let r = minimize(&p);
        assert_eq!(r.product_terms(), 1);
        assert_eq!(r.cover.cubes()[0].output_count(), 2);
        assert!(verify(&p, &r.cover));
    }

    #[test]
    fn verify_rejects_wrong_covers() {
        let p = pla(2, 1, &[("01", "1"), ("10", "1"), ("00", "0"), ("11", "0")]);
        // A cover that also asserts 11 conflicts with the OFF-set.
        let wrong = Cover::from_cubes(2, 1, vec![Cube::parse("--", "1").unwrap()]).unwrap();
        assert!(!verify(&p, &wrong));
        // A cover missing the 10 minterm does not cover the ON-set.
        let missing = Cover::from_cubes(2, 1, vec![Cube::parse("01", "1").unwrap()]).unwrap();
        assert!(!verify(&p, &missing));
    }

    #[test]
    fn three_variable_majority_function() {
        let p = pla(
            3,
            1,
            &[
                ("110", "1"),
                ("101", "1"),
                ("011", "1"),
                ("111", "1"),
                ("000", "0"),
                ("001", "0"),
                ("010", "0"),
                ("100", "0"),
            ],
        );
        let r = minimize(&p);
        assert_eq!(r.product_terms(), 3);
        assert_eq!(r.literals(), 6);
        assert!(verify(&p, &r.cover));
    }

    /// A seeded xorshift generator.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A pseudo-random cube over `inputs` inputs and `outputs` outputs.
    fn random_cube(next: &mut impl FnMut() -> u64, inputs: usize, outputs: usize) -> Cube {
        let trits = (0..inputs)
            .map(|_| match next() % 5 {
                0 => Trit::Zero,
                1 => Trit::One,
                _ => Trit::DontCare,
            })
            .collect();
        let outs = (0..outputs).map(|_| next().is_multiple_of(23)).collect();
        Cube::new(trits, outs)
    }

    #[test]
    fn packed_intersection_matches_cube_intersects() {
        let mut next = xorshift(0x000f_f5e7);
        let mut hits = 0;
        for (inputs, outputs) in [(1, 1), (5, 3), (32, 64), (33, 65), (47, 70), (70, 130)] {
            let cubes: Vec<Cube> = (0..40)
                .map(|_| random_cube(&mut next, inputs, outputs))
                .collect();
            let cover = Cover::from_cubes(inputs, outputs, cubes.clone()).unwrap();
            let packed = PackedCubes::new(&cover);
            for probe in (0..200).map(|_| random_cube(&mut next, inputs, outputs)) {
                let expected = cubes.iter().any(|o| o.intersects(&probe));
                assert_eq!(packed.any_intersects(&packed.pack(&probe)), expected);
                hits += usize::from(expected);
                // One cube at a time, so every cube is checked on its own.
                for (i, other) in cubes.iter().enumerate() {
                    let single = Cover::from_cubes(inputs, outputs, vec![other.clone()]).unwrap();
                    let single = PackedCubes::new(&single);
                    assert_eq!(
                        single.any_intersects(&single.pack(&probe)),
                        other.intersects(&probe),
                        "cube {i} of {inputs}x{outputs}"
                    );
                }
            }
        }
        assert!(hits > 0);
    }

    /// `cube` split on random free inputs into at most `pieces` disjoint
    /// cubes that together cover it: a binate cover of the cube.
    fn split(next: &mut impl FnMut() -> u64, cube: &Cube, pieces: usize) -> Vec<Cube> {
        let mut split = vec![cube.clone()];
        while split.len() < pieces {
            let i = next() as usize % split.len();
            let free: Vec<usize> = (0..cube.num_inputs())
                .filter(|&v| split[i].input(v) == Trit::DontCare)
                .collect();
            if free.is_empty() {
                break;
            }
            let v = free[next() as usize % free.len()];
            let mut half = split[i].clone();
            split[i].set_input(v, Trit::Zero);
            half.set_input(v, Trit::One);
            split.push(half);
        }
        split
    }

    #[test]
    fn packed_covering_matches_covers_cube() {
        let mut next = xorshift(0x0c0f_fee5);
        let mut check = CoverCheck::default();
        let (mut covered, mut uncovered) = (0, 0);
        for inputs in [0, 1, 5, 31, 32, 33, 64, 65, 70] {
            for outputs in [1, 2, 65, 130] {
                for trial in 0..32 {
                    let mut probe = random_cube(&mut next, inputs, outputs);
                    probe.set_output(next() as usize % outputs, true);
                    let mut cubes = match trial % 4 {
                        0 => Vec::new(),
                        // Unate: positive literals only.
                        1 => (0..6)
                            .map(|_| {
                                let mut cube = random_cube(&mut next, inputs, outputs);
                                for v in 0..inputs {
                                    if cube.input(v) == Trit::Zero {
                                        cube.set_input(v, Trit::One);
                                    }
                                }
                                cube.set_output(
                                    probe.outputs().iter().position(|&o| o).unwrap(),
                                    true,
                                );
                                cube
                            })
                            .collect(),
                        // Binate: the probe split into pieces, plus noise.
                        kind => {
                            let count = 1 + next() as usize % 12;
                            let mut pieces = split(&mut next, &probe, count);
                            if kind == 3 {
                                pieces.extend(
                                    (0..4).map(|_| random_cube(&mut next, inputs, outputs)),
                                );
                            }
                            pieces
                        }
                    };
                    if trial & 4 != 0 && !cubes.is_empty() {
                        // Raise a literal of one cube: still a cover.
                        let i = next() as usize % cubes.len();
                        if inputs > 0 {
                            cubes[i].set_input(next() as usize % inputs, Trit::DontCare);
                        }
                    }
                    if trial & 8 != 0 && !cubes.is_empty() {
                        // Take one output or one cube away: a gap.
                        let i = next() as usize % cubes.len();
                        if next().is_multiple_of(2) {
                            cubes.remove(i);
                        } else {
                            cubes[i].set_output(next() as usize % outputs, false);
                        }
                    }
                    if trial & 16 != 0 {
                        let outs = (0..outputs).map(|_| !next().is_multiple_of(4)).collect();
                        cubes.push(Cube::universal(inputs, outs));
                    }
                    let cover = Cover::from_cubes(inputs, outputs, cubes).unwrap();
                    let packed = PackedCubes::new(&cover);
                    let row = packed.pack(&probe);
                    let expected = cover.covers_cube(&probe);
                    let case = format!("{inputs}x{outputs}, trial {trial}: {probe} in\n{cover}");
                    assert_eq!(check.covers(&packed, &row, |_| false), expected, "{case}");
                    if expected {
                        covered += 1;
                    } else {
                        uncovered += 1;
                    }
                    // Skipping a cube answers for the cover without it.
                    if !cover.is_empty() {
                        let skip = next() as usize % cover.len();
                        let mut rest = cover.clone();
                        rest.cubes_mut().remove(skip);
                        assert_eq!(
                            check.covers(&packed, &row, |i| i == skip),
                            rest.covers_cube(&probe),
                            "{case} without cube {skip}"
                        );
                    }
                }
            }
        }
        assert!(
            covered > 200 && uncovered > 200,
            "{covered} covered, {uncovered} not"
        );
    }

    #[test]
    fn single_cube_containment_removal() {
        let contained = |rows: &[(&str, &str)]| {
            let cubes = rows
                .iter()
                .map(|(i, o)| Cube::parse(i, o).unwrap())
                .collect();
            let mut packed = PackedCubes::new(
                &Cover::from_cubes(rows[0].0.len(), rows[0].1.len(), cubes).unwrap(),
            );
            packed.remove_contained();
            packed.unpack()
        };
        let c = contained(&[("010", "1"), ("01-", "1"), ("0--", "1"), ("1--", "1")]);
        assert_eq!(c.to_string(), "0-- 1\n1-- 1\n");
        // Of duplicates exactly the first copy survives.
        let d = contained(&[("01", "01"), ("0-", "10"), ("01", "01"), ("01", "11")]);
        assert_eq!(d.to_string(), "0- 10\n01 11\n");
        let e = contained(&[("01", "01"), ("0-", "10"), ("01", "01")]);
        assert_eq!(e.to_string(), "01 01\n0- 10\n");
    }

    #[test]
    fn packed_fields_follow_the_literals() {
        let cover = Cover::from_cubes(
            34,
            2,
            vec![Cube::parse("01-01-01-01-01-01-01-01-01-01-01-0", "10").unwrap()],
        )
        .unwrap();
        let packed = PackedCubes::new(&cover);
        assert_eq!((packed.input_words, packed.output_words), (2, 1));
        // Inputs 0, 1, 2 are 0, 1, -; inputs 32, 33 are -, 0 and the fields
        // past them read 11.
        assert_eq!(packed.words[0] & 0b11_1111, 0b11_10_01);
        assert_eq!(packed.words[1], u64::MAX << 4 | 0b01_11);
        assert_eq!(packed.words[2], 0b01);
        let mut row = packed.words[..3].to_vec();
        set_input_field(&mut row, 33, Trit::One);
        assert_eq!(row[1] & 0b1111, 0b10_11);
    }

    #[test]
    fn stats_are_consistent_with_cover() {
        let p = pla(
            3,
            2,
            &[("000", "11"), ("001", "10"), ("111", "01"), ("010", "00")],
        );
        let r = minimize(&p);
        assert_eq!(r.stats.final_cubes, r.cover.len());
        assert_eq!(r.stats.literals, r.cover.literal_count());
        assert_eq!(r.stats.output_literals, r.cover.output_literal_count());
    }

    /// A second EXPAND → containment → IRREDUNDANT pass leaves every
    /// minimized cover unchanged (the argument is in the module docs), on
    /// seeded random functions with global don't-cares.
    #[test]
    fn a_second_pass_changes_no_cover() {
        let mut next = xorshift(0x0002_9a55);
        let mut shrunk = 0;
        for trial in 0..300 {
            let (inputs, outputs) = (2 + trial % 6, 1 + trial % 4);
            let mut p = Pla::new(inputs, outputs);
            for minterm in 0..1usize << inputs {
                if next().is_multiple_of(4) {
                    continue; // an unspecified input vector
                }
                let input: String = (0..inputs)
                    .map(|b| if (minterm >> b) & 1 == 1 { '1' } else { '0' })
                    .collect();
                let output: String = (0..outputs)
                    .map(|_| match next() % 3 {
                        0 => '0',
                        1 => '1',
                        _ => '-',
                    })
                    .collect();
                p.add_row(&input, &output).unwrap();
            }
            let once = minimize(&p);
            assert!(verify(&p, &once.cover), "trial {trial}");
            shrunk += usize::from(once.stats.final_cubes < once.stats.initial_cubes);
            let mut cover = PackedCubes::new(&once.cover);
            let off = PackedCubes::new(&p.off_cover());
            expand(&mut cover, &off);
            cover.remove_contained();
            irredundant(&mut cover, &mut CoverCheck::default());
            assert_eq!(cover.unpack(), once.cover, "trial {trial}");
        }
        assert!(shrunk > 150, "only {shrunk} covers shrank");
    }
}
