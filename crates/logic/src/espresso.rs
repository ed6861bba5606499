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
//! EXPAND tests every raised literal and every added output against the
//! whole OFF-set, so [`minimize_with`] packs the OFF-set into `u64` words
//! once (`PackedCubes`) and keeps a packed copy of the cube it expands:
//!
//! * each input takes two bits, 32 inputs per word: bit `2v` set means the
//!   literal admits 0, bit `2v + 1` that it admits 1 (`0` → `01`,
//!   `1` → `10`, `-` → `11`), and the fields past the last input read `11`;
//!   two input parts meet when no 2-bit field of their AND is `00`;
//! * each output takes one bit, 64 outputs per word; two cubes share an
//!   output when their output words AND to something non-zero.
//!
//! The test is the same predicate as [`Cube::intersects`], so EXPAND makes
//! the same decisions on words that it would on `Vec<Trit>`.

use crate::{Cover, Cube, Pla, Trit};

/// The low bit of every 2-bit input field.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Cubes packed for the intersection test of EXPAND (see the module docs).
#[derive(Debug)]
struct PackedCubes {
    input_words: usize,
    output_words: usize,
    /// `input_words` input words then `output_words` output words per cube.
    words: Vec<u64>,
}

impl PackedCubes {
    /// Packs every cube of `cover`.
    fn new(cover: &Cover) -> Self {
        let mut packed = Self {
            input_words: cover.num_inputs().div_ceil(32),
            output_words: cover.num_outputs().div_ceil(64),
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

    /// Whether the packed `cube` intersects any of the packed cubes, in the
    /// sense of [`Cube::intersects`].
    fn any_intersects(&self, cube: &[u64]) -> bool {
        let (inputs, outputs) = cube.split_at(self.input_words);
        self.words
            .chunks_exact(self.input_words + self.output_words)
            .any(|other| {
                let (other_inputs, other_outputs) = other.split_at(self.input_words);
                outputs.iter().zip(other_outputs).any(|(a, b)| a & b != 0)
                    && inputs.iter().zip(other_inputs).all(|(a, b)| {
                        let meet = a & b;
                        (meet | meet >> 1) & LOW_BITS == LOW_BITS
                    })
            })
    }
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

/// Tuning knobs of the minimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeConfig {
    /// Number of EXPAND / IRREDUNDANT passes (each pass uses a different cube
    /// ordering).  Two passes give near-espresso quality on controller-sized
    /// covers; one pass is noticeably faster for huge sweeps.
    pub passes: usize,
    /// Whether cubes may also expand in the output part (sharing product
    /// terms between outputs).
    pub output_expansion: bool,
    /// Whether the redundant-cube removal step runs.
    pub irredundant: bool,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        Self {
            passes: 2,
            output_expansion: true,
            irredundant: true,
        }
    }
}

impl MinimizeConfig {
    /// A faster single-pass configuration for large parameter sweeps.
    pub fn fast() -> Self {
        Self {
            passes: 1,
            output_expansion: true,
            irredundant: true,
        }
    }
}

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
    /// Number of EXPAND/IRREDUNDANT passes executed.
    pub passes: usize,
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

/// Minimizes a specification with the default configuration.
pub fn minimize(pla: &Pla) -> MinimizeResult {
    minimize_with(pla, &MinimizeConfig::default())
}

/// Minimizes a specification with an explicit configuration.
pub fn minimize_with(pla: &Pla, config: &MinimizeConfig) -> MinimizeResult {
    let mut cover = pla.on_cover();
    let off = PackedCubes::new(&pla.off_cover());
    let initial_cubes = cover.len();

    let passes = config.passes.max(1);
    for pass in 0..passes {
        expand(&mut cover, &off, config.output_expansion, pass % 2 == 1);
        cover.remove_single_cube_containment();
        if config.irredundant {
            irredundant(&mut cover);
        }
    }

    let stats = MinimizeStats {
        initial_cubes,
        final_cubes: cover.len(),
        literals: cover.literal_count(),
        output_literals: cover.output_literal_count(),
        passes,
    };
    MinimizeResult { cover, stats }
}

/// EXPAND: raise literals of every cube to don't-care (and optionally grow
/// the output set) as long as the cube stays disjoint from the OFF-set of
/// every output it drives.
fn expand(cover: &mut Cover, off: &PackedCubes, output_expansion: bool, reverse_order: bool) {
    let num_inputs = cover.num_inputs();
    let num_outputs = cover.num_outputs();

    // Process the most specific cubes first (they profit most from
    // expansion); alternate the ordering between passes for diversity.
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&i| cover.cubes()[i].literal_count());
    if reverse_order {
        order.reverse();
    }

    for &idx in &order {
        let mut cube = cover.cubes()[idx].clone();
        let mut packed = off.pack(&cube);
        // Try to raise each specified input literal.
        for v in 0..num_inputs {
            let saved = cube.input(v);
            if matches!(saved, Trit::DontCare) {
                continue;
            }
            set_input_field(&mut packed, v, Trit::DontCare);
            if off.any_intersects(&packed) {
                set_input_field(&mut packed, v, saved);
            } else {
                cube.set_input(v, Trit::DontCare);
            }
        }
        // Try to add further outputs.
        if output_expansion {
            for j in 0..num_outputs {
                if cube.output(j) {
                    continue;
                }
                let (word, bit) = (off.input_words + j / 64, 1u64 << (j % 64));
                packed[word] |= bit;
                if off.any_intersects(&packed) {
                    packed[word] &= !bit;
                } else {
                    cube.set_output(j, true);
                }
            }
        }
        cover.cubes_mut()[idx] = cube;
    }
}

/// IRREDUNDANT: greedily drop cubes that are entirely covered by the rest of
/// the cover.  (This is a sufficient condition for removability; parts of a
/// cube reaching into the global don't-care space would not strictly need to
/// be covered, so the result is conservative but always correct.)
fn irredundant(cover: &mut Cover) {
    // Removing large cubes first tends to keep the prime cubes produced by
    // EXPAND and drop the leftovers they absorbed.
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cover.cubes()[i].literal_count()));

    let mut removed = vec![false; cover.len()];
    for &idx in &order {
        let candidate = cover.cubes()[idx].clone();
        let rest: Vec<Cube> = cover
            .cubes()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx && !removed[*i])
            .map(|(_, c)| c.clone())
            .collect();
        let rest_cover = Cover::from_cubes(cover.num_inputs(), cover.num_outputs(), rest)
            .expect("dimensions preserved");
        if rest_cover.covers_cube(&candidate) {
            removed[idx] = true;
        }
    }
    let mut idx = 0;
    cover.cubes_mut().retain(|_| {
        let keep = !removed[idx];
        idx += 1;
        keep
    });
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
    fn output_expansion_can_be_disabled() {
        let p = pla(
            2,
            2,
            &[("11", "1-"), ("11", "-1"), ("0-", "00"), ("10", "00")],
        );
        let cfg = MinimizeConfig {
            output_expansion: false,
            ..MinimizeConfig::default()
        };
        let r = minimize_with(&p, &cfg);
        assert!(verify(&p, &r.cover));
    }

    #[test]
    fn fast_config_still_verifies() {
        let p = pla(
            4,
            2,
            &[
                ("0000", "10"),
                ("0001", "10"),
                ("0011", "1-"),
                ("0111", "01"),
                ("1111", "01"),
                ("1000", "00"),
                ("1100", "00"),
            ],
        );
        let r = minimize_with(&p, &MinimizeConfig::fast());
        assert_eq!(r.stats.passes, 1);
        assert!(verify(&p, &r.cover));
        let full = minimize(&p);
        assert!(full.product_terms() <= r.product_terms());
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
        let mut state = 0x000f_f5e7_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
        assert!(r.stats.passes >= 1);
    }
}
