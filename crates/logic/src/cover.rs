//! Covers (sets of cubes) and the recursive tautology test.

use crate::{Cube, Error, Result, Trit};
use std::fmt;

/// A set of multi-output cubes over a fixed number of inputs and outputs.
///
/// A `Cover` represents the union of its cubes; for each output `j`, the
/// single-output function is the union of the input parts of the cubes that
/// include `j` in their output set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_inputs: usize,
    num_outputs: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// Creates an empty cover.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        Self {
            num_inputs,
            num_outputs,
            cubes: Vec::new(),
        }
    }

    /// Creates a cover from existing cubes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if any cube has different dimensions.
    pub fn from_cubes(num_inputs: usize, num_outputs: usize, cubes: Vec<Cube>) -> Result<Self> {
        for c in &cubes {
            if c.num_inputs() != num_inputs {
                return Err(Error::WidthMismatch {
                    expected: num_inputs,
                    found: c.num_inputs(),
                });
            }
            if c.num_outputs() != num_outputs {
                return Err(Error::WidthMismatch {
                    expected: num_outputs,
                    found: c.num_outputs(),
                });
            }
        }
        Ok(Self {
            num_inputs,
            num_outputs,
            cubes,
        })
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output columns.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Mutable access to the cubes.
    pub fn cubes_mut(&mut self) -> &mut Vec<Cube> {
        &mut self.cubes
    }

    /// Number of cubes (product terms).
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the cover has no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Adds a cube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the cube has different dimensions.
    pub fn push(&mut self, cube: Cube) -> Result<()> {
        if cube.num_inputs() != self.num_inputs {
            return Err(Error::WidthMismatch {
                expected: self.num_inputs,
                found: cube.num_inputs(),
            });
        }
        if cube.num_outputs() != self.num_outputs {
            return Err(Error::WidthMismatch {
                expected: self.num_outputs,
                found: cube.num_outputs(),
            });
        }
        self.cubes.push(cube);
        Ok(())
    }

    /// Total number of input literals over all cubes (the classical
    /// two-level "literal count" area metric).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Total number of output connections (OR-plane contacts).
    pub fn output_literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::output_count).sum()
    }

    /// The single-output restriction of the cover: all cubes whose output
    /// set contains `output`, as input-only cubes (output width 1).
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn restrict_to_output(&self, output: usize) -> Cover {
        assert!(output < self.num_outputs, "output index out of range");
        let cubes = self
            .cubes
            .iter()
            .filter(|c| c.output(output))
            .map(|c| Cube::new(c.inputs().to_vec(), vec![true]))
            .collect();
        Cover {
            num_inputs: self.num_inputs,
            num_outputs: 1,
            cubes,
        }
    }

    /// Evaluates output `j` of the cover on a concrete input vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` or the vector width is out of range.
    pub fn evaluate(&self, bits: &[bool], output: usize) -> bool {
        assert!(output < self.num_outputs, "output index out of range");
        self.cubes
            .iter()
            .any(|c| c.output(output) && c.contains_point(bits))
    }

    /// Removes cubes whose output set became empty.
    pub fn drop_empty_cubes(&mut self) {
        self.cubes.retain(|c| !c.is_output_empty());
    }

    /// Recursive (Shannon-split) tautology check for a *single-output*
    /// cover: does the union of the input parts cover the entire input
    /// space?
    ///
    /// Cubes whose output part is all-zero are ignored; all other cubes
    /// participate regardless of which outputs they drive, so callers should
    /// first [`Cover::restrict_to_output`].
    pub fn is_tautology(&self) -> bool {
        let active: Vec<&Cube> = self.cubes.iter().filter(|c| !c.is_output_empty()).collect();
        Self::tautology_recursive(&active, self.num_inputs)
    }

    fn tautology_recursive(cubes: &[&Cube], num_inputs: usize) -> bool {
        if cubes.is_empty() {
            // An empty cover covers nothing, regardless of the input count.
            return false;
        }
        // Any universal cube makes the cover a tautology.
        if cubes.iter().any(|c| c.literal_count() == 0) {
            return true;
        }
        // Cheap necessary condition on the minterm counts (saturating).
        // `num_inputs` drops by one per split while every cube keeps the
        // split variables as don't-cares, so the sum is compared with
        // 2^(n - depth): a valid test, weaker than the 2^n it could use.
        if num_inputs < 63 {
            let needed = 1u128 << num_inputs;
            let mut total: u128 = 0;
            for c in cubes {
                total += u128::from(c.minterm_count());
                if total >= needed {
                    break;
                }
            }
            if total < needed {
                return false;
            }
        }
        // Split variable: the binate variable with the largest
        // min(zeros, ones), the lowest on a tie; in a cover with no binate
        // variable, the lowest variable any cube specifies.  There is no
        // unate shortcut: a unate cover is split like any other until each
        // cofactor holds a universal cube or runs out of cubes.
        let mut selected = None;
        let mut best_binate = 0usize;
        for v in 0..cubes[0].num_inputs() {
            let mut zeros = 0usize;
            let mut ones = 0usize;
            for c in cubes {
                match c.input(v) {
                    Trit::Zero => zeros += 1,
                    Trit::One => ones += 1,
                    Trit::DontCare => {}
                }
            }
            if zeros > 0 && ones > 0 {
                let binate = zeros.min(ones);
                if binate > best_binate || selected.is_none() {
                    best_binate = binate;
                    selected = Some(v);
                }
            } else if zeros + ones > 0 && selected.is_none() {
                // Remember a unate variable as fallback split choice.
                selected = Some(v);
                best_binate = 0;
            }
        }
        let Some(v) = selected else {
            // All cubes are all-don't-care; handled above (universal cube).
            return false;
        };
        // Split on v and recurse on both cofactors.
        for value in [false, true] {
            let cof: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(v, value)).collect();
            let refs: Vec<&Cube> = cof.iter().collect();
            if !Self::tautology_recursive(&refs, num_inputs.saturating_sub(1)) {
                return false;
            }
        }
        true
    }

    /// Whether the input cube `cube` is entirely covered by this cover for
    /// every output in `cube`'s output set.
    ///
    /// This is the fundamental query of the irredundancy computation: a cube
    /// may be dropped from a cover if the remaining cubes still cover it
    /// wherever the function is specified.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        for j in 0..self.num_outputs {
            if !cube.output(j) {
                continue;
            }
            // Cofactor the single-output restriction with respect to `cube`
            // and test for tautology.
            let mut cofactored: Vec<Cube> = Vec::new();
            for c in &self.cubes {
                if !c.output(j) || !c.inputs_intersect(cube) {
                    continue;
                }
                // Cofactor c with respect to the cube: drop the positions
                // where the cube is specified.
                let mut inputs = c.inputs().to_vec();
                for (pos, t) in cube.inputs().iter().enumerate() {
                    if !matches!(t, Trit::DontCare) {
                        inputs[pos] = Trit::DontCare;
                    }
                }
                cofactored.push(Cube::new(inputs, vec![true]));
            }
            let cof = Cover {
                num_inputs: self.num_inputs,
                num_outputs: 1,
                cubes: cofactored,
            };
            if !cof.is_tautology() {
                return false;
            }
        }
        true
    }

    /// Exhaustively compares two covers for functional equality on every
    /// input vector (only practical for small input counts; used by tests).
    ///
    /// # Panics
    ///
    /// Panics if the covers have different dimensions or more than 20 inputs.
    pub fn equivalent_exhaustive(&self, other: &Cover) -> bool {
        assert_eq!(self.num_inputs, other.num_inputs, "input width mismatch");
        assert_eq!(self.num_outputs, other.num_outputs, "output width mismatch");
        assert!(
            self.num_inputs <= 20,
            "exhaustive comparison limited to 20 inputs"
        );
        for v in 0u64..(1 << self.num_inputs) {
            let bits: Vec<bool> = (0..self.num_inputs).map(|i| (v >> i) & 1 == 1).collect();
            for j in 0..self.num_outputs {
                if self.evaluate(&bits, j) != other.evaluate(&bits, j) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cube in &self.cubes {
            writeln!(f, "{cube}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(num_inputs: usize, num_outputs: usize, cubes: &[(&str, &str)]) -> Cover {
        let cubes = cubes
            .iter()
            .map(|(i, o)| Cube::parse(i, o).unwrap())
            .collect();
        Cover::from_cubes(num_inputs, num_outputs, cubes).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let c = cover(2, 1, &[("01", "1"), ("1-", "1")]);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.literal_count(), 3);
        assert_eq!(c.output_literal_count(), 2);
        assert_eq!(c.cubes().len(), 2);
        let mut empty = Cover::new(2, 1);
        assert!(empty.is_empty());
        assert!(empty.push(Cube::parse("0-", "1").unwrap()).is_ok());
        assert!(empty.push(Cube::parse("0--", "1").unwrap()).is_err());
        assert!(empty.push(Cube::parse("0-", "11").unwrap()).is_err());
        assert!(Cover::from_cubes(2, 1, vec![Cube::parse("011", "1").unwrap()]).is_err());
    }

    #[test]
    fn evaluation() {
        let c = cover(3, 2, &[("01-", "10"), ("1--", "01")]);
        assert!(c.evaluate(&[false, true, false], 0));
        assert!(!c.evaluate(&[false, true, false], 1));
        assert!(c.evaluate(&[true, false, false], 1));
        assert!(!c.evaluate(&[false, false, false], 0));
    }

    #[test]
    fn tautology_simple_cases() {
        assert!(cover(1, 1, &[("0", "1"), ("1", "1")]).is_tautology());
        assert!(cover(2, 1, &[("--", "1")]).is_tautology());
        assert!(!cover(2, 1, &[("0-", "1")]).is_tautology());
        assert!(!Cover::new(2, 1).is_tautology());
        // x + !x y + !y  is a tautology
        assert!(cover(2, 1, &[("1-", "1"), ("01", "1"), ("-0", "1")]).is_tautology());
        // x y + !x !y is not
        assert!(!cover(2, 1, &[("11", "1"), ("00", "1")]).is_tautology());
    }

    #[test]
    fn tautology_larger() {
        // All 8 minterms of 3 variables.
        let cubes: Vec<(String, String)> = (0u32..8)
            .map(|v| (format!("{:03b}", v), "1".to_string()))
            .collect();
        let refs: Vec<(&str, &str)> = cubes
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        assert!(cover(3, 1, &refs).is_tautology());
        // Remove one minterm: no longer a tautology.
        let refs_missing = &refs[..7];
        assert!(!cover(3, 1, refs_missing).is_tautology());
    }

    #[test]
    fn covers_cube_multi_output() {
        let c = cover(2, 2, &[("0-", "10"), ("1-", "10"), ("11", "01")]);
        // Output 0 is covered everywhere, so any cube restricted to output 0
        // is covered.
        assert!(c.covers_cube(&Cube::parse("01", "10").unwrap()));
        assert!(c.covers_cube(&Cube::parse("--", "10").unwrap()));
        // Output 1 is only covered on 11.
        assert!(c.covers_cube(&Cube::parse("11", "01").unwrap()));
        assert!(!c.covers_cube(&Cube::parse("1-", "01").unwrap()));
        assert!(!c.covers_cube(&Cube::parse("--", "11").unwrap()));
    }

    #[test]
    fn restrict_to_output_and_drop_empty() {
        let mut c = cover(2, 2, &[("0-", "10"), ("1-", "01"), ("11", "00")]);
        let out0 = c.restrict_to_output(0);
        assert_eq!(out0.len(), 1);
        assert_eq!(out0.num_outputs(), 1);
        c.drop_empty_cubes();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn exhaustive_equivalence() {
        let a = cover(2, 1, &[("01", "1"), ("10", "1")]);
        let b = cover(2, 1, &[("10", "1"), ("01", "1")]);
        let c = cover(2, 1, &[("1-", "1"), ("01", "1")]);
        assert!(a.equivalent_exhaustive(&b));
        assert!(!a.equivalent_exhaustive(&c));
    }

    #[test]
    fn display_lists_cubes() {
        let c = cover(2, 1, &[("01", "1")]);
        assert!(c.to_string().contains("01 1"));
    }
}
