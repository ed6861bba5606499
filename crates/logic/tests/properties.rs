//! Property-based tests: the minimizer must always produce a cover that is
//! functionally consistent with the specification, and must never increase
//! the number of product terms.

use proptest::prelude::*;
use stfsm_logic::espresso::{minimize, verify};
use stfsm_logic::{Pla, Trit};

/// Strategy: a random incompletely specified multi-output function given by
/// truth-table rows over few variables, guaranteed consistent because each
/// minterm appears at most once.
fn arb_pla(max_inputs: usize, max_outputs: usize) -> impl Strategy<Value = Pla> {
    (2usize..=max_inputs, 1usize..=max_outputs).prop_flat_map(|(ni, no)| {
        let rows = 1usize << ni;
        proptest::collection::vec(proptest::collection::vec(0u8..3, no), rows..=rows).prop_map(
            move |outputs| {
                let mut pla = Pla::new(ni, no);
                for (minterm, outs) in outputs.iter().enumerate() {
                    let input: String = (0..ni)
                        .map(|b| if (minterm >> b) & 1 == 1 { '1' } else { '0' })
                        .collect();
                    let output: String = outs
                        .iter()
                        .map(|&v| match v {
                            0 => '0',
                            1 => '1',
                            _ => '-',
                        })
                        .collect();
                    pla.add_row(&input, &output)
                        .expect("row widths are consistent");
                }
                pla
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimized_cover_verifies_against_spec(pla in arb_pla(4, 3)) {
        let result = minimize(&pla);
        prop_assert!(verify(&pla, &result.cover));
    }

    #[test]
    fn minimization_never_grows_the_cover(pla in arb_pla(4, 2)) {
        let result = minimize(&pla);
        prop_assert!(result.stats.final_cubes <= result.stats.initial_cubes.max(1));
    }

    #[test]
    fn minimized_cover_matches_specified_values_pointwise(pla in arb_pla(4, 2)) {
        let result = minimize(&pla);
        let ni = pla.num_inputs();
        for v in 0u64..(1 << ni) {
            let bits: Vec<bool> = (0..ni).map(|i| (v >> i) & 1 == 1).collect();
            for j in 0..pla.num_outputs() {
                if let Some(spec) = pla.specified_value(&bits, j) {
                    prop_assert_eq!(result.cover.evaluate(&bits, j), spec,
                        "mismatch at {:?} output {}", bits, j);
                }
            }
        }
    }

    #[test]
    fn on_and_off_covers_partition_specified_rows(pla in arb_pla(4, 3)) {
        let on = pla.on_cover();
        let off = pla.off_cover();
        // Every specified (input, output) pair appears in exactly one of the two.
        for row in pla.rows() {
            let ones = row.outputs.iter().filter(|t| matches!(t, Trit::One)).count();
            let zeros = row.outputs.iter().filter(|t| matches!(t, Trit::Zero)).count();
            let _ = (ones, zeros);
        }
        let total_on: usize = on.cubes().iter().map(|c| c.output_count()).sum();
        let total_off: usize = off.cubes().iter().map(|c| c.output_count()).sum();
        let specified: usize = pla
            .rows()
            .iter()
            .map(|r| r.outputs.iter().filter(|t| !matches!(t, Trit::DontCare)).count())
            .sum();
        prop_assert_eq!(total_on + total_off, specified);
    }

    #[test]
    fn tautology_matches_exhaustive_evaluation(pla in arb_pla(8, 1)) {
        let on = pla.on_cover();
        let restricted = on.restrict_to_output(0);
        let ni = pla.num_inputs();
        let exhaustive = (0u64..(1 << ni)).all(|v| {
            let bits: Vec<bool> = (0..ni).map(|i| (v >> i) & 1 == 1).collect();
            restricted.evaluate(&bits, 0)
        });
        prop_assert_eq!(restricted.is_tautology(), exhaustive);
    }
}
