//! Pins the output of the synthesis flow.
//!
//! The 13 suite machines × the four BIST structures must reproduce, bit for
//! bit, the minimized cover, the state codes, the feedback polynomial, the
//! LFSR-covered transitions and the netlist recorded below.  Every fault
//! list, campaign and dictionary downstream is a function of these results,
//! so a rewrite of the state assignment or the minimizer that changes even
//! one decision fails here.
//!
//! The state codes are digested as integers in state order: the `Debug` of
//! `StateEncoding` also prints its code-to-state `HashMap`, whose order
//! changes from run to run.

use stfsm::fsm::suite::BENCHMARKS;
use stfsm::{BistStructure, SynthesisFlow, SynthesisResult};

/// Digest of each synthesis, per machine in suite order, per structure in
/// `BistStructure::ALL` order (DFF, PAT, SIG, PST).
#[rustfmt::skip]
const PINNED: [(&str, [u64; 4]); 13] = [
    ("dk16", [0xfbdf3717dc02ff30, 0x55136c5869edcdb3, 0xfd03438704a65e75, 0x3941c098148d5f47]),
    ("dk512", [0x039f8e663e9a344f, 0x2e5a8e1a1971366e, 0xbb2941a773e4735e, 0x662e17195d17bedc]),
    ("donfile", [0xc2e4f81d6e83c110, 0x95a69a9fb030c1ba, 0xc4d57dca52ce2ad3, 0x80607a361961005d]),
    ("ex1", [0x7b2918d4d27be007, 0xf9753573d68f51e9, 0x0cf9d2f1220069b2, 0x7740e28e61bae620]),
    ("ex4", [0x280671e5720debec, 0x99e4d50e4bc0175a, 0x0b7389a4e3d76345, 0x1e1bb8f819933d4b]),
    ("kirkman", [0x1d2ec9ecfd2cfd19, 0x9cdbba1692a6b3d3, 0xe0671c79472c3738, 0x3d1a93413433bebe]),
    ("mark1", [0x64869139c8bef285, 0x8689ef5ac2d2d09a, 0x8d72090eb9e3a463, 0x0875764ea069d175]),
    ("modulo12", [0x3387757fe0979ac2, 0x556f271b73f79df0, 0x5b45211a801c27f7, 0xf73a8290bb03b8fd]),
    ("planet", [0xd14cb1458dd8bc18, 0xc3b6ca27c029eb3f, 0x1f26f384ae73d11f, 0x3231147955cfce11]),
    ("sand", [0x8f790688ff4c12f0, 0xf2f3e8bcb76a002e, 0x1ca05388d5372b1d, 0x72617083fa27b17f]),
    ("scf", [0xe1311187c5e95b73, 0x7b9966930a3acdcf, 0x1c87604bd022bf3f, 0xe3c3d6696b2ff425]),
    ("styr", [0x6c5989863869c979, 0x5fcebf81ec6ac094, 0x994e63f457162edb, 0x5e317ad32cbaac91]),
    ("tbk", [0x8cb664c2ed8f28e2, 0x821f99cedb9a3cc4, 0xb95e3663de29ede7, 0xc529e8b997367bd9]),
];

/// Σ cover size and Σ factored literals over the 52 syntheses.
const PRODUCT_TERMS: usize = 5872;
const LITERALS: usize = 19_565;

/// FNV-1a over the canonical text of a result.
fn digest(result: &SynthesisResult) -> u64 {
    let mut text = String::new();
    text.push_str("cover\n");
    for cube in result.cover.cubes() {
        text.push_str(&format!("{cube}\n"));
    }
    let codes: Vec<u64> = result.encoding.codes().iter().map(|c| c.value()).collect();
    text.push_str(&format!("codes {} {codes:?}\n", result.encoding.num_bits()));
    text.push_str(&format!("feedback {}\n", result.feedback));
    text.push_str(&format!("covered {:?}\n", result.covered_transitions));
    let netlist = &result.netlist;
    text.push_str(&format!(
        "netlist {} {:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n",
        netlist.name(),
        netlist.structure(),
        netlist.gates(),
        netlist.primary_inputs(),
        netlist.primary_outputs(),
        netlist.flip_flops(),
        netlist.observation_points(),
    ));
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn suite_syntheses_match_the_pinned_digests() {
    assert_eq!(BENCHMARKS.len(), PINNED.len());
    let mut actual: Vec<(&str, [u64; 4])> = Vec::new();
    let (mut product_terms, mut literals) = (0usize, 0usize);
    for info in BENCHMARKS {
        let fsm = info.fsm().unwrap();
        let mut row = [0u64; 4];
        for (slot, structure) in row.iter_mut().zip(BistStructure::ALL) {
            let result = SynthesisFlow::new(structure).synthesize(&fsm).unwrap();
            product_terms += result.product_terms();
            literals += result.literals();
            *slot = digest(&result);
        }
        actual.push((info.name, row));
    }
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            let row: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", row.join(", "))
        })
        .collect();
    assert!(
        actual.as_slice() == PINNED.as_slice(),
        "synthesis results moved; the digests of this build are:\n{table}"
    );
    assert_eq!(product_terms, PRODUCT_TERMS);
    assert_eq!(literals, LITERALS);
}
