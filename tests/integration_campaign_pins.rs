//! Pins the results and the work of the grading campaigns.
//!
//! The campaigns have the shapes of perfbench's grading workloads: one
//! campaign per netlist with one section per fault model (`all_models()`,
//! collapsed lists), `SimEngine::Auto` and the default seed.
//!
//! * small: the 11 suite machines below the `Auto` crossover × the four
//!   structures, 4096 patterns (the packed engine, one worker);
//! * large: planet and scf × DFF and PST, 512 patterns (the differential
//!   engine), each at one and at two workers against the same pins: the
//!   worker count changes neither the results nor the work.
//!
//! Each campaign pins an FNV-1a digest of every section's per-fault
//! first-detect cycles and eight deterministic work counters.  An engine
//! rewrite must keep every pin.  A change that alters the work on purpose
//! updates the pins (a mismatch prints this build's table) and says so in
//! CHANGES.md.

use stfsm::faults::all_models;
use stfsm::fsm::suite::BENCHMARKS;
use stfsm::{BistStructure, Campaign, CampaignOutcome, CoverageObserver, SimEngine, SynthesisFlow};

/// The two suite machines at or above the `Auto` crossover.
const LARGE_MACHINES: [&str; 2] = ["planet", "scf"];

/// `(machine, structure, first-detect digest, counters)`.  The counters are,
/// in order: fault cycles, events drained, full sweeps, event cycles, steps
/// skipped, lane retirements, compaction rebuilds and cycles simulated.
type Pin = (&'static str, BistStructure, u64, [u64; 8]);

#[rustfmt::skip]
const SMALL: &[Pin] = &[
    ("dk16", BistStructure::Dff, 0x39a6202f69866832, [842207, 0, 0, 0, 0, 1560, 60, 4096]),
    ("dk16", BistStructure::Pat, 0xaa9c52568d091956, [1531117, 0, 0, 0, 0, 1716, 80, 4096]),
    ("dk16", BistStructure::Sig, 0xdd30f6b2fad3b200, [782438, 0, 0, 0, 0, 1876, 65, 4096]),
    ("dk16", BistStructure::Pst, 0x6fb4d740f0f44331, [3866053, 0, 0, 0, 0, 1183, 132, 4096]),
    ("dk512", BistStructure::Dff, 0x233fd13049c43bad, [189104, 0, 0, 0, 0, 528, 17, 4096]),
    ("dk512", BistStructure::Pat, 0x26af2233be300e4a, [966021, 0, 0, 0, 0, 522, 37, 4096]),
    ("dk512", BistStructure::Sig, 0x4dcabf483a163379, [274099, 0, 0, 0, 0, 647, 21, 4096]),
    ("dk512", BistStructure::Pst, 0xab20cf9a02ecc9f1, [385078, 0, 0, 0, 0, 621, 26, 4096]),
    ("donfile", BistStructure::Dff, 0x572610fc8947abc6, [437377, 0, 0, 0, 0, 1048, 37, 4096]),
    ("donfile", BistStructure::Pat, 0x207a4a8cd674d622, [1319192, 0, 0, 0, 0, 1220, 64, 4096]),
    ("donfile", BistStructure::Sig, 0xcb3188b9164c651a, [678217, 0, 0, 0, 0, 1444, 54, 4096]),
    ("donfile", BistStructure::Pst, 0x2c0b6d6838048c77, [1421537, 0, 0, 0, 0, 1320, 74, 4096]),
    ("ex1", BistStructure::Dff, 0x365bca4600a7066a, [634798, 0, 0, 0, 0, 2562, 76, 4096]),
    ("ex1", BistStructure::Pat, 0x3eb0563ac072235b, [1491393, 0, 0, 0, 0, 2648, 99, 4096]),
    ("ex1", BistStructure::Sig, 0x372e70a43dd661db, [755529, 0, 0, 0, 0, 2678, 80, 4096]),
    ("ex1", BistStructure::Pst, 0x0353db2639ecb531, [1360556, 0, 0, 0, 0, 2628, 111, 4096]),
    ("ex4", BistStructure::Dff, 0x4319caef988ca92c, [325488, 0, 0, 0, 0, 1433, 39, 4096]),
    ("ex4", BistStructure::Pat, 0x1c7bf856feb8354e, [1079605, 0, 0, 0, 0, 1491, 59, 4096]),
    ("ex4", BistStructure::Sig, 0x795e25dd85b860f5, [437717, 0, 0, 0, 0, 1471, 43, 4096]),
    ("ex4", BistStructure::Pst, 0xf86f3280b9880a53, [766656, 0, 0, 0, 0, 1436, 53, 4096]),
    ("kirkman", BistStructure::Dff, 0xb2d57e188a29e23c, [693244, 0, 0, 0, 0, 1344, 48, 4096]),
    ("kirkman", BistStructure::Pat, 0x5ed504380d0ce0ee, [1226189, 0, 0, 0, 0, 1483, 65, 4096]),
    ("kirkman", BistStructure::Sig, 0xbb4b8bd87b328b9b, [642541, 0, 0, 0, 0, 1533, 51, 4096]),
    ("kirkman", BistStructure::Pst, 0x690f2c2c44fe842e, [811858, 0, 0, 0, 0, 1523, 59, 4096]),
    ("mark1", BistStructure::Dff, 0xd330ce8fa0ab25d1, [398999, 0, 0, 0, 0, 1788, 50, 4096]),
    ("mark1", BistStructure::Pat, 0x22f3b4d92ff04aba, [1049334, 0, 0, 0, 0, 1912, 69, 4096]),
    ("mark1", BistStructure::Sig, 0x69619d145741a70b, [443456, 0, 0, 0, 0, 1938, 55, 4096]),
    ("mark1", BistStructure::Pst, 0x4795df05f580f74f, [1159066, 0, 0, 0, 0, 1887, 82, 4096]),
    ("modulo12", BistStructure::Dff, 0x2ce48a33d37a1d25, [199017, 0, 0, 0, 0, 409, 15, 4096]),
    ("modulo12", BistStructure::Pat, 0x042552b7377c3055, [854600, 0, 0, 0, 0, 374, 34, 4096]),
    ("modulo12", BistStructure::Sig, 0xbca1e6bdfd060163, [111287, 0, 0, 0, 0, 481, 16, 4096]),
    ("modulo12", BistStructure::Pst, 0x3676979fb9532a4d, [253905, 0, 0, 0, 0, 445, 16, 4096]),
    ("sand", BistStructure::Dff, 0x12a60bc788fc7667, [1346953, 0, 0, 0, 0, 3068, 114, 4096]),
    ("sand", BistStructure::Pat, 0x91ad6225c9412650, [2012932, 0, 0, 0, 0, 3254, 137, 4096]),
    ("sand", BistStructure::Sig, 0x025a74c7375641e2, [1105987, 0, 0, 0, 0, 3327, 112, 4096]),
    ("sand", BistStructure::Pst, 0x5af7f557b54c8a53, [3928369, 0, 0, 0, 0, 2900, 193, 4096]),
    ("styr", BistStructure::Dff, 0x0c8020f3d4abe99c, [990109, 0, 0, 0, 0, 2996, 102, 4096]),
    ("styr", BistStructure::Pat, 0xd7edbcff3ed1b2a4, [1661985, 0, 0, 0, 0, 3220, 127, 4096]),
    ("styr", BistStructure::Sig, 0x7e8cdce942cbee5a, [874889, 0, 0, 0, 0, 3131, 99, 4096]),
    ("styr", BistStructure::Pst, 0x82789dd38b1f4e43, [5325684, 0, 0, 0, 0, 2281, 206, 4096]),
    ("tbk", BistStructure::Dff, 0x7f96dce330919c9b, [905907, 0, 0, 0, 0, 2250, 81, 4096]),
    ("tbk", BistStructure::Pat, 0x7624f2c551f342d8, [1735833, 0, 0, 0, 0, 2378, 106, 4096]),
    ("tbk", BistStructure::Sig, 0x49c39085ac433343, [1017714, 0, 0, 0, 0, 2395, 89, 4096]),
    ("tbk", BistStructure::Pst, 0xa814d9062438ce09, [2173651, 0, 0, 0, 0, 2277, 122, 4096]),
];

#[rustfmt::skip]
const LARGE: &[Pin] = &[
    ("planet", BistStructure::Dff, 0xd909fc03a2fc5431, [1058180, 332232, 34, 3166, 6187, 5293, 7, 512]),
    ("planet", BistStructure::Pst, 0xe1837d8094fbb432, [2281312, 496520, 41, 4951, 62442, 2402, 1, 512]),
    ("scf", BistStructure::Dff, 0xf25630ac5a85eaa3, [7969647, 1717069, 158, 19042, 90869, 18876, 5, 512]),
    ("scf", BistStructure::Pst, 0x03b1e16363183000, [11782174, 2100329, 193, 23615, 337764, 5669, 3, 512]),
];

/// FNV-1a over every section's label and per-fault first-detect cycles
/// (`u64::MAX` for a fault never detected).
fn digest(outcome: &CampaignOutcome) -> u64 {
    let mut bytes = Vec::new();
    for section in &outcome.sections {
        bytes.extend_from_slice(section.label.as_bytes());
        bytes.push(0);
        for first in &section.detection_pattern {
            let cycle = first.map_or(u64::MAX, |p| p as u64);
            bytes.extend_from_slice(&cycle.to_le_bytes());
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned counters of one campaign.  A fault's cycles are its
/// first-detect pattern + 1, or the patterns applied when it was never
/// detected or its section never drops faults (dictionary campaigns).
fn counters(outcome: &CampaignOutcome) -> [u64; 8] {
    let applied = outcome.patterns_applied as u64;
    let fault_cycles: u64 = outcome
        .sections
        .iter()
        .flat_map(|section| {
            let undropped = section.dictionary.is_some();
            section
                .detection_pattern
                .iter()
                .map(move |first| match first {
                    Some(pattern) if !undropped => *pattern as u64 + 1,
                    _ => applied,
                })
        })
        .sum();
    let t = &outcome.telemetry.totals;
    [
        fault_cycles,
        t.events_drained,
        t.full_sweeps,
        t.event_cycles,
        t.steps_skipped,
        t.lane_retirements,
        t.compaction_rebuilds,
        t.cycles_simulated,
    ]
}

/// Grades every `structure` netlist of the suite machines `keep` selects
/// on `threads` workers and checks the campaigns against `pinned`.
fn check(
    keep: impl Fn(&str) -> bool,
    structures: &[BistStructure],
    patterns: usize,
    threads: usize,
    pinned: &[Pin],
) {
    let models = all_models();
    let mut actual: Vec<Pin> = Vec::new();
    for info in BENCHMARKS.iter().filter(|info| keep(info.name)) {
        let fsm = info.fsm().expect("generator succeeds");
        for &structure in structures {
            let netlist = SynthesisFlow::new(structure)
                .synthesize(&fsm)
                .expect("synthesis succeeds")
                .netlist;
            let mut coverage = CoverageObserver::new();
            let mut campaign = Campaign::new(&netlist)
                .engine(SimEngine::Auto)
                .patterns(patterns)
                .threads(threads);
            for model in &models {
                campaign = campaign.faults(model.name(), model.fault_list(&netlist, true));
            }
            let outcome = campaign.observe(&mut coverage).run();
            assert!(outcome.incidents.is_empty(), "{}", info.name);
            actual.push((info.name, structure, digest(&outcome), counters(&outcome)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, structure, digest, counters)| {
            format!(
                "    (\"{name}\", BistStructure::{structure:?}, {digest:#018x}, {counters:?}),\n"
            )
        })
        .collect();
    let expected: Vec<&Pin> = pinned
        .iter()
        .filter(|(name, structure, _, _)| keep(name) && structures.contains(structure))
        .collect();
    assert!(
        actual.iter().eq(expected.iter().copied()),
        "campaign results or work moved at {threads} workers; the pins of this build are:\n{table}"
    );
}

#[test]
fn small_grading_campaigns_match_their_pins() {
    check(
        |name| !LARGE_MACHINES.contains(&name),
        &BistStructure::ALL,
        4096,
        1,
        SMALL,
    );
}

#[test]
fn planet_grading_campaigns_match_their_pins() {
    for threads in [1, 2] {
        check(
            |name| name == "planet",
            &[BistStructure::Dff, BistStructure::Pst],
            512,
            threads,
            LARGE,
        );
    }
}

#[test]
fn scf_grading_campaigns_match_their_pins() {
    for threads in [1, 2] {
        check(
            |name| name == "scf",
            &[BistStructure::Dff, BistStructure::Pst],
            512,
            threads,
            LARGE,
        );
    }
}
