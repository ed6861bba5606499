//! On-disk dictionary-artifact robustness: randomized round-trips
//! (property-based) and file-level corruption, each failing with the
//! right typed [`ArtifactError`] — never a panic.

use std::path::PathBuf;

use proptest::prelude::*;
use stfsm::faults::Injection;
use stfsm::testsim::artifact::{ArtifactError, DictionaryArtifact};
use stfsm::testsim::dictionary::{DictionaryEntry, FaultDictionary};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stfsm-artifact-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---------------------------------------------------------------------
// Property: any artifact round-trips bit-for-bit through encode/decode
// and through the filesystem.
// ---------------------------------------------------------------------

fn any_u64() -> impl Strategy<Value = u64> {
    0u64..=u64::MAX
}

/// All four [`Injection`] variants, driven by a selector plus packed
/// operand fields (the offline proptest shim has no `prop_oneof!`).
fn injection_strategy() -> impl Strategy<Value = Injection> {
    (0u8..4, 0usize..256, 0usize..8, 0u8..2).prop_map(|(variant, a, b, flag)| {
        let flag = flag == 1;
        match variant {
            0 => Injection::StuckOutput {
                net: a,
                value: flag,
            },
            1 => Injection::StuckPin {
                gate: a,
                pin: b,
                value: flag,
            },
            2 => Injection::DelayedTransition {
                net: a,
                slow_to_rise: flag,
            },
            // `aggressor < victim` is an engine invariant; keep it here.
            _ => Injection::Bridge {
                victim: a + b + 1,
                aggressor: a,
                wired_and: flag,
            },
        }
    })
}

fn entry_strategy(checkpoints: usize) -> impl Strategy<Value = DictionaryEntry> {
    (
        injection_strategy(),
        (0usize..4096, 0u8..2).prop_map(|(detect, some)| (some == 1).then_some(detect)),
        any_u64(),
        proptest::collection::vec(any_u64(), checkpoints),
    )
        .prop_map(
            |(fault, first_detect, signature, segments)| DictionaryEntry {
                fault,
                first_detect,
                signature,
                segments,
            },
        )
}

fn dictionary_strategy() -> impl Strategy<Value = FaultDictionary> {
    (1usize..=8, 0usize..=4).prop_flat_map(|(bits_scale, checkpoints)| {
        (
            (any_u64(), proptest::collection::vec(any_u64(), checkpoints)),
            (
                proptest::collection::vec(1usize..4096, checkpoints),
                0usize..4096,
                proptest::collection::vec(entry_strategy(checkpoints), 0..24),
            ),
        )
            .prop_map(
                move |((reference, reference_segments), (schedule, patterns, entries))| {
                    FaultDictionary::new(
                        bits_scale * 8,
                        reference,
                        reference_segments,
                        schedule,
                        patterns,
                        entries,
                    )
                },
            )
    })
}

fn artifact_strategy() -> impl Strategy<Value = DictionaryArtifact> {
    const MACHINES: [&str; 6] = ["dk16", "mark1", "planet", "scf", "weird-name", ""];
    const LABELS: [&str; 4] = ["stuck_at", "transition", "bridging", "custom"];
    (
        0usize..MACHINES.len(),
        any_u64(),
        proptest::collection::vec(
            (0usize..LABELS.len(), dictionary_strategy())
                .prop_map(|(label, dictionary)| (LABELS[label].to_string(), dictionary)),
            1..4,
        ),
    )
        .prop_map(|(machine, digest, mut sections)| {
            // Section labels must be unique for the artifact to be
            // meaningful; dedup keeps the first of each label.
            sections.sort_by(|a, b| a.0.cmp(&b.0));
            sections.dedup_by(|a, b| a.0 == b.0);
            DictionaryArtifact {
                machine: MACHINES[machine].to_string(),
                digest,
                sections,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn randomized_artifacts_round_trip_bit_for_bit(artifact in artifact_strategy()) {
        // In-memory round trip: identical object, identical re-encoding.
        let bytes = artifact.encode();
        let decoded = DictionaryArtifact::decode(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &artifact);
        prop_assert_eq!(decoded.encode(), bytes.clone());

        // Verification accepts the stamped digest and rejects any other.
        prop_assert!(decoded.verify(artifact.digest).is_ok());
        let mismatch = decoded.verify(artifact.digest.wrapping_add(1));
        prop_assert!(
            matches!(mismatch, Err(ArtifactError::DigestMismatch { .. })),
            "wrong digest must be a DigestMismatch"
        );

        // Every strict prefix is a typed error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                prop_assert!(DictionaryArtifact::decode(&bytes[..cut]).is_err());
            }
        }
    }
}

proptest! {
    // File I/O per case; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn randomized_artifacts_survive_the_filesystem(artifact in artifact_strategy()) {
        let dir = scratch_dir("prop");
        let path = dir.join(format!("{}.dict", artifact.machine));
        let written = artifact.write_to(&path).expect("write");
        prop_assert_eq!(written as usize, artifact.encode().len());
        let loaded = DictionaryArtifact::load(&path).expect("load");
        prop_assert_eq!(&loaded, &artifact);
        let verified = DictionaryArtifact::load_verified(&path, artifact.digest).expect("verified");
        prop_assert_eq!(&verified, &artifact);
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// File-level corruption: each failure mode is its own typed error.
// ---------------------------------------------------------------------

fn sample_artifact(machine: &str, digest: u64) -> DictionaryArtifact {
    let entries = vec![
        DictionaryEntry {
            fault: Injection::StuckOutput {
                net: 4,
                value: true,
            },
            first_detect: Some(17),
            signature: 0x1234_5678_9ABC_DEF0,
            segments: vec![0x11, 0x22],
        },
        DictionaryEntry {
            fault: Injection::StuckPin {
                gate: 9,
                pin: 1,
                value: false,
            },
            first_detect: None,
            signature: 0x0F0F_F0F0_0F0F_F0F0,
            segments: vec![0x33, 0x44],
        },
    ];
    DictionaryArtifact {
        machine: machine.to_string(),
        digest,
        sections: vec![(
            "stuck_at".to_string(),
            FaultDictionary::new(16, 0xFFFF, vec![0xA, 0xB], vec![64, 192], 192, entries),
        )],
    }
}

#[test]
fn on_disk_truncation_is_a_typed_error() {
    let dir = scratch_dir("trunc");
    let artifact = sample_artifact("dk16", 0xABCD);
    let path = dir.join("dk16.dict");
    artifact.write_to(&path).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    for cut in [0, 7, 8, 20, 35, 36, bytes.len() - 1] {
        let clipped = dir.join(format!("clipped-{cut}.dict"));
        std::fs::write(&clipped, &bytes[..cut]).expect("write clipped");
        let error = DictionaryArtifact::load(&clipped).expect_err("clipped must fail");
        assert!(
            matches!(error, ArtifactError::Truncated { .. }),
            "cut at {cut}: got {error}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn on_disk_header_flips_are_typed_errors() {
    let dir = scratch_dir("flip");
    let artifact = sample_artifact("dk16", 0xABCD);
    let path = dir.join("dk16.dict");
    artifact.write_to(&path).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    // Flipping any single header byte must surface as bad magic, version
    // skew, truncation (length fields) or a checksum/corruption error —
    // never a panic, never a silently different artifact.
    for offset in 0..36 {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x40;
        let flipped = dir.join(format!("flip-{offset}.dict"));
        std::fs::write(&flipped, &mutated).expect("write flipped");
        match DictionaryArtifact::load(&flipped) {
            Err(
                ArtifactError::BadMagic { .. }
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::Corrupt { .. },
            ) => {}
            // A flip in the digest field decodes fine (the checksum
            // covers it) but must then fail verification.
            Ok(decoded) => {
                assert!((12..20).contains(&offset), "byte {offset}: decoded");
                assert!(decoded.verify(artifact.digest).is_err());
            }
            Err(other) => panic!("byte {offset}: unexpected error {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_machine_digest_is_rejected_on_verified_load() {
    let dir = scratch_dir("wrongmachine");
    let dk16 = sample_artifact("dk16", 0x1111_2222_3333_4444);
    let mark1 = sample_artifact("mark1", 0x5555_6666_7777_8888);
    let dk16_path = dir.join("dk16.dict");
    let mark1_path = dir.join("mark1.dict");
    dk16.write_to(&dk16_path).expect("write dk16");
    mark1.write_to(&mark1_path).expect("write mark1");
    // Loading dk16's artifact while expecting mark1's campaign identity
    // must fail with the digest pair in the error.
    let error =
        DictionaryArtifact::load_verified(&dk16_path, mark1.digest).expect_err("must mismatch");
    match error {
        ArtifactError::DigestMismatch { expected, found } => {
            assert_eq!(expected, mark1.digest);
            assert_eq!(found, dk16.digest);
        }
        other => panic!("unexpected error {other}"),
    }
    // The right digest still loads.
    assert!(DictionaryArtifact::load_verified(&dk16_path, dk16.digest).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_versions_are_rejected_with_the_supported_range() {
    let dir = scratch_dir("version");
    let artifact = sample_artifact("dk16", 0xABCD);
    let path = dir.join("dk16.dict");
    artifact.write_to(&path).expect("write");
    let mut bytes = std::fs::read(&path).expect("read back");
    // Version lives right after the 8-byte magic, little-endian u32.
    bytes[8] = 99;
    let future = dir.join("future.dict");
    std::fs::write(&future, &bytes).expect("write future");
    let error = DictionaryArtifact::load(&future).expect_err("future version must fail");
    match error {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 99);
            assert_eq!(supported, 2);
        }
        other => panic!("unexpected error {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
