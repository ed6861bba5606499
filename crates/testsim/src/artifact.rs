//! Versioned, endian-stable on-disk fault-dictionary artifacts.
//!
//! A [`DictionaryArtifact`] freezes the diagnosis product of one campaign
//! — every section's [`FaultDictionary`], full and per-checkpoint MISR
//! signatures included — into a single binary file that a diagnosis
//! server can load for a fleet of machines.  Round-trips are bit-for-bit:
//! a dictionary loaded from disk compares equal (`PartialEq`, signature
//! index included) to the freshly built in-memory one, so every diagnosis
//! query answers identically.
//!
//! # Format
//!
//! All integers are **little-endian**.  Strings are a `u32` byte length
//! followed by UTF-8 bytes.
//!
//! ```text
//! header (36 bytes):
//!   magic            8 bytes   "STFSMDCT"
//!   version          u32       format version (currently 2)
//!   digest           u64       campaign identity digest (see below)
//!   payload_len      u64       byte length of the payload
//!   payload_fnv      u64       FNV-1a 64 over version, digest,
//!                              payload_len and the payload bytes
//! payload:
//!   machine          str       machine (netlist) name
//!   section_count    u32
//!   section table, per section:
//!     label          str       fault-model name
//!     entry_count    u32
//!     offset         u64       dictionary blob offset from payload start
//!   dictionary blobs, per section:
//!     signature_bits u32
//!     reference_signature u64
//!     patterns_applied    u64
//!     checkpoint_count    u32
//!     segment_checkpoints u64 × checkpoint_count
//!     reference_segments  u64 × checkpoint_count
//!     entry_count         u32
//!     entries, per fault (fault-list order):
//!       fault        tag u8 + fields (see [`Injection`] encoding below)
//!       first_detect u8 flag + u64 (value only if flag = 1)
//!       signature    u64
//!       segment_count u32
//!       segments     u64 × segment_count
//! ```
//!
//! [`Injection`] encoding: tag `0` = `StuckOutput { net: u64, value: u8 }`,
//! `1` = `StuckPin { gate: u64, pin: u64, value: u8 }`, `2` =
//! `DelayedTransition { net: u64, slow_to_rise: u8 }`, `3` =
//! `Bridge { victim: u64, aggressor: u64, wired_and: u8 }`, `4` =
//! `MultiCycleDelay { net: u64, depth: u64 }`, `5` =
//! `PathDelay { len: u32, nets: u32 × len, rising: u8 }` (format
//! version 2).
//!
//! The `digest` is the same campaign identity digest the checkpoint layer
//! stamps into crash-recovery files (netlist shape, pattern budget, seed,
//! weights, stimulation and the exact fault-section list; engine and
//! thread count deliberately excluded) — so an artifact can be pinned to
//! the campaign that produced it, and a server can refuse an artifact
//! built for a different machine or configuration
//! ([`ArtifactError::DigestMismatch`]).
//!
//! Corruption is detected, never mis-parsed: a wrong magic, a future
//! version, a short file and a flipped byte each map to their own
//! [`ArtifactError`] variant.  Writes go through the same
//! write-temp-then-rename discipline as checkpoints, so a crashed writer
//! never leaves a half-written artifact at the destination path.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::campaign::CampaignOutcome;
use crate::checkpoint::{identity_digest, Fnv1a64};
use crate::coverage::CampaignConfig;
use crate::diagnosis::Diagnosis;
use crate::dictionary::{DictionaryEntry, FaultDictionary};
use stfsm_bist::netlist::Netlist;
use stfsm_faults::Injection;

/// Magic bytes opening every dictionary artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"STFSMDCT";

/// Current artifact format version, written in (and required of) the
/// header.  Bumped whenever a field is added, removed or reshaped; old
/// readers reject newer files with
/// [`ArtifactError::UnsupportedVersion`].  Version 2 added the
/// delay-test fault tags (`MultiCycleDelay`, `PathDelay`).
pub const ARTIFACT_VERSION: u32 = 2;

/// Header length in bytes: magic + version + digest + payload length +
/// payload checksum.
pub const ARTIFACT_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// A typed artifact failure.  Every decode error carries enough context
/// to say *what* was wrong, and no malformed input panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// The file does not start with [`ARTIFACT_MAGIC`].
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version in the header.
        found: u32,
        /// The version this reader supports.
        supported: u32,
    },
    /// The artifact's campaign identity digest does not match the
    /// expected one — it was built for a different machine or campaign
    /// configuration.
    DigestMismatch {
        /// The digest the caller required.
        expected: u64,
        /// The digest in the artifact header.
        found: u64,
    },
    /// The file ends before the declared content does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The content is internally inconsistent (checksum mismatch, bad
    /// string, offset table pointing nowhere, …).
    Corrupt {
        /// Byte offset at which the inconsistency was detected.
        offset: usize,
        /// What was inconsistent.
        message: String,
    },
    /// [`DictionaryArtifact::from_outcome`] was handed a campaign that
    /// ran without signatures — the named section has no dictionary.
    MissingDictionary {
        /// The section without a dictionary.
        label: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, message } => {
                write!(f, "artifact I/O error at {}: {message}", path.display())
            }
            ArtifactError::BadMagic { found } => {
                write!(f, "not a dictionary artifact (magic {found:02x?})")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact version {found} not supported (this reader supports {supported})"
            ),
            ArtifactError::DigestMismatch { expected, found } => write!(
                f,
                "artifact digest 0x{found:016x} does not match expected 0x{expected:016x}"
            ),
            ArtifactError::Truncated { needed, available } => write!(
                f,
                "artifact truncated: needed {needed} bytes, only {available} available"
            ),
            ArtifactError::Corrupt { offset, message } => {
                write!(f, "artifact corrupt at byte {offset}: {message}")
            }
            ArtifactError::MissingDictionary { label } => write!(
                f,
                "section '{label}' has no dictionary (campaign ran without signatures)"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The diagnosis product of one campaign, frozen for serialization: the
/// machine name, the campaign identity digest and every section's
/// [`FaultDictionary`].
#[derive(Debug, Clone, PartialEq)]
pub struct DictionaryArtifact {
    /// The machine (netlist) name the dictionaries diagnose.
    pub machine: String,
    /// The campaign identity digest (see the [module docs](self)).
    pub digest: u64,
    /// One `(model label, dictionary)` pair per campaign section, in
    /// section order.
    pub sections: Vec<(String, FaultDictionary)>,
}

impl DictionaryArtifact {
    /// Freezes a finished signature campaign into an artifact, stamping
    /// it with the same identity digest a checkpoint of that campaign
    /// would carry.
    ///
    /// Fails with [`ArtifactError::MissingDictionary`] if any section ran
    /// without signatures (no observer asked for them).
    pub fn from_outcome(
        netlist: &Netlist,
        config: &CampaignConfig,
        outcome: &CampaignOutcome,
    ) -> Result<Self, ArtifactError> {
        let digest = identity_digest(
            netlist,
            config,
            outcome.stimulation,
            outcome
                .sections
                .iter()
                .map(|s| (s.label.as_str(), s.faults.as_slice())),
        );
        let mut sections = Vec::with_capacity(outcome.sections.len());
        for section in &outcome.sections {
            let dictionary =
                section
                    .dictionary
                    .as_deref()
                    .ok_or_else(|| ArtifactError::MissingDictionary {
                        label: section.label.clone(),
                    })?;
            sections.push((section.label.clone(), dictionary.clone()));
        }
        Ok(Self {
            machine: netlist.name().to_string(),
            digest,
            sections,
        })
    }

    /// The artifact's dictionaries as a ready-to-query [`Diagnosis`].
    pub fn diagnosis(&self) -> Diagnosis {
        Diagnosis::from_shared(
            self.sections
                .iter()
                .map(|(label, dictionary)| (label.clone(), Arc::new(dictionary.clone())))
                .collect(),
        )
    }

    /// Checks the artifact against an expected campaign identity digest.
    pub fn verify(&self, expected: u64) -> Result<(), ArtifactError> {
        if self.digest == expected {
            Ok(())
        } else {
            Err(ArtifactError::DigestMismatch {
                expected,
                found: self.digest,
            })
        }
    }

    /// Serializes the artifact to its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_str(&mut payload, &self.machine);
        write_u32(&mut payload, self.sections.len() as u32);

        // Encode the blobs first so the section table can carry real
        // offsets; the table's own length is fixed once the labels are
        // known.
        let table_len: usize = self
            .sections
            .iter()
            .map(|(label, _)| 4 + label.len() + 4 + 8)
            .sum();
        let blobs_start = payload.len() + table_len;
        let mut blobs = Vec::new();
        let mut offsets = Vec::with_capacity(self.sections.len());
        for (_, dictionary) in &self.sections {
            offsets.push((blobs_start + blobs.len()) as u64);
            encode_dictionary(&mut blobs, dictionary);
        }
        for ((label, dictionary), offset) in self.sections.iter().zip(offsets) {
            write_str(&mut payload, label);
            write_u32(&mut payload, dictionary.entries.len() as u32);
            write_u64(&mut payload, offset);
        }
        payload.extend_from_slice(&blobs);

        let mut bytes = Vec::with_capacity(ARTIFACT_HEADER_LEN + payload.len());
        bytes.extend_from_slice(&ARTIFACT_MAGIC);
        bytes.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.digest.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(
            &payload_checksum(ARTIFACT_VERSION, self.digest, &payload).to_le_bytes(),
        );
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Parses an artifact from its binary form.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < ARTIFACT_HEADER_LEN {
            return Err(ArtifactError::Truncated {
                needed: ARTIFACT_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&bytes[..8]);
        if magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        let u64_at = |at: usize| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(buf)
        };
        let digest = u64_at(12);
        let payload_len = u64_at(20) as usize;
        let stored_checksum = u64_at(28);
        let available = bytes.len() - ARTIFACT_HEADER_LEN;
        if payload_len > available {
            return Err(ArtifactError::Truncated {
                needed: ARTIFACT_HEADER_LEN + payload_len,
                available: bytes.len(),
            });
        }
        if payload_len < available {
            return Err(ArtifactError::Corrupt {
                offset: ARTIFACT_HEADER_LEN + payload_len,
                message: format!("{} trailing bytes after payload", available - payload_len),
            });
        }
        let payload = &bytes[ARTIFACT_HEADER_LEN..];
        let computed = payload_checksum(version, digest, payload);
        if computed != stored_checksum {
            return Err(ArtifactError::Corrupt {
                offset: 28,
                message: format!(
                    "payload checksum mismatch (stored 0x{stored_checksum:016x}, computed 0x{computed:016x})"
                ),
            });
        }

        let mut cursor = Cursor {
            bytes: payload,
            pos: 0,
        };
        let machine = cursor.read_str()?;
        let section_count = cursor.read_u32()? as usize;
        if section_count > payload.len() {
            return Err(cursor.corrupt(format!("implausible section count {section_count}")));
        }
        let mut table = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let label = cursor.read_str()?;
            let entry_count = cursor.read_u32()? as usize;
            let offset = cursor.read_u64()? as usize;
            table.push((label, entry_count, offset));
        }
        let mut sections = Vec::with_capacity(section_count);
        for (label, entry_count, offset) in table {
            if cursor.pos != offset {
                return Err(cursor.corrupt(format!(
                    "section '{label}' blob expected at offset {offset}, cursor at {}",
                    cursor.pos
                )));
            }
            let dictionary = decode_dictionary(&mut cursor)?;
            if dictionary.entries.len() != entry_count {
                return Err(cursor.corrupt(format!(
                    "section '{label}' table declares {entry_count} entries, blob holds {}",
                    dictionary.entries.len()
                )));
            }
            sections.push((label, dictionary));
        }
        if cursor.pos != payload.len() {
            return Err(cursor.corrupt(format!(
                "{} trailing payload bytes",
                payload.len() - cursor.pos
            )));
        }
        Ok(Self {
            machine,
            digest,
            sections,
        })
    }

    /// Writes the artifact atomically (`<path>.tmp` then rename), so a
    /// crashed writer never leaves a torn file at `path`.  Returns the
    /// number of bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64, ArtifactError> {
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        let io_error = |message: std::io::Error, p: &Path| ArtifactError::Io {
            path: p.to_path_buf(),
            message: message.to_string(),
        };
        std::fs::write(&tmp, &bytes).map_err(|e| io_error(e, &tmp))?;
        std::fs::rename(&tmp, path).map_err(|e| io_error(e, path))?;
        Ok(bytes.len() as u64)
    }

    /// Loads an artifact from disk.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Self::decode(&bytes)
    }

    /// Loads an artifact and checks its identity digest in one step.
    pub fn load_verified(path: &Path, expected: u64) -> Result<Self, ArtifactError> {
        let artifact = Self::load(path)?;
        artifact.verify(expected)?;
        Ok(artifact)
    }

    /// Total fault entries across all sections.
    pub fn total_entries(&self) -> usize {
        self.sections.iter().map(|(_, d)| d.entries.len()).sum()
    }
}

/// The checksum covers everything after the magic: version, digest,
/// payload length and payload bytes — so a flipped byte anywhere outside
/// the magic itself is detected as [`ArtifactError::Corrupt`] (or as the
/// more specific version/truncation error when those checks fire first).
fn payload_checksum(version: u32, digest: u64, payload: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write_bytes(&version.to_le_bytes());
    hash.write_u64(digest);
    hash.write_u64(payload.len() as u64);
    hash.write_bytes(payload);
    hash.finish()
}

fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn write_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

fn encode_dictionary(out: &mut Vec<u8>, dictionary: &FaultDictionary) {
    write_u32(out, dictionary.signature_bits as u32);
    write_u64(out, dictionary.reference_signature);
    write_u64(out, dictionary.patterns_applied as u64);
    write_u32(out, dictionary.segment_checkpoints.len() as u32);
    for &checkpoint in &dictionary.segment_checkpoints {
        write_u64(out, checkpoint as u64);
    }
    for &word in &dictionary.reference_segments {
        write_u64(out, word);
    }
    write_u32(out, dictionary.entries.len() as u32);
    for entry in &dictionary.entries {
        encode_fault(out, &entry.fault);
        match entry.first_detect {
            None => out.push(0),
            Some(cycle) => {
                out.push(1);
                write_u64(out, cycle as u64);
            }
        }
        write_u64(out, entry.signature);
        write_u32(out, entry.segments.len() as u32);
        for &word in &entry.segments {
            write_u64(out, word);
        }
    }
}

fn decode_dictionary(cursor: &mut Cursor<'_>) -> Result<FaultDictionary, ArtifactError> {
    let signature_bits = cursor.read_u32()? as usize;
    let reference_signature = cursor.read_u64()?;
    let patterns_applied = cursor.read_usize()?;
    let checkpoint_count = cursor.read_u32()? as usize;
    if checkpoint_count > cursor.remaining() / 8 {
        return Err(cursor.corrupt(format!("implausible checkpoint count {checkpoint_count}")));
    }
    let mut segment_checkpoints = Vec::with_capacity(checkpoint_count);
    for _ in 0..checkpoint_count {
        segment_checkpoints.push(cursor.read_usize()?);
    }
    let mut reference_segments = Vec::with_capacity(checkpoint_count);
    for _ in 0..checkpoint_count {
        reference_segments.push(cursor.read_u64()?);
    }
    let entry_count = cursor.read_u32()? as usize;
    if entry_count > cursor.remaining() {
        return Err(cursor.corrupt(format!("implausible entry count {entry_count}")));
    }
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let fault = decode_fault(cursor)?;
        let first_detect = match cursor.read_u8()? {
            0 => None,
            1 => Some(cursor.read_usize()?),
            other => return Err(cursor.corrupt(format!("bad first-detect flag {other}"))),
        };
        let signature = cursor.read_u64()?;
        let segment_count = cursor.read_u32()? as usize;
        if segment_count > cursor.remaining() / 8 {
            return Err(cursor.corrupt(format!("implausible segment count {segment_count}")));
        }
        let mut segments = Vec::with_capacity(segment_count);
        for _ in 0..segment_count {
            segments.push(cursor.read_u64()?);
        }
        entries.push(DictionaryEntry {
            fault,
            first_detect,
            signature,
            segments,
        });
    }
    Ok(FaultDictionary::new(
        signature_bits,
        reference_signature,
        reference_segments,
        segment_checkpoints,
        patterns_applied,
        entries,
    ))
}

fn encode_fault(out: &mut Vec<u8>, fault: &Injection) {
    match fault {
        Injection::StuckOutput { net, value } => {
            out.push(0);
            write_u64(out, *net as u64);
            write_bool(out, *value);
        }
        Injection::StuckPin { gate, pin, value } => {
            out.push(1);
            write_u64(out, *gate as u64);
            write_u64(out, *pin as u64);
            write_bool(out, *value);
        }
        Injection::DelayedTransition { net, slow_to_rise } => {
            out.push(2);
            write_u64(out, *net as u64);
            write_bool(out, *slow_to_rise);
        }
        Injection::Bridge {
            victim,
            aggressor,
            wired_and,
        } => {
            out.push(3);
            write_u64(out, *victim as u64);
            write_u64(out, *aggressor as u64);
            write_bool(out, *wired_and);
        }
        Injection::MultiCycleDelay { net, depth } => {
            out.push(4);
            write_u64(out, *net as u64);
            write_u64(out, *depth as u64);
        }
        Injection::PathDelay { path, rising } => {
            out.push(5);
            write_u32(out, path.len() as u32);
            for &net in path.iter() {
                write_u32(out, net);
            }
            write_bool(out, *rising);
        }
    }
}

fn decode_fault(cursor: &mut Cursor<'_>) -> Result<Injection, ArtifactError> {
    match cursor.read_u8()? {
        0 => Ok(Injection::StuckOutput {
            net: cursor.read_usize()?,
            value: cursor.read_bool()?,
        }),
        1 => Ok(Injection::StuckPin {
            gate: cursor.read_usize()?,
            pin: cursor.read_usize()?,
            value: cursor.read_bool()?,
        }),
        2 => Ok(Injection::DelayedTransition {
            net: cursor.read_usize()?,
            slow_to_rise: cursor.read_bool()?,
        }),
        3 => Ok(Injection::Bridge {
            victim: cursor.read_usize()?,
            aggressor: cursor.read_usize()?,
            wired_and: cursor.read_bool()?,
        }),
        4 => Ok(Injection::MultiCycleDelay {
            net: cursor.read_usize()?,
            depth: cursor.read_usize()?,
        }),
        5 => {
            let len = cursor.read_u32()? as usize;
            if len < 2 || len > cursor.remaining() / 4 {
                return Err(cursor.corrupt(format!("implausible path length {len}")));
            }
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(cursor.read_u32()?);
            }
            if !path.windows(2).all(|w| w[0] < w[1]) {
                return Err(cursor.corrupt("path nets are not strictly ascending".into()));
            }
            Ok(Injection::PathDelay {
                path: std::sync::Arc::from(path.as_slice()),
                rising: cursor.read_bool()?,
            })
        }
        other => Err(cursor.corrupt(format!("unknown fault tag {other}"))),
    }
}

/// A bounds-checked read cursor over the payload bytes.  Every short read
/// is a typed [`ArtifactError::Truncated`]; positions are payload-relative
/// (callers add the header length for absolute file offsets).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn corrupt(&self, message: String) -> ArtifactError {
        ArtifactError::Corrupt {
            offset: ARTIFACT_HEADER_LEN + self.pos,
            message,
        }
    }

    fn take(&mut self, len: usize) -> Result<&[u8], ArtifactError> {
        if self.remaining() < len {
            return Err(ArtifactError::Truncated {
                needed: ARTIFACT_HEADER_LEN + self.pos + len,
                available: ARTIFACT_HEADER_LEN + self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn read_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn read_bool(&mut self) -> Result<bool, ArtifactError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("bad boolean byte {other}"))),
        }
    }

    fn read_u32(&mut self) -> Result<u32, ArtifactError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn read_u64(&mut self) -> Result<u64, ArtifactError> {
        let bytes = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    fn read_usize(&mut self) -> Result<usize, ArtifactError> {
        let value = self.read_u64()?;
        usize::try_from(value).map_err(|_| self.corrupt(format!("value {value} exceeds usize")))
    }

    fn read_str(&mut self) -> Result<String, ArtifactError> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid UTF-8".to_string()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_dictionary(seed: u64) -> FaultDictionary {
        let entries = (0..12)
            .map(|i| DictionaryEntry {
                fault: match i % 6 {
                    0 => Injection::StuckOutput {
                        net: i,
                        value: i % 2 == 0,
                    },
                    1 => Injection::StuckPin {
                        gate: i,
                        pin: i % 3,
                        value: true,
                    },
                    2 => Injection::DelayedTransition {
                        net: i,
                        slow_to_rise: i % 2 == 1,
                    },
                    3 => Injection::Bridge {
                        victim: i,
                        aggressor: i / 2,
                        wired_and: false,
                    },
                    4 => Injection::MultiCycleDelay {
                        net: i,
                        depth: i % 3 + 1,
                    },
                    _ => Injection::PathDelay {
                        path: vec![i as u32, i as u32 + 3, i as u32 + 9].into(),
                        rising: i % 2 == 0,
                    },
                },
                first_detect: (i % 3 != 0).then_some(i * 7),
                signature: seed.wrapping_mul(i as u64 + 1) & 0xFFFF,
                segments: vec![seed ^ i as u64, seed.rotate_left(i as u32), 42],
            })
            .collect();
        FaultDictionary::new(
            16,
            seed & 0xFFFF,
            vec![1, 2, 3],
            vec![64, 128, 192],
            256,
            entries,
        )
    }

    fn sample_artifact() -> DictionaryArtifact {
        DictionaryArtifact {
            machine: "dk16".to_string(),
            digest: 0x1234_5678_9abc_def0,
            sections: vec![
                ("stuck_at".to_string(), sample_dictionary(0xBEEF)),
                ("transition".to_string(), sample_dictionary(0xCAFE)),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let artifact = sample_artifact();
        let bytes = artifact.encode();
        let decoded = DictionaryArtifact::decode(&bytes).expect("decode");
        assert_eq!(decoded, artifact);
        // Re-encoding the decoded artifact reproduces the bytes exactly.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn file_round_trip_is_atomic_and_identical() {
        let artifact = sample_artifact();
        let dir = std::env::temp_dir().join(format!("stfsm-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("dk16.dict");
        let written = artifact.write_to(&path).expect("write");
        assert_eq!(written, artifact.encode().len() as u64);
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let loaded = DictionaryArtifact::load(&path).expect("load");
        assert_eq!(loaded, artifact);
        assert!(DictionaryArtifact::load_verified(&path, artifact.digest).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample_artifact().encode();
        // Every strict prefix must fail with Truncated (never a panic,
        // never a silent partial decode).  The checksum guards content;
        // truncation is caught by the length field first.
        for len in 0..bytes.len() {
            match DictionaryArtifact::decode(&bytes[..len]) {
                Err(ArtifactError::Truncated { .. }) => {}
                other => panic!("prefix of {len} bytes: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bytes_are_detected() {
        let artifact = sample_artifact();
        let clean = artifact.encode();
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            let result = DictionaryArtifact::decode(&bytes);
            match result {
                Ok(decoded) => panic!("flip at byte {at} went undetected: {decoded:?}"),
                Err(
                    ArtifactError::BadMagic { .. }
                    | ArtifactError::UnsupportedVersion { .. }
                    | ArtifactError::Truncated { .. }
                    | ArtifactError::Corrupt { .. },
                ) => {}
                Err(other) => panic!("flip at byte {at}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_artifact().encode();
        bytes[0] = b'X';
        assert!(matches!(
            DictionaryArtifact::decode(&bytes),
            Err(ArtifactError::BadMagic { found }) if found[0] == b'X'
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample_artifact().encode();
        bytes[8..12].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        assert_eq!(
            DictionaryArtifact::decode(&bytes),
            Err(ArtifactError::UnsupportedVersion {
                found: ARTIFACT_VERSION + 1,
                supported: ARTIFACT_VERSION,
            })
        );
    }

    #[test]
    fn wrong_digest_is_typed() {
        let artifact = sample_artifact();
        assert_eq!(
            artifact.verify(artifact.digest + 1),
            Err(ArtifactError::DigestMismatch {
                expected: artifact.digest + 1,
                found: artifact.digest,
            })
        );
        assert!(artifact.verify(artifact.digest).is_ok());
    }

    #[test]
    fn queries_answer_identically_after_round_trip() {
        let artifact = sample_artifact();
        let bytes = artifact.encode();
        let decoded = DictionaryArtifact::decode(&bytes).expect("decode");
        let fresh = artifact.diagnosis();
        let loaded = decoded.diagnosis();
        // Probe every signature present plus unknowns.
        let mut signatures: Vec<u64> = artifact
            .sections
            .iter()
            .flat_map(|(_, d)| d.entries.iter().map(|e| e.signature))
            .collect();
        signatures.push(0xDEAD_BEEF);
        for signature in signatures {
            assert_eq!(fresh.candidates(signature), loaded.candidates(signature));
            assert_eq!(
                fresh.disambiguate(signature, &[1, 2, 3]),
                loaded.disambiguate(signature, &[1, 2, 3])
            );
        }
    }
}
