//! Versioned, self-describing on-disk campaign checkpoints.
//!
//! A checkpoint is written atomically at every segment boundary of a
//! checkpointed campaign and captures everything a fresh process needs to
//! finish the run bit-for-bit equal to an uninterrupted one: the campaign
//! identity digest, the schedule cursor, every completed segment's
//! detections and counter deltas, and a canonical, engine-agnostic
//! snapshot of the live simulation state.  Stimulus is *not* stored — it
//! is a pure function of the campaign seed, so the resuming process
//! regenerates the prefix rows deterministically and the checkpoint only
//! records how many had been generated (for telemetry parity).
//!
//! The snapshot is deliberately canonical rather than engine-shaped: the
//! detect pass stores per-fault survivor states (the same
//! [`AliveFault`](crate::coverage) normal form every engine reduces to at
//! segment boundaries), and the dictionary pass stores one
//! [`LaneRecord`] per fault (state, detection status, MISR signature and
//! sampled checkpoint words).  Because lane packing never changes results,
//! a checkpoint written by one engine can be resumed by any other.
//!
//! # Format
//!
//! Line-based ASCII, versioned by the header line
//! `stfsm-campaign-checkpoint v1`:
//!
//! ```text
//! stfsm-campaign-checkpoint v1
//! digest <16-digit hex>            campaign identity (see below)
//! engine <name>                    engine that wrote it (informational)
//! max_patterns <n>                 pins the segment schedule
//! pass detect|signatures           which streaming pass is checkpointed
//! stimulus_generated <n>           stimulus rows generated so far
//! segments <count>                 completed segments, then per segment:
//! segment <index> <to>             schedule index and end boundary
//! detections <n> <fault cycle>*    the segment's new detections
//! metrics <n> <u64>*               the segment's counter deltas
//! snapshot detect|signatures       then the engine-agnostic state:
//!   detect:
//!     reference_state b<bits>      fault-free machine state
//!     survivors <count>
//!     survivor <fault> <mem> b<bits>
//!   signatures:
//!     good_state b<bits>           fault-free machine state
//!     reference_signature <hex>    fault-free MISR signature
//!     reference_segments <n> <hex>*
//!     lanes <count>                one per fault, in fault-list order:
//!     lane <det> <first|-> <mem> <sig hex> b<bits> <n> <hex>*
//! end                              truncation guard
//! ```
//!
//! `<mem>` is a delay-memory token: `-` for none (stateless injections
//! and unfilled delay lines) or `m` followed by the canonical memory bits
//! (one previous-cycle bit for a transition fault, the filled delay-line
//! slots newest-first for a multi-cycle delay, the launch bit then the
//! terminal's previous raw bit for a path-delay fault).
//! Bit strings are little-endian in flip-flop order (`b011` sets flip-flop
//! 0 to `0`, flip-flops 1 and 2 to `1`).
//!
//! The identity digest is an FNV-1a 64 hash over everything that pins the
//! campaign's results: pattern budget, seed, input weights, state
//! stimulation, pass kind, the netlist's shape and the exact fault list.
//! It deliberately **excludes** the engine, thread count and lane-block
//! width, which never change a result bit — resuming on a different
//! engine or thread count is supported and stays bit-for-bit.
//!
//! # Version policy
//!
//! The version number is bumped whenever a line is added, removed or
//! reshaped, or when [`CampaignMetrics`] gains or loses a counter (the
//! `metrics` line carries an explicit count, so a mismatch is detected
//! rather than misparsed).  Old versions are rejected with a
//! [`CampaignError::CheckpointFormat`] error — checkpoints are short-lived
//! crash-recovery artifacts, not archival data, so no migration is
//! attempted.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::Path;

use crate::coverage::{CampaignConfig, StateStimulation};
use crate::error::CampaignError;
use crate::failpoints;
use crate::telemetry::CampaignMetrics;
use stfsm_bist::netlist::Netlist;
use stfsm_faults::Injection;

/// Current checkpoint format version, written in (and required of) the
/// header line.  See the [module docs](self) for the bump policy.
pub const FORMAT_VERSION: u32 = 2;

const HEADER: &str = "stfsm-campaign-checkpoint";

/// Number of [`CampaignMetrics`] counters serialized per `metrics` line.
const METRICS_FIELDS: usize = 25;

/// Which streaming pass a checkpoint belongs to.  The two passes have
/// different live state (drop-on-detect survivors versus un-dropped MISR
/// lanes), so a checkpoint of one cannot resume the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// The drop-on-detect coverage pass.
    Detect,
    /// The un-dropped dictionary (signature) pass.
    Signatures,
}

impl PassKind {
    fn token(self) -> &'static str {
        match self {
            PassKind::Detect => "detect",
            PassKind::Signatures => "signatures",
        }
    }
}

/// One completed segment as stored in a checkpoint: its schedule position
/// and exactly what the campaign layer reported at its boundary, so a
/// resuming process can replay the observer lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredSegment {
    /// Index of the segment in the pinned schedule.
    pub index: usize,
    /// End boundary (patterns applied once the segment completed).
    pub to: usize,
    /// The segment's new detections as `(fault index, cycle)` pairs, in
    /// the order they were reported.
    pub detections: Vec<(usize, usize)>,
    /// The segment's counter deltas (wall-clock spans included verbatim;
    /// they are historical measurements, not state).
    pub metrics: CampaignMetrics,
}

/// A surviving (undetected) fault of the detect pass: the canonical
/// per-fault state every engine reduces to at a segment boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorRecord {
    /// Index of the fault in the campaign's flattened fault list.
    pub index: usize,
    /// The faulty machine's flip-flop state.
    pub state: Vec<bool>,
    /// Canonical delay-memory bits of a stateful fault (empty when the
    /// injection is stateless or its delay line is unfilled).
    pub memory: Vec<bool>,
}

/// One fault lane of the dictionary pass (faults are never dropped, so
/// there is exactly one record per fault, in fault-list order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneRecord {
    /// The faulty machine's flip-flop state.
    pub state: Vec<bool>,
    /// Canonical delay-memory bits of a stateful fault (empty when the
    /// injection is stateless or its delay line is unfilled).
    pub memory: Vec<bool>,
    /// Whether the fault has deviated from the fault-free machine yet.
    pub detected: bool,
    /// Cycle of the first deviation, if any.
    pub first_detect: Option<usize>,
    /// The lane's running MISR signature (bit `i` = compaction plane `i`).
    pub signature: u64,
    /// Signature words sampled at the dictionary checkpoint times reached
    /// so far.
    pub segments: Vec<u64>,
}

/// The engine-agnostic live-state snapshot of a checkpointed pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSnapshot {
    /// Drop-on-detect coverage pass state.
    Detect {
        /// The fault-free machine's flip-flop state.
        reference_state: Vec<bool>,
        /// Undetected faults, in ascending fault-index order.
        survivors: Vec<SurvivorRecord>,
    },
    /// Un-dropped dictionary pass state.
    Signatures {
        /// The fault-free machine's flip-flop state.
        good_state: Vec<bool>,
        /// The fault-free machine's running MISR signature.
        reference_signature: u64,
        /// Fault-free signature words sampled at the dictionary
        /// checkpoint times reached so far.
        reference_segments: Vec<u64>,
        /// One record per fault, in fault-list order.
        lanes: Vec<LaneRecord>,
    },
}

impl EngineSnapshot {
    /// The pass this snapshot belongs to.
    pub fn pass(&self) -> PassKind {
        match self {
            EngineSnapshot::Detect { .. } => PassKind::Detect,
            EngineSnapshot::Signatures { .. } => PassKind::Signatures,
        }
    }
}

/// A complete campaign checkpoint: identity, schedule cursor, replayable
/// segment history and the live-state snapshot at the last boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Campaign identity digest (see the [module docs](self)).
    pub digest: u64,
    /// Name of the engine that wrote the checkpoint (informational only;
    /// any engine may resume it).
    pub engine: String,
    /// The campaign's pattern budget, which pins the segment schedule.
    pub max_patterns: usize,
    /// Which streaming pass is checkpointed.
    pub pass: PassKind,
    /// Stimulus rows generated when the checkpoint was written.
    pub stimulus_generated: usize,
    /// Every completed segment, in schedule order from segment 0.
    pub segments: Vec<StoredSegment>,
    /// Live simulation state at the last stored boundary.
    pub snapshot: EngineSnapshot,
}

impl CampaignCheckpoint {
    /// Patterns applied at the last stored boundary (zero if no segment
    /// completed — such a checkpoint is never written, but the accessor is
    /// total anyway).
    pub fn patterns_applied(&self) -> usize {
        self.segments.last().map(|s| s.to).unwrap_or(0)
    }
}

/// Incremental FNV-1a 64 hasher for the campaign identity digest.  Not
/// cryptographic — it only needs to make accidental checkpoint/campaign
/// mix-ups overwhelmingly detectable.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot alias each other.
    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The campaign identity digest shared by checkpoints and dictionary
/// artifacts: netlist shape, budget, seed, weights, stimulation and the
/// full fault-section list.  Deliberately *excludes* the engine, thread
/// count and block width — those never change a result bit, so both
/// checkpoints and artifacts stay engine-agnostic.
pub(crate) fn identity_digest<'a>(
    netlist: &Netlist,
    config: &CampaignConfig,
    stimulation: StateStimulation,
    sections: impl Iterator<Item = (&'a str, &'a [Injection])>,
) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write_str(netlist.name());
    hash.write_str(&format!("{:?}", netlist.structure()));
    hash.write_u64(netlist.primary_inputs().len() as u64);
    hash.write_u64(netlist.flip_flops().len() as u64);
    hash.write_u64(netlist.gates().len() as u64);
    hash.write_u64(config.max_patterns as u64);
    hash.write_u64(config.seed);
    match &config.input_weights {
        None => hash.write_str("-"),
        Some(weights) => {
            hash.write_u64(weights.len() as u64);
            for &weight in weights {
                hash.write_u64(weight.to_bits());
            }
        }
    }
    hash.write_str(if config.paired_patterns {
        "paired"
    } else {
        "free"
    });
    hash.write_str(&format!("{stimulation:?}"));
    let sections: Vec<_> = sections.collect();
    hash.write_u64(sections.len() as u64);
    for (label, faults) in sections {
        hash.write_str(label);
        hash.write_u64(faults.len() as u64);
        for fault in faults {
            hash.write_str(&format!("{fault:?}"));
        }
    }
    hash.finish()
}

fn bits_token(bits: &[bool]) -> String {
    let mut token = String::with_capacity(bits.len() + 1);
    token.push('b');
    for &bit in bits {
        token.push(if bit { '1' } else { '0' });
    }
    token
}

fn memory_token(memory: &[bool]) -> String {
    if memory.is_empty() {
        return "-".to_string();
    }
    let mut token = String::with_capacity(memory.len() + 1);
    token.push('m');
    for &bit in memory {
        token.push(if bit { '1' } else { '0' });
    }
    token
}

/// Serializes a checkpoint to its on-disk text form.
pub(crate) fn serialize(checkpoint: &CampaignCheckpoint) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER} v{FORMAT_VERSION}");
    let _ = writeln!(out, "digest {:016x}", checkpoint.digest);
    let _ = writeln!(out, "engine {}", checkpoint.engine);
    let _ = writeln!(out, "max_patterns {}", checkpoint.max_patterns);
    let _ = writeln!(out, "pass {}", checkpoint.pass.token());
    let _ = writeln!(out, "stimulus_generated {}", checkpoint.stimulus_generated);
    let _ = writeln!(out, "segments {}", checkpoint.segments.len());
    for segment in &checkpoint.segments {
        let _ = writeln!(out, "segment {} {}", segment.index, segment.to);
        let _ = write!(out, "detections {}", segment.detections.len());
        for &(fault, cycle) in &segment.detections {
            let _ = write!(out, " {fault} {cycle}");
        }
        out.push('\n');
        let _ = write!(out, "metrics {METRICS_FIELDS}");
        for value in metrics_fields(&segment.metrics) {
            let _ = write!(out, " {value}");
        }
        out.push('\n');
    }
    match &checkpoint.snapshot {
        EngineSnapshot::Detect {
            reference_state,
            survivors,
        } => {
            let _ = writeln!(out, "snapshot detect");
            let _ = writeln!(out, "reference_state {}", bits_token(reference_state));
            let _ = writeln!(out, "survivors {}", survivors.len());
            for survivor in survivors {
                let _ = writeln!(
                    out,
                    "survivor {} {} {}",
                    survivor.index,
                    memory_token(&survivor.memory),
                    bits_token(&survivor.state)
                );
            }
        }
        EngineSnapshot::Signatures {
            good_state,
            reference_signature,
            reference_segments,
            lanes,
        } => {
            let _ = writeln!(out, "snapshot signatures");
            let _ = writeln!(out, "good_state {}", bits_token(good_state));
            let _ = writeln!(out, "reference_signature {reference_signature:016x}");
            let _ = write!(out, "reference_segments {}", reference_segments.len());
            for word in reference_segments {
                let _ = write!(out, " {word:016x}");
            }
            out.push('\n');
            let _ = writeln!(out, "lanes {}", lanes.len());
            for lane in lanes {
                let _ = write!(
                    out,
                    "lane {} {} {} {:016x} {}",
                    u8::from(lane.detected),
                    lane.first_detect
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                    memory_token(&lane.memory),
                    lane.signature,
                    bits_token(&lane.state)
                );
                let _ = write!(out, " {}", lane.segments.len());
                for word in &lane.segments {
                    let _ = write!(out, " {word:016x}");
                }
                out.push('\n');
            }
        }
    }
    out.push_str("end\n");
    out
}

/// The declaration-order counter list of one [`CampaignMetrics`], the
/// payload of a `metrics` line.  Must stay in sync with the struct (the
/// explicit count on the line turns drift into a parse error, and the
/// format version is bumped alongside — see the [module docs](self)).
fn metrics_fields(m: &CampaignMetrics) -> [u64; METRICS_FIELDS] {
    [
        m.events_scheduled,
        m.events_drained,
        m.steps_skipped,
        m.full_sweeps,
        m.event_cycles,
        m.widenings,
        m.narrowings,
        m.lane_retirements,
        m.compaction_rebuilds,
        m.cache_lookups,
        m.cache_hits,
        m.cache_misses,
        m.stimulus_patterns,
        m.cycles_simulated,
        m.peak_rss_kb,
        m.stimulus_ns,
        m.good_trace_ns,
        m.fault_eval_ns,
        m.dictionary_ns,
        m.observer_ns,
        m.worker_panics_recovered,
        m.checkpoints_written,
        m.checkpoint_bytes,
        m.path_launches,
        m.path_activations,
    ]
}

fn metrics_from_fields(fields: &[u64; METRICS_FIELDS]) -> CampaignMetrics {
    CampaignMetrics {
        events_scheduled: fields[0],
        events_drained: fields[1],
        steps_skipped: fields[2],
        full_sweeps: fields[3],
        event_cycles: fields[4],
        widenings: fields[5],
        narrowings: fields[6],
        lane_retirements: fields[7],
        compaction_rebuilds: fields[8],
        cache_lookups: fields[9],
        cache_hits: fields[10],
        cache_misses: fields[11],
        stimulus_patterns: fields[12],
        cycles_simulated: fields[13],
        peak_rss_kb: fields[14],
        stimulus_ns: fields[15],
        good_trace_ns: fields[16],
        fault_eval_ns: fields[17],
        dictionary_ns: fields[18],
        observer_ns: fields[19],
        worker_panics_recovered: fields[20],
        checkpoints_written: fields[21],
        checkpoint_bytes: fields[22],
        path_launches: fields[23],
        path_activations: fields[24],
    }
}

/// Writes `checkpoint` to `path` atomically (temp file + rename) and
/// returns the byte count.  `segment_index` keys the deterministic
/// checkpoint-write failpoint.
pub(crate) fn save(
    path: &Path,
    checkpoint: &CampaignCheckpoint,
    segment_index: usize,
) -> Result<u64, CampaignError> {
    let io_err = |e: std::io::Error| CampaignError::CheckpointIo {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    if let Some(injected) = failpoints::checkpoint_io_error(segment_index) {
        return Err(io_err(injected));
    }
    let text = serialize(checkpoint);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, text.as_bytes()).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(text.len() as u64)
}

/// Reads and parses the checkpoint at `path`.
pub(crate) fn load(path: &Path) -> Result<CampaignCheckpoint, CampaignError> {
    let text = std::fs::read_to_string(path).map_err(|e| CampaignError::CheckpointIo {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse(&text, path)
}

struct Parser<'a> {
    path: &'a Path,
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> CampaignError {
        CampaignError::CheckpointFormat {
            path: self.path.display().to_string(),
            message: format!("line {}: {}", self.line_no, message.into()),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, CampaignError> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| self.err("unexpected end of file"))
    }

    /// Reads the next line, requires it to start with `key`, and returns
    /// the rest of the line (empty if the key stands alone).
    fn field(&mut self, key: &str) -> Result<&'a str, CampaignError> {
        let line = self.next_line()?;
        match line.strip_prefix(key) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(self.err(format!("expected `{key}`, found `{line}`"))),
        }
    }

    fn usize_field(&mut self, key: &str) -> Result<usize, CampaignError> {
        let value = self.field(key)?;
        value
            .parse()
            .map_err(|_| self.err(format!("`{key}` is not an unsigned integer: `{value}`")))
    }

    fn usize_token(&self, token: &str) -> Result<usize, CampaignError> {
        token
            .parse()
            .map_err(|_| self.err(format!("not an unsigned integer: `{token}`")))
    }

    fn hex_token(&self, token: &str) -> Result<u64, CampaignError> {
        u64::from_str_radix(token, 16).map_err(|_| self.err(format!("not a hex word: `{token}`")))
    }

    fn bits_token(&self, token: &str) -> Result<Vec<bool>, CampaignError> {
        let body = token
            .strip_prefix('b')
            .ok_or_else(|| self.err(format!("not a bit string: `{token}`")))?;
        body.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                _ => Err(self.err(format!("not a bit string: `{token}`"))),
            })
            .collect()
    }

    fn memory_token(&self, token: &str) -> Result<Vec<bool>, CampaignError> {
        if token == "-" {
            return Ok(Vec::new());
        }
        let body = token
            .strip_prefix('m')
            .ok_or_else(|| self.err(format!("not a memory token: `{token}`")))?;
        if body.is_empty() {
            return Err(self.err(format!("not a memory token: `{token}`")));
        }
        body.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                _ => Err(self.err(format!("not a memory token: `{token}`"))),
            })
            .collect()
    }
}

/// Parses a checkpoint.  The counts in the file only bound loops that
/// consume input, and every list grows one parsed record at a time, so
/// memory stays proportional to the input whatever the counts claim.
fn parse(text: &str, path: &Path) -> Result<CampaignCheckpoint, CampaignError> {
    let mut p = Parser {
        path,
        lines: text.lines(),
        line_no: 0,
    };
    let header = p.next_line()?;
    match header.strip_prefix(HEADER) {
        Some(version) if version.trim() == format!("v{FORMAT_VERSION}") => {}
        Some(version) => {
            return Err(p.err(format!(
                "unsupported checkpoint version `{}` (this build reads v{FORMAT_VERSION})",
                version.trim()
            )))
        }
        None => return Err(p.err("not a campaign checkpoint (bad header)")),
    }
    let digest_text = p.field("digest")?;
    let digest = p.hex_token(digest_text)?;
    let engine = p.field("engine")?.to_string();
    let max_patterns = p.usize_field("max_patterns")?;
    let pass = match p.field("pass")? {
        "detect" => PassKind::Detect,
        "signatures" => PassKind::Signatures,
        other => return Err(p.err(format!("unknown pass `{other}`"))),
    };
    let stimulus_generated = p.usize_field("stimulus_generated")?;
    let segment_count = p.usize_field("segments")?;
    let mut segments = Vec::new();
    for _ in 0..segment_count {
        let line = p.field("segment")?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let [index, to] = tokens.as_slice() else {
            return Err(p.err("`segment` takes exactly an index and a boundary"));
        };
        let index = p.usize_token(index)?;
        let to = p.usize_token(to)?;
        let detection_line = p.field("detections")?;
        let mut tokens = detection_line.split_whitespace();
        let count = p.usize_token(tokens.next().unwrap_or(""))?;
        let mut detections = Vec::new();
        for _ in 0..count {
            let fault = tokens
                .next()
                .ok_or_else(|| p.err("truncated detections list"))?;
            let cycle = tokens
                .next()
                .ok_or_else(|| p.err("truncated detections list"))?;
            detections.push((p.usize_token(fault)?, p.usize_token(cycle)?));
        }
        if tokens.next().is_some() {
            return Err(p.err("trailing tokens after detections list"));
        }
        let metrics_line = p.field("metrics")?;
        let mut tokens = metrics_line.split_whitespace();
        let count = p.usize_token(tokens.next().unwrap_or(""))?;
        if count != METRICS_FIELDS {
            return Err(p.err(format!(
                "metrics line carries {count} counters, this build expects {METRICS_FIELDS}"
            )));
        }
        let mut fields = [0u64; METRICS_FIELDS];
        for field in fields.iter_mut() {
            let token = tokens
                .next()
                .ok_or_else(|| p.err("truncated metrics list"))?;
            *field = p
                .usize_token(token)
                .map(|v| v as u64)
                .or_else(|_| p.hex_token(token))?;
        }
        if tokens.next().is_some() {
            return Err(p.err("trailing tokens after metrics list"));
        }
        segments.push(StoredSegment {
            index,
            to,
            detections,
            metrics: metrics_from_fields(&fields),
        });
    }
    let snapshot = match p.field("snapshot")? {
        "detect" => {
            let state_token = p.field("reference_state")?;
            let reference_state = p.bits_token(state_token)?;
            let survivor_count = p.usize_field("survivors")?;
            let mut survivors = Vec::new();
            for _ in 0..survivor_count {
                let line = p.field("survivor")?;
                let tokens: Vec<&str> = line.split_whitespace().collect();
                let [index, memory, state] = tokens.as_slice() else {
                    return Err(p.err("`survivor` takes an index, a memory bit and a state"));
                };
                survivors.push(SurvivorRecord {
                    index: p.usize_token(index)?,
                    memory: p.memory_token(memory)?,
                    state: p.bits_token(state)?,
                });
            }
            EngineSnapshot::Detect {
                reference_state,
                survivors,
            }
        }
        "signatures" => {
            let state_token = p.field("good_state")?;
            let good_state = p.bits_token(state_token)?;
            let sig_token = p.field("reference_signature")?;
            let reference_signature = p.hex_token(sig_token)?;
            let seg_line = p.field("reference_segments")?;
            let mut tokens = seg_line.split_whitespace();
            let count = p.usize_token(tokens.next().unwrap_or(""))?;
            let mut reference_segments = Vec::new();
            for _ in 0..count {
                let token = tokens
                    .next()
                    .ok_or_else(|| p.err("truncated reference_segments list"))?;
                reference_segments.push(p.hex_token(token)?);
            }
            let lane_count = p.usize_field("lanes")?;
            let mut lanes = Vec::new();
            for _ in 0..lane_count {
                let line = p.field("lane")?;
                let mut tokens = line.split_whitespace();
                let mut next =
                    |p: &Parser<'_>| tokens.next().ok_or_else(|| p.err("truncated lane record"));
                let detected = match next(&p)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(p.err(format!("not a detection flag: `{other}`"))),
                };
                let first_detect = match next(&p)? {
                    "-" => None,
                    token => Some(p.usize_token(token)?),
                };
                let memory = p.memory_token(next(&p)?)?;
                let signature = p.hex_token(next(&p)?)?;
                let state = p.bits_token(next(&p)?)?;
                let seg_count = p.usize_token(next(&p)?)?;
                let mut segments = Vec::new();
                for _ in 0..seg_count {
                    segments.push(p.hex_token(next(&p)?)?);
                }
                if tokens.next().is_some() {
                    return Err(p.err("trailing tokens after lane record"));
                }
                lanes.push(LaneRecord {
                    state,
                    memory,
                    detected,
                    first_detect,
                    signature,
                    segments,
                });
            }
            EngineSnapshot::Signatures {
                good_state,
                reference_signature,
                reference_segments,
                lanes,
            }
        }
        other => return Err(p.err(format!("unknown snapshot kind `{other}`"))),
    };
    match p.next_line() {
        Ok("end") => {}
        Ok(other) => return Err(p.err(format!("expected `end`, found `{other}`"))),
        Err(e) => return Err(e),
    }
    Ok(CampaignCheckpoint {
        digest,
        engine,
        max_patterns,
        pass,
        stimulus_generated,
        segments,
        snapshot,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn detect_checkpoint() -> CampaignCheckpoint {
        CampaignCheckpoint {
            digest: 0xDEAD_BEEF_0BAD_F00D,
            engine: "threaded".to_string(),
            max_patterns: 300,
            pass: PassKind::Detect,
            stimulus_generated: 192,
            segments: vec![
                StoredSegment {
                    index: 0,
                    to: 64,
                    detections: vec![(3, 0), (1, 7)],
                    metrics: CampaignMetrics {
                        stimulus_patterns: 64,
                        cycles_simulated: 64,
                        ..CampaignMetrics::default()
                    },
                },
                StoredSegment {
                    index: 1,
                    to: 192,
                    detections: vec![],
                    metrics: CampaignMetrics::default(),
                },
            ],
            snapshot: EngineSnapshot::Detect {
                reference_state: vec![true, false, true],
                survivors: vec![
                    SurvivorRecord {
                        index: 0,
                        state: vec![false, false, true],
                        memory: Vec::new(),
                    },
                    SurvivorRecord {
                        index: 2,
                        state: vec![true, true, false],
                        memory: vec![true, false, true],
                    },
                ],
            },
        }
    }

    fn signatures_checkpoint() -> CampaignCheckpoint {
        CampaignCheckpoint {
            digest: 1,
            engine: "packed".to_string(),
            max_patterns: 300,
            pass: PassKind::Signatures,
            stimulus_generated: 64,
            segments: vec![StoredSegment {
                index: 0,
                to: 64,
                detections: vec![(0, 5)],
                metrics: CampaignMetrics::default(),
            }],
            snapshot: EngineSnapshot::Signatures {
                good_state: vec![false, true],
                reference_signature: 0x1234,
                reference_segments: vec![0xAB, 0xCD],
                lanes: vec![
                    LaneRecord {
                        state: vec![true, true],
                        memory: Vec::new(),
                        detected: true,
                        first_detect: Some(5),
                        signature: 0xFFFF_0000_FFFF_0000,
                        segments: vec![0xAB],
                    },
                    LaneRecord {
                        state: vec![false, true],
                        memory: vec![false],
                        detected: false,
                        first_detect: None,
                        signature: 0,
                        segments: vec![],
                    },
                ],
            },
        }
    }

    #[test]
    fn detect_checkpoints_roundtrip() {
        let checkpoint = detect_checkpoint();
        let text = serialize(&checkpoint);
        let parsed = parse(&text, Path::new("test.ckpt")).expect("roundtrip");
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.patterns_applied(), 192);
    }

    #[test]
    fn signature_checkpoints_roundtrip() {
        let checkpoint = signatures_checkpoint();
        let text = serialize(&checkpoint);
        let parsed = parse(&text, Path::new("test.ckpt")).expect("roundtrip");
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.snapshot.pass(), PassKind::Signatures);
    }

    #[test]
    fn truncated_and_malformed_checkpoints_are_typed_errors() {
        let text = serialize(&detect_checkpoint());
        // Dropping the trailing `end` guard is caught.
        let truncated = text.trim_end().trim_end_matches("end");
        let err = parse(truncated, Path::new("t.ckpt")).expect_err("truncated");
        assert!(matches!(err, CampaignError::CheckpointFormat { .. }));
        // A foreign file is caught on the header line.
        let err = parse("{\"not\": \"a checkpoint\"}", Path::new("t.ckpt")).expect_err("header");
        assert!(err.to_string().contains("bad header"));
        // A future version is refused, not misparsed.
        let future = text.replacen("v2", "v999", 1);
        let err = parse(&future, Path::new("t.ckpt")).expect_err("version");
        assert!(err.to_string().contains("unsupported checkpoint version"));
        // A metrics count drift is refused.
        let drifted = text.replacen("metrics 25", "metrics 24", 1);
        let err = parse(&drifted, Path::new("t.ckpt")).expect_err("count");
        assert!(err.to_string().contains("counters"));
    }

    #[test]
    fn inflated_counts_are_typed_errors_not_allocations() {
        // Seven lines whose `segments` count would reserve petabytes.
        let header = format!(
            "{HEADER} v{FORMAT_VERSION}\ndigest 00000000000000ff\nengine packed\n\
             max_patterns 64\npass detect\nstimulus_generated 64\n"
        );
        let probe = format!("{header}segments 100000000000000\n");
        assert_eq!(probe.lines().count(), 7);
        let err = parse(&probe, Path::new("t.ckpt")).expect_err("inflated segments");
        assert!(matches!(err, CampaignError::CheckpointFormat { .. }));
        // The same for every other count the decoder reads.
        let inflated = [
            "segments 1\nsegment 0 64\ndetections 100000000000000\n".to_string(),
            "segments 0\nsnapshot detect\nreference_state b0\nsurvivors 100000000000000\n"
                .to_string(),
            "segments 0\nsnapshot signatures\ngood_state b0\nreference_signature 0\n\
             reference_segments 100000000000000\n"
                .to_string(),
            "segments 0\nsnapshot signatures\ngood_state b0\nreference_signature 0\n\
             reference_segments 0\nlanes 100000000000000\n"
                .to_string(),
            "segments 0\nsnapshot signatures\ngood_state b0\nreference_signature 0\n\
             reference_segments 0\nlanes 1\nlane 0 - - 0 b0 100000000000000\n"
                .to_string(),
        ];
        for tail in inflated {
            let err = parse(&format!("{header}{tail}"), Path::new("t.ckpt")).expect_err(&tail);
            assert!(
                matches!(err, CampaignError::CheckpointFormat { .. }),
                "{tail}"
            );
        }
    }

    #[test]
    fn save_and_load_are_atomic_and_typed() {
        let dir = std::env::temp_dir().join("stfsm-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("unit.ckpt");
        let checkpoint = signatures_checkpoint();
        let bytes = save(&path, &checkpoint, 0).expect("save");
        assert_eq!(bytes as usize, serialize(&checkpoint).len());
        let loaded = load(&path).expect("load");
        assert_eq!(loaded, checkpoint);
        let missing = dir.join("does-not-exist.ckpt");
        let err = load(&missing).expect_err("missing file");
        assert!(matches!(err, CampaignError::CheckpointIo { .. }));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn injected_checkpoint_io_failures_fire() {
        let _guard = crate::failpoints::arm(crate::failpoints::ChaosPlan::new().checkpoint_io(1));
        let dir = std::env::temp_dir().join("stfsm-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("chaos.ckpt");
        let checkpoint = detect_checkpoint();
        let err = save(&path, &checkpoint, 1).expect_err("injected failure");
        assert!(err
            .to_string()
            .contains("injected checkpoint write failure"));
        // Other segments are unaffected.
        save(&path, &checkpoint, 0).expect("segment 0 writes fine");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        let mut a = Fnv1a64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix separates strings");
        let mut c = Fnv1a64::new();
        c.write_u64(1);
        c.write_u64(2);
        let mut d = Fnv1a64::new();
        d.write_u64(2);
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }
}
