//! Fault dictionaries: per-fault first-detect pattern indices and MISR
//! signatures for diagnosis.
//!
//! A coverage campaign only asks *whether* a fault is detected; diagnosis
//! asks *which* fault explains an observed failure.  The classic answer is a
//! fault dictionary: simulate every fault over the full test, compact each
//! faulty machine's observation stream in the same MISR the hardware uses,
//! and record the final signature next to the first-detect pattern index.
//! Comparing a failing chip's signature against the dictionary then narrows
//! the defect down to the faults that produce it.
//!
//! The dictionary pass reuses the word-parallel engines: signatures of all
//! lanes advance word-parallel through the bit-plane form of the MISR
//! recurrence — [`stfsm_lfsr::Misr::step_planes`], the *single*
//! implementation of the recurrence shared with the scalar
//! [`stfsm_lfsr::Misr`] API — so building a dictionary costs one un-dropped
//! campaign instead of one serial simulation per fault.  Unlike the
//! coverage campaign, faulty machines keep running after their first
//! detection — the signature covers the whole test — which also measures
//! *actual* signature aliasing against the `2^{-r}` estimate of
//! [`crate::coverage::misr_aliasing_probability`].
//!
//! Final signatures can collide (aliasing); to disambiguate, every entry
//! additionally records the *intermediate* signatures at evenly spaced
//! checkpoints of the campaign ([`DictionaryEntry::segments`]).  The
//! checkpoint count adapts to the campaign length: at least
//! [`DICTIONARY_SEGMENTS`], scaling up with the campaign's doubling
//! segment schedule (see [`checkpoint_count`]).  Two faults that alias on
//! the final signature almost never alias on every checkpoint as well, and
//! [`crate::diagnosis::Diagnosis`] ranks candidates by how many checkpoint
//! signatures match the observed response.
//!
//! [`CampaignConfig::engine`] selects how the faulty machines are advanced:
//! `Differential` compacts signatures on the event-driven cone-restricted
//! differential block engine of [`crate::differential`] (`64 * W - 1`
//! fault lanes per `W`-word block with `W` picked from the fault count by
//! [`CampaignConfig::resolved_block_words`], only the perturbable steps
//! evaluated, the independent blocks fanned out over
//! [`CampaignConfig::threads`] workers sharing one good-trace recording),
//! `Scalar` and `Packed` on the classic 64-lane packed word, and `Auto`
//! resolves per machine size first.  All paths produce identical
//! dictionaries, and all generate stimulus and checkpoint planes lazily —
//! an early-stopped campaign only pays for the segments it applied.

use crate::checkpoint::{EngineSnapshot, LaneRecord};
use crate::coverage::{
    generate_stimulus, segment_schedule, CampaignConfig, PassPersistence, ResumePoint,
    SegmentReport, SimEngine, StateStimulation,
};
use crate::differential::{DiffSimulator, GoodTraceCache, LaneBlock};
use crate::engine::PackedCore;
use crate::packed::FAULT_LANES;
use crate::telemetry::{CampaignMetrics, PhaseTimer, SegmentTelemetry};
use std::collections::HashMap;
use stfsm_bist::netlist::Netlist;
use stfsm_faults::Injection;
use stfsm_lfsr::bitvec::broadcast;
use stfsm_lfsr::{primitive_polynomial, Misr, PlaneSymbol};

/// The widest MISR the dictionary can instantiate (the primitive-polynomial
/// table of `stfsm-lfsr` ends here); wider observation vectors are folded
/// onto the register by XOR.
pub const MAX_SIGNATURE_BITS: usize = 24;

/// The *minimum* number of intermediate-signature checkpoints recorded per
/// entry.  Short campaigns record exactly this many (at 1/4, 2/4 and 3/4
/// of the pattern budget — unchanged from the original fixed-3 design, so
/// small machines keep their dictionaries and
/// [`Diagnosis::disambiguate`](crate::diagnosis::Diagnosis::disambiguate)
/// behaviour bit for bit); longer campaigns scale the count up with the
/// campaign's segment schedule (see [`checkpoint_count`]).
pub const DICTIONARY_SEGMENTS: usize = 3;

/// Number of intermediate-signature checkpoints of a `cycles`-pattern
/// campaign: one fewer than the campaign's doubling-segment count
/// ([`crate::coverage::segment_schedule`]), but never below
/// [`DICTIONARY_SEGMENTS`].  A campaign with more compaction segments gets
/// proportionally more alias-disambiguation power; a short campaign (up to
/// four segments, i.e. ≤ 960 patterns) keeps the classic three.
pub fn checkpoint_count(cycles: usize) -> usize {
    DICTIONARY_SEGMENTS.max(
        crate::coverage::segment_schedule(cycles)
            .len()
            .saturating_sub(1),
    )
}

/// The pattern counts after which the intermediate signatures of a
/// `cycles`-pattern campaign are snapshotted: `ceil(cycles * k / (n + 1))`
/// for `k = 1..=n` with `n = checkpoint_count(cycles)` — evenly spaced,
/// with the final signature covering the last stretch.
pub fn segment_checkpoints(cycles: usize) -> Vec<usize> {
    let n = checkpoint_count(cycles);
    (1..=n).map(|k| (cycles * k).div_ceil(n + 1)).collect()
}

/// One fault's dictionary entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryEntry {
    /// The fault.
    pub fault: Injection,
    /// Index of the first pattern whose response deviated from the
    /// fault-free machine (identical to the campaign's detection pattern).
    pub first_detect: Option<usize>,
    /// The MISR signature of the faulty machine after the full campaign
    /// (bit `i` of the word is stage `i + 1` of the register).
    pub signature: u64,
    /// The intermediate signatures at the campaign's
    /// [`segment_checkpoints`] — the alias disambiguators of the diagnosis
    /// flow.  When an observer stopped the campaign early, checkpoints
    /// beyond the stop hold the stop-time signature (the MISR stops
    /// clocking when the test ends).
    pub segments: Vec<u64>,
}

/// A fault dictionary for one netlist and fault list.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDictionary {
    /// Width of the signature register (observation count, capped at
    /// [`MAX_SIGNATURE_BITS`]).
    pub signature_bits: usize,
    /// The fault-free machine's signature.
    pub reference_signature: u64,
    /// The fault-free machine's intermediate signatures at the
    /// [`FaultDictionary::segment_checkpoints`].
    pub reference_segments: Vec<u64>,
    /// Patterns applied at each intermediate-signature checkpoint
    /// ([`segment_checkpoints`] of the campaign's pattern budget — the
    /// schedule is fixed up front even if the campaign stops early).
    pub segment_checkpoints: Vec<usize>,
    /// Patterns compacted into every signature (less than the budget when
    /// a streaming observer stopped the campaign early).
    pub patterns_applied: usize,
    /// One entry per fault, in fault-list order.
    ///
    /// Treat as read-only: [`FaultDictionary::candidates`] answers from a
    /// signature index built once at construction, so mutating the entries
    /// of an owned dictionary in place would desynchronize the lookup.
    /// Build a fresh dictionary through [`FaultDictionary::new`] instead.
    pub entries: Vec<DictionaryEntry>,
    /// Signature → entry indices, built once at construction so
    /// [`FaultDictionary::candidates`] is a hash lookup instead of a linear
    /// scan per query.
    index: HashMap<u64, Vec<u32>>,
}

impl FaultDictionary {
    /// Assembles a dictionary and builds its signature index.
    pub fn new(
        signature_bits: usize,
        reference_signature: u64,
        reference_segments: Vec<u64>,
        segment_checkpoints: Vec<usize>,
        patterns_applied: usize,
        entries: Vec<DictionaryEntry>,
    ) -> Self {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, entry) in entries.iter().enumerate() {
            index.entry(entry.signature).or_default().push(i as u32);
        }
        Self {
            signature_bits,
            reference_signature,
            reference_segments,
            segment_checkpoints,
            patterns_applied,
            entries,
            index,
        }
    }

    /// The dictionary restricted to an entry range (used by the campaign
    /// layer to split a multi-model run into per-model dictionaries).
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Self {
        Self::new(
            self.signature_bits,
            self.reference_signature,
            self.reference_segments.clone(),
            self.segment_checkpoints.clone(),
            self.patterns_applied,
            self.entries[range].to_vec(),
        )
    }

    /// Whether an entry's fault was detected but its full-campaign
    /// signature collides with the fault-free one (signature aliasing: the
    /// compactor would mask this fault even though the responses differed).
    pub fn aliased(&self, entry: &DictionaryEntry) -> bool {
        entry.first_detect.is_some() && entry.signature == self.reference_signature
    }

    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.first_detect.is_some())
            .count()
    }

    /// Number of detected-but-aliased faults.
    pub fn aliased_count(&self) -> usize {
        self.entries.iter().filter(|e| self.aliased(e)).count()
    }

    /// The entries whose signature equals `signature` — the diagnosis
    /// candidates for an observed failing signature — in fault-list order.
    /// A hash-index lookup; the order matches what a linear scan over
    /// [`FaultDictionary::entries`] would produce.
    pub fn candidates(&self, signature: u64) -> Vec<&DictionaryEntry> {
        self.index
            .get(&signature)
            .map(|indices| indices.iter().map(|&i| &self.entries[i as usize]).collect())
            .unwrap_or_default()
    }
}

/// The dictionary engine room: one un-dropped campaign over `faults`,
/// first-detect indices and final + intermediate signatures per lane,
/// streaming one [`SegmentReport`] per boundary of the campaign's
/// [`segment_schedule`] to `on_segment` — whose `false` return ends the
/// campaign at that boundary (checkpoints beyond the stop then hold the
/// stop-time signatures).  [`CampaignConfig::engine`] picks the
/// word-parallel engine (resolving [`SimEngine::Auto`] per machine size
/// first).  Because the un-dropped pass produces exactly the coverage
/// campaign's first-detect indices, the segment reports — and therefore
/// any observer's stop decision — are identical to the drop-on-detect
/// pass's.
pub(crate) fn build_dictionary_streaming(
    netlist: &Netlist,
    faults: &[Injection],
    config: &CampaignConfig,
    good_cache: &mut GoodTraceCache,
    persist: &PassPersistence<'_>,
    on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
) -> (FaultDictionary, usize) {
    let stimulation = config.resolved_stimulation(netlist);
    let mut stimulus = generate_stimulus(netlist, config);

    let obs_count = netlist.observation_points().len();
    let signature_bits = obs_count.clamp(1, MAX_SIGNATURE_BITS);
    let poly = primitive_polynomial(signature_bits)
        .expect("the polynomial table covers 1..=MAX_SIGNATURE_BITS");
    let misr = Misr::new(poly).expect("positive degree");

    if stimulus.cycles == 0 {
        // Degenerate dictionary: nothing compacted, the all-zero reset
        // signature for every machine including the reference.
        let n = checkpoint_count(0);
        let dictionary = FaultDictionary::new(
            signature_bits,
            0,
            vec![0; n],
            segment_checkpoints(0),
            0,
            faults
                .iter()
                .map(|fault| DictionaryEntry {
                    fault: fault.clone(),
                    first_detect: None,
                    signature: 0,
                    segments: vec![0; n],
                })
                .collect(),
        );
        return (dictionary, 0);
    }

    let checkpoints = segment_checkpoints(stimulus.cycles);
    let boundaries = segment_schedule(stimulus.cycles);
    let (entries, reference_signature, reference_segments, patterns_applied) =
        match config.engine.resolve(netlist) {
            SimEngine::Differential => {
                macro_rules! diff_pass {
                    ($w:literal) => {
                        differential_signatures::<$w>(
                            netlist,
                            faults,
                            &mut stimulus,
                            stimulation,
                            &misr,
                            &checkpoints,
                            &boundaries,
                            config.threads,
                            good_cache,
                            persist,
                            on_segment,
                        )
                    };
                }
                match config.resolved_block_words(faults.len()) {
                    1 => diff_pass!(1),
                    8 => diff_pass!(8),
                    _ => diff_pass!(4),
                }
            }
            SimEngine::Scalar | SimEngine::Packed => packed_signatures(
                netlist,
                faults,
                &mut stimulus,
                stimulation,
                &misr,
                &checkpoints,
                &boundaries,
                persist,
                on_segment,
            ),
            SimEngine::Auto => unreachable!("SimEngine::resolve never returns Auto"),
        };

    let dictionary = FaultDictionary::new(
        signature_bits,
        reference_signature,
        reference_segments,
        checkpoints,
        patterns_applied,
        entries,
    );
    (dictionary, stimulus.generated_cycles())
}

/// What every signature pass returns: the entries, the fault-free
/// reference's final and intermediate signatures, and the patterns
/// actually applied (the early-stop boundary, or the full budget).
type SignaturePass = (Vec<DictionaryEntry>, u64, Vec<u64>, usize);

/// Reads lane `lane` of the signature bit-planes back into one register
/// word (bit `i` = stage `i + 1`).
fn lane_signature<const W: usize>(planes: &[[u64; W]], lane: usize) -> u64 {
    let (w, b) = (lane / 64, lane % 64);
    planes
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, plane)| acc | (((plane[w] >> b) & 1) << i))
}

/// The classic dictionary pass on 64-lane packed words, advanced
/// segment-major: every chunk's simulator, MISR bit-planes and one-cycle
/// memories persist across segment boundaries, so the signatures are
/// bit-for-bit those of an unsegmented pass while the campaign can stop at
/// any boundary.  Keeping the compiled simulators alive trades peak
/// memory (tens of KB per 64-fault chunk on the suite machines) for not
/// recompiling every chunk once per segment — the un-dropped pass has no
/// survivor compaction, so unlike the coverage engines there is nothing
/// to rebuild a chunk *around*.
#[allow(clippy::too_many_arguments)]
fn packed_signatures(
    netlist: &Netlist,
    faults: &[Injection],
    stimulus: &mut crate::coverage::Stimulus,
    stimulation: StateStimulation,
    misr: &Misr,
    checkpoints: &[usize],
    boundaries: &[usize],
    persist: &PassPersistence<'_>,
    on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
) -> SignaturePass {
    let signature_bits = misr.width();
    let num_inputs = netlist.primary_inputs().len();
    let num_state = netlist.flip_flops().len();
    stimulus.ensure(1);
    let init_state = stimulus.st(0)[..num_state].to_vec();
    // Broadcast words of the generated rows (cycle-major), extended lazily
    // per segment: an early-stopped pass never allocates the full budget.
    let mut pi_words: Vec<u64> = Vec::new();
    let mut st_words: Vec<u64> = Vec::new();
    let mut packed_cycles = 0usize;
    let epoch = PhaseTimer::start();
    let mut metrics = CampaignMetrics::default();
    let mut counted_generated = 0usize;

    /// The persistent state of one 64-lane chunk.
    struct ChunkState<'a> {
        sim: PackedCore<'a, 1>,
        fault_mask: u64,
        detected: u64,
        first_detect: Vec<Option<usize>>,
        /// Signature bit-planes: `planes[i]` carries stage `i + 1` of all
        /// 64 MISRs, one lane per machine (the `[u64; 1]` symbol keeps the
        /// snapshot helper shared with the multi-word differential pass).
        planes: Vec<[u64; 1]>,
        folded: Vec<[u64; 1]>,
        /// Per lane: the checkpoint signatures reached so far, grown one
        /// checkpoint at a time (never pre-allocated for the full budget).
        segments: Vec<Vec<u64>>,
        /// Flat fault-list index of the chunk's first fault.
        offset: usize,
    }

    /// Snapshots every lane (register state, one-cycle memory, detection
    /// status, MISR planes folded back to signature words) at a segment
    /// boundary for the campaign checkpoint.
    fn capture_chunks(
        chunks: &[ChunkState<'_>],
        chunk_lists: &[&[Injection]],
        num_state: usize,
    ) -> EngineSnapshot {
        let reference_words = chunks[0].sim.state_words();
        let good_state: Vec<bool> = (0..num_state)
            .map(|ff| reference_words[ff] & 1 == 1)
            .collect();
        let mut lanes = Vec::new();
        for (cs, &chunk) in chunks.iter().zip(chunk_lists) {
            let words = cs.sim.state_words();
            for i in 0..chunk.len() {
                let lane = i + 1;
                lanes.push(LaneRecord {
                    state: words.iter().map(|&w| (w >> lane) & 1 == 1).collect(),
                    memory: cs.sim.injection_memory(lane),
                    detected: (cs.detected >> lane) & 1 == 1,
                    first_detect: cs.first_detect[i],
                    signature: lane_signature(&cs.planes, lane),
                    segments: cs.segments[lane].clone(),
                });
            }
        }
        EngineSnapshot::Signatures {
            good_state,
            reference_signature: lane_signature(&chunks[0].planes, 0),
            reference_segments: chunks[0].segments[0].clone(),
            lanes,
        }
    }

    // An empty fault list still compacts the fault-free reference (one pass
    // with no injected lanes), so `reference_signature` always honours its
    // contract.
    let chunk_lists: Vec<&[Injection]> = if faults.is_empty() {
        vec![&[]]
    } else {
        faults.chunks(FAULT_LANES).collect()
    };
    let mut chunks: Vec<ChunkState> = Vec::with_capacity(chunk_lists.len());
    let mut offset = 0usize;
    for &chunk in &chunk_lists {
        let mut sim = PackedCore::<1>::compile(netlist, chunk);
        sim.set_state_broadcast_bits(&init_state);
        let [fault_mask] = sim.fault_lanes();
        chunks.push(ChunkState {
            sim,
            fault_mask,
            detected: 0,
            first_detect: vec![None; chunk.len()],
            planes: vec![[0u64; 1]; signature_bits],
            folded: vec![[0u64; 1]; signature_bits],
            segments: vec![Vec::new(); 64],
            offset,
        });
        offset += chunk.len();
    }
    // Every chunk compile is one compaction rebuild; the un-dropped packed
    // pass compiles once up front, so segment 0 absorbs the tally.
    metrics.compaction_rebuilds += chunks.len() as u64;

    // Resuming a signatures checkpoint: every lane's register state,
    // one-cycle memory, detection status and MISR planes restore exactly
    // as the interrupted run left them (the planes are a bijection of the
    // per-lane signature words), so the remaining segments advance the
    // very same machines.
    let mut from = 0usize;
    if let Some(ResumePoint {
        from: resumed,
        stimulus_generated,
        snapshot:
            EngineSnapshot::Signatures {
                good_state,
                reference_signature,
                reference_segments,
                lanes,
            },
    }) = persist.resume
    {
        for (cs, &chunk) in chunks.iter_mut().zip(&chunk_lists) {
            let mut words = vec![0u64; num_state];
            for (ff, word) in words.iter_mut().enumerate() {
                let mut w = good_state[ff] as u64;
                for i in 0..chunk.len() {
                    w |= (lanes[cs.offset + i].state[ff] as u64) << (i + 1);
                }
                *word = w;
            }
            cs.sim.set_state_words(&words);
            for i in 0..chunk.len() {
                let rec = &lanes[cs.offset + i];
                cs.sim.seed_injection_memory(i + 1, &rec.memory);
                cs.first_detect[i] = rec.first_detect;
                if rec.detected {
                    cs.detected |= 1u64 << (i + 1);
                }
                for (p, plane) in cs.planes.iter_mut().enumerate() {
                    plane[0] |= ((rec.signature >> p) & 1) << (i + 1);
                }
                cs.segments[i + 1] = rec.segments.clone();
            }
            for (p, plane) in cs.planes.iter_mut().enumerate() {
                plane[0] |= (reference_signature >> p) & 1;
            }
            cs.segments[0] = reference_segments.clone();
        }
        stimulus.ensure(stimulus_generated);
        counted_generated = stimulus_generated;
        from = resumed;
    }

    let obs = netlist.plan().observation_points();
    let mut detections: Vec<(usize, usize)> = Vec::new();
    let mut applied = stimulus.cycles;
    for (segment, &to) in boundaries.iter().enumerate() {
        if to <= from {
            continue;
        }
        let start_ns = epoch.elapsed_ns();
        let stim_timer = PhaseTimer::start();
        stimulus.ensure(to);
        for cycle in packed_cycles..to {
            pi_words.extend(stimulus.pi(cycle).iter().map(|&b| broadcast(b)));
            st_words.extend(stimulus.st(cycle).iter().map(|&b| broadcast(b)));
        }
        packed_cycles = packed_cycles.max(to);
        metrics.stimulus_patterns += (stimulus.generated_cycles() - counted_generated) as u64;
        counted_generated = stimulus.generated_cycles();
        metrics.stimulus_ns += stim_timer.elapsed_ns();
        metrics.cycles_simulated += (to - from) as u64;
        detections.clear();
        let eval_timer = PhaseTimer::start();
        for cs in chunks.iter_mut() {
            for cycle in from..to {
                if stimulation == StateStimulation::RandomState {
                    let row = cycle * stimulus.st_width;
                    cs.sim.set_state_words(&st_words[row..row + num_state]);
                }
                let row = cycle * num_inputs;
                cs.sim.eval_all(&pi_words[row..row + num_inputs]);
                let mut newly = cs.sim.mismatch_word() & cs.fault_mask & !cs.detected;
                cs.detected |= newly;
                while newly != 0 {
                    let lane = newly.trailing_zeros() as usize;
                    cs.first_detect[lane - 1] = Some(cycle);
                    detections.push((cs.offset + lane - 1, cycle));
                    newly &= newly - 1;
                }
                // Fold the observation vector onto the register width and
                // clock all 64 MISRs at once through the shared bit-plane
                // recurrence.
                for f in cs.folded.iter_mut() {
                    *f = [0];
                }
                for (bit, &net) in obs.iter().enumerate() {
                    cs.folded[bit % signature_bits][0] ^= cs.sim.values[net as usize][0];
                }
                misr.step_planes(&mut cs.planes, &cs.folded);
                for &checkpoint in checkpoints {
                    if checkpoint == cycle + 1 {
                        for (lane, seg) in cs.segments.iter_mut().enumerate() {
                            seg.push(lane_signature(&cs.planes, lane));
                        }
                    }
                }
                cs.sim.clock();
            }
        }
        for cs in chunks.iter_mut() {
            let (launches, activations) = cs.sim.take_path_counters();
            metrics.path_launches += launches;
            metrics.path_activations += activations;
        }
        metrics.dictionary_ns += eval_timer.elapsed_ns();
        detections.sort_unstable_by_key(|&(index, cycle)| (cycle, index));
        metrics.lane_retirements += detections.len() as u64;
        let report = SegmentReport {
            segment,
            patterns_applied: to,
            new_detections: &detections,
            stimulus_generated: stimulus.generated_cycles(),
            snapshot: if persist.capture {
                Some(capture_chunks(&chunks, &chunk_lists, num_state))
            } else {
                None
            },
            telemetry: SegmentTelemetry {
                segment,
                patterns_applied: to,
                start_ns,
                end_ns: epoch.elapsed_ns(),
                metrics: std::mem::take(&mut metrics),
                workers: Vec::new(),
            },
        };
        if !on_segment(&report) {
            applied = to;
            break;
        }
        from = to;
    }

    // Early stop: checkpoints beyond the stop hold the stop-time signature
    // (the MISR stops clocking when the test ends).
    for cs in chunks.iter_mut() {
        for (lane, seg) in cs.segments.iter_mut().enumerate() {
            while seg.len() < checkpoints.len() {
                seg.push(lane_signature(&cs.planes, lane));
            }
        }
    }

    let reference_signature = lane_signature(&chunks[0].planes, 0);
    let reference_segments = chunks[0].segments[0].clone();
    let mut entries: Vec<DictionaryEntry> = Vec::with_capacity(faults.len());
    for (cs, &chunk) in chunks.iter().zip(&chunk_lists) {
        entries.extend(chunk.iter().enumerate().map(|(i, fault)| DictionaryEntry {
            fault: fault.clone(),
            first_detect: cs.first_detect[i],
            signature: lane_signature(&cs.planes, i + 1),
            segments: cs.segments[i + 1].clone(),
        }));
    }
    (entries, reference_signature, reference_segments, applied)
}

/// Reads the signature word of a scalar (`bool`-plane) MISR stream.
fn plane_word(planes: &[bool]) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// The dictionary pass on the cone-restricted differential block engine:
/// the good machine's trajectory is recorded once per segment (shared
/// read-only by every block and worker of that segment, and reused across
/// campaign passes through the [`GoodTraceCache`]), each `64 * W - 1`-fault
/// block evaluates only the steps its faults (or diverged register states)
/// can perturb, and the MISR bit-planes advance over `W`-word symbols.
/// Because faulty machines are never dropped, a block stays on the wide
/// step set while any of its lanes has diverged and re-narrows when they
/// all reconverge.  Block simulators and bit-planes persist across segment
/// boundaries, so the signatures equal an unsegmented pass bit for bit
/// while the campaign can stop at any boundary; stimulus rows and
/// checkpoint planes grow per live segment only.
///
/// `threads > 1` fans the independent signature blocks out over
/// `std::thread::scope` workers; the merge is in block order, so the
/// dictionary is identical for any worker count.
#[allow(clippy::too_many_arguments)]
fn differential_signatures<const W: usize>(
    netlist: &Netlist,
    faults: &[Injection],
    stimulus: &mut crate::coverage::Stimulus,
    stimulation: StateStimulation,
    misr: &Misr,
    checkpoints: &[usize],
    boundaries: &[usize],
    threads: usize,
    good_cache: &mut GoodTraceCache,
    persist: &PassPersistence<'_>,
    on_segment: &mut dyn FnMut(&SegmentReport<'_>) -> bool,
) -> SignaturePass {
    let signature_bits = misr.width();
    let num_inputs = netlist.primary_inputs().len();
    let num_state = netlist.flip_flops().len();
    stimulus.ensure(1);
    let init_state = stimulus.st(0)[..num_state].to_vec();
    let obs = netlist.plan().observation_points();
    // Broadcast input words of the generated rows, extended lazily per
    // segment: an early-stopped pass never allocates the full budget.
    let mut pi_words: Vec<u64> = Vec::new();
    let mut packed_cycles = 0usize;
    let epoch = PhaseTimer::start();
    let mut metrics = CampaignMetrics::default();
    let mut counted_generated = 0usize;

    /// The persistent state of one `64 * W - 1`-fault signature block.
    struct BlockState<'a, const W: usize> {
        sim: DiffSimulator<'a, W>,
        fault_mask: [u64; W],
        detected: [u64; W],
        first_detect: Vec<Option<usize>>,
        planes: Vec<[u64; W]>,
        folded: Vec<[u64; W]>,
        /// Per lane: the checkpoint signatures reached so far, grown one
        /// checkpoint at a time (never pre-allocated for the full budget).
        segments: Vec<Vec<u64>>,
        /// Flat fault-list index of the block's first fault.
        offset: usize,
    }

    /// Snapshots every faulty lane plus the fault-free reference stream at
    /// a segment boundary for the campaign checkpoint.
    fn capture_blocks<const W: usize>(
        blocks: &[BlockState<'_, W>],
        chunk_lists: &[&[Injection]],
        good_state: &[bool],
        ref_planes: &[bool],
        reference_segments: &[u64],
    ) -> EngineSnapshot {
        let mut lanes = Vec::new();
        for (bs, &chunk) in blocks.iter().zip(chunk_lists) {
            for i in 0..chunk.len() {
                let lane = i + 1;
                lanes.push(LaneRecord {
                    state: bs.sim.lane_state(lane),
                    memory: bs.sim.injection_memory(lane),
                    detected: (bs.detected[lane / 64] >> (lane % 64)) & 1 == 1,
                    first_detect: bs.first_detect[i],
                    signature: lane_signature(&bs.planes, lane),
                    segments: bs.segments[lane].clone(),
                });
            }
        }
        EngineSnapshot::Signatures {
            good_state: good_state.to_vec(),
            reference_signature: plane_word(ref_planes),
            reference_segments: reference_segments.to_vec(),
            lanes,
        }
    }

    let chunk_lists: Vec<&[Injection]> = faults.chunks(LaneBlock::<W>::FAULT_LANES).collect();
    let mut blocks: Vec<BlockState<W>> = Vec::with_capacity(chunk_lists.len());
    let mut offset = 0usize;
    for &chunk in &chunk_lists {
        let mut sim = DiffSimulator::<W>::with_injections(netlist, chunk);
        sim.set_state_broadcast_bits(&init_state);
        let fault_mask = sim.active();
        blocks.push(BlockState {
            sim,
            fault_mask,
            detected: [0u64; W],
            first_detect: vec![None; chunk.len()],
            planes: vec![[0u64; W]; signature_bits],
            folded: vec![[0u64; W]; signature_bits],
            segments: vec![Vec::new(); chunk.len() + 1],
            offset,
        });
        offset += chunk.len();
    }

    // The fault-free reference signature advances over the recorded good
    // trajectory: the same shared recurrence the lane planes run, on
    // `bool` symbols.
    let mut good_state = init_state.clone();
    let mut ref_planes = vec![false; signature_bits];
    let mut ref_folded = vec![false; signature_bits];
    let mut reference_segments: Vec<u64> = Vec::new();

    // Resuming a signatures checkpoint: lane registers, one-cycle memory,
    // detection status and MISR planes (a bijection of the per-lane
    // signature words) restore exactly as the interrupted run left them.
    // Lane 0 of every block is the good machine, so its plane column is
    // re-seeded from the reference signature.
    let mut from = 0usize;
    if let Some(ResumePoint {
        from: resumed,
        stimulus_generated,
        snapshot:
            EngineSnapshot::Signatures {
                good_state: stored_good,
                reference_signature,
                reference_segments: stored_segments,
                lanes,
            },
    }) = persist.resume
    {
        good_state = stored_good.clone();
        for (p, plane) in ref_planes.iter_mut().enumerate() {
            *plane = (reference_signature >> p) & 1 == 1;
        }
        reference_segments = stored_segments.clone();
        for (bs, &chunk) in blocks.iter_mut().zip(&chunk_lists) {
            let pseudo: Vec<crate::coverage::AliveFault> = chunk
                .iter()
                .enumerate()
                .map(|(i, fault)| {
                    let rec = &lanes[bs.offset + i];
                    crate::coverage::AliveFault {
                        index: bs.offset + i,
                        fault: fault.clone(),
                        state: rec.state.clone(),
                        memory: rec.memory.clone(),
                    }
                })
                .collect();
            bs.sim.set_state_lanes(&good_state, &pseudo);
            for i in 0..chunk.len() {
                let rec = &lanes[bs.offset + i];
                let lane = i + 1;
                bs.sim.seed_injection_memory(lane, &rec.memory);
                bs.first_detect[i] = rec.first_detect;
                if rec.detected {
                    bs.detected[lane / 64] |= 1u64 << (lane % 64);
                }
                for (p, plane) in bs.planes.iter_mut().enumerate() {
                    if (rec.signature >> p) & 1 == 1 {
                        plane[lane / 64] |= 1u64 << (lane % 64);
                    }
                }
                bs.segments[lane] = rec.segments.clone();
            }
            for (p, plane) in bs.planes.iter_mut().enumerate() {
                plane[0] |= (reference_signature >> p) & 1;
            }
            bs.segments[0] = reference_segments.clone();
        }
        stimulus.ensure(stimulus_generated);
        counted_generated = stimulus_generated;
        from = resumed;
    }

    let mut detections: Vec<(usize, usize)> = Vec::new();
    let mut applied = stimulus.cycles;
    for (segment, &to) in boundaries.iter().enumerate() {
        if to <= from {
            continue;
        }
        let start_ns = epoch.elapsed_ns();
        let stim_timer = PhaseTimer::start();
        stimulus.ensure(to);
        for cycle in packed_cycles..to {
            pi_words.extend(stimulus.pi(cycle).iter().map(|&b| broadcast(b)));
        }
        packed_cycles = packed_cycles.max(to);
        metrics.stimulus_patterns += (stimulus.generated_cycles() - counted_generated) as u64;
        counted_generated = stimulus.generated_cycles();
        metrics.stimulus_ns += stim_timer.elapsed_ns();
        metrics.cycles_simulated += (to - from) as u64;
        // One good-machine recording per segment, shared by every block,
        // every worker and (through the cache) every pass of the campaign.
        let good_timer = PhaseTimer::start();
        let (trace, hit) =
            good_cache.get_or_record(netlist, stimulus, stimulation, &good_state, from, to);
        metrics.cache_lookups += 1;
        if hit {
            metrics.cache_hits += 1;
        } else {
            metrics.cache_misses += 1;
        }
        for cycle in from..to {
            let row = trace.row(cycle);
            ref_folded.fill(false);
            for (bit, &net) in obs.iter().enumerate() {
                ref_folded[bit % signature_bits] ^= (row[net as usize / 64] >> (net % 64)) & 1 == 1;
            }
            misr.step_planes(&mut ref_planes, &ref_folded);
            for &checkpoint in checkpoints {
                if checkpoint == cycle + 1 {
                    reference_segments.push(plane_word(&ref_planes));
                }
            }
        }
        metrics.good_trace_ns += good_timer.elapsed_ns();
        // Fetch the recording again for the block fan-out: the key is
        // unchanged, so this is the cache's reuse path (and ends the
        // reference loop's borrow before the blocks take theirs).
        let (trace, hit) =
            good_cache.get_or_record(netlist, stimulus, stimulation, &good_state, from, to);
        metrics.cache_lookups += 1;
        if hit {
            metrics.cache_hits += 1;
        } else {
            metrics.cache_misses += 1;
        }

        // Every block's trajectory is independent of its worker, and
        // `sharded_map_mut` merges blocks in block order, so the dictionary
        // is bit-for-bit identical for any worker count (the same
        // discipline as the detection driver).
        detections.clear();
        let eval_timer = PhaseTimer::start();
        let (block_results, panics_recovered) =
            crate::differential::sharded_map_mut(&mut blocks, threads, |bs| {
                let span_start = eval_timer.elapsed_ns();
                let mut found: Vec<(usize, usize)> = Vec::new();
                for cycle in from..to {
                    if stimulation == StateStimulation::RandomState {
                        bs.sim
                            .set_state_broadcast_bits(&stimulus.st(cycle)[..num_state]);
                    }
                    let good_row = trace.row(cycle);
                    let wide = bs.sim.needs_wide(trace.pre_state(cycle));
                    let row = cycle * num_inputs;
                    bs.sim
                        .eval_cycle(wide, good_row, &pi_words[row..row + num_inputs]);
                    let mismatch = bs.sim.mismatch(wide, good_row);
                    for (w, &word) in mismatch.iter().enumerate() {
                        let mut newly = word & bs.fault_mask[w] & !bs.detected[w];
                        bs.detected[w] |= newly;
                        while newly != 0 {
                            let lane = w * 64 + newly.trailing_zeros() as usize;
                            bs.first_detect[lane - 1] = Some(cycle);
                            found.push((bs.offset + lane - 1, cycle));
                            newly &= newly - 1;
                        }
                    }
                    for f in bs.folded.iter_mut() {
                        *f = [0u64; W];
                    }
                    for (bit, &net) in obs.iter().enumerate() {
                        let value = bs.sim.net_value(wide, net as usize, good_row);
                        bs.folded[bit % signature_bits] =
                            bs.folded[bit % signature_bits].xor(value);
                    }
                    misr.step_planes(&mut bs.planes, &bs.folded);
                    for &checkpoint in checkpoints {
                        if checkpoint == cycle + 1 {
                            for (lane, seg) in bs.segments.iter_mut().enumerate() {
                                seg.push(lane_signature(&bs.planes, lane));
                            }
                        }
                    }
                    bs.sim.clock_cycle(wide, good_row);
                }
                (
                    found,
                    bs.sim.take_metrics(),
                    (span_start, eval_timer.elapsed_ns()),
                )
            });
        metrics.dictionary_ns += eval_timer.elapsed_ns();
        metrics.worker_panics_recovered += panics_recovered;
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(block_results.len());
        for (found, block_metrics, span) in block_results {
            detections.extend(found);
            metrics.absorb(&block_metrics);
            spans.push(span);
        }
        let workers = crate::differential::fold_worker_spans(&spans, threads);
        detections.sort_unstable_by_key(|&(index, cycle)| (cycle, index));
        metrics.lane_retirements += detections.len() as u64;
        good_state = trace.end_state().to_vec();
        let report = SegmentReport {
            segment,
            patterns_applied: to,
            new_detections: &detections,
            stimulus_generated: stimulus.generated_cycles(),
            snapshot: if persist.capture {
                Some(capture_blocks(
                    &blocks,
                    &chunk_lists,
                    &good_state,
                    &ref_planes,
                    &reference_segments,
                ))
            } else {
                None
            },
            telemetry: SegmentTelemetry {
                segment,
                patterns_applied: to,
                start_ns,
                end_ns: epoch.elapsed_ns(),
                metrics: std::mem::take(&mut metrics),
                workers,
            },
        };
        if !on_segment(&report) {
            applied = to;
            break;
        }
        from = to;
    }

    // Early stop: checkpoints beyond the stop hold the stop-time signature
    // (the MISR stops clocking when the test ends).  Every checkpoint at or
    // before the stop was pushed during simulation, so the remainder of each
    // plane is exactly the unfilled tail.
    while reference_segments.len() < checkpoints.len() {
        reference_segments.push(plane_word(&ref_planes));
    }
    for bs in blocks.iter_mut() {
        for (lane, seg) in bs.segments.iter_mut().enumerate() {
            while seg.len() < checkpoints.len() {
                seg.push(lane_signature(&bs.planes, lane));
            }
        }
    }

    let reference_signature = plane_word(&ref_planes);
    let mut entries: Vec<DictionaryEntry> = Vec::with_capacity(faults.len());
    for (bs, &chunk) in blocks.iter().zip(&chunk_lists) {
        entries.extend(chunk.iter().enumerate().map(|(i, fault)| DictionaryEntry {
            fault: fault.clone(),
            first_detect: bs.first_detect[i],
            signature: lane_signature(&bs.planes, i + 1),
            segments: bs.segments[i + 1].clone(),
        }));
    }
    (entries, reference_signature, reference_segments, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, DictionaryObserver};
    use crate::coverage::CoverageResult;
    use crate::differential::BLOCK_FAULT_LANES;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::build_netlist;
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::{all_models, FaultModel, StuckAt};
    use stfsm_fsm::suite::{fig3_example, modulo12_exact};
    use stfsm_lfsr::{Gf2Vec, Misr};
    use stfsm_logic::espresso::minimize;

    fn pst_netlist() -> Netlist {
        let fsm = modulo12_exact().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("dict", &cover, &lay, BistStructure::Pst, Some(poly)).unwrap()
    }

    fn dff_netlist() -> Netlist {
        let fsm = fig3_example().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let transform = RegisterTransform::Dff;
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("dict-dff", &cover, &lay, BistStructure::Dff, None).unwrap()
    }

    /// A one-section campaign's dictionary over `faults`.
    fn dictionary(
        netlist: &Netlist,
        faults: &[Injection],
        config: &CampaignConfig,
    ) -> FaultDictionary {
        let mut dictionaries = DictionaryObserver::new();
        Campaign::new(netlist)
            .config(config.clone())
            .faults("faults", faults.to_vec())
            .observe(&mut dictionaries)
            .run();
        dictionaries.into_dictionaries().remove(0)
    }

    /// A one-section campaign's coverage over `faults` (the drop-on-detect
    /// pass: no observer asks for signatures).
    fn coverage(
        netlist: &Netlist,
        faults: &[Injection],
        config: &CampaignConfig,
    ) -> CoverageResult {
        Campaign::new(netlist)
            .config(config.clone())
            .faults("faults", faults.to_vec())
            .run()
            .coverage(0)
    }

    #[test]
    fn first_detect_matches_the_campaign_for_every_model() {
        let config = CampaignConfig {
            max_patterns: 256,
            ..Default::default()
        };
        for netlist in [pst_netlist(), dff_netlist()] {
            for model in all_models() {
                let faults = model.fault_list(&netlist, true);
                let campaign = coverage(&netlist, &faults, &config);
                let dictionary = dictionary(&netlist, &faults, &config);
                let first: Vec<Option<usize>> =
                    dictionary.entries.iter().map(|e| e.first_detect).collect();
                assert_eq!(
                    first,
                    campaign.detection_pattern,
                    "{} on {}",
                    model.name(),
                    netlist.name()
                );
                assert_eq!(dictionary.patterns_applied, 256);
                assert_eq!(dictionary.detected_count(), campaign.detected_faults);
            }
        }
    }

    #[test]
    fn signatures_separate_most_detected_faults() {
        let netlist = pst_netlist();
        let faults = StuckAt.fault_list(&netlist, true);
        let config = CampaignConfig {
            max_patterns: 512,
            ..Default::default()
        };
        let dictionary = dictionary(&netlist, &faults, &config);
        // Detected faults should overwhelmingly produce non-reference
        // signatures; the aliasing probability of the compactor is 2^-bits.
        let detected = dictionary.detected_count();
        assert!(detected > 0);
        assert!(
            dictionary.aliased_count() * 4 <= detected,
            "{} of {} detected faults aliased",
            dictionary.aliased_count(),
            detected
        );
        // Undetected faults compact to exactly the reference signature (the
        // responses never differed), and are not counted as aliased.
        for entry in &dictionary.entries {
            if entry.first_detect.is_none() {
                assert_eq!(entry.signature, dictionary.reference_signature);
                assert_eq!(entry.segments, dictionary.reference_segments);
                assert!(!dictionary.aliased(entry));
            }
        }
        // Candidate lookup finds at least the reference group.
        let candidates = dictionary.candidates(dictionary.reference_signature);
        assert!(candidates.len() >= dictionary.entries.len() - detected);
    }

    #[test]
    fn candidates_index_matches_a_linear_scan() {
        let netlist = pst_netlist();
        let faults = StuckAt.fault_list(&netlist, true);
        let dictionary = dictionary(
            &netlist,
            &faults,
            &CampaignConfig {
                max_patterns: 256,
                ..Default::default()
            },
        );
        let mut signatures: Vec<u64> = dictionary.entries.iter().map(|e| e.signature).collect();
        signatures.push(0xDEAD_BEEF); // a signature no fault produces
        signatures.dedup();
        for signature in signatures {
            let scanned: Vec<&DictionaryEntry> = dictionary
                .entries
                .iter()
                .filter(|e| e.signature == signature)
                .collect();
            let indexed = dictionary.candidates(signature);
            assert_eq!(scanned.len(), indexed.len(), "signature {signature:x}");
            for (s, i) in scanned.iter().zip(&indexed) {
                assert!(std::ptr::eq(*s, *i), "order differs for {signature:x}");
            }
        }
    }

    #[test]
    fn checkpoint_count_scales_with_the_segment_schedule() {
        // Small campaigns keep the classic three checkpoints (bit-for-bit
        // the pre-adaptive dictionaries)...
        assert_eq!(checkpoint_count(0), DICTIONARY_SEGMENTS);
        assert_eq!(checkpoint_count(48), DICTIONARY_SEGMENTS);
        assert_eq!(checkpoint_count(512), DICTIONARY_SEGMENTS);
        assert_eq!(segment_checkpoints(512), vec![128, 256, 384]);
        assert_eq!(checkpoint_count(960), DICTIONARY_SEGMENTS);
        // ...and longer campaigns scale with the segment schedule.
        assert_eq!(checkpoint_count(961), 4);
        assert_eq!(checkpoint_count(2048), 5);
        assert_eq!(checkpoint_count(4096), 6);
        let checkpoints = segment_checkpoints(2048);
        assert_eq!(checkpoints.len(), 5);
        assert!(checkpoints.windows(2).all(|w| w[0] < w[1]));
        assert!(*checkpoints.last().unwrap() < 2048);

        // A scaled-checkpoint dictionary is engine-invariant, and a
        // campaign truncated at any checkpoint reproduces the recorded
        // intermediate signature — the same invariant the fixed-3 design
        // had, now at the adaptive positions.
        let netlist = pst_netlist();
        let faults: Vec<Injection> = StuckAt
            .fault_list(&netlist, true)
            .into_iter()
            .step_by(4)
            .collect();
        let base = CampaignConfig {
            max_patterns: 1024,
            ..Default::default()
        };
        let packed = dictionary(
            &netlist,
            &faults,
            &CampaignConfig {
                engine: SimEngine::Packed,
                ..base.clone()
            },
        );
        assert_eq!(packed.segment_checkpoints.len(), 4);
        assert_eq!(packed.segment_checkpoints, vec![205, 410, 615, 820]);
        let differential = dictionary(
            &netlist,
            &faults,
            &CampaignConfig {
                engine: SimEngine::Differential,
                ..base.clone()
            },
        );
        assert_eq!(packed, differential);
        for (k, &checkpoint) in packed.segment_checkpoints.iter().enumerate() {
            let truncated = dictionary(
                &netlist,
                &faults,
                &CampaignConfig {
                    max_patterns: checkpoint,
                    ..base.clone()
                },
            );
            assert_eq!(
                truncated.reference_signature, packed.reference_segments[k],
                "reference at checkpoint {checkpoint}"
            );
            for (t, f) in truncated.entries.iter().zip(&packed.entries) {
                assert_eq!(
                    t.signature, f.segments[k],
                    "{} at checkpoint {checkpoint}",
                    f.fault
                );
            }
        }
    }

    #[test]
    fn segment_signatures_checkpoint_the_final_signature() {
        // A campaign truncated at a checkpoint must reproduce exactly the
        // segment signature the full campaign recorded there.
        let netlist = pst_netlist();
        let faults = StuckAt.fault_list(&netlist, true);
        let full_config = CampaignConfig {
            max_patterns: 512,
            ..Default::default()
        };
        let full = dictionary(&netlist, &faults, &full_config);
        assert_eq!(full.segment_checkpoints, [128, 256, 384]);
        for (k, &checkpoint) in full.segment_checkpoints.iter().enumerate() {
            let truncated = dictionary(
                &netlist,
                &faults,
                &CampaignConfig {
                    max_patterns: checkpoint,
                    ..Default::default()
                },
            );
            assert_eq!(
                truncated.reference_signature, full.reference_segments[k],
                "reference at checkpoint {checkpoint}"
            );
            for (t, f) in truncated.entries.iter().zip(&full.entries) {
                assert_eq!(
                    t.signature, f.segments[k],
                    "{} at checkpoint {checkpoint}",
                    f.fault
                );
            }
        }
    }

    #[test]
    fn packed_signatures_match_the_scalar_misr() {
        // The bit-plane recurrence must equal stfsm-lfsr's Misr stepping on
        // the fault-free machine's observation stream.
        let netlist = dff_netlist();
        let config = CampaignConfig {
            max_patterns: 64,
            ..Default::default()
        };
        let faults = StuckAt.fault_list(&netlist, true);
        let dictionary = dictionary(&netlist, &faults, &config);
        let w = dictionary.signature_bits;
        let misr = Misr::new(primitive_polynomial(w).unwrap()).unwrap();

        // Re-simulate the fault-free machine through the scalar engine.
        let mut stimulus = generate_stimulus(&netlist, &config);
        stimulus.ensure(stimulus.cycles);
        let mut sim = crate::sim::Simulator::new(&netlist);
        sim.set_state(&stimulus.st(0)[..netlist.flip_flops().len()]);
        let mut state = Gf2Vec::zero(w).unwrap();
        for cycle in 0..stimulus.cycles {
            sim.set_state(&stimulus.st(cycle)[..netlist.flip_flops().len()]);
            sim.evaluate(stimulus.pi(cycle));
            let obs = sim.observations();
            let mut input = Gf2Vec::zero(w).unwrap();
            for (bit, &v) in obs.iter().enumerate() {
                if v {
                    let i = bit % w;
                    input.set_bit(i, input.bit(i) ^ true);
                }
            }
            state = misr.step(&state, &input).unwrap();
            sim.clock();
        }
        assert_eq!(state.value(), dictionary.reference_signature);
    }

    /// The differential block engine must produce dictionaries identical
    /// to the classic packed pass — entries, signatures, segments and
    /// reference — for every fault model and both stimulation styles.
    #[test]
    fn differential_dictionary_matches_packed() {
        let packed_config = CampaignConfig {
            max_patterns: 256,
            ..Default::default()
        };
        let differential_config = CampaignConfig {
            max_patterns: 256,
            engine: SimEngine::Differential,
            ..Default::default()
        };
        for netlist in [pst_netlist(), dff_netlist()] {
            for model in all_models() {
                let faults = model.fault_list(&netlist, true);
                let packed = dictionary(&netlist, &faults, &packed_config);
                let differential = dictionary(&netlist, &faults, &differential_config);
                assert_eq!(
                    packed,
                    differential,
                    "{} on {}",
                    model.name(),
                    netlist.name()
                );
            }
            // The empty-fault-list reference contract holds on both paths.
            let packed = dictionary(&netlist, &[], &packed_config);
            let differential = dictionary(&netlist, &[], &differential_config);
            assert_eq!(packed, differential);
        }
    }

    /// The differential dictionary pass with its blocks sharded over
    /// workers (one shared good trace) must be bit-for-bit identical to the
    /// single-worker pass for any worker count, on a fault universe
    /// spanning several blocks.
    #[test]
    fn threaded_dictionary_is_worker_count_invariant() {
        let netlist = pst_netlist();
        let faults: Vec<Injection> = all_models()
            .iter()
            .flat_map(|m| m.fault_list(&netlist, false))
            .collect();
        assert!(faults.len() > BLOCK_FAULT_LANES, "need several blocks");
        let base = CampaignConfig {
            max_patterns: 128,
            engine: SimEngine::Differential,
            ..Default::default()
        };
        let single = dictionary(&netlist, &faults, &base);
        for threads in [2usize, 3, 64] {
            let sharded = dictionary(
                &netlist,
                &faults,
                &CampaignConfig {
                    threads,
                    ..base.clone()
                },
            );
            assert_eq!(single, sharded, "{threads} workers");
        }
    }

    #[test]
    fn degenerate_dictionaries_are_total() {
        let netlist = dff_netlist();
        let faults = StuckAt.fault_list(&netlist, true);
        // An empty fault list still reports the true fault-free signature.
        let empty = dictionary(&netlist, &[], &CampaignConfig::default());
        let full = dictionary(&netlist, &faults, &CampaignConfig::default());
        assert!(empty.entries.is_empty());
        assert_eq!(empty.reference_signature, full.reference_signature);
        assert_eq!(empty.reference_segments, full.reference_segments);
        assert_ne!(empty.reference_signature, 0);
        let no_patterns = dictionary(
            &netlist,
            &faults,
            &CampaignConfig {
                max_patterns: 0,
                ..Default::default()
            },
        );
        assert_eq!(no_patterns.entries.len(), faults.len());
        assert_eq!(no_patterns.detected_count(), 0);
        assert_eq!(no_patterns.aliased_count(), 0);
    }
}
