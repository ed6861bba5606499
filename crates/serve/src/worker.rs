//! The campaign-worker process body (`examples/campaign_worker.rs` is the
//! thin binary around [`run`]).
//!
//! A worker owns one contiguous shard of the fault universe.  It
//! synthesizes the machine itself (cross-process synthesis is
//! deterministic), enumerates the *full* collapsed universe in model
//! order — so every worker agrees on the global fault numbering — takes
//! its `[lo, hi)` slice, and runs one campaign over it with a single
//! combined pipe observer:
//!
//! * stdout: the standard `stfsm-trace` JSONL stream (plan, one segment
//!   record per boundary, summary), then one final `{"type":"result"}`
//!   record with the shard's detection arrays;
//! * stdin: one verdict line (`continue` / `stop`) from the coordinator
//!   after *every* segment record.  The observer turns `stop` into its
//!   [`ObserverControl::Stop`] vote — and since it is the campaign's
//!   *only* observer (the campaign's early-stop vote must be unanimous,
//!   so composing a passive trace observer with a separate control
//!   observer would block stopping forever), the campaign ends at exactly
//!   the boundary the coordinator chose.  EOF on stdin means "no
//!   coordinator" and the worker runs its full budget standalone.
//!
//! Rust's stdout is line-buffered even when piped, so each record reaches
//! the coordinator as soon as its line is written — the lockstep protocol
//! needs no explicit flushes.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use stfsm::faults::{all_models, Injection};
use stfsm::json::{JsonObject, RawJson};
use stfsm::testsim::artifact::DictionaryArtifact;
use stfsm::testsim::campaign::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignPlan, ObserverControl, SegmentSnapshot,
};
use stfsm::{BistStructure, CampaignConfig, SimEngine, SynthesisFlow};
use stfsm_trace::TraceObserver;

/// The contiguous fault range `[lo, hi)` of shard `shard` out of
/// `shards`, over a universe of `total` faults.  Ranges tile the universe
/// exactly and differ in size by at most one.
pub fn shard_bounds(total: usize, shards: usize, shard: usize) -> (usize, usize) {
    let shards = shards.max(1);
    let shard = shard.min(shards - 1);
    (total * shard / shards, total * (shard + 1) / shards)
}

/// The worker's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Suite machine name (`stfsm::fsm::suite`).
    pub machine: String,
    /// BIST structure to synthesize.
    pub structure: BistStructure,
    /// Simulation engine.
    pub engine: SimEngine,
    /// Fault-model names, in section order.
    pub models: Vec<String>,
    /// Pattern budget.
    pub patterns: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// This worker's shard id.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// Whether to run the dictionary pass (signatures).
    pub dictionary: bool,
    /// Where to write the shard's dictionary artifact, if anywhere.
    pub artifact: Option<PathBuf>,
}

impl WorkerArgs {
    /// Parses `--flag value` style arguments.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut machine = None;
        let mut structure = BistStructure::Pst;
        let mut engine = SimEngine::Auto;
        let mut models = vec!["stuck_at".to_string()];
        let mut patterns = 2048usize;
        let mut seed = 0xBEEF_1991u64;
        let mut shard = 0usize;
        let mut shards = 1usize;
        let mut dictionary = false;
        let mut artifact = None;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match flag.as_str() {
                "--machine" => machine = Some(value("--machine")?),
                "--structure" => structure = parse_structure(&value("--structure")?)?,
                "--engine" => engine = parse_engine(&value("--engine")?)?,
                "--models" => {
                    models = value("--models")?
                        .split(',')
                        .map(|m| m.trim().to_string())
                        .filter(|m| !m.is_empty())
                        .collect();
                }
                "--patterns" => {
                    patterns = value("--patterns")?
                        .parse()
                        .map_err(|e| format!("bad --patterns: {e}"))?;
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--shard" => {
                    shard = value("--shard")?
                        .parse()
                        .map_err(|e| format!("bad --shard: {e}"))?;
                }
                "--shards" => {
                    shards = value("--shards")?
                        .parse()
                        .map_err(|e| format!("bad --shards: {e}"))?;
                }
                "--dictionary" => dictionary = true,
                "--artifact" => artifact = Some(PathBuf::from(value("--artifact")?)),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let machine = machine.ok_or_else(|| "--machine is required".to_string())?;
        if shards == 0 || shard >= shards {
            return Err(format!("shard {shard} out of range for {shards} shards"));
        }
        Ok(Self {
            machine,
            structure,
            engine,
            models,
            patterns,
            seed,
            shard,
            shards,
            dictionary,
            artifact,
        })
    }
}

fn parse_structure(name: &str) -> Result<BistStructure, String> {
    match name.to_ascii_lowercase().as_str() {
        "dff" => Ok(BistStructure::Dff),
        "pat" => Ok(BistStructure::Pat),
        "sig" => Ok(BistStructure::Sig),
        "pst" => Ok(BistStructure::Pst),
        other => Err(format!("unknown structure '{other}'")),
    }
}

fn parse_engine(name: &str) -> Result<SimEngine, String> {
    match name.to_ascii_lowercase().as_str() {
        "scalar" => Ok(SimEngine::Scalar),
        "packed" => Ok(SimEngine::Packed),
        "differential" => Ok(SimEngine::Differential),
        "auto" => Ok(SimEngine::Auto),
        other => Err(format!("unknown engine '{other}'")),
    }
}

/// The worker's single campaign observer: a [`TraceObserver`] on stdout
/// for progress, a verdict read from stdin per segment for control, and a
/// signature request when the shard builds dictionaries.
struct PipeObserver {
    trace: TraceObserver<std::io::Stdout>,
    verdicts: std::io::Lines<std::io::StdinLock<'static>>,
    dictionary: bool,
}

impl CampaignObserver for PipeObserver {
    fn needs_signatures(&self) -> bool {
        self.dictionary
    }

    fn on_begin(&mut self, plan: &CampaignPlan) {
        self.trace.on_begin(plan);
    }

    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        // Emit first (stdout line-buffers, so the record is flushed), then
        // block on the coordinator's verdict for this boundary.
        self.trace.on_segment(snapshot);
        match self.verdicts.next() {
            Some(Ok(line)) if line.trim() == "stop" => ObserverControl::Stop,
            // "continue", unknown verdicts, read errors and EOF (standalone
            // mode) all keep going — a worker must never stop on its own.
            _ => ObserverControl::Continue,
        }
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.trace.on_finish(outcome);
    }

    fn failure(&self) -> Option<String> {
        self.trace.failure()
    }
}

/// Runs the worker to completion.  Returns a process exit code: `0` on
/// success, `2` on bad arguments, `1` on any runtime failure.
pub fn run(args: &[String]) -> i32 {
    let args = match WorkerArgs::parse(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("campaign_worker: {message}");
            return 2;
        }
    };
    match run_parsed(&args) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("campaign_worker: {message}");
            1
        }
    }
}

fn run_parsed(args: &WorkerArgs) -> Result<(), String> {
    let info = stfsm::fsm::suite::benchmark(&args.machine)
        .ok_or_else(|| format!("unknown suite machine '{}'", args.machine))?;
    let fsm = info.fsm().map_err(|e| format!("suite fsm: {e}"))?;
    let netlist = SynthesisFlow::new(args.structure)
        .synthesize(&fsm)
        .map_err(|e| format!("synthesis: {e}"))?
        .netlist;

    // Full universe in model order, so all workers agree on the global
    // fault numbering; then this worker's contiguous slice, kept as
    // per-section overlaps so a shard crossing a section boundary still
    // reports per-model results.
    let models = all_models();
    let mut universe: Vec<(String, Vec<Injection>)> = Vec::new();
    for name in &args.models {
        let model = models
            .iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown fault model '{name}'"))?;
        universe.push((name.clone(), model.fault_list(&netlist, true)));
    }
    let total: usize = universe.iter().map(|(_, faults)| faults.len()).sum();
    let (lo, hi) = shard_bounds(total, args.shards, args.shard);

    let mut shard_sections: Vec<(String, Vec<Injection>)> = Vec::new();
    let mut offset = 0usize;
    for (label, faults) in &universe {
        let begin = lo.clamp(offset, offset + faults.len());
        let end = hi.clamp(offset, offset + faults.len());
        if end > begin {
            shard_sections.push((label.clone(), faults[begin - offset..end - offset].to_vec()));
        }
        offset += faults.len();
    }

    let mut observer = PipeObserver {
        trace: TraceObserver::new(std::io::stdout()),
        verdicts: std::io::stdin().lock().lines(),
        dictionary: args.dictionary,
    };
    let mut campaign = Campaign::new(&netlist)
        .engine(args.engine)
        .patterns(args.patterns)
        .seed(args.seed);
    for (label, faults) in &shard_sections {
        campaign = campaign.faults(label.clone(), faults.clone());
    }
    let outcome = campaign
        .observe(&mut observer)
        .try_run()
        .map_err(|e| format!("campaign: {e}"))?;

    let artifact_path = match (&args.artifact, args.dictionary) {
        (Some(path), true) => {
            let config = CampaignConfig {
                max_patterns: args.patterns,
                seed: args.seed,
                engine: args.engine,
                ..CampaignConfig::default()
            };
            let artifact = DictionaryArtifact::from_outcome(&netlist, &config, &outcome)
                .map_err(|e| format!("artifact: {e}"))?;
            artifact
                .write_to(path)
                .map_err(|e| format!("artifact: {e}"))?;
            Some(path.display().to_string())
        }
        _ => None,
    };

    emit_result(args, &outcome, &universe, (lo, hi), artifact_path)
}

/// The worker's final stdout record: everything the coordinator needs to
/// merge this shard, one `{"type":"result"}` JSONL line.
fn emit_result(
    args: &WorkerArgs,
    outcome: &CampaignOutcome,
    universe: &[(String, Vec<Injection>)],
    range: (usize, usize),
    artifact: Option<String>,
) -> Result<(), String> {
    let universe_json: Vec<RawJson> = universe
        .iter()
        .map(|(label, faults)| {
            let mut obj = JsonObject::new();
            obj.field("label", label).field("faults", faults.len());
            RawJson(obj.finish())
        })
        .collect();
    let sections_json: Vec<RawJson> = outcome
        .sections
        .iter()
        .map(|section| {
            let mut obj = JsonObject::new();
            obj.field("label", &section.label)
                .field("detection", &section.detection_pattern);
            RawJson(obj.finish())
        })
        .collect();
    let reference_signature = outcome
        .sections
        .iter()
        .find_map(|s| s.dictionary.as_ref())
        .map(|d| d.reference_signature);
    let mut obj = JsonObject::new();
    obj.field("type", "result")
        .field("shard", args.shard)
        .field("shards", args.shards)
        .field("patterns_applied", outcome.patterns_applied)
        .field("stimulus_generated", outcome.stimulus_generated)
        .field("range", vec![range.0, range.1])
        .field("universe", universe_json)
        .field("sections", sections_json)
        .field("reference_signature", reference_signature)
        .field("artifact", artifact);
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", obj.finish()).map_err(|e| format!("stdout: {e}"))?;
    stdout.flush().map_err(|e| format!("stdout: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_tile_the_universe() {
        for total in [0usize, 1, 7, 100, 101, 1023] {
            for shards in [1usize, 2, 3, 4, 7] {
                let mut covered = 0;
                for shard in 0..shards {
                    let (lo, hi) = shard_bounds(total, shards, shard);
                    assert_eq!(lo, covered, "gap at shard {shard}");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, total, "{total} faults over {shards} shards");
            }
        }
    }

    #[test]
    fn args_parse_round_trip() {
        let args: Vec<String> = [
            "--machine",
            "dk16",
            "--structure",
            "pst",
            "--engine",
            "packed",
            "--models",
            "stuck_at,transition",
            "--patterns",
            "512",
            "--seed",
            "7",
            "--shard",
            "1",
            "--shards",
            "3",
            "--dictionary",
            "--artifact",
            "/tmp/shard1.dict",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = WorkerArgs::parse(&args).expect("parse");
        assert_eq!(parsed.machine, "dk16");
        assert_eq!(parsed.structure, BistStructure::Pst);
        assert_eq!(parsed.engine, SimEngine::Packed);
        assert_eq!(parsed.models, vec!["stuck_at", "transition"]);
        assert_eq!(parsed.patterns, 512);
        assert_eq!(parsed.seed, 7);
        assert_eq!((parsed.shard, parsed.shards), (1, 3));
        assert!(parsed.dictionary);
        assert_eq!(parsed.artifact, Some(PathBuf::from("/tmp/shard1.dict")));

        assert!(WorkerArgs::parse(&["--machine".to_string()]).is_err());
        assert!(WorkerArgs::parse(&[]).is_err());
        assert!(WorkerArgs::parse(&[
            "--machine".to_string(),
            "dk16".to_string(),
            "--shard".to_string(),
            "3".to_string(),
            "--shards".to_string(),
            "3".to_string(),
        ])
        .is_err());
    }
}
