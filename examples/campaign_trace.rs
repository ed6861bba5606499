//! Campaign telemetry end to end: run one instrumented dictionary
//! campaign, stream its per-segment telemetry as JSONL through a
//! `TraceObserver`, and export the completed run's timeline in Chrome
//! Trace Event Format.
//!
//! Writes two files to the working directory:
//!
//! * `campaign_trace.jsonl` — one record per line: a `plan` record before
//!   the first pattern, a `segment` record per compaction segment (engine
//!   counters, phase spans, worker spans, running coverage) and a
//!   `summary` record with the folded totals;
//! * `campaign_trace.chrome.json` — the segment/phase/worker timeline;
//!   load it in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example campaign_trace [--patterns N] [--threads N] [benchmark]
//! ```
//!
//! Defaults to the largest suite machine (`scf`) on the event-driven
//! differential engine with two workers (`--threads` picks another
//! count), where the trace shows all the engine counters live: worklist
//! drains, full-sweep fallbacks, per-word widenings and good-trace cache
//! hits (the dictionary pass re-reads each segment's recording, so the
//! cache shows traffic on both sides), plus one lane per worker.

use std::io::BufWriter;
use stfsm::testsim::campaign::{Campaign, DictionaryObserver};
use stfsm::testsim::coverage::{CampaignConfig, SimEngine};
use stfsm::{BistStructure, SynthesisFlow};
use stfsm_trace::{write_chrome_trace, TraceObserver};

const JSONL_PATH: &str = "campaign_trace.jsonl";
const CHROME_PATH: &str = "campaign_trace.chrome.json";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let patterns: usize = flag("--patterns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let threads: usize = flag("--threads").and_then(|v| v.parse().ok()).unwrap_or(2);
    let value_positions: Vec<usize> = ["--patterns", "--threads"]
        .iter()
        .filter_map(|name| args.iter().position(|a| a == name).map(|i| i + 1))
        .collect();
    let named: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
        .map(|(_, a)| a.as_str())
        .collect();
    let name = match named.as_slice() {
        [] => "scf",
        [one] => one,
        more => return Err(format!("expected at most one benchmark, got {more:?}").into()),
    };
    let Some(info) = stfsm::fsm::suite::benchmark(name) else {
        return Err(format!("unknown benchmark `{name}`").into());
    };

    let fsm = info.fsm()?;
    let netlist = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)?
        .netlist;
    let config = CampaignConfig {
        max_patterns: patterns,
        engine: SimEngine::Differential,
        threads,
        ..CampaignConfig::default()
    };

    // The trace observer is passive — attaching it changes no result bit —
    // and it streams each record as the segment completes, so the JSONL
    // file is live progress, not a post-hoc report.
    let jsonl = std::fs::File::create(JSONL_PATH)?;
    let mut trace = TraceObserver::new(BufWriter::new(jsonl));
    let mut dictionary = DictionaryObserver::new();
    let outcome = Campaign::new(&netlist)
        .config(config)
        .model(&stfsm::faults::StuckAt)
        .observe(&mut dictionary)
        .observe(&mut trace)
        .run();
    if let Some(error) = trace.error() {
        return Err(format!("writing {JSONL_PATH}: {error}").into());
    }
    drop(trace);

    write_chrome_trace(&outcome.telemetry, std::fs::File::create(CHROME_PATH)?)?;

    let totals = &outcome.telemetry.totals;
    println!(
        "{name}: {} faults x {} patterns on {:?} ({} worker threads)",
        outcome.total_faults(),
        outcome.patterns_applied,
        outcome.engine,
        outcome.telemetry.segments.first().map_or(1, |s| {
            s.workers.iter().map(|w| w.worker + 1).max().unwrap_or(1)
        })
    );
    println!(
        "  {} segments, {} cycles simulated, coverage {:.1} %",
        outcome.telemetry.segments.len(),
        totals.cycles_simulated,
        outcome.coverage(0).fault_coverage() * 100.0
    );
    println!(
        "  worklist: {} events drained, {} steps skipped, {} full sweeps",
        totals.events_drained, totals.steps_skipped, totals.full_sweeps
    );
    println!(
        "  lanes: {} widenings, {} narrowings, {} retirements, {} compactions",
        totals.widenings, totals.narrowings, totals.lane_retirements, totals.compaction_rebuilds
    );
    println!(
        "  good-trace cache: {} hits / {} lookups",
        totals.cache_hits, totals.cache_lookups
    );
    println!("wrote {JSONL_PATH}");
    println!("wrote {CHROME_PATH} (load in chrome://tracing or ui.perfetto.dev)");
    Ok(())
}
