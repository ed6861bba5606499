//! `perfbench`: the end-to-end and per-layer benchmark of the stfsm
//! workspace.  `README.md` next to this package describes the workloads,
//! the metrics and what each layer should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth|grade_small|grade_large|diagnose|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
//! the end-to-end metrics untraced (`--trace 0`) and the per-layer
//! metrics traced (`--trace 1`).

mod clock;
mod diagnose;
mod flow;
mod grade;
mod report;
mod sim;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use stfsm::json::JsonValue;

use crate::clock::Clock;
use crate::report::{median, Ledger, Metrics};
use crate::trace::{Breakdown, Tracer};

/// Metric values by name; the catalogs below fix which are reported, so
/// a workload may insert more than a run prints.
pub type Values = BTreeMap<&'static str, f64>;

/// The end-to-end metrics every workload reports (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stage_a_s", "s"),
    ("stage_b_s", "s"),
    ("rate_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("product_terms", "count"),
    ("literals", "count"),
];

/// The per-layer metrics every traced run reports; a layer a workload
/// does not load reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fsm.generate_ms", "ms"),
    ("encode.misr_assign_ms", "ms"),
    ("encode.pat_assign_ms", "ms"),
    ("encode.dff_assign_ms", "ms"),
    ("logic.minimize_ms", "ms"),
    ("logic.initial_cubes", "count"),
    ("logic.final_cubes", "count"),
    ("bist.excitation_ms", "ms"),
    ("bist.netlist_ms", "ms"),
    ("bist.metrics_ms", "ms"),
    ("bist.gates", "count"),
    ("faults.enumerate_ms", "ms"),
    ("faults.count", "count"),
    ("testsim.campaign_ms", "ms"),
    ("testsim.stimulus_ms", "ms"),
    ("testsim.good_trace_ms", "ms"),
    ("testsim.fault_eval_ms", "ms"),
    ("testsim.observer_ms", "ms"),
    ("testsim.unattributed_ms", "ms"),
    ("testsim.fault_cycles", "count"),
    ("testsim.cycles_simulated", "count"),
    ("testsim.lane_retirements", "count"),
    ("testsim.events_drained", "count"),
    ("testsim.steps_skipped", "count"),
    ("testsim.full_sweeps", "count"),
    ("testsim.event_cycles", "count"),
    ("testsim.widenings", "count"),
    ("testsim.compaction_rebuilds", "count"),
    ("testsim.path_activations", "count"),
    ("testsim.checkpoints_written", "count"),
    ("testsim.checkpoint_bytes", "bytes"),
    ("testsim.incidents", "count"),
    ("testsim.ns_per_fault_cycle", "ns"),
    ("testsim.event_skip_ratio", "ratio"),
    ("testsim.full_sweep_ratio", "ratio"),
    ("testsim.detect_ratio", "ratio"),
    ("testsim.dictionary_ms", "ms"),
    ("testsim.dictionary_span_ms", "ms"),
    ("testsim.artifact_build_ms", "ms"),
    ("testsim.artifact_encode_ms", "ms"),
    ("testsim.artifact_write_ms", "ms"),
    ("testsim.artifact_load_ms", "ms"),
    ("testsim.artifact_bytes", "bytes"),
    ("serve.coordinator_ms", "ms"),
    ("serve.worker_synth_ms", "ms"),
    ("serve.shard_campaign_ms", "ms"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.coordinator_overhead_ms", "ms"),
    ("serve.coordinator_speedup", "ratio"),
    ("serve.catalog_insert_ms", "ms"),
    ("serve.lookup_us", "us"),
    ("serve.request_codec_us", "us"),
    ("serve.response_codec_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.candidates_per_query", "count"),
    ("serve.errors", "count"),
    ("serve.requests", "count"),
    ("fsm.self_ms", "ms"),
    ("encode.self_ms", "ms"),
    ("logic.self_ms", "ms"),
    ("bist.self_ms", "ms"),
    ("faults.self_ms", "ms"),
    ("testsim.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.check_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.breakdown_pct", "%"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.untraced_wall_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.samples", "count"),
];

/// The layers, by span-name prefix.
const LAYERS: &[&str] = &[
    "fsm", "encode", "logic", "bist", "faults", "testsim", "serve", "bench",
];

/// Per-layer metrics that are the self time of one span name.
const SELF_SPANS: &[(&str, &str)] = &[
    ("fsm.generate_ms", "fsm.generate"),
    ("encode.misr_assign_ms", "encode.misr_assign"),
    ("encode.pat_assign_ms", "encode.pat_assign"),
    ("encode.dff_assign_ms", "encode.dff_assign"),
    ("logic.minimize_ms", "logic.minimize"),
    ("bist.excitation_ms", "bist.excitation"),
    ("bist.netlist_ms", "bist.netlist"),
    ("bist.metrics_ms", "bist.metrics"),
    ("faults.enumerate_ms", "faults.enumerate"),
    ("testsim.stimulus_ms", "testsim.stimulus"),
    ("testsim.good_trace_ms", "testsim.good_trace"),
    ("testsim.fault_eval_ms", "testsim.fault_eval"),
    ("testsim.observer_ms", "testsim.observer"),
    ("testsim.unattributed_ms", "testsim.campaign"),
    ("testsim.dictionary_span_ms", "testsim.dictionary_span"),
    ("testsim.artifact_build_ms", "testsim.artifact_build"),
    ("testsim.artifact_encode_ms", "testsim.artifact_encode"),
    ("testsim.artifact_write_ms", "testsim.artifact_write"),
    ("testsim.artifact_load_ms", "testsim.artifact_load"),
    ("serve.catalog_insert_ms", "serve.catalog_insert"),
    ("bench.check_ms", "bench.check"),
    ("bench.unattributed_ms", "bench.unattributed"),
];

/// Per-layer metrics that are the full duration of one span name.
const INCLUSIVE_SPANS: &[(&str, &str)] = &[
    ("testsim.campaign_ms", "testsim.campaign"),
    ("testsim.dictionary_ms", "testsim.dictionary"),
    ("serve.coordinator_ms", "serve.coordinator"),
    ("serve.worker_synth_ms", "serve.worker_synth"),
    ("serve.shard_campaign_ms", "serve.shard_campaign"),
];

/// The workload names, in `all` order.
const WORKLOADS: &[&str] = &["synth", "grade_small", "grade_large", "diagnose"];

/// Minimum set-ups per untraced run (`setup_s` is their median).
const MIN_SETUPS: usize = 2;
/// Cheap set-ups repeat until this much time has passed, so that their
/// median spans more than a brief slowdown of the host…
const SETUP_SECONDS: f64 = 2.0;
/// …or this many set-ups ran.
const MAX_SETUPS: usize = 2000;

/// Run-wide settings every workload reads.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// How long the timed phase runs (at least one pass always runs).
    pub seconds: f64,
    /// Stimulus seed of every campaign.
    pub campaign_seed: u64,
    /// Seed of the diagnosis request mix.
    pub query_seed: u64,
    /// Work directory for checkpoints and artifacts (inside the
    /// build directory, removed at exit).
    pub work_dir: PathBuf,
}

/// One workload: a set-up, a timed pass, and what both report.
pub trait Workload {
    type Inputs;
    type Pass;

    /// Passes an untraced run makes even when `--seconds` have passed.
    const MIN_PASSES: usize = 1;

    /// Everything before the timed phase.
    fn setup(&self, ctx: &Ctx, tr: &mut Tracer, ledger: &mut Ledger) -> Self::Inputs;

    /// One pass of the timed phase; output checks run on pass 0.  Its
    /// CPU-bound times are taken with `clock`.
    fn pass(
        &self,
        ctx: &Ctx,
        inputs: &Self::Inputs,
        index: usize,
        clock: &mut Clock,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Self::Pass;

    /// The counters that must repeat exactly for the same seed.
    fn exact_counters(&self, inputs: &Self::Inputs, pass: &Self::Pass) -> Vec<(&'static str, u64)>;

    /// Checks that the traced run produced the untraced run's outputs.
    fn same_outputs(
        &self,
        untraced: (&Self::Inputs, &Self::Pass),
        traced: (&Self::Inputs, &Self::Pass),
        ledger: &mut Ledger,
    );

    /// End-to-end values (everything but `setup_s` and `peak_rss_mb`)
    /// from the untraced passes.
    fn end_to_end(&self, inputs: &Self::Inputs, passes: &[Self::Pass], values: &mut Values);

    /// Workload-specific per-layer values of the traced pass.
    fn per_layer(
        &self,
        inputs: &Self::Inputs,
        pass: &Self::Pass,
        breakdown: &Breakdown,
        values: &mut Values,
    );
}

/// The untraced run: set-ups, then passes for `ctx.seconds`.
fn measure<W: Workload>(workload: &W, ctx: &Ctx, ledger: &mut Ledger) -> Values {
    let mut clock = Clock::new(true);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (started.elapsed().as_secs_f64() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        let mark = clock.start();
        let fresh = workload.setup(ctx, &mut Tracer::new(false), ledger);
        setup_s.push(clock.stop(mark));
        inputs.get_or_insert(fresh);
    }
    let inputs = inputs.expect("at least one set-up ran");

    let started = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss = None;
    while passes.len() < W::MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let pass = workload.pass(
            ctx,
            &inputs,
            passes.len(),
            &mut clock,
            &mut Tracer::new(false),
            ledger,
        );
        eprintln!(
            "perfbench: pass {} took {:.3} s",
            passes.len(),
            t.elapsed().as_secs_f64()
        );
        passes.push(pass);
        // The peak after the first pass: later passes repeat its work, and
        // how many of them fit in a run must not move the figure.
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let probes = clock.probes();
    eprintln!(
        "perfbench: {} probes, {:.3} / {:.3} / {:.3} ms (fastest / median / slowest; reference {:.3} ms)",
        probes.len(),
        report::quantile(probes, 0.0) * 1e3,
        median(probes) * 1e3,
        report::quantile(probes, 1.0) * 1e3,
        clock::PROBE_REFERENCE_S * 1e3
    );
    let first = workload.exact_counters(&inputs, &passes[0]);
    for pass in &passes[1..] {
        ledger.same_counters(&first, &workload.exact_counters(&inputs, pass));
    }

    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s));
    workload.end_to_end(&inputs, &passes, &mut values);
    values.insert("peak_rss_mb", peak_rss.expect("at least one pass ran"));
    values
}

/// The traced run: one untraced set-up and pass for the overhead
/// baseline, then the same traced, with the per-layer breakdown.
fn trace<W: Workload>(workload: &W, ctx: &Ctx, ledger: &mut Ledger, spans: &Path) -> Values {
    // Wall time throughout: the probe would show up in the breakdown.
    let mut clock = Clock::new(false);
    let t = Instant::now();
    let inputs_u = workload.setup(ctx, &mut Tracer::new(false), ledger);
    let pass_u = workload.pass(
        ctx,
        &inputs_u,
        0,
        &mut clock,
        &mut Tracer::new(false),
        ledger,
    );
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut tr = Tracer::new(true);
    let (inputs, pass) = tr.span("bench.run", |tr| {
        let inputs = workload.setup(ctx, tr, ledger);
        let pass = workload.pass(ctx, &inputs, 0, &mut clock, tr, ledger);
        (inputs, pass)
    });
    ledger.same_counters(
        &workload.exact_counters(&inputs_u, &pass_u),
        &workload.exact_counters(&inputs, &pass),
    );
    workload.same_outputs((&inputs_u, &pass_u), (&inputs, &pass), ledger);

    let breakdown = tr.breakdown();
    let mut values = Values::new();
    for &(metric, span) in SELF_SPANS {
        values.insert(metric, breakdown.self_ms(span));
    }
    for &(metric, span) in INCLUSIVE_SPANS {
        values.insert(metric, breakdown.inclusive_ms(span));
    }
    workload.per_layer(&inputs, &pass, &breakdown, &mut values);
    let wall_ms = breakdown.wall_ms();
    for layer in LAYERS {
        let metric: &'static str = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_suffix(".self_ms") == Some(layer))
            .expect("every layer has a self_ms metric");
        values.insert(metric, breakdown.layer_self_ms(layer));
    }
    let covered_ms = wall_ms - breakdown.self_ms("bench.unattributed");
    values.insert(
        "bench.breakdown_pct",
        report::ratio(100.0 * covered_ms, wall_ms),
    );
    values.insert("bench.traced_wall_ms", wall_ms);
    values.insert("bench.untraced_wall_ms", untraced_ms);
    values.insert(
        "bench.trace_overhead_pct",
        report::ratio(100.0 * (wall_ms - untraced_ms), untraced_ms),
    );
    if let Err(error) = tr.write_jsonl(spans) {
        eprintln!("perfbench: writing {}: {error}", spans.display());
    } else {
        eprintln!("perfbench: spans written to {}", spans.display());
    }
    values
}

fn peak_rss_mb() -> f64 {
    stfsm::sys::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Runs one workload in this process and prints its result line.
fn run_workload(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let build_dir = exe.parent().expect("the executable lives in a directory");
    let work_dir = build_dir.join(format!("perfbench-work-{}", std::process::id()));
    if let Err(error) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {error}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = RemoveOnDrop(work_dir.clone());
    let mut seeds = flow::SplitMix::new(args.seed);
    let ctx = Ctx {
        seconds: args.seconds,
        campaign_seed: args.campaign_seed.unwrap_or_else(|| seeds.next_u64()),
        query_seed: args.query_seed.unwrap_or_else(|| seeds.next_u64()),
        work_dir,
    };
    eprintln!(
        "perfbench: workload {} seed {} (campaign seed {}, query seed {}), {} s, trace {}",
        args.workload,
        args.seed,
        ctx.campaign_seed,
        ctx.query_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let spans = build_dir.join(format!("perfbench-spans-{}.jsonl", args.workload));
    let mut ledger = Ledger::default();
    let values = match args.workload.as_str() {
        "synth" => dispatch(&synth::Synth, args, &ctx, &mut ledger, &spans),
        "grade_small" => dispatch(&grade::Grade::SMALL, args, &ctx, &mut ledger, &spans),
        "grade_large" => dispatch(&grade::Grade::LARGE, args, &ctx, &mut ledger, &spans),
        "diagnose" => dispatch(&diagnose::Diagnose, args, &ctx, &mut ledger, &spans),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in catalog {
        let value = values.get(name).copied();
        if !args.trace {
            ledger.check(value.is_some_and(|v| v > 0.0), || {
                format!("end-to-end metric {name} was not measured")
            });
        }
        metrics.push(name, value.unwrap_or(0.0), unit);
    }
    for (name, value, unit) in metrics.iter() {
        eprintln!("perfbench: {:<34} {value:>16.4} {unit}", name);
    }
    println!("{}", metrics.result_line(&ledger));
    ExitCode::SUCCESS
}

fn dispatch<W: Workload>(
    workload: &W,
    args: &Args,
    ctx: &Ctx,
    ledger: &mut Ledger,
    spans: &Path,
) -> Values {
    if args.trace {
        trace(workload, ctx, ledger, spans)
    } else {
        measure(workload, ctx, ledger)
    }
}

/// The per-workload names of the end-to-end metrics in the `all` table:
/// `(name, workload or "" for every workload, metrics summed)`.  An
/// empty sum is `failed_frac`, from the result line's counts.
const NAMED: &[(&str, &str, &[&str])] = &[
    ("setup_s", "", &["setup_s"]),
    ("synth_s", "synth", &["stage_a_s", "stage_b_s"]),
    ("product_terms", "synth", &["product_terms"]),
    ("literals", "synth", &["literals"]),
    ("fault_cycles_per_s", "grade_small", &["rate_per_s"]),
    ("fault_cycles_per_s", "grade_large", &["rate_per_s"]),
    ("dict_s", "diagnose", &["stage_a_s"]),
    ("coord_s", "diagnose", &["stage_b_s"]),
    ("requests_per_s", "diagnose", &["rate_per_s"]),
    ("request_p50_us", "diagnose", &["p50_us"]),
    ("request_p90_us", "diagnose", &["p90_us"]),
    ("peak_rss_mb", "", &["peak_rss_mb"]),
    ("failed_frac", "", &[]),
];

/// Runs every workload, each in its own process, and prints a table of
/// their metrics: the end-to-end metrics under their per-workload names,
/// or every per-layer metric when traced.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut rows: Vec<(&str, String, f64, String)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &workload in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(seed) = args.campaign_seed {
            command.args(["--campaign-seed", &seed.to_string()]);
        }
        if let Some(seed) = args.query_seed {
            command.args(["--query-seed", &seed.to_string()]);
        }
        let result = command
            .output()
            .ok()
            .filter(|output| output.status.success())
            .and_then(|output| {
                let text = String::from_utf8_lossy(&output.stdout).into_owned();
                JsonValue::parse(text.lines().last()?).ok()
            });
        let Some(result) = result else {
            eprintln!("perfbench: workload {workload} did not produce a result");
            return ExitCode::FAILURE;
        };
        let count = |key: &str| result.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or_default();
        let field = |name: &str, key: &str| {
            metrics
                .iter()
                .find(|(metric, _)| metric == name)
                .and_then(|(_, m)| m.get(key))
        };
        let value = |name: &str| {
            field(name, "value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        let unit = |name: &str| {
            field(name, "unit")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
        };
        if args.trace {
            for (name, _) in metrics {
                rows.push((workload, name.clone(), value(name), unit(name).to_string()));
            }
            continue;
        }
        for &(name, only, sources) in NAMED {
            if !only.is_empty() && only != workload {
                continue;
            }
            let row = match sources.first() {
                Some(first) => (sources.iter().map(|s| value(s)).sum(), unit(first)),
                None => (
                    report::ratio(count("failed") as f64, count("attempted") as f64),
                    "ratio",
                ),
            };
            rows.push((workload, name.to_string(), row.0, row.1.to_string()));
        }
    }
    println!("{:<12} {:<34} {:>16} unit", "workload", "metric", "value");
    for (workload, name, value, unit) in &rows {
        println!("{workload:<12} {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

/// The command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    campaign_seed: Option<u64>,
    query_seed: Option<u64>,
}

/// The default `--seed`; `README.md` also names a held-out seed.
const DEFAULT_SEED: u64 = 1991;

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 15.0,
            trace: false,
            campaign_seed: None,
            query_seed: None,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("bad value for {flag}: {e}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad value for --seconds: {value}"))?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--campaign-seed" => parsed.campaign_seed = Some(number()?),
                "--query-seed" => parsed.query_seed = Some(number()?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(parsed)
    }
}

/// Removes the work directory when the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The diagnose workload's coordinator re-enters this executable as its
    // campaign worker, with the worker's own flags.
    if args.first().map(String::as_str) == Some("--machine") {
        let code = stfsm_serve::worker::run(&args);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    match Args::parse(&args) {
        Ok(args) if args.workload == "all" => run_all(&args),
        Ok(args) => run_workload(&args),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_parse() {
        let args: Vec<String> = [
            "--workload",
            "synth",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = Args::parse(&args).unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(Args::parse(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn every_self_metric_is_in_the_catalog() {
        for (metric, _) in SELF_SPANS.iter().chain(INCLUSIVE_SPANS) {
            assert!(PER_LAYER.iter().any(|(name, _)| name == metric), "{metric}");
        }
    }
}
