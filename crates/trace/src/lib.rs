//! Campaign trace streaming: a JSONL [`TraceObserver`] and a Chrome Trace
//! Event Format exporter for the telemetry every campaign collects.
//!
//! The simulation stack fills
//! [`CampaignMetrics`](stfsm::testsim::telemetry::CampaignMetrics) counters
//! and per-segment phase spans as it runs (see the `Observability` section
//! of [`stfsm::testsim::campaign`]); this crate turns that stream into
//! files:
//!
//! * [`TraceObserver`] — a passive [`CampaignObserver`] that writes one
//!   JSON record per line to any [`std::io::Write`] sink: a
//!   `{"type":"plan",...}` line before the first pattern, one
//!   `{"type":"segment",...}` line per compaction segment (counters, phase
//!   spans, worker spans, running coverage) and a
//!   `{"type":"summary",...}` line with the folded totals.  Write errors
//!   are recorded on the observer ([`TraceObserver::error`]) instead of
//!   panicking mid-campaign, and further writes are skipped.
//! * [`TraceRecord`] — the *parser* half of the wire format: one
//!   [`TraceRecord::parse`] call per JSONL line turns the stream back
//!   into typed [`PlanRecord`] / [`SegmentRecord`] / [`SummaryRecord`]
//!   values.  Everything the observer emits parses back, which is what
//!   lets the `stfsm-serve` campaign coordinator drive worker processes
//!   by reading their trace streams over a pipe.
//! * [`chrome_trace`] / [`write_chrome_trace`] — render a completed run's
//!   [`CampaignTelemetry`] as a Chrome Trace Event Format JSON file: a
//!   `segments` lane with one slice per segment, a `phases` lane with the
//!   per-segment phase spans laid out consecutively, and one lane per
//!   worker of a multi-worker [`SimEngine::Differential`](stfsm::SimEngine::Differential)
//!   fan-out.  Open `chrome://tracing` (or <https://ui.perfetto.dev>) and
//!   load the file to read the timeline.
//!
//! Both outputs stamp the process peak RSS from [`stfsm::sys::peak_rss_kb`]
//! (zero where the platform offers no probe), the one counter the engines
//! deliberately leave to the trace layer.
//!
//! # Example
//!
//! ```
//! use stfsm::{BistStructure, SynthesisFlow};
//! use stfsm::faults::StuckAt;
//! use stfsm::testsim::campaign::Campaign;
//! use stfsm_trace::{chrome_trace, TraceObserver};
//!
//! let fsm = stfsm::fsm::suite::fig3_example()?;
//! let netlist = SynthesisFlow::new(BistStructure::Dff).synthesize(&fsm)?.netlist;
//! let mut trace = TraceObserver::new(Vec::new());
//! let outcome = Campaign::new(&netlist)
//!     .model(&StuckAt)
//!     .patterns(128)
//!     .observe(&mut trace)
//!     .run();
//! let jsonl = String::from_utf8(trace.into_inner())?;
//! assert!(jsonl.lines().next().unwrap().starts_with(r#"{"type":"plan""#));
//! let timeline = chrome_trace(&outcome.telemetry);
//! assert!(timeline.starts_with(r#"{"traceEvents":["#));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use stfsm::json::{JsonObject, JsonParseError, JsonValue, RawJson, ToJson};
use stfsm::testsim::campaign::{
    CampaignObserver, CampaignOutcome, CampaignPlan, ObserverControl, SegmentSnapshot,
};
use stfsm::testsim::telemetry::CampaignTelemetry;

/// A passive campaign observer that streams one JSONL record per lifecycle
/// event to a [`Write`] sink; see the [crate docs](self) for the record
/// schema.  It never votes to stop and never requests signatures, so
/// attaching it changes neither the campaign's pass selection nor any
/// result bit.
#[derive(Debug)]
pub struct TraceObserver<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> TraceObserver<W> {
    /// A trace observer writing to `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            error: None,
        }
    }

    /// The first write error hit, if any.  Once an error is recorded every
    /// further record is skipped — a full disk cannot poison a running
    /// campaign.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Consumes the observer and returns its sink (check
    /// [`TraceObserver::error`] first if the stream must be complete).
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn emit(&mut self, record: String) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = writeln!(self.writer, "{record}") {
            self.error = Some(error);
        }
    }
}

impl<W: Write> CampaignObserver for TraceObserver<W> {
    fn on_begin(&mut self, plan: &CampaignPlan) {
        let sections: Vec<RawJson> = plan
            .sections
            .iter()
            .map(|s| {
                let mut obj = JsonObject::new();
                obj.field("label", &s.label).field("faults", s.faults);
                RawJson(obj.finish())
            })
            .collect();
        let mut obj = JsonObject::new();
        obj.field("type", "plan")
            .field("structure", plan.structure.name())
            .field("stimulation", format!("{:?}", plan.stimulation))
            .field("engine", format!("{:?}", plan.engine))
            .field("max_patterns", plan.max_patterns)
            .field("total_faults", plan.total_faults)
            .field("threads", plan.threads)
            .field("block_words", plan.block_words)
            .field("segments", &plan.segments)
            .field("sections", sections);
        self.emit(obj.finish());
    }

    fn on_segment(&mut self, snapshot: &SegmentSnapshot<'_>) -> ObserverControl {
        let mut metrics = snapshot.telemetry.metrics.clone();
        metrics.peak_rss_kb = stfsm::sys::peak_rss_kb().unwrap_or(0);
        let workers: Vec<RawJson> = snapshot
            .telemetry
            .workers
            .iter()
            .map(|w| RawJson(w.to_json()))
            .collect();
        let mut obj = JsonObject::new();
        obj.field("type", "segment")
            .field("segment", snapshot.segment)
            .field("patterns_applied", snapshot.patterns_applied)
            .field("total_faults", snapshot.total_faults)
            .field("detected_faults", snapshot.detected_faults)
            .field("coverage", snapshot.coverage())
            .field("new_detections", snapshot.segment_detections())
            .field("start_ns", snapshot.telemetry.start_ns)
            .field("end_ns", snapshot.telemetry.end_ns)
            .field("metrics", RawJson(metrics.to_json()))
            .field("workers", workers);
        self.emit(obj.finish());
        ObserverControl::Continue
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        let detected: usize = outcome
            .sections
            .iter()
            .map(|s| s.detection_pattern.iter().flatten().count())
            .sum();
        let mut totals = outcome.telemetry.totals.clone();
        totals.peak_rss_kb = stfsm::sys::peak_rss_kb().unwrap_or(0);
        let mut obj = JsonObject::new();
        obj.field("type", "summary")
            .field("engine", format!("{:?}", outcome.engine))
            .field("max_patterns", outcome.max_patterns)
            .field("patterns_applied", outcome.patterns_applied)
            .field("stimulus_generated", outcome.stimulus_generated)
            .field("stopped_early", outcome.stopped_early())
            .field("total_faults", outcome.total_faults())
            .field("detected_faults", detected)
            .field("segments", outcome.telemetry.segments.len())
            .field("totals", RawJson(totals.to_json()));
        self.emit(obj.finish());
    }

    /// Surfaces the latched write error (see [`TraceObserver::error`]) so a
    /// truncated trace shows up as a
    /// [`CampaignError::ObserverFailure`](stfsm::CampaignError) incident on
    /// the returned [`CampaignOutcome`] instead of being noticed only by
    /// callers who remember to poll the observer afterwards.
    fn failure(&self) -> Option<String> {
        self.error
            .as_ref()
            .map(|error| format!("trace write failed: {error}"))
    }
}

/// Lane (`tid`) of the per-segment slices in the exported timeline.
const TID_SEGMENTS: usize = 0;
/// Lane of the per-phase slices.
const TID_PHASES: usize = 1;
/// First worker lane; worker `w` renders on `TID_WORKER_BASE + w`.
const TID_WORKER_BASE: usize = 100;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn event(name: &str, ts_us: f64, dur_us: f64, tid: usize) -> RawJson {
    let mut obj = JsonObject::new();
    obj.field("name", name)
        .field("cat", "campaign")
        .field("ph", "X")
        .field("ts", ts_us)
        .field("dur", dur_us)
        .field("pid", 1usize)
        .field("tid", tid);
    RawJson(obj.finish())
}

fn thread_meta(tid: usize, name: &str) -> RawJson {
    let mut args = JsonObject::new();
    args.field("name", name);
    let mut obj = JsonObject::new();
    obj.field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 1usize)
        .field("tid", tid)
        .field("args", RawJson(args.finish()));
    RawJson(obj.finish())
}

/// Renders a run's telemetry as Chrome Trace Event Format JSON
/// (`chrome://tracing` / Perfetto): complete (`"ph":"X"`) events in
/// microseconds on a `segments` lane, a `phases` lane and one lane per
/// worker.
///
/// Phase slices are laid out consecutively from each segment's start in
/// the fixed order stimulus → good-trace → fault-eval → dictionary →
/// observer; the engines measure phase *durations*, not offsets, so the
/// layout is an approximation of when each phase ran (exact whenever the
/// phases did not interleave, which they do not on one worker).  Worker spans are anchored at their segment's fault-eval
/// start, which is where the fan-out actually begins.
pub fn chrome_trace(telemetry: &CampaignTelemetry) -> String {
    let mut events: Vec<RawJson> = Vec::new();
    events.push(thread_meta(TID_SEGMENTS, "segments"));
    events.push(thread_meta(TID_PHASES, "phases"));
    let mut workers_seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for segment in &telemetry.segments {
        events.push(event(
            &format!("segment {}", segment.segment),
            us(segment.start_ns),
            us(segment.end_ns.saturating_sub(segment.start_ns)),
            TID_SEGMENTS,
        ));
        let m = &segment.metrics;
        let mut cursor = segment.start_ns;
        for (phase, ns) in [
            ("stimulus", m.stimulus_ns),
            ("good_trace", m.good_trace_ns),
            ("fault_eval", m.fault_eval_ns),
            ("dictionary", m.dictionary_ns),
            ("observer", m.observer_ns),
        ] {
            if ns > 0 {
                events.push(event(phase, us(cursor), us(ns), TID_PHASES));
                cursor += ns;
            }
        }
        let eval_start = segment.start_ns + m.stimulus_ns + m.good_trace_ns;
        for span in &segment.workers {
            let tid = TID_WORKER_BASE + span.worker;
            if workers_seen.insert(span.worker) {
                events.push(thread_meta(tid, &format!("worker {}", span.worker)));
            }
            events.push(event(
                &format!("worker {}", span.worker),
                us(eval_start + span.start_ns),
                us(span.end_ns.saturating_sub(span.start_ns)),
                tid,
            ));
        }
    }
    let mut obj = JsonObject::new();
    obj.field("traceEvents", events)
        .field("displayTimeUnit", "ms");
    obj.finish()
}

/// Writes [`chrome_trace`] (plus a trailing newline) to a sink.
pub fn write_chrome_trace<W: Write>(
    telemetry: &CampaignTelemetry,
    mut writer: W,
) -> std::io::Result<()> {
    writeln!(writer, "{}", chrome_trace(telemetry))
}

/// A trace-stream parse failure: either the line was not JSON, or it was
/// JSON of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line was not valid JSON.
    Json(JsonParseError),
    /// The line was JSON but not a trace record (unknown `type`, missing
    /// or mistyped field).
    Schema {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Json(error) => write!(f, "trace record is not JSON: {error}"),
            TraceParseError::Schema { message } => {
                write!(f, "trace record has the wrong shape: {message}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

fn schema_err(message: impl Into<String>) -> TraceParseError {
    TraceParseError::Schema {
        message: message.into(),
    }
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, TraceParseError> {
    value
        .get(key)
        .ok_or_else(|| schema_err(format!("missing field '{key}'")))
}

fn usize_field(value: &JsonValue, key: &str) -> Result<usize, TraceParseError> {
    field(value, key)?
        .as_usize()
        .ok_or_else(|| schema_err(format!("field '{key}' is not a non-negative integer")))
}

fn u64_field(value: &JsonValue, key: &str) -> Result<u64, TraceParseError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| schema_err(format!("field '{key}' is not a u64")))
}

fn f64_field(value: &JsonValue, key: &str) -> Result<f64, TraceParseError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| schema_err(format!("field '{key}' is not a number")))
}

fn str_field(value: &JsonValue, key: &str) -> Result<String, TraceParseError> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| schema_err(format!("field '{key}' is not a string")))?
        .to_string())
}

fn bool_field(value: &JsonValue, key: &str) -> Result<bool, TraceParseError> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| schema_err(format!("field '{key}' is not a boolean")))
}

/// One fault section of a parsed plan record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRecord {
    /// The section's label (fault-model name).
    pub label: String,
    /// Number of faults in the section.
    pub faults: usize,
}

/// A parsed `{"type":"plan",...}` record — the campaign's resolved shape
/// before the first pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// The BIST structure name (`"DFF"`, `"PST"`, …).
    pub structure: String,
    /// The stimulation mode (its `Debug` rendering).
    pub stimulation: String,
    /// The resolved engine (its `Debug` rendering).
    pub engine: String,
    /// The pattern budget.
    pub max_patterns: usize,
    /// Total faults across all sections.
    pub total_faults: usize,
    /// Worker threads the campaign will use.
    pub threads: usize,
    /// Differential lane-block width, when applicable.
    pub block_words: Option<usize>,
    /// The pinned segment schedule (end boundaries).
    pub segments: Vec<usize>,
    /// The declared fault sections, in declaration order.
    pub sections: Vec<SectionRecord>,
}

/// A parsed `{"type":"segment",...}` record — one compaction-segment
/// boundary.  The nested `metrics` / `workers` payloads stay available on
/// the [`JsonValue`] handed to [`TraceRecord::from_value`]; this struct
/// carries the progress fields coordination logic actually consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// Index of the segment in the plan's schedule.
    pub segment: usize,
    /// Patterns applied at the boundary.
    pub patterns_applied: usize,
    /// Total faults across all sections.
    pub total_faults: usize,
    /// Faults detected so far.
    pub detected_faults: usize,
    /// Running coverage (`detected / total`).
    pub coverage: f64,
    /// Faults newly detected within this segment.
    pub new_detections: usize,
    /// Segment wall-clock start (monotonic, run-relative).
    pub start_ns: u64,
    /// Segment wall-clock end.
    pub end_ns: u64,
}

/// A parsed `{"type":"summary",...}` record — the campaign's final line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRecord {
    /// The engine that ran (its `Debug` rendering).
    pub engine: String,
    /// The pattern budget.
    pub max_patterns: usize,
    /// Patterns actually applied (the early-stop boundary, if any).
    pub patterns_applied: usize,
    /// Stimulus rows actually generated.
    pub stimulus_generated: usize,
    /// Whether a unanimous stop vote ended the run early.
    pub stopped_early: bool,
    /// Total faults across all sections.
    pub total_faults: usize,
    /// Faults detected over the whole run.
    pub detected_faults: usize,
    /// Number of segments simulated.
    pub segments: usize,
}

/// One parsed line of a [`TraceObserver`] JSONL stream.
///
/// The emitter and this parser are the two halves of the trace wire
/// format: every record [`TraceObserver`] writes parses back, and the
/// campaign coordinator of `stfsm-serve` drives worker processes by
/// reading exactly this stream from their stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// The run's resolved plan (first line).
    Plan(PlanRecord),
    /// One segment boundary (one line per segment).
    Segment(SegmentRecord),
    /// The folded final record (last line).
    Summary(SummaryRecord),
}

impl TraceRecord {
    /// Parses one JSONL line.
    pub fn parse(line: &str) -> Result<Self, TraceParseError> {
        let value = JsonValue::parse(line.trim()).map_err(TraceParseError::Json)?;
        Self::from_value(&value)
    }

    /// Interprets an already-parsed [`JsonValue`] as a trace record (use
    /// this when the caller also needs fields this crate does not lift,
    /// e.g. the nested `metrics` object).
    pub fn from_value(value: &JsonValue) -> Result<Self, TraceParseError> {
        match str_field(value, "type")?.as_str() {
            "plan" => {
                let sections = field(value, "sections")?
                    .as_array()
                    .ok_or_else(|| schema_err("field 'sections' is not an array"))?
                    .iter()
                    .map(|section| {
                        Ok(SectionRecord {
                            label: str_field(section, "label")?,
                            faults: usize_field(section, "faults")?,
                        })
                    })
                    .collect::<Result<Vec<_>, TraceParseError>>()?;
                let segments = field(value, "segments")?
                    .as_array()
                    .ok_or_else(|| schema_err("field 'segments' is not an array"))?
                    .iter()
                    .map(|boundary| {
                        boundary
                            .as_usize()
                            .ok_or_else(|| schema_err("segment boundary is not an integer"))
                    })
                    .collect::<Result<Vec<_>, TraceParseError>>()?;
                let block_words = match field(value, "block_words")? {
                    JsonValue::Null => None,
                    words => Some(
                        words
                            .as_usize()
                            .ok_or_else(|| schema_err("field 'block_words' is not an integer"))?,
                    ),
                };
                Ok(TraceRecord::Plan(PlanRecord {
                    structure: str_field(value, "structure")?,
                    stimulation: str_field(value, "stimulation")?,
                    engine: str_field(value, "engine")?,
                    max_patterns: usize_field(value, "max_patterns")?,
                    total_faults: usize_field(value, "total_faults")?,
                    threads: usize_field(value, "threads")?,
                    block_words,
                    segments,
                    sections,
                }))
            }
            "segment" => Ok(TraceRecord::Segment(SegmentRecord {
                segment: usize_field(value, "segment")?,
                patterns_applied: usize_field(value, "patterns_applied")?,
                total_faults: usize_field(value, "total_faults")?,
                detected_faults: usize_field(value, "detected_faults")?,
                coverage: f64_field(value, "coverage")?,
                new_detections: usize_field(value, "new_detections")?,
                start_ns: u64_field(value, "start_ns")?,
                end_ns: u64_field(value, "end_ns")?,
            })),
            "summary" => Ok(TraceRecord::Summary(SummaryRecord {
                engine: str_field(value, "engine")?,
                max_patterns: usize_field(value, "max_patterns")?,
                patterns_applied: usize_field(value, "patterns_applied")?,
                stimulus_generated: usize_field(value, "stimulus_generated")?,
                stopped_early: bool_field(value, "stopped_early")?,
                total_faults: usize_field(value, "total_faults")?,
                detected_faults: usize_field(value, "detected_faults")?,
                segments: usize_field(value, "segments")?,
            })),
            other => Err(schema_err(format!("unknown record type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfsm::faults::StuckAt;
    use stfsm::testsim::campaign::Campaign;
    use stfsm::testsim::telemetry::{CampaignMetrics, SegmentTelemetry, WorkerSpan};
    use stfsm::{BistStructure, SynthesisFlow};

    fn netlist() -> stfsm::bist::netlist::Netlist {
        let fsm = stfsm::fsm::suite::fig3_example().unwrap();
        SynthesisFlow::new(BistStructure::Dff)
            .synthesize(&fsm)
            .unwrap()
            .netlist
    }

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, ends at depth zero.
    fn assert_balanced(json: &str) {
        let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            if in_string {
                match (escaped, c) {
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => escaped = false,
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced: {json}");
        }
        assert_eq!(depth, 0, "unbalanced: {json}");
        assert!(!in_string, "unterminated string: {json}");
    }

    #[test]
    fn jsonl_stream_has_plan_segments_and_summary() {
        let netlist = netlist();
        let mut trace = TraceObserver::new(Vec::new());
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(200)
            .observe(&mut trace)
            .run();
        assert!(trace.error().is_none());
        let jsonl = String::from_utf8(trace.into_inner()).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2 + outcome.telemetry.segments.len());
        assert!(lines[0].starts_with(r#"{"type":"plan""#));
        assert!(lines[0].contains(r#""structure":"DFF""#));
        assert!(lines[0].contains(r#""threads":1"#));
        for (line, segment) in lines[1..lines.len() - 1]
            .iter()
            .zip(&outcome.telemetry.segments)
        {
            assert!(line.starts_with(r#"{"type":"segment""#));
            assert!(line.contains(&format!(r#""segment":{}"#, segment.segment)));
            assert!(line.contains(r#""metrics":{"#));
        }
        let summary = lines.last().unwrap();
        assert!(summary.starts_with(r#"{"type":"summary""#));
        assert!(summary.contains(&format!(
            r#""patterns_applied":{}"#,
            outcome.patterns_applied
        )));
        for line in &lines {
            assert_balanced(line);
        }
    }

    #[test]
    fn chrome_trace_renders_segment_phase_and_worker_lanes() {
        let telemetry = CampaignTelemetry::from_segments(vec![SegmentTelemetry {
            segment: 0,
            patterns_applied: 64,
            start_ns: 1_000,
            end_ns: 9_000,
            metrics: CampaignMetrics {
                stimulus_ns: 2_000,
                good_trace_ns: 1_000,
                fault_eval_ns: 4_000,
                observer_ns: 500,
                ..CampaignMetrics::default()
            },
            workers: vec![
                WorkerSpan {
                    worker: 0,
                    start_ns: 0,
                    end_ns: 3_500,
                },
                WorkerSpan {
                    worker: 1,
                    start_ns: 100,
                    end_ns: 3_900,
                },
            ],
        }]);
        let json = chrome_trace(&telemetry);
        assert_balanced(&json);
        assert!(json.starts_with(r#"{"traceEvents":["#));
        assert!(json.contains(r#""name":"segment 0""#));
        assert!(json.contains(r#""name":"stimulus""#));
        assert!(json.contains(r#""name":"fault_eval""#));
        // The worker lanes carry metadata names and anchored slices.
        assert!(json.contains(r#""name":"worker 0""#));
        assert!(json.contains(r#""name":"worker 1""#));
        // Worker 1's slice is anchored at segment start + stimulus +
        // good-trace + its own offset = 4100 ns = 4.1 µs.
        assert!(json.contains(r#""ts":4.1"#));
        // No dictionary phase was recorded, so no dictionary slice.
        assert!(!json.contains(r#""name":"dictionary""#));
    }

    #[test]
    fn chrome_trace_from_a_real_run_is_balanced() {
        let netlist = netlist();
        let outcome = Campaign::new(&netlist).model(&StuckAt).patterns(128).run();
        let json = chrome_trace(&outcome.telemetry);
        assert_balanced(&json);
        assert!(json.contains(r#""name":"segments""#));
        assert!(json.contains(r#""displayTimeUnit":"ms""#));
    }

    /// A sink that fails every write.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_emitted_record_parses_back() {
        let netlist = netlist();
        let mut trace = TraceObserver::new(Vec::new());
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(200)
            .observe(&mut trace)
            .run();
        let jsonl = String::from_utf8(trace.into_inner()).unwrap();
        let records: Vec<TraceRecord> = jsonl
            .lines()
            .map(|line| TraceRecord::parse(line).expect("emitted record must parse"))
            .collect();
        let TraceRecord::Plan(plan) = &records[0] else {
            panic!("first record is not a plan");
        };
        assert_eq!(plan.structure, "DFF");
        assert_eq!(plan.max_patterns, 200);
        assert_eq!(plan.total_faults, outcome.total_faults());
        assert_eq!(plan.sections.len(), 1);
        assert_eq!(plan.sections[0].label, "stuck_at");
        assert_eq!(plan.segments.last().copied(), Some(200));
        let mut detected_so_far = 0;
        for (record, telemetry) in records[1..records.len() - 1]
            .iter()
            .zip(&outcome.telemetry.segments)
        {
            let TraceRecord::Segment(segment) = record else {
                panic!("middle record is not a segment");
            };
            assert_eq!(segment.segment, telemetry.segment);
            assert_eq!(segment.patterns_applied, telemetry.patterns_applied);
            detected_so_far += segment.new_detections;
            assert_eq!(segment.detected_faults, detected_so_far);
        }
        let TraceRecord::Summary(summary) = records.last().unwrap() else {
            panic!("last record is not a summary");
        };
        assert_eq!(summary.patterns_applied, outcome.patterns_applied);
        assert_eq!(summary.stopped_early, outcome.stopped_early());
        assert_eq!(summary.detected_faults, detected_so_far);
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        assert!(matches!(
            TraceRecord::parse("not json"),
            Err(TraceParseError::Json(_))
        ));
        assert!(matches!(
            TraceRecord::parse(r#"{"type":"unknown"}"#),
            Err(TraceParseError::Schema { .. })
        ));
        assert!(matches!(
            TraceRecord::parse(r#"{"type":"segment","segment":"three"}"#),
            Err(TraceParseError::Schema { .. })
        ));
        assert!(matches!(
            TraceRecord::parse(r#"{"segment":3}"#),
            Err(TraceParseError::Schema { .. })
        ));
    }

    #[test]
    fn write_errors_are_recorded_not_propagated() {
        let netlist = netlist();
        let mut trace = TraceObserver::new(FailingWriter);
        let outcome = Campaign::new(&netlist)
            .model(&StuckAt)
            .patterns(64)
            .observe(&mut trace)
            .run();
        // The campaign completed despite the failing sink...
        assert_eq!(outcome.patterns_applied, 64);
        // ...and the observer holds the first error.
        assert_eq!(trace.error().unwrap().to_string(), "disk full");
        // The failure also lands on the outcome as an incident.
        assert!(outcome.incidents.iter().any(|incident| matches!(
            incident,
            stfsm::CampaignError::ObserverFailure { message, .. }
                if message.contains("disk full")
        )));
    }
}
