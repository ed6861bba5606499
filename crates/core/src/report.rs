//! Machine-readable experiment reports (JSON-serialisable via
//! [`crate::json::ToJson`]).

use crate::json::{JsonObject, RawJson, ToJson};
use stfsm_bist::BistStructure;
use stfsm_testsim::telemetry::{CampaignMetrics, CampaignTelemetry, SegmentTelemetry, WorkerSpan};

/// One row of the Table 2 reproduction: the PST/SIG state-assignment quality
/// compared with random encodings.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of states of the machine that was synthesized.
    pub states: usize,
    /// Number of random encodings evaluated.
    pub random_count: usize,
    /// Average product terms over the random encodings.
    pub random_average: f64,
    /// Best (minimum) product terms over the random encodings.
    pub random_best: usize,
    /// Product terms of the heuristic MISR-targeted assignment.
    pub heuristic: usize,
    /// Product terms the paper reports for the average of 50 random
    /// encodings (for side-by-side comparison).
    pub paper_random_average: Option<f64>,
    /// Product terms the paper reports for the best random encoding.
    pub paper_random_best: Option<u32>,
    /// Product terms the paper reports for its heuristic.
    pub paper_heuristic: Option<u32>,
}

impl Table2Row {
    /// Whether the measured ordering matches the paper's finding
    /// (heuristic ≤ best random ≤ average random).
    pub fn ordering_holds(&self) -> bool {
        (self.heuristic as f64) <= self.random_average && self.heuristic <= self.random_best
    }
}

impl ToJson for Table2Row {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("benchmark", &self.benchmark)
            .field("states", self.states)
            .field("random_count", self.random_count)
            .field("random_average", self.random_average)
            .field("random_best", self.random_best)
            .field("heuristic", self.heuristic)
            .field("paper_random_average", self.paper_random_average)
            .field("paper_random_best", self.paper_random_best)
            .field("paper_heuristic", self.paper_heuristic);
        out.push_str(&obj.finish());
    }
}

/// One row of the Table 3 reproduction: area of the PST/SIG, DFF and PAT
/// solutions.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Product terms per structure, in the order PST/SIG, DFF, PAT.
    pub product_terms: [usize; 3],
    /// Factored-literal estimates, same order.
    pub literals: [usize; 3],
    /// Paper-reported product terms (PST/SIG, DFF, PAT), if available.
    pub paper_product_terms: Option<[u32; 3]>,
    /// Paper-reported literals (PST/SIG, DFF, PAT), if available.
    pub paper_literals: Option<[u32; 3]>,
}

impl Table3Row {
    /// Relative area overhead of the PST/SIG solution over the DFF solution
    /// in product terms (the paper's headline: "no significant increase").
    pub fn pst_overhead_terms(&self) -> f64 {
        if self.product_terms[1] == 0 {
            0.0
        } else {
            self.product_terms[0] as f64 / self.product_terms[1] as f64
        }
    }

    /// Relative saving of the PAT solution versus DFF (the paper reports
    /// 10–20 % less combinational logic).
    pub fn pat_saving_terms(&self) -> f64 {
        if self.product_terms[1] == 0 {
            0.0
        } else {
            1.0 - self.product_terms[2] as f64 / self.product_terms[1] as f64
        }
    }
}

impl ToJson for Table3Row {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("benchmark", &self.benchmark)
            .field("product_terms", self.product_terms)
            .field("literals", self.literals)
            .field(
                "paper_product_terms",
                self.paper_product_terms
                    .as_ref()
                    .map(|a| a.as_slice().to_vec()),
            )
            .field(
                "paper_literals",
                self.paper_literals.as_ref().map(|a| a.as_slice().to_vec()),
            );
        out.push_str(&obj.finish());
    }
}

/// One row of the structure comparison (quantified Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Structure the row describes.
    pub structure: String,
    /// Product terms of the combinational logic.
    pub product_terms: usize,
    /// Factored literals.
    pub literals: usize,
    /// Storage bits of the state register and its test duplicates.
    pub storage_bits: usize,
    /// Test control signals.
    pub control_signals: usize,
    /// XOR gates in the next-state path.
    pub xor_gates: usize,
    /// Mode multiplexers in the next-state path.
    pub mode_multiplexers: usize,
    /// Whether all system-mode dynamic faults are testable.
    pub dynamic_fault_detection: bool,
    /// Measured fault coverage of the self-test campaign (if one was run).
    pub fault_coverage: Option<f64>,
    /// Measured patterns needed for the target coverage (if reached).
    pub test_length: Option<usize>,
}

impl ToJson for Table1Row {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("benchmark", &self.benchmark)
            .field("structure", &self.structure)
            .field("product_terms", self.product_terms)
            .field("literals", self.literals)
            .field("storage_bits", self.storage_bits)
            .field("control_signals", self.control_signals)
            .field("xor_gates", self.xor_gates)
            .field("mode_multiplexers", self.mode_multiplexers)
            .field("dynamic_fault_detection", self.dynamic_fault_detection)
            .field("fault_coverage", self.fault_coverage)
            .field("test_length", self.test_length);
        out.push_str(&obj.finish());
    }
}

/// The coverage comparison of experiment E5 (PST vs. conventional test
/// length at equal coverage).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Target fault coverage used for the test-length comparison.
    pub target_coverage: f64,
    /// Per-structure results.
    pub rows: Vec<CoverageRow>,
}

impl ToJson for CoverageComparison {
    fn write_json(&self, out: &mut String) {
        let rows: Vec<RawJson> = self.rows.iter().map(|r| RawJson(r.to_json())).collect();
        let mut obj = JsonObject::new();
        obj.field("benchmark", &self.benchmark)
            .field("target_coverage", self.target_coverage)
            .field("rows", rows);
        out.push_str(&obj.finish());
    }
}

/// One structure's coverage outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageRow {
    /// Structure name.
    pub structure: String,
    /// Faults simulated.
    pub total_faults: usize,
    /// Faults detected.
    pub detected_faults: usize,
    /// Final coverage.
    pub coverage: f64,
    /// Patterns needed to reach the target coverage (if reached).
    pub test_length: Option<usize>,
}

impl ToJson for CoverageRow {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("structure", &self.structure)
            .field("total_faults", self.total_faults)
            .field("detected_faults", self.detected_faults)
            .field("coverage", self.coverage)
            .field("test_length", self.test_length);
        out.push_str(&obj.finish());
    }
}

impl ToJson for CampaignMetrics {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("events_scheduled", self.events_scheduled)
            .field("events_drained", self.events_drained)
            .field("steps_skipped", self.steps_skipped)
            .field("full_sweeps", self.full_sweeps)
            .field("event_cycles", self.event_cycles)
            .field("widenings", self.widenings)
            .field("narrowings", self.narrowings)
            .field("lane_retirements", self.lane_retirements)
            .field("compaction_rebuilds", self.compaction_rebuilds)
            .field("cache_lookups", self.cache_lookups)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("stimulus_patterns", self.stimulus_patterns)
            .field("cycles_simulated", self.cycles_simulated)
            .field("peak_rss_kb", self.peak_rss_kb)
            .field("stimulus_ns", self.stimulus_ns)
            .field("good_trace_ns", self.good_trace_ns)
            .field("fault_eval_ns", self.fault_eval_ns)
            .field("dictionary_ns", self.dictionary_ns)
            .field("observer_ns", self.observer_ns)
            .field("worker_panics_recovered", self.worker_panics_recovered)
            .field("checkpoints_written", self.checkpoints_written)
            .field("checkpoint_bytes", self.checkpoint_bytes);
        out.push_str(&obj.finish());
    }
}

impl ToJson for WorkerSpan {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new();
        obj.field("worker", self.worker)
            .field("start_ns", self.start_ns)
            .field("end_ns", self.end_ns);
        out.push_str(&obj.finish());
    }
}

impl ToJson for SegmentTelemetry {
    fn write_json(&self, out: &mut String) {
        let workers: Vec<RawJson> = self.workers.iter().map(|w| RawJson(w.to_json())).collect();
        let mut obj = JsonObject::new();
        obj.field("segment", self.segment)
            .field("patterns_applied", self.patterns_applied)
            .field("start_ns", self.start_ns)
            .field("end_ns", self.end_ns)
            .field("metrics", RawJson(self.metrics.to_json()))
            .field("workers", workers);
        out.push_str(&obj.finish());
    }
}

impl ToJson for CampaignTelemetry {
    fn write_json(&self, out: &mut String) {
        let segments: Vec<RawJson> = self.segments.iter().map(|s| RawJson(s.to_json())).collect();
        let mut obj = JsonObject::new();
        obj.field("segments", segments)
            .field("totals", RawJson(self.totals.to_json()));
        out.push_str(&obj.finish());
    }
}

impl CoverageComparison {
    /// Ratio of the PST test length to the DFF test length at the target
    /// coverage — the paper's ≈ 1.3 claim.  `None` when either structure did
    /// not reach the target.
    pub fn pst_vs_dff_test_length_ratio(&self) -> Option<f64> {
        let find = |name: &str| {
            self.rows
                .iter()
                .find(|r| r.structure == name)
                .and_then(|r| r.test_length)
        };
        let pst = find(BistStructure::Pst.name())?;
        let dff = find(BistStructure::Dff.name())?;
        if dff == 0 {
            None
        } else {
            Some(pst as f64 / dff as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ordering_check() {
        let row = Table2Row {
            benchmark: "x".into(),
            states: 8,
            random_count: 10,
            random_average: 20.0,
            random_best: 18,
            heuristic: 15,
            paper_random_average: Some(21.0),
            paper_random_best: Some(19),
            paper_heuristic: Some(16),
        };
        assert!(row.ordering_holds());
        let bad = Table2Row {
            heuristic: 25,
            ..row
        };
        assert!(!bad.ordering_holds());
    }

    #[test]
    fn table3_ratios() {
        let row = Table3Row {
            benchmark: "x".into(),
            product_terms: [20, 20, 16],
            literals: [80, 82, 70],
            paper_product_terms: None,
            paper_literals: None,
        };
        assert!((row.pst_overhead_terms() - 1.0).abs() < 1e-9);
        assert!((row.pat_saving_terms() - 0.2).abs() < 1e-9);
        let degenerate = Table3Row {
            product_terms: [5, 0, 3],
            ..row
        };
        assert_eq!(degenerate.pst_overhead_terms(), 0.0);
        assert_eq!(degenerate.pat_saving_terms(), 0.0);
    }

    #[test]
    fn coverage_ratio() {
        let cmp = CoverageComparison {
            benchmark: "x".into(),
            target_coverage: 0.95,
            rows: vec![
                CoverageRow {
                    structure: "DFF".into(),
                    total_faults: 100,
                    detected_faults: 98,
                    coverage: 0.98,
                    test_length: Some(100),
                },
                CoverageRow {
                    structure: "PST".into(),
                    total_faults: 100,
                    detected_faults: 97,
                    coverage: 0.97,
                    test_length: Some(130),
                },
            ],
        };
        assert!((cmp.pst_vs_dff_test_length_ratio().unwrap() - 1.3).abs() < 1e-9);
        let missing = CoverageComparison {
            rows: vec![],
            ..cmp
        };
        assert!(missing.pst_vs_dff_test_length_ratio().is_none());
    }

    #[test]
    fn report_types_are_serializable() {
        let row = Table2Row {
            benchmark: "m\"x".into(),
            states: 8,
            random_count: 10,
            random_average: 20.5,
            random_best: 18,
            heuristic: 15,
            paper_random_average: None,
            paper_random_best: Some(19),
            paper_heuristic: None,
        };
        let json = row.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""benchmark":"m\"x""#));
        assert!(json.contains(r#""random_average":20.5"#));
        assert!(json.contains(r#""paper_random_average":null"#));
        assert!(json.contains(r#""paper_random_best":19"#));

        let t3 = Table3Row {
            benchmark: "x".into(),
            product_terms: [20, 20, 16],
            literals: [80, 82, 70],
            paper_product_terms: Some([1, 2, 3]),
            paper_literals: None,
        };
        assert!(t3.to_json().contains(r#""product_terms":[20,20,16]"#));
        assert!(t3.to_json().contains(r#""paper_product_terms":[1,2,3]"#));

        let cmp = CoverageComparison {
            benchmark: "x".into(),
            target_coverage: 0.95,
            rows: vec![CoverageRow {
                structure: "PST".into(),
                total_faults: 10,
                detected_faults: 9,
                coverage: 0.9,
                test_length: None,
            }],
        };
        let json = cmp.to_json();
        assert!(json.contains(r#""rows":[{"structure":"PST""#));

        let t1 = Table1Row {
            benchmark: "x".into(),
            structure: "DFF".into(),
            product_terms: 1,
            literals: 2,
            storage_bits: 3,
            control_signals: 4,
            xor_gates: 5,
            mode_multiplexers: 6,
            dynamic_fault_detection: true,
            fault_coverage: Some(0.5),
            test_length: Some(7),
        };
        assert!(t1.to_json().contains(r#""dynamic_fault_detection":true"#));
    }

    #[test]
    fn telemetry_types_serialize() {
        let metrics = CampaignMetrics {
            events_drained: 123,
            cache_lookups: 7,
            cache_hits: 3,
            cache_misses: 4,
            peak_rss_kb: 2048,
            observer_ns: 55,
            worker_panics_recovered: 2,
            checkpoints_written: 3,
            checkpoint_bytes: 4096,
            ..CampaignMetrics::default()
        };
        let json = metrics.to_json();
        assert!(json.contains(r#""events_drained":123"#));
        assert!(json.contains(r#""cache_hits":3"#));
        assert!(json.contains(r#""peak_rss_kb":2048"#));
        assert!(json.contains(r#""observer_ns":55"#));
        assert!(json.contains(r#""worker_panics_recovered":2"#));
        assert!(json.contains(r#""checkpoints_written":3"#));
        assert!(json.contains(r#""checkpoint_bytes":4096"#));

        let telemetry = CampaignTelemetry::from_segments(vec![SegmentTelemetry {
            segment: 0,
            patterns_applied: 64,
            start_ns: 10,
            end_ns: 90,
            metrics,
            workers: vec![WorkerSpan {
                worker: 1,
                start_ns: 5,
                end_ns: 42,
            }],
        }]);
        let json = telemetry.to_json();
        assert!(json.contains(r#""segments":[{"segment":0,"patterns_applied":64"#));
        assert!(json.contains(r#""workers":[{"worker":1,"start_ns":5,"end_ns":42}]"#));
        assert!(json.contains(r#""totals":{"#));
        assert!(json.contains(r#""metrics":{"#));
    }
}
