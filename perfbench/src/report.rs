//! Outcome bookkeeping: attempted/failed operations and checks, named
//! metrics with units, order statistics, and the result line.

use std::fmt::Write;

/// Counts every operation and output check a run attempts, and the ones
/// that failed.  Failures are described on stderr as they happen.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Records one attempt; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Records one fallible operation, passing its value through.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(error) => {
                self.check(false, || format!("{what}: {error}"));
                None
            }
        }
    }

    /// Checks that every exact-repeat counter of a pass equals the first
    /// pass's.
    pub fn same_counters(&mut self, first: &[(&'static str, u64)], again: &[(&'static str, u64)]) {
        for ((name, a), (_, b)) in first.iter().zip(again) {
            self.check(a == b, || {
                format!("exact-repeat counter {name}: {a} then {b}")
            });
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // Adding zero also turns -0 into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, ledger: &Ledger) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ledger.failed() == 0,
            ledger.attempted(),
            ledger.failed()
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); zero for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = position.floor() as usize;
    let hi = position.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (position - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, zero when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_faster_item_never_raises_a_quantile() {
        let times = [1.0, 1.5, 4.0, 6.0];
        let faster = [0.25, 0.375, 4.0, 6.0];
        for q in [0.5, 0.9] {
            assert!(quantile(&faster, q) <= quantile(&times, q));
        }
    }

    #[test]
    fn result_line_is_json() {
        let mut ledger = Ledger::default();
        ledger.check(true, String::new);
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.25, "s");
        metrics.push("bad", f64::NAN, "count");
        let line = metrics.result_line(&ledger);
        let value = stfsm::json::JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(true));
        let setup = value.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("value")).and_then(|v| v.as_f64()),
            Some(0.25)
        );
    }
}
