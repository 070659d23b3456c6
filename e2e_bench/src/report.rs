//! The result a run prints: metrics by name with units, and the last-line
//! JSON object that ends the output.

use nilm_json::JsonValue;
use std::collections::BTreeMap;

use crate::openloop::reported_ms;

/// Metrics of one run, by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Keeps only `names` and fills every missing one with 0 in its unit:
    /// a layer the workload does not exercise reports no work. A latency
    /// that failures made infinite reads as [`reported_ms`] gives it, worse
    /// than any reply.
    pub fn complete(&mut self, names: &[(&'static str, &'static str)]) {
        let mut out = BTreeMap::new();
        for &(name, unit) in names {
            let value = self.values.get(name).map_or(0.0, |v| v.0);
            out.insert(name, (reported_ms(value), unit));
        }
        self.values = out;
    }

    /// Human-readable lines, one metric each: every metric set, including
    /// the ones the result line leaves out (`failed_pct`, `train_s`, ...).
    pub fn print(&self) {
        for (name, (value, unit)) in &self.values {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.values
                .iter()
                .map(|(name, (value, unit))| {
                    (
                        name.to_string(),
                        JsonValue::object([
                            ("value", JsonValue::Number(*value)),
                            ("unit", JsonValue::String(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Whether every output matched its check.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Operations that failed (error, timeout, mismatch).
    pub failed: usize,
    /// Metrics measured.
    pub metrics: Metrics,
    /// Run details: rungs, sample counts, sum checks.
    pub details: Vec<(&'static str, JsonValue)>,
    /// The autotuner's winner table while the workload was measured,
    /// before any layer probe raced shapes of its own.
    pub winners: Vec<String>,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut doc = BTreeMap::new();
    doc.insert("correct".to_string(), JsonValue::Bool(outcome.correct));
    doc.insert("attempted".to_string(), JsonValue::Number(outcome.attempted as f64));
    doc.insert("failed".to_string(), JsonValue::Number(outcome.failed as f64));
    doc.insert("metrics".to_string(), outcome.metrics.to_json());
    JsonValue::Object(doc).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_latency_reads_as_the_timeout_and_missing_layers_as_zero() {
        let mut m = Metrics::default();
        m.set("latency_p50_ms", f64::INFINITY, "ms");
        m.set("setup_s", 0.25, "s");
        m.set("not_listed", 1.0, "count");
        m.complete(&[("latency_p50_ms", "ms"), ("setup_s", "s"), ("goodput_rps", "1/s")]);
        assert_eq!(m.get("latency_p50_ms"), Some(5000.0));
        assert_eq!(m.get("setup_s"), Some(0.25));
        assert_eq!(m.get("goodput_rps"), Some(0.0));
        assert_eq!(m.get("not_listed"), None);
    }
}
