//! What one run found: attempts and failures, every metric it computed,
//! and its spans; plus the two renderings — human-readable lines and the
//! one-line JSON result.

use crate::spans::Spans;
use distda_trace::json;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` where it is gated.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured: sample counts, medians of what.
    pub detail: String,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check or errored.
    pub failed: u64,
    /// The first failure messages (all are counted).
    pub failures: Vec<String>,
    /// Every metric, in the order computed.
    pub metrics: Vec<Metric>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Spans,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
}

const MAX_FAILURE_LINES: usize = 20;

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            spans: Spans::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked operation; an `Err` counts as failed.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.fail(msg);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_LINES {
            self.failures.push(msg);
        }
    }

    /// Records a metric.
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        detail: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            detail: detail.into(),
        });
    }

    /// A free-form report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable lines: notes, every metric with its unit and
    /// detail, then failures.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<34} {:>18} {:<9} {}\n",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.detail
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>18} {:<9} failed {} of {} attempted\n",
            "failed_ratio",
            fmt_value(self.failed as f64 / self.attempted.max(1) as f64),
            "ratio",
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("FAIL {f}\n"));
        }
        out
    }

    /// The one-line JSON result carrying the metrics named in `gated`.
    /// A gated metric the run did not produce is counted as a failed
    /// check and left out.
    pub fn render_json(&mut self, gated: &[String]) -> String {
        let mut parts = Vec::new();
        for name in gated {
            match self.get(name).cloned() {
                Some(m) if m.value.is_finite() => parts.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json::escape(&m.name),
                    m.value,
                    json::escape(m.unit)
                )),
                Some(_) => self.check(Err(format!("metric {name} is not a finite number"))),
                None => self.check(Err(format!("metric {name} was not produced"))),
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
