//! What one child measured, and its one-line JSON form.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::spec::{self, Workload};
use crate::stats::Summary;

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Stream events (or, `sim_debug`, trace events of the `Dual` runs)
    /// offered during the timed phase.
    pub attempted: u64,
    /// Events of every rep that errored, timed out, shed, or whose summary
    /// or report count differed from the in-process twin's.
    pub failed: u64,
    /// Why reps failed (first few).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, Summary>,
    /// Exact, seed-determined counts (events per rep, reports per rep, …):
    /// what the tests pin and what two runs of one seed must agree on.
    pub counts: BTreeMap<String, u64>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.name().to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A report for a child that produced none: everything it was asked to
    /// do counts as failed.
    pub fn lost(workload: Workload, seed: u64, trace: bool, why: String) -> Report {
        let mut report = Report::new(workload, seed, trace);
        report.attempted = 1;
        report.failed = 1;
        report.errors.push(why);
        for m in spec::metrics(trace) {
            report
                .metrics
                .insert(m.name.to_string(), Summary::single(0.0));
        }
        report
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        self.metrics.insert(name.to_string(), summary);
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, events: u64, why: String) {
        self.failed += events;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |s| s.value)
    }

    /// The full record: what children print and result files hold.
    pub fn to_json(&self) -> Value {
        let metrics = spec::metrics(self.trace)
            .iter()
            .filter_map(|m| {
                let s = self.metrics.get(m.name)?;
                let v = Value::obj([
                    ("value", Value::from(s.value)),
                    ("unit", Value::str(m.unit)),
                    ("median", Value::from(s.median)),
                    ("q1", Value::from(s.q1)),
                    ("q3", Value::from(s.q3)),
                    ("n", Value::from(s.n as u64)),
                ]);
                Some((m.name.to_string(), v))
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("seed", Value::from(self.seed)),
            ("trace", Value::Bool(self.trace)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "errors",
                Value::Arr(self.errors.iter().map(Value::str).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
            ("counts", Value::Obj(counts)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Report, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("report has no {k:?}"));
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let num = |k: &str| {
                m.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name:?} has no {k:?}"))
            };
            metrics.insert(
                name.clone(),
                Summary {
                    value: num("value")?,
                    median: num("median")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    n: num("n")? as usize,
                },
            );
        }
        let counts = field("counts")?
            .as_obj()
            .ok_or("counts is not an object")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect();
        Ok(Report {
            workload: field("workload")?.as_str().ok_or("workload")?.to_string(),
            seed: field("seed")?.as_u64().ok_or("seed")?,
            trace: field("trace")?.as_bool().ok_or("trace")?,
            attempted: field("attempted")?.as_u64().ok_or("attempted")?,
            failed: field("failed")?.as_u64().ok_or("failed")?,
            errors: field("errors")?
                .as_arr()
                .ok_or("errors")?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            metrics,
            counts,
        })
    }

    /// The last line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly a value and a unit.
    pub fn contract_line(&self) -> String {
        let metrics = spec::metrics(self.trace)
            .iter()
            .map(|m| {
                let v = Value::obj([
                    ("value", Value::from(self.value(m.name))),
                    ("unit", Value::str(m.unit)),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} ({}) attempted {} failed {}\n",
            self.workload,
            self.seed,
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            },
            self.attempted,
            self.failed
        );
        for m in spec::metrics(self.trace) {
            let Some(s) = self.metrics.get(m.name) else {
                continue;
            };
            out.push_str(&format!(
                "{:<34} {:>16.4} {:<6} q1 {:<14.4} median {:<14.4} q3 {:<14.4} n {}\n",
                m.name, s.value, m.unit, s.q1, s.median, s.q3, s.n
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("!! {e}\n"));
        }
        out
    }
}
