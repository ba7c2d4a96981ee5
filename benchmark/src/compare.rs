//! `compare <a.json> <b.json>`: is result set `b` worse than `a`?
//!
//! For every (workload, end-to-end metric) pair the two medians are set
//! side by side with their quartiles, the relative difference is given with
//! `a` as its base, and the pair gets one of three verdicts: `ok`, `worse`
//! (the median moved the wrong way by more than the metric's bound), or
//! `unresolved` (the spread of either side is wider than the bound and the
//! two interquartile ranges overlap, so the data cannot tell).

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::report::Report;
use crate::spec::{Metric, Workload, END_TO_END};
use crate::stats::{summarize, Summary};

/// A result file: what `run` wrote.
pub struct ResultSet {
    pub stamp: Value,
    pub runs: Vec<Report>,
}

impl ResultSet {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("stamp", self.stamp.clone()),
            (
                "runs",
                Value::Arr(self.runs.iter().map(Report::to_json).collect()),
            ),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = json::parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("result set has no runs")?
            .iter()
            .map(Report::from_json)
            .collect::<Result<_, _>>()?;
        Ok(ResultSet {
            stamp: doc.get("stamp").cloned().unwrap_or(Value::Null),
            runs,
        })
    }

    fn of(&self, workload: Workload) -> Vec<&Report> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload.name() && !r.trace)
            .collect()
    }

    /// A metric over the set's runs of one workload: across the runs'
    /// values when there are at least three runs, otherwise the first
    /// run's own value and quartiles over its reps.
    pub fn metric(&self, workload: Workload, name: &str) -> Option<Summary> {
        let values: Vec<f64> = self
            .of(workload)
            .iter()
            .filter_map(|r| r.metrics.get(name))
            .map(|s| s.value)
            .collect();
        if values.len() >= 3 {
            Some(summarize(&values))
        } else {
            self.of(workload).first()?.metrics.get(name).copied()
        }
    }

    /// Events failed ÷ events attempted over the set's runs of one workload.
    fn failure_share(&self, workload: Workload) -> Option<f64> {
        let runs = self.of(workload);
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        (attempted > 0).then(|| failed as f64 / attempted as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn judge(metric: &Metric, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let rel = if a.value == 0.0 {
        0.0
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let worsening = if metric.higher_is_better { -rel } else { rel };
    let wide = a.spread().max(b.spread()) > metric.bound;
    let verdict = if wide && a.overlaps(b) {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (rel, verdict)
}

/// The comparison table, and whether anything in it is `worse`.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<17} {:<17} {:>14} {:>25} {:>14} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "a [q1, q3]", "b", "b [q1, q3]", "(b-a)/a", "bound"
    );
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                a.metric(workload, metric.name),
                b.metric(workload, metric.name),
            ) else {
                continue;
            };
            let (rel, verdict) = judge(metric, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            let range = |s: &Summary| format!("[{:.5}, {:.5}]", s.q1, s.q3);
            let _ = writeln!(
                out,
                "{:<17} {:<17} {:>14.5} {:>25} {:>14.5} {:>25} {:>+8.2}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                sa.value,
                range(&sa),
                sb.value,
                range(&sb),
                rel * 100.0,
                metric.bound * 100.0,
                verdict.label()
            );
        }
        if let (Some(fa), Some(fb)) = (a.failure_share(workload), b.failure_share(workload)) {
            let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<17} {:<17} {:>14.6} {:>25} {:>14.6} {:>25} {:>9} {:>6}  {}",
                workload.name(),
                "failed/attempted",
                fa,
                "",
                fb,
                "",
                "",
                "",
                verdict.label()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value: median,
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts() {
        // A 10 % bound, whatever the shipped bounds are.
        let rate = &Metric {
            bound: 0.10,
            ..END_TO_END[1] // events_per_s: higher is better
        };
        assert!(rate.higher_is_better);
        let base = s(100.0, 99.0, 101.0);
        assert_eq!(judge(rate, &base, &s(95.0, 94.0, 96.0)).1, Verdict::Ok);
        assert_eq!(judge(rate, &base, &s(85.0, 84.0, 86.0)).1, Verdict::Worse);
        assert_eq!(judge(rate, &base, &s(130.0, 129.0, 131.0)).1, Verdict::Ok);
        // Wide and overlapping: the data cannot tell.
        assert_eq!(
            judge(rate, &base, &s(85.0, 70.0, 105.0)).1,
            Verdict::Unresolved
        );
        // Wide but clear of the baseline: still worse.
        assert_eq!(judge(rate, &base, &s(60.0, 50.0, 70.0)).1, Verdict::Worse);
        let cost = &Metric {
            bound: 0.10,
            ..END_TO_END[2] // cpu_ns_per_event: lower is better
        };
        assert!(!cost.higher_is_better);
        assert_eq!(
            judge(cost, &base, &s(115.0, 114.0, 116.0)).1,
            Verdict::Worse
        );
        assert_eq!(judge(cost, &base, &s(85.0, 84.0, 86.0)).1, Verdict::Ok);
    }
}
