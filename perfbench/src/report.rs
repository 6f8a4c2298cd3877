//! Metrics, output checks, and the result line.

use crate::stats::valid_metric_name;
use niid_bench_rs::json::{parse, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: String,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// A workload's metrics plus the tally of attempted and failed
/// operations (party updates and output checks).
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the `--trace` mode's result line.
    pub metrics: Vec<Metric>,
    /// Extra rows for the human-readable table only (per model layer).
    pub detail: Vec<Metric>,
    /// Party updates plus output checks attempted.
    pub attempted: usize,
    /// Failed party updates plus failed output checks.
    pub failed: usize,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Record party updates: `attempted` of them, `failed` failed.
    pub fn updates(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Add a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Add a table-only row.
    pub fn detail(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Share of attempts that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Validate every metric (name rule, finite value): a bad metric is
    /// itself a failed check.
    fn validate(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.detail)
            .filter(|m| !valid_metric_name(&m.name) || !m.value.is_finite())
            .map(|m| format!("metric {} = {} is not a valid measurement", m.name, m.value))
            .collect();
        for b in bad {
            self.check(false, || b);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// Print the table (name, value, unit, samples), then the result line.
    pub fn print(mut self, workload: &str) {
        self.validate();
        println!("== {workload}");
        for m in self.metrics.iter().chain(&self.detail) {
            println!(
                "{:<34} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<34} {:>16.6} {:<8} n={}",
            "failed_frac",
            self.failed_frac(),
            "frac",
            self.attempted
        );
        println!("{}", self.json_line());
    }

    /// Parse a child's result line.
    pub fn parse_line(line: &str) -> Option<Report> {
        let v = parse(line).ok()?;
        let mut r = Report {
            attempted: v.get("attempted")?.as_f64()? as usize,
            failed: v.get("failed")?.as_f64()? as usize,
            ..Report::default()
        };
        for (name, m) in v.get("metrics")?.as_obj()? {
            r.metric(name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?, 0);
        }
        Some(r)
    }

    /// Fold a workload's report into a combined one, prefixing names.
    pub fn absorb(&mut self, workload: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            self.metric(
                &format!("{workload}.{}", m.name),
                m.value,
                &m.unit,
                m.samples,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_counts_failures() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.25, "ms", 10);
        r.updates(10, 0);
        r.check(true, || unreachable!());
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":11,\"failed\":0,"));
        let back = Report::parse_line(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (11, 0));
        assert_eq!(back.metrics[0].value, 1.25);
        assert_eq!(back.metrics[0].unit, "ms");

        r.metric("bad name", f64::NAN, "ms", 1);
        r.validate();
        assert_eq!(r.failed, 1);
        assert!(r.json_line().contains("\"correct\":false"));
    }
}
