//! What one run reports, and how it is printed.

use mube_core::jsonw::JsonBuf;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `op_time_rel` or `cluster.self_s`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// First failure reasons.
    pub reasons: Vec<String>,
    /// Output checks that do not belong to one operation: `(check, passed,
    /// detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// The metrics of the last output line (`end_to_end` untraced,
    /// `per_layer` traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end metrics under their own names
    /// (`solve_s`, `write_req_p50_ms`, ...).
    pub detail: Vec<Metric>,
    /// How the result was produced: machine, build, seed, server flags.
    pub record: Vec<(&'static str, String)>,
}

impl Report {
    /// Records an output check.
    pub fn check(&mut self, what: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((what.to_string(), passed, detail.into()));
    }

    /// Records a fact about how the run was made.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    /// Whether every operation and every output check passed and every
    /// reported number is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.1)
            && self
                .metrics
                .iter()
                .chain(&self.detail)
                .all(|m| m.value.is_finite())
    }

    /// Prints the human-readable summary, then a `detail` JSON line, then
    /// the result line (always last).
    pub fn print(&self, workload: &str) {
        for m in self.metrics.iter().chain(&self.detail) {
            println!(
                "{workload:>15}  {:<28} {:>16.6} {}",
                m.name, m.value, m.unit
            );
        }
        for (what, passed, detail) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            println!("{workload:>15}  check {verdict} {what}: {detail}");
        }
        for r in &self.reasons {
            println!("{workload:>15}  failed op: {r}");
        }
        println!("{}", self.detail_line(workload));
        println!("{}", self.result_line());
    }

    /// Everything about the run as one JSON object.
    pub fn detail_line(&self, workload: &str) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("workload").str_value(workload);
        j.key("detail");
        write_metrics(&mut j, &self.detail);
        j.key("record").begin_obj();
        for (k, v) in &self.record {
            j.key(k).str_value(v);
        }
        j.end_obj();
        j.key("checks").begin_arr();
        for (what, passed, detail) in &self.checks {
            j.begin_obj();
            j.key("check").str_value(what);
            j.key("passed").bool_value(*passed);
            j.key("detail").str_value(detail);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn result_line(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("correct").bool_value(self.correct());
        j.key("attempted").uint_value(self.attempted.max(1));
        j.key("failed").uint_value(self.failed);
        j.key("metrics");
        write_metrics(&mut j, &self.metrics);
        j.end_obj();
        j.finish()
    }
}

fn write_metrics(j: &mut JsonBuf, metrics: &[Metric]) {
    j.begin_obj();
    for m in metrics {
        j.key(m.name).begin_obj();
        j.key("value").num_value(m.value);
        j.key("unit").str_value(m.unit);
        j.end_obj();
    }
    j.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metrics.push(metric("op_p50_ms", 1.25, "ms"));
        assert_eq!(
            r.result_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn failures_checks_and_non_finite_values_make_a_run_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.check("digest", false, "differs");
        assert!(!r.correct());
        let mut r = Report {
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        r.detail.push(metric("x", f64::NAN, "s"));
        assert!(!r.correct());
    }
}
