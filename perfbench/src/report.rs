//! Run results: the metrics by name and unit, the detail lines a reader
//! needs to trust them, and the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::Pct;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (percentile and sample count, ...).
    pub note: String,
    /// End-to-end metrics only: whether the result line carries it.
    pub gated: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Free-form detail lines (run record, per-rung tables, checks).
    pub details: Vec<String>,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note,
        gated: true,
    }
}

/// The note for a percentile: which one and over how many samples.
pub fn pct_note(p: Option<Pct>) -> String {
    match p {
        Some(p) => format!("p{} of n={}", p.pct, p.n),
        None => "no samples".into(),
    }
}

pub fn pct_value(p: Option<Pct>) -> f64 {
    p.map_or(0.0, |p| p.value)
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.e2e.push(metric(name, value, unit, note.into()));
    }

    /// A latency an end user sees, printed with the end-to-end metrics
    /// but left out of the untraced result line: on a shared VM its
    /// run-to-run spread is wider than any bound that would still catch a
    /// regression. Traced runs report it per layer, as `latency.<name>`.
    pub fn latency(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.e2e.push(Metric {
            gated: false,
            ..metric(name, value, "ms", note.into())
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.layer.push(metric(name, value, unit, note.into()));
    }

    pub fn detail(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }

    pub fn find_e2e(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable listing of every metric, by name with its unit.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for d in &self.details {
            let _ = writeln!(out, "{d}");
        }
        let sections: &[(&str, &[Metric])] = if trace {
            &[
                ("end-to-end (traced)", &self.e2e),
                ("per layer", &self.layer),
            ]
        } else {
            &[("end-to-end", &self.e2e)]
        };
        for (title, metrics) in sections {
            let _ = writeln!(out, "== {title}");
            for m in *metrics {
                let gate = if m.gated { "" } else { " (not gated)" };
                let _ = writeln!(
                    out,
                    "  {:<36} {:>14.4} {:<10} {}{gate}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace { &self.layer } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .filter(|m| m.gated)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Reads back a result line written by [`Report::json`] (the metrics'
/// units are not needed and come back empty).
pub fn parse_result(line: &str) -> Option<Report> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut r = Report {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        ..Default::default()
    };
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    for entry in metrics.split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry.split("\"value\": ").nth(1)?;
        let value: f64 = value[..value.find(',')?].parse().ok()?;
        r.e2e(name, value, "", "");
    }
    Some(r)
}

/// A finite number in JSON syntax, with all its digits.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('E') {
        format!("{v:.12}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_the_chosen_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        r.e2e("setup_s", 0.25, "s", "");
        r.layer("search.us_per_frame", 6.5, "us", "");
        assert_eq!(
            r.json(false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r
            .json(true)
            .contains("\"search.us_per_frame\": {\"value\": 6.5"));
        let back = parse_result(&r.json(false)).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (3, 0));
        assert_eq!(back.find_e2e("setup_s"), Some(0.25));
        assert_eq!(back.e2e.len(), 1);
        r.e2e("wer_pct", 12.5, "%", "");
        r.latency("final_p50_ms", 3.5, "");
        let back = parse_result(&r.json(false)).unwrap();
        assert_eq!(back.find_e2e("wer_pct"), Some(12.5));
        assert_eq!(back.find_e2e("final_p50_ms"), None);
        assert!(parse_result("not json").is_none());
        assert_eq!(json_num(1e-7), "0.000000100000");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(3.0), "3.0");
    }
}
