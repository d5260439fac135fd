//! Prometheus text-format (version 0.0.4) rendering.
//!
//! A tiny append-only builder: `# HELP` / `# TYPE` headers, counter
//! and gauge samples with escaped labels, and histogram exposition
//! (`_bucket{le=...}` cumulative series plus `_sum` / `_count`) driven
//! by a [`Histogram`](crate::Histogram)'s `count_le`. Durations are
//! exposed in microseconds with power-of-two `le` bounds, which line
//! up exactly with the histogram's octave boundaries (see
//! [`Histogram::count_le`](crate::Histogram::count_le)).

use crate::hist::Histogram;
use std::fmt::Write as _;

/// `le` bounds `2^0 .. 2^max_exp` (inclusive), for duration
/// histograms in microseconds. `max_exp = 26` tops out at ~67 s.
pub fn power_of_two_bounds(max_exp: u32) -> Vec<u64> {
    (0..=max_exp).map(|e| 1u64 << e).collect()
}

/// Escapes a label value per the exposition format (`\`, `"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// An append-only Prometheus text-format document builder.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Writes `# HELP` and `# TYPE` headers for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one integer sample.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Writes one float sample.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Writes a full histogram family: cumulative `_bucket{le=...}`
    /// series over `bounds` plus `le="+Inf"`, `_sum`, and `_count`,
    /// all carrying `labels`.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        hist: &Histogram,
        bounds: &[u64],
    ) {
        for &bound in bounds {
            let le = bound.to_string();
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", le.as_str()));
            self.sample_u64(&format!("{name}_bucket"), &with_le, hist.count_le(bound));
        }
        let mut inf: Vec<(&str, &str)> = labels.to_vec();
        inf.push(("le", "+Inf"));
        self.sample_u64(&format!("{name}_bucket"), &inf, hist.count());
        self.sample_u64(&format!("{name}_sum"), labels, hist.sum());
        self.sample_u64(&format!("{name}_count"), labels, hist.count());
    }

    /// Finishes the document, returning the exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_escapes() {
        let mut p = PromText::new();
        p.header("qrc_requests_total", "counter", "Requests received.");
        p.sample_u64("qrc_requests_total", &[], 7);
        p.sample_u64("qrc_responses_total", &[("cache", "miss\"x\\y\n")], 3);
        p.sample_f64("qrc_uptime_seconds", &[], 1.5);
        let text = p.finish();
        assert!(text.contains("# HELP qrc_requests_total Requests received.\n"));
        assert!(text.contains("# TYPE qrc_requests_total counter\n"));
        assert!(text.contains("qrc_requests_total 7\n"));
        assert!(text.contains("qrc_responses_total{cache=\"miss\\\"x\\\\y\\n\"} 3\n"));
        assert!(text.contains("qrc_uptime_seconds 1.5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 5, 100] {
            h.record(v);
        }
        let mut p = PromText::new();
        p.histogram(
            "qrc_stage_duration_microseconds",
            &[("stage", "parse")],
            &h,
            &[1, 4, 64],
        );
        let text = p.finish();
        assert!(
            text.contains("qrc_stage_duration_microseconds_bucket{stage=\"parse\",le=\"1\"} 1\n")
        );
        assert!(
            text.contains("qrc_stage_duration_microseconds_bucket{stage=\"parse\",le=\"4\"} 3\n")
        );
        assert!(
            text.contains("qrc_stage_duration_microseconds_bucket{stage=\"parse\",le=\"64\"} 4\n")
        );
        assert!(text
            .contains("qrc_stage_duration_microseconds_bucket{stage=\"parse\",le=\"+Inf\"} 5\n"));
        assert!(text.contains("qrc_stage_duration_microseconds_sum{stage=\"parse\"} 111\n"));
        assert!(text.contains("qrc_stage_duration_microseconds_count{stage=\"parse\"} 5\n"));
    }

    #[test]
    fn power_of_two_bounds_cover_the_range() {
        let bounds = power_of_two_bounds(26);
        assert_eq!(bounds.first(), Some(&1));
        assert_eq!(bounds.last(), Some(&(1 << 26)));
        assert_eq!(bounds.len(), 27);
    }
}
