//! What one child process (a cold pass, or the whole service run) hands
//! back to the parent: named samples, correctness outcomes, result
//! fingerprints and rendered spans, as text lines on its stdout.

use crate::spans::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples and outcomes gathered by one child process (or, merged, by a
/// whole run).
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    /// Named samples, e.g. `map_s` once per pass or `rtt_ms` once per job.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Correctness-checked operations attempted.
    pub attempted: u64,
    /// One message per failed, refused, timed-out or mismatched operation.
    pub failures: Vec<String>,
    /// Result fingerprint of each pass, in pass order.
    pub fingerprints: Vec<u64>,
    /// Spans as `job id parent name start_ns end_ns` lines.
    pub spans: Vec<String>,
}

impl Report {
    /// Appends one sample of `key`.
    pub fn push(&mut self, key: &str, value: f64) {
        self.values.entry(key.to_string()).or_default().push(value);
    }

    /// The samples of `key` (empty when none were taken).
    pub fn get(&self, key: &str) -> &[f64] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    /// Counts one correctness-checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Keeps `spans` for the span file written at the end of the run.
    pub fn keep_spans(&mut self, spans: &[Span]) {
        for s in spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            self.spans.push(format!(
                "{} {} {parent} {} {} {}",
                s.job, s.id, s.name, s.start_ns, s.end_ns
            ));
        }
    }

    /// Renders the report as lines for [`Report::decode`].
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (key, values) in &self.values {
            for v in values {
                writeln!(out, "value {key} {v}").expect("writing to a String");
            }
        }
        writeln!(out, "attempted {}", self.attempted).expect("writing to a String");
        for f in &self.failures {
            writeln!(out, "failure {}", f.replace('\n', " ")).expect("writing to a String");
        }
        for fp in &self.fingerprints {
            writeln!(out, "fingerprint {fp:016x}").expect("writing to a String");
        }
        for s in &self.spans {
            writeln!(out, "span {s}").expect("writing to a String");
        }
        out
    }

    /// Parses [`Report::encode`] output; a malformed line is an error.
    pub fn decode(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed report line `{line}`");
            match tag {
                "value" => {
                    let (key, value) = rest.split_once(' ').ok_or_else(bad)?;
                    report.push(key, value.parse().map_err(|_| bad())?);
                }
                "attempted" => report.attempted += rest.parse::<u64>().map_err(|_| bad())?,
                "failure" => report.failures.push(rest.to_string()),
                "fingerprint" => report
                    .fingerprints
                    .push(u64::from_str_radix(rest, 16).map_err(|_| bad())?),
                "span" => report.spans.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }

    /// Appends every sample and outcome of `other`.
    pub fn merge(&mut self, other: Report) {
        for (key, values) in other.values {
            self.values.entry(key).or_default().extend(values);
        }
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.fingerprints.extend(other.fingerprints);
        self.spans.extend(other.spans);
    }
}

/// FNV-1a over a sequence of words: folds per-job result fingerprints
/// into one per pass.
pub fn fold_fingerprints(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_and_merge() {
        let mut a = Report::default();
        a.push("map_s", 1.25);
        a.push("map_s", 0.1 + 0.2);
        a.check(true, || unreachable!());
        a.check(false, || "swaps differ\nfrom direct map".to_string());
        a.fingerprints.push(0xdead_beef);
        a.keep_spans(&[Span {
            job: 3,
            id: 0,
            parent: None,
            name: "pass",
            start_ns: 5,
            end_ns: 9,
        }]);
        let decoded = Report::decode(&a.encode()).unwrap();
        assert_eq!(decoded.get("map_s"), [1.25, 0.1 + 0.2]);
        assert_eq!(decoded.attempted, 2);
        assert_eq!(decoded.failures, ["swaps differ from direct map"]);
        assert_eq!(decoded.fingerprints, [0xdead_beef]);
        assert_eq!(decoded.spans, ["3 0 - pass 5 9"]);

        let mut merged = Report::default();
        merged.merge(decoded);
        merged.merge(Report::decode("value map_s 2\nattempted 1\n").unwrap());
        assert_eq!(merged.get("map_s"), [1.25, 0.1 + 0.2, 2.0]);
        assert_eq!(merged.attempted, 3);
        assert!(merged.get("rtt_ms").is_empty());
    }

    #[test]
    fn decode_rejects_unknown_lines() {
        assert!(Report::decode("hello world").is_err());
        assert!(Report::decode("value map_s fast").is_err());
    }

    #[test]
    fn folding_is_order_sensitive() {
        assert_ne!(fold_fingerprints([1, 2]), fold_fingerprints([2, 1]));
        assert_eq!(fold_fingerprints([1, 2]), fold_fingerprints([1, 2]));
    }
}
