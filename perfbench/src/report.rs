//! Run results, order statistics and the hand-written JSON the benchmark prints.

use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced: the operation tally, the metrics of the final line
/// and the fields of the run record printed just before it.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `false` once any correctness check failed; every failed check also
    /// prints a `check failed:` line on standard error.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome { correct: true, ..Outcome::default() }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record one correctness check; a failure is reported and marks the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("operation failed: {what}");
        }
    }

    /// The timing metrics of a timed run.  Each gated timing is the run's
    /// [`Samples::tail`]: on a virtual machine that shares its cores, a
    /// session's speed flips between a contended and an uncontended level,
    /// and the share of each moves from run to run, which moves the median
    /// with it, while the contended level repeats.  Medians and throughput go
    /// to the record.
    pub fn timings(
        &mut self,
        setup: &Samples,
        mine: &Samples,
        bounds: &Samples,
        client_mine: &Samples,
        update: &Samples,
        qps: f64,
    ) {
        self.metric("setup_s", setup.tail().0, "s");
        self.metric("mine_s", mine.tail().0, "s");
        self.metric("bounds_mine_s", bounds.tail().0, "s");
        self.metric("mine_p90_ms", client_mine.tail().0 * 1e3, "ms");
        self.metric("update_p90_ms", update.tail().0 * 1e3, "ms");
        let reported = [
            ("mine_p50_ms", client_mine.median() * 1e3, "ms"),
            ("update_p50_ms", update.median() * 1e3, "ms"),
            ("qps", qps, "1/s"),
        ];
        let reported: Vec<(&str, String)> = reported
            .iter()
            .map(|&(name, value, unit)| {
                (name, object(&[("value", number(value)), ("unit", string(unit))]))
            })
            .collect();
        self.record.push(("reported", object(&reported)));
        for (name, samples, scale) in [
            ("setup_ms", setup, 1e3),
            ("mine_ms", mine, 1e3),
            ("bounds_mine_ms", bounds, 1e3),
            ("client_mine_ms", client_mine, 1e3),
            ("update_ms", update, 1e3),
        ] {
            self.record.push((name, samples.summary(scale)));
        }
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    object(&[("value", number(m.value)), ("unit", string(m.unit))]),
                )
            })
            .collect();
        object(&[
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", object(&metrics)),
        ])
    }

    pub fn record_line(&self) -> String {
        object(&[("record", object(&self.record))])
    }
}

/// A set of latency samples in seconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl From<Vec<f64>> for Samples {
    fn from(seconds: Vec<f64>) -> Self {
        Samples(seconds)
    }
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle two for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest nearest-rank percentile, at most the 90th, that leaves at
    /// least ten samples above it, as `(value, percentile)`.  Below twenty
    /// samples no percentile above the median qualifies, and the median is
    /// returned.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n < 20 {
            return (self.median(), 50.0);
        }
        let rank = (n * 9).div_ceil(10).min(n - 10);
        (v[rank - 1], 100.0 * rank as f64 / n as f64)
    }

    /// `{"n": .., "p50": .., "tail": .., "tail_pct": ..}` for the run record.
    pub fn summary(&self, scale: f64) -> String {
        let (tail, pct) = self.tail();
        object(&[
            ("n", self.len().to_string()),
            ("p50", number(self.median() * scale)),
            ("tail", number(tail * scale)),
            ("tail_pct", number(pct)),
        ])
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form keeps.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", string(k.as_ref()))).collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in (1..=n).rev() {
            s.push(Duration::from_millis(i as u64));
        }
        s
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(samples(200).tail(), (0.180, 90.0));
        // 30 samples: the 90th percentile would leave 3 above, so rank 20 is used.
        let (value, pct) = samples(30).tail();
        assert_eq!(value, 0.020);
        assert!((pct - 66.666).abs() < 0.01);
        assert_eq!(samples(19).tail(), (0.010, 50.0));
        assert_eq!(samples(4).median(), 0.0025);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(number(0.123456789012345), "0.123456789012345");
        assert_eq!(object(&[("x", number(1.5))]), "{\"x\": 1.5}");
    }
}
