//! Percentiles and the JSON the benchmark prints.

/// Percentile ladder tried, highest first, when reporting the highest
/// percentile a sample supports.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample summarised the way the report needs it.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Samples (failures included as +inf).
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest ladder percentile with at least ten samples beyond it.
    pub top_pct: f64,
    /// The value at `top_pct`.
    pub top: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let top_pct = LADDER
            .iter()
            .copied()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Summary {
            count: v.len(),
            p50: percentile(&v, 50.0),
            p99: percentile(&v, 99.0),
            top_pct,
            top: percentile(&v, top_pct),
        }
    }

    /// `{"count": .., "p50": .., "p99": .., "top_pct": .., "top": ..}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50\": {}, \"p99\": {}, \"top_pct\": {}, \"top\": {}}}",
            self.count,
            num(self.p50),
            num(self.p99),
            self.top_pct,
            num(self.top)
        )
    }
}

/// A JSON number; non-finite values (no samples, or a failure's +inf)
/// become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for JSON.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The ordered metric list a run prints.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.items.push((name.to_string(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.items.iter().all(|(_, v, _)| v.is_finite())
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(n),
                    num(*v),
                    string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// One line per metric, for the human-readable part of the output.
    pub fn lines(&self) -> String {
        self.items
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {v:>14.4} {u}\n"))
            .collect()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).top_pct, 99.0);
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).top_pct, 99.99);
        let v: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(Summary::of(&v).top_pct, 50.0);
    }
}
