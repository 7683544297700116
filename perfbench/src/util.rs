//! Seeded randomness, order statistics, and the result report.

use std::fmt::Write as _;

/// SplitMix64: a small, seedable generator. Every input the benchmark
/// feeds the program is drawn from one of these, so a seed fixes the
/// inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the phases'
    /// inputs do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A multiplier in `[1 - spread, 1 + spread)`.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        self.range(1.0 - spread, 1.0 + spread)
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The `q`-quantile of ascending `sorted` by linear interpolation between
/// order statistics (0.0 for an empty slice).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0.0 when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric: its value plus the count and quartiles of the
/// samples it summarizes (for the human-readable table).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub quartiles: [f64; 3],
}

/// Everything a run reports: metrics, operation counts, failed checks,
/// and descriptive notes (realized mix, host facts, result hashes).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    /// Records the `q`-quantile of ascending `sorted` samples.
    pub fn quantile(&mut self, name: &str, unit: &'static str, q: f64, sorted: &[f64]) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: quantile_sorted(sorted, q),
            n: sorted.len(),
            quartiles: [0.25, 0.5, 0.75].map(|p| quantile_sorted(sorted, p)),
        });
    }

    /// Records a metric that is a single measured number.
    pub fn scalar(&mut self, name: &str, unit: &'static str, value: f64) {
        self.quantile(name, unit, 0.5, &[value]);
    }

    /// Records a failed check (the run reports `"correct": false`).
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: check failed: {message}");
        self.problems.push(message);
    }

    /// Counts `ok + bad` attempted operations, `bad` of them failed.
    pub fn ops(&mut self, ok: u64, bad: u64) {
        self.attempted += ok + bad;
        self.failed += bad;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable table (every metric with unit, sample count,
    /// quartiles and reported value), then the one-line JSON result.
    pub fn render(&self, names: &[&str]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>7} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "q1", "median", "q3", "value"
        );
        for name in names {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                let _ = writeln!(
                    out,
                    "{:<36} {:>8} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
                    m.name, m.unit, m.n, m.quartiles[0], m.quartiles[1], m.quartiles[2], m.value
                );
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if first { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
            first = false;
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}
