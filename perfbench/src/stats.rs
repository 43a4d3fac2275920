//! Latency summaries under the benchmark's percentile rule: a
//! percentile is reported only when at least ten samples lie beyond it.

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Nearest-rank quantile `q` of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample summarized by median and tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail value actually reported.
    pub tail: f64,
    /// The quantile `tail` stands for: the wanted one when the sample
    /// leaves ten beyond it, else 1.0 (the maximum).
    pub tail_q: f64,
}

impl Summary {
    /// Summarize `values` with the wanted tail quantile `tail_q`. A
    /// sample too small for that quantile reports its maximum instead,
    /// marked by `tail_q == 1.0`, never an unsupported percentile.
    pub fn new(values: &[f64], tail_q: f64) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "summary of nothing");
        let supported = beyond(n, tail_q) >= MIN_BEYOND;
        let q = if supported { tail_q } else { 1.0 };
        Summary {
            n,
            p50: median(&v),
            tail: quantile(&v, q),
            tail_q: q,
        }
    }

    /// `p99`, `p90`, … or `max` for the tail actually reported.
    pub fn tail_label(&self) -> String {
        if self.tail_q >= 1.0 {
            "max".to_string()
        } else {
            format!("p{}", (self.tail_q * 100.0).round())
        }
    }
}

/// Every percentile of p50, p90, p95, p99 and p99.9 that leaves ten
/// samples beyond it, then the maximum, as `(label, value)` pairs.
pub fn ladder(values: &[f64]) -> Vec<(String, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out: Vec<(String, f64)> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .into_iter()
        .filter(|&q| beyond(v.len(), q) >= MIN_BEYOND)
        .map(|q| (format!("p{}", q * 100.0), quantile(&v, q)))
        .collect();
    if let Some(&max) = v.last() {
        out.push(("max".to_string(), max));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        // p99 of 1000 samples is rank 990 (1-based): 10 lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        assert_eq!(beyond(1, 0.5), 0);
        assert_eq!(beyond(0, 0.5), 0);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::new(&v, 0.99);
        assert_eq!((s.tail, s.tail_q, s.n), (990.0, 0.99, 1000));
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.p50, 500.5);

        let short = Summary::new(&v[..999], 0.99);
        assert_eq!((short.tail, short.tail_q), (999.0, 1.0));
        assert_eq!(short.tail_label(), "max");

        let one = Summary::new(&[7.0], 0.9);
        assert_eq!((one.p50, one.tail), (7.0, 7.0));
    }

    #[test]
    fn ladder_stops_where_the_sample_runs_out() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let labels: Vec<String> = ladder(&v).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["p50", "p90", "p95", "max"]);
        assert_eq!(ladder(&[3.0]), vec![("max".to_string(), 3.0)]);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
