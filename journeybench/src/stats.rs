//! Sample collection and the summary statistics every workload reports.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The length of the windows a run's samples are grouped into by when
/// they ended. The shared host this benchmark was tuned on slows all
/// work by tens of percent for stretches of a few seconds; one-second
/// windows are short enough that a run holds quiet ones.
const WINDOW_S: f64 = 1.0;

/// The fewest samples a window needs for its median to count.
const WINDOW_MIN_SAMPLES: usize = 5;

/// Seconds since the first call, on one clock for every thread.
fn clock_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The window (see [`WINDOW_S`]) a sample that ended at `t` falls in.
fn window(t: f64) -> u64 {
    (t / WINDOW_S) as u64
}

/// Median of `v` (interpolated between the middle pair); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `v` (nearest rank); 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail of `v`: the highest percentile with at least ten samples
/// beyond it, as `(q, value)`. With ten or fewer samples there is no
/// such percentile and the maximum is returned with `q = 1`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (1.0, 0.0);
    }
    if n <= 10 {
        return (1.0, s[n - 1]);
    }
    ((n - 10) as f64 / n as f64, s[n - 11])
}

/// Everything one run measures. Workers on other threads fill their
/// own `Rec` and [`merge`](Rec::merge) it into the run's.
#[derive(Default)]
pub struct Rec {
    /// Per-step latency samples, µs.
    pub lat: BTreeMap<&'static str, Vec<f64>>,
    /// When each latency sample ended, seconds on [`clock_s`].
    ended: BTreeMap<&'static str, Vec<f64>>,
    /// User operations attempted (every timed call, plus operations
    /// that were refused before they could be timed).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Sum of the timed operations' durations.
    pub busy: Duration,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
    /// Traced runs: per (step, layer row) total µs.
    pub layers: BTreeMap<(&'static str, &'static str), f64>,
    /// Traced runs: exact counts (journal ops, selects, bytes, ...).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Rec {
    /// Runs `f` as one user operation of `step`, recording its latency.
    pub fn time<T>(&mut self, step: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        self.sample(step, d);
        out
    }

    /// Records an operation of `step` that took `d`.
    pub fn sample(&mut self, step: &'static str, d: Duration) {
        self.sample_ended_at(step, d, clock_s());
    }

    /// Records an operation of `step` that took `d` and ended at `ended`
    /// seconds on [`clock_s`].
    fn sample_ended_at(&mut self, step: &'static str, d: Duration, ended: f64) {
        self.attempted += 1;
        self.busy += d;
        self.lat
            .entry(step)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
        self.ended.entry(step).or_default().push(ended);
    }

    /// `step`'s median latency over the quieter stretches of the run, µs:
    /// the lower quartile of the medians of the windows that hold at
    /// least [`WINDOW_MIN_SAMPLES`] samples. With fewer than four such
    /// windows it is the whole run's median.
    pub fn quiet_p50(&self, step: &str) -> f64 {
        let (Some(v), Some(ended)) = (self.lat.get(step), self.ended.get(step)) else {
            return 0.0;
        };
        let mut by_window: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (&us, &t) in v.iter().zip(ended) {
            by_window.entry(window(t)).or_default().push(us);
        }
        let medians: Vec<f64> = by_window
            .values()
            .filter(|s| s.len() >= WINDOW_MIN_SAMPLES)
            .map(|s| median(s))
            .collect();
        if medians.len() < 4 {
            median(v)
        } else {
            percentile(&medians, 0.25)
        }
    }

    /// Operations per second over the quieter stretches of the run: the
    /// upper quartile, over the run's whole windows (the first and last
    /// are partial and left out), of each window's operations per second:
    /// between its first and last completion when operations overlap
    /// (`wall`), else over their summed times. `None` with fewer than
    /// four whole windows.
    pub fn quiet_ops_per_s(&self, wall: bool) -> Option<f64> {
        // Per window: operations, summed seconds, first and last end.
        let mut by_window: BTreeMap<u64, (f64, f64, f64, f64)> = BTreeMap::new();
        for (step, v) in &self.lat {
            for (&us, &t) in v.iter().zip(&self.ended[step]) {
                let w = by_window
                    .entry(window(t))
                    .or_insert((0.0, 0.0, f64::INFINITY, 0.0));
                w.0 += 1.0;
                w.1 += us * 1e-6;
                w.2 = w.2.min(t);
                w.3 = w.3.max(t);
            }
        }
        if by_window.len() < 6 {
            return None;
        }
        let rates: Vec<f64> = by_window
            .values()
            .skip(1)
            .take(by_window.len() - 2)
            .map(|&(ops, busy_s, first, last)| {
                if wall {
                    (ops - 1.0) / (last - first).max(1e-9)
                } else {
                    ops / busy_s
                }
            })
            .collect();
        Some(percentile(&rates, 0.75))
    }

    /// Marks one attempted operation as failed or wrongly answered.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Adds `d` to the `row` of `step`'s layer table.
    pub fn layer(&mut self, step: &'static str, row: &'static str, d: Duration) {
        *self.layers.entry((step, row)).or_default() += d.as_secs_f64() * 1e6;
    }

    /// Adds `n` to the exact counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The exact counter `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Calls of `step` recorded so far.
    pub fn calls(&self, step: &str) -> usize {
        self.lat.get(step).map_or(0, Vec::len)
    }

    /// Total µs spent in `step`.
    pub fn step_total(&self, step: &str) -> f64 {
        self.lat.get(step).map_or(0.0, |v| v.iter().sum())
    }

    /// Total µs of `row` summed over `steps`.
    pub fn row_total(&self, steps: &[&str], row: &str) -> f64 {
        self.layers
            .iter()
            .filter(|((s, r), _)| steps.contains(s) && *r == row)
            .map(|(_, v)| v)
            .sum()
    }

    /// Folds another thread's recording into this one.
    pub fn merge(&mut self, other: Rec) {
        for (k, v) in other.lat {
            self.lat.entry(k).or_default().extend(v);
        }
        for (k, v) in other.ended {
            self.ended.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        for (k, v) in other.layers {
            *self.layers.entry(k).or_default() += v;
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, value) = tail(&v);
        assert_eq!(value, 90.0);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(tail(&[5.0, 7.0]), (1.0, 7.0));
    }

    #[test]
    fn quiet_figures_come_from_the_quieter_windows() {
        let mut rec = Rec::default();
        // Eight windows of ten samples each, 100, 110, ..., 170 µs.
        for w in 0..8u32 {
            for i in 0..10u32 {
                let us = 100 + 10 * w;
                let ended = f64::from(w) * WINDOW_S + f64::from(i) * 0.05;
                rec.sample_ended_at("replan", Duration::from_micros(us.into()), ended);
            }
        }
        // Too few samples for its median to count.
        rec.sample_ended_at("replan", Duration::from_micros(1), 8.5 * WINDOW_S);
        assert_eq!(rec.quiet_p50("replan"), 110.0);
        // Windows 0 and 8 are partial and left out; windows 1..=7 run
        // at 1e6/110, ..., 1e6/170 ops/s, whose upper quartile (nearest
        // rank 6 of 7) is 1e6/120.
        let rate = rec.quiet_ops_per_s(false).expect("enough windows");
        assert!((rate - 1e6 / 120.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }
}
