//! Seeded input generation and order statistics.

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: the workload generator's only source of randomness, so the
/// same `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6E6E_7274_6265_6E63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// An exponential inter-arrival gap at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank `q`-quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The p99 of each window of a run (a round, or a stretch of time),
/// median across windows: a tail figure that one slow spell of the host
/// moves by one window, not by the whole run.
pub fn windowed_p99(windows: &[Vec<f64>]) -> f64 {
    let p99s: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.99))
        .collect();
    median(&p99s)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
