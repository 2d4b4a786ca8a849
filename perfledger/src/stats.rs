//! Order statistics, seeded request streams and process probes.
//!
//! Percentiles here are nearest-rank over samples that may hold
//! `f64::INFINITY`: a shed, refused, failed or wrong request is recorded as
//! +∞, so it counts as missing every latency limit instead of vanishing
//! from the sample.

use std::time::Duration;

/// Nearest-rank `p`-quantile (`p` in `[0, 1]`) of `values`; `+∞` entries
/// sort last. `None` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`], 0 on an empty sample (for layers a workload does not
/// exercise).
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(0.0)
}

/// Median, 0 on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_or_zero(values, 0.5)
}

/// Geometric mean of positive values, 0 on an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64: the benchmark's own seeded generator for request streams,
/// so a stream depends on the seed alone and never on a library's
/// generator version.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
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
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Derives an independent seed for one purpose from the run seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf popularity over `n` items: item `i` (by rank) drawn with weight
/// `1 / (i + 1)^s`, ranks mapped to items through a permutation drawn from
/// `perm` (a workload's shape: which handles are hot).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, perm: &mut SplitMix) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, perm.below(i + 1));
        }
        Zipf { cumulative, items }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let total = *self.cumulative.last().expect("zipf over at least one item");
        let u = rng.unit() * total;
        let rank = self.cumulative.partition_point(|&c| c <= u).min(self.items.len() - 1);
        self.items[rank]
    }
}

/// Arrival offsets (ns from the start) of a Poisson process at `rate` per
/// second, covering `seconds`.
pub fn poisson_arrivals(rate: f64, seconds: f64, rng: &mut SplitMix) -> Vec<u64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.99), Some(f64::INFINITY));
        assert_eq!(percentile(&[f64::INFINITY; 3], 0.5), Some(f64::INFINITY));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(5.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn zipf_stream_reproduces_from_seed() {
        let z = Zipf::new(24, 1.1, &mut SplitMix::new(3));
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let s = draw(7);
        assert!(s.iter().all(|&i| i < 24));
        // Popularity is skewed: the top item takes far more than 1/24.
        let mut counts = [0usize; 24];
        for &i in &s {
            counts[i] += 1;
        }
        assert!(*counts.iter().max().unwrap() > 2000 / 8);
    }

    #[test]
    fn poisson_stream_reproduces_from_seed() {
        let a = poisson_arrivals(500.0, 4.0, &mut SplitMix::new(11));
        let b = poisson_arrivals(500.0, 4.0, &mut SplitMix::new(11));
        let c = poisson_arrivals(500.0, 4.0, &mut SplitMix::new(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
        // 2000 expected arrivals; Poisson sd ~45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }
}
