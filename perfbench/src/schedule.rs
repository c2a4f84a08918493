//! Seeded inputs: open-loop arrival schedules, variant choices and input
//! pools. Everything a run sends is a pure function of `--seed`, so the
//! same seed replays the same arrival times, variants and input bits.

use std::time::Duration;

/// Stream separators, so arrival times, variant picks and input values
/// draw from independent sequences of one seed.
const DOMAIN_TIMES: u64 = 0xA221_7A15;
const DOMAIN_PICKS: u64 = 0x9C1C_5E75;
const DOMAIN_INPUTS: u64 = 0x1B7D_A7A0;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled request: when it is due (offset from the run's start),
/// which variant it targets and which pool input it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub variant: usize,
    pub input: usize,
}

/// Poisson arrivals at `rate` per second over `span`, conditioned on
/// their count: exactly `round(rate · span)` arrivals, each placed
/// uniformly at random. Gaps stay exponential, bursts included, while
/// every seed offers the same load. Each arrival targets a uniformly
/// chosen variant (of `variants`) and pool input (of `pool`).
pub fn poisson(seed: u64, rate: f64, span: Duration, variants: usize, pool: usize) -> Vec<Arrival> {
    let mut times = SplitMix64::new(seed ^ DOMAIN_TIMES);
    let mut picks = SplitMix64::new(seed ^ DOMAIN_PICKS);
    let count = (rate * span.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..count).map(|_| span.mul_f64(times.next_f64())).collect();
    due.sort_unstable();
    due.into_iter()
        .map(|due| Arrival {
            due,
            variant: picks.below(variants),
            input: picks.below(pool),
        })
        .collect()
}

/// `rows` input vectors of width `dim`, uniform in `[-2, 2)` — the range
/// the registry calibrates activation plans on, so most values land in
/// range and the rest exercise the clamp.
pub fn input_pool(seed: u64, rows: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed ^ DOMAIN_INPUTS ^ ((dim as u64) << 32));
    (0..rows)
        .map(|_| {
            (0..dim)
                .map(|_| (rng.next_f64() * 4.0 - 2.0) as f32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_inputs() {
        let span = Duration::from_secs(3);
        assert_eq!(
            poisson(7, 800.0, span, 5, 64),
            poisson(7, 800.0, span, 5, 64)
        );
        assert_ne!(
            poisson(7, 800.0, span, 5, 64),
            poisson(8, 800.0, span, 5, 64)
        );
        let bits =
            |p: Vec<Vec<f32>>| -> Vec<u32> { p.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(input_pool(7, 16, 96)), bits(input_pool(7, 16, 96)));
        assert_ne!(bits(input_pool(7, 16, 96)), bits(input_pool(8, 16, 96)));
    }

    #[test]
    fn offered_rate_is_exact_and_picks_are_uniform() {
        for seed in 0..4 {
            let s = poisson(seed, 800.0, Duration::from_secs(50), 5, 64);
            assert_eq!(s.len(), 40_000);
            assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
            assert!(s.last().unwrap().due < Duration::from_secs(50));
            // Any 5-second stretch carries the rate within a few percent.
            let mid = s
                .iter()
                .filter(|a| (20..25).contains(&a.due.as_secs()))
                .count() as f64
                / 5.0;
            assert!((mid - 800.0).abs() < 40.0, "seed {seed}: {mid}/s");
            // Every variant is picked roughly a fifth of the time.
            for v in 0..5 {
                let share = s.iter().filter(|a| a.variant == v).count() as f64 / s.len() as f64;
                assert!((share - 0.2).abs() < 0.02, "variant {v}: {share}");
            }
        }
    }

    #[test]
    fn gaps_are_exponential() {
        // For exponential gaps the standard deviation equals the mean.
        let s = poisson(11, 1000.0, Duration::from_secs(40), 1, 1);
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }
}
