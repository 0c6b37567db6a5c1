//! Order statistics and the repeated-sample timer every layer timing uses.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "inclusive" method of Python's `statistics.quantiles`).
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Untimed warm-up samples before the timed ones.
const WARMUP_SAMPLES: usize = 3;
/// Timed samples per layer timing; the median of 31 repeats well within
/// a tenth when each sample runs for at least tens of microseconds.
const SAMPLES: usize = 31;

/// Median nanoseconds per operation over repeated samples. `sample`
/// performs `ops` operations and returns the time of the part that is
/// being measured (set-up and clean-up inside it stay untimed).
pub fn ns_per_op(ops: u64, mut sample: impl FnMut() -> Duration) -> f64 {
    for _ in 0..WARMUP_SAMPLES {
        sample();
    }
    let per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| sample().as_nanos() as f64 / ops.max(1) as f64)
        .collect();
    median(&per_op)
}

/// Times `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// SplitMix64: the benchmark's seeded value source.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
