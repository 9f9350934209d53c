//! Order statistics over host-time samples.

/// The `q`-quantile of `values` (`0 <= q <= 1`), linearly interpolated
/// between the two nearest order statistics. Returns 0 for no values.
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

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank percentile of integer samples (`p` in percent): the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile_rank(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a value's `Debug` rendering: every field of a deterministic
/// result, without listing the fields by hand.
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes(), FNV_OFFSET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.1) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn percentile_rank_picks_a_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_rank(&v, 99.0), 99);
        assert_eq!(percentile_rank(&v, 100.0), 100);
        assert_eq!(percentile_rank(&[7], 99.0), 7);
    }
}
