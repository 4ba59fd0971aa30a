//! Order statistics with an explicit support rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a "p99"
//! never rests on one or two observations.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Unsupported {
    /// The requested percentile, as a fraction in `[0, 1]`.
    pub p: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples the percentile needs for [`MIN_BEYOND`] to lie beyond it.
    pub needed: usize,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({} beyond it), have {}",
            self.p * 100.0,
            self.needed,
            MIN_BEYOND,
            self.samples
        )
    }
}

/// Samples needed so that at least [`MIN_BEYOND`] lie beyond percentile `p`.
pub fn samples_needed(p: f64) -> usize {
    let tail = 1.0 - p.clamp(0.0, 1.0);
    if tail <= 0.0 {
        return usize::MAX;
    }
    // The small slack keeps exact products such as 0.01 × 1000 from
    // rounding up to 1001 through binary representation error.
    (MIN_BEYOND as f64 / tail - 1e-9).ceil() as usize
}

/// Interpolated `p`-quantile of `samples` (any order; NaN is not allowed,
/// `+∞` sorts last). Linear interpolation between closest ranks, the rule
/// `uae_query::metrics::percentile` uses. An empty sample gives NaN.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, p)
}

fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => return f64::NAN,
        1 => return sorted[0],
        _ => {}
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The `p`-quantile, refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, Unsupported> {
    let needed = samples_needed(p);
    if samples.len() < needed {
        return Err(Unsupported { p, samples: samples.len(), needed });
    }
    Ok(quantile(samples, p))
}

/// Each of `parts` consecutive equal parts' `p`-percentile, in order
/// (leftover samples join the last part). Refused unless every part
/// supports `p` on its own. Their median moves less than the pooled
/// percentile when a burst of noise spoils a few parts.
pub fn per_part(samples: &[f64], parts: usize, p: f64) -> Result<Vec<f64>, Unsupported> {
    part_bounds(samples.len(), parts).map(|r| percentile(&samples[r], p)).collect()
}

/// The index ranges of `parts` consecutive equal parts of `0..n`, the
/// leftover joining the last part.
pub fn part_bounds(n: usize, parts: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let parts = parts.max(1);
    let len = n / parts;
    (0..parts).map(move |k| k * len..if k + 1 == parts { n } else { (k + 1) * len })
}

/// Median (the 0.5-quantile; needs 20 samples under the support rule when
/// taken through [`percentile`], any non-empty sample here).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric mean of positive values; 1 for an empty sample.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}
