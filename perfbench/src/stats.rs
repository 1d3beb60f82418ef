//! Order statistics over timed waves.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` samples is
//! the sample at 1-based rank `ceil(p/100 · n)` in ascending order. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise it reads the slowest few waves (at 40 waves the
//! nearest-rank "p99" is simply the maximum).

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Highest percentile the tail metric reports.
pub const TAIL_CAP: f64 = 99.0;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) over `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile with no sample-count guard (what a harness that
/// times only a few dozen waves reports). `samples` must be non-empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    v[rank(v.len(), p) - 1]
}

/// Nearest-rank percentile `p`, refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
///
/// # Errors
///
/// Names the percentile, the sample count and how many lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{p} of no samples"));
    }
    let r = rank(n, p);
    if n - r < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {} beyond it (need {MIN_BEYOND})",
            n - r
        ));
    }
    Ok(sorted(samples)[r - 1])
}

/// The tail latency: the highest percentile up to [`TAIL_CAP`] that leaves
/// at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: [`TAIL_CAP`] when that percentile leaves
    /// enough samples beyond it, else `100 · rank / n`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples it was taken over.
    pub samples: usize,
}

/// The tail of `samples` (see [`Tail`]).
///
/// # Errors
///
/// Refuses fewer than `MIN_BEYOND + 1` samples.
pub fn tail(samples: &[f64]) -> Result<Tail, String> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return Err(format!(
            "a tail over {n} samples cannot leave {MIN_BEYOND} beyond it"
        ));
    }
    let capped = rank(n, TAIL_CAP);
    let r = capped.min(n - MIN_BEYOND);
    Ok(Tail {
        percentile: if r == capped {
            TAIL_CAP
        } else {
            100.0 * r as f64 / n as f64
        },
        value: sorted(samples)[r - 1],
        samples: n,
    })
}

/// Median (mean of the two middle samples for an even count).
/// `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waves(n: usize) -> Vec<f64> {
        // Descending, so sorting matters.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn unguarded_p99_over_40_waves_is_the_slowest_wave() {
        // The failure mode of a 40-wave soak: "p99" is the maximum, i.e. the
        // first, stream-creating wave.
        let w = waves(40);
        assert_eq!(nearest_rank(&w, 99.0), 40.0);
        assert_eq!(
            nearest_rank(&w, 99.0),
            w.iter().copied().fold(0.0, f64::max)
        );
    }

    #[test]
    fn guarded_percentile_refuses_thin_tails() {
        let w = waves(40);
        let err = percentile(&w, 99.0).unwrap_err();
        assert!(err.contains("p99") && err.contains("40 samples"), "{err}");
        assert_eq!(percentile(&w, 75.0), Ok(30.0));
        assert!(percentile(&waves(999), 99.0).is_err());
        assert_eq!(percentile(&waves(1000), 99.0), Ok(990.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn tail_names_the_percentile_it_reports() {
        let t = tail(&waves(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
        let t = tail(&waves(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        let t = tail(&waves(5000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 4950.0));
        let t = tail(&waves(1038)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 1028.0));
        let t = tail(&waves(500)).unwrap();
        assert_eq!((t.percentile, t.value), (98.0, 490.0));
        assert!(tail(&waves(10)).is_err());
        assert_eq!(tail(&waves(11)).unwrap().value, 1.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
