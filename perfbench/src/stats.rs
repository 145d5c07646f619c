//! Order statistics behind every reported figure.

/// Percentiles tried for a tail figure, highest first. The ladder stops at
/// 99: a metric named `*_p99_*` never silently turns into a p99.9.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). A single value is its own quartiles; an empty
/// slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    match data.len() {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = data.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * m;
        let j = (scaled / 4).clamp(1, data.len() - 1);
        let delta = scaled as f64 / 4.0 - j as f64;
        *q = data[j - 1] + (data[j] - data[j - 1]) * delta;
    }
    out
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail figure: the value at the highest ladder percentile that leaves at
/// least [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest percentile of the ladder 99, 95, 90, 75, 50 whose
/// nearest-rank position leaves at least `min_beyond` samples beyond it, or
/// `None` when even the median does not.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    TAIL_LADDER.iter().find_map(|&percentile| {
        let rank = ((percentile / 100.0 * n as f64).ceil() as usize).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= min_beyond).then(|| Tail {
            percentile,
            value: data[rank - 1],
            samples: n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990, leaving exactly 10 beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, TAIL_MIN_BEYOND).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        // 999 samples: p99 leaves 9, so p95 (rank 950, 49 beyond) is used.
        let t = tail(&thousand[..999], TAIL_MIN_BEYOND).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));

        // 20 samples: only the median (rank 10) leaves ten beyond.
        let t = tail(&thousand[..20], TAIL_MIN_BEYOND).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));

        // 19 samples support no percentile of the ladder.
        assert_eq!(tail(&thousand[..19], TAIL_MIN_BEYOND), None);
    }
}
