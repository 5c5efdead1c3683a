//! Order statistics shared by every workload: medians, quartiles with
//! the same method as Python's `statistics.quantiles(values, n=4)`, the
//! quartile spread, and tail percentiles that report their own support.

/// `values` sorted ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the steadiness
/// figure the benchmark contract bounds. `None` with fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (e.g. 0.99).
    pub q: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile, capped at p99, that has at least
/// [`TAIL_SUPPORT`] samples beyond it (nearest rank). With too few
/// samples for any tail, the maximum is reported with `q = 1`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let p99_index = (0.99 * n as f64).ceil() as usize - 1;
    let index = if n > TAIL_SUPPORT {
        (n - TAIL_SUPPORT - 1).min(p99_index)
    } else {
        n - 1
    };
    Some(Tail {
        q: (index + 1) as f64 / n as f64,
        value: v[index],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from Python 3.11 `statistics.quantiles(d, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[3.1, 1.2, 5.5, 2.2], [1.45, 2.6500000000000004, 4.9]),
            (&[10.0, 20.0, 30.0], [10.0, 20.0, 30.0]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0], [2.0, 4.0, 8.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!(close(*g, w), "{data:?}: {got:?} != {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!(close(spread(&d).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert!(close(spread(&[4.0; 10]).unwrap(), 0.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 2000 samples support p99 (20 beyond it).
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&big).unwrap();
        assert!(close(t.q, 0.99) && t.value == 1980.0 && t.samples == 2000);
        // 100 samples: p99 would leave one beyond; fall back to p90.
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&small).unwrap();
        assert!(close(t.q, 0.9) && t.value == 90.0);
        assert_eq!(small.iter().filter(|&&v| v > t.value).count(), TAIL_SUPPORT);
        // Too few samples for any tail: the maximum, at q = 1.
        let t = tail(&[3.0, 1.0]).unwrap();
        assert!(t.q == 1.0 && t.value == 3.0);
        assert_eq!(tail(&[]), None);
    }
}
