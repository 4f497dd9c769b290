//! Order statistics over a handful of samples.

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `samples`: the middle one, or the mean of the middle two.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — both are bugs in the caller.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_n_takes_the_middle_sample() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                median: 3.0,
                min: 1.0,
                max: 5.0,
                n: 3
            }
        );
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn even_n_averages_the_middle_two() {
        let s = summarize(&[4.0, 1.0, 2.0, 10.0]);
        assert_eq!(
            s,
            Summary {
                median: 3.0,
                min: 1.0,
                max: 10.0,
                n: 4
            }
        );
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }
}
