//! Order statistics for timing samples.

/// Median, quartiles and tail of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
    pub p99: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order). An empty set summarises to
    /// zeros with `n == 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            p90: quantile(&sorted, 0.90),
            p99: quantile(&sorted, 0.99),
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Samples above quantile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        self.n - (self.n as f64 * q).ceil() as usize
    }
}

/// Linear-interpolated quantile of an ascending slice (the common
/// "type 7" definition); 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over a byte string (result digests and key hashing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
