//! Small statistics helpers: medians, percentiles with the "ten samples
//! beyond" rule, the quartile spread the acceptance rule uses, and the
//! process CPU clock.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a latency sample in nanoseconds (sorts in place).
pub fn p50(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 50.0)
}

/// A tail percentile that the sample can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is (99.9, 99, 95, 90, 75 or 50).
    pub percentile: f64,
    /// Its value.
    pub value: u64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it (so p99 needs 1,000 samples, p99.9 needs 10,000); the median
/// when even p75 does not. `None` for an empty sample.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // (percentile, samples per thousand that lie beyond it)
    let pct = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 1000 >= 10)
        .map_or(50.0, |(p, _)| p);
    Some(Tail {
        percentile: pct,
        value: percentile(sorted, pct),
        samples: n,
    })
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method): the spread the acceptance rule is stated in.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process (client and
/// in-process daemon threads alike), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer of the layout `clock_gettime`
    // expects on 64-bit Linux; the call has no other preconditions.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail(&[]), None);
        // 39 samples: fewer than ten beyond p75, so only the median.
        assert_eq!(tail(&sample(39)).unwrap().percentile, 50.0);
        assert_eq!(tail(&sample(40)).unwrap().percentile, 75.0);
        assert_eq!(tail(&sample(999)).unwrap().percentile, 95.0);
        let t = tail(&sample(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990, 1000));
        assert_eq!(tail(&sample(9_999)).unwrap().percentile, 99.0);
        assert_eq!(tail(&sample(10_000)).unwrap().percentile, 99.9);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > a, "{x}");
    }
}
