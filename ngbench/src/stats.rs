//! Exact order statistics over raw samples, and the process's memory
//! high-water mark.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile of ascending `sorted` samples, with the
/// number of samples strictly beyond its rank.
pub fn quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of raw nanosecond samples, in microseconds.
pub fn median_us(nanos: &[u64]) -> f64 {
    let v: Vec<f64> = nanos.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v)
}

/// `num / den`, or `empty` when nothing was counted.
pub fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Resident set of this process now, in MiB.
pub fn rss_mib() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only returns free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Hand the heap the benchmark's own reference computation freed back to
/// the kernel, then reset the peak-RSS mark to the current resident set,
/// so that computation does not count against the program. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantile_counts_the_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), (500, 500));
        assert_eq!(quantile(&v, 0.99), (990, 10));
        assert_eq!(quantile(&[7], 0.99), (7, 0));
    }
}
