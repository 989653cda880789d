//! Small measurement helpers: order statistics, process CPU time and
//! peak resident set.

use std::time::Duration;

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank on the sorted values.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The mean over samples of each sample's `q`-quantile: a percentile
/// of a run that holds several distinct traces, each weighted alike.
pub fn mean_quantile(samples: &[Vec<f64>], q: f64) -> f64 {
    samples.iter().map(|s| quantile(s, q)).sum::<f64>() / samples.len() as f64
}

/// Median of durations, in seconds.
pub fn median_s(ds: &[Duration]) -> f64 {
    median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[allow(unsafe_code)]
mod sys {
    extern "C" {
        pub fn clock_gettime(clk: i32, ts: *mut super::Timespec) -> i32;
    }
}

/// CPU time consumed so far by the whole process, every thread
/// (including threads that have already exited).
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a Linux constant.
    #[allow(unsafe_code)]
    let rc = unsafe { sys::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }

    #[test]
    fn process_probes_read() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
        assert!(peak_rss_mb() > 0.0);
    }
}
