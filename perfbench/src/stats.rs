//! Latency percentiles with an explicit resolution rule, and process
//! CPU time.

/// Fewest samples that must lie beyond a percentile for it to count
/// as resolved.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder the tail figure walks down, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The nearest-rank `p`-th percentile of ascending `sorted`, or `None`
/// (unresolved) when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that is resolved, with
/// its value.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Formats a percentile for the human report: microseconds, or the
/// word `unresolved` with the sample count that would resolve it.
pub fn describe(sorted: &[u64], p: f64) -> String {
    match percentile(sorted, p) {
        Some(ns) => format!("{:.3} us", ns as f64 / 1e3),
        None => {
            let need = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil() as usize;
            format!("unresolved (n={}, needs >= {need})", sorted.len())
        }
    }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU consumed so far by every thread of this process,
/// exited threads included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&sorted, 99.0), None, "9 beyond p99 at n=999");
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 99.0), Some(990));
        assert_eq!(percentile(&sorted, 50.0), Some(500));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&(1..=19).collect::<Vec<u64>>(), 50.0), None);
        assert_eq!(percentile(&(1..=20).collect::<Vec<u64>>(), 50.0), Some(10));
    }

    #[test]
    fn unresolved_percentiles_are_never_printed_as_numbers() {
        let sorted: Vec<u64> = (1..=500).collect();
        let text = describe(&sorted, 99.0);
        assert!(text.starts_with("unresolved"), "{text}");
        assert!(text.contains("n=500") && text.contains(">= 1000"), "{text}");
        assert_eq!(tail(&sorted), Some((95.0, 475)));
        assert_eq!(tail(&(1..=5).collect::<Vec<u64>>()), None);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0, "{x}");
    }
}
