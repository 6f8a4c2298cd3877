//! Process resource readings: CPU time and peak resident memory.

/// `struct rusage` on Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable struct with the layout of the C
    // `struct rusage` on 64-bit Linux (two timevals of two i64 each, then
    // fourteen longs), and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_advances() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
