//! Measurement helpers: process CPU and memory read from `/proc`, the
//! percentile rule, sample-schedule arithmetic and record-stream checks.
//! Nothing here calls into the program under test.

use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// on Linux for every architecture this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used so far, over all its threads, live
/// or exited (`utime + stime` of `/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric tick count") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// CPU seconds the calling thread has used (`/proc/thread-self/schedstat`,
/// nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: f64 = s
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with run time in ns");
    ns / 1e9
}

/// Resets the process's peak resident set size, so that the next
/// [`peak_rss_mb`] reports the peak of the measured phase only.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM to the current RSS.
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set size since start or the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile of `v` by the nearest-rank rule.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentiles a timing may be reported at, lowest first.
const REPORTABLE: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest reportable percentile that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Wall-clock instant at which sample position `at_us` (µs of signal from
/// the first sample) is due on a schedule that starts at `t0` and runs at
/// real time.
fn due_at(t0: Instant, at_us: f64) -> Instant {
    t0 + Duration::from_secs_f64(at_us.max(0.0) / 1e6)
}

/// How late `arrival` is relative to the due time of signal position
/// `at_us`, ms (negative if it arrived early).
pub fn latency_ms(t0: Instant, at_us: f64, arrival: Instant) -> f64 {
    let due = due_at(t0, at_us);
    if arrival >= due {
        (arrival - due).as_secs_f64() * 1e3
    } else {
        -(due - arrival).as_secs_f64() * 1e3
    }
}

/// FNV-1a digest of a record stream, one line at a time (each line is
/// terminated as the CLI prints it).
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for &b in l.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Records by which `got` differs from `want`: 0 when their digests
/// match, else every missing, extra or reordered record counts once (the
/// lines outside a longest common subsequence of the two streams).
pub fn stream_mismatches(want: &[String], got: &[String]) -> usize {
    if digest(want) == digest(got) {
        return 0;
    }
    // Longest common subsequence, one row at a time.
    let mut prev = vec![0usize; got.len() + 1];
    let mut cur = vec![0usize; got.len() + 1];
    for w in want {
        for (j, g) in got.iter().enumerate() {
            cur[j + 1] = if w == g {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let lcs = prev[got.len()];
    (want.len() - lcs) + (got.len() - lcs)
}

/// Correctness bookkeeping: every check is an attempt; a failed check adds
/// its failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// One pass/fail check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// A record stream against its reference: each reference record is an
    /// attempt, each mismatching record a failure.
    pub fn stream(&mut self, want: &[String], got: &[String], what: &str) {
        let bad = stream_mismatches(want, got);
        self.attempted += want.len().max(1) as u64;
        self.failed += bad as u64;
        if bad > 0 {
            eprintln!(
                "perfbench: {what}: {bad} record(s) missing, extra or reordered \
                 ({} expected, {} got)",
                want.len(),
                got.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        // Exactly ten samples lie beyond the reported p99.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_of_the_end_sample() {
        let t0 = Instant::now();
        // A record ending 1.5 s into the signal that arrives 2.0 s after the
        // first sample was due is 500 ms late.
        let arrival = t0 + Duration::from_millis(2_000);
        assert!((latency_ms(t0, 1_500_000.0, arrival) - 500.0).abs() < 1e-6);
        // Arriving before its due time reads negative, never wraps.
        let early = t0 + Duration::from_millis(1_000);
        assert!((latency_ms(t0, 1_500_000.0, early) + 500.0).abs() < 1e-6);
        assert_eq!(due_at(t0, 0.0), t0);
        assert_eq!(due_at(t0, 250.0), t0 + Duration::from_micros(250));
    }

    #[test]
    fn digest_mismatches_are_detected_and_counted() {
        let want = lines(&["a", "b", "c", "d"]);
        assert_eq!(digest(&want), digest(&lines(&["a", "b", "c", "d"])));
        assert_ne!(digest(&want), digest(&lines(&["a", "b", "d", "c"])));
        // Line boundaries are part of the digest.
        assert_ne!(digest(&lines(&["ab", "c"])), digest(&lines(&["a", "bc"])));
        assert_eq!(stream_mismatches(&want, &want), 0);
        assert_eq!(stream_mismatches(&want, &lines(&["a", "b", "d"])), 1);
        assert_eq!(
            stream_mismatches(&want, &lines(&["a", "b", "c", "d", "e"])),
            1
        );
        assert_eq!(stream_mismatches(&want, &lines(&["a", "c", "b", "d"])), 2);
        assert_eq!(stream_mismatches(&want, &[]), 4);

        let mut checks = Checks::default();
        checks.stream(&want, &want, "same");
        assert_eq!((checks.attempted, checks.failed), (4, 0));
        checks.stream(&want, &lines(&["a", "x", "c", "d"]), "changed");
        assert_eq!((checks.attempted, checks.failed), (8, 2));
        checks.check(false, "forced");
        assert_eq!((checks.attempted, checks.failed), (9, 3));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let t = thread_cpu_s();
        let p = process_cpu_s();
        assert!(t >= 0.0 && p >= 0.0);
        reset_peak_rss();
        let before = peak_rss_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mb() >= before + 32.0);
    }
}
