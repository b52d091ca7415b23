//! Numbers from samples and from `/proc`: percentiles, process CPU, peak
//! RSS and host steal.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 on every architecture the kernel exposes to user space this way.
const TICKS_PER_SEC: f64 = 100.0;

/// Nearest-rank percentile of an ascending slice (`0 < pct ≤ 100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest of p99.9, p99, p90 and p50 that still has at least ten
/// samples above it, so a reported tail is never one or two outliers.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // In per mille, so the count beyond each rank is exact.
    [999, 990, 900, 500]
        .into_iter()
        .find(|&pm| samples - (samples * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// The latency tail of one run: which percentile, its value, and the
/// sample count.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub tail_pct: f64,
    pub tail: f64,
    pub samples: usize,
}

pub fn latency(mut samples: Vec<f64>) -> Option<Latency> {
    let tail_pct = tail_percentile(samples.len())?;
    samples.sort_by(f64::total_cmp);
    Some(Latency {
        tail_pct,
        tail: percentile(&samples, tail_pct),
        samples: samples.len(),
    })
}

/// user + sys seconds from the text of `/proc/<pid>/stat`. The command
/// name may hold spaces and parentheses, so fields are counted from the
/// last `)`: utime and stime are fields 14 and 15 of the line.
pub fn parse_stat_cpu(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// A `kB` field (`VmHWM`, `VmRSS`) from the text of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_status_kib(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU seconds used so far by a process (`"self"` or a pid).
pub fn process_cpu_s(pid: &str) -> f64 {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc/<pid>/stat");
    parse_stat_cpu(&text).expect("parse /proc/<pid>/stat")
}

pub fn status_kib(pid: &str, field: &str) -> u64 {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc/<pid>/status");
    parse_status_kib(&text, field).expect("field in /proc/<pid>/status")
}

/// Host-wide CPU time from the first line of `/proc/stat`: (steal,
/// total) in ticks. Guest time is already counted inside user time.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let total: u64 = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

pub fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_proc_stat(&text).expect("parse /proc/stat")
}

/// Metric names must stay inside `[A-Za-z0-9_.-]`, start with a letter or
/// digit, and fit in 64 bytes.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let l = latency((1..=1000).map(f64::from).collect()).unwrap();
        assert_eq!((l.tail_pct, l.tail, l.samples), (99.0, 990.0, 1000));
    }

    #[test]
    fn stat_cpu_counts_fields_after_the_last_paren() {
        let line = "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 130 0 0 20 0 5 0 1234 123456789 4000 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Some(3.8));
        assert_eq!(parse_stat_cpu("12 (x) S 1"), None);
        assert_eq!(parse_stat_cpu("no paren"), None);
    }

    #[test]
    fn status_fields_parse_in_kib() {
        let text = "Name:\tserve\nVmPeak:\t  60000 kB\nVmHWM:\t   58712 kB\nVmRSS:\t   57000 kB\n";
        assert_eq!(parse_status_kib(text, "VmHWM"), Some(58712));
        assert_eq!(parse_status_kib(text, "VmRSS"), Some(57000));
        assert_eq!(parse_status_kib(text, "VmSwap"), None);
    }

    #[test]
    fn proc_stat_reads_steal_and_total() {
        let text = "cpu  100 5 50 1000 10 1 2 30 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(text), Some((30, 1198)));
        assert_eq!(parse_proc_stat("intr 1 2"), None);
    }

    #[test]
    fn metric_names_keep_the_charset() {
        for ok in ["cpu_us_per_op", "gateway.open_us", "req-p50", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/no",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
