//! Host-process introspection shared by perfbench and the trace
//! layer.

/// The process peak resident set size (the `VmHWM` line of
/// `/proc/self/status`), in KiB.
///
/// Returns `None` on platforms without procfs (everything but Linux), or
/// when the kernel does not expose the field.  The high-water mark is
/// maintained by the kernel and never shrinks over the process lifetime,
/// so sampling it once at the end of a measurement captures the whole
/// run's peak.
pub fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|line| line.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_and_monotone_on_linux() {
        let kb = peak_rss_kb().expect("procfs exposes VmHWM on Linux");
        assert!(kb > 0);
        assert!(
            peak_rss_kb().unwrap() >= kb,
            "high-water mark never shrinks"
        );
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn peak_rss_is_none_off_linux() {
        assert_eq!(peak_rss_kb(), None);
    }
}
