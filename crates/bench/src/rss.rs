//! Peak-RSS measurement for the build benchmarks.
//!
//! Linux exposes a per-process resident-set high-water mark (`VmHWM` in
//! `/proc/self/status`) and a way to reset it (writing `5` to
//! `/proc/self/clear_refs`), which together give per-phase peak-memory
//! attribution inside one process: reset, run the contender, read the
//! mark. Everything here degrades to `None` off Linux or when procfs is
//! unavailable — benchmarks report the number when they can and omit it
//! otherwise, never failing the run over it.

use std::fs;

/// Reads a `kB` field from `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size (high-water mark) in bytes, if measurable.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kb("VmHWM:")
}

/// Current resident set size in bytes, if measurable.
pub fn current_rss_bytes() -> Option<u64> {
    status_kb("VmRSS:")
}

/// Resets the peak-RSS high-water mark to the current RSS, so the next
/// [`peak_rss_bytes`] reading attributes peak memory to the work done
/// since this call. Returns `false` when the kernel doesn't support it
/// (readings then cover the whole process lifetime).
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Minor page faults the process has taken so far (field 10 of
/// `/proc/self/stat`), if measurable.
pub fn minor_faults() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces: count from its `)`.
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// Bytes of the process's anonymous memory backed by transparent huge
/// pages (`AnonHugePages` in `/proc/self/smaps_rollup`), if measurable.
pub fn anon_huge_pages_bytes() -> Option<u64> {
    let rollup = fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Bytes as mebibytes for report rows.
pub fn bytes_to_mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_allocation() {
        // On Linux this must observe a ~64 MiB spike; elsewhere the
        // helpers return None and there is nothing to check.
        let Some(before) = peak_rss_bytes() else {
            return;
        };
        assert!(before > 0);
        reset_peak_rss();
        let spike = vec![1u8; 64 << 20];
        // Touch every page so it becomes resident.
        let sum: u64 = spike.iter().step_by(4096).map(|&b| u64::from(b)).sum();
        assert_eq!(sum, (64 << 20) / 4096);
        let after = peak_rss_bytes().expect("procfs was readable above");
        assert!(
            after >= 48 << 20,
            "peak {after} should reflect a 64 MiB spike"
        );
    }

    #[test]
    fn touching_fresh_pages_takes_minor_faults() {
        let Some(before) = minor_faults() else {
            return;
        };
        let fresh = vec![1u8; 16 << 20];
        let sum: u64 = fresh.iter().step_by(4096).map(|&b| u64::from(b)).sum();
        assert_eq!(sum, (16 << 20) / 4096);
        let after = minor_faults().expect("procfs was readable above");
        assert!(after > before, "{before} -> {after} faults");
        assert!(anon_huge_pages_bytes().is_some());
    }

    #[test]
    fn mib_conversion() {
        assert_eq!(bytes_to_mib(64 << 20), 64.0);
    }
}
