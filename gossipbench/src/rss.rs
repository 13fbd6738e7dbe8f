//! Peak resident memory of this process, from `/proc/self/status`.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value as f64 / 1024.0),
        _ => None,
    }
}

/// Peak resident memory of the current process in mebibytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_peak_line_in_kib() {
        let status =
            "Name:\tgossipbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 1024 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().expect("linux /proc");
        assert!(mb > 0.0);
    }
}
