//! Host-clock readings taken from `/proc`: CPU time, peak resident
//! set, and the machine fingerprint a recording carries.
//!
//! Every reader returns `None` where `/proc` is missing or malformed;
//! callers then omit the metric instead of reporting a made-up value.

use std::fs;
use std::process::Command;

/// Kernel clock ticks per second. `/proc/self/stat` reports CPU time in
/// `USER_HZ` units, which Linux fixes at 100 on every architecture the
/// kernel exports it for.
const USER_HZ: u64 = 100;

/// `utime + stime` of a `/proc/<pid>/stat` line, in nanoseconds.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15, i.e. the 12th and 13th
/// after the command name.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MB
/// (10⁶ bytes).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb * 1024.0 / 1e6)
}

/// CPU time this process has consumed so far, in nanoseconds.
pub fn cpu_ns() -> Option<u64> {
    parse_stat_cpu_ns(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// First `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// The machine and toolchain a recording was made on.
pub struct Fingerprint {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Fingerprint {
    /// Reads the fingerprint; anything unavailable reads `"unknown"`
    /// (a driver checkout, for one, is not a git repository).
    pub fn read() -> Self {
        let unknown = || "unknown".to_string();
        Fingerprint {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|t| parse_cpu_model(&t))
                .unwrap_or_else(unknown),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_comm() {
        let stat = "4242 (prism (perf) x) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 1 0 99 1000 50";
        // utime=150, stime=25 ticks of 10 ms.
        assert_eq!(parse_stat_cpu_ns(stat), Some(175 * 10_000_000));
        assert_eq!(parse_stat_cpu_ns("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("no parens here"), None);
        assert_eq!(parse_stat_cpu_ns(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tprism-perf\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        let mb = parse_vm_hwm_mb(status).expect("VmHWM present");
        assert!((mb - 209.7152).abs() < 1e-9, "{mb}");
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\n"), None);
    }

    #[test]
    fn cpu_model_line() {
        let info = "processor\t: 0\nmodel name\t: Imaginary CPU @ 2.0GHz\nflags\t: x\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Imaginary CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readers_agree_with_the_platform() {
        // On Linux both readers work; elsewhere both are absent and the
        // metrics built on them are omitted.
        assert_eq!(cpu_ns().is_some(), cfg!(target_os = "linux"));
        assert_eq!(peak_rss_mb().is_some(), cfg!(target_os = "linux"));
    }
}
