//! What the host tells us about this process and itself.

use std::process::Command;

fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// `(on-CPU seconds, run-queue wait seconds)` of this process's main
/// thread from `/proc/self/schedstat`; zeros where the file is absent.
pub fn schedstat_s() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut ns = text
        .split_whitespace()
        .map(|x| x.parse::<f64>().unwrap_or(0.0));
    let cpu = ns.next().unwrap_or(0.0);
    let wait = ns.next().unwrap_or(0.0);
    (cpu / 1e9, wait / 1e9)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checkout's commit, or `unknown` outside a git repository.
pub fn git_commit() -> String {
    first_line_of(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
}
