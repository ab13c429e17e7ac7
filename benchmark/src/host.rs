//! What the host is and what the process cost: the fingerprint every
//! output carries, process CPU time, and peak resident memory.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads /proc and CLOCK_PROCESS_CPUTIME_ID; it runs on Linux only");

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has consumed on all its threads, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; the call writes `ts` and touches nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Restart the kernel's peak-RSS watermark at the current RSS, so the
/// next [`peak_rss_mib`] is the peak since now. `false` where the
/// kernel or a sandbox refuses (`/proc/self/clear_refs`, value 5).
pub fn restart_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn file_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The host fingerprint as a JSON object. Anything unreadable is
/// `"unknown"`, never left out.
pub fn fingerprint_json() -> String {
    let unknown = || "unknown".to_string();
    format!(
        "{{\"nproc\": {}, \"rustc\": {:?}, \"git_sha\": {:?}, \"kernel\": {:?}, \
         \"cpu_governor\": {:?}}}",
        nproc(),
        command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        file_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        file_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").unwrap_or_else(unknown),
    )
}
