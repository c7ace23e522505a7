//! What the harness reads from the host: peak memory and I/O counters of
//! the current process, and the hardware stamp written beside results.

use crate::json::Json;

/// Peak resident set (`VmHWM`) of this process so far, in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes handed to `write`-family syscalls (`wchar`) and the number of
/// such calls (`syscw`) by this process so far, from `/proc/self/io`.
/// Both are exact and deterministic for a deterministic writer.
pub fn write_counters() -> Option<(u64, u64)> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| -> Option<u64> {
        io.lines().find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
    };
    Some((field("wchar:")?, field("syscw:")?))
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The hardware block stamped into every result file: core count, cgroup
/// CPU quota, 1-minute load average at start, kernel and compiler.
pub fn hardware() -> Json {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let load_1m = read_trimmed("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next().and_then(|x| x.parse::<f64>().ok()));
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj()
        .with("nproc", nproc)
        .with("cpu_max", read_trimmed("/sys/fs/cgroup/cpu.max").unwrap_or_else(|| "none".into()))
        .with("load_1m", load_1m.map_or(Json::Null, Json::Num))
        .with("kernel", read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default())
        .with("rustc", rustc.unwrap_or_else(|| "unknown".into()))
}
