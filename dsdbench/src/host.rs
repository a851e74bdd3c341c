//! Machine fingerprint carried by every run record: core count, CPU
//! model, source revision, and the host's steal time over the run, so a
//! run slowed by a noisy neighbour can be told apart.

use std::fs;

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout); `unknown` when
/// the tree is not a git checkout.
pub fn git_sha() -> String {
    let resolve = || -> Option<String> {
        let head = fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
            return Some(sha.trim().to_string());
        }
        let packed = fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find_map(|l| {
            l.strip_suffix(reference).map(|sha| sha.trim().to_string()).filter(|s| !s.is_empty())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Host-wide steal time so far, seconds (all CPUs, from `/proc/stat`).
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Returns free heap memory to the operating system, so a following
/// peak measurement starts from the live heap, as in a fresh process,
/// whatever earlier solves left behind in allocator arenas.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and has no
        // preconditions; it only unmaps or advises away free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts this process's peak resident set (`VmHWM`) from the
/// current resident set. Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
