//! What the benchmark reads from the host: peak resident memory of a
//! process or of its waited-for children, the CPU count, and where the
//! build put the `wrm` binary.

use std::path::PathBuf;

/// `VmHWM` (peak resident set) of process `pid` in MiB, from
/// `/proc/<pid>/status`; `pid = None` reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The largest peak resident set among this process's terminated and
/// waited-for children, in MiB (`getrusage(RUSAGE_CHILDREN)`). Unlike
/// polling `/proc/<pid>/status`, this cannot miss a short-lived child's
/// final peak.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s of two `long`s
    /// each, then fourteen `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        _utime: [i64; 2],
        _stime: [i64; 2],
        maxrss: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        _utime: [0; 2],
        _stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `getrusage` writes exactly one `struct rusage` through the
    // pointer, which points at a live, writable `RUsage` whose layout
    // matches that struct on 64-bit Linux (see the type's comment).
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        Ok(usage.maxrss as f64 / 1024.0)
    } else {
        Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    Err("child peak memory is only read on 64-bit Linux".into())
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Where results, traces and emitted specs go.
pub fn out_dir() -> PathBuf {
    repo_root().join("target").join("wrm-benchmark")
}

/// The release `wrm` binary: `$CARGO_TARGET_DIR/release/wrm`, or
/// `target/release/wrm` under the repository root. A relative
/// `CARGO_TARGET_DIR` is taken from the current directory, as cargo
/// takes it.
pub fn wrm_binary() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root().join("target"), PathBuf::from);
    let path = target.join("release").join("wrm");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p wrm-cli` (run.sh does)",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_and_its_children() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        let status = std::process::Command::new("true").status().unwrap();
        assert!(status.success());
        assert!(children_peak_rss_mb().unwrap() > 0.0);
    }
}
