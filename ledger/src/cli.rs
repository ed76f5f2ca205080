//! Building the release CLI from the checkout and timing one child
//! process: wall clock from spawn to exit, user+system CPU and peak RSS
//! from `wait4`'s resource usage.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every `DPFILL_*` variable set in this environment. The library and
/// the CLI read `DPFILL_SIMD`, `DPFILL_BCP_BOUND`, `DPFILL_BCP_SHARD`,
/// `DPFILL_THREADS` and `DPFILL_CHAOS`; clearing them pins the
/// configuration under test against the caller's shell.
pub fn dpfill_env_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("DPFILL_"))
        .collect()
}

/// Builds `dpfill-xfill` in release mode from the checkout at `root`
/// and returns the executable's path.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--bin", "dpfill-xfill"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dpfill-xfill failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let exe = target.join("release").join("dpfill-xfill");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} was not built", exe.display()))
    }
}

/// What one child run cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `exe args` with stdout and stderr discarded and the `DPFILL_*`
/// environment cleared, and waits for it.
pub fn run(exe: &Path, args: &[String]) -> io::Result<Usage> {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for var in dpfill_env_vars() {
        cmd.env_remove(var);
    }
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (`Child` never waits
        // on it; dropping it does not reap), and both out-pointers point
        // at live, writable locals of the C layout `wait4` fills.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Usage {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        code,
    })
}
