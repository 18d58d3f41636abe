//! Child processes of the `truss` binary: spawn-to-exit wall time and
//! the peak resident set size the kernel recorded for the process.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one finished child cost.
pub struct Exit {
    /// Seconds from just before spawn to reaping.
    pub wall_s: f64,
    /// Peak RSS of the child itself (`ru_maxrss`), in bytes.
    pub peak_rss_bytes: u64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `cmd` to completion and reaps it with `wait4`, which reports the
/// child's own peak RSS (the CLI's `peak_rss_bytes` is a post-load delta
/// and misses what loading cost). Fails on a non-zero exit.
pub fn run_measured(cmd: &mut Command) -> Result<Exit, String> {
    let start = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (`child` is never
        // waited on through std), and both out-pointers refer to live,
        // correctly sized locals for the duration of the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 {cmd:?}: {err}"));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    if !exited_ok {
        return Err(format!("{cmd:?} failed (wait status {status:#x})"));
    }
    Ok(Exit {
        wall_s,
        peak_rss_bytes: usage.maxrss.max(0) as u64 * 1024,
    })
}

/// Runs `truss <args>` to completion, discarding stdout; the error
/// carries the command's stderr.
pub fn run_truss(truss: &Path, args: &[String]) -> Result<(), String> {
    let out = Command::new(truss)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("spawn truss {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "truss {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}
