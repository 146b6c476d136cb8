//! Child processes: the release `idlog` build, spawn → exit timing with
//! `wait4` resource usage, and cleanup on every exit path.

use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads wait4/procfs accounting and needs 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sync();
}

/// Write back everything dirty (a build's output, an earlier run's files)
/// so that fsyncs in a timed phase pay only for their own data: on ext4 a
/// journal commit waits for unrelated pending write-back.
pub fn flush_disk() {
    // SAFETY: `sync(2)` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn → reaped.
    pub wall: Duration,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    pub max_rss_kb: u64,
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
}

/// A spawned child that is killed and reaped when dropped, so neither an
/// early return, a failed check nor a panic leaves one running. The kernel
/// additionally SIGKILLs it should this process die first.
pub struct Proc {
    child: Child,
    started: Instant,
    reaped: bool,
}

impl Proc {
    /// Spawn from the main thread only: the parent-death signal is tied to
    /// the spawning thread.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        // SAFETY: the closure runs between fork and exec and only makes one
        // async-signal-safe system call with constant arguments.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Proc {
            child,
            started,
            reaped: false,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn take_stderr(&mut self) -> Option<std::process::ChildStderr> {
        self.child.stderr.take()
    }

    /// Block until the child exits on its own.
    pub fn wait(mut self) -> io::Result<Usage> {
        self.reap()
    }

    /// SIGKILL — the crash the durability promise is about — then reap.
    pub fn kill(mut self) -> io::Result<Usage> {
        self.child.kill()?;
        self.reap()
    }

    fn reap(&mut self) -> io::Result<Usage> {
        let mut status = 0i32;
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `ru` are valid for writes for the duration of
        // the call and `RUsage` has the kernel's layout on this target (see
        // the compile_error gate above). The pid is our own unreaped child:
        // `reaped` guards against waiting twice.
        let got = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut ru) };
        let wall = self.started.elapsed();
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        self.reaped = true;
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Ok(Usage {
            wall,
            cpu_s: secs(ru.utime) + secs(ru.stime),
            max_rss_kb: ru.maxrss.max(0) as u64,
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        })
    }

    /// CPU seconds consumed so far, from `/proc/<pid>/stat` (fields 14 and
    /// 15, in clock ticks of 1/100 s on Linux).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // The command name (field 2) may contain spaces; count from its ')'.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let mut fields = rest.split_whitespace().skip(11);
        let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
        match (ticks(), ticks()) {
            (Some(u), Some(s)) => Ok((u + s) / 100.0),
            _ => Err(io::Error::other("unreadable /proc stat")),
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// Where cargo puts build output for a build started in `root`.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Build the release `idlog` binary of the checkout in the current
/// directory and return its path. A no-op after the first run.
pub fn build_idlog(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/idlog-cli/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a checkout of the repository (run from its root)",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "idlog-cli",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p idlog-cli failed: {status}"));
    }
    let bin = target_dir(root).join("release/idlog");
    if !bin.is_file() {
        return Err(format!("build left no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Run a short-lived child to completion with its stdout and stderr in
/// files (so the harness is never in the child's write path).
pub fn run_to_files(cmd: &mut Command, stdout: &Path, stderr: &Path) -> io::Result<Usage> {
    cmd.stdin(Stdio::null())
        .stdout(std::fs::File::create(stdout)?)
        .stderr(std::fs::File::create(stderr)?);
    Proc::spawn(cmd)?.wait()
}
