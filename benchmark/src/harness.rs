//! What every workload shares: where things live, how large a run is, and
//! repeated set-up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One invocation's fixed context.
pub struct Env {
    /// The release `idlog` binary under test.
    pub idlog: PathBuf,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    pub seed: u64,
    /// How long the measured phase should take.
    pub seconds: f64,
    /// `--smoke`: 1/50-size inputs, one pass, checks only.
    pub smoke: bool,
}

impl Env {
    /// An input dimension: as documented, or 1/50 of it under `--smoke`.
    pub fn size(&self, full: usize, smoke_min: usize) -> usize {
        if self.smoke {
            (full / 50).max(smoke_min)
        } else {
            full
        }
    }

    /// A fixed op count scaled to the run length (never below `min`).
    pub fn count(&self, per_second: f64, min: usize) -> usize {
        if self.smoke {
            min
        } else {
            ((self.seconds * per_second).round() as usize).max(min)
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Removes the scratch directory on every exit path.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: &Path) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path.to_path_buf()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set up repeatedly — at least five times, and cheap set-ups until a
/// second has been spent — and keep the last result. `setup_s` is the
/// median, so a slow fsync, a page-cache miss or a scheduling convoy in one
/// or two of them does not set it (of three, two were slow often enough to
/// fail an A/A comparison).
pub fn repeat_setup<T>(
    smoke: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    let mut spent = Duration::ZERO;
    while times.len() < 5 || (spent < Duration::from_secs(1) && times.len() < 40) {
        // The previous set-up (a server, files) goes away before the clock
        // starts: two servers must not share a data directory.
        drop(last.take());
        crate::child::flush_disk();
        let started = Instant::now();
        last = Some(setup()?);
        let took = started.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
        if smoke {
            break;
        }
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Abort the whole command if it outlives the contract's per-run limit:
/// children die with it (parent-death signal), so nothing is left running.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: still running after {limit:?}; aborting");
        std::process::exit(3);
    });
}
