//! Shared run context: sizes, timing loop, correctness tally, scratch
//! directories and process statistics.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ndpb_core::config::SystemConfig;
use ndpb_workloads::Scale;

use crate::check::Checker;
use crate::report::Metric;

/// How big each workload is. `PAPER` is the benchmark proper; `TINY`
/// runs the same code paths in a second or two (the smoke tests).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Label recorded in the provenance stamp.
    pub label: &'static str,
    /// Scale of the sweep-small points.
    pub sweep: Scale,
    /// Scale of the full-o points.
    pub full: Scale,
    /// Requests per serve-mixed repetition.
    pub serve_requests: usize,
}

impl Size {
    /// The benchmark's sizes (Table I geometry throughout).
    pub const PAPER: Size = Size {
        label: "paper",
        sweep: Scale::Small,
        full: Scale::Full,
        serve_requests: 1000,
    };
    /// Smoke-test sizes: every workload at Tiny scale.
    pub const TINY: Size = Size {
        label: "tiny",
        sweep: Scale::Tiny,
        full: Scale::Tiny,
        serve_requests: 40,
    };
}

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: feeds `build_app` and the serve request sequence.
    pub seed: u64,
    /// Measurement budget for the timed repetitions.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
    /// Simulation workers (sweep pool, serve pool) and client count.
    pub jobs: usize,
    /// Scratch space for result caches.
    pub work: WorkDir,
    /// Reference checksums.
    pub checker: Checker,
}

impl Ctx {
    /// A context with `nproc` jobs and a fresh scratch directory.
    pub fn new(seed: u64, seconds: f64, trace: bool, size: Size, checker: Checker) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            size,
            jobs: nproc(),
            work: WorkDir::create(),
            checker,
        }
    }

    /// Table I configuration under the workload seed.
    pub fn cfg(&self) -> SystemConfig {
        let mut cfg = SystemConfig::table1();
        cfg.seed = self.seed;
        cfg
    }
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Repetition loop: keeps starting repetitions while the next one is
/// expected to finish within `seconds` of the start (always at least
/// one).
#[derive(Debug)]
pub struct Reps {
    start: Instant,
    budget: Duration,
    done: u32,
}

impl Reps {
    /// A loop over a budget of `seconds`.
    pub fn new(seconds: f64) -> Reps {
        Reps {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            done: 0,
        }
    }

    /// Whether to start another repetition.
    pub fn another(&mut self) -> bool {
        if self.done == 0 {
            self.done = 1;
            return true;
        }
        let elapsed = self.start.elapsed();
        let per_rep = elapsed / self.done;
        if elapsed + per_rep <= self.budget {
            self.done += 1;
            true
        } else {
            false
        }
    }
}

/// Correctness accounting: one attempt per simulated point or request.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check, panicked or errored.
    pub failed: u64,
    /// The first failure messages (bounded).
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation: `Ok` passes, `Err` fails with a message.
    pub fn record(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.attempted += 1,
            Err(msg) => self.fail_all(1, msg),
        }
    }

    /// Records `n` operations that all failed for one reason.
    pub fn fail_all(&mut self, n: u64, msg: String) {
        self.attempted += n;
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness accounting across all passes.
    pub tally: Tally,
    /// The compared metrics: end-to-end (untraced) or per-layer.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures outside the compared set.
    pub extras: Vec<Metric>,
    /// Raw per-repetition samples, for `--out` documents.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Free-form notes (sample counts, clamps) for the human output.
    pub notes: Vec<String>,
}

/// A per-process scratch directory under the repository's
/// `.bench_work/`, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: u64,
}

impl WorkDir {
    fn create() -> WorkDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = repo_root().join(".bench_work").join(format!(
            "{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        WorkDir { root, next: 0 }
    }

    /// A fresh, not-yet-existing directory path for one cache.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }

    /// Removes one directory handed out by [`fresh`](Self::fresh).
    pub fn discard(&self, dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still owns a sibling directory).
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// The repository root: the parent of this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lower-case scale name.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Seconds of a duration as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
