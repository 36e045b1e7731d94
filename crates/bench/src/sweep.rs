//! The sweep engine: a bounded worker pool that fans simulation points
//! across threads, with an optional content-addressed result cache.
//!
//! Every table/figure of the paper is a *sweep*: a list of
//! (application, design column, configuration, scale) points whose
//! simulations are completely independent — each one is single-threaded
//! and deterministic given its config seed. The engine exploits exactly
//! that independence and nothing more:
//!
//! * **Bounded parallelism.** One resident pool of `--jobs N` workers,
//!   started on first use, pulls points from one shared FIFO queue
//!   (whichever worker finishes first takes the next point). Batch
//!   sweeps ([`Sweeper::run`]) and single submissions
//!   ([`Sweeper::submit`], the service path) share it.
//! * **Deterministic merge.** Every point has its own ticket, and a
//!   batch waits on its tickets in input order, so callers observe the
//!   same ordering regardless of worker count or scheduling. `--jobs 1`
//!   and `--jobs 8` produce byte-identical harness output.
//! * **Result cache.** With a cache directory configured, each point's
//!   [`cache::point_key`] is probed before simulating; hits skip the
//!   simulation entirely and misses are stored after it. A warm rerun
//!   of `repro all` simulates nothing.
//! * **Observability.** Point counts, cache hits/misses, simulations
//!   and per-worker progress all land in a [`SharedMetrics`] table the
//!   harness can snapshot and dump (`sweep/points_total`,
//!   `sweep/cache_hits`, `sweep/cache_misses`, `sweep/simulated`,
//!   `sweep/pool-worker-N/points`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::result::RunResult;
use ndpb_sim::SimTime;
use ndpb_trace::SharedMetrics;
use ndpb_workloads::Scale;

use crate::cache::{point_key, ResultCache};
use crate::{run_host, run_one, Column};

/// One independent simulation in a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Application name (see `ndpb_workloads::APP_NAMES`).
    pub app: String,
    /// Design column to simulate.
    pub column: Column,
    /// Full system configuration (folded into the cache key).
    pub cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
}

impl SweepPoint {
    /// Builds a point.
    pub fn new(app: impl Into<String>, column: Column, cfg: SystemConfig, scale: Scale) -> Self {
        SweepPoint {
            app: app.into(),
            column,
            cfg,
            scale,
        }
    }

    /// The point's content-addressed cache key.
    pub fn key(&self) -> u64 {
        point_key(&self.app, &self.column.label(), self.scale, &self.cfg)
    }

    /// Runs the simulation for this point.
    pub fn simulate(self) -> RunResult {
        match self.column {
            Column::Ndp(d) => run_one(&self.app, d, self.cfg, self.scale),
            Column::Host => run_host(&self.app, self.cfg, self.scale),
        }
    }
}

/// A claim on the result of one point handed to [`Sweeper::submit`]:
/// a shared slot the pool worker fills once, with the result or the
/// message of the panic that ended the simulation.
///
/// Clones observe the same slot, so any number of waiters can share
/// one simulation. Dropping every clone abandons the result; the
/// simulation still runs to completion (and still populates the cache).
/// A default ticket belongs to no pool and never finishes.
#[derive(Debug, Clone, Default)]
pub struct PointTicket {
    slot: Arc<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: OnceLock<Result<RunResult, String>>,
    lock: Mutex<()>,
    filled: Condvar,
}

impl PointTicket {
    fn fill(&self, outcome: Result<RunResult, String>) {
        let _ = self.slot.outcome.set(outcome);
        // Taking the lock orders the fill after any waiter's check.
        let _guard = self.slot.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.slot.filled.notify_all();
    }

    /// Blocks until the point's simulation finishes.
    ///
    /// # Panics
    ///
    /// Panics with the simulation's own panic message if it panicked
    /// (the pool worker survives it).
    pub fn wait(self) -> RunResult {
        let slot = &self.slot;
        let guard = slot.lock.lock().unwrap_or_else(|e| e.into_inner());
        drop(
            slot.filled
                .wait_while(guard, |_| slot.outcome.get().is_none())
                .unwrap_or_else(|e| e.into_inner()),
        );
        match self.outcome().expect("woken only once filled") {
            Ok(result) => result.clone(),
            Err(msg) => panic::resume_unwind(Box::new(msg.to_string())),
        }
    }

    /// Non-blocking probe: `None` while the point is queued or running,
    /// then its result or the simulation's panic message.
    pub fn outcome(&self) -> Option<Result<&RunResult, &str>> {
        self.slot
            .outcome
            .get()
            .map(|o| o.as_ref().map_err(String::as_str))
    }
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "simulation panicked".to_string())
}

/// Hands memory that finished simulations freed back to the OS. glibc
/// otherwise keeps it in the worker's malloc arena: a Tiny simulation
/// frees tens of MB, and a service whose pool goes idle between
/// requests would hold the high-water mark of every arena its workers
/// ever used.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free heap pages to the OS,
    // under glibc's own arena locks; live allocations are untouched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// Shared state of the resident pool, plus the condvar workers park
/// on while the queue is empty.
#[derive(Debug, Default)]
struct ResidentPool {
    state: Mutex<PoolState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PoolState {
    queue: VecDeque<(SweepPoint, PointTicket)>,
    /// Set when the owning [`Sweeper`] drops; a worker exits once the
    /// pool is closed and the queue is empty.
    closed: bool,
}

/// A started resident pool: its shared state and the worker handles
/// the owning [`Sweeper`] joins on drop.
#[derive(Debug)]
struct Resident {
    pool: Arc<ResidentPool>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// The sweep executor: worker count, optional cache, shared metrics.
#[derive(Debug)]
pub struct Sweeper {
    jobs: usize,
    cache: Option<ResultCache>,
    audit: Option<AuditLevel>,
    metrics: SharedMetrics,
    sweeps_run: AtomicU64,
    resident: OnceLock<Resident>,
}

impl Sweeper {
    /// An engine with `jobs` workers and no cache.
    pub fn new(jobs: usize) -> Self {
        Sweeper {
            jobs: jobs.max(1),
            cache: None,
            audit: None,
            metrics: SharedMetrics::new(),
            sweeps_run: AtomicU64::new(0),
            resident: OnceLock::new(),
        }
    }

    /// Enables the on-disk result cache rooted at `dir`.
    pub fn with_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(ResultCache::new(dir));
        self
    }

    /// Forces every point's [`AuditLevel`] (the `repro --audit` flag).
    ///
    /// The override is applied *before* the cache key is computed — the
    /// audit level is part of `SystemConfig::fingerprint`, so an
    /// audited sweep is never satisfied by a cached unaudited result
    /// (which would silently skip the invariant checks).
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = Some(level);
        self
    }

    /// The forced audit level, if any.
    pub fn audit(&self) -> Option<AuditLevel> {
        self.audit
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache directory, if caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.as_ref().map(ResultCache::dir)
    }

    /// The engine's metrics table (sweep counters, worker progress).
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }

    /// Runs all points and returns their results in input order.
    ///
    /// Cache probing ([`cached`](Self::cached)) happens serially up
    /// front (it is pure file I/O); only the misses go to the resident
    /// pool ([`submit`](Self::submit)), in input order. The output is a
    /// pure function of `points` — worker count and scheduling never
    /// show.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any simulation.
    pub fn run(&self, points: Vec<SweepPoint>) -> Vec<RunResult> {
        // Registered even when every point hits, so a warm sweep reports
        // `0 simulated` rather than no counter at all.
        for name in [
            "sweep/points_total",
            "sweep/cache_hits",
            "sweep/cache_misses",
            "sweep/simulated",
        ] {
            self.metrics.register(name);
        }
        let slots: Vec<Result<RunResult, PointTicket>> = points
            .into_iter()
            .map(|p| self.cached(&p).ok_or_else(|| self.submit(p)))
            .collect();
        let results = slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(PointTicket::wait))
            .collect();
        let seq = self.sweeps_run.fetch_add(1, Ordering::Relaxed);
        self.metrics.snapshot(format!("sweep-{seq}"), SimTime::ZERO);
        results
    }

    /// Probes the result cache for `point` without scheduling anything.
    ///
    /// The audit override is applied before the key is computed, exactly
    /// as [`submit`](Self::submit) does, so a probe and a later submit of
    /// the same point agree on the key. A hit counts into
    /// `sweep/points_total` and `sweep/cache_hits`; a miss counts nothing
    /// (the caller is expected to `submit`, which does).
    pub fn cached(&self, point: &SweepPoint) -> Option<RunResult> {
        let cache = self.cache.as_ref()?;
        let key = match self.audit {
            Some(level) => {
                let mut p = point.clone();
                p.cfg.audit = level;
                p.key()
            }
            None => point.key(),
        };
        let hit = cache.load(key)?;
        let m = &self.metrics;
        m.inc(m.register("sweep/points_total"));
        m.inc(m.register("sweep/cache_hits"));
        Some(hit)
    }

    /// Schedules one point on the engine's resident pool and returns a
    /// ticket for its result.
    ///
    /// The pool's `jobs` workers are created on first use and kept
    /// parked on a condvar between jobs until the `Sweeper` drops. That
    /// is the shape a long-running server needs: callers submit from
    /// many request threads, results fan back through shared tickets,
    /// and the pool never has to be re-warmed. The cache (if
    /// configured) is *not* probed here — callers that want the fast
    /// path probe [`cached`](Self::cached) first — but completed
    /// simulations are stored to it.
    pub fn submit(&self, mut point: SweepPoint) -> PointTicket {
        if let Some(level) = self.audit {
            point.cfg.audit = level;
        }
        let m = &self.metrics;
        m.inc(m.register("sweep/points_total"));
        m.inc(m.register("sweep/cache_misses"));
        let pool = &self
            .resident
            .get_or_init(|| self.spawn_resident_pool())
            .pool;
        let ticket = PointTicket::default();
        pool.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .push_back((point, ticket.clone()));
        pool.ready.notify_one();
        ticket
    }

    fn spawn_resident_pool(&self) -> Resident {
        let pool = Arc::new(ResidentPool::default());
        let sim_id = self.metrics.register("sweep/simulated");
        let events_id = self.metrics.register("sweep/last_run/events");
        let wall_id = self.metrics.register("sweep/last_run/wall_ns");
        let mut workers = Vec::with_capacity(self.jobs);
        for w in 0..self.jobs {
            let worker_id = self
                .metrics
                .register(&format!("sweep/pool-worker-{w}/points"));
            let pool = Arc::clone(&pool);
            let metrics = self.metrics.clone();
            let cache = self.cache.clone();
            // Workers never hold the `Sweeper`, so its drop can join
            // them without deadlock.
            let handle = thread::Builder::new()
                .name(format!("sweep-pool-{w}"))
                .spawn(move || loop {
                    let (point, ticket) = {
                        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if let Some(job) = st.queue.pop_front() {
                                break job;
                            }
                            if st.closed {
                                return;
                            }
                            st = pool.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    let key = point.key();
                    // A panicking simulation fails its own ticket, not
                    // the worker: the message travels to the ticket.
                    let started = Instant::now();
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| point.simulate()));
                    let wall = started.elapsed();
                    if let Ok(result) = &outcome {
                        if let Some(c) = &cache {
                            // Best-effort: an unwritable cache directory
                            // slows reruns down, it does not fail them.
                            let _ = c.store(key, result);
                        }
                        metrics.set(events_id, result.events);
                        metrics.set(wall_id, wall.as_nanos() as u64);
                        metrics.inc(sim_id);
                        metrics.inc(worker_id);
                    }
                    // Filled after the cache store, so a finished ticket's
                    // result is already on disk.
                    ticket.fill(outcome.map_err(|p| panic_message(&*p)));
                    let idle = pool
                        .state
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .queue
                        .is_empty();
                    if idle {
                        release_freed_memory();
                    }
                })
                .expect("spawn resident pool worker");
            workers.push(handle);
        }
        Resident { pool, workers }
    }

    /// Formats a one-line summary of the engine's lifetime counters
    /// (for the harness's stderr footer). `None` before any sweep ran.
    pub fn summary(&self) -> Option<String> {
        let report = {
            self.metrics.snapshot("summary", SimTime::ZERO);
            self.metrics.report()
        };
        let total = report.final_value("sweep/points_total")?;
        if total == 0 {
            return None;
        }
        let hits = report.final_value("sweep/cache_hits").unwrap_or(0);
        let simulated = report.final_value("sweep/simulated").unwrap_or(0);
        let cache = match self.cache_dir() {
            Some(d) => format!("{}", d.display()),
            None => "off".to_string(),
        };
        Some(format!(
            "[sweep: {total} points, {hits} cache hits, {simulated} simulated, jobs={}, cache={cache}]",
            self.jobs
        ))
    }
}

impl Drop for Sweeper {
    /// Closes the resident pool, if one was started, and joins its
    /// workers once they have drained the queue.
    fn drop(&mut self) {
        let Some(resident) = self.resident.take() else {
            return;
        };
        resident
            .pool
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .closed = true;
        resident.pool.ready.notify_all();
        for w in resident.workers {
            let _ = w.join();
        }
    }
}

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

static GLOBAL: OnceLock<Sweeper> = OnceLock::new();

/// Installs the process-wide engine (the `repro` harness calls this
/// once from its CLI flags). Returns `false` if an engine was already
/// installed — the existing one keeps running, matching `OnceLock`
/// semantics.
pub fn configure(sweeper: Sweeper) -> bool {
    GLOBAL.set(sweeper).is_ok()
}

/// The process-wide engine `run_matrix` routes through. Defaults to
/// all hardware threads and **no cache** (library users and tests get
/// pure in-memory behaviour unless they opt in via [`configure`]).
pub fn global() -> &'static Sweeper {
    GLOBAL.get_or_init(|| Sweeper::new(default_jobs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_core::design::DesignPoint;
    use ndpb_dram::Geometry;
    use std::time::Duration;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::with_geometry(Geometry::with_total_ranks(1))
    }

    fn points() -> Vec<SweepPoint> {
        ["ll", "spmv", "ht"]
            .iter()
            .flat_map(|&app| {
                [DesignPoint::C, DesignPoint::O]
                    .map(|d| SweepPoint::new(app, Column::Ndp(d), tiny_cfg(), Scale::Tiny))
            })
            .collect()
    }

    fn fingerprint(results: &[RunResult]) -> Vec<String> {
        results.iter().map(RunResult::to_json).collect()
    }

    #[test]
    fn merge_order_matches_input_order_for_any_job_count() {
        let baseline = fingerprint(&Sweeper::new(1).run(points()));
        for jobs in [2, 8, 32] {
            let got = fingerprint(&Sweeper::new(jobs).run(points()));
            assert_eq!(got, baseline, "jobs={jobs} must be invisible");
        }
        // Results land app-major, column-minor, like the input.
        let r = Sweeper::new(4).run(points());
        assert_eq!(r[0].app, "ll");
        assert_eq!(r[0].design, "C");
        assert_eq!(r[1].design, "O");
        assert_eq!(r[4].app, "ht");
    }

    #[test]
    fn warm_cache_simulates_nothing_and_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("ndpb-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = Sweeper::new(4).with_cache(&dir);
        let first = fingerprint(&cold.run(points()));
        let report = cold.metrics().report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(0));
        assert_eq!(report.final_value("sweep/cache_misses"), Some(6));
        assert_eq!(report.final_value("sweep/simulated"), Some(6));

        let warm = Sweeper::new(4).with_cache(&dir);
        let second = fingerprint(&warm.run(points()));
        assert_eq!(second, first, "cache hits must reproduce live output");
        let report = warm.metrics().report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(6));
        assert_eq!(
            report.final_value("sweep/simulated"),
            Some(0),
            "warm rerun must not simulate"
        );
        assert!(warm.summary().unwrap().contains("6 cache hits"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audited_sweep_bypasses_unaudited_cache_but_matches_results() {
        let dir = std::env::temp_dir().join(format!("ndpb-sweep-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold unaudited sweep populates the cache. `Off` is forced
        // explicitly — under debug builds the config *default* is
        // already `Full`, which would collapse the two key spaces.
        let plain = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let baseline = fingerprint(&plain.run(points()));

        // The audited sweep must not consume those entries (the audit
        // level is folded into the key), yet — the auditor being purely
        // observational — its results must be bit-identical.
        let audited = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert_eq!(audited.audit(), Some(AuditLevel::Full));
        let got = fingerprint(&audited.run(points()));
        assert_eq!(got, baseline, "audit must not perturb results");
        let report = audited.metrics().report();
        assert_eq!(
            report.final_value("sweep/cache_hits"),
            Some(0),
            "audited points must never reuse unaudited cache entries"
        );
        assert_eq!(report.final_value("sweep/simulated"), Some(6));

        // A second audited sweep hits the now-audited entries.
        let warm = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert_eq!(fingerprint(&warm.run(points())), baseline);
        assert_eq!(
            warm.metrics().report().final_value("sweep/cache_hits"),
            Some(6)
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_progress_counters_cover_all_simulations() {
        let sw = Sweeper::new(3);
        let n = sw.run(points()).len() as u64;
        let report = sw.metrics().report();
        let per_worker: u64 = report
            .names_under("sweep")
            .filter(|name| name.ends_with("/points"))
            .filter_map(|name| report.final_value(name))
            .sum();
        assert_eq!(per_worker, n, "every point is attributed to a worker");
        assert_eq!(report.final_value("sweep/points_total"), Some(n));
    }

    #[test]
    fn empty_sweep_is_fine_and_summary_reports_nothing() {
        let sw = Sweeper::new(8);
        assert!(sw.run(Vec::new()).is_empty());
        assert!(sw.summary().is_none());
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let sw = Sweeper::new(0);
        assert_eq!(sw.jobs(), 1);
        assert_eq!(sw.run(points()).len(), 6);
    }

    #[test]
    fn submitted_points_match_batch_results() {
        let sw = Sweeper::new(3);
        let batch = fingerprint(&Sweeper::new(1).run(points()));
        let tickets: Vec<_> = points().into_iter().map(|p| sw.submit(p)).collect();
        let got: Vec<String> = tickets.into_iter().map(|t| t.wait().to_json()).collect();
        assert_eq!(got, batch, "resident pool must reproduce batch output");
        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/simulated"), Some(6));
        assert_eq!(report.final_value("sweep/points_total"), Some(6));
    }

    #[test]
    fn dropping_the_sweeper_joins_its_resident_pool() {
        let sw = Sweeper::new(2);
        let p = points().swap_remove(0);
        sw.submit(p).wait();
        let pool = Arc::downgrade(&sw.resident.get().expect("submit started the pool").pool);
        drop(sw);
        assert!(
            pool.upgrade().is_none(),
            "resident workers must exit when the sweeper drops"
        );
    }

    #[test]
    fn a_panicking_point_fails_its_ticket_and_the_pool_survives() {
        let sw = Sweeper::new(1);
        let bad = SweepPoint::new("nope", Column::Ndp(DesignPoint::C), tiny_cfg(), Scale::Tiny);
        let bad = sw.submit(bad);
        let payload = panic::catch_unwind(AssertUnwindSafe(|| bad.clone().wait()))
            .expect_err("an unknown application must panic on wait");
        let msg = payload.downcast::<String>().expect("the panic message");
        assert!(msg.contains("unknown application"), "payload: {msg:?}");
        assert_eq!(bad.outcome().unwrap().err(), Some(msg.as_str()));

        // The lone worker must still be alive to run the next point.
        let good = sw.submit(points().swap_remove(0));
        let deadline = Instant::now() + Duration::from_secs(60);
        while good.outcome().is_none() {
            assert!(
                Instant::now() < deadline,
                "the pool lost its worker to the earlier panic"
            );
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(good.outcome().unwrap().unwrap().app, "ll");
        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/simulated"), Some(1));
    }

    #[test]
    fn cached_probe_hits_after_submit_and_respects_audit_override() {
        let dir = std::env::temp_dir().join(format!("ndpb-submit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let sw = Sweeper::new(2).with_cache(&dir).with_audit(AuditLevel::Off);
        let p = SweepPoint::new("ll", Column::Ndp(DesignPoint::C), tiny_cfg(), Scale::Tiny);
        assert!(sw.cached(&p).is_none(), "cold cache misses");
        let live = sw.submit(p.clone()).wait();
        let hit = sw.cached(&p).expect("submit populated the cache");
        assert_eq!(hit.to_json(), live.to_json());

        // A different audit level keys differently, so it misses.
        let audited = Sweeper::new(2)
            .with_cache(&dir)
            .with_audit(AuditLevel::Full);
        assert!(audited.cached(&p).is_none());

        let report = sw.metrics().live_report();
        assert_eq!(report.final_value("sweep/cache_hits"), Some(1));
        assert_eq!(report.final_value("sweep/points_total"), Some(2));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_engine_is_installed_once() {
        // Whichever call wins, subsequent configuration is rejected and
        // the instance stays stable.
        let first = global() as *const Sweeper;
        assert!(!configure(Sweeper::new(2)), "global already initialized");
        assert_eq!(first, global() as *const Sweeper);
    }
}
