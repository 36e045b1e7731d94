//! # ndpb-serve
//!
//! A resident simulation-as-a-service front-end over the sweep engine:
//! the `repro serve` subcommand binds a TCP port and turns the one-shot
//! CLI into a long-running server. The pipeline per request is
//!
//! ```text
//! admission → dedup/batch → resident pool → result cache
//! ```
//!
//! * **Admission** bounds the number of unique in-flight points
//!   (`max_queue`, 429 on overflow) and the per-request point count
//!   (`max_points`, 413 on overflow); a draining server answers 503.
//! * **Dedup** coalesces identical in-flight [`SweepPoint`]s: all
//!   concurrent requests for one content-addressed key share the pool's
//!   [`PointTicket`], the simulation runs exactly once, and every
//!   attached job reads the result from that ticket when polled.
//! * The **resident pool** is [`Sweeper::submit`] — detached workers
//!   that survive between requests and fill each ticket directly, with
//!   the result or the simulation's panic message (the job then reads
//!   `failed`).
//! * The **cache** serves repeat keys without touching the pool at all:
//!   pool workers store results on disk *before* filling a ticket, and
//!   finished tickets leave the in-flight table only at the next
//!   admission, so every submitted key is obtainable from the in-flight
//!   table or the cache.
//!
//! Endpoints: `POST /run`, `GET /job/{id}`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`, over a small HTTP/1.1 subset (see
//! [`http`]). `/metrics` carries the server counters, the pool's
//! `last_run` gauges (events and wall time of the latest simulation,
//! timed by the worker around `simulate`) and the pool's live metrics
//! table. SIGINT or `/shutdown` drains in-flight jobs before exiting.

pub mod http;
pub mod jobs;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use ndpb_bench::{PointTicket, SweepPoint, Sweeper};

use jobs::{json_string, Job, JobPoint, RunRequest};

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Simulation worker count for the resident pool.
    pub jobs: usize,
    /// Result-cache directory (`None` disables the cache — every
    /// request simulates, and restarts serve nothing).
    pub cache_dir: Option<PathBuf>,
    /// Admission bound on unique in-flight points (429 beyond it).
    pub max_queue: usize,
    /// Admission bound on points per request (413 beyond it).
    pub max_points: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            jobs: ndpb_bench::sweep::default_jobs(),
            cache_dir: Some(PathBuf::from("target/repro-cache")),
            max_queue: 256,
            max_points: 64,
        }
    }
}

/// Number of connection-handling threads. Requests are short (submits
/// return immediately; clients poll), so a small fixed crew suffices.
const HTTP_WORKERS: usize = 8;

/// How often the supervisor thread polls for shutdown/drain progress.
const POLL: Duration = Duration::from_millis(25);

/// Per-connection read timeout so an idle keep-alive client cannot pin
/// a worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Shared server state: the engine, the job/dedup tables, counters.
#[derive(Debug)]
pub struct State {
    sweeper: Sweeper,
    jobs: Mutex<HashMap<u64, Job>>,
    next_job: AtomicU64,
    /// In-flight dedup table: point key → the ticket its simulation
    /// fills (after storing the result in the cache).
    inflight: Mutex<HashMap<u64, PointTicket>>,
    max_queue: usize,
    max_points: usize,
    accepted: AtomicU64,
    rejected: AtomicU64,
    deduped: AtomicU64,
    shutdown: AtomicBool,
}

impl State {
    fn new(cfg: &ServerConfig) -> Arc<Self> {
        let mut sweeper = Sweeper::new(cfg.jobs);
        if let Some(dir) = &cfg.cache_dir {
            sweeper = sweeper.with_cache(dir.clone());
        }
        Arc::new(State {
            sweeper,
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            max_queue: cfg.max_queue.max(1),
            max_points: cfg.max_points.max(1),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The underlying engine (its metrics feed `/metrics`).
    pub fn sweeper(&self) -> &Sweeper {
        &self.sweeper
    }

    /// True once `/shutdown` or SIGINT was seen.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Unique in-flight (submitted, not yet finished) points: the
    /// unfinished tickets in the in-flight table.
    pub fn in_flight(&self) -> u64 {
        let inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.values().filter(|t| t.outcome().is_none()).count() as u64
    }

    /// Routes one parsed request to its handler; returns (status, body).
    pub fn dispatch(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        match (method, path) {
            ("POST", "/run") => self.handle_run(body),
            ("GET", "/metrics") => (200, self.metrics_json()),
            ("GET", "/healthz") => (200, self.healthz_json()),
            ("POST", "/shutdown") | ("GET", "/shutdown") => {
                self.begin_shutdown();
                (200, "{\"ok\":true,\"draining\":true}".to_string())
            }
            ("GET", _) if path.starts_with("/job/") => self.handle_job(&path[5..]),
            ("GET", "/run") => (405, err_body("POST a JSON body to /run")),
            _ => (404, err_body("no such endpoint")),
        }
    }

    /// `POST /run`: parse, then [`admit`](Self::admit).
    fn handle_run(&self, body: &str) -> (u16, String) {
        if self.shutting_down() {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (503, err_body("shutting down"));
        }
        match RunRequest::parse(body) {
            Ok(req) => self.admit(req.points()),
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                (400, err_body(&e))
            }
        }
    }

    /// Admission → dedup → cache fast path → pool, for one request's
    /// points; answers the new job's document.
    fn admit(&self, points: Vec<SweepPoint>) -> (u16, String) {
        if points.len() > self.max_points {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (
                413,
                err_body(&format!(
                    "request expands to {} points, budget is {}",
                    points.len(),
                    self.max_points
                )),
            );
        }

        // Classify every point under the in-flight lock so admission,
        // dedup and the cache fast path are atomic with respect to
        // concurrent submitters. A finished ticket's result is already
        // in the cache (or its simulation failed and a resubmit retries
        // it), so finished tickets leave the table first.
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.retain(|_, t| t.outcome().is_none());
        let mut slots: Vec<Result<JobPoint, (u64, SweepPoint)>> = Vec::with_capacity(points.len());
        for p in points {
            let key = p.key();
            if let Some(ticket) = inflight.get(&key) {
                self.deduped.fetch_add(1, Ordering::SeqCst);
                slots.push(Ok(JobPoint::Pending(ticket.clone())));
            } else if let Some(hit) = self.sweeper.cached(&p) {
                slots.push(Ok(JobPoint::Ready(hit.to_json())));
            } else {
                slots.push(Err((key, p)));
            }
        }
        let fresh = slots.iter().filter(|s| s.is_err()).count();
        if inflight.len() + fresh > self.max_queue {
            // Reject before submitting anything; attached dedup
            // tickets cost nothing (their owners keep running).
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return (
                429,
                err_body(&format!(
                    "queue full ({} in flight, {fresh} requested, bound {})",
                    inflight.len(),
                    self.max_queue
                )),
            );
        }
        let points = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|(key, point)| {
                    let ticket = self.sweeper.submit(point);
                    inflight.insert(key, ticket.clone());
                    JobPoint::Pending(ticket)
                })
            })
            .collect();
        drop(inflight);

        self.accepted.fetch_add(1, Ordering::SeqCst);
        let id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let job = Job { points };
        let doc = job.to_json(id);
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, job);
        (200, doc)
    }

    /// `GET /job/{id}`.
    fn handle_job(&self, id: &str) -> (u16, String) {
        let Ok(id) = id.parse::<u64>() else {
            return (404, err_body("job ids are integers"));
        };
        let job = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.get(&id).cloned()
        };
        match job {
            Some(job) => (200, job.to_json(id)),
            None => (404, err_body("no such job")),
        }
    }

    /// `GET /metrics`: server counters, the latest simulation's
    /// throughput, plus the engine's live table. `cache_hits`,
    /// `completed` and `last_run` read the engine's own counters;
    /// `last_run.wall_ns` is the latest simulation's own wall time,
    /// zero until one finishes.
    pub fn metrics_json(&self) -> String {
        let sweep = self.sweeper.metrics().live_report();
        let value = |name| sweep.final_value(name).unwrap_or(0);
        let last_events = value("sweep/last_run/events");
        let last_wall_ns = value("sweep/last_run/wall_ns");
        let eps = if last_wall_ns > 0 {
            last_events as f64 * 1e9 / last_wall_ns as f64
        } else {
            0.0
        };
        format!(
            "{{\"server\":{{\"accepted\":{},\"rejected\":{},\"deduped\":{},\"cache_hits\":{},\"in_flight\":{},\"completed\":{}}},\"last_run\":{{\"events\":{},\"wall_ns\":{},\"events_per_sec\":{:.1}}},\"sweep\":{}}}",
            self.accepted.load(Ordering::SeqCst),
            self.rejected.load(Ordering::SeqCst),
            self.deduped.load(Ordering::SeqCst),
            value("sweep/cache_hits"),
            self.in_flight(),
            value("sweep/simulated"),
            last_events,
            last_wall_ns,
            eps,
            sweep.to_json(),
        )
    }

    /// `GET /healthz`.
    fn healthz_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"jobs\":{},\"in_flight\":{},\"draining\":{}}}",
            self.jobs.lock().unwrap_or_else(|e| e.into_inner()).len(),
            self.in_flight(),
            self.shutting_down(),
        )
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", json_string(msg))
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<State>,
}

impl Server {
    /// Binds 127.0.0.1:`port` and builds the shared state. The engine's
    /// pool threads start lazily on the first submit. On glibc this
    /// also caps the process's malloc arenas at `jobs` (see
    /// `cap_malloc_arenas`).
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        cap_malloc_arenas(cfg.jobs);
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            state: State::new(cfg),
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests poke it directly).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Serves until `/shutdown` (or SIGINT), then drains: waits for
    /// every in-flight point to finish — and land in the cache — before
    /// returning. Blocks the calling thread for the server's lifetime.
    pub fn run(self) -> io::Result<()> {
        #[cfg(unix)]
        install_sigint_handler();
        eprintln!("[serve] listening on {}", self.addr);
        let mut workers = Vec::new();
        for w in 0..HTTP_WORKERS {
            let listener = self.listener.try_clone()?;
            let state = Arc::clone(&self.state);
            workers.push(
                thread::Builder::new()
                    .name(format!("http-{w}"))
                    .spawn(move || {
                        while !state.shutting_down() {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if state.shutting_down() {
                                        break;
                                    }
                                    let _ = handle_connection(stream, &state);
                                }
                                Err(_) => break,
                            }
                        }
                    })?,
            );
        }

        // Supervisor loop: promote SIGINT to a shutdown, then unblock
        // the accept() calls with dummy connections and drain.
        loop {
            #[cfg(unix)]
            if sigint_seen() {
                eprintln!("[serve] SIGINT, draining");
                self.state.begin_shutdown();
            }
            if self.state.shutting_down() {
                break;
            }
            thread::sleep(POLL);
        }
        for _ in 0..HTTP_WORKERS {
            // Each worker consumes at most one wake-up connection.
            let _ = TcpStream::connect(self.addr);
        }
        for w in workers {
            let _ = w.join();
        }
        while self.state.in_flight() > 0 {
            thread::sleep(POLL);
        }
        eprintln!("[serve] drained, exiting");
        Ok(())
    }
}

/// Serves one connection: HTTP requests until the client or the server
/// asks to close it.
fn handle_connection(stream: TcpStream, state: &State) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    while let Some(req) = http::read_request(&mut reader)? {
        let (status, body) = state.dispatch(&req.method, &req.path, &req.body);
        let keep = req.keep_alive && !state.shutting_down();
        http::write_response(&mut stream, status, &body, keep)?;
        if !keep {
            break;
        }
    }
    Ok(())
}

#[cfg(unix)]
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn sigint_seen() -> bool {
    SIGINT_FLAG.load(Ordering::SeqCst)
}

/// Caps glibc's malloc arenas at the pool's worker count. Every server
/// starts fresh pool and HTTP threads, and glibc hands each new thread
/// an arena of its own, up to eight per core. So a process that runs
/// server after server (the tests, perfbench's `serve-mixed`) leaves
/// freed simulation buffers in more and more arenas, and its peak RSS
/// grows with every server. With one arena per simulation worker that
/// memory is reused instead.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(jobs: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    let arenas = i32::try_from(jobs.max(1)).unwrap_or(i32::MAX);
    // SAFETY: `mallopt` only sets an allocator parameter, under
    // glibc's own lock; it reads no memory of ours.
    unsafe {
        mallopt(M_ARENA_MAX, arenas);
    }
}

/// Registers a SIGINT handler that only sets a flag (the async-signal-
/// safe minimum); the supervisor loop notices it within one poll tick.
/// Raw libc `signal` keeps the workspace dependency-free.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_bench::Column;
    use ndpb_core::design::DesignPoint;
    use ndpb_workloads::Scale;

    fn test_state(max_queue: usize, max_points: usize) -> Arc<State> {
        State::new(&ServerConfig {
            port: 0,
            jobs: 2,
            cache_dir: None,
            max_queue,
            max_points,
        })
    }

    /// Waits until every submitted point has finished.
    fn wait_idle(state: &State) {
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while state.in_flight() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "points never finished"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn dedup_attaches_to_a_preinserted_inflight_cell() {
        // Deterministic dedup check, no timing: pre-insert the ticket an
        // "earlier request" would own, then submit the same point.
        let state = test_state(8, 8);
        let req = RunRequest::parse("{\"app\":\"ll\",\"design\":\"C\"}").unwrap();
        let key = req.points()[0].key();
        state
            .inflight
            .lock()
            .unwrap()
            .insert(key, PointTicket::default());

        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"ll\",\"design\":\"C\"}");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"queued\""), "{body}");
        assert_eq!(state.deduped.load(Ordering::SeqCst), 1);
        assert_eq!(state.in_flight(), 1, "one unique point, however many jobs");
        assert_eq!(
            state
                .sweeper
                .metrics()
                .live_report()
                .final_value("sweep/simulated"),
            None,
            "nothing was ever submitted to the pool"
        );
    }

    #[test]
    fn queue_bound_rejects_with_429() {
        let state = test_state(1, 8);
        let other = SweepPoint::new(
            "pr",
            Column::Ndp(DesignPoint::C),
            ndpb_core::config::SystemConfig::table1(),
            Scale::Tiny,
        );
        state
            .inflight
            .lock()
            .unwrap()
            .insert(other.key(), PointTicket::default());
        let (status, body) = state.dispatch("POST", "/run", "{\"app\":\"ll\"}");
        assert_eq!(status, 429, "{body}");
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
        assert_eq!(state.accepted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_point_fails_its_job_and_leaves_nothing_in_flight() {
        let state = test_state(8, 8);
        let cfg = ndpb_core::config::SystemConfig::table1();
        let bad = SweepPoint::new("nope", Column::Ndp(DesignPoint::C), cfg, Scale::Tiny);
        assert_eq!(state.admit(vec![bad]).0, 200);
        // A drain waits on the in-flight count; it must not stick at
        // the failure.
        wait_idle(&state);
        let (_, doc) = state.dispatch("GET", "/job/1", "");
        assert!(doc.contains("\"status\":\"failed\""), "{doc}");
        assert!(doc.contains("unknown application"), "{doc}");
    }

    #[test]
    fn point_budget_rejects_with_413() {
        let state = test_state(64, 3);
        let (status, _) = state.dispatch(
            "POST",
            "/run",
            "{\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"B\"]}",
        );
        assert_eq!(status, 413);
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bad_requests_reject_and_count() {
        let state = test_state(8, 8);
        assert_eq!(state.dispatch("POST", "/run", "{").0, 400);
        assert_eq!(state.dispatch("GET", "/nope", "").0, 404);
        assert_eq!(state.dispatch("GET", "/job/zzz", "").0, 404);
        assert_eq!(state.dispatch("GET", "/job/99", "").0, 404);
        assert_eq!(state.dispatch("GET", "/run", "").0, 405);
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_rejects_new_runs_with_503() {
        let state = test_state(8, 8);
        state.begin_shutdown();
        let (status, _) = state.dispatch("POST", "/run", "{\"app\":\"ll\"}");
        assert_eq!(status, 503);
        assert!(state.healthz_json().contains("\"draining\":true"));
    }

    #[test]
    fn metrics_document_is_parseable_and_has_server_counters() {
        let state = test_state(8, 8);
        let doc = state.metrics_json();
        let j = ndpb_bench::json::Json::parse(&doc).expect("valid JSON");
        let server = j.get("server").expect("server block");
        for k in [
            "accepted",
            "rejected",
            "deduped",
            "cache_hits",
            "in_flight",
            "completed",
        ] {
            assert_eq!(server.u64_field(k), Some(0), "{k}");
        }
        // No run has completed: the throughput snapshot is all zeros.
        let last = j.get("last_run").expect("last_run block");
        assert_eq!(last.u64_field("events"), Some(0));
        assert_eq!(last.u64_field("wall_ns"), Some(0));
        assert_eq!(last.f64_field("events_per_sec"), Some(0.0));
        assert!(j.get("sweep").is_some());
    }

    #[test]
    fn metrics_report_last_completed_run_throughput() {
        let state = test_state(8, 8);
        let (status, _) = state.dispatch("POST", "/run", "{\"app\":\"ll\",\"design\":\"C\"}");
        assert_eq!(status, 200);
        // The pool worker sets the gauges before it fills the ticket.
        wait_idle(&state);
        let doc = state.metrics_json();
        let j = ndpb_bench::json::Json::parse(&doc).expect("valid JSON");
        let last = j.get("last_run").expect("last_run block");
        assert!(last.u64_field("events").unwrap() > 0, "{doc}");
        assert!(last.u64_field("wall_ns").unwrap() > 0, "{doc}");
        assert!(last.f64_field("events_per_sec").unwrap() > 0.0, "{doc}");
        assert_eq!(
            j.get("server").unwrap().u64_field("completed"),
            Some(1),
            "{doc}"
        );
    }
}
