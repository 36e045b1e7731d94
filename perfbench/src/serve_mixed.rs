//! `serve-mixed`: an in-process `ndpb-serve` (port 0, fresh cache
//! directory, `jobs` = nproc) driven by a closed loop of `jobs`
//! keep-alive client connections. Each client POSTs `/run`, then polls
//! `/job/N` (at most 1 ms apart) until the job is done, then sends its
//! next request.
//!
//! Requests are a seeded sequence of Zipf-skewed draws over the Tiny
//! (app, column) cells (9 apps × 13 columns); one request in four asks
//! for a whole fig10 row (C, B, W, O). Early draws miss, simulate and
//! write the cache; most later draws are cache hits or in-flight
//! dedups. So the median latency measures the HTTP, job and cache-read
//! path, and the tail measures cold simulations queued behind the pool.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ndpb_bench::json::Json;
use ndpb_bench::Column;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_serve::{Server, ServerConfig};
use ndpb_workloads::{Scale, APP_NAMES, EXTRA_APP_NAMES};

use crate::check::same_bytes;
use crate::client::{one_shot, Client};
use crate::common::{peak_rss_mb, secs, Ctx, Outcome, Reps};
use crate::layers::{codec_pass, fold_points, traced_point, TracedPoint};
use crate::report::{Values, END_TO_END, EXTRAS, PER_LAYER};
use crate::stats::{beyond, median, percentile};

/// The 13 design columns a request can name.
pub const SERVE_COLUMNS: [Column; 13] = [
    Column::Ndp(DesignPoint::C),
    Column::Ndp(DesignPoint::B),
    Column::Ndp(DesignPoint::W),
    Column::Ndp(DesignPoint::O),
    Column::Ndp(DesignPoint::R),
    Column::Ndp(DesignPoint::WAdv),
    Column::Ndp(DesignPoint::WFine),
    Column::Ndp(DesignPoint::WHot),
    Column::Ndp(DesignPoint::WByte),
    Column::Ndp(DesignPoint::WLent),
    Column::Ndp(DesignPoint::WGather),
    Column::Ndp(DesignPoint::OGather),
    Column::Host,
];

/// Zipf exponent of the cell popularity.
const ZIPF_THETA: f64 = 0.99;
/// Gap between polls of one job.
const POLL_GAP: Duration = Duration::from_micros(250);
/// A request not done after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up samples taken per run: a bind is about a millisecond, so
/// the median needs many of them to be steady.
const SETUP_SAMPLES: usize = 15;

/// One request of the sequence.
#[derive(Debug, Clone)]
pub struct Req {
    /// Application.
    pub app: &'static str,
    /// Columns, in request order.
    pub columns: Vec<Column>,
    /// The `/run` body.
    pub body: String,
}

/// SplitMix64: the benchmark's own generator, so the request sequence
/// depends on the seed alone and never on program code.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded request sequence of `n` requests.
pub fn requests(seed: u64, n: usize) -> Vec<Req> {
    let apps: Vec<&'static str> = APP_NAMES.iter().chain(&EXTRA_APP_NAMES).copied().collect();
    let mut cells: Vec<(&'static str, Column)> = apps
        .iter()
        .flat_map(|&a| SERVE_COLUMNS.iter().map(move |&c| (a, c)))
        .collect();
    let mut rng = SplitMix(seed ^ 0x5E77_ED1C);
    for i in (1..cells.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    let weights: Vec<f64> = (1..=cells.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_THETA))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let rank = cdf.partition_point(|&c| c <= u).min(cells.len() - 1);
            let (app, col) = cells[rank];
            let columns = if rng.next_f64() < 0.25 {
                SERVE_COLUMNS[..4].to_vec()
            } else {
                vec![col]
            };
            let labels: Vec<String> = columns
                .iter()
                .map(|c| format!("\"{}\"", c.label()))
                .collect();
            let body = format!(
                "{{\"app\":\"{app}\",\"designs\":[{}],\"scale\":\"tiny\"}}",
                labels.join(",")
            );
            Req { app, columns, body }
        })
        .collect()
}

/// One served request.
#[derive(Debug, Clone)]
struct Served {
    sent: Instant,
    done: Instant,
    submit_ms: f64,
    polls_ms: Vec<f64>,
    /// The final job document.
    doc: String,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        secs(self.done - self.sent) * 1e3
    }

    /// The `results` array text (the RunResult `to_json` documents).
    fn results_text(&self) -> &str {
        self.doc
            .split_once("\"results\":")
            .map_or("", |(_, rest)| rest)
    }
}

/// One repetition against a fresh server.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    busy_s: f64,
    served: Vec<Result<Served, String>>,
    metrics: Option<String>,
}

fn drive(client: &mut Client, req: &Req) -> Result<Served, String> {
    let err = |e: io::Error| format!("{}: {e}", req.body);
    let sent = Instant::now();
    let (status, mut doc) = client.call("POST", "/run", &req.body).map_err(err)?;
    let submit_ms = secs(sent.elapsed()) * 1e3;
    if status != 200 {
        return Err(format!("{}: POST /run answered {status}: {doc}", req.body));
    }
    let id = Json::parse(&doc)
        .ok()
        .and_then(|j| j.u64_field("id"))
        .ok_or_else(|| format!("{}: job document without an id", req.body))?;
    let path = format!("/job/{id}");
    let mut polls_ms = Vec::new();
    while !doc.contains("\"status\":\"done\"") {
        if sent.elapsed() > REQUEST_TIMEOUT {
            return Err(format!("{}: not done after {REQUEST_TIMEOUT:?}", req.body));
        }
        thread::sleep(POLL_GAP);
        let t = Instant::now();
        let (status, body) = client.call("GET", &path, "").map_err(err)?;
        polls_ms.push(secs(t.elapsed()) * 1e3);
        if status != 200 {
            return Err(format!("{}: GET {path} answered {status}", req.body));
        }
        doc = body;
    }
    Ok(Served {
        sent,
        done: Instant::now(),
        submit_ms,
        polls_ms,
        doc,
    })
}

/// A server running on its own thread over a fresh cache directory.
struct Running {
    addr: SocketAddr,
    handle: thread::JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

/// Binds a server and waits until it answers `/healthz`.
fn start_server(ctx: &mut Ctx) -> Result<Running, String> {
    let dir = ctx.work.fresh("serve");
    let server = Server::bind(&ServerConfig {
        port: 0,
        jobs: ctx.jobs,
        cache_dir: Some(dir.clone()),
        max_queue: 256,
        max_points: 64,
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let handle = thread::spawn(move || server.run());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = one_shot(addr, "GET", "/healthz", Duration::from_secs(5)) {
            return Ok(Running { addr, handle, dir });
        }
        if Instant::now() > deadline {
            return Err("server never answered /healthz".to_string());
        }
        thread::sleep(Duration::from_micros(200));
    }
}

/// Asks the server to drain, joins its thread and removes its cache.
fn stop_server(ctx: &Ctx, server: Running) -> Result<(), String> {
    let asked = one_shot(server.addr, "POST", "/shutdown", Duration::from_secs(10));
    let joined = server.handle.join();
    ctx.work.discard(&server.dir);
    match (asked, joined) {
        (Ok((200, _)), Ok(Ok(()))) => Ok(()),
        (asked, joined) => Err(format!(
            "server did not shut down cleanly: {:?} / {:?}",
            asked.map(|r| r.0),
            joined.map(|r| r.is_ok())
        )),
    }
}

fn rep(ctx: &mut Ctx, reqs: &[Req], scrape: bool) -> Result<Rep, String> {
    let t0 = Instant::now();
    let server = start_server(ctx)?;
    let setup_s = secs(t0.elapsed());
    let addr = server.addr;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<Served, String>>>> =
        Mutex::new((0..reqs.len()).map(|_| None).collect());
    let busy = Mutex::new(0.0f64);
    thread::scope(|s| {
        for _ in 0..ctx.jobs {
            s.spawn(|| {
                let mut client = Client::connect(addr, REQUEST_TIMEOUT).ok();
                let mut my_busy = 0.0;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(i) else { break };
                    let outcome = match client.as_mut() {
                        Some(c) => drive(c, req),
                        None => Err("could not connect".to_string()),
                    };
                    if let Ok(sv) = &outcome {
                        my_busy += sv.submit_ms / 1e3 + sv.polls_ms.iter().sum::<f64>() / 1e3;
                    } else {
                        // A broken connection is not reused.
                        client = Client::connect(addr, REQUEST_TIMEOUT).ok();
                    }
                    slots.lock().expect("slot lock poisoned")[i] = Some(outcome);
                }
                *busy.lock().expect("busy lock poisoned") += my_busy;
            });
        }
    });
    let metrics = if scrape {
        one_shot(addr, "GET", "/metrics", Duration::from_secs(10))
            .ok()
            .map(|(_, body)| body)
    } else {
        None
    };
    stop_server(ctx, server)?;
    let served: Vec<Result<Served, String>> = slots
        .into_inner()
        .expect("slot lock poisoned")
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err("request never ran".to_string())))
        .collect();
    let ok = served.iter().filter_map(|s| s.as_ref().ok());
    let first = ok.clone().map(|s| s.sent).min();
    let last = ok.map(|s| s.done).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => secs(b - a),
        _ => 0.0,
    };
    Ok(Rep {
        setup_s,
        wall_s,
        busy_s: busy.into_inner().expect("busy lock poisoned"),
        served,
        metrics,
    })
}

/// Splits a JSON array's text into its top-level object texts.
fn split_objects(array: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, c) in array.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&array[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Checks one served request; on success returns each point's
/// (column label, result JSON text).
fn check<'a>(
    req: &Req,
    served: &'a Served,
    want: &BTreeMap<&'static str, u64>,
) -> Result<Vec<(String, &'a str)>, String> {
    let texts = split_objects(served.results_text());
    if texts.len() != req.columns.len() {
        return Err(format!(
            "{}: {} results for {} columns",
            req.body,
            texts.len(),
            req.columns.len()
        ));
    }
    let mut points = Vec::new();
    for (col, text) in req.columns.iter().zip(texts) {
        let j = Json::parse(text).map_err(|e| format!("{}: result JSON: {e}", req.body))?;
        let label = col.label();
        let (app, design) = (j.str_field("app"), j.str_field("design"));
        if app != Some(req.app) || design != Some(label.as_str()) {
            return Err(format!("{}: got {app:?}/{design:?}", req.body));
        }
        let checksum = j.u64_field("checksum");
        if checksum != want.get(req.app).copied() {
            return Err(format!(
                "{}/{label}: checksum {checksum:?} != H reference {:?}",
                req.app,
                want.get(req.app)
            ));
        }
        if j.u64_field("events").is_none() {
            return Err(format!("{}/{label}: result without events", req.app));
        }
        points.push((label, text));
    }
    Ok(points)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let reqs = requests(ctx.seed, ctx.size.serve_requests);
    // The service simulates under Table I's own seed; the workload seed
    // only shapes the request sequence.
    let serve_cfg = SystemConfig::table1();
    let mut want = BTreeMap::new();
    for app in APP_NAMES.iter().chain(&EXTRA_APP_NAMES) {
        match ctx.checker.host_checksum(app, Scale::Tiny, &serve_cfg) {
            Ok(c) => {
                want.insert(*app, c);
            }
            Err(e) => out.tally.record(Err(e)),
        }
    }

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    // (app, column) → the result text every document must repeat.
    let mut seen: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut timed_docs: Vec<String> = Vec::new();
    let mut reps = Reps::new(ctx.seconds);
    while reps.another() {
        let r = match rep(ctx, &reqs, false) {
            Ok(r) => r,
            Err(e) => {
                out.tally.fail_all(reqs.len() as u64, e);
                continue;
            }
        };
        let mut docs = Vec::new();
        for (req, served) in reqs.iter().zip(&r.served) {
            let verdict = served.as_ref().map_err(Clone::clone).and_then(|s| {
                latencies.push(s.latency_ms());
                for (label, text) in check(req, s, &want)? {
                    let key = (req.app.to_string(), label);
                    match seen.get(&key) {
                        Some(prev) if prev != text => {
                            return Err(format!(
                                "{}/{}: result differs between documents",
                                key.0, key.1
                            ))
                        }
                        Some(_) => {}
                        None => {
                            seen.insert(key, text.to_string());
                        }
                    }
                }
                Ok(())
            });
            docs.push(
                served
                    .as_ref()
                    .map_or(String::new(), |s| s.results_text().to_string()),
            );
            out.tally.record(verdict);
        }
        walls.push(r.wall_s);
        setups.push(r.setup_s);
        rates.push(simulated_events(&r.served) as f64 / r.wall_s);
        if timed_docs.is_empty() {
            timed_docs = docs;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        match start_server(ctx) {
            Ok(server) => {
                setups.push(secs(t0.elapsed()));
                if let Err(e) = stop_server(ctx, server) {
                    out.tally.record(Err(e));
                }
            }
            Err(e) => {
                out.tally.record(Err(e));
                break;
            }
        }
    }

    let wall = median(&walls);
    out.samples.push(("wall_s", walls));
    out.samples.push(("setup_s", setups.clone()));
    if ctx.trace {
        traced(ctx, &reqs, wall, &timed_docs, &seen, &mut out);
        return out;
    }
    let mut v = Values::default();
    v.set("wall_s", wall);
    v.set("setup_s", median(&setups));
    v.set("events_per_s", median(&rates));
    v.set("jobs_per_s", reqs.len() as f64 / wall);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("p50_ms", median(&latencies));
    v.set("p99_ms", percentile(&latencies, 99.0));
    v.set("failed_frac", out.tally.failed_frac());
    out.notes.push(format!(
        "latency samples: {} ({} beyond p99)",
        latencies.len(),
        beyond(&latencies, 99.0)
    ));
    out.samples.push(("latency_ms", latencies));
    out.metrics = v.emit(&END_TO_END);
    out.extras = v.emit_set(&EXTRAS);
    out
}

/// Σ events over the distinct points a repetition's documents carry.
/// Each distinct point simulates exactly once against a fresh server and
/// cache; later requests for it are dedups or cache hits.
fn simulated_events(served: &[Result<Served, String>]) -> u64 {
    let mut events = BTreeMap::new();
    for s in served.iter().filter_map(|s| s.as_ref().ok()) {
        for text in split_objects(s.results_text()) {
            if let Ok(j) = Json::parse(text) {
                let key = (
                    j.str_field("app").map(str::to_string),
                    j.str_field("design").map(str::to_string),
                );
                events.insert(key, j.u64_field("events").unwrap_or(0));
            }
        }
    }
    events.values().sum()
}

/// The traced pass: replay the sequence on a fresh server recording
/// every call's round trip and the `/metrics` counters; then re-run the
/// distinct points serially with the profiler armed (the simulation
/// work this workload asks the pool for) and push them through the
/// cache/codec pass.
fn traced(
    ctx: &mut Ctx,
    reqs: &[Req],
    timed_wall: f64,
    timed_docs: &[String],
    seen: &BTreeMap<(String, String), String>,
    out: &mut Outcome,
) {
    let mut v = Values::default();
    let r = match rep(ctx, reqs, true) {
        Ok(r) => r,
        Err(e) => {
            out.tally.fail_all(reqs.len() as u64, e);
            out.metrics = v.emit(&PER_LAYER);
            return;
        }
    };
    let mut submits = Vec::new();
    let mut polls = Vec::new();
    let mut polls_per_job = Vec::new();
    for (i, s) in r.served.iter().enumerate() {
        let verdict = s.as_ref().map_err(Clone::clone).and_then(|s| {
            submits.push(s.submit_ms);
            polls.extend_from_slice(&s.polls_ms);
            polls_per_job.push(s.polls_ms.len() as f64);
            same_bytes(timed_docs.get(i), s.results_text(), &reqs[i].body)
        });
        out.tally.record(verdict);
    }
    v.set("serve.submit_ms.p50", median(&submits));
    v.set("serve.submit_ms.p99", percentile(&submits, 99.0));
    v.set("serve.poll_ms.p50", median(&polls));
    v.set(
        "serve.polls_per_job",
        polls_per_job.iter().sum::<f64>() / polls_per_job.len().max(1) as f64,
    );
    if let Some(m) = r.metrics.as_deref().and_then(|m| Json::parse(m).ok()) {
        let server = m.get("server");
        let c = |k: &str| server.and_then(|s| s.u64_field(k)).unwrap_or(0) as f64;
        let (hits, dedup, sims) = (c("cache_hits"), c("deduped"), c("completed"));
        let total = (hits + dedup + sims).max(1.0);
        v.set("serve.hit_frac", hits / total);
        v.set("serve.dedup_frac", dedup / total);
        v.set("serve.sim_frac", sims / total);
    } else {
        out.tally.record(Err("GET /metrics failed".to_string()));
    }
    v.set("trace.overhead_frac", r.wall_s / timed_wall - 1.0);
    v.set(
        "trace.uncovered_frac",
        1.0 - r.busy_s / (ctx.jobs as f64 * r.wall_s),
    );

    // The simulation work behind the replay, point by point.
    let cfg = SystemConfig::table1();
    let mut points: Vec<TracedPoint> = Vec::new();
    let mut apps = Vec::new();
    for ((app, label), text) in seen {
        let Some(&col) = SERVE_COLUMNS.iter().find(|c| c.label() == *label) else {
            continue;
        };
        match traced_point(app, col, cfg.clone(), Scale::Tiny) {
            Ok(p) => {
                out.tally
                    .record(same_bytes(Some(text), &p.result.to_json(), label));
                points.push(p);
                apps.push(app.clone());
            }
            Err(e) => out.tally.record(Err(e)),
        }
    }
    fold_points(&points, &mut v);
    let busy: f64 = points.iter().map(TracedPoint::total_s).sum();
    v.set("sweep.idle_s", (ctx.jobs as f64 * r.wall_s - busy).max(0.0));
    let dir = ctx.work.fresh("serve-codec");
    codec_pass(
        &mut points,
        &apps,
        Scale::Tiny,
        &cfg,
        &dir,
        &mut v,
        &mut out.tally,
    );
    ctx.work.discard(&dir);
    out.metrics = v.emit(&PER_LAYER);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_seeded_and_mixed() {
        let a = requests(7, 400);
        let b = requests(7, 400);
        assert_eq!(
            a.iter().map(|r| &r.body).collect::<Vec<_>>(),
            b.iter().map(|r| &r.body).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|r| &r.body).collect::<Vec<_>>(),
            requests(8, 400).iter().map(|r| &r.body).collect::<Vec<_>>()
        );
        let rows = a.iter().filter(|r| r.columns.len() == 4).count();
        assert!((60..140).contains(&rows), "{rows} row requests of 400");
    }

    #[test]
    fn split_objects_respects_nesting_and_strings() {
        let v = split_objects("[{\"a\":{\"b\":1}},{\"s\":\"}{\"}]}");
        assert_eq!(v, vec!["{\"a\":{\"b\":1}}", "{\"s\":\"}{\"}"]);
    }
}
