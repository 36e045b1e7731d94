//! `full-o`: design O over the eight paper apps at `Scale::Full`, one
//! point at a time on one thread — `build_app` → `System::new` → `run`
//! with no sweep pool, no cache and no service in the way.
//!
//! The paper's geometry and design, the longest single runs and the
//! largest working set; load balancing, stealing, the sketch and both
//! bridge levels are all active. Because it bypasses the pool, the
//! cache and the service, a gain in those layers must show here as no
//! change.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ndpb_bench::Column;
use ndpb_core::design::DesignPoint;
use ndpb_core::System;
use ndpb_workloads::{build_app, APP_NAMES};

use crate::check::{expect_result, panic_msg, repeat_check, same_bytes};
use crate::common::{peak_rss_mb, secs, Ctx, Outcome, Reps};
use crate::layers::{codec_pass, fold_points, traced_point};
use crate::report::{Values, END_TO_END, EXTRAS, PER_LAYER};
use crate::stats::median;

/// Set-up samples taken per run (extra set-up-only passes fill in when
/// the budget allows fewer repetitions).
const SETUP_SAMPLES: usize = 3;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scale = ctx.size.full;
    let cfg = ctx.cfg();

    // Untimed: the H reference checksum for each app.
    let mut want = Vec::new();
    for app in APP_NAMES {
        match ctx.checker.host_checksum(app, scale, &cfg) {
            Ok(c) => want.push(Some(c)),
            Err(e) => {
                out.tally.record(Err(e));
                want.push(None);
            }
        }
    }

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut events = 0u64;
    let mut first: Option<Vec<String>> = None;
    let mut reps = Reps::new(ctx.seconds);
    while reps.another() {
        let mut wall = 0.0;
        let mut setup = 0.0;
        let mut docs = Vec::new();
        let mut total_events = 0u64;
        for (i, app) in APP_NAMES.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let a = build_app(app, &cfg.geometry, scale, cfg.seed);
                let sys = System::new(cfg.clone(), DesignPoint::O, a);
                let t1 = Instant::now();
                let r = sys.run();
                (secs(t1 - t0), secs(t1.elapsed()), r)
            }));
            match outcome {
                Ok((s, w, r)) => {
                    setup += s;
                    wall += w;
                    total_events += r.events;
                    let doc = r.to_json();
                    let verdict = match want[i] {
                        Some(c) => expect_result(&r, app, "O", c),
                        None => Err(format!("{app}/O: no H reference")),
                    }
                    .and_then(|()| repeat_check(&first, i, &doc));
                    out.tally.record(verdict);
                    docs.push(doc);
                }
                Err(e) => {
                    out.tally
                        .record(Err(format!("{app}/O: panicked: {}", panic_msg(&e))));
                    docs.push(String::new());
                }
            }
        }
        walls.push(wall);
        setups.push(setup);
        events = total_events;
        first.get_or_insert(docs);
    }
    while setups.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        for app in APP_NAMES {
            let a = build_app(app, &cfg.geometry, scale, cfg.seed);
            drop(System::new(cfg.clone(), DesignPoint::O, a));
        }
        setups.push(secs(t0.elapsed()));
    }

    let wall = median(&walls);
    out.samples.push(("wall_s", walls));
    out.samples.push(("setup_s", setups.clone()));
    if ctx.trace {
        let timed = first.unwrap_or_default();
        traced(ctx, wall, &timed, &mut out);
        return out;
    }
    let mut v = Values::default();
    v.set("wall_s", wall);
    v.set("setup_s", median(&setups));
    v.set("events_per_s", events as f64 / wall);
    v.set("jobs_per_s", APP_NAMES.len() as f64 / wall);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("failed_frac", out.tally.failed_frac());
    out.metrics = v.emit(&END_TO_END);
    out.extras = v.emit_set(&EXTRAS);
    out
}

/// The traced pass: the same points serially with the profiler armed,
/// then the cache/codec pass over their results.
fn traced(ctx: &mut Ctx, timed_wall: f64, timed: &[String], out: &mut Outcome) {
    let scale = ctx.size.full;
    let cfg = ctx.cfg();
    let mut points = Vec::new();
    let mut apps = Vec::new();
    let t0 = Instant::now();
    for (i, app) in APP_NAMES.iter().enumerate() {
        match traced_point(app, Column::Ndp(DesignPoint::O), cfg.clone(), scale) {
            Ok(p) => {
                out.tally
                    .record(same_bytes(timed.get(i), &p.result.to_json(), app));
                points.push(p);
                apps.push(app.to_string());
            }
            Err(e) => out.tally.record(Err(e)),
        }
    }
    let traced_wall = secs(t0.elapsed());
    let mut v = Values::default();
    fold_points(&points, &mut v);
    let traced_run: f64 = points.iter().map(|p| p.run_s).sum();
    let covered: f64 = points.iter().map(|p| p.total_s()).sum();
    v.set("sweep.idle_s", (traced_wall - covered).max(0.0));
    v.set("trace.overhead_frac", traced_run / timed_wall - 1.0);
    v.set("trace.uncovered_frac", 1.0 - covered / traced_wall);
    let dir = ctx.work.fresh("full-o-codec");
    codec_pass(
        &mut points,
        &apps,
        scale,
        &cfg,
        &dir,
        &mut v,
        &mut out.tally,
    );
    ctx.work.discard(&dir);
    out.metrics = v.emit(&PER_LAYER);
}
