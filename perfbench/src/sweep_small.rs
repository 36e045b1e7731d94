//! `sweep-small`: `Sweeper::run` over the eight paper apps × {C, B, W,
//! O, H, R} at `Scale::Small` under Table I, with `jobs` = nproc and
//! the result cache on in a fresh, empty directory — every point
//! misses, simulates and is written.
//!
//! This is what `repro fig10`/`fig11 --small` do with default
//! settings. The 48 points range from milliseconds to over a second,
//! so point order and the slowest point set the tail; all six engines
//! run, host-only and RowClone included.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use ndpb_bench::cache::{point_key, ResultCache};
use ndpb_bench::{matrix_geomean_speedup, Column, SweepPoint, Sweeper};
use ndpb_core::design::DesignPoint;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::RunResult;
use ndpb_core::System;
use ndpb_workloads::{build_app, APP_NAMES};

use crate::check::{panic_msg, repeat_check, same_bytes};
use crate::common::{peak_rss_mb, secs, Ctx, Outcome, Reps};
use crate::layers::{codec_pass, fold_points, traced_point, TracedPoint};
use crate::report::{Values, END_TO_END, EXTRAS, PER_LAYER};
use crate::stats::median;

/// The six design columns, in matrix order.
pub const COLUMNS: [Column; 6] = [
    Column::Ndp(DesignPoint::C),
    Column::Ndp(DesignPoint::B),
    Column::Ndp(DesignPoint::W),
    Column::Ndp(DesignPoint::O),
    Column::Host,
    Column::Ndp(DesignPoint::R),
];

/// The seven ratios Fig 10/11 quote, as (target column, baseline
/// column, paper value) over [`COLUMNS`] indices.
pub const PAPER_RATIOS: [(usize, usize, f64); 7] = [
    (1, 0, 1.51), // B over C
    (2, 0, 2.23), // W over C
    (3, 0, 2.98), // O over C
    (3, 4, 3.59), // O over H
    (5, 0, 1.35), // R over C
    (1, 5, 1.12), // B over R
    (3, 5, 2.23), // O over R
];

/// Set-up samples taken per run.
const SETUP_SAMPLES: usize = 3;

fn points(ctx: &Ctx) -> Vec<SweepPoint> {
    let cfg = ctx.cfg();
    APP_NAMES
        .iter()
        .flat_map(|&app| {
            let cfg = cfg.clone();
            COLUMNS
                .iter()
                .map(move |&col| SweepPoint::new(app, col, cfg.clone(), ctx.size.sweep))
        })
        .collect()
}

/// `exp(mean |ln(sim/paper)|) − 1` over [`PAPER_RATIOS`], each a
/// geomean over the apps of `matrix` (`[app][column]`).
pub fn paper_gap(matrix: &[Vec<RunResult>]) -> f64 {
    let mean = PAPER_RATIOS
        .iter()
        .map(|&(t, b, paper)| (matrix_geomean_speedup(matrix, t, b) / paper).ln().abs())
        .sum::<f64>()
        / PAPER_RATIOS.len() as f64;
    mean.exp() - 1.0
}

/// Σ `build_app` + `System::new`/`HostOnly::new` over the sweep's
/// points, serially, dropping each unrun.
fn setup_pass(points: &[SweepPoint]) -> f64 {
    let t0 = Instant::now();
    for p in points {
        let a = build_app(&p.app, &p.cfg.geometry, p.scale, p.cfg.seed);
        match p.column {
            Column::Ndp(d) => drop(System::new(p.cfg.clone(), d, a)),
            Column::Host => drop(HostOnly::new(p.cfg.clone(), HostOnlyConfig::paper(), a)),
        }
    }
    secs(t0.elapsed())
}

/// Checks one sweep's results; returns the per-point verdicts.
fn check(ctx: &Ctx, results: &[RunResult], first: &Option<Vec<String>>) -> Vec<Result<(), String>> {
    let n = COLUMNS.len();
    let mut verdicts = Vec::with_capacity(results.len());
    for (a, app) in APP_NAMES.iter().enumerate() {
        let row = &results[a * n..(a + 1) * n];
        // H is part of the sweep: every design must compute its value,
        // and so must the shipped reference when it covers this seed.
        let host = row[4].checksum;
        let reference = ctx.checker.lookup(app, ctx.size.sweep, ctx.seed);
        for (c, r) in row.iter().enumerate() {
            let label = COLUMNS[c].label();
            let v = if r.app != *app || r.design != label {
                Err(format!(
                    "expected {app}/{label}, got {}/{}",
                    r.app, r.design
                ))
            } else if r.checksum != host {
                Err(format!(
                    "{app}/{label}: checksum {} disagrees with H {host}",
                    r.checksum
                ))
            } else if reference.is_some_and(|want| want != r.checksum) {
                Err(format!(
                    "{app}/{label}: checksum {} != reference {}",
                    r.checksum,
                    reference.unwrap_or_default()
                ))
            } else {
                repeat_check(first, a * n + c, &r.to_json())
            };
            verdicts.push(v);
        }
    }
    verdicts
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let pts = points(ctx);
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let mut gap = None;
    let mut reps = Reps::new(ctx.seconds);
    while reps.another() {
        if setups.len() < SETUP_SAMPLES {
            setups.push(setup_pass(&pts));
        }
        let dir = ctx.work.fresh("sweep");
        let sweeper = Sweeper::new(ctx.jobs).with_cache(&dir);
        let batch = pts.clone();
        let t0 = Instant::now();
        let results = catch_unwind(AssertUnwindSafe(|| sweeper.run(batch)));
        let wall = secs(t0.elapsed());
        ctx.work.discard(&dir);
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                out.tally.fail_all(
                    pts.len() as u64,
                    format!("sweep panicked: {}", panic_msg(&e)),
                );
                continue;
            }
        };
        for v in check(ctx, &results, &first) {
            out.tally.record(v);
        }
        let events: u64 = results.iter().map(|r| r.events).sum();
        walls.push(wall);
        rates.push(events as f64 / wall);
        let matrix: Vec<Vec<RunResult>> = results
            .chunks(COLUMNS.len())
            .map(<[RunResult]>::to_vec)
            .collect();
        let g = paper_gap(&matrix);
        if gap.is_some_and(|prev| prev != g) {
            out.tally
                .record(Err("paper_gap differs between repetitions".to_string()));
        }
        gap = Some(g);
        first.get_or_insert_with(|| results.iter().map(RunResult::to_json).collect());
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_pass(&pts));
    }

    let wall = median(&walls);
    out.samples.push(("wall_s", walls));
    out.samples.push(("setup_s", setups.clone()));
    if ctx.trace {
        let timed = first.unwrap_or_default();
        traced(ctx, &pts, wall, &timed, &mut out);
        return out;
    }
    let mut v = Values::default();
    v.set("wall_s", wall);
    v.set("setup_s", median(&setups));
    v.set("events_per_s", median(&rates));
    v.set("jobs_per_s", pts.len() as f64 / wall);
    v.set("peak_rss_mb", peak_rss_mb());
    if let Some(g) = gap {
        v.set("paper_gap", g);
    }
    v.set("failed_frac", out.tally.failed_frac());
    out.metrics = v.emit(&END_TO_END);
    out.extras = v.emit_set(&EXTRAS);
    out
}

/// The traced pass: the sweep's points in the sweep's order, pulled by
/// `jobs` workers as `Sweeper::run` does, each timed call by call
/// (build → new → profiled run → cache store), then the codec pass.
fn traced(ctx: &mut Ctx, pts: &[SweepPoint], timed_wall: f64, timed: &[String], out: &mut Outcome) {
    let dir = ctx.work.fresh("sweep-traced");
    let cache = ResultCache::new(&dir);
    let queue = Mutex::new(pts.iter().cloned().enumerate().collect::<VecDeque<_>>());
    let slots: Mutex<Vec<Option<Result<TracedPoint, String>>>> =
        Mutex::new((0..pts.len()).map(|_| None).collect());
    let t0 = Instant::now();
    thread::scope(|s| {
        for _ in 0..ctx.jobs.min(pts.len()) {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue lock poisoned").pop_front();
                let Some((i, p)) = job else { break };
                let key = point_key(&p.app, &p.column.label(), p.scale, &p.cfg);
                let traced = traced_point(&p.app, p.column, p.cfg, p.scale).and_then(|mut tp| {
                    let t = Instant::now();
                    cache
                        .store(key, &tp.result)
                        .map_err(|e| format!("{}/{}: cache store failed: {e}", p.app, tp.label))?;
                    tp.store_s = secs(t.elapsed());
                    Ok(tp)
                });
                slots.lock().expect("slot lock poisoned")[i] = Some(traced);
            });
        }
    });
    let traced_wall = secs(t0.elapsed());

    let mut points = Vec::new();
    let mut apps = Vec::new();
    for (i, slot) in slots
        .into_inner()
        .expect("slot lock poisoned")
        .into_iter()
        .enumerate()
    {
        match slot.unwrap_or_else(|| Err(format!("point {i}: traced worker died"))) {
            Ok(p) => {
                out.tally
                    .record(same_bytes(timed.get(i), &p.result.to_json(), &pts[i].app));
                apps.push(pts[i].app.clone());
                points.push(p);
            }
            Err(e) => out.tally.record(Err(e)),
        }
    }
    let mut v = Values::default();
    fold_points(&points, &mut v);
    let covered: f64 = points.iter().map(TracedPoint::total_s).sum();
    let capacity = ctx.jobs.min(pts.len()) as f64 * traced_wall;
    v.set("sweep.idle_s", (capacity - covered).max(0.0));
    v.set("trace.overhead_frac", traced_wall / timed_wall - 1.0);
    v.set("trace.uncovered_frac", 1.0 - covered / capacity);
    codec_pass(
        &mut points,
        &apps,
        ctx.size.sweep,
        &ctx.cfg(),
        &dir,
        &mut v,
        &mut out.tally,
    );
    ctx.work.discard(&dir);
    out.metrics = v.emit(&PER_LAYER);
}
