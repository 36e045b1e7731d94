//! The traced pass's building blocks: one point timed call by call
//! from outside (`build_app` → `System::new`/`HostOnly::new` →
//! `set_profile` → `run`), the fold of many such points into per-layer
//! metrics, and the result-cache/codec pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use ndpb_bench::cache::{decode_result, encode_result, point_key, ResultCache};
use ndpb_bench::Column;
use ndpb_core::config::SystemConfig;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::{ProfileStats, RunResult};
use ndpb_core::System;
use ndpb_workloads::{build_app, Scale};

use crate::check::panic_msg;
use crate::common::{secs, Tally};
use crate::report::{Values, DESIGNS};
use crate::stats;

/// One point of the traced pass, timed per call.
#[derive(Debug, Clone)]
pub struct TracedPoint {
    /// Column label (`C`, `W+GA`, `H`, …).
    pub label: String,
    /// `build_app` seconds.
    pub build_s: f64,
    /// `System::new` / `HostOnly::new` seconds.
    pub new_s: f64,
    /// `run` seconds.
    pub run_s: f64,
    /// `ResultCache::store` seconds (0 where the workload stores nothing).
    pub store_s: f64,
    /// The run's result (its `profile` is populated).
    pub result: RunResult,
}

impl TracedPoint {
    /// Time of every timed call on this point.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.new_s + self.run_s + self.store_s
    }
}

/// Runs one point with the phase profiler armed, timing each call.
pub fn traced_point(
    app: &str,
    column: Column,
    cfg: SystemConfig,
    scale: Scale,
) -> Result<TracedPoint, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let a = build_app(app, &cfg.geometry, scale, cfg.seed);
        let t1 = Instant::now();
        let (t2, result) = match column {
            Column::Ndp(d) => {
                let mut sys = System::new(cfg, d, a);
                let t2 = Instant::now();
                sys.set_profile();
                (t2, sys.run())
            }
            Column::Host => {
                let mut host = HostOnly::new(cfg, HostOnlyConfig::paper(), a);
                let t2 = Instant::now();
                host.set_profile();
                (t2, host.run())
            }
        };
        let t3 = Instant::now();
        TracedPoint {
            label: column.label(),
            build_s: secs(t1 - t0),
            new_s: secs(t2 - t1),
            run_s: secs(t3 - t2),
            store_s: 0.0,
            result,
        }
    }))
    .map_err(|e| {
        format!(
            "{app}/{}: traced run panicked: {}",
            column.label(),
            panic_msg(&e)
        )
    })
}

/// The base design a column label counts under (`W+GA` → `W`).
pub fn design_bucket(label: &str) -> &'static str {
    let base = label.split('+').next().unwrap_or(label);
    DESIGNS.iter().find(|&&d| d == base).copied().unwrap_or("C")
}

/// Folds traced points into the simulator-layer and model metrics.
pub fn fold_points(points: &[TracedPoint], v: &mut Values) {
    let mut prof = ProfileStats::default();
    let mut run_s = 0.0;
    let mut gathers = 0u64;
    let mut wasted = 0u64;
    let point_s: Vec<f64> = points.iter().map(TracedPoint::total_s).collect();
    for p in points {
        let r = &p.result;
        let pr = r.profile.unwrap_or_default();
        prof.merge(&pr);
        run_s += p.run_s;
        let d = design_bucket(&p.label);
        v.add(dispatch_name(d), pr.dispatch_ns as f64 / 1e9);
        v.add(events_name(d), r.events as f64);
        v.add("core.new_s", p.new_s);
        v.add("workloads.build_s", p.build_s);
        v.add("dram.local_bytes", r.local_dram_bytes as f64);
        v.add("dram.comm_bytes", r.comm_dram_bytes as f64);
        v.add("dram.rank_bus_bytes", r.rank_bus_bytes as f64);
        v.add("dram.channel_bytes", r.channel_bytes as f64);
        v.add("proto.messages", r.messages_delivered as f64);
        v.add("core.steal.lb_rounds", r.lb_rounds as f64);
        v.add("core.steal.blocks_migrated", r.blocks_migrated as f64);
        v.add("core.steal.tasks_rerouted", r.tasks_rerouted as f64);
        let m = |name: &str| r.metrics.final_value(name).unwrap_or(0);
        v.add("proto.mailbox_stalls", m("unit/mailbox_stalls") as f64);
        v.add("sketch.reserved_hits", m("sketch/reserved_hits") as f64);
        v.add(
            "sketch.reserved_overflows",
            m("sketch/reserved_overflows") as f64,
        );
        gathers += m("bridge/gathers");
        wasted += m("bridge/wasted_gathers");
    }
    let events: u64 = points.iter().map(|p| p.result.events).sum();
    v.set("sim.queue_s", prof.queue_ns as f64 / 1e9);
    v.set("sim.events_per_batch", prof.events_per_batch());
    v.set("core.dispatch_s", prof.dispatch_ns as f64 / 1e9);
    v.set("core.finalize_s", prof.finalize_ns as f64 / 1e9);
    v.set("core.events", events as f64);
    if events > 0 {
        v.set("core.ns_per_event", run_s * 1e9 / events as f64);
    }
    v.set("core.bridge.gathers", gathers as f64);
    if gathers > 0 {
        v.set(
            "core.bridge.useful_gather_frac",
            1.0 - wasted as f64 / gathers as f64,
        );
    }
    v.set("sweep.point_s.p50", stats::median(&point_s));
    v.set(
        "sweep.point_s.max",
        point_s.iter().copied().fold(0.0, f64::max),
    );
}

fn dispatch_name(design: &str) -> &'static str {
    match design {
        "C" => "core.dispatch_s.C",
        "B" => "core.dispatch_s.B",
        "W" => "core.dispatch_s.W",
        "O" => "core.dispatch_s.O",
        "H" => "core.dispatch_s.H",
        _ => "core.dispatch_s.R",
    }
}

fn events_name(design: &str) -> &'static str {
    match design {
        "C" => "core.events.C",
        "B" => "core.events.B",
        "W" => "core.events.W",
        "O" => "core.events.O",
        "H" => "core.events.H",
        _ => "core.events.R",
    }
}

/// The result-cache/codec pass: every result goes through
/// `encode_result`, `ResultCache::store` (which encodes again and
/// writes), `ResultCache::load` (read + decode) and `decode_result`,
/// each timed. A result that does not survive the round trip
/// byte-for-byte (as `to_json`) counts as a failure. Points whose
/// `store_s` is already non-zero were stored by the traced pass itself;
/// they are only loaded here.
pub fn codec_pass(
    points: &mut [TracedPoint],
    apps: &[String],
    scale: Scale,
    cfg: &SystemConfig,
    dir: &Path,
    v: &mut Values,
    tally: &mut Tally,
) {
    let cache = ResultCache::new(dir);
    for (p, app) in points.iter_mut().zip(apps) {
        let key = point_key(app, &p.label, scale, cfg);
        let t0 = Instant::now();
        let text = encode_result(&p.result);
        let t1 = Instant::now();
        if p.store_s == 0.0 {
            let stored = cache.store(key, &p.result);
            p.store_s = secs(t1.elapsed());
            if let Err(e) = stored {
                tally.record(Err(format!("{app}/{}: cache store failed: {e}", p.label)));
                continue;
            }
        }
        let t2 = Instant::now();
        let loaded = cache.load(key);
        let t3 = Instant::now();
        let decoded = decode_result(&text);
        let t4 = Instant::now();
        v.add("result.encode_s", secs(t1 - t0));
        v.add("cache.store_s", p.store_s);
        v.add("cache.load_s", secs(t3 - t2));
        v.add("result.decode_s", secs(t4 - t3));
        v.add("cache.bytes", text.len() as f64);
        let want = p.result.to_json();
        let ok = match (loaded, decoded) {
            (Some(l), Some(d)) if l.to_json() == want && d.to_json() == want => Ok(()),
            _ => Err(format!(
                "{app}/{}: result did not survive the cache round trip",
                p.label
            )),
        };
        tally.record(ok);
    }
}
