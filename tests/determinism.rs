//! Determinism guarantees of the sweep engine (DESIGN.md §3):
//!
//! * each simulation is a pure function of its configuration seed;
//! * the worker count is observationally invisible — `--jobs 1`,
//!   `--jobs 2` and `--jobs 8` yield byte-identical serialized results,
//!   including the per-epoch metrics JSON;
//! * repeating a sweep in the same process changes nothing.

use ndpbridge::bench::{Column, SweepPoint, Sweeper};
use ndpbridge::core::config::SystemConfig;
use ndpbridge::core::design::DesignPoint;
use ndpbridge::core::RunResult;
use ndpbridge::dram::Geometry;
use ndpbridge::workloads::Scale;

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
    c.seed = 23;
    c
}

/// A sweep mixing apps, NDP designs and the host baseline.
fn points() -> Vec<SweepPoint> {
    let cols = [
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::O),
        Column::Host,
    ];
    ["tree", "spmv", "bfs"]
        .iter()
        .flat_map(|&app| {
            cols.iter()
                .map(move |&col| SweepPoint::new(app, col, cfg(), Scale::Tiny))
        })
        .collect()
}

/// Every observable byte of a result: the summary JSON (covers all
/// scalar fields and the gini of `per_unit_busy`) plus the full
/// per-epoch metrics document.
fn serialize(results: &[RunResult]) -> Vec<(String, String)> {
    results
        .iter()
        .map(|r| (r.to_json(), r.metrics.to_json()))
        .collect()
}

/// All six paper designs plus the gather-aware policy toggles, × two
/// apps.
fn six_design_points() -> Vec<SweepPoint> {
    let cols = [
        Column::Ndp(DesignPoint::C),
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::O),
        Column::Host,
        Column::Ndp(DesignPoint::R),
        Column::Ndp(DesignPoint::WGather),
        Column::Ndp(DesignPoint::OGather),
    ];
    ["tree", "spmv"]
        .iter()
        .flat_map(|&app| {
            cols.iter()
                .map(move |&col| SweepPoint::new(app, col, cfg(), Scale::Tiny))
        })
        .collect()
}

#[test]
fn worker_count_is_observationally_invisible() {
    let reference = serialize(&Sweeper::new(1).run(points()));
    for jobs in [2, 8] {
        let got = serialize(&Sweeper::new(jobs).run(points()));
        assert_eq!(
            got, reference,
            "jobs={jobs} must be byte-identical to jobs=1"
        );
    }
}

#[test]
fn design_matrix_is_worker_count_invisible() {
    // The full design matrix, including H, R, W+GA and O+GA, × two apps:
    // same serialized bytes (summary JSON and per-epoch metrics) and
    // same event counts at every worker count.
    let serial = Sweeper::new(1).run(six_design_points());
    let reference = serialize(&serial);
    let ref_events: Vec<u64> = serial.iter().map(|r| r.events).collect();
    let got = Sweeper::new(2).run(six_design_points());
    let events: Vec<u64> = got.iter().map(|r| r.events).collect();
    assert_eq!(events, ref_events, "event count drifted at jobs=2");
    assert_eq!(
        serialize(&got),
        reference,
        "jobs=2 must be byte-identical to jobs=1 on the design matrix"
    );
}

#[test]
fn cached_results_replay_byte_identically() {
    // A result stored by one sweep must be a warm hit for the next, with
    // the same bytes. Checked for a baseline design and for the
    // gather-aware policy, whose extra knobs are part of the key.
    let simulated = |s: &Sweeper| {
        s.metrics()
            .live_report()
            .final_value("sweep/simulated")
            .unwrap_or(0)
    };
    let hits = |s: &Sweeper| {
        s.metrics()
            .live_report()
            .final_value("sweep/cache_hits")
            .unwrap_or(0)
    };
    let point = || {
        vec![
            SweepPoint::new("tree", Column::Ndp(DesignPoint::B), cfg(), Scale::Tiny),
            SweepPoint::new(
                "tree",
                Column::Ndp(DesignPoint::WGather),
                cfg(),
                Scale::Tiny,
            ),
        ]
    };
    let dir = std::env::temp_dir().join(format!("ndpb-replay-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let writer = Sweeper::new(1).with_cache(&dir);
    let stored = serialize(&writer.run(point()));
    assert_eq!(simulated(&writer), 2, "cold cache simulates every point");

    let reader = Sweeper::new(1).with_cache(&dir);
    let probed = serialize(&reader.run(point()));
    assert_eq!(hits(&reader), 2, "stored entries must hit");
    assert_eq!(simulated(&reader), 0, "warm probe must not simulate");
    assert_eq!(probed, stored, "cache round-trip changed bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiled_runs_are_byte_identical_to_the_sweep() {
    // `--profile` arms the phase profiler around the batched dispatch
    // loop. The measurement must be invisible: result
    // bytes (summary JSON and per-epoch metrics) match the unprofiled
    // sweep output exactly, while the attached stats account for every
    // popped event.
    use ndpbridge::bench::run_profiled;
    for col in [
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::O),
        Column::Host,
    ] {
        let plain = Sweeper::new(1).run(vec![SweepPoint::new("tree", col, cfg(), Scale::Tiny)]);
        let prof = run_profiled("tree", col, cfg(), Scale::Tiny);
        assert_eq!(
            prof.to_json(),
            plain[0].to_json(),
            "profiling changed result bytes for {}",
            col.label()
        );
        assert_eq!(
            prof.metrics.to_json(),
            plain[0].metrics.to_json(),
            "profiling changed metrics bytes for {}",
            col.label()
        );
        let p = prof.profile.expect("profiled run must attach stats");
        assert_eq!(p.events, prof.events, "profile lost events");
        assert!(p.batches > 0 && p.batches <= p.events);
        assert_eq!(p.run_len_hist.iter().sum::<u64>(), p.batches);
        assert!(prof.profile.is_some() && plain[0].profile.is_none());
    }
}

#[test]
fn repeating_a_sweep_in_one_process_is_bit_identical() {
    let sweeper = Sweeper::new(4);
    let first = serialize(&sweeper.run(points()));
    let second = serialize(&sweeper.run(points()));
    assert_eq!(second, first, "same-process rerun drifted");
    // And a fresh engine in the same process agrees too (no hidden
    // global state seeded by the first run).
    let fresh = serialize(&Sweeper::new(4).run(points()));
    assert_eq!(fresh, first, "fresh-engine rerun drifted");
}

#[test]
fn seed_is_the_only_source_of_variation() {
    let base = Sweeper::new(4).run(vec![SweepPoint::new(
        "ht",
        Column::Ndp(DesignPoint::O),
        cfg(),
        Scale::Tiny,
    )]);
    let mut reseeded_cfg = cfg();
    reseeded_cfg.seed ^= 0xDEAD;
    let reseeded = Sweeper::new(4).run(vec![SweepPoint::new(
        "ht",
        Column::Ndp(DesignPoint::O),
        reseeded_cfg,
        Scale::Tiny,
    )]);
    assert_ne!(
        base[0].to_json(),
        reseeded[0].to_json(),
        "different seeds should perturb the run (dataset and decisions are seeded)"
    );
}
