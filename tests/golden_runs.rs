//! Golden-run regression tests: re-simulate a small reference
//! configuration for every design column (C/B/W/O/H/R) and diff the
//! result field-by-field against a checked-in reference document.
//!
//! Any change to scheduling, routing, timing, energy accounting or RNG
//! consumption shows up here as a precise field diff instead of a
//! mysterious downstream number shift.
//!
//! When a change *intentionally* alters simulation results, regenerate
//! the references and commit them together with the change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_runs
//! ```
//!
//! The reference documents live in `tests/golden/*.json` in the result
//! cache's codec (floats stored by bit pattern, so the comparison is
//! exact, not epsilon-based).

use std::path::PathBuf;

use ndpbridge::bench::cache::{decode_result, encode_result};
use ndpbridge::bench::{Column, SweepPoint, Sweeper};
use ndpbridge::core::config::SystemConfig;
use ndpbridge::core::design::DesignPoint;
use ndpbridge::core::RunResult;
use ndpbridge::dram::Geometry;
use ndpbridge::sim::Fnv1a64;
use ndpbridge::workloads::{Scale, APP_NAMES};

/// The reference configuration: 2 ranks (128 units), fixed seed — big
/// enough to exercise cross-rank bridge traffic, small enough to run
/// all six columns in seconds.
fn reference_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
    cfg.seed = 11;
    cfg
}

const APP: &str = "tree";

fn columns() -> [Column; 6] {
    [
        Column::Ndp(DesignPoint::C),
        Column::Ndp(DesignPoint::B),
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::O),
        Column::Host,
        Column::Ndp(DesignPoint::R),
    ]
}

/// The Small-tier suite: baseline stealing and the gather-aware policy
/// (DESIGN.md §10), pinned at the scale where the policy's measured
/// win is claimed. Kept to two columns so the release CI lane stays
/// fast; the Tiny suite above covers the other designs.
fn small_columns() -> [Column; 2] {
    [
        Column::Ndp(DesignPoint::W),
        Column::Ndp(DesignPoint::WGather),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Golden file name for a column at a scale (Tiny keeps the historic
/// un-prefixed names; other scales are prefixed).
fn golden_name(scale: Scale, label: &str) -> String {
    match scale {
        Scale::Tiny => format!("{APP}_{label}"),
        _ => format!("small_{APP}_{label}"),
    }
}

fn simulate(cols: &[Column], scale: Scale) -> Vec<RunResult> {
    let points = cols
        .iter()
        .map(|&col| SweepPoint::new(APP, col, reference_cfg(), scale))
        .collect();
    // Through the production sweep path, bounded to two workers.
    Sweeper::new(2).run(points)
}

/// Compares every scalar field, returning human-readable mismatch
/// lines; empty = identical. Floats compare by bit pattern.
fn diff_fields(golden: &RunResult, fresh: &RunResult) -> Vec<String> {
    let mut d = Vec::new();
    macro_rules! cmp {
        ($field:ident) => {
            if golden.$field != fresh.$field {
                d.push(format!(
                    "{}: golden {:?} != fresh {:?}",
                    stringify!($field),
                    golden.$field,
                    fresh.$field
                ));
            }
        };
    }
    macro_rules! cmp_f64 {
        ($($path:tt)+) => {
            if golden.$($path)+.to_bits() != fresh.$($path)+.to_bits() {
                d.push(format!(
                    "{}: golden {:?} != fresh {:?}",
                    stringify!($($path)+),
                    golden.$($path)+,
                    fresh.$($path)+
                ));
            }
        };
    }
    cmp!(app);
    cmp!(design);
    cmp!(makespan);
    cmp!(avg_unit_time);
    cmp!(max_unit_time);
    cmp_f64!(wait_fraction);
    cmp_f64!(balance);
    cmp!(tasks_executed);
    cmp!(tasks_rerouted);
    cmp!(messages_delivered);
    cmp!(rank_bus_bytes);
    cmp!(channel_bytes);
    cmp!(comm_dram_bytes);
    cmp!(local_dram_bytes);
    cmp!(lb_rounds);
    cmp!(blocks_migrated);
    cmp_f64!(energy.core_sram_pj);
    cmp_f64!(energy.dram_local_pj);
    cmp_f64!(energy.dram_comm_pj);
    cmp_f64!(energy.static_pj);
    cmp!(checksum);
    cmp!(events);
    cmp!(per_unit_busy);
    cmp!(metrics);
    d
}

/// Runs one suite and returns human-readable failures (empty = clean).
/// With `UPDATE_GOLDEN=1`, rewrites the reference documents instead.
fn check_suite(cols: &[Column], scale: Scale) -> Vec<String> {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let results = simulate(cols, scale);
    let mut failures = Vec::new();
    for (col, fresh) in cols.iter().zip(&results) {
        let label = col.label();
        let path = golden_path(&golden_name(scale, &label));
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, encode_result(fresh)).unwrap();
            eprintln!("updated {}", path.display());
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden reference {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test golden_runs",
                path.display()
            )
        });
        let golden = decode_result(&text)
            .unwrap_or_else(|| panic!("undecodable golden reference {}", path.display()));
        let diffs = diff_fields(&golden, fresh);
        if !diffs.is_empty() {
            failures.push(format!("design {label}:\n  {}", diffs.join("\n  ")));
        }
        // The codec itself must also be byte-stable: re-encoding the
        // fresh result reproduces the committed document exactly.
        if diffs.is_empty() && encode_result(fresh) != text {
            failures.push(format!(
                "design {label}: fields match but serialized form differs (codec drift)"
            ));
        }
    }
    failures
}

#[test]
fn designs_match_golden_references() {
    let failures = check_suite(&columns(), Scale::Tiny);
    assert!(
        failures.is_empty(),
        "simulation drift vs tests/golden (if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_runs and commit):\n{}",
        failures.join("\n")
    );
}

#[test]
fn small_scale_designs_match_golden_references() {
    // Small runs are ~12x Tiny; keep them out of the debug tier-1 lane
    // (ci.sh covers them in release). UPDATE_GOLDEN regeneration also
    // happens in release for the same reason.
    if cfg!(debug_assertions) {
        return;
    }
    let failures = check_suite(&small_columns(), Scale::Small);
    assert!(
        failures.is_empty(),
        "Small-tier simulation drift vs tests/golden (if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --release --test golden_runs and commit):\n{}",
        failures.join("\n")
    );
}

/// `app hex` lines: the FNV-1a digest of [`RunResult::to_json`] for
/// design O on every paper app at `Scale::Full` under Table I.
fn full_o_digests() -> String {
    let points = APP_NAMES
        .iter()
        .map(|&app| {
            SweepPoint::new(
                app,
                Column::Ndp(DesignPoint::O),
                SystemConfig::table1(),
                Scale::Full,
            )
        })
        .collect();
    Sweeper::new(2)
        .run(points)
        .iter()
        .zip(APP_NAMES)
        .map(|(r, app)| {
            let mut h = Fnv1a64::new();
            h.write_str(&r.to_json());
            format!("{app} {:016x}\n", h.finish())
        })
        .collect()
}

#[test]
#[ignore = "Full scale, about 10 s in release: ci.sh runs it in its full-scale lane"]
fn full_scale_design_o_matches_digests() {
    // Nothing else pins the paper's geometry: the golden documents above
    // are 2-rank runs. A digest per app keeps the reference small while
    // still catching any byte of drift in the Full results.
    let fresh = full_o_digests();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/full_o_digests.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &fresh).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e})", path.display()));
    assert_eq!(
        golden,
        fresh,
        "Full-scale design-O drift vs {} (if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --release --test golden_runs -- --ignored)",
        path.display()
    );
}

#[test]
fn golden_references_are_exact_roundtrips() {
    // Guard the guard: every committed document must decode and
    // re-encode to the identical byte string.
    let mut names: Vec<String> = columns()
        .iter()
        .map(|c| golden_name(Scale::Tiny, &c.label()))
        .collect();
    names.extend(
        small_columns()
            .iter()
            .map(|c| golden_name(Scale::Small, &c.label())),
    );
    for name in names {
        let path = golden_path(&name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            // The suite tests report missing files.
            continue;
        };
        let decoded = decode_result(&text).expect("golden decodes");
        assert_eq!(
            encode_result(&decoded),
            text,
            "{} does not round-trip",
            path.display()
        );
    }
}
