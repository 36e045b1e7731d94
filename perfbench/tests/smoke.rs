//! Tiny-scale smoke of the benchmark itself: every workload, untraced
//! and traced, prints every metric with its unit and passes its own
//! correctness checks; a wrong reference checksum is caught.

use std::process::Command;

use ndpb_bench::json::Json;
use ndpb_core::config::SystemConfig;
use ndpb_perfbench::check::Checker;
use ndpb_perfbench::report::{END_TO_END, PER_LAYER};
use ndpb_perfbench::{run_workload, Ctx, Size, WORKLOADS};
use ndpb_workloads::Scale;

const SEED: u64 = 3;

fn ctx(trace: bool, checker: Checker) -> Ctx {
    Ctx::new(SEED, 0.0, trace, Size::TINY, checker)
}

#[test]
fn every_workload_reports_every_metric_and_passes() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(w, &mut ctx(trace, Checker::shipped())).expect("known workload");
            let t = &out.tally;
            assert!(t.attempted > 0, "{w}: nothing attempted");
            assert_eq!(t.failed, 0, "{w} trace={trace}: {:?}", t.notes);
            let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want: Vec<(&str, &str)> = if trace {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.to_vec()
            };
            assert_eq!(names, want, "{w} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{w}: {} is {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{w}: end-to-end {} is {}", m.name, m.value);
                }
            }
            if !trace {
                let ff = out.extras.iter().find(|m| m.name == "failed_frac");
                assert_eq!(ff.map(|m| m.value), Some(0.0), "{w}: failed_frac");
            }
        }
    }
}

#[test]
fn wrong_reference_checksum_counts_as_failure() {
    // full-o: the app's H reference under the workload seed.
    let honest = ndpb_perfbench::check::host_run("ll", Scale::Tiny, {
        let mut c = SystemConfig::table1();
        c.seed = SEED;
        c
    })
    .expect("H run")
    .checksum;
    let wrong = Checker::shipped().with_reference("ll", Scale::Tiny, SEED, honest ^ 1);
    let out = run_workload("full-o", &mut ctx(false, wrong)).expect("known workload");
    assert_eq!(out.tally.failed, 1, "{:?}", out.tally.notes);
    assert!(
        out.tally.notes[0].contains("checksum"),
        "{:?}",
        out.tally.notes
    );

    // serve-mixed: every document carrying the app fails.
    let table1_seed = SystemConfig::table1().seed;
    let mut wrong = Checker::shipped();
    for app in ndpb_workloads::APP_NAMES {
        wrong = wrong.with_reference(app, Scale::Tiny, table1_seed, 0);
    }
    let out = run_workload("serve-mixed", &mut ctx(false, wrong)).expect("known workload");
    assert!(out.tally.failed > 0, "wrong references went unnoticed");
    let ff = out
        .extras
        .iter()
        .find(|m| m.name == "failed_frac")
        .map(|m| m.value);
    assert!(ff.is_some_and(|f| f > 0.0), "failed_frac {ff:?}");

    // sweep-small: a wrong shipped reference fails all six designs of
    // the app.
    let wrong = Checker::shipped().with_reference("tree", Scale::Tiny, SEED, 0);
    let out = run_workload("sweep-small", &mut ctx(false, wrong)).expect("known workload");
    assert_eq!(out.tally.failed, 6, "{:?}", out.tally.notes);
}

#[test]
fn command_line_prints_result_line_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "full-o",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--size",
            "tiny",
        ])
        .output()
        .expect("run perfbench");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("some output");
    let j = Json::parse(last).expect("last line is JSON");
    assert_eq!(
        j.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(j.u64_field("failed"), Some(0));
    assert!(j.u64_field("attempted").is_some_and(|a| a >= 1));
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("no metrics object: {last}")
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for ((name, m), (_, unit)) in metrics.iter().zip(&END_TO_END) {
        assert_eq!(m.str_field("unit"), Some(*unit), "{name}");
        assert!(m.f64_field("value").is_some_and(|v| v > 0.0), "{name}");
    }
    assert!(stdout.contains("provenance: {\"nproc\""), "{stdout}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "full-o", "--seconds", "1", "--trace", "0"],
        vec![
            "--workload",
            "full-o",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
