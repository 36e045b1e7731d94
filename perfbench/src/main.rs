//! `perfbench`: the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <sweep-small|full-o|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--size paper|tiny] [--out FILE]
//! perfbench --compare FIRST.json SECOND.json
//! perfbench --print-reference [--seeds 1,2,3]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; everything above it
//! is for humans. `--out` also writes the full document (provenance,
//! compared metrics, workload-specific extras and raw samples).

use std::process::ExitCode;

use ndpb_perfbench::check::{host_run, Checker};
use ndpb_perfbench::common::{scale_name, Ctx, Size};
use ndpb_perfbench::provenance::{compare, Stamp};
use ndpb_perfbench::report::{esc, metrics_json, num, result_line, table};
use ndpb_perfbench::{run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size paper|tiny] [--out FILE]\n       perfbench --compare FIRST.json SECOND.json\n       perfbench --print-reference [--seeds 1,2,3]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::PAPER,
        out: None,
    };
    let (mut seen_seed, mut seen_seconds) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?;
                seen_seed = true;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
                seen_seconds = true;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--size" => {
                a.size = match value()?.as_str() {
                    "paper" => Size::PAPER,
                    "tiny" => Size::TINY,
                    _ => return Err("--size takes paper or tiny".to_string()),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !seen_seed || !seen_seconds {
        return Err("--seed and --seconds are required".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") => return compare_cmd(&argv[1..]),
        Some("--print-reference") => return print_reference(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };

    let stamp = Stamp::collect(&args.workload, args.seed, args.seconds, args.size.label);
    println!(
        "# perfbench {} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.label
    );
    println!("provenance: {}", stamp.to_json());

    let mut ctx = Ctx::new(
        args.seed,
        args.seconds,
        args.trace,
        args.size,
        Checker::shipped(),
    );
    let outcome = run_workload(&args.workload, &mut ctx).expect("workload validated by parse");
    if ctx.checker.computed > 0 {
        println!(
            "reference: {} H checksum(s) computed by untimed runs (seed not in the shipped table)",
            ctx.checker.computed
        );
    }

    let title = if args.trace {
        "per-layer metrics (traced pass)"
    } else {
        "end-to-end metrics (tracing off)"
    };
    print!("{}", table(title, &outcome.metrics));
    if !outcome.extras.is_empty() {
        print!(
            "{}",
            table("workload-specific figures (not compared)", &outcome.extras)
        );
    }
    for (name, samples) in &outcome.samples {
        if name.ends_with("_s") {
            let shown: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
            println!("samples {name}: [{}]", shown.join(", "));
        }
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let t = &outcome.tally;
    println!(
        "correctness: {} attempted, {} failed (failed_frac {})",
        t.attempted,
        t.failed,
        num(t.failed_frac())
    );
    for n in &t.notes {
        println!("FAILED: {n}");
    }

    if let Some(path) = &args.out {
        let samples: Vec<String> = outcome
            .samples
            .iter()
            .map(|(n, s)| {
                let vals: Vec<String> = s.iter().map(|&x| num(x)).collect();
                format!("\"{n}\": [{}]", vals.join(", "))
            })
            .collect();
        let doc = format!(
            "{{\"provenance\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extras\": {}, \"samples\": {{{}}}, \"failures\": [{}]}}\n",
            stamp.to_json(),
            args.trace,
            t.failed == 0,
            t.attempted,
            t.failed,
            metrics_json(&outcome.metrics),
            metrics_json(&outcome.extras),
            samples.join(", "),
            t.notes
                .iter()
                .map(|n| format!("\"{}\"", esc(n)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    // Remove the scratch caches before the result line is out.
    drop(ctx);
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "{}",
        result_line(correct, t.attempted.max(1), t.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}

fn compare_cmd(rest: &[String]) -> ExitCode {
    let [a, b] = rest else {
        return usage("--compare takes two document paths");
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(a).and_then(|x| read(b).and_then(|y| compare(&x, &y))) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => usage(&e),
    }
}

/// Prints the reference table for `--seeds` (default: the shipped
/// seeds): H checksums at Small and Full for the eight paper apps, and
/// at Tiny under Table I's own seed for the service's nine apps.
fn print_reference(rest: &[String]) -> ExitCode {
    let seeds: Vec<u64> = match rest {
        [] => (1..=10).collect(),
        [flag, list] if flag == "--seeds" => match list.split(',').map(str::parse).collect() {
            Ok(s) => s,
            Err(_) => return usage("--seeds takes a comma-separated list of integers"),
        },
        _ => return usage("--print-reference takes only --seeds"),
    };
    use ndpb_core::config::SystemConfig;
    use ndpb_workloads::{Scale, APP_NAMES, EXTRA_APP_NAMES};
    let mut jobs: Vec<(&str, Scale, u64)> = Vec::new();
    for &seed in &seeds {
        for scale in [Scale::Small, Scale::Full] {
            for app in APP_NAMES {
                jobs.push((app, scale, seed));
            }
        }
    }
    let table1_seed = SystemConfig::table1().seed;
    for app in APP_NAMES.iter().chain(&EXTRA_APP_NAMES) {
        jobs.push((app, Scale::Tiny, table1_seed));
    }
    println!("pub const HOST_CHECKSUMS: &[(&str, &str, u64, u64)] = &[");
    for (app, scale, seed) in jobs {
        let mut cfg = SystemConfig::table1();
        cfg.seed = seed;
        match host_run(app, scale, cfg) {
            Ok(r) => println!(
                "    (\"{app}\", \"{}\", {seed}, {}),",
                scale_name(scale),
                r.checksum
            ),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("];");
    ExitCode::SUCCESS
}
