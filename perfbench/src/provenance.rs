//! The provenance stamp every result document carries, and the
//! document comparison that refuses to compare across hosts.

use std::fs;
use std::path::Path;
use std::process::Command;

use ndpb_bench::json::Json;
use ndpb_sim::Fnv1a64;

use crate::common::{nproc, repo_root};
use crate::report::{esc, num};

/// Host, toolchain and code identity of one run.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Hardware threads available.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest over the repository's Rust sources and manifests,
    /// which identifies the code where there is no git metadata.
    pub src_digest: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Size preset (`paper` or `tiny`).
    pub size: String,
}

/// The fields that must agree for two documents to be compared.
pub const HOST_KEYS: [&str; 4] = ["nproc", "cpu_model", "rustc", "profile"];

impl Stamp {
    /// Collects the stamp for this process.
    pub fn collect(workload: &str, seed: u64, seconds: f64, size: &str) -> Stamp {
        let root = repo_root();
        Stamp {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_rev: git_rev(&root),
            src_digest: format!("{:016x}", src_digest(&root)),
            workload: workload.to_string(),
            seed,
            seconds,
            size: size.to_string(),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \"src_digest\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"size\": \"{}\"}}",
            self.nproc,
            esc(&self.cpu_model),
            esc(&self.rustc),
            esc(&self.profile),
            esc(&self.git_rev),
            self.src_digest,
            esc(&self.workload),
            self.seed,
            num(self.seconds),
            esc(&self.size),
        )
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's own revision. Without a `.git` here, git is not asked:
/// it would search parent directories and could report another
/// repository's revision.
fn git_rev(root: &Path) -> String {
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return "none".to_string();
    }
    Command::new("git")
        .arg("--git-dir")
        .arg(git_dir)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Digest of `Cargo.toml`, `Cargo.lock` and every `.rs` file under
/// `crates/`, in sorted path order.
fn src_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv1a64::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.insert(0, root.join(name));
    }
    for f in files {
        if let Ok(bytes) = fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h.write_str(&rel.to_string_lossy());
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Compares two `--out` documents: a ratio per metric when both ran on
/// the same host and toolchain, otherwise the refusal line.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let a = Json::parse(a).map_err(|e| format!("first document: {e}"))?;
    let b = Json::parse(b).map_err(|e| format!("second document: {e}"))?;
    let (pa, pb) = (
        a.get("provenance")
            .ok_or("first document has no provenance")?,
        b.get("provenance")
            .ok_or("second document has no provenance")?,
    );
    let mut out = String::new();
    for key in ["workload", "seed", "size"] {
        if pa.get(key) != pb.get(key) {
            return Ok(format!("different {key}, not compared\n"));
        }
    }
    if HOST_KEYS.iter().any(|k| pa.get(k) != pb.get(k)) {
        return Ok("different host, not compared\n".to_string());
    }
    out.push_str(&format!(
        "{:<32} {:>16} {:>16} {:>9}\n",
        "metric", "first", "second", "2nd/1st"
    ));
    let metrics = |d: &Json| -> Vec<(String, f64, String)> {
        let mut v = Vec::new();
        for section in ["metrics", "extras"] {
            if let Some(Json::Obj(members)) = d.get(section) {
                for (name, m) in members {
                    if let (Some(x), Some(u)) = (m.f64_field("value"), m.str_field("unit")) {
                        v.push((name.clone(), x, u.to_string()));
                    }
                }
            }
        }
        v
    };
    let mb = metrics(&b);
    for (name, x, unit) in metrics(&a) {
        let Some((_, y, _)) = mb.iter().find(|(n, _, _)| *n == name) else {
            continue;
        };
        let ratio = if x != 0.0 {
            format!("{:.4}", y / x)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{name:<32} {x:>16.6} {y:>16.6} {ratio:>9} {unit}\n"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cpu: &str, wall: f64) -> String {
        format!(
            "{{\"provenance\": {{\"nproc\": 2, \"cpu_model\": \"{cpu}\", \"rustc\": \"r\", \"profile\": \"release\", \"workload\": \"full-o\", \"seed\": 1, \"size\": \"paper\"}}, \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}"
        )
    }

    #[test]
    fn same_host_prints_ratio_different_host_refuses() {
        let same = compare(&doc("x", 2.0), &doc("x", 1.0)).unwrap();
        assert!(same.contains("wall_s") && same.contains("0.5000"), "{same}");
        let other = compare(&doc("x", 2.0), &doc("y", 1.0)).unwrap();
        assert_eq!(other, "different host, not compared\n");
    }
}
