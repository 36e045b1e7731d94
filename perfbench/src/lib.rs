//! The repository benchmark: three named workloads run against the
//! release build, each reporting end-to-end metrics (tracing off) or,
//! in a separate traced pass, per-layer metrics.
//!
//! The benchmark reaches the simulator only through public entry
//! points — `build_app`, `System::new` / `HostOnly::new` + `run`,
//! `Sweeper::run`, the result cache and codec, and `ndpb_serve::Server`
//! over HTTP — and times the calls into each layer from outside. The
//! only numbers it reads from inside the program are ones the program
//! already exposes: `RunResult` and its final `MetricsReport`,
//! `ProfileStats` (via `set_profile`), and the service's `/metrics`.
//!
//! See `README.md` beside this crate for the metric catalogue, the
//! per-layer → end-to-end table and the A/B procedure.

pub mod check;
pub mod client;
pub mod common;
pub mod full_o;
pub mod layers;
pub mod provenance;
pub mod reference;
pub mod report;
pub mod serve_mixed;
pub mod stats;
pub mod sweep_small;

pub use common::{Ctx, Outcome, Size};

/// The benchmark's workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sweep-small", "full-o", "serve-mixed"];

/// Runs the named workload (`None` for an unknown name).
pub fn run_workload(name: &str, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "sweep-small" => sweep_small::run(ctx),
        "full-o" => full_o::run(ctx),
        "serve-mixed" => serve_mixed::run(ctx),
        _ => return None,
    })
}
