//! Minimal wall-clock bench harness built on `std::time::Instant`.
//!
//! Replaces the former Criterion dependency so the workspace builds
//! fully offline. `benches/micro.rs` is a `harness = false` binary
//! that calls [`bench`] directly; output is one line per case,
//! stable enough to eyeball across commits (this is a smoke-level
//! timer, not a statistics engine).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `iters` calls of `f` after one untimed warm-up call and prints
/// `name  iters  total  per-iter`. Returns the mean per-iteration time
/// so callers can assert coarse budgets if they want to.
pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> Duration {
    let _ = black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per = total / iters.max(1);
    println!("{name:<44} {iters:>5} iters  {total:>12.3?} total  {per:>12.3?}/iter");
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_returns_mean() {
        let mut calls = 0u32;
        let per = bench("noop", 8, || calls += 1);
        // warm-up + 8 timed iterations
        assert_eq!(calls, 9);
        assert!(per <= Duration::from_secs(1));
    }
}
