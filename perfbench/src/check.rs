//! Result checks: every simulated application must compute what the
//! host-only baseline **H** computes for the same app and seed.
//!
//! The H checksum comes from the reference table shipped in
//! [`crate::reference`] when it covers the (app, scale, seed), and
//! otherwise from an untimed H run made before any timing starts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ndpb_core::config::SystemConfig;
use ndpb_core::hostonly::{HostOnly, HostOnlyConfig};
use ndpb_core::result::RunResult;
use ndpb_workloads::{build_app, Scale};

use crate::common::scale_name;

/// Expected checksums keyed by (app, scale name, seed).
#[derive(Debug, Clone, Default)]
pub struct Checker {
    known: BTreeMap<(String, &'static str, u64), u64>,
    /// H runs made because the table had no entry.
    pub computed: usize,
}

impl Checker {
    /// The shipped reference table.
    pub fn shipped() -> Checker {
        let mut c = Checker::default();
        for &(app, scale, seed, checksum) in crate::reference::HOST_CHECKSUMS {
            c.known.insert((app.to_string(), scale, seed), checksum);
        }
        c
    }

    /// Overrides (or adds) one reference value.
    pub fn with_reference(mut self, app: &str, scale: Scale, seed: u64, checksum: u64) -> Self {
        self.known
            .insert((app.to_string(), scale_name(scale), seed), checksum);
        self
    }

    /// The reference checksum, if known.
    pub fn lookup(&self, app: &str, scale: Scale, seed: u64) -> Option<u64> {
        self.known
            .get(&(app.to_string(), scale_name(scale), seed))
            .copied()
    }

    /// The H checksum for `app` at `scale` under `cfg` (whose seed keys
    /// the entry): the table's value, or an untimed H run's.
    pub fn host_checksum(
        &mut self,
        app: &str,
        scale: Scale,
        cfg: &SystemConfig,
    ) -> Result<u64, String> {
        if let Some(c) = self.lookup(app, scale, cfg.seed) {
            return Ok(c);
        }
        let r = host_run(app, scale, cfg.clone())?;
        self.computed += 1;
        self.known
            .insert((app.to_string(), scale_name(scale), cfg.seed), r.checksum);
        Ok(r.checksum)
    }
}

/// One H run, with a panic turned into an error.
pub fn host_run(app: &str, scale: Scale, cfg: SystemConfig) -> Result<RunResult, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let a = build_app(app, &cfg.geometry, scale, cfg.seed);
        HostOnly::new(cfg, HostOnlyConfig::paper(), a).run()
    }))
    .map_err(|e| format!("H {app}: panicked: {}", panic_msg(&e)))
}

/// `Ok` iff `r` is `app` under `design` with the expected checksum.
pub fn expect_result(r: &RunResult, app: &str, design: &str, checksum: u64) -> Result<(), String> {
    if r.app != app || r.design != design {
        return Err(format!(
            "expected {app}/{design}, got {}/{}",
            r.app, r.design
        ));
    }
    if r.checksum != checksum {
        return Err(format!(
            "{app}/{design}: checksum {} != H reference {checksum}",
            r.checksum
        ));
    }
    Ok(())
}

/// The payload of a caught panic, as text.
pub fn panic_msg(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// `Ok` unless an earlier repetition produced different bytes.
pub fn repeat_check(first: &Option<Vec<String>>, i: usize, doc: &str) -> Result<(), String> {
    match first.as_ref().and_then(|f| f.get(i)) {
        Some(prev) if prev != doc => Err(format!(
            "point {i}: result differs between repetitions (events or checksum not repeatable)"
        )),
        _ => Ok(()),
    }
}

/// `Ok` iff the traced run's `to_json` bytes equal the timed run's.
pub fn same_bytes(timed: Option<&String>, traced: &str, what: &str) -> Result<(), String> {
    match timed {
        Some(t) if t == traced => Ok(()),
        _ => Err(format!(
            "{what}: traced result bytes differ from the timed pass"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_checks_flag_changed_results() {
        let first = Some(vec!["a".to_string()]);
        assert!(repeat_check(&first, 0, "a").is_ok());
        assert!(repeat_check(&first, 0, "b").is_err());
        assert!(repeat_check(&None, 0, "b").is_ok());
        assert!(same_bytes(Some(&"a".to_string()), "a", "x").is_ok());
        assert!(same_bytes(Some(&"a".to_string()), "b", "x").is_err());
        assert!(same_bytes(None, "a", "x").is_err());
    }
}
