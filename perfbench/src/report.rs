//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metric sets `BENCHMARK.json`
//! declares: every workload prints every one of them (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). A layer a workload does not
//! pass through reports 0 for its counts and times. `EXTRAS` are
//! workload-specific end-to-end figures that are printed and recorded
//! in `--out` documents but are not part of the compared set, because
//! they are not defined on every workload, are 0 on a passing run, or
//! restate another metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named, unit-carrying value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics (tracing off), in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures outside the compared set, in print order.
/// `jobs_per_s` is the workload's fixed job count ÷ `wall_s`, so it
/// carries nothing `wall_s` does not.
pub const EXTRAS: [(&str, &str); 5] = [
    ("jobs_per_s", "jobs/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("paper_gap", "ratio"),
    ("failed_frac", "ratio"),
];

/// The six design columns per-design layer metrics are split by.
/// Variant columns fold into their base design (`W+GA` → `W`).
pub const DESIGNS: [&str; 6] = ["C", "B", "W", "O", "H", "R"];

/// Per-layer metrics (traced pass), in print order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.queue_s", "s"),
    ("sim.events_per_batch", "events/batch"),
    ("core.dispatch_s", "s"),
    ("core.dispatch_s.C", "s"),
    ("core.dispatch_s.B", "s"),
    ("core.dispatch_s.W", "s"),
    ("core.dispatch_s.O", "s"),
    ("core.dispatch_s.H", "s"),
    ("core.dispatch_s.R", "s"),
    ("core.finalize_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.events", "count"),
    ("core.events.C", "count"),
    ("core.events.B", "count"),
    ("core.events.W", "count"),
    ("core.events.O", "count"),
    ("core.events.H", "count"),
    ("core.events.R", "count"),
    ("core.new_s", "s"),
    ("workloads.build_s", "s"),
    ("sweep.point_s.p50", "s"),
    ("sweep.point_s.max", "s"),
    ("sweep.idle_s", "s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.bytes", "bytes"),
    ("result.encode_s", "s"),
    ("result.decode_s", "s"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.submit_ms.p99", "ms"),
    ("serve.poll_ms.p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.hit_frac", "ratio"),
    ("serve.dedup_frac", "ratio"),
    ("serve.sim_frac", "ratio"),
    ("dram.local_bytes", "bytes"),
    ("dram.comm_bytes", "bytes"),
    ("dram.rank_bus_bytes", "bytes"),
    ("dram.channel_bytes", "bytes"),
    ("proto.messages", "count"),
    ("proto.mailbox_stalls", "count"),
    ("core.bridge.gathers", "count"),
    ("core.bridge.useful_gather_frac", "ratio"),
    ("core.steal.lb_rounds", "count"),
    ("core.steal.blocks_migrated", "count"),
    ("core.steal.tasks_rerouted", "count"),
    ("sketch.reserved_hits", "count"),
    ("sketch.reserved_overflows", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
];

/// Named values collected by a workload, emitted against one of the
/// metric tables above.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must appear in a metric table).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Adds `delta` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.0.entry(name).or_insert(0.0) += delta;
    }

    /// The values of `table` in order; names never set report 0 (the
    /// workload does not pass through that layer).
    pub fn emit(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.0.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }

    /// The values of `table` that were set (for optional figures).
    pub fn emit_set(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .filter_map(|&(name, unit)| {
                Some(Metric {
                    name,
                    unit,
                    value: self.0.get(name).copied()?,
                })
            })
            .collect()
    }
}

/// Formats a float for JSON: shortest round-trip digits. A non-finite
/// value (a division by a zero wall time, which only a run whose every
/// operation failed produces) prints as 0 so the document stays valid.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `{"name": {"value": v, "unit": u}, …}` object.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// A fixed-width table of metrics for humans.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(s, "  {:<32} {:>22} {}", m.name, fmt_value(m.value), m.unit);
    }
    s
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&EXTRAS).chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s",
                unit: "s",
                value: 1.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
