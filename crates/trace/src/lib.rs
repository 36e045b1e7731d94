//! Structured event tracing and metrics for the NDPBridge simulator.
//!
//! The simulator's original observability was a handful of ad-hoc
//! `Counter`s scattered across components, aggregated once at the end of
//! a run. That answers *how much* but never *when*: you cannot see a
//! mailbox stall ride out a GATHER round, or a SCHEDULE migration land
//! just before an epoch barrier. This crate adds the missing timeline:
//!
//! * [`event`] — typed [`TraceEvent`]s (bank activates, bus transfers,
//!   bridge GATHER/SCATTER/STATE-GATHER/SCHEDULE rounds, mailbox
//!   enqueue/full, task execution, migrations, epoch barriers), each
//!   stamped with a [`SimTime`](ndpb_sim::SimTime) and a [`ComponentId`].
//! * [`sink`] — the [`TraceSink`] trait with a bounded
//!   [`RingRecorder`]. Hot paths take `Option<&mut dyn TraceSink>`, so
//!   a disabled trace costs exactly one branch per hook.
//! * [`chrome`] — a hand-rolled (serde-free) Chrome `trace_event` JSON
//!   writer; the output opens directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! * [`metrics`] — a hierarchical [`MetricsRegistry`] that supersedes the
//!   loose per-`System` aggregate fields, with per-epoch snapshotting for
//!   time-series output.
//!
//! The crate depends only on `ndpb-sim` (for `SimTime`); no external
//! dependencies, so the workspace builds fully offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod sink;

pub use chrome::{chrome_trace_string, write_chrome_trace};
pub use event::{ComponentId, TraceEvent, TraceRecord};
pub use metrics::{MetricId, MetricsRegistry, MetricsReport, MetricsSnapshot, SharedMetrics};
pub use sink::{RingRecorder, TraceSink};
