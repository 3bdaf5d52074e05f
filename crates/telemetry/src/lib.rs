#![warn(missing_docs)]
//! # archx-telemetry — campaign observability for the ArchExplorer stack
//!
//! A lightweight, thread-safe metrics/tracing layer with **zero external
//! dependencies** (`std` only). It gives every layer of the workspace a
//! shared measurement substrate:
//!
//! - **Counters** — named `AtomicU64`s (`eval/cache/hit`, `sim/cycles`, …).
//! - **Span timers** — RAII wall-clock timers with *hierarchical scopes*:
//!   a span opened inside another span (or [`scope`]) is recorded under
//!   the joined path, so `archx-deg`'s `deg/build` span becomes
//!   `eval/deg/build` when the evaluator runs it under its `eval` scope.
//! - **Progress sinks** — the [`Progress`] event type (simulations done
//!   vs. budget, current hypervolume, best `Perf²/(Power·Area)`) and the
//!   [`ProgressSink`] trait an evaluator delivers it to, plus
//!   [`LabelledSink`] and [`CollectingSink`].
//! - **Reports** — a point-in-time [`Report`] snapshot that renders as
//!   machine-readable JSON or an aligned human-readable table (the
//!   `--telemetry json|pretty` output of every binary).
//! - **JSON** — the [`JsonValue`] writer and parser behind the JSON
//!   report, which the evaluation journal and the `verify` report also
//!   use for their files.
//!
//! Most call sites use the process-global registry through the free
//! functions below; tests build private [`Registry`] instances.
//!
//! ```
//! use archx_telemetry as telemetry;
//!
//! telemetry::counter_add("demo/widgets", 3);
//! {
//!     let _outer = telemetry::span("demo");
//!     let _inner = telemetry::span("step"); // recorded as "demo/step"
//! }
//! let report = telemetry::global().report();
//! assert!(report.counter("demo/widgets") >= 3);
//! let json = telemetry::JsonValue::parse(&report.to_json()).unwrap();
//! assert!(json.get("timers").and_then(|t| t.get("demo/step")).is_some());
//! ```

mod json;
mod progress;
mod registry;

pub use json::{JsonError, JsonValue};
pub use progress::{CollectingSink, LabelledSink, Progress, ProgressSink};
pub use registry::{Registry, Report, ScopeGuard, Span, TimerStat};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every layer reports into by default.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Adds to a named counter on the global registry.
pub fn counter_add(name: &str, n: u64) {
    global().counter_add(name, n);
}

/// Opens a wall-clock span on the global registry; the returned guard
/// records the elapsed time under the current hierarchical scope when
/// dropped.
pub fn span(name: &str) -> Span<'static> {
    global().span(name)
}

/// Enters a hierarchical scope (no timing): spans and scopes opened on
/// this thread while the guard lives are prefixed with `name/`.
pub fn scope(name: &str) -> ScopeGuard {
    Registry::scope(name)
}

/// Clears this thread's scope prefix while the guard lives, so spans
/// record under absolute names regardless of the caller's open scopes.
pub fn root_scope() -> ScopeGuard {
    Registry::root_scope()
}
