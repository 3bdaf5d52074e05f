//! The metrics registry: counters, hierarchical span timers and report
//! snapshots.

use crate::json::JsonValue;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Per-thread hierarchical scope prefix, e.g. `"eval/deg/"`.
    static SCOPE: RefCell<String> = const { RefCell::new(String::new()) };
}

#[derive(Debug, Default)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The central metrics store. One global instance serves the whole
/// process (see [`crate::global`]); tests construct private ones.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    timers: Mutex<HashMap<String, Arc<TimerCell>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .field("report", &self.report())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            ..Default::default()
        }
    }

    /// Globally enables or disables collection. Disabled registries make
    /// every operation a cheap no-op (one relaxed atomic load).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether collection is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Handle to a named counter (cheap to clone, lock-free to bump).
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Adds to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Enters a hierarchical scope for the current thread: while the
    /// guard lives, spans and nested scopes are recorded under
    /// `name/...`. Purely a naming device — no time is recorded.
    pub fn scope(name: &str) -> ScopeGuard {
        let restore_len = SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            let restore = s.len();
            s.push_str(name);
            s.push('/');
            restore
        });
        ScopeGuard {
            restore: Restore::Truncate(restore_len),
        }
    }

    /// Resets the current thread's scope prefix to empty while the guard
    /// lives (restoring it afterwards), so subsequent spans record under
    /// absolute names regardless of what the caller had open. Used by
    /// layers whose metric names must be stable whether they run on the
    /// caller's thread or on workers.
    pub fn root_scope() -> ScopeGuard {
        let saved = SCOPE.with(|s| std::mem::take(&mut *s.borrow_mut()));
        ScopeGuard {
            restore: Restore::Replace(saved),
        }
    }

    /// Opens a wall-clock span. The guard records `count += 1` and the
    /// elapsed nanoseconds under the scope-qualified name when dropped;
    /// nested spans and scopes are prefixed with this span's name.
    ///
    /// Guards are LIFO by construction (RAII); leaking one mid-scope
    /// would misattribute subsequent span names on this thread.
    pub fn span<'r>(&'r self, name: &str) -> Span<'r> {
        if !self.enabled() {
            return Span {
                registry: self,
                inner: None,
            };
        }
        let (full, restore_len) = SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            let restore = s.len();
            let full = format!("{s}{name}");
            s.push_str(name);
            s.push('/');
            (full, restore)
        });
        Span {
            registry: self,
            inner: Some(SpanInner {
                full,
                restore_len,
                start: Instant::now(),
            }),
        }
    }

    fn timer(&self, name: &str) -> Arc<TimerCell> {
        let mut map = self.timers.lock().unwrap();
        if let Some(t) = map.get(name) {
            return Arc::clone(t);
        }
        let t = Arc::new(TimerCell::default());
        map.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Point-in-time snapshot of every counter and timer, sorted by name
    /// for deterministic output.
    pub fn report(&self) -> Report {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut timers: Vec<TimerStat> = self
            .timers
            .lock()
            .unwrap()
            .iter()
            .map(|(k, t)| TimerStat {
                name: k.clone(),
                count: t.count.load(Ordering::Relaxed),
                total_ns: t.total_ns.load(Ordering::Relaxed),
                max_ns: t.max_ns.load(Ordering::Relaxed),
            })
            .collect();
        timers.sort_by(|a, b| a.name.cmp(&b.name));
        Report { counters, timers }
    }
}

#[derive(Debug)]
enum Restore {
    /// Pop a pushed prefix segment.
    Truncate(usize),
    /// Restore the full pre-`root_scope` prefix.
    Replace(String),
}

/// RAII guard of [`Registry::scope`] / [`Registry::root_scope`].
#[derive(Debug)]
pub struct ScopeGuard {
    restore: Restore,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        match &mut self.restore {
            Restore::Truncate(len) => SCOPE.with(|s| s.borrow_mut().truncate(*len)),
            Restore::Replace(saved) => {
                let saved = std::mem::take(saved);
                SCOPE.with(|s| *s.borrow_mut() = saved);
            }
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    full: String,
    restore_len: usize,
    start: Instant,
}

/// RAII guard of [`Registry::span`]: records elapsed wall-clock time on
/// drop.
#[derive(Debug)]
pub struct Span<'r> {
    registry: &'r Registry,
    inner: Option<SpanInner>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.start.elapsed().as_nanos() as u64;
            SCOPE.with(|s| s.borrow_mut().truncate(inner.restore_len));
            let cell = self.registry.timer(&inner.full);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            cell.max_ns.fetch_max(elapsed, Ordering::Relaxed);
        }
    }
}

/// Snapshot of one span timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStat {
    /// Scope-qualified span name, e.g. `eval/deg/build`.
    pub name: String,
    /// Completed span count.
    pub count: u64,
    /// Total wall-clock nanoseconds across all spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl TimerStat {
    /// Mean nanoseconds per span.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A full snapshot of a registry, renderable as JSON or aligned text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Span timers sorted by name.
    pub timers: Vec<TimerStat>,
}

impl Report {
    /// Value of a counter in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Timer stats for a span name, when present.
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Machine-readable single-line JSON.
    pub fn to_json(&self) -> String {
        JsonValue::from_report(self).render()
    }

    /// Aligned human-readable rendering.
    pub fn to_pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<w$}  {v}");
            }
        }
        if !self.timers.is_empty() {
            let w = self.timers.iter().map(|t| t.name.len()).max().unwrap_or(0);
            out.push_str("timers\n");
            for t in &self.timers {
                let _ = writeln!(
                    out,
                    "  {:<w$}  count {:>8}  total {:>12.3} ms  mean {:>10.1} µs  max {:>10.1} µs",
                    t.name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.mean_ns() / 1e3,
                    t.max_ns as f64 / 1e3,
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        crossbeam_free_scope(&reg, threads, per_thread);
        assert_eq!(
            reg.report().counter("test/concurrent"),
            threads as u64 * per_thread
        );
    }

    fn crossbeam_free_scope(reg: &Registry, threads: usize, per_thread: u64) {
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let c = reg.counter("test/concurrent");
                    for _ in 0..per_thread {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_span_timing_is_monotone_and_scoped() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer");
            {
                let _inner = reg.span("inner");
                thread::sleep(Duration::from_millis(5));
            }
            thread::sleep(Duration::from_millis(1));
        }
        let report = reg.report();
        let outer = report.timer("outer").expect("outer recorded");
        let inner = report
            .timer("outer/inner")
            .expect("inner nested under outer");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer ({}) must cover inner ({})",
            outer.total_ns,
            inner.total_ns
        );
        assert!(
            inner.total_ns >= 5_000_000,
            "inner span must be at least the sleep"
        );
        assert!(outer.max_ns >= outer.total_ns / outer.count.max(1));
    }

    #[test]
    fn scope_prefixes_compose_without_timing() {
        let reg = Registry::new();
        {
            let _s = Registry::scope("eval");
            let _t = reg.span("deg/build");
        }
        let report = reg.report();
        assert!(report.timer("eval/deg/build").is_some());
        assert!(
            report.timer("eval").is_none(),
            "scopes alone record no timers"
        );
    }

    #[test]
    fn root_scope_pins_names_and_restores_the_prefix() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer");
            {
                let _root = Registry::root_scope();
                let _abs = reg.span("absolute");
            }
            let _back = reg.span("inner");
        }
        let report = reg.report();
        assert!(
            report.timer("absolute").is_some(),
            "root scope strips the prefix"
        );
        assert!(
            report.timer("outer/inner").is_some(),
            "prefix restored after root scope"
        );
        assert!(report.timer("outer/absolute").is_none());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        reg.counter_add("x", 5);
        {
            let _s = reg.span("quiet");
        }
        let report = reg.report();
        assert_eq!(report.counter("x"), 0);
        assert!(report.timer("quiet").is_none());
    }
}
