//! The metrics registry: counters, hierarchical span timers, histograms,
//! and report snapshots.

use crate::json::{JsonError, JsonValue};
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

/// Number of power-of-two histogram buckets (covers `u64`'s range).
const BUCKETS: usize = 64;

/// A lock-free power-of-two-bucketed histogram.
///
/// Bucket `i` counts values whose bit length is `i` (value 0 falls into
/// bucket 0), so bucket upper bounds are `0, 1, 3, 7, …, 2^63-1, u64::MAX`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn stat(&self, name: &str) -> HistogramStat {
        let count = self.count.load(Ordering::Relaxed);
        HistogramStat {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then(|| (bucket_upper(i), c))
                })
                .collect(),
        }
    }
}

/// Inclusive upper bound of histogram bucket `i` (bucket `i` holds the
/// values of bit length `i`; the last bucket absorbs everything above).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// The central metrics store. One global instance serves the whole
/// process (see [`crate::global`]); tests construct private ones.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    timers: Mutex<HashMap<String, Arc<TimerCell>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
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

    /// Current value of a named counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Records a value into a named histogram.
    pub fn record(&self, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        self.histogram(name).record(value);
    }

    /// Handle to a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
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

    /// Point-in-time snapshot of every counter, timer, and histogram,
    /// sorted by name for deterministic output.
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
        let mut histograms: Vec<HistogramStat> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| h.stat(k))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Report {
            counters,
            timers,
            histograms,
        }
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

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name, e.g. `eval/sim_latency_us`.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramStat {
    /// Approximate quantile (`0.0..=1.0`): the upper bound of the bucket
    /// containing the q-th observation.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(upper, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// A full snapshot of a registry, renderable as JSON or aligned text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Span timers sorted by name.
    pub timers: Vec<TimerStat>,
    /// Histograms sorted by name.
    pub histograms: Vec<HistogramStat>,
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

    /// Histogram stats by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Machine-readable single-line JSON.
    pub fn to_json(&self) -> String {
        JsonValue::from_report(self).render()
    }

    /// Parses a report back from [`Report::to_json`] output.
    pub fn from_json(text: &str) -> Result<Report, JsonError> {
        JsonValue::parse(text)?.into_report()
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
        if !self.histograms.is_empty() {
            let w = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0);
            out.push_str("histograms\n");
            for h in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<w$}  count {:>8}  mean {:>10.1}  p50 {:>8}  p99 {:>8}  max {:>8}",
                    h.name,
                    h.count,
                    mean,
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max,
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
            reg.counter_value("test/concurrent"),
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
        reg.record("h", 3);
        {
            let _s = reg.span("quiet");
        }
        let report = reg.report();
        assert_eq!(report.counter("x"), 0);
        assert!(report.timer("quiet").is_none());
        assert!(report.histogram("h").is_none());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let stat = h.stat("lat");
        assert_eq!(stat.count, 7);
        assert_eq!(stat.min, 0);
        assert_eq!(stat.max, 1000);
        assert_eq!(stat.sum, 1107);
        assert!(stat.quantile(0.5) <= 3);
        assert_eq!(stat.quantile(1.0), 1000);
    }
}
