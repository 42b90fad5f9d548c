//! The registry: a process-local, thread-safe home for every metric a run
//! produces. Snapshots are deterministic — names are sorted and values read
//! atomically — so two identical runs snapshot byte-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{Snapshot, Value};

#[derive(Default)]
struct State {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Value>,
}

/// Shared metric registry. Cheap to clone; clones observe the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    state: Arc<Mutex<State>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter with this dotted name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut state = self.state.lock().expect("telemetry registry poisoned");
        let cell = state
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell }
    }

    /// Set a gauge. Last write wins; snapshots read the current value.
    pub fn set_u64(&self, name: &str, value: u64) {
        self.set(name, Value::U64(value));
    }

    pub fn set_i64(&self, name: &str, value: i64) {
        self.set(name, Value::I64(value));
    }

    pub fn set_f64(&self, name: &str, value: f64) {
        self.set(name, Value::F64(value));
    }

    pub fn set_bool(&self, name: &str, value: bool) {
        self.set(name, Value::Bool(value));
    }

    pub fn set_str(&self, name: &str, value: &str) {
        self.set(name, Value::Str(value.to_string()));
    }

    fn set(&self, name: &str, value: Value) {
        let mut state = self.state.lock().expect("telemetry registry poisoned");
        state.gauges.insert(name.to_string(), value);
    }

    /// A view of this registry that prefixes every metric name with
    /// `prefix.`. Scopes nest: `reg.scope("watch").scope("counters")`.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Start a span timer; on drop it adds its elapsed monotonic nanos to the
    /// counter `<name>_nanos`. Spans nest by name: `span.child("parse")`
    /// records under `<name>.parse_nanos`.
    pub fn span(&self, name: &str) -> Span {
        Span {
            registry: self.clone(),
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.lock().expect("telemetry registry poisoned");
        let mut snap = Snapshot::new();
        // Gauges first so a counter registered under the same name wins —
        // counters are the stronger (monotonic) claim to a name.
        for (name, value) in &state.gauges {
            snap.insert(name.clone(), value.clone());
        }
        for (name, cell) in &state.counters {
            snap.insert(name.clone(), Value::U64(cell.load(Ordering::SeqCst)));
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("telemetry registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &state.counters.len())
            .field("gauges", &state.gauges.len())
            .finish()
    }
}

/// Handle to a monotonic counter. Clone-able, lock-free on the hot path.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Name-prefixing view of a registry; see [`Registry::scope`].
#[derive(Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    fn full(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.full(name))
    }

    pub fn set_u64(&self, name: &str, value: u64) {
        self.registry.set_u64(&self.full(name), value);
    }

    pub fn set_i64(&self, name: &str, value: i64) {
        self.registry.set_i64(&self.full(name), value);
    }

    pub fn set_f64(&self, name: &str, value: f64) {
        self.registry.set_f64(&self.full(name), value);
    }

    pub fn set_bool(&self, name: &str, value: bool) {
        self.registry.set_bool(&self.full(name), value);
    }

    pub fn set_str(&self, name: &str, value: &str) {
        self.registry.set_str(&self.full(name), value);
    }

    pub fn scope(&self, prefix: &str) -> Scope {
        self.registry.scope(&self.full(prefix))
    }

    pub fn span(&self, name: &str) -> Span {
        self.registry.span(&self.full(name))
    }
}

/// RAII span timer; see [`Registry::span`]. Dropping records elapsed nanos.
pub struct Span {
    registry: Registry,
    name: String,
    started: Instant,
}

impl Span {
    /// Nested child span recording under `<parent>.<name>_nanos`.
    pub fn child(&self, name: &str) -> Span {
        self.registry.span(&format!("{}.{name}", self.name))
    }

    /// Elapsed time so far, without ending the span.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry
            .counter(&format!("{}_nanos", self.name))
            .add(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_clones_and_threads() {
        let reg = Registry::new();
        let counter = reg.counter("test.hits");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("test.hits").get(), 4000);
        assert_eq!(reg.snapshot().get_u64("test.hits"), Some(4000));
    }

    #[test]
    fn scopes_prefix_names() {
        let reg = Registry::new();
        let scope = reg.scope("watch").scope("counters");
        scope.counter("injected").add(7);
        scope.set_bool("interrupted", false);
        let snap = reg.snapshot();
        assert_eq!(snap.get_u64("watch.counters.injected"), Some(7));
        assert_eq!(
            snap.get("watch.counters.interrupted"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn span_records_nanos_counter() {
        let reg = Registry::new();
        {
            let span = reg.span("stage.scan");
            let _child = span.child("parse");
        }
        let snap = reg.snapshot();
        assert!(snap.get_u64("stage.scan_nanos").is_some());
        assert!(snap.get_u64("stage.scan.parse_nanos").is_some());
        // Both names fall under the timing rule, so default output strips them.
        let mut stripped = snap.clone();
        stripped.strip_timings();
        assert_eq!(stripped.get_u64("stage.scan_nanos"), Some(0));
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = Registry::new();
        reg.set_u64("a.depth", 3);
        reg.set_u64("a.depth", 9);
        assert_eq!(reg.snapshot().get_u64("a.depth"), Some(9));
    }
}
