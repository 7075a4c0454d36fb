//! # vfps-obs — structured tracing, phase timers, and metrics export
//!
//! A zero-dependency observability plane for the selection pipeline. The
//! paper's headline claim is a *cost* claim — Fagin's algorithm cuts
//! encryption and communication work per query — so the repo needs to see
//! where time and traffic go per protocol phase, not just the end-of-run
//! [`OpLedger`](https://docs.rs) totals.
//!
//! Three primitives:
//!
//! * **Spans** — RAII phase timers ([`span()`](fn@span) / [`span!`]) that nest: a
//!   span opened while another is open on the same thread becomes its
//!   child. The finished capture is a forest, exported as a JSON tree.
//! * **Metrics** — monotonic counters, gauges, and log2-bucket histograms
//!   in a [`MetricsRegistry`] ([`counter_add`], [`gauge_set`],
//!   [`histogram_record`], [`time_us`]).
//! * **Captures** — [`start_capture`] / [`finish_capture`] bracket a run;
//!   [`Trace::to_json`] serializes the span tree + metrics snapshot.
//!
//! ## Observing, never perturbing
//!
//! Instrumentation must keep fault-free runs bit-identical to
//! uninstrumented ones, so every recording call first checks one relaxed
//! atomic and returns immediately when no capture is active — no lock, no
//! allocation, no clock read. Nothing recorded ever feeds back into
//! computation. Shared state sits behind a single `Mutex` (the same
//! single-lock discipline as `TrafficLedger` in `vfps-net`): coarse, but
//! un-deadlockable, and span recording is far off any per-element hot
//! path.
//!
//! ```
//! vfps_obs::start_capture();
//! {
//!     vfps_obs::span!("phase.outer");
//!     vfps_obs::counter_add("work.items", 3);
//!     {
//!         vfps_obs::span!("phase.inner");
//!     }
//! }
//! let trace = vfps_obs::finish_capture().expect("capture was active");
//! assert_eq!(trace.span_count("phase.outer"), 1);
//! assert_eq!(trace.metrics.counter("work.items"), 3);
//! println!("{}", trace.to_json());
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use trace::{Trace, TraceSpan};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Fast-path switch: every recording call bails on this single load when
/// no capture is active.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The single lock over all capture state (TrafficLedger's discipline:
/// one lock, held briefly, never while calling out).
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Monotone capture generation; guards from a previous capture detect via
/// mismatch that their span no longer exists.
static GENERATION: AtomicU64 = AtomicU64::new(0);

static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LABEL: Cell<Option<u64>> = const { Cell::new(None) };
    /// Innermost open span on this thread: `(generation, span index)`.
    static CURRENT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

struct SpanRec {
    name: String,
    parent: Option<usize>,
    thread: u64,
    start_us: u64,
    duration_us: Option<u64>,
}

struct Recorder {
    generation: u64,
    epoch: Instant,
    spans: Vec<SpanRec>,
    metrics: MetricsRegistry,
}

fn lock() -> MutexGuard<'static, Option<Recorder>> {
    // A panic inside the short critical sections below cannot leave the
    // state torn; recover from poisoning rather than propagate it.
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn thread_label() -> u64 {
    THREAD_LABEL.with(|l| {
        l.get().unwrap_or_else(|| {
            let v = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            l.set(Some(v));
            v
        })
    })
}

/// True while a capture is active. Use to gate instrumentation whose mere
/// setup has a cost (clock reads, name formatting).
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a fresh capture, discarding any capture already in progress.
pub fn start_capture() {
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    let mut guard = lock();
    *guard = Some(Recorder {
        generation,
        epoch: Instant::now(),
        spans: Vec::new(),
        metrics: MetricsRegistry::default(),
    });
    drop(guard);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops the active capture and returns its [`Trace`], or `None` when no
/// capture was active. Spans still open are closed at the capture end and
/// marked `closed: false`.
pub fn finish_capture() -> Option<Trace> {
    ENABLED.store(false, Ordering::SeqCst);
    let recorder = lock().take()?;
    let wall_us = elapsed_us(recorder.epoch);
    let closed: Vec<bool> = recorder.spans.iter().map(|s| s.duration_us.is_some()).collect();
    let spans: Vec<SpanRec> = recorder
        .spans
        .into_iter()
        .map(|mut s| {
            if s.duration_us.is_none() {
                s.duration_us = Some(wall_us.saturating_sub(s.start_us));
            }
            s
        })
        .collect();

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    fn build(i: usize, spans: &[SpanRec], children: &[Vec<usize>], closed: &[bool]) -> TraceSpan {
        TraceSpan {
            name: spans[i].name.clone(),
            thread: spans[i].thread,
            start_us: spans[i].start_us,
            duration_us: spans[i].duration_us.unwrap_or(0),
            closed: closed[i],
            children: children[i].iter().map(|&c| build(c, spans, children, closed)).collect(),
        }
    }
    let forest = roots.iter().map(|&r| build(r, &spans, &children, &closed)).collect();
    Some(Trace { spans: forest, metrics: recorder.metrics, wall_us })
}

fn elapsed_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// RAII guard returned by [`span()`](fn@span); the span closes when it drops.
pub struct SpanGuard {
    token: Option<SpanToken>,
}

struct SpanToken {
    generation: u64,
    index: usize,
    prev: Option<(u64, usize)>,
}

/// Opens a span named `name`. When no capture is active this is one
/// atomic load and returns an inert guard.
///
/// The innermost open span on the current thread becomes the parent;
/// spans opened on other threads (e.g. pool workers) start their own
/// roots.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { token: None };
    }
    let mut guard = lock();
    let Some(rec) = guard.as_mut() else {
        return SpanGuard { token: None };
    };
    let generation = rec.generation;
    let parent = CURRENT.with(Cell::get).filter(|&(g, _)| g == generation).map(|(_, index)| index);
    let index = rec.spans.len();
    rec.spans.push(SpanRec {
        name: name.to_owned(),
        parent,
        thread: thread_label(),
        start_us: elapsed_us(rec.epoch),
        duration_us: None,
    });
    drop(guard);
    let prev = CURRENT.with(|c| c.replace(Some((generation, index))));
    SpanGuard { token: Some(SpanToken { generation, index, prev }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(token) = self.token.take() else { return };
        CURRENT.with(|c| c.set(token.prev));
        let mut guard = lock();
        if let Some(rec) = guard.as_mut() {
            if rec.generation == token.generation {
                let end = elapsed_us(rec.epoch);
                let span = &mut rec.spans[token.index];
                span.duration_us = Some(end.saturating_sub(span.start_us));
            }
        }
    }
}

/// Opens a span scoped to the enclosing block:
/// `span!("fed_knn.query");` is `let _guard = vfps_obs::span(...)` with a
/// hygienic binding.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _span_guard = $crate::span($name);
    };
}

/// Adds `delta` to counter `name` in the active capture (no-op otherwise).
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = lock().as_mut() {
        rec.metrics.counter_add(name, delta);
    }
}

/// Sets gauge `name` in the active capture (no-op otherwise).
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = lock().as_mut() {
        rec.metrics.gauge_set(name, value);
    }
}

/// Records `value` into histogram `name` in the active capture (no-op
/// otherwise).
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = lock().as_mut() {
        rec.metrics.histogram_record(name, value);
    }
}

/// Formats a labelled metric name — `base{key=value}` — for per-tenant
/// (or otherwise partitioned) series. Plain string composition, kept in
/// one place so every producer and every grepping consumer agree on the
/// shape; callers should gate on [`is_enabled`] if the formatting cost
/// matters on their path.
#[must_use]
pub fn labelled(base: &str, key: &str, value: &str) -> String {
    format!("{base}{{{key}={value}}}")
}

/// [`counter_add`] under a `base{key=value}` labelled name (no-op when no
/// capture is active — the name is never even formatted).
pub fn counter_add_labelled(base: &str, key: &str, value: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    counter_add(&labelled(base, key, value), delta);
}

/// [`gauge_set`] under a `base{key=value}` labelled name (no-op when no
/// capture is active — the name is never even formatted).
pub fn gauge_set_labelled(base: &str, key: &str, value: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    gauge_set(&labelled(base, key, value), v);
}

/// [`histogram_record`] under a `base{key=value}` labelled name (no-op
/// when no capture is active — the name is never even formatted).
pub fn histogram_record_labelled(base: &str, key: &str, value: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    histogram_record(&labelled(base, key, value), v);
}

/// Runs `f`, recording its wall time in microseconds into histogram
/// `name` when a capture is active. When none is, `f` runs with zero
/// added work — no clock is read.
pub fn time_us<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    histogram_record(name, t.elapsed().as_secs_f64() * 1e6);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global capture is process-wide state; tests that use it run
    /// under this lock so `cargo test`'s parallel runner cannot interleave
    /// captures.
    static TEST_SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _s = serial();
        assert!(finish_capture().is_none());
        counter_add("x", 1);
        histogram_record("h", 1.0);
        gauge_set("g", 1.0);
        {
            span!("dead");
        }
        assert!(!is_enabled());
        assert!(finish_capture().is_none(), "nothing was captured");
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let _s = serial();
        start_capture();
        {
            span!("outer");
            {
                span!("mid");
                {
                    span!("inner");
                }
            }
            {
                span!("mid");
            }
        }
        let t = finish_capture().expect("active capture");
        assert_eq!(t.spans.len(), 1, "one root");
        assert_eq!(t.spans[0].name, "outer");
        assert_eq!(t.spans[0].children.len(), 2, "two mid spans");
        assert_eq!(t.spans[0].children[0].children[0].name, "inner");
        assert_eq!(t.span_count("mid"), 2);
        assert!(t.spans[0].closed);
    }

    #[test]
    fn sibling_threads_record_their_own_roots() {
        let _s = serial();
        start_capture();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    span!("worker");
                    counter_add("worker.count", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let t = finish_capture().expect("active capture");
        assert_eq!(t.span_count("worker"), 4);
        assert_eq!(t.spans.len(), 4, "each thread is its own root");
        assert_eq!(t.metrics.counter("worker.count"), 4);
    }

    #[test]
    fn open_spans_are_closed_at_finish_and_marked() {
        let _s = serial();
        start_capture();
        let guard = span("leaks");
        let t = finish_capture().expect("active capture");
        assert_eq!(t.span_count("leaks"), 1);
        assert!(!t.spans[0].closed);
        drop(guard); // a stale-generation drop must be harmless
        assert!(finish_capture().is_none());
    }

    #[test]
    fn stale_guard_does_not_corrupt_next_capture() {
        let _s = serial();
        start_capture();
        let stale = span("old");
        start_capture(); // discards the first capture while `stale` is open
        {
            span!("new");
        }
        drop(stale);
        let t = finish_capture().expect("active capture");
        assert_eq!(t.span_count("new"), 1);
        assert_eq!(t.span_count("old"), 0, "the discarded span must not resurface");
    }

    #[test]
    fn time_us_records_when_enabled_and_passes_value_through() {
        let _s = serial();
        let v = time_us("off.path", || 7);
        assert_eq!(v, 7);
        start_capture();
        let v = time_us("on.path", || 40 + 2);
        assert_eq!(v, 42);
        let t = finish_capture().expect("active capture");
        assert_eq!(t.metrics.histogram("on.path").expect("recorded").count(), 1);
        assert!(t.metrics.histogram("off.path").is_none());
    }

    #[test]
    fn labelled_metrics_partition_by_value() {
        let _s = serial();
        assert_eq!(labelled("serve.accepted", "tenant", "Bank"), "serve.accepted{tenant=Bank}");
        counter_add_labelled("serve.accepted", "tenant", "Bank", 1); // inert: no capture
        start_capture();
        counter_add_labelled("serve.accepted", "tenant", "Bank", 2);
        counter_add_labelled("serve.accepted", "tenant", "Rice", 5);
        gauge_set_labelled("serve.queue_depth", "tenant", "Bank", 3.0);
        histogram_record_labelled("serve.wait_us", "tenant", "Rice", 7.0);
        let t = finish_capture().expect("active capture");
        assert_eq!(t.metrics.counter("serve.accepted{tenant=Bank}"), 2);
        assert_eq!(t.metrics.counter("serve.accepted{tenant=Rice}"), 5);
        assert_eq!(t.metrics.gauge("serve.queue_depth{tenant=Bank}"), Some(3.0));
        assert_eq!(t.metrics.histogram("serve.wait_us{tenant=Rice}").expect("hist").count(), 1);
    }

    #[test]
    fn capture_json_round_trips_span_names() {
        let _s = serial();
        start_capture();
        {
            span!("json.root");
            counter_add("json.counter", 3);
        }
        let t = finish_capture().expect("active capture");
        let j = t.to_json();
        assert!(j.contains("\"json.root\""), "{j}");
        assert!(j.contains("\"json.counter\": 3"), "{j}");
    }
}
