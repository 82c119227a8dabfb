//! A lightweight structured tracing facade: named spans with enter/exit
//! events delivered to a process-global, thread-safe [`Subscriber`].
//!
//! The facade is deliberately tiny — no levels, no fields, no async —
//! because its job is to mark the boundaries of the paper's operations
//! (§3 traversals, WAL commits, recovery) so a test or a profiling
//! harness can observe *which* engine phase is running. When no
//! subscriber is installed, [`span`] costs one relaxed atomic load and
//! returns an inert guard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Receives span enter/exit events. Implementations must be thread-safe;
/// events from concurrent engine threads arrive unserialized.
pub trait Subscriber: Send + Sync {
    /// A span was entered. `target` is the subsystem (e.g. `"storage"`),
    /// `name` the operation (e.g. `"commit_atomic"`).
    fn enter(&self, target: &str, name: &str);
    /// The span exited after `elapsed_ns` wall-clock nanoseconds.
    fn exit(&self, target: &str, name: &str, elapsed_ns: u64);
}

struct Global {
    /// Fast-path check: true only while a subscriber is installed.
    active: AtomicBool,
    subscriber: RwLock<Option<std::sync::Arc<dyn Subscriber>>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        active: AtomicBool::new(false),
        subscriber: RwLock::new(None),
    })
}

/// Install a process-global subscriber, replacing any previous one.
pub fn set_subscriber(sub: std::sync::Arc<dyn Subscriber>) {
    let g = global();
    *g.subscriber.write().unwrap() = Some(sub);
    g.active.store(true, Ordering::Release);
}

/// Remove the global subscriber; subsequent [`span`] calls are no-ops.
pub fn clear_subscriber() {
    let g = global();
    g.active.store(false, Ordering::Release);
    *g.subscriber.write().unwrap() = None;
}

/// RAII guard for a traced operation: created by [`span`], emits the
/// exit event with the elapsed time when dropped.
pub struct Span {
    /// `None` when tracing was inactive at creation — the drop is free.
    live: Option<(&'static str, &'static str, Instant)>,
}

/// Enter a span. Emits `enter` immediately and `exit` (with elapsed
/// nanoseconds) when the returned guard drops. When no subscriber is
/// installed this is one relaxed load and an inert guard.
#[inline]
pub fn span(target: &'static str, name: &'static str) -> Span {
    if !global().active.load(Ordering::Acquire) {
        return Span { live: None };
    }
    if let Some(sub) = global().subscriber.read().unwrap().as_ref() {
        sub.enter(target, name);
    }
    Span {
        live: Some((target, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((target, name, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(sub) = global().subscriber.read().unwrap().as_ref() {
                sub.exit(target, name, ns);
            }
        }
    }
}

/// One recorded span event, as collected by [`CollectingSubscriber`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Subsystem the span belongs to.
    pub target: String,
    /// Operation name.
    pub name: String,
    /// `"enter"` or `"exit"`.
    pub phase: &'static str,
}

/// A [`Subscriber`] that appends every event to an in-memory list —
/// intended for tests asserting that an operation was traced.
#[derive(Default)]
pub struct CollectingSubscriber {
    events: Mutex<Vec<SpanEvent>>,
}

impl CollectingSubscriber {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain and return all events recorded so far.
    pub fn take(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl Subscriber for CollectingSubscriber {
    fn enter(&self, target: &str, name: &str) {
        self.events.lock().unwrap().push(SpanEvent {
            target: target.to_string(),
            name: name.to_string(),
            phase: "enter",
        });
    }

    fn exit(&self, target: &str, name: &str, _elapsed_ns: u64) {
        self.events.lock().unwrap().push(SpanEvent {
            target: target.to_string(),
            name: name.to_string(),
            phase: "exit",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spans_reach_subscriber_and_stop_after_clear() {
        // Single test touching the global subscriber; keep it serial.
        let collector = Arc::new(CollectingSubscriber::new());
        set_subscriber(collector.clone());
        {
            let _s = span("core", "components_of");
        }
        clear_subscriber();
        {
            let _s = span("core", "after_clear");
        }
        let events = collector.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, "enter");
        assert_eq!(events[1].phase, "exit");
        assert_eq!(events[0].name, "components_of");
    }
}
