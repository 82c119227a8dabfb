//! The [`Registry`]: a named, get-or-create store of metric handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramInner};
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Inner {
    /// Runtime on/off switch, shared (by `Arc` clone) into every handle
    /// this registry hands out; flipping it affects all of them at once.
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A thread-safe, get-or-create registry of named metrics.
///
/// Cloning is cheap and shares the underlying store — `Database` holds
/// one clone, hands others to the storage and lock layers, and a single
/// [`Registry::snapshot`] sees everything.
///
/// Names follow Prometheus conventions (`snake_case`, `_total` suffix on
/// counters, unit suffix like `_ns` / `_bytes` on histograms); see
/// `docs/OBSERVABILITY.md` for the full CORION metric catalog.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Create an empty registry with recording enabled.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: Arc::new(AtomicBool::new(true)),
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Turn recording on or off at runtime for every handle created by
    /// this registry (past and future). Reads and snapshots are always
    /// allowed; only mutation is gated.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Get or create the counter registered under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.inner.metrics.lock().unwrap();
        match metrics.get(name) {
            Some(Metric::Counter(c)) => c.clone(),
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let c = Counter {
                    value: Arc::new(AtomicU64::new(0)),
                    enabled: Arc::clone(&self.inner.enabled),
                };
                metrics.insert(name.to_string(), Metric::Counter(c.clone()));
                c
            }
        }
    }

    /// Get or create the gauge registered under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.inner.metrics.lock().unwrap();
        match metrics.get(name) {
            Some(Metric::Gauge(g)) => g.clone(),
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let g = Gauge {
                    value: Arc::new(AtomicI64::new(0)),
                    enabled: Arc::clone(&self.inner.enabled),
                };
                metrics.insert(name.to_string(), Metric::Gauge(g.clone()));
                g
            }
        }
    }

    /// Get or create the histogram registered under `name` with the
    /// given inclusive upper `bounds` (strictly increasing; an implicit
    /// `+Inf` bucket is added).
    ///
    /// # Panics
    /// Panics if `name` is registered as a different type or with
    /// different bounds, or if `bounds` is empty or not strictly
    /// increasing.
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram `{name}` needs at least one bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}` bounds must be strictly increasing"
        );
        let mut metrics = self.inner.metrics.lock().unwrap();
        match metrics.get(name) {
            Some(Metric::Histogram(h)) => {
                assert_eq!(
                    h.inner.bounds, bounds,
                    "metric `{name}` already registered with different bounds"
                );
                h.clone()
            }
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let h = Histogram {
                    inner: Arc::new(HistogramInner {
                        bounds,
                        buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                        sum: AtomicU64::new(0),
                        count: AtomicU64::new(0),
                    }),
                    enabled: Arc::clone(&self.inner.enabled),
                };
                metrics.insert(name.to_string(), Metric::Histogram(h.clone()));
                h
            }
        }
    }

    /// Take a point-in-time snapshot of every registered metric.
    ///
    /// Individual values are read with relaxed atomics, so a snapshot
    /// taken concurrently with recording may tear *across* metrics (a
    /// hit counted but its latency not yet), never *within* one value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.inner.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.inner.bounds.to_vec(),
                            buckets: h
                                .inner
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            sum: h.sum(),
                            count: h.count(),
                        },
                    );
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_underlying_metric() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn bounds_mismatch_panics() {
        let r = Registry::new();
        r.histogram("h", &[1, 2]);
        r.histogram("h", &[1, 3]);
    }

    #[test]
    fn clones_share_the_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("shared").inc();
        assert_eq!(r2.snapshot().counter("shared"), 1);
        r2.set_enabled(false);
        assert!(!r.is_enabled());
    }
}
