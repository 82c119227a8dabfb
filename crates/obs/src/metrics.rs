//! Metric handle types: [`Counter`], [`Gauge`], [`Histogram`], and the
//! RAII [`Timer`] guard.
//!
//! Handles are created by a [`crate::Registry`] and are cheap to clone
//! (`Arc` inside). Each recording method first checks the registry's
//! shared enabled flag with one relaxed load.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bucket upper bounds (inclusive, nanoseconds) for latency histograms.
///
/// Spans 250 ns .. 1 s geometrically (~4× steps); an implicit `+Inf`
/// bucket catches everything above. Chosen so that both a cached
/// `components_of` lookup (hundreds of ns) and a full WAL recovery
/// (tens of ms) land in the resolving middle of the range.
pub const LATENCY_BOUNDS_NS: &[u64] = &[
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    250_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    250_000_000,
    1_000_000_000,
];

/// Bucket upper bounds (inclusive, bytes) for size histograms such as
/// WAL append record sizes. Implicit `+Inf` above the last bound.
pub const SIZE_BOUNDS_BYTES: &[u64] = &[
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// True when recording should actually happen: the registry's runtime
/// switch is on.
#[inline(always)]
fn live(enabled: &AtomicBool) -> bool {
    enabled.load(Ordering::Relaxed)
}

/// A monotonically increasing `u64` counter.
///
/// Cloning shares the underlying value; all clones observe and mutate
/// the same metric.
#[derive(Clone)]
pub struct Counter {
    pub(crate) value: Arc<AtomicU64>,
    pub(crate) enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Add one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if live(&self.enabled) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value. Reads ignore the enabled switch so that a
    /// snapshot taken after disabling still sees everything recorded.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can go up and down (e.g. the current
/// hierarchy-cache generation, or bytes pending in the WAL tail).
#[derive(Clone)]
pub struct Gauge {
    pub(crate) value: Arc<AtomicI64>,
    pub(crate) enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        if live(&self.enabled) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `delta` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        if live(&self.enabled) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current gauge value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket lives at `buckets[bounds.len()]`.
    pub(crate) bounds: &'static [u64],
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (latencies in
/// nanoseconds, sizes in bytes).
///
/// Bounds are **inclusive upper bounds** (`value <= bound` lands in the
/// bucket), matching Prometheus `le` semantics; an implicit `+Inf`
/// bucket catches the rest. The bound slice is `'static` so that every
/// histogram sharing a name provably shares bucket layout, which is what
/// makes [`crate::MetricsSnapshot::merge`] a plain bucket-wise addition.
#[derive(Clone)]
pub struct Histogram {
    pub(crate) inner: Arc<HistogramInner>,
    pub(crate) enabled: Arc<AtomicBool>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if !live(&self.enabled) {
            return;
        }
        let inner = &self.inner;
        let idx = match inner.bounds.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => inner.bounds.len(), // +Inf bucket
        };
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Start a [`Timer`] that records elapsed nanoseconds into this
    /// histogram when dropped. When recording is disabled the timer is
    /// inert: no [`Instant::now`] call and no handle clone (so the
    /// disabled path also skips the `Arc` refcount traffic).
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            armed: if live(&self.enabled) {
                Some((self.clone(), Instant::now()))
            } else {
                None
            },
        }
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }
}

/// RAII guard returned by [`Histogram::start_timer`]: records the
/// elapsed wall-clock nanoseconds into its histogram on drop.
///
/// Owns a clone of the histogram handle, so it borrows nothing — hot
/// paths can start a timer and then call `&mut self` methods freely
/// while it is live.
pub struct Timer {
    /// Histogram handle and start instant, populated only while live; a
    /// disabled timer carries nothing.
    armed: Option<(Histogram, Instant)>,
}

impl Timer {
    /// Stop the timer early and record; equivalent to dropping it.
    #[inline]
    pub fn observe(self) {}
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.armed.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            histogram.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let r = Registry::new();
        let h = r.histogram("h", &[10, 100]);
        h.record(10); // on the boundary -> first bucket (le semantics)
        h.record(11); // -> second bucket
        h.record(100); // boundary -> second bucket
        h.record(101); // -> +Inf bucket
        let snap = r.snapshot();
        let hs = &snap.histograms["h"];
        assert_eq!(hs.buckets, vec![1, 2, 1]);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 10 + 11 + 100 + 101);
    }

    #[test]
    fn disabled_registry_records_nothing_but_reads_fine() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h", LATENCY_BOUNDS_NS);
        c.inc();
        r.set_enabled(false);
        c.inc();
        h.record(5);
        {
            let _t = h.start_timer();
        }
        r.set_enabled(true);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn timer_records_elapsed_nanos() {
        let r = Registry::new();
        let h = r.histogram("t", LATENCY_BOUNDS_NS);
        {
            let _t = h.start_timer();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
    }
}
