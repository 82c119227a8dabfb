//! # corion-obs
//!
//! Observability for the CORION engine: a zero-dependency **metrics
//! registry** plus a lightweight **structured tracing facade**.
//!
//! The paper this repository reproduces argues that composite-object
//! placement, traversal, and locking decisions must be driven by measured
//! workload shape (Darmont & Gruenwald's clustering-technique comparison
//! makes the same point for clustering strategies). This crate is the
//! measuring instrument: every hot path in `corion-core` (§3 traversals,
//! the traversal cache), `corion-storage` (WAL append/flush/checkpoint/
//! recovery), and `corion-lock` (acquire/wait/conflict) records into a
//! [`Registry`], and [`MetricsSnapshot`] turns the registry into a
//! serializable, mergeable, Prometheus-renderable value.
//!
//! ## Design
//!
//! * **Handles, not lookups** — [`Registry::counter`] /
//!   [`Registry::gauge`] / [`Registry::histogram`] intern a metric by name
//!   once and hand back a cheaply clonable handle (`Arc` inside). Hot
//!   paths hold handles in a struct and pay one atomic RMW per event; the
//!   name → metric map is touched only at construction and snapshot time.
//! * **Runtime off-switch** — [`Registry::set_enabled`]`(false)` makes
//!   every handle's recording method return after a single relaxed load,
//!   and timers skip the `Instant::now()` call entirely.
//! * **Fixed-bucket histograms** — cumulative `le` buckets over a fixed
//!   bound slice ([`LATENCY_BOUNDS_NS`], [`SIZE_BOUNDS_BYTES`]), merge-able
//!   by bucket-wise addition — see [`MetricsSnapshot::merge`].
//!
//! ```
//! use corion_obs::{Registry, LATENCY_BOUNDS_NS};
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total");
//! let lat = registry.histogram("lookup_latency_ns", LATENCY_BOUNDS_NS);
//! hits.inc();
//! lat.record(1_200);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("cache_hits_total"), 1);
//! assert!(snap.render_prometheus().contains("cache_hits_total"));
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Timer, LATENCY_BOUNDS_NS, SIZE_BOUNDS_BYTES};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SnapshotError};
pub use trace::{clear_subscriber, set_subscriber, span, CollectingSubscriber, Span, Subscriber};
