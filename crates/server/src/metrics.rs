//! The `corion_server_*` metric family.
//!
//! Interned in the same [`Registry`] as the engine's `corion_*` families,
//! so one `Metrics` request (or `render_prometheus`) reports the whole
//! stack: storage, core, lock, MVCC, and server.

use corion_obs::{Counter, Gauge, Histogram, Registry, LATENCY_BOUNDS_NS};

/// Handles to every server metric (see `docs/OBSERVABILITY.md`).
pub struct ServerMetrics {
    /// `corion_server_connections_total`: TCP connections accepted
    /// (including ones rejected by admission control right after).
    pub connections: Counter,
    /// `corion_server_sessions_active`: sessions currently inside the
    /// admission semaphore.
    pub sessions_active: Gauge,
    /// `corion_server_overload_rejections_total`: connections refused
    /// with `Overloaded` because the session cap was reached.
    pub overload_rejections: Counter,
    /// `corion_server_requests_total`: requests dispatched (handshake
    /// included).
    pub requests: Counter,
    /// `corion_server_errors_total`: error responses sent.
    pub errors: Counter,
    /// `corion_server_idle_timeouts_total`: sessions closed for sitting
    /// idle past the timeout.
    pub idle_timeouts: Counter,
    /// `corion_server_streams_active`: live change-stream subscribers
    /// (moved by ±1 at attach, detach and lag cut-off).
    pub streams_active: Gauge,
    /// `corion_server_stream_events_total`: change-stream events
    /// delivered to subscriber queues.
    pub stream_events: Counter,
    /// `corion_server_stream_lagged_total`: subscribers disconnected for
    /// overflowing their bounded queue.
    pub stream_lagged: Counter,
    /// `corion_server_stream_batches_total`: change sets the engine
    /// released to the stream — one per durable batch that changed an
    /// object while somebody was subscribed.
    pub stream_batches: Counter,
    /// `corion_server_stream_emit_ns`: time a committer spent on one event
    /// under the commit latch — capturing it in the engine (before-image
    /// reads, image copies), mapping it to deltas, offering it to every
    /// queue. Empty while nobody subscribes.
    pub stream_emit: Histogram,
}

impl ServerMetrics {
    /// Interns the family in `registry`.
    pub fn new(registry: &Registry) -> Self {
        ServerMetrics {
            connections: registry.counter("corion_server_connections_total"),
            sessions_active: registry.gauge("corion_server_sessions_active"),
            overload_rejections: registry.counter("corion_server_overload_rejections_total"),
            requests: registry.counter("corion_server_requests_total"),
            errors: registry.counter("corion_server_errors_total"),
            idle_timeouts: registry.counter("corion_server_idle_timeouts_total"),
            streams_active: registry.gauge("corion_server_streams_active"),
            stream_events: registry.counter("corion_server_stream_events_total"),
            stream_lagged: registry.counter("corion_server_stream_lagged_total"),
            stream_batches: registry.counter("corion_server_stream_batches_total"),
            stream_emit: registry.histogram("corion_server_stream_emit_ns", LATENCY_BOUNDS_NS),
        }
    }
}
