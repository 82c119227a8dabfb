//! Metric handles for the storage layer, interned once per store.
//!
//! The WAL itself stays metric-free (it is a pure in-memory log the
//! crash-matrix tests reason about byte-exactly); everything is counted
//! at the [`crate::store::ObjectStore`] boundary, which is where the
//! paper-visible events happen: a commit's durability point, a recovery
//! replay, a checkpoint truncation. See `docs/OBSERVABILITY.md` for the
//! full catalog.

use corion_obs::{Registry, LATENCY_BOUNDS_NS};

/// Handles to every storage-layer metric. One instance per
/// [`crate::store::ObjectStore`]; cloning a handle is cheap and all
/// clones share the registry's values.
pub struct StoreMetrics {
    /// `corion_wal_append_records_total`: WAL records appended (page
    /// images, commit markers, segment ops).
    pub wal_append_records: corion_obs::Counter,
    /// `corion_wal_append_bytes_total`: encoded bytes appended to the
    /// WAL (pending; they become durable at the next flush).
    pub wal_append_bytes: corion_obs::Counter,
    /// `corion_wal_flushes_total`: durability points — one per committed
    /// batch.
    pub wal_flushes: corion_obs::Counter,
    /// `corion_wal_delta_records_total`: page records logged as byte runs
    /// against the last logged image rather than as images.
    pub wal_delta_records: corion_obs::Counter,
    /// `corion_wal_delta_bytes_saved_total`: payload bytes the delta
    /// records above avoided logging (full page minus encoded delta).
    pub wal_delta_bytes_saved: corion_obs::Counter,
    /// `corion_wal_dedup_skips_total`: page records skipped entirely
    /// because the after-image was byte-identical to the last logged one.
    pub wal_dedup_skips: corion_obs::Counter,
    /// `corion_wal_flush_latency_ns`: time spent in the log flush.
    pub wal_flush_latency: corion_obs::Histogram,
    /// `corion_wal_checkpoints_total`: log truncations (manual or
    /// automatic).
    pub wal_checkpoints: corion_obs::Counter,
    /// `corion_wal_checkpoint_latency_ns`: time per checkpoint,
    /// including the write-back of every dirty frame and the device sync.
    pub wal_checkpoint_latency: corion_obs::Histogram,
    /// `corion_buffer_writebacks_checkpoint_total`: dirty frames a
    /// checkpoint wrote back (the eviction share is
    /// `corion_buffer_writebacks_eviction_total`, counted by the pool).
    pub checkpoint_writebacks: corion_obs::Counter,
    /// `corion_buffer_dirty_frames`: dirty frames in the pool when the
    /// last checkpoint began — the write-back work it had to do.
    pub dirty_frames: corion_obs::Gauge,
    /// `corion_storage_commits_total`: atomic batches committed.
    pub commits: corion_obs::Counter,
    /// `corion_storage_aborts_total`: atomic batches rolled back
    /// (explicit aborts and error-path autocommit rollbacks).
    pub aborts: corion_obs::Counter,
    /// `corion_storage_commit_latency_ns`: full `commit_atomic` time —
    /// image snapshot, log append, flush (and an auto-checkpoint when the
    /// commit trips one).
    pub commit_latency: corion_obs::Histogram,
    /// `corion_storage_recoveries_total`: `recover()` runs.
    pub recoveries: corion_obs::Counter,
    /// `corion_storage_recovery_latency_ns`: time per recovery (log scan,
    /// truncate, segment-directory rebuild, replay). The engine's
    /// object-table rebuild that follows is not in it.
    pub recovery_latency: corion_obs::Histogram,
    /// `corion_storage_recovered_pages_total`: committed page images
    /// written back by recovery.
    pub recovered_pages: corion_obs::Counter,
    /// `corion_storage_discarded_records_total`: torn/uncommitted tail
    /// records dropped by recovery.
    pub discarded_records: corion_obs::Counter,
    /// `corion_db_health`: current [`crate::store::HealthState`] as a
    /// gauge — 0 healthy, 1 degraded (read-only), 2 poisoned.
    pub health: corion_obs::Gauge,
    /// `corion_scrub_runs_total`: scrub passes completed.
    pub scrub_runs: corion_obs::Counter,
    /// `corion_scrub_pages_checked_total`: pages whose checksum a scrub
    /// pass verified.
    pub scrub_pages_checked: corion_obs::Counter,
    /// `corion_scrub_pages_salvaged_total`: corrupt pages restored from a
    /// committed WAL after-image.
    pub scrub_pages_salvaged: corion_obs::Counter,
    /// `corion_scrub_pages_reset_total`: corrupt pages with no salvageable
    /// image, reset to empty (their records are lost).
    pub scrub_pages_reset: corion_obs::Counter,
}

impl StoreMetrics {
    /// Intern every storage metric in `registry`.
    pub fn new(registry: &Registry) -> Self {
        StoreMetrics {
            wal_append_records: registry.counter("corion_wal_append_records_total"),
            wal_append_bytes: registry.counter("corion_wal_append_bytes_total"),
            wal_flushes: registry.counter("corion_wal_flushes_total"),
            wal_delta_records: registry.counter("corion_wal_delta_records_total"),
            wal_delta_bytes_saved: registry.counter("corion_wal_delta_bytes_saved_total"),
            wal_dedup_skips: registry.counter("corion_wal_dedup_skips_total"),
            wal_flush_latency: registry.histogram("corion_wal_flush_latency_ns", LATENCY_BOUNDS_NS),
            wal_checkpoints: registry.counter("corion_wal_checkpoints_total"),
            wal_checkpoint_latency: registry
                .histogram("corion_wal_checkpoint_latency_ns", LATENCY_BOUNDS_NS),
            checkpoint_writebacks: registry.counter("corion_buffer_writebacks_checkpoint_total"),
            dirty_frames: registry.gauge("corion_buffer_dirty_frames"),
            commits: registry.counter("corion_storage_commits_total"),
            aborts: registry.counter("corion_storage_aborts_total"),
            commit_latency: registry
                .histogram("corion_storage_commit_latency_ns", LATENCY_BOUNDS_NS),
            recoveries: registry.counter("corion_storage_recoveries_total"),
            recovery_latency: registry
                .histogram("corion_storage_recovery_latency_ns", LATENCY_BOUNDS_NS),
            recovered_pages: registry.counter("corion_storage_recovered_pages_total"),
            discarded_records: registry.counter("corion_storage_discarded_records_total"),
            health: registry.gauge("corion_db_health"),
            scrub_runs: registry.counter("corion_scrub_runs_total"),
            scrub_pages_checked: registry.counter("corion_scrub_pages_checked_total"),
            scrub_pages_salvaged: registry.counter("corion_scrub_pages_salvaged_total"),
            scrub_pages_reset: registry.counter("corion_scrub_pages_reset_total"),
        }
    }
}
