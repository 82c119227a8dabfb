//! Metric handles for the engine layer, interned once per [`crate::Database`].
//!
//! The storage substrate counts its own events ([`corion_storage::StoreMetrics`]);
//! this struct covers the paper-visible operations implemented by
//! `corion-core`: the §3.1 traversals, the §3.2 predicate messages, and
//! the autocommit boundary every mutation runs inside. See
//! `docs/OBSERVABILITY.md` for the full catalog.

use corion_obs::{Registry, LATENCY_BOUNDS_NS};

/// Handles to every engine-layer metric. One instance per
/// [`crate::Database`]; cloning a handle is cheap and all clones share
/// the registry's values.
pub struct CoreMetrics {
    /// `corion_components_of_latency_ns`: time per `components-of`
    /// traversal (§3.1), single or batched.
    pub components_of_latency: corion_obs::Histogram,
    /// `corion_parents_of_latency_ns`: time per `parents-of` traversal
    /// (§3.1).
    pub parents_of_latency: corion_obs::Histogram,
    /// `corion_ancestors_of_latency_ns`: time per `ancestors-of` /
    /// `roots-of` traversal (§3.1).
    pub ancestors_of_latency: corion_obs::Histogram,
    /// `corion_predicate_latency_ns`: time per §3.2 predicate message
    /// (`compositep`, `component-of`, and friends).
    pub predicate_latency: corion_obs::Histogram,
    /// `corion_atomic_latency_ns`: wall time of each outermost
    /// [`crate::Database`] storage batch — a write set being applied, a
    /// repair pass.
    pub atomic_latency: corion_obs::Histogram,
    /// `corion_atomic_commits_total`: outermost storage batches that
    /// committed.
    pub atomic_commits: corion_obs::Counter,
    /// `corion_atomic_aborts_total`: outermost storage batches rolled
    /// back because the body hit a storage error.
    pub atomic_aborts: corion_obs::Counter,
    /// `corion_txn_begins_total`: transactions opened
    /// ([`Database::begin_transaction`] or the [`Database::transaction`]
    /// closure).
    ///
    /// [`Database::begin_transaction`]: crate::Database::begin_transaction
    /// [`Database::transaction`]: crate::Database::transaction
    pub txn_begins: corion_obs::Counter,
    /// `corion_txn_commits_total`: transactions committed (one WAL flush
    /// each, however many operations they grouped).
    pub txn_commits: corion_obs::Counter,
    /// `corion_txn_aborts_total`: transactions rolled back — explicit
    /// aborts, closure errors, and commit-time storage failures.
    pub txn_aborts: corion_obs::Counter,
    /// `corion_txn_ops_total`: logical mutations absorbed into committed
    /// transactions (each would have been its own autocommit batch).
    pub txn_ops: corion_obs::Counter,
    /// `corion_repair_runs_total`: completed [`Database::repair`] passes.
    ///
    /// [`Database::repair`]: crate::Database::repair
    pub repair_runs: corion_obs::Counter,
    /// `corion_repair_edges_dropped_total`: forward composite references
    /// dropped by repair (dangling targets plus Topology Rule conflicts).
    pub repair_edges_dropped: corion_obs::Counter,
    /// `corion_repair_reverse_refs_fixed_total`: objects whose reverse
    /// references repair rewrote to match the forward graph.
    pub repair_reverse_refs_fixed: corion_obs::Counter,
    /// `corion_repair_orphans_deleted_total`: orphaned dependent components
    /// cascade-deleted by repair per the Deletion Rule.
    pub repair_orphans_deleted: corion_obs::Counter,
    /// `corion_core_rebuild_latency_ns`: time per rebuild of the object
    /// table, class extensions and serial counter from the pages — one
    /// per open, `recover`, `scrub` and `restore`, after storage recovery.
    pub rebuild_latency: corion_obs::Histogram,
    /// `corion_core_rebuild_records_total`: records the rebuilds decoded.
    pub rebuild_records: corion_obs::Counter,
    /// `corion_shard_count`: number of object-table stripes this engine
    /// was opened with (constant for the life of the handle).
    pub shard_count: corion_obs::Gauge,
    /// `corion_shard_occupancy_<i>`: live objects in stripe `i`,
    /// refreshed on every metrics snapshot from the stripe table
    /// lengths.
    pub shard_occupancy: Vec<corion_obs::Gauge>,
}

impl CoreMetrics {
    /// Intern every engine metric in `registry`, with per-stripe
    /// occupancy gauges for `shards` stripes.
    pub fn new(registry: &Registry, shards: usize) -> Self {
        CoreMetrics {
            components_of_latency: registry
                .histogram("corion_components_of_latency_ns", LATENCY_BOUNDS_NS),
            parents_of_latency: registry
                .histogram("corion_parents_of_latency_ns", LATENCY_BOUNDS_NS),
            ancestors_of_latency: registry
                .histogram("corion_ancestors_of_latency_ns", LATENCY_BOUNDS_NS),
            predicate_latency: registry.histogram("corion_predicate_latency_ns", LATENCY_BOUNDS_NS),
            atomic_latency: registry.histogram("corion_atomic_latency_ns", LATENCY_BOUNDS_NS),
            atomic_commits: registry.counter("corion_atomic_commits_total"),
            atomic_aborts: registry.counter("corion_atomic_aborts_total"),
            txn_begins: registry.counter("corion_txn_begins_total"),
            txn_commits: registry.counter("corion_txn_commits_total"),
            txn_aborts: registry.counter("corion_txn_aborts_total"),
            txn_ops: registry.counter("corion_txn_ops_total"),
            repair_runs: registry.counter("corion_repair_runs_total"),
            repair_edges_dropped: registry.counter("corion_repair_edges_dropped_total"),
            repair_reverse_refs_fixed: registry.counter("corion_repair_reverse_refs_fixed_total"),
            repair_orphans_deleted: registry.counter("corion_repair_orphans_deleted_total"),
            rebuild_latency: registry
                .histogram("corion_core_rebuild_latency_ns", LATENCY_BOUNDS_NS),
            rebuild_records: registry.counter("corion_core_rebuild_records_total"),
            shard_count: registry.gauge("corion_shard_count"),
            shard_occupancy: (0..shards)
                .map(|i| registry.gauge(&format!("corion_shard_occupancy_{i}")))
                .collect(),
        }
    }
}
