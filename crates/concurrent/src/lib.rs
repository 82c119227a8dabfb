//! # corion-concurrent
//!
//! Concurrent transactions for the CORION engine: the paper's §7
//! composite lock protocol on the write path, MVCC snapshots on the read
//! path, and commit-LSN ordering in between.
//!
//! The single-threaded engine (`corion-core`) mutates through
//! `&mut Database`, so one writer stalls every reader. This crate wraps
//! the engine in [`ConcurrentDb`], which is cheaply cloneable and fully
//! thread-safe:
//!
//! * [`ConcurrentDb::begin_read`] pins a [`Snapshot`] at the current
//!   commit LSN. Snapshot reads take **no lock-manager locks** and never
//!   block on writers: they resolve against the storage layer's
//!   copy-on-write version chains
//!   ([`corion_storage::VersionStore`]) and fall back to the base store
//!   only for objects no concurrent transaction has touched.
//! * [`ConcurrentDb::begin_write`] opens a [`WriteTxn`]. Every operation
//!   first acquires the §7 composite lock set for the objects it
//!   touches — intention modes down the granularity hierarchy
//!   (class → instance), root-locking for composite subtree mutations
//!   (IX on the root class, X on the root instance, IXO/IXOS on the
//!   component classes) — through `corion-lock`'s blocking manager with
//!   waits-for-graph deadlock detection. A deadlock victim surfaces as
//!   the typed, retryable [`corion_core::DbError::Deadlock`].
//! * Writes are buffered in a transaction-private
//!   [`corion_core::Overlay`]; the shared page store and the WAL are
//!   untouched until commit, which replays the overlay as **one** atomic
//!   WAL batch under the engine's exclusive latch, publishes after-images
//!   to the version store at the WAL LSN of the batch's commit marker —
//!   the commit LSN, one number for snapshots, the wire and the change
//!   stream — and only then releases locks (strict two-phase locking).
//!
//! * Every exclusive acquisition of the engine latch — commit, DDL and
//!   maintenance through [`ConcurrentDb::with_exclusive`], recovery,
//!   vacuum — goes through one guard, and that guard's release hands the
//!   change sets the engine made durable meanwhile to the registered
//!   [`ChangeSink`], in commit order, with the commit already visible
//!   (`DESIGN.md` §15). Nothing is captured until a sink asks for it.
//!
//! Two writers on disjoint composite objects of the same class hierarchy
//! hold compatible lock sets (IX+IX, X on different roots, IXO+IXO) and
//! proceed concurrently; their base applies serialise only for the short
//! page-store critical section. See `DESIGN.md` §14 and
//! `docs/CONCURRENCY.md` for the full protocol and the linearizability
//! harness that proves it.
//!
//! ```
//! use corion_concurrent::ConcurrentDb;
//! use corion_core::{ClassBuilder, Domain, Value};
//!
//! let cdb = ConcurrentDb::new();
//! let widget = cdb
//!     .with_exclusive(|db| db.define_class(ClassBuilder::new("Widget").attr("n", Domain::Integer)))
//!     .unwrap();
//! let oid = cdb
//!     .run_write(|txn| txn.make(widget, vec![("n", Value::Int(1))], vec![]))
//!     .unwrap();
//! let snap = cdb.begin_read();
//! cdb.run_write(|txn| txn.set_attr(oid, "n", Value::Int(2))).unwrap();
//! // The pinned snapshot still sees the old version; a new one sees the new.
//! assert_eq!(snap.get_attr(oid, "n").unwrap(), Value::Int(1));
//! assert_eq!(cdb.begin_read().get_attr(oid, "n").unwrap(), Value::Int(2));
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod plan;
pub mod snapshot;
pub mod txn;

pub use db::{ChangeSink, ConcurrentDb};
pub use snapshot::Snapshot;
pub use txn::WriteTxn;

/// The version-store key of an object.
fn vkey(oid: corion_core::Oid) -> corion_storage::VersionKey {
    corion_storage::VersionKey {
        class: oid.class.0,
        serial: oid.serial,
    }
}
