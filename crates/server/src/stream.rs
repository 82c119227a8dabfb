//! Change streams fed by the commit.
//!
//! `corion-core` captures, at the seam every object write passes, what
//! each storage batch did to which objects, and releases it as a
//! [`ChangeSet`] at the store's durability point (`corion_core::capture`).
//! `corion-concurrent` hands each released set to the one registered
//! [`ChangeSink`] when the exclusive latch that committed it is released.
//! [`ChangeStreams`] is that sink: it maps the set to wire [`Delta`]s —
//! object made / changed / deleted, composite edge added / removed, the
//! edges read off the §2.4 reverse composite references stored in the
//! written object — and offers the event to every subscriber's queue.
//!
//! What follows from delivering under the committing latch:
//!
//! * **Order is commit order.** Latch order is commit order is WAL-LSN
//!   order, so events carry strictly increasing commit LSNs with no
//!   sequencer, cursor or dedup watermark, and a checkpoint (which
//!   rewrites the log) cannot open a gap: nothing here reads the log.
//! * **Durable only.** Nothing is released for a commit that answered
//!   `Err`: an aborted batch, or a torn flush.
//! * **Visible on receipt.** The commit's versions are published before
//!   the latch drops, so a read begun on receipt of an event sees it.
//! * **Nobody listening, nothing done.** [`ChangeStreams::subscribe`]
//!   raises the engine's capture flag under the shared latch and the last
//!   detach lowers it; with no subscriber a commit pays one atomic load.
//!
//! Each subscriber owns a **bounded** queue. A committer only ever
//! `try_send`s: a queue that overflows marks its subscriber lagged and
//! drops it, and the session ends with the typed `SlowConsumer` error.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use corion_concurrent::{ChangeSink, ConcurrentDb};
use corion_core::{Change, ChangeSet, Database, Object, Oid};
use corion_protocol::Delta;
use corion_storage::Lsn;
use parking_lot::Mutex;

use crate::metrics::ServerMetrics;

/// One change-stream event.
#[derive(Debug, Clone)]
pub struct StreamEvent {
    /// WAL commit LSN of the transaction.
    pub commit_lsn: Lsn,
    /// What it changed.
    pub deltas: Vec<Delta>,
}

/// A live subscription handed to a session: the receiving end of the
/// bounded queue plus the lag flag a committer sets on overflow. Dropping
/// it detaches the subscriber.
pub struct Subscription {
    /// Events, in commit-LSN order.
    pub events: Receiver<StreamEvent>,
    /// Set (before the sender is dropped) when the queue overflowed.
    pub lagged: Arc<AtomicBool>,
    /// The engine's last durable commit LSN at attach: the stream holds
    /// every commit above it, and nothing at or below it.
    pub start_lsn: Lsn,
    id: u64,
    streams: Arc<ChangeStreams>,
    db: ConcurrentDb,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Under the shared latch, like the attach: the capture flag never
        // moves while a batch is running.
        self.db.with_read(|d| self.streams.detach(d, self.id));
    }
}

struct Subscriber {
    id: u64,
    tx: SyncSender<StreamEvent>,
    lagged: Arc<AtomicBool>,
}

/// The subscriber registry, and the engine's [`ChangeSink`].
pub struct ChangeStreams {
    subs: Mutex<Vec<Subscriber>>,
    queue_depth: usize,
    next_id: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

impl ChangeStreams {
    /// Creates the registry; `queue_depth` bounds every subscriber queue.
    /// Register it with [`ConcurrentDb::set_change_sink`].
    pub fn new(queue_depth: usize, metrics: Arc<ServerMetrics>) -> Arc<Self> {
        Arc::new(ChangeStreams {
            subs: Mutex::new(Vec::new()),
            queue_depth,
            next_id: AtomicU64::new(0),
            metrics,
        })
    }

    /// Attaches a new subscriber under the engine's shared latch: no batch
    /// is running, so none is half captured, and `start_lsn` is exact.
    pub fn subscribe(self: &Arc<Self>, db: &ConcurrentDb) -> Subscription {
        let (tx, events) = std::sync::mpsc::sync_channel(self.queue_depth);
        let lagged = Arc::new(AtomicBool::new(false));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_lsn = db.with_read(|d| {
            self.subs.lock().push(Subscriber {
                id,
                tx,
                lagged: Arc::clone(&lagged),
            });
            self.metrics.streams_active.add(1);
            d.set_change_capture(true);
            d.durable_commit_lsn()
        });
        Subscription {
            events,
            lagged,
            start_lsn,
            id,
            streams: Arc::clone(self),
            db: db.clone(),
        }
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().len()
    }

    fn detach(&self, db: &Database, id: u64) {
        let mut subs = self.subs.lock();
        // Already gone if a committer cut it loose for lagging.
        if let Some(at) = subs.iter().position(|s| s.id == id) {
            subs.swap_remove(at);
            self.metrics.streams_active.add(-1);
        }
        if subs.is_empty() {
            db.set_change_capture(false);
        }
    }
}

impl ChangeSink for ChangeStreams {
    fn deliver(&self, db: &Database, set: ChangeSet) {
        let started = Instant::now();
        self.metrics.stream_batches.inc();
        let event = StreamEvent {
            commit_lsn: set.commit_lsn,
            deltas: deltas_of(&set.changes),
        };
        let mut subs = self.subs.lock();
        subs.retain(|sub| match sub.tx.try_send(event.clone()) {
            Ok(()) => {
                self.metrics.stream_events.inc();
                true
            }
            Err(TrySendError::Full(_)) => {
                // Never block the committer, never grow the queue: the
                // slow consumer is cut loose (typed SlowConsumer).
                sub.lagged.store(true, Ordering::SeqCst);
                self.metrics.stream_lagged.inc();
                self.metrics.streams_active.add(-1);
                false
            }
            // The receiver lives in a `Subscription`, whose drop detaches
            // under the shared latch — never while a set is delivered.
            Err(TrySendError::Disconnected(_)) => true,
        });
        if subs.is_empty() {
            db.set_change_capture(false);
        }
        self.metrics
            .stream_emit
            .record(set.capture_ns + started.elapsed().as_nanos() as u64);
    }
}

/// Maps a released change set to wire deltas, in [`diff_objects`]' order.
pub fn deltas_of(changes: &[Change]) -> Vec<Delta> {
    fn edges(parents: &[Oid], child: Oid, added: bool) -> impl Iterator<Item = Delta> + '_ {
        parents.iter().map(move |&parent| match added {
            true => Delta::EdgeAdded { parent, child },
            false => Delta::EdgeRemoved { parent, child },
        })
    }
    let mut deltas = Vec::new();
    for change in changes {
        match change {
            Change::Made { oid, parents } => {
                deltas.push(Delta::Made(*oid));
                deltas.extend(edges(parents, *oid, true));
            }
            Change::Changed {
                oid,
                parents_added,
                parents_removed,
            } => {
                deltas.push(Delta::Changed(*oid));
                deltas.extend(edges(parents_added, *oid, true));
                deltas.extend(edges(parents_removed, *oid, false));
            }
            Change::Deleted { oid, parents } => {
                deltas.push(Delta::Deleted(*oid));
                deltas.extend(edges(parents, *oid, false));
            }
        }
    }
    deltas
}

/// Diffs two OID-keyed object maps into wire deltas — the definition of
/// what an event holds, kept as the reference the capture path is tested
/// against (`tests/change_streams.rs` compares every released change set
/// with the diff of *all* objects before and after it).
pub fn diff_objects(before: &BTreeMap<Oid, Object>, after: &BTreeMap<Oid, Object>) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (oid, obj) in after {
        match before.get(oid) {
            None => {
                deltas.push(Delta::Made(*oid));
                for parent in obj.composite_parents() {
                    deltas.push(Delta::EdgeAdded {
                        parent,
                        child: *oid,
                    });
                }
            }
            Some(prev) if prev != obj => {
                deltas.push(Delta::Changed(*oid));
                let old_parents = prev.composite_parents();
                let new_parents = obj.composite_parents();
                for parent in &new_parents {
                    if !old_parents.contains(parent) {
                        deltas.push(Delta::EdgeAdded {
                            parent: *parent,
                            child: *oid,
                        });
                    }
                }
                for parent in &old_parents {
                    if !new_parents.contains(parent) {
                        deltas.push(Delta::EdgeRemoved {
                            parent: *parent,
                            child: *oid,
                        });
                    }
                }
            }
            Some(_) => {}
        }
    }
    for (oid, prev) in before {
        if !after.contains_key(oid) {
            deltas.push(Delta::Deleted(*oid));
            for parent in prev.composite_parents() {
                deltas.push(Delta::EdgeRemoved {
                    parent,
                    child: *oid,
                });
            }
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use corion_core::{ClassBuilder, ClassId, Domain, ReverseRef, Value};
    use corion_obs::Registry;

    fn streams(depth: usize) -> (Arc<ChangeStreams>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new(&Registry::new()));
        (ChangeStreams::new(depth, Arc::clone(&metrics)), metrics)
    }

    /// An engine with one class, its change stream wired to `streams`.
    fn engine(streams: &Arc<ChangeStreams>) -> (ConcurrentDb, ClassId) {
        let db = ConcurrentDb::new();
        let class = db
            .with_exclusive(|d| d.define_class(ClassBuilder::new("C").attr("n", Domain::Integer)))
            .unwrap();
        db.set_change_sink(Arc::clone(streams) as Arc<dyn ChangeSink>);
        (db, class)
    }

    fn commit(db: &ConcurrentDb, class: ClassId, n: i64) -> Oid {
        db.run_write(|t| t.make(class, vec![("n", Value::Int(n))], vec![]))
            .unwrap()
    }

    #[test]
    fn subscribers_see_only_commits_after_their_watermark() {
        let (streams, _) = streams(16);
        let (db, class) = engine(&streams);
        commit(&db, class, 1); // nobody subscribed: no event, the LSN moves
        let sub = streams.subscribe(&db);
        assert_eq!(sub.start_lsn, db.with_read(|d| d.durable_commit_lsn()));
        assert!(sub.start_lsn > 0);
        let made = [commit(&db, class, 2), commit(&db, class, 3)];
        let events: Vec<StreamEvent> = sub.events.try_iter().collect();
        assert_eq!(events.len(), 2);
        assert!(sub.start_lsn < events[0].commit_lsn);
        assert!(events[0].commit_lsn < events[1].commit_lsn);
        for (event, oid) in events.iter().zip(made) {
            assert_eq!(event.deltas, vec![Delta::Made(oid)]);
        }
    }

    #[test]
    fn overflowing_subscriber_is_cut_loose_with_lag_flag() {
        let (streams, metrics) = streams(2);
        let (db, class) = engine(&streams);
        let sub = streams.subscribe(&db);
        assert_eq!(streams.subscriber_count(), 1);
        // Three commits into a depth-2 queue: the third overflows and the
        // subscriber is dropped rather than blocking the committer.
        for n in 0..3 {
            commit(&db, class, n);
        }
        assert_eq!(streams.subscriber_count(), 0);
        assert!(sub.lagged.load(Ordering::SeqCst));
        assert_eq!(metrics.streams_active.get(), 0);
        // The two buffered events still drain, then the channel reports
        // the disconnect the session turns into SlowConsumer.
        assert!(sub.events.recv().is_ok());
        assert!(sub.events.recv().is_ok());
        assert!(sub.events.recv().is_err());
        // Cutting the last subscriber lowered the capture flag: the next
        // commit releases nothing, and dropping the handle changes nothing.
        commit(&db, class, 9);
        drop(sub);
        assert_eq!(metrics.stream_batches.get(), 3);
        assert_eq!(metrics.streams_active.get(), 0);
    }

    /// Regression (fails at the parent, where a departed sender stayed in
    /// the list until the next broadcast and the gauge was `set` from a
    /// racing count at attach only).
    #[test]
    fn attach_and_detach_move_the_gauge_with_no_commit_in_between() {
        let (streams, metrics) = streams(4);
        let (db, class) = engine(&streams);
        let a = streams.subscribe(&db);
        assert_eq!(metrics.streams_active.get(), 1);
        let b = streams.subscribe(&db);
        assert_eq!(metrics.streams_active.get(), 2);
        drop(a);
        assert_eq!(
            (streams.subscriber_count(), metrics.streams_active.get()),
            (1, 1)
        );
        commit(&db, class, 1);
        assert_eq!(b.events.try_iter().count(), 1, "b is still attached");
        drop(b);
        assert_eq!(
            (streams.subscriber_count(), metrics.streams_active.get()),
            (0, 0)
        );
        commit(&db, class, 2);
        assert_eq!(metrics.stream_batches.get(), 1, "nobody left: no capture");
    }

    fn obj(oid: Oid, n: i64, parents: &[Oid]) -> Object {
        let mut o = Object::new(oid, vec![Value::Int(n)], 0);
        for &p in parents {
            o.reverse_refs.push(ReverseRef::new(p, true, false));
        }
        o
    }

    #[test]
    fn diff_reports_makes_changes_deletes_and_edges() {
        let parent = Oid::new(ClassId(1), 1);
        let kept = Oid::new(ClassId(2), 2);
        let gone = Oid::new(ClassId(2), 3);
        let new = Oid::new(ClassId(2), 4);
        let before: BTreeMap<Oid, Object> =
            [(kept, obj(kept, 1, &[])), (gone, obj(gone, 1, &[parent]))]
                .into_iter()
                .collect();
        let after: BTreeMap<Oid, Object> = [
            // kept: value changed AND adopted by parent.
            (kept, obj(kept, 2, &[parent])),
            (new, obj(new, 1, &[parent])),
        ]
        .into_iter()
        .collect();
        let deltas = diff_objects(&before, &after);
        assert!(deltas.contains(&Delta::Changed(kept)));
        assert!(deltas.contains(&Delta::EdgeAdded {
            parent,
            child: kept
        }));
        assert!(deltas.contains(&Delta::Made(new)));
        assert!(deltas.contains(&Delta::EdgeAdded { parent, child: new }));
        assert!(deltas.contains(&Delta::Deleted(gone)));
        assert!(deltas.contains(&Delta::EdgeRemoved {
            parent,
            child: gone
        }));
        assert_eq!(deltas.len(), 6);
        // The same three changes, as the capture path states them.
        let changes = [
            Change::Changed {
                oid: kept,
                parents_added: vec![parent],
                parents_removed: vec![],
            },
            Change::Made {
                oid: new,
                parents: vec![parent],
            },
            Change::Deleted {
                oid: gone,
                parents: vec![parent],
            },
        ];
        assert_eq!(deltas_of(&changes), deltas);
    }

    #[test]
    fn unchanged_objects_produce_no_deltas() {
        let oid = Oid::new(ClassId(1), 1);
        let maps: BTreeMap<Oid, Object> = [(oid, obj(oid, 1, &[]))].into_iter().collect();
        assert!(diff_objects(&maps, &maps.clone()).is_empty());
    }
}
