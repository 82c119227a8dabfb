//! Multi-version object images for snapshot reads — the MVCC side of the
//! concurrent engine.
//!
//! The paper's §7 protocol serialises *writers* with composite-granule
//! locks; readers are kept off the lock manager entirely by giving each
//! read transaction a *snapshot*: a commit LSN `S` such that the reader
//! observes exactly the effects of every transaction that committed with
//! LSN ≤ `S` and nothing else. This module is the substrate for that
//! guarantee: a concurrent map from logical object keys to *version
//! chains* of encoded after-images keyed by commit LSN.
//!
//! # Protocol (enforced by the engine above, `corion-concurrent`)
//!
//! * Under the engine latch that covers its base apply, a committing
//!   transaction [`seed`](VersionStore::seed)s at LSN 0 the *pre-image* —
//!   the stored record its apply displaced — of every object it overwrote
//!   (idempotent — only the first writer of an object pays). From then on
//!   the chain, not the base, is the source of truth for old snapshots.
//! * In the same latch, the base apply having made the commit durable,
//!   the transaction [`publish`](VersionStore::publish)es the records it
//!   wrote (or tombstones) at its commit LSN — the WAL LSN of its commit
//!   marker — then [`advance`](VersionStore::advance)s the visible
//!   watermark to it, so the watermark means "durable and published up to
//!   here". New snapshots pin the watermark.
//! * [`resolve`](VersionStore::resolve) walks a chain for the newest entry
//!   at or below the snapshot LSN. Three-way answer: a concrete image, a
//!   tombstone ("deleted as of your snapshot"), or *unborn* (the chain
//!   exists but every entry is newer than the snapshot — the object was
//!   created after the snapshot was taken). Only a missing chain falls
//!   through to the base store.
//! * [`vacuum`](VersionStore::vacuum) garbage-collects entries that no
//!   live snapshot can reach: within a chain, an entry is dead if a newer
//!   entry is still at or below the oldest pinned LSN; a whole chain is
//!   dead once its newest entry is at or below that watermark (the base
//!   store then answers for every live snapshot). The engine calls it
//!   while commits are excluded, so "newest chain entry ≤ watermark ⇒
//!   base agrees" holds.
//!
//! Keys are `(class, serial)` pairs rather than `corion-core` OIDs so the
//! storage crate stays below the object layer in the dependency order.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;

use crate::wal::Lsn;

/// Number of shards the chain map is split across. Writers publish under
/// one shard lock at a time; readers resolving different objects rarely
/// contend.
const SHARDS: usize = 16;

/// Logical identity of a versioned object: its class id and serial
/// number. Mirrors `corion-core`'s `Oid` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionKey {
    /// Class id component of the OID.
    pub class: u32,
    /// Serial component of the OID.
    pub serial: u64,
}

/// Outcome of resolving a key against a snapshot LSN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// No chain for this key — the base store is authoritative for every
    /// snapshot.
    Base,
    /// The newest chain entry at or below the snapshot is this encoded
    /// object image.
    Image(Arc<Vec<u8>>),
    /// The newest chain entry at or below the snapshot is a tombstone:
    /// the object was deleted before the snapshot was taken.
    Deleted,
    /// The chain exists but every entry is newer than the snapshot: the
    /// object was created after the snapshot was taken and must not be
    /// visible, even though the base store now has it.
    Unborn,
}

/// One chain entry: the commit LSN and the encoded after-image (`None`
/// is a tombstone). Chains are kept sorted by ascending LSN.
type Chain = Vec<(Lsn, Option<Arc<Vec<u8>>>)>;

/// A snapshot's pin: the LSN it pinned and the generation it was taken
/// in. [`VersionStore::reset`] starts a new generation, so a pin from
/// before it is fenced: [`VersionStore::unpin`] ignores it, and it can
/// never release a newer snapshot's pin at the same LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPin {
    /// The pinned snapshot LSN.
    pub lsn: Lsn,
    /// The reset generation the pin was taken in.
    pub generation: u64,
}

/// Metric handles for the version store (`corion_mvcc_*`). See
/// `docs/OBSERVABILITY.md` for the catalog.
struct MvccMetrics {
    published: Counter,
    seeded: Counter,
    vacuumed: Counter,
    chains: Gauge,
    pins: Gauge,
    snapshots: Counter,
    visible: Gauge,
}

impl MvccMetrics {
    fn new(registry: &Registry) -> Self {
        MvccMetrics {
            published: registry.counter("corion_mvcc_versions_published_total"),
            seeded: registry.counter("corion_mvcc_preimages_seeded_total"),
            vacuumed: registry.counter("corion_mvcc_versions_vacuumed_total"),
            chains: registry.gauge("corion_mvcc_version_chains"),
            pins: registry.gauge("corion_mvcc_pinned_snapshots"),
            snapshots: registry.counter("corion_mvcc_snapshots_total"),
            visible: registry.gauge("corion_mvcc_visible_lsn"),
        }
    }
}

/// Copy-on-write version chains keyed by commit LSN, plus the snapshot
/// pin registry and the visible-LSN watermark. All methods take `&self`;
/// the store is safe to share across threads behind an `Arc`.
pub struct VersionStore {
    shards: Vec<Mutex<HashMap<VersionKey, Chain>>>,
    /// Highest commit LSN whose effects are durable and fully published.
    /// New snapshots read this.
    visible: AtomicU64,
    /// Live snapshot pins: LSN → pin count.
    pins: Mutex<BTreeMap<Lsn, usize>>,
    /// Bumped by every [`reset`](VersionStore::reset), under the `pins`
    /// mutex, which [`pin`](VersionStore::pin) reads it under too.
    generation: AtomicU64,
    metrics: MvccMetrics,
}

impl VersionStore {
    /// Create an empty store whose watermark starts at `visible` (the
    /// store's last durable commit LSN), registering its `corion_mvcc_*`
    /// metrics in `registry`.
    pub fn with_registry(registry: &Registry, visible: Lsn) -> Self {
        let store = VersionStore {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            visible: AtomicU64::new(visible),
            pins: Mutex::new(BTreeMap::new()),
            generation: AtomicU64::new(0),
            metrics: MvccMetrics::new(registry),
        };
        store.metrics.visible.set(visible as i64);
        store
    }

    /// Create an empty store at watermark 0 with a private registry.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new(), 0)
    }

    fn shard(&self, key: &VersionKey) -> &Mutex<HashMap<VersionKey, Chain>> {
        let h = (key.class as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.serial);
        &self.shards[(h % SHARDS as u64) as usize]
    }

    // ----------------------------------------------------------------
    // Visibility
    // ----------------------------------------------------------------

    /// The highest durable and fully published commit LSN.
    pub fn visible_lsn(&self) -> Lsn {
        self.visible.load(Ordering::SeqCst)
    }

    /// Advance the visible watermark to `lsn` (monotonic; lower values
    /// are ignored).
    pub fn advance(&self, lsn: Lsn) {
        self.visible.fetch_max(lsn, Ordering::SeqCst);
        self.metrics.visible.set(self.visible_lsn() as i64);
    }

    // ----------------------------------------------------------------
    // Snapshot pins
    // ----------------------------------------------------------------

    /// Pin the current visible LSN for a new snapshot. Pair with exactly
    /// one [`unpin`](VersionStore::unpin).
    pub fn pin(&self) -> SnapshotPin {
        // Take the pin lock *before* reading the watermark so a vacuum
        // racing with us cannot compute an oldest-pin above our LSN, and
        // so a reset cannot fall between the LSN and the generation.
        let mut pins = self.pins.lock();
        let lsn = self.visible_lsn();
        *pins.entry(lsn).or_insert(0) += 1;
        self.metrics.snapshots.inc();
        self.metrics.pins.set(pins.values().sum::<usize>() as i64);
        SnapshotPin {
            lsn,
            generation: self.generation(),
        }
    }

    /// Release a pin taken with [`pin`](VersionStore::pin). A pin from
    /// before the last [`reset`](VersionStore::reset) was already dropped
    /// with its generation; releasing it does nothing.
    pub fn unpin(&self, pin: SnapshotPin) {
        let mut pins = self.pins.lock();
        if pin.generation != self.generation() {
            return;
        }
        if let Some(n) = pins.get_mut(&pin.lsn) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&pin.lsn);
            }
        }
        self.metrics.pins.set(pins.values().sum::<usize>() as i64);
    }

    /// The current reset generation: a [`SnapshotPin`] of another one is
    /// fenced.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The oldest pinned snapshot LSN, or the visible watermark when no
    /// snapshot is live (everything at or below it is reclaimable).
    pub fn oldest_pin(&self) -> Lsn {
        let pins = self.pins.lock();
        pins.keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.visible_lsn())
    }

    /// Number of live snapshot pins.
    pub fn pinned_snapshots(&self) -> usize {
        self.pins.lock().values().sum()
    }

    // ----------------------------------------------------------------
    // Chains
    // ----------------------------------------------------------------

    /// Record the pre-image of an object about to be overwritten for the
    /// first time, at LSN 0. Idempotent: if the chain already exists the
    /// call is a no-op (the chain, not the base, is already the source
    /// of truth for old snapshots).
    pub fn seed(&self, key: VersionKey, image: Vec<u8>) {
        let mut shard = self.shard(&key).lock();
        if shard.contains_key(&key) {
            return;
        }
        shard.insert(key, vec![(0, Some(Arc::new(image)))]);
        self.metrics.seeded.inc();
        drop(shard);
        self.update_chain_gauge();
    }

    /// Publish an after-image (`Some`) or tombstone (`None`) at `lsn`.
    /// `lsn` must be greater than every LSN already in the chain — the
    /// engine guarantees this by publishing under the commit latch, where
    /// the log numbers commits in order.
    pub fn publish(&self, key: VersionKey, lsn: Lsn, image: Option<Vec<u8>>) {
        let mut shard = self.shard(&key).lock();
        let chain = shard.entry(key).or_default();
        debug_assert!(chain.last().map(|(l, _)| *l < lsn).unwrap_or(true));
        chain.push((lsn, image.map(Arc::new)));
        self.metrics.published.inc();
        drop(shard);
        self.update_chain_gauge();
    }

    /// Resolve `key` against snapshot LSN `at`. See [`Resolution`].
    pub fn resolve(&self, key: VersionKey, at: Lsn) -> Resolution {
        let shard = self.shard(&key).lock();
        let Some(chain) = shard.get(&key) else {
            return Resolution::Base;
        };
        // Newest entry with lsn <= at.
        match chain.iter().rev().find(|(l, _)| *l <= at) {
            Some((_, Some(img))) => Resolution::Image(Arc::clone(img)),
            Some((_, None)) => Resolution::Deleted,
            None => Resolution::Unborn,
        }
    }

    /// Keys of every chain whose class component is `class` together with
    /// the chain's resolution at `at`. Used by snapshot `instances_of` to
    /// merge versioned objects into the base extension.
    pub fn resolve_class(&self, class: u32, at: Lsn) -> Vec<(VersionKey, Resolution)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, chain) in shard.iter() {
                if key.class != class {
                    continue;
                }
                let res = match chain.iter().rev().find(|(l, _)| *l <= at) {
                    Some((_, Some(img))) => Resolution::Image(Arc::clone(img)),
                    Some((_, None)) => Resolution::Deleted,
                    None => Resolution::Unborn,
                };
                out.push((*key, res));
            }
        }
        out
    }

    /// Drop every version no live snapshot can reach and return the
    /// number of entries reclaimed. Must be called while commits are
    /// excluded (the engine holds its commit latch), so that "newest
    /// chain entry at or below the watermark" implies the base store
    /// already agrees with that entry.
    pub fn vacuum(&self) -> u64 {
        let watermark = self.oldest_pin();
        let mut reclaimed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.retain(|_, chain| {
                // A whole chain is dead once its newest entry is at or
                // below the watermark: the base answers for every live
                // and future snapshot.
                if chain.last().map(|(l, _)| *l <= watermark).unwrap_or(true) {
                    reclaimed += chain.len() as u64;
                    return false;
                }
                // Within a surviving chain, drop entries superseded by a
                // newer entry that is still at or below the watermark.
                let keep_from = chain
                    .iter()
                    .rposition(|(l, _)| *l <= watermark)
                    .unwrap_or(0);
                reclaimed += keep_from as u64;
                chain.drain(..keep_from);
                true
            });
        }
        self.metrics.vacuumed.add(reclaimed);
        self.update_chain_gauge();
        reclaimed
    }

    /// Drop every chain and pin, start a new pin generation and set the
    /// watermark to `visible`, which may lower it. Called on engine
    /// recovery with the recovered log's last durable commit LSN: the
    /// engine fences every older snapshot by its pin's generation, so none
    /// can observe a lowered watermark or release a newer snapshot's pin.
    pub fn reset(&self, visible: Lsn) {
        for shard in &self.shards {
            shard.lock().clear();
        }
        let mut pins = self.pins.lock();
        pins.clear();
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.metrics.pins.set(0);
        self.visible.store(visible, Ordering::SeqCst);
        drop(pins);
        self.metrics.visible.set(visible as i64);
        self.update_chain_gauge();
    }

    /// Number of live version chains.
    pub fn chain_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Total number of version entries across all chains.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    fn update_chain_gauge(&self) {
        self.metrics.chains.set(self.chain_count() as i64);
    }
}

impl Default for VersionStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(serial: u64) -> VersionKey {
        VersionKey { class: 1, serial }
    }

    #[test]
    fn resolve_walks_the_chain_by_snapshot_lsn() {
        let vs = VersionStore::new();
        assert_eq!(vs.resolve(key(1), 10), Resolution::Base);

        vs.seed(key(1), b"v0".to_vec());
        let (l1, l2) = (3, 5);
        vs.publish(key(1), l1, Some(b"v1".to_vec()));
        vs.advance(l1);
        vs.publish(key(1), l2, None);
        vs.advance(l2);

        match vs.resolve(key(1), 0) {
            Resolution::Image(img) => assert_eq!(&**img, b"v0"),
            other => panic!("expected seeded pre-image, got {other:?}"),
        }
        match vs.resolve(key(1), l1) {
            Resolution::Image(img) => assert_eq!(&**img, b"v1"),
            other => panic!("expected v1, got {other:?}"),
        }
        assert_eq!(vs.resolve(key(1), l2), Resolution::Deleted);
    }

    #[test]
    fn created_after_snapshot_is_unborn_not_base() {
        let vs = VersionStore::new();
        let snap = vs.pin();
        let l = 4;
        vs.publish(key(7), l, Some(b"new".to_vec()));
        vs.advance(l);
        // The old snapshot must not fall through to the base (which now
        // holds the object).
        assert_eq!(vs.resolve(key(7), snap.lsn), Resolution::Unborn);
        // A fresh snapshot sees it.
        let now = vs.pin();
        assert!(matches!(vs.resolve(key(7), now.lsn), Resolution::Image(_)));
        vs.unpin(snap);
        vs.unpin(now);
    }

    #[test]
    fn seed_is_idempotent() {
        let vs = VersionStore::new();
        vs.seed(key(3), b"first".to_vec());
        vs.seed(key(3), b"second".to_vec());
        match vs.resolve(key(3), 0) {
            Resolution::Image(img) => assert_eq!(&**img, b"first"),
            other => panic!("expected first seed to win, got {other:?}"),
        }
    }

    #[test]
    fn vacuum_respects_the_oldest_pin() {
        let vs = VersionStore::new();
        vs.seed(key(1), b"v0".to_vec());
        let (l1, l2) = (3, 5);
        vs.publish(key(1), l1, Some(b"v1".to_vec()));
        vs.advance(l1);

        let snap = vs.pin(); // pins l1
        vs.publish(key(1), l2, Some(b"v2".to_vec()));
        vs.advance(l2);

        // Pin at l1 keeps the l1 entry (it is the newest <= watermark)
        // but the seeded v0 below it is reclaimable.
        let reclaimed = vs.vacuum();
        assert_eq!(reclaimed, 1);
        match vs.resolve(key(1), snap.lsn) {
            Resolution::Image(img) => assert_eq!(&**img, b"v1"),
            other => panic!("pinned snapshot lost its version: {other:?}"),
        }

        // Releasing the pin lets the whole chain go.
        vs.unpin(snap);
        let reclaimed = vs.vacuum();
        assert_eq!(reclaimed, 2);
        assert_eq!(vs.chain_count(), 0);
        assert_eq!(vs.resolve(key(1), vs.visible_lsn()), Resolution::Base);
    }

    #[test]
    fn pins_nest_and_count() {
        let vs = VersionStore::new();
        let a = vs.pin();
        let b = vs.pin();
        assert_eq!(vs.pinned_snapshots(), 2);
        vs.unpin(a);
        assert_eq!(vs.pinned_snapshots(), 1);
        vs.unpin(b);
        assert_eq!(vs.pinned_snapshots(), 0);
        assert_eq!(vs.oldest_pin(), vs.visible_lsn());
    }

    #[test]
    fn reset_drops_chains_and_pins_and_sets_the_watermark() {
        let vs = VersionStore::with_registry(&Registry::new(), 7);
        assert_eq!(vs.visible_lsn(), 7);
        vs.publish(key(1), 9, Some(b"x".to_vec()));
        vs.advance(9);
        let _stale = vs.pin();
        // Recovery kept less of the log than was published: the reset
        // lowers the watermark, and the next commit publishes above it.
        vs.reset(8);
        assert_eq!(vs.chain_count(), 0);
        assert_eq!(vs.pinned_snapshots(), 0);
        assert_eq!(vs.visible_lsn(), 8);
        vs.publish(key(1), 9, Some(b"y".to_vec()));
        assert_eq!(vs.resolve(key(1), vs.pin().lsn), Resolution::Unborn);
    }

    #[test]
    fn a_pin_from_before_a_reset_releases_nothing() {
        let vs = VersionStore::with_registry(&Registry::new(), 4);
        let stale = vs.pin();
        vs.reset(4);
        let fresh = vs.pin();
        assert_eq!((stale.lsn, fresh.lsn), (4, 4));
        assert_ne!(stale.generation, fresh.generation);
        assert_eq!(vs.generation(), fresh.generation);
        vs.unpin(stale);
        assert_eq!(
            vs.pinned_snapshots(),
            1,
            "the stale pin released the fresh one"
        );
        assert_eq!(vs.oldest_pin(), 4);
        vs.unpin(fresh);
        assert_eq!(vs.pinned_snapshots(), 0);
    }
}
