//! Striped object-table and class-extension state.
//!
//! The engine's two derived maps — OID → physical address, and class →
//! member set — used to be two flat `HashMap`s touched by every read and
//! write. The paper's premise is that composite objects partition the
//! database into independently lockable subtrees (§7); once the lock
//! protocol admits disjoint-composite writers in parallel, a single flat
//! map re-serialises them. `Shards` splits both maps by OID hash into a
//! fixed power-of-two number of segments, each behind its own
//! reader-writer stripe, so lookups touch exactly one stripe and
//! placement work can fan out shard-local.
//!
//! Invariants:
//!
//! * **Deterministic placement** — `Shards::shard_of` hashes the OID
//!   with the same FNV-1a the storage layer uses for checksums, never a
//!   per-process random state, so a given OID lands in the same shard in
//!   every process and every run. The shard *count* still never leaks
//!   into on-disk artifacts: dumps and checkpoints iterate in physical
//!   scan order or sorted-OID order, both shard-count-independent.
//! * **Same-stripe extension membership** — the extension entry for a
//!   member OID lives in the *member's* stripe (not a stripe picked by
//!   class), so one lock covers the table entry and the extension entry
//!   of any object, and bulk placement partitions cleanly by shard.
//! * **Incremental counts** — each stripe maintains a live-object
//!   counter; `Shards::len` sums them instead of walking any map, so
//!   statistics paths never take a stripe lock.
//!
//! Locking discipline: every method locks at most one stripe at a time
//! (whole-table iteration locks stripes one after another), so stripe
//! locks can never deadlock against each other.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use corion_storage::{fnv1a64, PhysId};
use parking_lot::RwLock;

use crate::oid::{ClassId, Oid};

/// Default number of stripes (`DbConfig::default().shards`).
pub const DEFAULT_SHARDS: usize = 16;

/// Per stripe, the `(oid, phys)` of records in scan order: what one
/// rebuild worker hands [`Shards::load`].
pub(crate) type Buckets = Vec<Vec<(Oid, PhysId)>>;

/// One stripe's slice of the derived maps.
#[derive(Default)]
struct ShardState {
    /// OID → physical address, for OIDs hashing to this stripe.
    table: HashMap<Oid, PhysId>,
    /// Class → members *of this stripe* (each class's full extension is
    /// the union across stripes; per-stripe sets are `BTreeSet` so every
    /// merged iteration comes out in sorted-OID order).
    ext: HashMap<ClassId, BTreeSet<Oid>>,
}

struct Stripe {
    state: RwLock<ShardState>,
    /// Live objects in this stripe's table (maintained on insert/remove,
    /// summed lock-free by [`Shards::len`]).
    live: AtomicUsize,
}

/// The striped object table + class extensions. See the [module
/// docs](self) for invariants.
pub(crate) struct Shards {
    mask: u64,
    stripes: Vec<Stripe>,
}

impl Shards {
    /// Builds `n` stripes, rounded up to a power of two (minimum 1).
    pub(crate) fn new(n: usize) -> Self {
        let n = n.clamp(1, 1 << 16).next_power_of_two();
        Shards {
            mask: (n - 1) as u64,
            stripes: (0..n)
                .map(|_| Stripe {
                    state: RwLock::new(ShardState::default()),
                    live: AtomicUsize::new(0),
                })
                .collect(),
        }
    }

    /// Number of stripes (always a power of two).
    pub(crate) fn shard_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe an OID hashes to — FNV-1a over the OID's fixed byte
    /// layout, deterministic across processes.
    pub(crate) fn shard_of(&self, oid: Oid) -> usize {
        let mut bytes = [0u8; 12];
        bytes[..4].copy_from_slice(&oid.class.0.to_le_bytes());
        bytes[4..].copy_from_slice(&oid.serial.to_le_bytes());
        (fnv1a64(&bytes) & self.mask) as usize
    }

    fn stripe(&self, oid: Oid) -> &Stripe {
        &self.stripes[self.shard_of(oid)]
    }

    // ------------------------------------------------------------------
    // Point operations (one stripe, one lock)
    // ------------------------------------------------------------------

    /// Physical address of `oid`, if live.
    pub(crate) fn get(&self, oid: Oid) -> Option<PhysId> {
        self.stripe(oid).state.read().table.get(&oid).copied()
    }

    /// True if `oid` has a table entry.
    pub(crate) fn contains(&self, oid: Oid) -> bool {
        self.stripe(oid).state.read().table.contains_key(&oid)
    }

    /// Sets the table entry alone (relocation: the object is already a
    /// member of its class extension).
    pub(crate) fn set_phys(&self, oid: Oid, phys: PhysId) {
        let stripe = self.stripe(oid);
        let mut st = stripe.state.write();
        if st.table.insert(oid, phys).is_none() {
            stripe.live.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts both the table entry and the extension membership under
    /// one stripe lock.
    pub(crate) fn insert(&self, oid: Oid, phys: PhysId) {
        let stripe = self.stripe(oid);
        let mut st = stripe.state.write();
        if st.table.insert(oid, phys).is_none() {
            stripe.live.fetch_add(1, Ordering::Relaxed);
        }
        st.ext.entry(oid.class).or_default().insert(oid);
    }

    /// Removes both the table entry and the extension membership; returns
    /// the old physical address.
    pub(crate) fn remove(&self, oid: Oid) -> Option<PhysId> {
        let stripe = self.stripe(oid);
        let mut st = stripe.state.write();
        let old = st.table.remove(&oid);
        if old.is_some() {
            stripe.live.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(ext) = st.ext.get_mut(&oid.class) {
            ext.remove(&oid);
        }
        old
    }

    // ------------------------------------------------------------------
    // Class extensions
    // ------------------------------------------------------------------

    /// Registers `class` in every stripe so its (possibly empty)
    /// extension exists.
    pub(crate) fn ensure_class(&self, class: ClassId) {
        for stripe in &self.stripes {
            stripe.state.write().ext.entry(class).or_default();
        }
    }

    /// Drops `class`'s extension from every stripe.
    pub(crate) fn remove_class(&self, class: ClassId) {
        for stripe in &self.stripes {
            stripe.state.write().ext.remove(&class);
        }
    }

    /// Direct members of `class`, in sorted-OID order (the union of every
    /// stripe's sorted slice, merged by a full sort).
    pub(crate) fn class_members_sorted(&self, class: ClassId) -> Vec<Oid> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            if let Some(ext) = stripe.state.read().ext.get(&class) {
                out.extend(ext.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    // ------------------------------------------------------------------
    // Whole-table iteration
    // ------------------------------------------------------------------

    /// Every live OID, sorted — the deterministic visit order for
    /// `repair()` and other order-sensitive passes.
    pub(crate) fn all_oids_sorted(&self) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            out.extend(stripe.state.read().table.keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Live objects across all stripes — a lock-free sum of per-stripe
    /// counters, never a map walk.
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum()
    }

    /// Live objects in each stripe, in stripe order (occupancy metrics).
    pub(crate) fn occupancy(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .collect()
    }

    // ------------------------------------------------------------------
    // Bulk load (the rebuild)
    // ------------------------------------------------------------------

    /// Replaces every stripe's table and extensions with `parts`: per
    /// rebuild worker, in scan order, the [`Buckets`] of its records.
    /// Stripes build in parallel on `workers` threads, each from its
    /// entries sorted by OID —
    /// stably, so an OID found twice resolves to the record last in scan
    /// order, whatever the number of workers. The table is built at its
    /// known size, each class extension in bulk from its sorted run, and
    /// every class in `classes` keeps an (empty) extension in every
    /// stripe.
    pub(crate) fn load(&self, classes: &[ClassId], parts: &[Buckets], workers: usize) {
        let build = |w: usize| {
            for (i, stripe) in self.stripes.iter().enumerate().skip(w).step_by(workers) {
                let mut entries: Vec<(Oid, PhysId)> =
                    parts.iter().flat_map(|p| p[i].iter().copied()).collect();
                // Stable: an OID's entries stay in scan order, and the
                // table keeps the last of them.
                entries.sort_by_key(|&(oid, _)| oid);
                let table: HashMap<Oid, PhysId> = entries.iter().copied().collect();
                // A class's run replaces the empty extension it starts with.
                let runs = entries.chunk_by(|a, b| a.0.class == b.0.class);
                let ext = (classes.iter().map(|&c| (c, BTreeSet::new())))
                    .chain(runs.map(|run| (run[0].0.class, run.iter().map(|e| e.0).collect())))
                    .collect();
                stripe.live.store(table.len(), Ordering::Relaxed);
                *stripe.state.write() = ShardState { table, ext };
            }
        };
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || build(w));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(class: u32, serial: u64) -> Oid {
        Oid::new(ClassId(class), serial)
    }

    fn phys(n: u64) -> PhysId {
        PhysId {
            segment: corion_storage::SegmentId(0),
            page: n,
            slot: 0,
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(Shards::new(0).shard_count(), 1);
        assert_eq!(Shards::new(1).shard_count(), 1);
        assert_eq!(Shards::new(3).shard_count(), 4);
        assert_eq!(Shards::new(16).shard_count(), 16);
        assert_eq!(Shards::new(17).shard_count(), 32);
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let a = Shards::new(16);
        let b = Shards::new(16);
        for serial in 0..1000 {
            let o = oid(serial as u32 % 7, serial);
            assert_eq!(a.shard_of(o), b.shard_of(o));
            assert!(a.shard_of(o) < 16);
        }
    }

    #[test]
    fn insert_remove_maintain_counters_and_extensions() {
        let s = Shards::new(4);
        let c = ClassId(1);
        s.ensure_class(c);
        let oids: Vec<Oid> = (0..100).map(|i| oid(1, i)).collect();
        for (i, &o) in oids.iter().enumerate() {
            s.insert(o, phys(i as u64));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.occupancy().iter().sum::<usize>(), 100);
        assert_eq!(s.class_members_sorted(c), oids);
        assert_eq!(s.all_oids_sorted(), oids);
        assert_eq!(s.get(oids[3]), Some(phys(3)));
        assert_eq!(s.remove(oids[3]), Some(phys(3)));
        assert_eq!(s.len(), 99);
        assert!(!s.contains(oids[3]));
        // Double-insert of the same OID must not double-count.
        s.insert(oids[5], phys(500));
        assert_eq!(s.len(), 99);
        assert_eq!(s.get(oids[5]), Some(phys(500)));
    }

    #[test]
    fn set_phys_relocates_without_touching_extensions() {
        let s = Shards::new(2);
        let o = oid(1, 7);
        s.insert(o, phys(1));
        s.set_phys(o, phys(2));
        assert_eq!(s.get(o), Some(phys(2)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.class_members_sorted(ClassId(1)), vec![o]);
    }

    #[test]
    fn load_keeps_classes_and_resolves_a_duplicate_to_the_last_record() {
        for n in [1, 4, 16] {
            let s = Shards::new(n);
            let (c, empty) = (ClassId(2), ClassId(3));
            s.insert(oid(5, 1), phys(99));
            let oids: Vec<Oid> = (0..200).map(|i| oid(2, i)).collect();
            // Two workers' parts; OID 7 is in both, and in the second
            // worker's part twice: the later record wins.
            let mut parts = vec![vec![Vec::new(); s.shard_count()]; 2];
            for (i, &o) in oids.iter().enumerate() {
                parts[i % 2][s.shard_of(o)].push((o, phys(i as u64)));
            }
            let dup = oid(2, 7);
            parts[1][s.shard_of(dup)].push((dup, phys(1000)));
            parts[1][s.shard_of(dup)].push((dup, phys(1001)));
            parts[0][s.shard_of(dup)].push((dup, phys(1002)));
            s.load(&[c, empty], &parts, 2);
            assert_eq!(s.len(), 200, "n={n}");
            assert_eq!(s.get(dup), Some(phys(1001)), "n={n}");
            assert!(!s.contains(oid(5, 1)), "load replaces what was there");
            assert_eq!(s.class_members_sorted(c), oids);
            assert_eq!(s.all_oids_sorted(), oids);
            assert!(s.class_members_sorted(empty).is_empty());
            assert!(s
                .stripes
                .iter()
                .all(|st| st.state.read().ext.contains_key(&empty)));
        }
    }
}
