//! Partitioned object-table and class-extension state.
//!
//! The engine's two derived maps — OID → physical address, and class →
//! member set — split by OID hash into a fixed power-of-two number of
//! stripes. They carry no lock of their own: the engine latch guards
//! them like the rest of engine state (DESIGN.md §17). Reads take
//! `&self` and mutations `&mut self`, and `overlay_apply(&mut self)`
//! is the only writer, so the borrow checker proves no reader races a
//! write. The partitioning is kept for the rebuild's parallel bulk load
//! (`Shards::load`), which hands each worker its own stripes.
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
//!   class), so the rebuild partitions cleanly by stripe.

use std::collections::{BTreeSet, HashMap};

use corion_storage::{fnv1a64, PhysId};

use crate::oid::{ClassId, Oid};

/// Default number of stripes (`DbConfig::default().shards`).
pub const DEFAULT_SHARDS: usize = 16;

/// Per stripe, the `(oid, phys)` of records in scan order: what one
/// rebuild worker hands [`Shards::load`].
pub(crate) type Buckets = Vec<Vec<(Oid, PhysId)>>;

/// One stripe's slice of the derived maps.
#[derive(Debug, Default, PartialEq)]
struct ShardState {
    /// OID → physical address, for OIDs hashing to this stripe.
    table: HashMap<Oid, PhysId>,
    /// Class → members *of this stripe* (each class's full extension is
    /// the union across stripes).
    ext: HashMap<ClassId, BTreeSet<Oid>>,
}

/// The partitioned object table + class extensions. See the [module
/// docs](self) for invariants.
pub(crate) struct Shards {
    mask: u64,
    stripes: Vec<ShardState>,
}

impl Shards {
    /// Builds `n` stripes, rounded up to a power of two (minimum 1).
    pub(crate) fn new(n: usize) -> Self {
        let n = n.clamp(1, 1 << 16).next_power_of_two();
        Shards {
            mask: (n - 1) as u64,
            stripes: (0..n).map(|_| ShardState::default()).collect(),
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

    fn stripe(&self, oid: Oid) -> &ShardState {
        &self.stripes[self.shard_of(oid)]
    }

    fn stripe_mut(&mut self, oid: Oid) -> &mut ShardState {
        let i = self.shard_of(oid);
        &mut self.stripes[i]
    }

    // ------------------------------------------------------------------
    // Point operations (one stripe)
    // ------------------------------------------------------------------

    /// Physical address of `oid`, if live.
    pub(crate) fn get(&self, oid: Oid) -> Option<PhysId> {
        self.stripe(oid).table.get(&oid).copied()
    }

    /// True if `oid` has a table entry.
    pub(crate) fn contains(&self, oid: Oid) -> bool {
        self.stripe(oid).table.contains_key(&oid)
    }

    /// Sets the table entry alone (relocation: the object is already a
    /// member of its class extension).
    pub(crate) fn set_phys(&mut self, oid: Oid, phys: PhysId) {
        self.stripe_mut(oid).table.insert(oid, phys);
    }

    /// Inserts both the table entry and the extension membership.
    pub(crate) fn insert(&mut self, oid: Oid, phys: PhysId) {
        let st = self.stripe_mut(oid);
        st.table.insert(oid, phys);
        st.ext.entry(oid.class).or_default().insert(oid);
    }

    /// Removes both the table entry and the extension membership; returns
    /// the old physical address.
    pub(crate) fn remove(&mut self, oid: Oid) -> Option<PhysId> {
        let st = self.stripe_mut(oid);
        if let Some(ext) = st.ext.get_mut(&oid.class) {
            ext.remove(&oid);
        }
        st.table.remove(&oid)
    }

    // ------------------------------------------------------------------
    // Class extensions
    // ------------------------------------------------------------------

    /// Registers `class` in every stripe so its (possibly empty)
    /// extension exists.
    pub(crate) fn ensure_class(&mut self, class: ClassId) {
        for st in &mut self.stripes {
            st.ext.entry(class).or_default();
        }
    }

    /// Drops `class`'s extension from every stripe.
    pub(crate) fn remove_class(&mut self, class: ClassId) {
        for st in &mut self.stripes {
            st.ext.remove(&class);
        }
    }

    /// Direct members of every class in `classes`, in one sorted-OID
    /// order (one collection across the stripes, one sort).
    pub(crate) fn members_sorted(&self, classes: &[ClassId]) -> Vec<Oid> {
        let mut out: Vec<Oid> = self
            .stripes
            .iter()
            .flat_map(|st| classes.iter().filter_map(|c| st.ext.get(c)).flatten())
            .copied()
            .collect();
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
        for st in &self.stripes {
            out.extend(st.table.keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Live objects across all stripes.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|st| st.table.len()).sum()
    }

    /// Live objects in each stripe, in stripe order (occupancy metrics).
    pub(crate) fn occupancy(&self) -> Vec<usize> {
        self.stripes.iter().map(|st| st.table.len()).collect()
    }

    // ------------------------------------------------------------------
    // Bulk load (the rebuild)
    // ------------------------------------------------------------------

    /// Replaces every stripe's table and extensions with `parts`: per
    /// rebuild worker, in scan order, the [`Buckets`] of its records.
    /// Stripes build in parallel on up to `workers` threads, each owning
    /// a contiguous run of stripes, each stripe from its entries sorted
    /// by OID — stably, so an OID found twice resolves to the record last
    /// in scan order, whatever the number of workers. The table is built
    /// at its known size, each class extension in bulk from its sorted
    /// run, and every class in `classes` keeps an (empty) extension in
    /// every stripe.
    pub(crate) fn load(&mut self, classes: &[ClassId], parts: &[Buckets], workers: usize) {
        let per_worker = self.stripes.len().div_ceil(workers.max(1));
        std::thread::scope(|scope| {
            for (w, run) in self.stripes.chunks_mut(per_worker).enumerate() {
                scope.spawn(move || {
                    for (j, st) in run.iter_mut().enumerate() {
                        let i = w * per_worker + j;
                        let mut entries: Vec<(Oid, PhysId)> =
                            parts.iter().flat_map(|p| p[i].iter().copied()).collect();
                        // Stable: an OID's entries stay in scan order, and
                        // the table keeps the last of them.
                        entries.sort_by_key(|&(oid, _)| oid);
                        let table = entries.iter().copied().collect();
                        // A class's run replaces the empty extension it
                        // starts with.
                        let runs = entries.chunk_by(|a, b| a.0.class == b.0.class);
                        let ext = (classes.iter().map(|&c| (c, BTreeSet::new())))
                            .chain(runs.map(|r| (r[0].0.class, r.iter().map(|e| e.0).collect())))
                            .collect();
                        *st = ShardState { table, ext };
                    }
                });
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
    fn insert_remove_maintain_counts_and_extensions() {
        let mut s = Shards::new(4);
        let c = ClassId(1);
        s.ensure_class(c);
        let oids: Vec<Oid> = (0..100).map(|i| oid(1, i)).collect();
        for (i, &o) in oids.iter().enumerate() {
            s.insert(o, phys(i as u64));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.occupancy().iter().sum::<usize>(), 100);
        assert_eq!(s.members_sorted(&[c]), oids);
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
        let mut s = Shards::new(2);
        let o = oid(1, 7);
        s.insert(o, phys(1));
        s.set_phys(o, phys(2));
        assert_eq!(s.get(o), Some(phys(2)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.members_sorted(&[ClassId(1)]), vec![o]);
    }

    #[test]
    fn load_keeps_classes_and_resolves_a_duplicate_to_the_last_record() {
        for n in [1, 4, 16] {
            let (c, empty, stale) = (ClassId(2), ClassId(3), ClassId(5));
            let oids: Vec<Oid> = (0..200).map(|i| oid(2, i)).collect();
            // Two rebuild workers' parts; OID 7 is in both, and in the
            // second worker's part twice: the later record wins.
            let shape = Shards::new(n);
            let mut parts = vec![vec![Vec::new(); shape.shard_count()]; 2];
            for (i, &o) in oids.iter().enumerate() {
                parts[i % 2][shape.shard_of(o)].push((o, phys(i as u64)));
            }
            let dup = oid(2, 7);
            parts[1][shape.shard_of(dup)].push((dup, phys(1000)));
            parts[1][shape.shard_of(dup)].push((dup, phys(1001)));
            parts[0][shape.shard_of(dup)].push((dup, phys(1002)));
            let build = |workers: usize| {
                let mut s = Shards::new(n);
                // A stale entry in every stripe: a stripe no worker built
                // would keep it.
                let mut serial = 0;
                while (0..n).any(|i| !s.stripes[i].table.keys().any(|o| o.class == stale)) {
                    s.insert(oid(5, serial), phys(99));
                    serial += 1;
                }
                s.load(&[c, empty], &parts, workers);
                s
            };
            let reference = build(1);
            assert_eq!(reference.len(), 200, "n={n}");
            assert_eq!(reference.get(dup), Some(phys(1001)), "n={n}");
            assert_eq!(reference.members_sorted(&[c]), oids);
            assert_eq!(reference.all_oids_sorted(), oids);
            assert!(reference.members_sorted(&[empty, stale]).is_empty());
            assert!(reference
                .stripes
                .iter()
                .all(|st| st.ext.contains_key(&empty)));
            for workers in [2, 3, 5, n, n + 1] {
                let s = build(workers);
                assert_eq!(s.stripes, reference.stripes, "n={n} workers={workers}");
            }
        }
    }
}
