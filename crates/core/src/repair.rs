//! Online repair: restores referential integrity after corruption.
//!
//! [`Database::verify_integrity`] *detects* violations of the composite
//! invariants; this module *fixes* them. Corruption reaches the engine in
//! two ways — bit rot that [`Database::scrub`] answers by resetting pages
//! (losing the objects on them), and raw surgery / software faults that
//! leave references out of sync. [`Database::repair`] walks every live
//! object and re-establishes, in order:
//!
//! 1. **no dangling composite references** — forward composite references
//!    to missing objects are dropped;
//! 2. **Topology Rules 1–3** (§2.2) — where the surviving forward graph
//!    still over-references a component (two exclusive parents, exclusive
//!    next to shared), the earliest exclusive edge wins and the rest are
//!    dropped, deterministically;
//! 3. **bidirectional consistency** (§2.4) — every object's stored reverse
//!    references are rewritten to exactly match the cleaned forward graph,
//!    with the referencing attribute's current D/X flags;
//! 4. **the Deletion Rule** (§2.2) — a component that *was* dependent but
//!    lost its every dependent parent is an orphan: under
//!    [`OrphanPolicy::DeleteDependentOrphans`](crate::OrphanPolicy) it is
//!    cascade-deleted ("for a paragraph to exist, there must be at least
//!    one section containing it", §2.3); under `KeepOrphans` it survives
//!    as a root.
//!
//! The whole repair is one atomic batch: a crash mid-repair rolls back to
//! the (still corrupt, still diagnosable) pre-repair state. Repair never
//! deletes an *independent* component — an object whose stored reverse
//! references were all independent or absent is preserved.

use std::collections::{BTreeMap, HashMap};

use crate::db::{Database, OrphanPolicy};
use crate::error::DbResult;
use crate::oid::Oid;
use crate::refs::ReverseRef;

/// Census of what [`Database::repair`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Live objects examined.
    pub objects_visited: usize,
    /// Forward composite references dropped because their target no longer
    /// exists.
    pub dangling_edges_dropped: usize,
    /// Forward composite references dropped to restore Topology Rules 1–3
    /// (excess exclusive edges, shared edges conflicting with an exclusive
    /// one).
    pub conflicting_edges_dropped: usize,
    /// Objects whose stored reverse references were rewritten to match the
    /// cleaned forward graph.
    pub reverse_refs_fixed: usize,
    /// Orphaned dependent components cascade-deleted per the Deletion Rule
    /// (zero under [`OrphanPolicy::KeepOrphans`](crate::OrphanPolicy)).
    pub orphans_deleted: usize,
}

impl RepairReport {
    /// True when repair found nothing to change.
    pub fn is_clean(&self) -> bool {
        self.dangling_edges_dropped == 0
            && self.conflicting_edges_dropped == 0
            && self.reverse_refs_fixed == 0
            && self.orphans_deleted == 0
    }
}

/// One forward composite edge, as discovered in a parent's attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    parent: Oid,
    attr_idx: usize,
    dependent: bool,
    exclusive: bool,
}

impl Database {
    /// Repairs every integrity violation [`Database::verify_integrity`]
    /// detects, in one atomic batch. Returns a census of the changes; a
    /// clean database comes back with [`RepairReport::is_clean`] true.
    ///
    /// Fails inside a transaction (repair works on committed state). Any
    /// failure rolls the whole repair back, like any other mutation.
    pub fn repair(&mut self) -> DbResult<RepairReport> {
        self.forbid_in_transaction("repair")?;
        let _span = corion_obs::span("core", "repair");
        let report = match self.atomic(|db| db.repair_inner()) {
            Ok(report) => report,
            Err(e) => {
                // The batch rolled back under an object table its nested
                // applies had already moved; rebuild it from the pages.
                if self.health() == corion_storage::HealthState::Healthy {
                    self.rebuild_derived_state()?;
                }
                return Err(e);
            }
        };
        self.metrics.repair_runs.inc();
        self.metrics
            .repair_edges_dropped
            .add((report.dangling_edges_dropped + report.conflicting_edges_dropped) as u64);
        self.metrics
            .repair_reverse_refs_fixed
            .add(report.reverse_refs_fixed as u64);
        self.metrics
            .repair_orphans_deleted
            .add(report.orphans_deleted as u64);
        Ok(report)
    }

    fn repair_inner(&mut self) -> DbResult<RepairReport> {
        let mut report = RepairReport::default();

        // Deterministic visit order: sorted OIDs across every class.
        let all = self.shards.all_oids_sorted();
        report.objects_visited = all.len();

        // Phase 1: drop dangling forward composite references.
        for &oid in &all {
            let class = self.catalog.class(oid.class)?.clone();
            let mut obj = self.get(oid)?;
            let mut changed = false;
            for (idx, def) in class.attrs.iter().enumerate() {
                if def.composite.is_none() {
                    continue; // weak references may dangle, ORION-style
                }
                for target in obj.attrs[idx].refs() {
                    if !self.exists(target) {
                        report.dangling_edges_dropped += obj.attrs[idx].remove_ref(target);
                        changed = true;
                    }
                }
            }
            if changed {
                self.raw_overwrite_object(&obj)?;
            }
        }

        // Collect the surviving forward graph: target -> referencing edges.
        let mut forward: HashMap<Oid, Vec<Edge>> = HashMap::new();
        for &oid in &all {
            let class = self.catalog.class(oid.class)?.clone();
            let obj = self.get(oid)?;
            for (idx, def) in class.attrs.iter().enumerate() {
                let Some(spec) = def.composite else { continue };
                for target in obj.attrs[idx].refs() {
                    forward.entry(target).or_default().push(Edge {
                        parent: oid,
                        attr_idx: idx,
                        dependent: spec.dependent,
                        exclusive: spec.exclusive,
                    });
                }
            }
        }

        // Phase 2: normalise Topology Rules 1–3 per target. With any
        // exclusive edge present the rules admit exactly one composite
        // reference in total; the earliest exclusive edge (by parent OID,
        // then attribute) wins. All-shared targets are always legal.
        let mut expected: BTreeMap<Oid, Vec<ReverseRef>> = BTreeMap::new();
        for (&target, edges) in &mut forward {
            edges.sort();
            let keep: Vec<Edge> = if edges.iter().any(|e| e.exclusive) {
                let winner = *edges.iter().find(|e| e.exclusive).expect("checked above");
                for &loser in edges.iter().filter(|&&e| e != winner) {
                    let mut parent = self.get(loser.parent)?;
                    report.conflicting_edges_dropped +=
                        parent.attrs[loser.attr_idx].remove_ref(target);
                    self.raw_overwrite_object(&parent)?;
                }
                vec![winner]
            } else {
                edges.clone()
            };
            expected.insert(
                target,
                keep.iter()
                    .map(|e| ReverseRef::new(e.parent, e.dependent, e.exclusive))
                    .collect(),
            );
        }

        // Phase 3: rewrite reverse references to match, remembering which
        // objects lost their dependent-component status on the way.
        let mut orphan_candidates: Vec<Oid> = Vec::new();
        for &oid in &all {
            let mut obj = self.get(oid)?;
            let mut stored: Vec<ReverseRef> = obj.reverse_refs.clone();
            stored.sort();
            let mut want = expected.remove(&oid).unwrap_or_default();
            want.sort();
            if stored != want {
                let was_dependent = stored.iter().any(|r| r.dependent);
                let still_dependent = want.iter().any(|r| r.dependent);
                if was_dependent && !still_dependent {
                    orphan_candidates.push(oid);
                }
                obj.reverse_refs = want;
                self.raw_overwrite_object(&obj)?;
                report.reverse_refs_fixed += 1;
            }
        }

        // Phase 4: the Deletion Rule for orphaned dependents. The graph is
        // consistent now, so the ordinary cascade machinery applies.
        if self.config.orphan_policy == OrphanPolicy::DeleteDependentOrphans {
            for oid in orphan_candidates {
                if self.exists(oid) {
                    report.orphans_deleted += self.delete(oid)?.len();
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::schema::attr::{CompositeSpec, Domain};
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;

    /// Part/Assembly with a dependent-shared set attribute.
    fn shared_db() -> (Database, crate::oid::ClassId, crate::oid::ClassId) {
        let mut db = Database::new();
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        (db, part, asm)
    }

    #[test]
    fn clean_database_repairs_to_a_clean_report() {
        let (mut db, part, asm) = shared_db();
        let p = db.make(part, vec![], vec![]).unwrap();
        let _a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        let report = db.repair().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.objects_visited, 2);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn missing_reverse_ref_is_recreated_with_correct_flags() {
        let (mut db, part, asm) = shared_db();
        let p = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        // Surgery: strip the reverse reference.
        let mut obj = db.get(p).unwrap();
        obj.reverse_refs.clear();
        db.raw_overwrite_object(&obj).unwrap();
        assert!(db.verify_integrity().is_err());

        let report = db.repair().unwrap();
        assert_eq!(report.reverse_refs_fixed, 1);
        db.verify_integrity().unwrap();
        let refs = db.get(p).unwrap().reverse_refs;
        assert_eq!(refs.len(), 1);
        assert_eq!(
            (refs[0].parent, refs[0].dependent, refs[0].exclusive),
            (a, true, false)
        );
    }

    #[test]
    fn dangling_forward_edge_is_dropped() {
        let (mut db, part, asm) = shared_db();
        let p1 = db.make(part, vec![], vec![]).unwrap();
        let p2 = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p1), Value::Ref(p2)]))],
                vec![],
            )
            .unwrap();
        // Surgery: erase p2 wholesale (no Deletion Rule, no detach).
        db.erase(p2).unwrap();
        assert!(db.verify_integrity().is_err());
        let report = db.repair().unwrap();
        assert_eq!(report.dangling_edges_dropped, 1);
        db.verify_integrity().unwrap();
        let a_obj = db.get(a).unwrap();
        assert_eq!(a_obj.attrs[0].refs(), vec![p1]);
    }

    #[test]
    fn two_exclusive_parents_keep_only_the_first() {
        let mut db = Database::new();
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: true,
                    dependent: false,
                },
            ))
            .unwrap();
        let p = db.make(part, vec![], vec![]).unwrap();
        let a1 = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        let a2 = db.make(asm, vec![], vec![]).unwrap();
        // Surgery: force a second exclusive forward edge from a2.
        let mut a2_obj = db.get(a2).unwrap();
        a2_obj.attrs[0] = Value::Set(vec![Value::Ref(p)]);
        db.raw_overwrite_object(&a2_obj).unwrap();
        assert!(db.verify_integrity().is_err());

        let report = db.repair().unwrap();
        assert_eq!(report.conflicting_edges_dropped, 1);
        db.verify_integrity().unwrap();
        // The earliest exclusive edge (a1 < a2) survives.
        assert!(db.get_attr(a1, "parts").unwrap().references(p));
        assert!(!db.get_attr(a2, "parts").unwrap().references(p));
    }

    #[test]
    fn orphaned_dependent_component_is_cascade_deleted() {
        let (mut db, part, asm) = shared_db();
        let p = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        // Surgery: erase the only dependent parent wholesale.
        db.erase(a).unwrap();
        assert!(db.verify_integrity().is_err());
        let report = db.repair().unwrap();
        assert_eq!(report.orphans_deleted, 1);
        assert!(!db.exists(p), "dependent orphan must not survive repair");
        db.verify_integrity().unwrap();
    }

    #[test]
    fn a_repair_that_fails_to_commit_leaves_the_engine_as_it_was() {
        let (mut db, part, asm) = shared_db();
        let p = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        db.erase(a).unwrap();
        // The orphan cascade takes `p` out of the object table; then the
        // commit crashes cleanly at the flush and the store rolls back.
        db.arm_crash_point(corion_storage::CP_COMMIT_FLUSH, 1);
        assert!(db.repair().is_err());
        db.heal_crash_points();
        assert!(db.exists(p), "the rolled-back repair deleted nothing");
        assert!(db.verify_integrity().is_err(), "and repaired nothing");
        assert_eq!(db.repair().unwrap().orphans_deleted, 1);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn keep_orphans_policy_preserves_orphaned_dependents() {
        let mut db = Database::with_config(DbConfig {
            orphan_policy: OrphanPolicy::KeepOrphans,
            ..DbConfig::default()
        });
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        let p = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        db.erase(a).unwrap();
        let report = db.repair().unwrap();
        assert_eq!(report.orphans_deleted, 0);
        assert!(db.exists(p));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn repair_metrics_count_fixes() {
        let (mut db, part, asm) = shared_db();
        let p = db.make(part, vec![], vec![]).unwrap();
        let _a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p)]))],
                vec![],
            )
            .unwrap();
        let mut obj = db.get(p).unwrap();
        obj.reverse_refs.clear();
        db.raw_overwrite_object(&obj).unwrap();
        db.repair().unwrap();
        if cfg!(feature = "obs") {
            let snap = db.metrics_snapshot();
            assert_eq!(snap.counter("corion_repair_runs_total"), 1);
            assert_eq!(snap.counter("corion_repair_reverse_refs_fixed_total"), 1);
        }
    }
}
