//! The Deletion Rule (paper §2.2).
//!
//! > "del(O') => del(O) if any of following three conditions holds:
//! >   1. O' has a dependent exclusive reference to O.
//! >   2. O' has a dependent shared reference to O and DS(O) = {O'}.
//! >   3. An object O'' exists such that del(O') => del(O'') and either
//! >      (3.a) O'' has a dependent exclusive composite reference to O, or
//! >      (3.b) O'' has a dependent shared composite reference to O and
//! >            DS(O) = {O''}."
//!
//! Condition 3 is the recursive closure; the implementation below computes
//! it with a worklist. Independent references never propagate deletion —
//! that is precisely the reuse-enabling change over \[KIM87b\] (§1, third
//! shortcoming). Deleted objects are removed from their surviving parents'
//! forward references (possible because every composite reference has a
//! reverse reference, §2.4); weak references are left dangling, ORION-style.

use crate::db::Database;
use crate::error::DbResult;
use crate::oid::Oid;

impl Database {
    /// Deletes `root` and recursively every component required by the
    /// Deletion Rule. Returns the set of objects actually deleted
    /// (including `root`).
    ///
    /// The entire cascade is one atomic batch: a crash mid-delete recovers
    /// to either the full pre-delete state or the full post-delete state,
    /// never a hierarchy with half its members gone.
    pub fn delete(&mut self, root: Oid) -> DbResult<Vec<Oid>> {
        self.run_op(1, |db, ov| db.overlay_delete(ov, root))
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use crate::schema::attr::{CompositeSpec, Domain};
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;
    use crate::{ClassId, Oid};

    /// Schema with one attribute of each composite kind plus a weak ref.
    fn full_db() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(
                ClassBuilder::new("Holder")
                    .attr_composite(
                        "dep_excl",
                        Domain::Class(item),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    )
                    .attr_composite(
                        "ind_excl",
                        Domain::Class(item),
                        CompositeSpec {
                            exclusive: true,
                            dependent: false,
                        },
                    )
                    .attr_composite(
                        "dep_shared",
                        Domain::SetOf(Box::new(Domain::Class(item))),
                        CompositeSpec {
                            exclusive: false,
                            dependent: true,
                        },
                    )
                    .attr_composite(
                        "ind_shared",
                        Domain::SetOf(Box::new(Domain::Class(item))),
                        CompositeSpec {
                            exclusive: false,
                            dependent: false,
                        },
                    )
                    .attr("weak", Domain::Class(item)),
            )
            .unwrap();
        (db, holder, item)
    }

    fn item(db: &mut Database, class: ClassId) -> Oid {
        db.make(class, vec![], vec![]).unwrap()
    }

    #[test]
    fn formalization_case1_dependent_exclusive_cascades() {
        // del(O') => del(O) for dependent exclusive.
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h = db
            .make(holder, vec![("dep_excl", Value::Ref(o))], vec![])
            .unwrap();
        let deleted = db.delete(h).unwrap();
        assert!(deleted.contains(&o));
        assert!(!db.exists(o));
    }

    #[test]
    fn formalization_case2_independent_exclusive_survives() {
        // del(O') =/=> del(O) for independent exclusive.
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h = db
            .make(holder, vec![("ind_excl", Value::Ref(o))], vec![])
            .unwrap();
        db.delete(h).unwrap();
        assert!(db.exists(o));
        assert!(
            db.get(o).unwrap().reverse_refs.is_empty(),
            "reverse ref cleaned"
        );
    }

    #[test]
    fn formalization_case3_independent_shared_survives() {
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h = db
            .make(
                holder,
                vec![("ind_shared", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        db.delete(h).unwrap();
        assert!(db.exists(o));
    }

    #[test]
    fn formalization_case4_dependent_shared_deletes_only_when_last() {
        // del(O') => del(O) only if DS(O) = {O'}.
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h1 = db
            .make(
                holder,
                vec![("dep_shared", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        let h2 = db
            .make(
                holder,
                vec![("dep_shared", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        db.delete(h1).unwrap();
        assert!(db.exists(o), "DS(o) still contains h2");
        assert_eq!(db.get(o).unwrap().ds(), vec![h2]);
        db.delete(h2).unwrap();
        assert!(!db.exists(o), "last dependent shared parent deleted");
    }

    #[test]
    fn deletion_rule_condition3_recursive() {
        // h --dep_excl--> m --dep_excl--> o: deleting h must delete o via
        // the intermediate m (condition 3.a).
        let mut db = Database::new();
        let leaf = db.define_class(ClassBuilder::new("Leaf")).unwrap();
        let mid = db
            .define_class(ClassBuilder::new("Mid").attr_composite(
                "child",
                Domain::Class(leaf),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let top = db
            .define_class(ClassBuilder::new("Top").attr_composite(
                "child",
                Domain::Class(mid),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let o = db.make(leaf, vec![], vec![]).unwrap();
        let m = db
            .make(mid, vec![("child", Value::Ref(o))], vec![])
            .unwrap();
        let h = db
            .make(top, vec![("child", Value::Ref(m))], vec![])
            .unwrap();
        let deleted = db.delete(h).unwrap();
        assert_eq!(deleted.len(), 3);
        assert!(!db.exists(m) && !db.exists(o));
    }

    #[test]
    fn deep_mixed_cascade_stops_at_independent_boundary() {
        // top --dep--> a --ind--> b --dep--> c: deleting top removes a, but
        // b is independent of a so b and (transitively) c survive.
        let mut db = Database::new();
        let c3 = db.define_class(ClassBuilder::new("C3")).unwrap();
        let c2 = db
            .define_class(ClassBuilder::new("C2").attr_composite(
                "next",
                Domain::Class(c3),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let c1 = db
            .define_class(ClassBuilder::new("C1").attr_composite(
                "next",
                Domain::Class(c2),
                CompositeSpec {
                    exclusive: true,
                    dependent: false,
                },
            ))
            .unwrap();
        let top = db
            .define_class(ClassBuilder::new("TopC").attr_composite(
                "next",
                Domain::Class(c1),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let c = db.make(c3, vec![], vec![]).unwrap();
        let b = db.make(c2, vec![("next", Value::Ref(c))], vec![]).unwrap();
        let a = db.make(c1, vec![("next", Value::Ref(b))], vec![]).unwrap();
        let t = db.make(top, vec![("next", Value::Ref(a))], vec![]).unwrap();
        db.delete(t).unwrap();
        assert!(!db.exists(a), "dependent component deleted");
        assert!(db.exists(b) && db.exists(c), "independent subtree survives");
    }

    #[test]
    fn diamond_of_dependent_shared_parents_deletes_once_both_go() {
        // root holds two mids; both mids share o dependently. Deleting root
        // cascades through both mids, and o goes only after the second.
        let mut db = Database::new();
        let leaf = db.define_class(ClassBuilder::new("Leaf")).unwrap();
        let mid = db
            .define_class(ClassBuilder::new("Mid").attr_composite(
                "content",
                Domain::SetOf(Box::new(Domain::Class(leaf))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        let root = db
            .define_class(ClassBuilder::new("Root").attr_composite(
                "mids",
                Domain::SetOf(Box::new(Domain::Class(mid))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let o = db.make(leaf, vec![], vec![]).unwrap();
        let m1 = db
            .make(
                mid,
                vec![("content", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        let m2 = db
            .make(
                mid,
                vec![("content", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        let r = db
            .make(
                root,
                vec![("mids", Value::Set(vec![Value::Ref(m1), Value::Ref(m2)]))],
                vec![],
            )
            .unwrap();
        let deleted = db.delete(r).unwrap();
        assert_eq!(deleted.len(), 4, "r, m1, m2 and finally o");
        assert!(!db.exists(o));
    }

    #[test]
    fn surviving_parent_loses_forward_reference_to_deleted_component() {
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        // o is an independent-shared component of h1 AND dependent-shared of
        // h2; deleting h2 (the only dependent parent) deletes o, and h1's
        // forward reference must be scrubbed.
        let h1 = db
            .make(
                holder,
                vec![("ind_shared", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        let h2 = db
            .make(
                holder,
                vec![("dep_shared", Value::Set(vec![Value::Ref(o)]))],
                vec![],
            )
            .unwrap();
        db.delete(h2).unwrap();
        assert!(
            !db.exists(o),
            "paper's literal rule: DS(o) = {{h2}} triggers deletion"
        );
        assert_eq!(db.get_attr(h1, "ind_shared").unwrap(), Value::Set(vec![]));
    }

    #[test]
    fn weak_references_dangle_after_delete() {
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h = db
            .make(holder, vec![("weak", Value::Ref(o))], vec![])
            .unwrap();
        db.delete(o).unwrap();
        // ORION-style: the weak reference still holds the dead UID…
        assert_eq!(db.get_attr(h, "weak").unwrap(), Value::Ref(o));
        // …but dereferencing it fails.
        assert!(db.get(o).is_err());
    }

    #[test]
    fn delete_reports_deletion_order_root_first() {
        let (mut db, holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        let h = db
            .make(holder, vec![("dep_excl", Value::Ref(o))], vec![])
            .unwrap();
        let deleted = db.delete(h).unwrap();
        assert_eq!(deleted[0], h);
        assert_eq!(deleted.len(), 2);
    }

    #[test]
    fn delete_missing_object_fails() {
        let (mut db, _holder, itemc) = full_db();
        let o = item(&mut db, itemc);
        db.delete(o).unwrap();
        assert!(db.delete(o).is_err());
    }
}
