//! Changes to the attribute type (paper §4.2–4.3).
//!
//! §4.2 classifies changes by implementation cost:
//!
//! * **state-independent** (remove a constraint) — I1 composite →
//!   non-composite, I2 exclusive → shared, I3 dependent → independent,
//!   I4 independent → dependent. These "simply require updates to the
//!   flags; as such, the changes may be made 'immediately' or 'deferred'."
//! * **state-dependent** (add a constraint) — D1 weak → exclusive
//!   composite, D2 weak → shared composite, D3 shared → exclusive. These
//!   "require 'immediate' verification of the flags" and are **rejected**
//!   when the flags conflict with the new constraint.

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::oid::ClassId;
use crate::overlay::Overlay;
use crate::refs::ReverseRef;
use crate::schema::attr::CompositeSpec;
use crate::schema::lattice;

use super::oplog::{FlagChange, LogEntry};

/// The seven §4.2 changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrTypeChange {
    /// I1: composite attribute → non-composite (weak) attribute.
    ToNonComposite,
    /// I2: exclusive composite → shared composite.
    ExclusiveToShared,
    /// I3: dependent composite → independent composite.
    ToIndependent,
    /// I4: independent composite → dependent composite.
    ToDependent,
    /// D1: non-composite → exclusive composite (with the given dependence).
    WeakToExclusive {
        /// Dependence of the new composite reference.
        dependent: bool,
    },
    /// D2: non-composite → shared composite (with the given dependence).
    WeakToShared {
        /// Dependence of the new composite reference.
        dependent: bool,
    },
    /// D3: shared composite → exclusive composite.
    SharedToExclusive,
}

impl AttrTypeChange {
    /// True for the state-independent changes I1–I4.
    pub fn is_state_independent(self) -> bool {
        matches!(
            self,
            AttrTypeChange::ToNonComposite
                | AttrTypeChange::ExclusiveToShared
                | AttrTypeChange::ToIndependent
                | AttrTypeChange::ToDependent
        )
    }
}

/// When instance flags are brought in line with a state-independent change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Maintenance {
    /// Scan all instances of the domain class now (§4.3 'immediate').
    #[default]
    Immediate,
    /// Log the change; apply per instance on next access (§4.3 'deferred').
    Deferred,
}

impl Database {
    /// Changes the type of attribute `attr` of class `referencing` (the C'
    /// of §4.2, whose attribute A has domain class C).
    ///
    /// State-dependent changes ignore `maintenance` — they are always
    /// immediate, because their validity "depends on the consistency of
    /// these flags" (§4.3) — and return
    /// [`DbError::SchemaChangeRejected`] when verification fails.
    pub fn change_attribute_type(
        &mut self,
        referencing: ClassId,
        attr: &str,
        change: AttrTypeChange,
        maintenance: Maintenance,
    ) -> DbResult<()> {
        self.schema_message(|db| db.retype(referencing, attr, change, maintenance))
    }

    /// The catalog edit and instance maintenance of
    /// [`Database::change_attribute_type`], recorded into the overlay it
    /// returns.
    fn retype(
        &mut self,
        referencing: ClassId,
        attr: &str,
        change: AttrTypeChange,
        maintenance: Maintenance,
    ) -> DbResult<Overlay> {
        let class = self.catalog.class(referencing)?;
        let def = class
            .attr(attr)
            .ok_or_else(|| DbError::NoSuchAttribute {
                class: referencing,
                attr: attr.into(),
            })?
            .clone();
        // The change is applied where the attribute is defined, so every
        // inheriting subclass sees it after reflattening.
        let defining = def.inherited_from.unwrap_or(referencing);
        let domain_class =
            def.domain
                .referenced_class()
                .ok_or_else(|| DbError::SchemaChangeRejected {
                    reason: format!("attribute {attr:?} has no class domain"),
                })?;
        let spec = def.composite;

        let mut ov = Overlay::new();
        // The state-independent changes I1–I4 come out with their flag
        // change; D1–D3 verify and rewrite as they go.
        let flags = match change {
            AttrTypeChange::ToNonComposite => {
                self.require_composite(&def, attr)?;
                self.set_spec(defining, attr, None)?;
                Some(FlagChange::DropReverse)
            }
            AttrTypeChange::ExclusiveToShared => {
                let s = self.require_composite(&def, attr)?;
                if !s.exclusive {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already shared"),
                    });
                }
                self.set_spec(
                    defining,
                    attr,
                    Some(CompositeSpec {
                        exclusive: false,
                        ..s
                    }),
                )?;
                Some(FlagChange::ClearX)
            }
            AttrTypeChange::ToIndependent => {
                let s = self.require_composite(&def, attr)?;
                if !s.dependent {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already independent"),
                    });
                }
                self.set_spec(
                    defining,
                    attr,
                    Some(CompositeSpec {
                        dependent: false,
                        ..s
                    }),
                )?;
                Some(FlagChange::ClearD)
            }
            AttrTypeChange::ToDependent => {
                let s = self.require_composite(&def, attr)?;
                if s.dependent {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already dependent"),
                    });
                }
                self.set_spec(
                    defining,
                    attr,
                    Some(CompositeSpec {
                        dependent: true,
                        ..s
                    }),
                )?;
                Some(FlagChange::SetD)
            }
            AttrTypeChange::WeakToExclusive { dependent } => {
                if spec.is_some() {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already composite"),
                    });
                }
                self.weak_to_composite(&mut ov, defining, attr, true, dependent)?;
                None
            }
            AttrTypeChange::WeakToShared { dependent } => {
                if spec.is_some() {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already composite"),
                    });
                }
                self.weak_to_composite(&mut ov, defining, attr, false, dependent)?;
                None
            }
            AttrTypeChange::SharedToExclusive => {
                let s = self.require_composite(&def, attr)?;
                if s.exclusive {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!("attribute {attr:?} is already exclusive"),
                    });
                }
                self.shared_to_exclusive(&mut ov, defining, attr, domain_class, s)?;
                None
            }
        };
        if let Some(flags) = flags {
            self.state_independent(&mut ov, domain_class, defining, flags, maintenance)?;
        }
        Ok(ov)
    }

    fn require_composite(
        &self,
        def: &crate::schema::attr::AttributeDef,
        attr: &str,
    ) -> DbResult<CompositeSpec> {
        def.composite.ok_or_else(|| DbError::SchemaChangeRejected {
            reason: format!("attribute {attr:?} is not a composite attribute"),
        })
    }

    /// Rewrites the composite spec on the defining class and reflattens.
    fn set_spec(
        &mut self,
        defining: ClassId,
        attr: &str,
        spec: Option<CompositeSpec>,
    ) -> DbResult<()> {
        let class = self.catalog.class_mut(defining)?;
        let def = class
            .local_attrs
            .iter_mut()
            .find(|a| a.name == attr)
            .ok_or_else(|| DbError::NoSuchAttribute {
                class: defining,
                attr: attr.into(),
            })?;
        def.composite = spec;
        self.catalog.reflatten_from(defining);
        Ok(())
    }

    /// Applies a state-independent flag change, immediately or deferred.
    /// `owner` is the class *defining* the attribute, so the change covers
    /// references held by instances of every inheriting subclass.
    fn state_independent(
        &mut self,
        ov: &mut Overlay,
        domain_class: ClassId,
        owner: ClassId,
        change: FlagChange,
        maintenance: Maintenance,
    ) -> DbResult<()> {
        match maintenance {
            Maintenance::Immediate => {
                // §4.3: "accessing all instances of the class C and
                // [updating] the reverse composite references to instances
                // of the class C'."
                self.rewrite_refs(ov, domain_class, |refs| {
                    change.apply(refs, |pc| lattice::is_subclass_of(&self.catalog, pc, owner))
                })
            }
            Maintenance::Deferred => {
                // Bump CC and append a log entry on the domain class and all
                // its subclasses (their instances carry reverse refs too).
                let mut affected = vec![domain_class];
                affected.extend(lattice::descendants(&self.catalog, domain_class));
                for c in affected {
                    let cc = {
                        let class = self.catalog.class_mut(c)?;
                        class.change_count += 1;
                        class.change_count
                    };
                    self.oplogs.entry(c).or_default().push(LogEntry {
                        cc,
                        change,
                        source_class: owner,
                    });
                }
                Ok(())
            }
        }
    }

    /// Records into `ov` every instance of `domain_class` (subclasses
    /// included) whose reverse references `rewrite` changes.
    fn rewrite_refs(
        &self,
        ov: &mut Overlay,
        domain_class: ClassId,
        rewrite: impl Fn(&mut Vec<ReverseRef>) -> bool,
    ) -> DbResult<()> {
        self.scoped(ov, |e| {
            for oid in e.instances_of(domain_class, true) {
                let mut obj = e.get(oid)?;
                if rewrite(&mut obj.reverse_refs) {
                    e.save(obj)?;
                }
            }
            Ok(())
        })
    }

    /// D1 / D2 (§4.3): promote a weak reference to a composite reference.
    /// "Step 2 above may be very expensive, since there is no reverse
    /// reference corresponding to a weak reference" — the full referencing
    /// extension is scanned.
    fn weak_to_composite(
        &mut self,
        ov: &mut Overlay,
        defining: ClassId,
        attr: &str,
        exclusive: bool,
        dependent: bool,
    ) -> DbResult<()> {
        // Step 1: access all instances of C' (the defining class and every
        // inheriting subclass) and collect targets referenced through A,
        // counting how many referencing parents each has.
        let mut edges: Vec<(crate::oid::Oid, crate::oid::Oid)> = Vec::new(); // (parent, target)
        let mut referencing_classes = vec![defining];
        referencing_classes.extend(lattice::descendants(&self.catalog, defining));
        for rc in referencing_classes {
            let Some(idx) = self.catalog.class(rc)?.attr_index(attr) else {
                continue;
            };
            for parent in self.instances_of(rc, false) {
                let obj = self.get(parent)?;
                for target in obj.attrs[idx].refs() {
                    edges.push((parent, target));
                }
            }
        }
        // Step 2: verify.
        let mut per_target: std::collections::HashMap<crate::oid::Oid, usize> =
            std::collections::HashMap::new();
        for (_, t) in &edges {
            *per_target.entry(*t).or_default() += 1;
        }
        for (&target, &count) in &per_target {
            if !self.exists(target) {
                continue;
            }
            let tobj = self.get(target)?;
            if exclusive {
                // D1: the target must have no composite reference at all,
                // and must not be about to receive two exclusive ones.
                if !tobj.reverse_refs.is_empty() || count > 1 {
                    return Err(DbError::SchemaChangeRejected {
                        reason: format!(
                            "{target} already has composite references (or multiple referencing \
                             parents); cannot make attribute {attr:?} exclusive"
                        ),
                    });
                }
            } else if tobj.has_exclusive_reverse_ref() {
                // D2: Topology Rule 3 verification.
                return Err(DbError::SchemaChangeRejected {
                    reason: format!(
                        "{target} has an exclusive composite reference; cannot make attribute \
                         {attr:?} a shared composite attribute"
                    ),
                });
            }
        }
        // Step 3: add reverse composite references and flip the schema.
        // A shared target is rewritten once per referencing parent, each
        // rewrite reading the one before it through the overlay.
        self.scoped(ov, |e| {
            for (parent, target) in edges {
                if !e.exists(target) {
                    continue;
                }
                let mut tobj = e.get(target)?;
                tobj.reverse_refs
                    .push(ReverseRef::new(parent, dependent, exclusive));
                e.save(tobj)?;
            }
            Ok(())
        })?;
        self.set_spec(
            defining,
            attr,
            Some(CompositeSpec {
                exclusive,
                dependent,
            }),
        )
    }

    /// D3 (§4.3): shared → exclusive.
    fn shared_to_exclusive(
        &mut self,
        ov: &mut Overlay,
        defining: ClassId,
        attr: &str,
        domain_class: ClassId,
        spec: CompositeSpec,
    ) -> DbResult<()> {
        // Step 1: access all instances of the class C. Step 2: reject if an
        // instance has more than one reverse composite reference with at
        // least one from an instance of C'.
        for oid in self.instances_of(domain_class, true) {
            let obj = self.get(oid)?;
            let from_cprime = obj
                .reverse_refs
                .iter()
                .any(|rr| lattice::is_subclass_of(&self.catalog, rr.parent.class, defining));
            if from_cprime && obj.reverse_refs.len() > 1 {
                return Err(DbError::SchemaChangeRejected {
                    reason: format!(
                        "{oid} has {} composite references including one from {defining}; \
                         attribute {attr:?} cannot become exclusive",
                        obj.reverse_refs.len()
                    ),
                });
            }
        }
        // Otherwise, turn on the X flag in all reverse composite references
        // to instances of the class C'.
        self.rewrite_refs(ov, domain_class, |refs| {
            let from_cprime = |pc| lattice::is_subclass_of(&self.catalog, pc, defining);
            let mut changed = false;
            for rr in refs.iter_mut().filter(|rr| from_cprime(rr.parent.class)) {
                changed |= !rr.exclusive;
                rr.exclusive = true;
            }
            changed
        })?;
        self.set_spec(
            defining,
            attr,
            Some(CompositeSpec {
                exclusive: true,
                ..spec
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::Domain;
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;
    use crate::{Database, Oid};

    /// C' = Holder with composite attr "slot" (exclusive, dependent) whose
    /// domain is C = Item; plus a weak attr "wref".
    fn setup(exclusive: bool, dependent: bool) -> (Database, ClassId, ClassId, Oid, Oid) {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(
                ClassBuilder::new("Holder")
                    .attr_composite(
                        "slot",
                        Domain::Class(item),
                        CompositeSpec {
                            exclusive,
                            dependent,
                        },
                    )
                    .attr("wref", Domain::Class(item)),
            )
            .unwrap();
        let i = db.make(item, vec![], vec![]).unwrap();
        let h = db
            .make(holder, vec![("slot", Value::Ref(i))], vec![])
            .unwrap();
        (db, holder, item, h, i)
    }

    #[test]
    fn i1_to_non_composite_immediate() {
        let (mut db, holder, item, _h, i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ToNonComposite,
            Maintenance::Immediate,
        )
        .unwrap();
        assert!(db.get(i).unwrap().reverse_refs.is_empty());
        assert!(!db.compositep(holder, Some("slot")).unwrap());
        let _ = item;
    }

    #[test]
    fn i2_exclusive_to_shared_immediate() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Immediate,
        )
        .unwrap();
        let obj = db.get(i).unwrap();
        assert_eq!(obj.ds(), vec![h], "X flag cleared, D retained");
        assert!(db.shared_compositep(holder, Some("slot")).unwrap());
    }

    #[test]
    fn i3_i4_toggle_dependence() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ToIndependent,
            Maintenance::Immediate,
        )
        .unwrap();
        assert_eq!(db.get(i).unwrap().ix(), vec![h]);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ToDependent,
            Maintenance::Immediate,
        )
        .unwrap();
        assert_eq!(db.get(i).unwrap().dx(), vec![h]);
    }

    #[test]
    fn deferred_change_applies_on_access() {
        let (mut db, holder, item, h, i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Deferred,
        )
        .unwrap();
        // The log exists; no instance scan happened yet.
        assert_eq!(db.oplogs.get(&item).map(|l| l.len()), Some(1));
        // First access applies the pending change and bumps the instance CC.
        let obj = db.get(i).unwrap();
        assert_eq!(obj.ds(), vec![h]);
        assert_eq!(obj.cc, db.class(item).unwrap().change_count);
    }

    #[test]
    fn deferred_changes_compose_in_order() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Deferred,
        )
        .unwrap();
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ToIndependent,
            Maintenance::Deferred,
        )
        .unwrap();
        let obj = db.get(i).unwrap();
        assert_eq!(obj.is_(), vec![h], "both X and D cleared, in order");
    }

    #[test]
    fn new_instances_start_at_current_cc() {
        let (mut db, holder, item, _h, _i) = setup(true, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Deferred,
        )
        .unwrap();
        let fresh = db.make(item, vec![], vec![]).unwrap();
        let obj = db.get(fresh).unwrap();
        assert_eq!(
            obj.cc,
            db.class(item).unwrap().change_count,
            "no stale pending changes"
        );
    }

    #[test]
    fn d1_weak_to_exclusive_succeeds_when_clean() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        // Point the weak attr at a fresh item with no composite refs.
        let item2 = db.class_by_name("Item").unwrap();
        let j = db.make(item2, vec![], vec![]).unwrap();
        db.set_attr(h, "wref", Value::Ref(j)).unwrap();
        db.change_attribute_type(
            holder,
            "wref",
            AttrTypeChange::WeakToExclusive { dependent: false },
            Maintenance::Immediate,
        )
        .unwrap();
        assert_eq!(db.get(j).unwrap().ix(), vec![h]);
        let _ = i;
    }

    #[test]
    fn d1_rejected_when_target_already_composite() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        // The weak attr points at i, which already has a composite ref.
        db.set_attr(h, "wref", Value::Ref(i)).unwrap();
        let err = db
            .change_attribute_type(
                holder,
                "wref",
                AttrTypeChange::WeakToExclusive { dependent: true },
                Maintenance::Immediate,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaChangeRejected { .. }));
        // And nothing was half-applied.
        assert!(!db.compositep(holder, Some("wref")).unwrap());
    }

    #[test]
    fn d1_rejected_when_two_parents_reference_same_target() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(ClassBuilder::new("Holder").attr("wref", Domain::Class(item)))
            .unwrap();
        let i = db.make(item, vec![], vec![]).unwrap();
        let _h1 = db
            .make(holder, vec![("wref", Value::Ref(i))], vec![])
            .unwrap();
        let _h2 = db
            .make(holder, vec![("wref", Value::Ref(i))], vec![])
            .unwrap();
        let err = db
            .change_attribute_type(
                holder,
                "wref",
                AttrTypeChange::WeakToExclusive { dependent: false },
                Maintenance::Immediate,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaChangeRejected { .. }));
    }

    #[test]
    fn d2_weak_to_shared_rejected_on_exclusive_target() {
        let (mut db, holder, _item, h, i) = setup(true, true);
        db.set_attr(h, "wref", Value::Ref(i)).unwrap();
        let err = db
            .change_attribute_type(
                holder,
                "wref",
                AttrTypeChange::WeakToShared { dependent: true },
                Maintenance::Immediate,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaChangeRejected { .. }));
    }

    #[test]
    fn d2_weak_to_shared_succeeds_and_shares() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(ClassBuilder::new("Holder").attr("wref", Domain::Class(item)))
            .unwrap();
        let i = db.make(item, vec![], vec![]).unwrap();
        let h1 = db
            .make(holder, vec![("wref", Value::Ref(i))], vec![])
            .unwrap();
        let h2 = db
            .make(holder, vec![("wref", Value::Ref(i))], vec![])
            .unwrap();
        db.change_attribute_type(
            holder,
            "wref",
            AttrTypeChange::WeakToShared { dependent: false },
            Maintenance::Immediate,
        )
        .unwrap();
        let mut parents = db.get(i).unwrap().is_();
        parents.sort();
        assert_eq!(parents, vec![h1, h2]);
    }

    #[test]
    fn d3_shared_to_exclusive_verifies_cardinality() {
        // One shared parent: OK.
        let (mut db, holder, _item, h, i) = setup(false, true);
        db.change_attribute_type(
            holder,
            "slot",
            AttrTypeChange::SharedToExclusive,
            Maintenance::Immediate,
        )
        .unwrap();
        assert_eq!(db.get(i).unwrap().dx(), vec![h]);
        assert!(db.exclusive_compositep(holder, Some("slot")).unwrap());
    }

    #[test]
    fn d3_rejected_when_target_has_multiple_parents() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(ClassBuilder::new("Holder").attr_composite(
                "slot",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        let i = db.make(item, vec![], vec![]).unwrap();
        let _h1 = db
            .make(holder, vec![("slot", Value::Ref(i))], vec![])
            .unwrap();
        let _h2 = db
            .make(holder, vec![("slot", Value::Ref(i))], vec![])
            .unwrap();
        let err = db
            .change_attribute_type(
                holder,
                "slot",
                AttrTypeChange::SharedToExclusive,
                Maintenance::Immediate,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaChangeRejected { .. }));
        // Flags untouched.
        assert_eq!(db.get(i).unwrap().ds().len(), 2);
    }

    #[test]
    fn nonsense_transitions_are_rejected() {
        let (mut db, holder, _item, _h, _i) = setup(false, false);
        // shared attr: exclusive->shared is a no-op request.
        assert!(db
            .change_attribute_type(
                holder,
                "slot",
                AttrTypeChange::ExclusiveToShared,
                Maintenance::Immediate
            )
            .is_err());
        // independent attr: ->independent rejected.
        assert!(db
            .change_attribute_type(
                holder,
                "slot",
                AttrTypeChange::ToIndependent,
                Maintenance::Immediate
            )
            .is_err());
        // composite attr: weak->composite rejected.
        assert!(db
            .change_attribute_type(
                holder,
                "slot",
                AttrTypeChange::WeakToShared { dependent: false },
                Maintenance::Immediate
            )
            .is_err());
        // weak attr: shared->exclusive rejected (not composite).
        assert!(db
            .change_attribute_type(
                holder,
                "wref",
                AttrTypeChange::SharedToExclusive,
                Maintenance::Immediate
            )
            .is_err());
    }

    #[test]
    fn inherited_attribute_changes_at_the_defining_class() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let base = db
            .define_class(ClassBuilder::new("Base").attr_composite(
                "slot",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let derived = db
            .define_class(ClassBuilder::new("Derived").superclass(base))
            .unwrap();
        let i = db.make(item, vec![], vec![]).unwrap();
        let d = db
            .make(derived, vec![("slot", Value::Ref(i))], vec![])
            .unwrap();
        // Change issued against the *subclass*; must land on Base and apply
        // to refs from Derived instances too.
        db.change_attribute_type(
            derived,
            "slot",
            AttrTypeChange::ExclusiveToShared,
            Maintenance::Immediate,
        )
        .unwrap();
        assert!(db.shared_compositep(base, Some("slot")).unwrap());
        assert!(db.shared_compositep(derived, Some("slot")).unwrap());
        assert_eq!(db.get(i).unwrap().ds(), vec![d]);
    }
}
