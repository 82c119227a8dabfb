//! The schema-evolution taxonomy of §4.1 — operations whose semantics the
//! extended composite model revises.
//!
//! > "The model of composite objects in \[KIM87b\] causes all objects
//! > referenced through a composite attribute to be deleted if the
//! > attribute is removed; however, the extended model requires only those
//! > objects which are referenced through **dependent** composite
//! > attributes to be dropped when the attributes are dropped."
//!
//! Every operation here keeps instance layouts aligned with the class's
//! effective attribute list: values are preserved by attribute *name*
//! across layout changes, and attributes that disappear have their
//! composite references detached under Deletion-Rule semantics first.

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::{self, OverlayEng};
use crate::oid::ClassId;
use crate::overlay::Overlay;
use crate::schema::attr::{AttributeDef, CompositeSpec};
use crate::schema::lattice;

impl Database {
    /// §4.1 (1): "Drop an attribute A from a class C."
    ///
    /// Instances of C and of every subclass that inherits A lose their
    /// values for A; objects referenced through a composite A are detached,
    /// and the dependent ones deleted in accordance with the Deletion Rule.
    /// A must be locally defined on C (to drop an inherited attribute,
    /// remove the IS-A edge or drop it on the definer).
    pub fn drop_attribute(&mut self, class: ClassId, attr: &str) -> DbResult<()> {
        self.schema_message(|db| {
            let c = db.catalog.class(class)?;
            let def = c.attr(attr).ok_or_else(|| DbError::NoSuchAttribute {
                class,
                attr: attr.into(),
            })?;
            if let Some(provider) = def.inherited_from {
                return Err(DbError::SchemaChangeRejected {
                    reason: format!(
                        "attribute {attr:?} is inherited from {provider}; drop it there or \
                         remove the IS-A edge"
                    ),
                });
            }
            let old = db.old_layouts(class);
            db.catalog
                .class_mut(class)?
                .local_attrs
                .retain(|a| a.name != attr);
            db.catalog.reflatten_from(class);
            db.detach_lost_and_realign(Overlay::new(), &old, None)
        })
    }

    /// Adds a local attribute to a class; existing instances (of the class
    /// and of inheriting subclasses) take the attribute's `:init` value.
    pub fn add_attribute(&mut self, class: ClassId, def: AttributeDef) -> DbResult<()> {
        self.schema_message(|db| {
            def.validate()?;
            let c = db.catalog.class(class)?;
            if c.attr(&def.name).is_some() {
                return Err(DbError::DuplicateAttribute {
                    class,
                    attr: def.name,
                });
            }
            let old = db.old_layouts(class);
            db.catalog.class_mut(class)?.local_attrs.push(def);
            db.catalog.reflatten_from(class);
            db.detach_lost_and_realign(Overlay::new(), &old, None)
        })
    }

    /// Adds an IS-A edge; instances of `class` and its subclasses gain the
    /// newly inherited attributes at their `:init` values.
    pub fn add_superclass(&mut self, class: ClassId, superclass: ClassId) -> DbResult<()> {
        self.schema_message(|db| {
            let old = db.old_layouts(class);
            db.catalog.add_superclass(class, superclass)?;
            db.detach_lost_and_realign(Overlay::new(), &old, None)
        })
    }

    /// §4.1 (3): "Remove a class S as superclass of a class C. If this
    /// operation causes class C to lose a composite attribute A, objects
    /// … referenced by instances of C and its subclasses through A are
    /// deleted according to (1)."
    pub fn remove_superclass(&mut self, class: ClassId, superclass: ClassId) -> DbResult<()> {
        self.schema_message(|db| {
            let old = db.old_layouts(class);
            db.catalog.remove_superclass(class, superclass)?;
            db.detach_lost_and_realign(Overlay::new(), &old, None)
        })
    }

    /// §4.1 (4): "Drop an existing class C. If the class C has one or more
    /// composite attributes, objects referenced through the attributes are
    /// dropped in accordance with the Deletion Rule. All subclasses of C
    /// become immediate subclasses of the superclasses of C."
    ///
    /// Direct instances of C are deleted (each through the Deletion Rule);
    /// instances of subclasses survive, losing only the attributes C
    /// provided.
    pub fn drop_class(&mut self, class: ClassId) -> DbResult<()> {
        self.schema_message(|db| {
            db.catalog.class(class)?;
            // Delete direct instances first — their composite references
            // cascade per the Deletion Rule.
            let mut ov = Overlay::new();
            db.scoped(&mut ov, |e| {
                for oid in e.instances_of(class, false) {
                    if e.exists(oid) {
                        exec::delete_inner(e, oid)?;
                    }
                }
                Ok(())
            })?;
            let old = db.old_layouts(class);
            db.catalog.drop_class(class)?;
            db.oplogs.remove(&class);
            // Subclass instances lose the attributes C provided.
            let old_without_self: Vec<_> = old.into_iter().filter(|(c, _)| *c != class).collect();
            db.detach_lost_and_realign(ov, &old_without_self, None)
        })?;
        self.shards.remove_class(class);
        Ok(())
    }

    /// §4.1 (2): "Change the inheritance (parent) of an attribute (inherit
    /// another attribute with the same name)."
    ///
    /// The attribute's value is re-initialised (the old and new definitions
    /// may disagree on domain and composite spec); composite references held
    /// under the old definition are detached "according to (1)".
    pub fn change_attribute_inheritance(
        &mut self,
        class: ClassId,
        attr: &str,
        provider: ClassId,
    ) -> DbResult<()> {
        self.schema_message(|db| {
            let old = db.old_layouts(class);
            db.catalog.set_preferred_provider(class, attr, provider)?;
            db.detach_lost_and_realign(Overlay::new(), &old, Some(attr))
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Snapshot of the effective attribute lists of `class` and all its
    /// descendants, taken before a schema change.
    fn old_layouts(&self, class: ClassId) -> Vec<(ClassId, Vec<AttributeDef>)> {
        let mut out = vec![(
            class,
            self.catalog
                .class(class)
                .map(|c| c.attrs.clone())
                .unwrap_or_default(),
        )];
        for d in lattice::descendants(&self.catalog, class) {
            if let Ok(c) = self.catalog.class(d) {
                out.push((d, c.attrs.clone()));
            }
        }
        out
    }

    /// Ends a layout-changing message. For each affected class: detaches
    /// the composite references held through attributes the new layout no
    /// longer has — or through `reset`, whose value starts over at the new
    /// definition's `:init` — under Deletion-Rule semantics, then realigns
    /// instance layouts by attribute name; all of it recorded into the
    /// message's overlay `ov`, which is returned for
    /// [`Database::schema_message`] to apply.
    fn detach_lost_and_realign(
        &self,
        mut ov: Overlay,
        old: &[(ClassId, Vec<AttributeDef>)],
        reset: Option<&str>,
    ) -> DbResult<Overlay> {
        self.scoped(&mut ov, |e| {
            for (class, old_attrs) in old {
                let Ok(new_class) = self.catalog.class(*class) else {
                    continue;
                };
                let kept = |a: &AttributeDef| {
                    reset != Some(a.name.as_str()) && new_class.attr(&a.name).is_some()
                };
                for (idx, a) in old_attrs.iter().enumerate() {
                    if let (false, Some(spec)) = (kept(a), a.composite) {
                        detach_held(e, *class, idx, spec)?;
                    }
                }
                realign_instances(e, *class, old_attrs, &new_class.attrs, kept)?;
            }
            Ok(())
        })?;
        Ok(ov)
    }
}

/// Detaches every component the (direct) instances of `class` hold
/// through the composite attribute at `idx` of their stored layout. §4.1:
/// dependent components go per the Deletion Rule regardless of orphan
/// policy.
fn detach_held(
    e: &mut OverlayEng<'_>,
    class: ClassId,
    idx: usize,
    spec: CompositeSpec,
) -> DbResult<()> {
    for oid in e.instances_of(class, false) {
        let obj = e.get(oid)?;
        for child in obj.attrs.get(idx).map(|v| v.refs()).unwrap_or_default() {
            exec::detach_child_with(e, child, oid, spec, true)?;
        }
    }
    Ok(())
}

/// Rewrites every (direct) instance of `class` from the old layout to
/// `new_attrs`, preserving by name the values of the attributes `kept`
/// admits.
fn realign_instances(
    e: &mut OverlayEng<'_>,
    class: ClassId,
    old_attrs: &[AttributeDef],
    new_attrs: &[AttributeDef],
    kept: impl Fn(&AttributeDef) -> bool,
) -> DbResult<()> {
    // Nothing to do when every old value is kept, in the same order.
    if new_attrs.len() == old_attrs.len()
        && new_attrs
            .iter()
            .zip(old_attrs)
            .all(|(a, b)| a.name == b.name && kept(b))
    {
        return Ok(());
    }
    for oid in e.instances_of(class, false) {
        if !e.exists(oid) {
            continue;
        }
        let mut obj = e.get(oid)?;
        obj.attrs = new_attrs
            .iter()
            .map(
                |def| match old_attrs.iter().position(|a| a.name == def.name && kept(a)) {
                    Some(i) if i < obj.attrs.len() => obj.attrs[i].clone(),
                    _ => def.init.clone(),
                },
            )
            .collect();
        e.save(obj)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::schema::attr::{AttributeDef, CompositeSpec, Domain};
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;
    use crate::{ClassId, Database, DbError, Oid};

    fn setup() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db
            .define_class(
                ClassBuilder::new("Holder")
                    .attr("tag", Domain::String)
                    .attr_composite(
                        "dep",
                        Domain::Class(item),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    )
                    .attr_composite(
                        "ind",
                        Domain::Class(item),
                        CompositeSpec {
                            exclusive: true,
                            dependent: false,
                        },
                    ),
            )
            .unwrap();
        (db, holder, item)
    }

    fn wire(db: &mut Database, holder: ClassId, item: ClassId) -> (Oid, Oid, Oid) {
        let dep_target = db.make(item, vec![], vec![]).unwrap();
        let ind_target = db.make(item, vec![], vec![]).unwrap();
        let h = db
            .make(
                holder,
                vec![
                    ("tag", Value::Str("h".into())),
                    ("dep", Value::Ref(dep_target)),
                    ("ind", Value::Ref(ind_target)),
                ],
                vec![],
            )
            .unwrap();
        (h, dep_target, ind_target)
    }

    #[test]
    fn drop_dependent_composite_attribute_deletes_referenced() {
        let (mut db, holder, item) = setup();
        let (h, dep_target, ind_target) = wire(&mut db, holder, item);
        db.drop_attribute(holder, "dep").unwrap();
        assert!(
            !db.exists(dep_target),
            "dependent component dropped per Deletion Rule"
        );
        assert!(db.exists(ind_target));
        // Layout shrank but remaining values survive.
        assert_eq!(db.get_attr(h, "tag").unwrap(), Value::Str("h".into()));
        assert_eq!(db.get_attr(h, "ind").unwrap(), Value::Ref(ind_target));
        assert!(db.get_attr(h, "dep").is_err());
    }

    #[test]
    fn drop_independent_composite_attribute_keeps_referenced() {
        let (mut db, holder, item) = setup();
        let (_h, dep_target, ind_target) = wire(&mut db, holder, item);
        db.drop_attribute(holder, "ind").unwrap();
        assert!(
            db.exists(ind_target),
            "independent component survives the drop"
        );
        assert!(db.get(ind_target).unwrap().reverse_refs.is_empty());
        assert!(db.exists(dep_target));
    }

    #[test]
    fn drop_attribute_applies_to_inheriting_subclasses() {
        let (mut db, holder, item) = setup();
        let sub = db
            .define_class(ClassBuilder::new("SubHolder").superclass(holder))
            .unwrap();
        let t = db.make(item, vec![], vec![]).unwrap();
        let s = db.make(sub, vec![("dep", Value::Ref(t))], vec![]).unwrap();
        db.drop_attribute(holder, "dep").unwrap();
        assert!(
            !db.exists(t),
            "subclass instance's dependent component dropped too"
        );
        assert!(db.get_attr(s, "dep").is_err());
        assert_eq!(db.class(sub).unwrap().attrs.len(), 2);
    }

    #[test]
    fn drop_inherited_attribute_is_rejected() {
        let (mut db, holder, _item) = setup();
        let sub = db
            .define_class(ClassBuilder::new("SubHolder").superclass(holder))
            .unwrap();
        assert!(matches!(
            db.drop_attribute(sub, "dep"),
            Err(DbError::SchemaChangeRejected { .. })
        ));
    }

    #[test]
    fn add_attribute_backfills_init_values() {
        let (mut db, holder, item) = setup();
        let (h, ..) = wire(&mut db, holder, item);
        let mut def = AttributeDef::plain("rank", Domain::Integer);
        def.init = Value::Int(1);
        db.add_attribute(holder, def).unwrap();
        assert_eq!(db.get_attr(h, "rank").unwrap(), Value::Int(1));
        assert_eq!(
            db.get_attr(h, "tag").unwrap(),
            Value::Str("h".into()),
            "old values intact"
        );
        assert!(db
            .add_attribute(holder, AttributeDef::plain("rank", Domain::Integer))
            .is_err());
    }

    #[test]
    fn remove_superclass_cascades_lost_composite_attributes() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let base = db
            .define_class(ClassBuilder::new("Base").attr_composite(
                "dep",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let derived = db
            .define_class(
                ClassBuilder::new("Derived")
                    .superclass(base)
                    .attr("own", Domain::Integer),
            )
            .unwrap();
        let t = db.make(item, vec![], vec![]).unwrap();
        let d = db
            .make(
                derived,
                vec![("dep", Value::Ref(t)), ("own", Value::Int(3))],
                vec![],
            )
            .unwrap();
        db.remove_superclass(derived, base).unwrap();
        assert!(!db.exists(t), "lost dependent composite attribute cascades");
        assert_eq!(db.get_attr(d, "own").unwrap(), Value::Int(3));
        assert!(db.get_attr(d, "dep").is_err());
    }

    #[test]
    fn add_superclass_grants_attributes_to_existing_instances() {
        let mut db = Database::new();
        let base = db
            .define_class(ClassBuilder::new("Base").attr("x", Domain::Integer))
            .unwrap();
        let solo = db
            .define_class(ClassBuilder::new("Solo").attr("y", Domain::Integer))
            .unwrap();
        let o = db.make(solo, vec![("y", Value::Int(9))], vec![]).unwrap();
        db.add_superclass(solo, base).unwrap();
        assert_eq!(
            db.get_attr(o, "x").unwrap(),
            Value::Null,
            "new inherited attr at init"
        );
        assert_eq!(db.get_attr(o, "y").unwrap(), Value::Int(9));
    }

    #[test]
    fn drop_class_deletes_instances_and_reattaches_subclasses() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let top = db
            .define_class(ClassBuilder::new("Top").attr("t", Domain::Integer))
            .unwrap();
        let mid = db
            .define_class(ClassBuilder::new("Mid").superclass(top).attr_composite(
                "dep",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let bot = db
            .define_class(
                ClassBuilder::new("Bot")
                    .superclass(mid)
                    .attr("b", Domain::Integer),
            )
            .unwrap();
        // A Mid instance with a dependent component…
        let t1 = db.make(item, vec![], vec![]).unwrap();
        let m = db.make(mid, vec![("dep", Value::Ref(t1))], vec![]).unwrap();
        // …and a Bot instance with its own dependent component.
        let t2 = db.make(item, vec![], vec![]).unwrap();
        let b = db
            .make(
                bot,
                vec![
                    ("dep", Value::Ref(t2)),
                    ("b", Value::Int(1)),
                    ("t", Value::Int(2)),
                ],
                vec![],
            )
            .unwrap();
        db.drop_class(mid).unwrap();
        assert!(
            !db.exists(m),
            "direct instances of the dropped class are deleted"
        );
        assert!(!db.exists(t1), "…cascading per the Deletion Rule");
        assert!(db.exists(b), "subclass instances survive");
        assert!(
            !db.exists(t2),
            "but lose the attribute Mid provided, cascading"
        );
        assert!(db.get_attr(b, "dep").is_err());
        assert_eq!(
            db.get_attr(b, "t").unwrap(),
            Value::Int(2),
            "Top's attr survives via re-attachment"
        );
        assert_eq!(db.class(bot).unwrap().superclasses, vec![top]);
    }

    #[test]
    fn change_attribute_inheritance_reinitialises_and_detaches() {
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let a = db
            .define_class(ClassBuilder::new("A").attr_composite(
                "x",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let b = db
            .define_class(ClassBuilder::new("B").attr("x", Domain::Integer))
            .unwrap();
        let c = db
            .define_class(ClassBuilder::new("C").superclass(a).superclass(b))
            .unwrap();
        let t = db.make(item, vec![], vec![]).unwrap();
        let o = db.make(c, vec![("x", Value::Ref(t))], vec![]).unwrap();
        // Switch x to inherit from B: the composite value is dropped (its
        // dependent target deleted) and x becomes an integer attribute.
        db.change_attribute_inheritance(c, "x", b).unwrap();
        assert!(!db.exists(t));
        assert_eq!(db.get_attr(o, "x").unwrap(), Value::Null);
        assert_eq!(
            db.class(c).unwrap().attr("x").unwrap().domain,
            Domain::Integer
        );
    }
}
