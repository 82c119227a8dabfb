//! The class catalog: class storage, name lookup, effective-attribute
//! flattening, and IS-A edge maintenance.
//!
//! Attribute inheritance follows the ORION rule \[BANE87a\]: the effective
//! attribute list of a class is the union of inherited and local attributes;
//! when two superclasses both provide an attribute of the same name, the
//! earlier superclass in the `:superclasses` list wins, unless the user has
//! issued the "change inheritance of an attribute" schema change (§4.1 (2)),
//! recorded here as a *preferred provider*.

use std::collections::HashMap;

use bytes::BufMut;
use corion_storage::codec::{self, Reader};
use corion_storage::{SegmentId, StorageError, StorageResult};

use crate::error::{DbError, DbResult};
use crate::oid::ClassId;
use crate::schema::attr::AttributeDef;
use crate::schema::class::{Class, ClassBuilder};
use crate::schema::lattice;

/// The schema catalog.
#[derive(Clone)]
pub struct Catalog {
    classes: Vec<Option<Class>>,
    by_name: HashMap<String, ClassId>,
    /// `(class, attr-name) -> superclass that should provide it` — set by the
    /// "change inheritance" schema change.
    preferred_provider: HashMap<(ClassId, String), ClassId>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog {
            classes: Vec::new(),
            by_name: HashMap::new(),
            preferred_provider: HashMap::new(),
        }
    }

    /// Defines a new class from a builder; `segment` is where its instances
    /// will be stored (the database picks or shares segments).
    pub fn define(&mut self, builder: ClassBuilder, segment: SegmentId) -> DbResult<ClassId> {
        if self.by_name.contains_key(&builder.name) {
            return Err(DbError::DuplicateClass(builder.name));
        }
        let id = ClassId(self.classes.len() as u32);
        for attr in &builder.attrs {
            attr.validate()?;
        }
        for sup in &builder.superclasses {
            self.class(*sup)?;
        }
        // Local duplicate names.
        for (i, a) in builder.attrs.iter().enumerate() {
            if builder.attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(DbError::DuplicateAttribute {
                    class: id,
                    attr: a.name.clone(),
                });
            }
        }
        let class = Class {
            id,
            name: builder.name.clone(),
            superclasses: builder.superclasses.clone(),
            subclasses: Vec::new(),
            local_attrs: builder.attrs,
            attrs: Vec::new(),
            versionable: builder.versionable,
            segment,
            change_count: 0,
        };
        self.by_name.insert(builder.name, id);
        self.classes.push(Some(class));
        for sup in builder.superclasses {
            self.class_mut(sup)?.subclasses.push(id);
        }
        self.reflatten_from(id);
        Ok(id)
    }

    /// Looks a class up by id.
    pub fn class(&self, id: ClassId) -> DbResult<&Class> {
        self.classes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(DbError::NoSuchClass(id))
    }

    /// Position of `class`'s attribute `attr` in an instance's attribute
    /// vector.
    pub fn attr_slot(&self, class: ClassId, attr: &str) -> DbResult<usize> {
        self.class(class)?
            .attr_index(attr)
            .ok_or_else(|| DbError::NoSuchAttribute {
                class,
                attr: attr.into(),
            })
    }

    /// Mutable class lookup.
    pub fn class_mut(&mut self, id: ClassId) -> DbResult<&mut Class> {
        self.classes
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(DbError::NoSuchClass(id))
    }

    /// Looks a class up by name.
    pub fn by_name(&self, name: &str) -> DbResult<ClassId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NoSuchClassName(name.into()))
    }

    /// Every live class id.
    pub fn all_classes(&self) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter_map(|c| c.as_ref().map(|c| c.id))
            .collect()
    }

    /// Classes whose effective attribute list contains a composite attribute
    /// with domain (referencing) `domain_class` — the referencing side of
    /// schema-evolution operations.
    pub fn referencing_composites(&self, domain_class: ClassId) -> Vec<(ClassId, String)> {
        let mut out = Vec::new();
        for class in self.classes.iter().flatten() {
            for a in &class.attrs {
                if a.composite.is_some() && a.domain.referenced_class() == Some(domain_class) {
                    out.push((class.id, a.name.clone()));
                }
            }
        }
        out
    }

    /// Adds a superclass edge, rejecting IS-A cycles, and reflattens.
    pub fn add_superclass(&mut self, class: ClassId, superclass: ClassId) -> DbResult<()> {
        self.class(superclass)?;
        if lattice::is_subclass_of(self, superclass, class) {
            return Err(DbError::LatticeCycle { class, superclass });
        }
        let c = self.class_mut(class)?;
        if !c.superclasses.contains(&superclass) {
            c.superclasses.push(superclass);
            self.class_mut(superclass)?.subclasses.push(class);
        }
        self.reflatten_from(class);
        Ok(())
    }

    /// Removes a superclass edge (§4.1 (3)) and reflattens. Attributes the
    /// class loses are reported so the database can cascade per the Deletion
    /// Rule.
    pub fn remove_superclass(
        &mut self,
        class: ClassId,
        superclass: ClassId,
    ) -> DbResult<Vec<AttributeDef>> {
        let before = self.class(class)?.attrs.clone();
        let c = self.class_mut(class)?;
        if !c.superclasses.contains(&superclass) {
            return Err(DbError::SchemaChangeRejected {
                reason: format!("{superclass} is not a direct superclass of {class}"),
            });
        }
        c.superclasses.retain(|&s| s != superclass);
        self.class_mut(superclass)?
            .subclasses
            .retain(|&s| s != class);
        self.reflatten_from(class);
        let after = self.class(class)?.attrs.clone();
        Ok(before
            .into_iter()
            .filter(|a| !after.iter().any(|b| b.name == a.name))
            .collect())
    }

    /// Removes a class from the catalog (§4.1 (4)): its subclasses become
    /// immediate subclasses of its superclasses. Returns the dropped class.
    pub fn drop_class(&mut self, class: ClassId) -> DbResult<Class> {
        let dropped = self.class(class)?.clone();
        for &sup in &dropped.superclasses {
            self.class_mut(sup)?.subclasses.retain(|&s| s != class);
        }
        for &sub in &dropped.subclasses {
            let subclass = self.class_mut(sub)?;
            subclass.superclasses.retain(|&s| s != class);
            for &sup in &dropped.superclasses {
                if !subclass.superclasses.contains(&sup) {
                    subclass.superclasses.push(sup);
                }
            }
        }
        for &sup in &dropped.superclasses {
            for &sub in &dropped.subclasses {
                let s = self.class_mut(sup)?;
                if !s.subclasses.contains(&sub) {
                    s.subclasses.push(sub);
                }
            }
        }
        self.by_name.remove(&dropped.name);
        self.classes[class.0 as usize] = None;
        for &sub in &dropped.subclasses {
            self.reflatten_from(sub);
        }
        Ok(dropped)
    }

    /// Records that `class` should inherit attribute `attr` from `provider`
    /// (§4.1 (2): "change the inheritance (parent) of an attribute").
    pub fn set_preferred_provider(
        &mut self,
        class: ClassId,
        attr: &str,
        provider: ClassId,
    ) -> DbResult<()> {
        if !lattice::is_subclass_of(self, class, provider) || class == provider {
            return Err(DbError::SchemaChangeRejected {
                reason: format!("{provider} is not a proper superclass of {class}"),
            });
        }
        if self.class(provider)?.attr(attr).is_none() {
            return Err(DbError::NoSuchAttribute {
                class: provider,
                attr: attr.into(),
            });
        }
        self.preferred_provider
            .insert((class, attr.to_string()), provider);
        self.reflatten_from(class);
        Ok(())
    }

    /// Serializes the catalog (used by database dump/restore).
    pub fn encode(&self, buf: &mut impl BufMut) {
        codec::put_varint(buf, self.classes.len() as u64);
        for slot in &self.classes {
            match slot {
                None => codec::put_u8(buf, 0),
                Some(c) => {
                    codec::put_u8(buf, 1);
                    codec::put_u32(buf, c.id.0);
                    codec::put_string(buf, &c.name);
                    codec::put_varint(buf, c.superclasses.len() as u64);
                    for s in &c.superclasses {
                        codec::put_u32(buf, s.0);
                    }
                    codec::put_varint(buf, c.subclasses.len() as u64);
                    for s in &c.subclasses {
                        codec::put_u32(buf, s.0);
                    }
                    codec::put_varint(buf, c.local_attrs.len() as u64);
                    for a in &c.local_attrs {
                        a.encode(buf);
                    }
                    codec::put_u8(buf, u8::from(c.versionable));
                    codec::put_u32(buf, c.segment.0);
                    codec::put_u64(buf, c.change_count);
                }
            }
        }
        let mut prefs: Vec<(&(ClassId, String), &ClassId)> =
            self.preferred_provider.iter().collect();
        prefs.sort();
        codec::put_varint(buf, prefs.len() as u64);
        for ((class, attr), provider) in prefs {
            codec::put_u32(buf, class.0);
            codec::put_string(buf, attr);
            codec::put_u32(buf, provider.0);
        }
    }

    /// Deserializes a catalog and recomputes effective attribute lists.
    pub fn decode(r: &mut Reader<'_>) -> StorageResult<Catalog> {
        let n = r.varint("catalog class count")? as usize;
        let mut classes: Vec<Option<Class>> = Vec::with_capacity(n.min(65_536));
        let mut by_name = HashMap::new();
        for _ in 0..n {
            if r.u8("catalog slot tag")? == 0 {
                classes.push(None);
                continue;
            }
            let id = ClassId(r.u32("class id")?);
            let name = r.string("class name")?;
            let n_sup = r.varint("superclass count")? as usize;
            let mut superclasses = Vec::with_capacity(n_sup.min(1024));
            for _ in 0..n_sup {
                superclasses.push(ClassId(r.u32("superclass id")?));
            }
            let n_sub = r.varint("subclass count")? as usize;
            let mut subclasses = Vec::with_capacity(n_sub.min(1024));
            for _ in 0..n_sub {
                subclasses.push(ClassId(r.u32("subclass id")?));
            }
            let n_attrs = r.varint("local attr count")? as usize;
            let mut local_attrs = Vec::with_capacity(n_attrs.min(1024));
            for _ in 0..n_attrs {
                local_attrs.push(crate::schema::attr::AttributeDef::decode(r)?);
            }
            let versionable = r.u8("versionable flag")? != 0;
            let segment = SegmentId(r.u32("class segment")?);
            let change_count = r.u64("class change count")?;
            by_name.insert(name.clone(), id);
            classes.push(Some(Class {
                id,
                name,
                superclasses,
                subclasses,
                local_attrs,
                attrs: Vec::new(),
                versionable,
                segment,
                change_count,
            }));
        }
        let n_prefs = r.varint("preferred provider count")? as usize;
        let mut preferred_provider = HashMap::new();
        for _ in 0..n_prefs {
            let class = ClassId(r.u32("pref class")?);
            let attr = r.string("pref attr")?;
            let provider = ClassId(r.u32("pref provider")?);
            preferred_provider.insert((class, attr), provider);
        }
        let mut cat = Catalog {
            classes,
            by_name,
            preferred_provider,
        };
        // Recompute effective attribute lists top-down.
        let roots: Vec<ClassId> = cat
            .classes
            .iter()
            .flatten()
            .filter(|c| c.superclasses.is_empty())
            .map(|c| c.id)
            .collect();
        for root in roots {
            cat.reflatten_from(root);
        }
        // Sanity: every live class now has effective attrs populated.
        let ok = cat
            .classes
            .iter()
            .flatten()
            .all(|c| c.attrs.len() >= c.local_attrs.len());
        if !ok {
            return Err(StorageError::Corrupt {
                context: "catalog lattice",
            });
        }
        Ok(cat)
    }

    /// Recomputes effective attributes for `class` and all its descendants.
    pub fn reflatten_from(&mut self, class: ClassId) {
        for c in lattice::self_and_descendants_topo(self, class) {
            let flattened = self.flatten(c);
            if let Ok(cl) = self.class_mut(c) {
                cl.attrs = flattened;
            }
        }
    }

    fn flatten(&self, class: ClassId) -> Vec<AttributeDef> {
        let Ok(c) = self.class(class) else {
            return Vec::new();
        };
        let mut out: Vec<AttributeDef> = Vec::new();
        for &sup in &c.superclasses {
            let Ok(s) = self.class(sup) else { continue };
            for a in &s.attrs {
                if let Some(existing) = out.iter_mut().find(|b| b.name == a.name) {
                    // Conflict between superclasses: first wins unless a
                    // preferred provider says otherwise.
                    if let Some(&pref) = self.preferred_provider.get(&(class, a.name.clone())) {
                        if pref == sup || a.inherited_from == Some(pref) {
                            *existing = AttributeDef {
                                inherited_from: Some(a.inherited_from.unwrap_or(sup)),
                                ..a.clone()
                            };
                        }
                    }
                } else {
                    out.push(AttributeDef {
                        inherited_from: Some(a.inherited_from.unwrap_or(sup)),
                        ..a.clone()
                    });
                }
            }
        }
        for a in &c.local_attrs {
            if let Some(existing) = out.iter_mut().find(|b| b.name == a.name) {
                // Local definition overrides the inherited one, in place.
                *existing = a.clone();
            } else {
                out.push(a.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::{CompositeSpec, Domain};

    fn seg() -> SegmentId {
        SegmentId(0)
    }

    #[test]
    fn define_and_lookup() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        assert_eq!(cat.by_name("A").unwrap(), a);
        assert_eq!(cat.class(a).unwrap().attrs.len(), 1);
        assert!(cat.by_name("B").is_err());
        assert!(matches!(
            cat.define(ClassBuilder::new("A"), seg()),
            Err(DbError::DuplicateClass(_))
        ));
    }

    #[test]
    fn attributes_are_inherited_in_order() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(
                ClassBuilder::new("B")
                    .superclass(a)
                    .attr("y", Domain::String),
                seg(),
            )
            .unwrap();
        let bc = cat.class(b).unwrap();
        assert_eq!(bc.attrs.len(), 2);
        assert_eq!(bc.attrs[0].name, "x");
        assert_eq!(bc.attrs[0].inherited_from, Some(a));
        assert_eq!(bc.attrs[1].name, "y");
        assert_eq!(bc.attrs[1].inherited_from, None);
    }

    #[test]
    fn conflict_resolution_first_superclass_wins() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(ClassBuilder::new("B").attr("x", Domain::String), seg())
            .unwrap();
        let c = cat
            .define(ClassBuilder::new("C").superclass(a).superclass(b), seg())
            .unwrap();
        let cc = cat.class(c).unwrap();
        assert_eq!(cc.attrs.len(), 1);
        assert_eq!(cc.attrs[0].domain, Domain::Integer, "A's x wins");
        assert_eq!(cc.attrs[0].inherited_from, Some(a));
    }

    #[test]
    fn preferred_provider_changes_inheritance() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(ClassBuilder::new("B").attr("x", Domain::String), seg())
            .unwrap();
        let c = cat
            .define(ClassBuilder::new("C").superclass(a).superclass(b), seg())
            .unwrap();
        cat.set_preferred_provider(c, "x", b).unwrap();
        assert_eq!(
            cat.class(c).unwrap().attrs[0].domain,
            Domain::String,
            "B's x now wins"
        );
        assert!(
            cat.set_preferred_provider(c, "x", c).is_err(),
            "provider must be proper super"
        );
    }

    #[test]
    fn local_attribute_overrides_inherited() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(
                ClassBuilder::new("B")
                    .superclass(a)
                    .attr("x", Domain::Float),
                seg(),
            )
            .unwrap();
        let bc = cat.class(b).unwrap();
        assert_eq!(bc.attrs.len(), 1);
        assert_eq!(bc.attrs[0].domain, Domain::Float);
    }

    #[test]
    fn add_superclass_rejects_cycles() {
        let mut cat = Catalog::new();
        let a = cat.define(ClassBuilder::new("A"), seg()).unwrap();
        let b = cat
            .define(ClassBuilder::new("B").superclass(a), seg())
            .unwrap();
        assert!(matches!(
            cat.add_superclass(a, b),
            Err(DbError::LatticeCycle { .. })
        ));
        assert!(matches!(
            cat.add_superclass(a, a),
            Err(DbError::LatticeCycle { .. })
        ));
    }

    #[test]
    fn remove_superclass_reports_lost_attributes() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(
                ClassBuilder::new("B")
                    .superclass(a)
                    .attr("y", Domain::String),
                seg(),
            )
            .unwrap();
        let lost = cat.remove_superclass(b, a).unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].name, "x");
        assert_eq!(cat.class(b).unwrap().attrs.len(), 1);
        assert!(
            cat.remove_superclass(b, a).is_err(),
            "edge no longer present"
        );
    }

    #[test]
    fn drop_class_reattaches_subclasses() {
        let mut cat = Catalog::new();
        let a = cat
            .define(ClassBuilder::new("A").attr("x", Domain::Integer), seg())
            .unwrap();
        let b = cat
            .define(ClassBuilder::new("B").superclass(a), seg())
            .unwrap();
        let c = cat
            .define(ClassBuilder::new("C").superclass(b), seg())
            .unwrap();
        cat.drop_class(b).unwrap();
        assert!(cat.class(b).is_err());
        assert!(cat.by_name("B").is_err());
        let cc = cat.class(c).unwrap();
        assert_eq!(cc.superclasses, vec![a]);
        assert_eq!(cc.attrs.len(), 1, "still inherits x via A");
        assert!(cat.class(a).unwrap().subclasses.contains(&c));
    }

    #[test]
    fn referencing_composites_finds_referencing_attrs() {
        let mut cat = Catalog::new();
        let part = cat.define(ClassBuilder::new("Part"), seg()).unwrap();
        let asm = cat
            .define(
                ClassBuilder::new("Assembly").attr_composite(
                    "parts",
                    Domain::SetOf(Box::new(Domain::Class(part))),
                    CompositeSpec::default(),
                ),
                seg(),
            )
            .unwrap();
        let refs = cat.referencing_composites(part);
        assert_eq!(refs, vec![(asm, "parts".to_string())]);
        assert!(cat.referencing_composites(asm).is_empty());
    }

    #[test]
    fn composite_attribute_with_bad_domain_rejected_at_define() {
        let mut cat = Catalog::new();
        let res = cat.define(
            ClassBuilder::new("Bad").attr_composite("x", Domain::Integer, CompositeSpec::default()),
            seg(),
        );
        assert!(res.is_err());
    }
}
