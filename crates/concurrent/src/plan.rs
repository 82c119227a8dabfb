//! Lock planning: from "this operation touches these objects" to the §7
//! composite lock set.
//!
//! The paper's protocol locks composite objects **from the root**: to
//! touch any part of a composite object, lock the root class in an
//! intention mode, the root instance in S/X, and every component class
//! of the composite class hierarchy in the matching O/OS mode. So the
//! planner's job is root discovery: walk the reverse composite
//! references up from each touched object (through the transaction's
//! own overlay, so freshly attached parents count) and emit
//! [`composite_lockset`] for every root found. An object outside any
//! composite degenerates to the direct-access protocol (class IS/IX +
//! instance S/X) because its hierarchy walk finds no components.
//!
//! Planning runs under the engine's shared latch *before* any lock is
//! taken; the caller then acquires the set blocking and **re-plans until
//! a fixpoint** — between planning and granting, another transaction may
//! have committed a topology change that moves a target under a new
//! root. Once every planned lock is held, the held X/IXO locks prevent
//! further movement of the targets (any mover would need locks we hold).

use std::collections::HashSet;

use corion_core::schema::catalog::Catalog;
use corion_core::{
    view, ClassId, CompositeSpec, Database, DbResult, Object, Oid, Overlay, OverlayView, ReadView,
};
use corion_lock::protocol::composite_lockset;
use corion_lock::{LockIntent, LockMode, Lockable};

/// One object an operation is about to touch, from the lock planner's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTarget {
    /// An existing object (read or mutated, directly or via cascade).
    Object(Oid),
    /// A new instance of `class` is about to be created.
    NewInstance(ClassId),
}

/// What the planner sees: the transaction's view (its overlay, then the
/// base), except that an object the view cannot read (already deleted,
/// of an unknown class, behind a storage fault) **answers itself**: it is
/// there, with no parents and no components — its own root and its own
/// whole subtree — so the caller still serialises on the instance before
/// discovering what is wrong with it.
struct Planning<'a>(OverlayView<'a>);

impl<'a> Planning<'a> {
    fn new(db: &'a Database, overlay: &'a Overlay) -> Self {
        Planning(db.view_over(overlay))
    }
}

impl ReadView for Planning<'_> {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        let bare = |_| Object::new(oid, Vec::new(), 0);
        Ok(Some(self.0.get(oid).unwrap_or_else(bare)))
    }

    fn visible(&mut self, _: Oid) -> DbResult<bool> {
        Ok(true)
    }

    fn catalog(&mut self) -> DbResult<&Catalog> {
        Ok(self.0.catalog())
    }

    fn composite_attrs(&mut self, class: ClassId) -> DbResult<Vec<(usize, CompositeSpec)>> {
        Ok(self.0.composite_attrs(class).unwrap_or_default())
    }
}

/// The composite roots above `oid`, sorted: the §3 walk up through the
/// planning view, so freshly attached parents count and an unreadable
/// `oid` is its own root.
fn roots(db: &Database, overlay: &Overlay, oid: Oid) -> Vec<Oid> {
    let mut roots =
        view::roots_of(&mut Planning::new(db, overlay), oid).unwrap_or_else(|_| vec![oid]);
    roots.sort();
    roots
}

/// `oid` and the components reachable *down* from it through composite
/// attributes, as targets. Used for cascading operations (`delete`),
/// whose effects can touch shared components that also belong to other
/// composite objects — each of those roots must be locked too.
pub fn targets_below(db: &Database, overlay: &Overlay, oid: Oid) -> Vec<OpTarget> {
    view::subtree_of(&mut Planning::new(db, overlay), oid)
        .unwrap_or_else(|_| vec![oid])
        .into_iter()
        .map(OpTarget::Object)
        .collect()
}

/// Compute the full lock set for an operation touching `targets` with
/// `intent`. Root discovery runs per target; the result keeps the
/// §7 acquisition order (root class, root instance, component classes)
/// within each root and may contain duplicates — the caller dedups
/// against its held set.
pub fn plan(
    db: &Database,
    overlay: &Overlay,
    targets: &[OpTarget],
    intent: LockIntent,
) -> Vec<(Lockable, LockMode)> {
    let mut locks: Vec<(Lockable, LockMode)> = Vec::new();
    let mut planned_roots: HashSet<Oid> = HashSet::new();
    for target in targets {
        match target {
            OpTarget::Object(oid) => {
                for root in roots(db, overlay, *oid) {
                    if planned_roots.insert(root) {
                        locks.extend(composite_lockset(db, root, intent).locks);
                    }
                }
            }
            OpTarget::NewInstance(class) => {
                let mode = match intent {
                    LockIntent::Read => LockMode::IS,
                    _ => LockMode::IX,
                };
                locks.push((Lockable::Class(*class), mode));
            }
        }
    }
    locks
}

#[cfg(test)]
mod tests {
    use super::*;
    use corion_core::{ClassBuilder, CompositeSpec, Domain};

    fn tree_db() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Asm").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        (db, part, asm)
    }

    #[test]
    fn component_targets_lock_from_the_root() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let child = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let _ = part;

        let ov = Overlay::new();
        let locks = plan(&db, &ov, &[OpTarget::Object(child)], LockIntent::Write);
        assert!(locks.contains(&(Lockable::Class(asm), LockMode::IX)));
        assert!(locks.contains(&(Lockable::Instance(root), LockMode::X)));
        assert!(!locks.contains(&(Lockable::Instance(child), LockMode::X)));
    }

    #[test]
    fn free_object_degenerates_to_direct_protocol() {
        let (mut db, part, _) = tree_db();
        let free = db.make(part, vec![], vec![]).unwrap();
        let ov = Overlay::new();
        let locks = plan(&db, &ov, &[OpTarget::Object(free)], LockIntent::Write);
        assert_eq!(locks[0], (Lockable::Class(part), LockMode::IX));
        assert_eq!(locks[1], (Lockable::Instance(free), LockMode::X));
    }

    #[test]
    fn overlay_attachment_is_visible_to_root_discovery() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let free = db.make(part, vec![], vec![]).unwrap();

        // Attach `free` under `root` inside an overlay only.
        let mut ov = Overlay::new();
        db.overlay_make_component(&mut ov, free, root, "parts")
            .unwrap();

        assert_eq!(roots(&db, &ov, free), vec![root]);
        // Without the overlay the object is still its own root.
        assert_eq!(roots(&db, &Overlay::new(), free), vec![free]);
    }

    #[test]
    fn subtree_walks_forward_composite_refs() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let a = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let b = db.make(part, vec![], vec![(root, "parts")]).unwrap();
        let below = targets_below(&db, &Overlay::new(), root);
        assert_eq!(below, [root, a, b].map(OpTarget::Object));
    }

    #[test]
    fn a_deleted_target_still_serialises_on_its_own_instance() {
        let (mut db, part, asm) = tree_db();
        let root = db.make(asm, vec![], vec![]).unwrap();
        let child = db.make(part, vec![], vec![(root, "parts")]).unwrap();

        // Deleted by this transaction: the overlay hides the base record,
        // and the object answers itself — its own root, its own subtree.
        let mut ov = Overlay::new();
        db.overlay_delete(&mut ov, child).unwrap();
        assert_eq!(roots(&db, &ov, child), vec![child]);
        assert_eq!(targets_below(&db, &ov, child), [OpTarget::Object(child)]);

        // Deleted in the base (the cascade took it with its root): the
        // plan is the direct protocol on the instance that is gone.
        db.delete(root).unwrap();
        let locks = plan(
            &db,
            &Overlay::new(),
            &[OpTarget::Object(child)],
            LockIntent::Write,
        );
        assert_eq!(locks[0], (Lockable::Class(part), LockMode::IX));
        assert_eq!(locks[1], (Lockable::Instance(child), LockMode::X));
        assert_eq!(
            targets_below(&db, &Overlay::new(), root),
            [OpTarget::Object(root)]
        );
    }
}
