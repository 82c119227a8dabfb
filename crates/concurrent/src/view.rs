//! The §3 walks, written once over a read view.
//!
//! `components-of`, `parents-of` and `ancestors-of` ask the same thing of
//! whatever state they run against — "what does this OID look like to
//! me?" — whether that state is the engine itself (with a transaction's
//! overlay installed or not) or an MVCC [`Snapshot`](crate::Snapshot)
//! pinned at a commit LSN. [`ReadView`] is that question; the functions
//! below are the only traversal loops above `corion-core`.
//!
//! The downward walk is schema-aware: an object whose class has no
//! composite attribute has no components by definition, so the walk asks
//! the view only whether it is [`visible`](ReadView::visible) and never
//! reads its record. On a schema whose leaves outnumber its inner nodes
//! that is most of the objects. The consequence: a leaf whose page is
//! corrupt no longer fails a traversal that never needed its contents;
//! reading the leaf itself still does.

use std::collections::HashSet;

use corion_core::{ClassId, Database, DbError, DbResult, Object, Oid};

/// A consistent state the §3 walks can resolve OIDs in.
pub trait ReadView {
    /// The object as this view sees it; `Ok(None)` when it is not
    /// visible (never existed, not yet born, already deleted).
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>>;

    /// Whether [`resolve`](ReadView::resolve) would answer `Some`,
    /// decided without reading the object's record.
    fn visible(&mut self, oid: Oid) -> DbResult<bool>;

    /// Positions, in class layout order, of the composite attributes of
    /// `class`. Empty means instances of the class are leaves.
    fn composite_attrs(&mut self, class: ClassId) -> DbResult<Vec<usize>>;
}

/// The engine as a view: the committed base, or base plus overlay while
/// a transaction's overlay is installed.
impl ReadView for &Database {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        get_visible(self, oid)
    }

    fn visible(&mut self, oid: Oid) -> DbResult<bool> {
        Ok(self.exists(oid))
    }

    fn composite_attrs(&mut self, class: ClassId) -> DbResult<Vec<usize>> {
        composite_positions(self, class)
    }
}

/// `Database::get` with "no such object" as an answer, not an error;
/// every other error (a storage fault, a corrupt record) stays one.
pub(crate) fn get_visible(db: &Database, oid: Oid) -> DbResult<Option<Object>> {
    match db.get(oid) {
        Ok(obj) => Ok(Some(obj)),
        Err(DbError::NoSuchObject(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// [`ReadView::composite_attrs`] for any view that has the engine's
/// catalog at hand.
pub(crate) fn composite_positions(db: &Database, class: ClassId) -> DbResult<Vec<usize>> {
    let attrs = &db.class(class)?.attrs;
    Ok((0..attrs.len())
        .filter(|&i| attrs[i].composite.is_some())
        .collect())
}

/// Per-walk memo of [`ReadView::composite_attrs`]: a composite has a
/// handful of classes and hundreds of objects.
#[derive(Default)]
struct Layouts(Vec<(ClassId, Vec<usize>)>);

impl Layouts {
    fn of(&mut self, view: &mut impl ReadView, class: ClassId) -> DbResult<&[usize]> {
        let at = match self.0.iter().position(|(c, _)| *c == class) {
            Some(at) => at,
            None => {
                self.0.push((class, view.composite_attrs(class)?));
                self.0.len() - 1
            }
        };
        Ok(&self.0[at].1)
    }
}

fn push_components(obj: &Object, composite: &[usize], out: &mut Vec<Oid>) {
    for &i in composite {
        if let Some(value) = obj.attrs.get(i) {
            out.extend(value.refs());
        }
    }
}

/// The direct components of `oid`: every reference held in one of its
/// composite attributes. `NoSuchObject` if `oid` is not visible.
pub fn components_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    let obj = view.resolve(oid)?.ok_or(DbError::NoSuchObject(oid))?;
    let mut out = Vec::new();
    push_components(&obj, &view.composite_attrs(oid.class)?, &mut out);
    Ok(out)
}

/// The composite parents of `oid`, from its reverse references (§2.4).
/// `NoSuchObject` if `oid` is not visible.
pub fn parents_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    Ok(view
        .resolve(oid)?
        .ok_or(DbError::NoSuchObject(oid))?
        .composite_parents())
}

/// Every ancestor of `oid` reachable through composite parents
/// (transitive closure, `oid` excluded), sorted. `NoSuchObject` if `oid`
/// is not visible; a parent that is named but not visible is reported
/// and not climbed past.
pub fn ancestors_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    let mut seen = HashSet::new();
    let mut queue = parents_of(view, oid)?;
    let mut out = Vec::new();
    while let Some(p) = queue.pop() {
        if !seen.insert(p) {
            continue;
        }
        out.push(p);
        if let Some(obj) = view.resolve(p)? {
            queue.extend(obj.composite_parents());
        }
    }
    out.sort();
    Ok(out)
}

/// The full component subtree below `oid` (transitive closure, `oid`
/// included), in discovery order; empty if `oid` is not visible.
pub fn subtree_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    let mut layouts = Layouts::default();
    let mut seen = HashSet::new();
    let mut queue = vec![oid];
    let mut out = Vec::new();
    while let Some(o) = queue.pop() {
        if !seen.insert(o) {
            continue;
        }
        let composite = match layouts.of(view, o.class) {
            Ok(composite) => composite,
            // An OID of an unknown class names nothing — unless this view
            // still sees an instance of a class dropped since.
            Err(e) => {
                if view.visible(o)? {
                    return Err(e);
                }
                continue;
            }
        };
        if composite.is_empty() {
            if view.visible(o)? {
                out.push(o);
            }
        } else if let Some(obj) = view.resolve(o)? {
            out.push(o);
            push_components(&obj, composite, &mut queue);
        }
    }
    Ok(out)
}
