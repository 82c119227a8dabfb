//! The §3 walks, written once over a read view.
//!
//! `components-of`, `parents-of` and `ancestors-of` ask the same thing of
//! whatever state they run against — "what does this OID look like to
//! me?" — whether that state is the engine itself, a transaction's
//! overlay over it ([`crate::overlay::OverlayView`]), an MVCC snapshot
//! pinned at a commit LSN, or the lock planner's view. [`ReadView`] is that
//! question; the functions below are the only loops in the workspace
//! that follow composite attributes down or reverse composite references
//! (§2.4) up for a §3 answer. `Database::components_of` and friends, the
//! §3.2 predicates, the snapshot traversals and the planner are adapters
//! over them.
//!
//! Both walks are breadth-first, so answers come nearest first and a
//! [`Filter::level`] bound is the shortest path on shared hierarchies
//! (§3.1). Every answer is a set: an object reachable along two paths, or
//! held by two composite attributes of one parent, is reported once. A
//! reference to an object the view cannot see is skipped, up and down.
//!
//! The downward walk is schema-aware: an object whose class has no
//! composite attribute has no components by definition, so the walk asks
//! the view only whether it is [`visible`](ReadView::visible) and never
//! reads its record; the same goes for objects at the level bound. On a
//! schema whose leaves outnumber its inner nodes that is most of the
//! objects. The consequence: a leaf whose page is corrupt does not fail a
//! traversal that never needed its contents; reading the leaf itself
//! still does.

use std::collections::{HashSet, VecDeque};

use crate::composite::ops::Filter;
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::schema::attr::CompositeSpec;
use crate::schema::catalog::Catalog;
use crate::schema::lattice;

/// A consistent state the §3 walks can resolve OIDs in.
pub trait ReadView {
    /// The object as this view sees it; `Ok(None)` when it is not
    /// visible (never existed, not yet born, already deleted).
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>>;

    /// Whether [`resolve`](ReadView::resolve) would answer `Some`,
    /// decided without reading the object's record.
    fn visible(&mut self, oid: Oid) -> DbResult<bool>;

    /// The schema the view's objects are laid out by.
    fn catalog(&mut self) -> DbResult<&Catalog>;

    /// Position (in class layout order) and reference kind of every
    /// composite attribute of `class`. Empty means instances of the class
    /// are leaves.
    fn composite_attrs(&mut self, class: ClassId) -> DbResult<Vec<(usize, CompositeSpec)>> {
        let attrs = &self.catalog()?.class(class)?.attrs;
        Ok(attrs
            .iter()
            .enumerate()
            .filter_map(|(at, def)| Some((at, def.composite?)))
            .collect())
    }
}

/// The engine as a view: the committed base, seen through the engine's
/// own transaction while one is open.
impl ReadView for &Database {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        found(self.get(oid))
    }

    fn visible(&mut self, oid: Oid) -> DbResult<bool> {
        Ok(self.exists(oid))
    }

    fn catalog(&mut self) -> DbResult<&Catalog> {
        Ok(&self.catalog)
    }
}

/// A `get` with "no such object" as an answer, not an error; every other
/// error (a storage fault, a corrupt record) stays one.
pub(crate) fn found(got: DbResult<Object>) -> DbResult<Option<Object>> {
    match got {
        Ok(obj) => Ok(Some(obj)),
        Err(DbError::NoSuchObject(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Per-walk memo of [`ReadView::composite_attrs`]: a composite has a
/// handful of classes and hundreds of objects.
#[derive(Default)]
struct Layouts(Vec<(ClassId, Vec<(usize, CompositeSpec)>)>);

impl Layouts {
    fn of(
        &mut self,
        view: &mut impl ReadView,
        class: ClassId,
    ) -> DbResult<&[(usize, CompositeSpec)]> {
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

/// The `[ListofClasses]` switch: subclass instances included.
fn admits_class(view: &mut impl ReadView, filter: &Filter, class: ClassId) -> DbResult<bool> {
    let Some(wanted) = &filter.classes else {
        return Ok(true);
    };
    let catalog = view.catalog()?;
    Ok(wanted
        .iter()
        .any(|&c| lattice::is_subclass_of(catalog, class, c)))
}

/// The walk down: `root`, then level by level every visible object
/// reachable from it through composite attributes whose kind the filter
/// admits, down to the filter's level bound. The class list selects what
/// is reported, not what is walked through. Empty if `root` is not
/// visible.
fn descend(view: &mut impl ReadView, root: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    let mut layouts = Layouts::default();
    let mut seen = HashSet::from([root]);
    let mut out = Vec::new();
    let (mut level, mut below) = (vec![root], Vec::new());
    for depth in 0.. {
        let bottom = filter.level.is_some_and(|max| depth >= max);
        for o in level.drain(..) {
            let layout = match layouts.of(view, o.class) {
                Ok(layout) => layout,
                // An OID of an unknown class names nothing — unless this view
                // still sees an instance of a class dropped since.
                Err(e) => {
                    if view.visible(o)? {
                        return Err(e);
                    }
                    continue;
                }
            };
            let live = if bottom || layout.is_empty() {
                view.visible(o)?
            } else if let Some(obj) = view.resolve(o)? {
                for &(at, spec) in layout {
                    if !filter.admits_edge(spec.exclusive) {
                        continue;
                    }
                    if let Some(value) = obj.attrs.get(at) {
                        below.extend(value.refs().into_iter().filter(|c| seen.insert(*c)));
                    }
                }
                true
            } else {
                false
            };
            if live && (depth == 0 || admits_class(view, filter, o.class)?) {
                out.push(o);
            }
        }
        if below.is_empty() {
            break;
        }
        std::mem::swap(&mut level, &mut below);
    }
    Ok(out)
}

/// The walk up: `visit` sees `oid` and then, nearest first, every visible
/// object reachable from it through reverse composite references whose
/// kind the filter admits. `NoSuchObject` if `oid` is not visible.
fn ascend<V: ReadView>(
    view: &mut V,
    oid: Oid,
    filter: &Filter,
    mut visit: impl FnMut(&mut V, &Object) -> DbResult<()>,
) -> DbResult<()> {
    let mut seen = HashSet::from([oid]);
    let mut queue = VecDeque::from([oid]);
    while let Some(o) = queue.pop_front() {
        let Some(obj) = view.resolve(o)? else {
            if o == oid {
                return Err(DbError::NoSuchObject(oid));
            }
            continue;
        };
        visit(view, &obj)?;
        for rr in &obj.reverse_refs {
            if filter.admits_edge(rr.exclusive) && seen.insert(rr.parent) {
                queue.push_back(rr.parent);
            }
        }
    }
    Ok(())
}

/// `(components-of Object [ListofClasses] [Exclusive] [Shared] [Level])`:
/// the component set of `oid` — "all objects directly or indirectly
/// referenced from O via composite references" (§2.2) — level-n
/// components before level-n+1 ones. `NoSuchObject` if `oid` is not
/// visible.
pub fn components_of(view: &mut impl ReadView, oid: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    let mut out = descend(view, oid, filter)?;
    if out.is_empty() {
        return Err(DbError::NoSuchObject(oid));
    }
    out.remove(0);
    Ok(out)
}

/// `oid` and its whole component set; empty if `oid` is not visible.
pub fn subtree_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    descend(view, oid, &Filter::all())
}

/// `(parents-of Object [ListofClasses] [Exclusive] [Shared])`: the
/// objects holding a **direct** composite reference to `oid`, from its
/// reverse composite references (§2.4) — the parents are named, not read.
/// `NoSuchObject` if `oid` is not visible.
pub fn parents_of(view: &mut impl ReadView, oid: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    let obj = view.resolve(oid)?.ok_or(DbError::NoSuchObject(oid))?;
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for rr in &obj.reverse_refs {
        if filter.admits_edge(rr.exclusive)
            && admits_class(view, filter, rr.parent.class)?
            && seen.insert(rr.parent)
        {
            out.push(rr.parent);
        }
    }
    Ok(out)
}

/// `(ancestors-of Object [ListofClasses] [Exclusive] [Shared])`: the
/// objects holding a direct **or indirect** composite reference to `oid`.
/// `NoSuchObject` if `oid` is not visible.
pub fn ancestors_of(view: &mut impl ReadView, oid: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    let mut out = Vec::new();
    ascend(view, oid, filter, |view, obj| {
        if obj.oid != oid && admits_class(view, filter, obj.oid.class)? {
            out.push(obj.oid);
        }
        Ok(())
    })?;
    Ok(out)
}

/// The roots of every composite object containing `oid`: `oid` itself and
/// its ancestors, where they have no composite parent.
pub fn roots_of(view: &mut impl ReadView, oid: Oid) -> DbResult<Vec<Oid>> {
    let mut out = Vec::new();
    ascend(view, oid, &Filter::all(), |_, obj| {
        if obj.reverse_refs.is_empty() {
            out.push(obj.oid);
        }
        Ok(())
    })?;
    Ok(out)
}

/// `(component-of Object1 Object2)`: is `o1` a direct or indirect
/// component of `o2`? Answered by walking **up** from `o1`, which is
/// bounded by `o1`'s ancestor set rather than `o2`'s (usually much
/// larger) component set.
pub fn component_of(view: &mut impl ReadView, o1: Oid, o2: Oid) -> DbResult<bool> {
    Ok(ancestors_of(view, o1, &Filter::all())?.contains(&o2))
}
