//! The reference §3 walks: an oracle that shares nothing with the engine's
//! one walk (`corion::view`).
//!
//! Plain `Database::get` + the class layout, every object read (no leaf
//! skip, no `ReadView`), queue-at-discovery breadth-first — the bodies the
//! engine's `_uncached` methods had before the walks were merged. The
//! suites compare the one walk against these over `&Database` and over a
//! pinned `Snapshot`; answers are compared in order, so the two must also
//! agree on "nearest first".

#![allow(dead_code)]

use std::collections::{HashSet, VecDeque};

use corion::{ClassId, CompositeSpec, Database, DbError, DbResult, Filter, Oid};

fn admits_class(db: &Database, filter: &Filter, class: ClassId) -> bool {
    match &filter.classes {
        None => true,
        Some(cs) => cs.iter().any(|&c| db.is_subclass_of(class, c)),
    }
}

/// Every forward composite reference `oid` holds, in class layout order.
fn forward_composite_refs(db: &Database, oid: Oid) -> DbResult<Vec<(CompositeSpec, Oid)>> {
    let obj = db.get(oid)?;
    let class = db.class(oid.class)?;
    let mut out = Vec::new();
    for (idx, def) in class.attrs.iter().enumerate() {
        if let Some(spec) = def.composite {
            for child in obj.attrs[idx].refs() {
                out.push((spec, child));
            }
        }
    }
    Ok(out)
}

pub fn components_of(db: &Database, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    if !db.exists(object) {
        return Err(DbError::NoSuchObject(object));
    }
    let mut seen = HashSet::from([object]);
    let mut out = Vec::new();
    let mut frontier = VecDeque::from([(object, 0usize)]);
    while let Some((oid, depth)) = frontier.pop_front() {
        if filter.level.is_some_and(|max| depth >= max) {
            continue;
        }
        for (spec, child) in forward_composite_refs(db, oid)? {
            if !filter.admits_edge(spec.exclusive) {
                continue;
            }
            if !db.exists(child) || !seen.insert(child) {
                continue;
            }
            if admits_class(db, filter, child.class) {
                out.push(child);
            }
            frontier.push_back((child, depth + 1));
        }
    }
    Ok(out)
}

/// The wire's `SubtreeOf`: the object and its whole component set, empty
/// if it does not exist.
pub fn subtree_of(db: &Database, object: Oid) -> Vec<Oid> {
    match components_of(db, object, &Filter::all()) {
        Ok(below) => [object].into_iter().chain(below).collect(),
        Err(_) => vec![],
    }
}

pub fn parents_of(db: &Database, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    let obj = db.get(object)?;
    let mut out = Vec::new();
    for rr in &obj.reverse_refs {
        if filter.admits_edge(rr.exclusive)
            && admits_class(db, filter, rr.parent.class)
            && !out.contains(&rr.parent)
        {
            out.push(rr.parent);
        }
    }
    Ok(out)
}

pub fn ancestors_of(db: &Database, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
    if !db.exists(object) {
        return Err(DbError::NoSuchObject(object));
    }
    let mut seen = HashSet::from([object]);
    let mut out = Vec::new();
    let mut frontier = VecDeque::from([object]);
    while let Some(oid) = frontier.pop_front() {
        for rr in &db.get(oid)?.reverse_refs {
            if !filter.admits_edge(rr.exclusive) {
                continue;
            }
            if !db.exists(rr.parent) || !seen.insert(rr.parent) {
                continue;
            }
            if admits_class(db, filter, rr.parent.class) {
                out.push(rr.parent);
            }
            frontier.push_back(rr.parent);
        }
    }
    Ok(out)
}

pub fn roots_of(db: &Database, object: Oid) -> DbResult<Vec<Oid>> {
    let mut candidates = ancestors_of(db, object, &Filter::all())?;
    candidates.insert(0, object);
    let mut out = Vec::new();
    for c in candidates {
        if db.get(c)?.reverse_refs.is_empty() {
            out.push(c);
        }
    }
    Ok(out)
}

/// The six filter kinds the suites sweep; `class` feeds the class list.
pub fn filter_for(kind: u8, class: ClassId) -> Filter {
    match kind % 6 {
        0 => Filter::all(),
        1 => Filter::all().exclusive(),
        2 => Filter::all().shared(),
        3 => Filter::all().exclusive().shared(),
        4 => Filter::all().level(2),
        _ => Filter::all().classes(vec![class]),
    }
}

/// What the reference says about one object under one filter; `None`
/// where the object does not exist.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    pub components: Option<Vec<Oid>>,
    pub parents: Option<Vec<Oid>>,
    pub ancestors: Option<Vec<Oid>>,
    pub roots: Option<Vec<Oid>>,
}

pub fn answers(db: &Database, oid: Oid, filter: &Filter) -> Answers {
    Answers {
        components: components_of(db, oid, filter).ok(),
        parents: parents_of(db, oid, filter).ok(),
        ancestors: ancestors_of(db, oid, filter).ok(),
        roots: roots_of(db, oid).ok(),
    }
}

/// The same four questions put to the engine's public messages.
pub fn engine_answers(db: &Database, oid: Oid, filter: &Filter) -> Answers {
    Answers {
        components: db.components_of(oid, filter).ok(),
        parents: db.parents_of(oid, filter).ok(),
        ancestors: db.ancestors_of(oid, filter).ok(),
        roots: db.roots_of(oid).ok(),
    }
}

/// …and to the one walk over any other view (a pinned snapshot's).
pub fn walk_answers(view: &mut impl corion::ReadView, oid: Oid, filter: &Filter) -> Answers {
    use corion::view;
    Answers {
        components: view::components_of(view, oid, filter).ok(),
        parents: view::parents_of(view, oid, filter).ok(),
        ancestors: view::ancestors_of(view, oid, filter).ok(),
        roots: view::roots_of(view, oid).ok(),
    }
}
