//! Operations on composite objects (paper §3).
//!
//! §3.1: `components-of`, `parents-of`, `ancestors-of`, each taking an
//! optional class list and Exclusive/Shared switches; `components-of` also
//! takes a Level bound ("a level n component of O' if the shortest path
//! between O and O' has n composite references").
//!
//! §3.2: the predicates `compositep`, `exclusive-compositep`,
//! `shared-compositep`, `dependent-compositep` on classes, and
//! `component-of`, `child-of`, `exclusive-component-of`,
//! `shared-component-of` on instances.
//!
//! The walks themselves live in [`view`]; what is here is the
//! [`Filter`] and the engine's messages as adapters over them — a span,
//! one latency sample, and the engine as the view.

use crate::composite::view;
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::oid::{ClassId, Oid};

/// Argument bundle for the §3.1 traversal messages: `[ListofClasses]
/// [Exclusive] [Shared]` (+ `[Level]` for `components-of`).
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Restrict results to instances of these classes (subclass instances
    /// included). `None` = all classes.
    pub classes: Option<Vec<ClassId>>,
    /// "If Exclusive is True, only the exclusive components are retrieved."
    pub exclusive: bool,
    /// "If Shared is True, only shared components are retrieved."
    pub shared: bool,
    /// "Return components of a given object up to the specified Level."
    /// `None` = unbounded. Only honoured by `components-of`.
    pub level: Option<usize>,
}

impl Filter {
    /// No restriction: all components/parents/ancestors.
    pub fn all() -> Self {
        Filter::default()
    }

    /// Restrict to the given classes.
    pub fn classes(mut self, classes: Vec<ClassId>) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Only exclusive references.
    pub fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }

    /// Only shared references.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Bound the traversal depth.
    pub fn level(mut self, n: usize) -> Self {
        self.level = Some(n);
        self
    }

    /// Does an edge of the given exclusivity pass the Exclusive/Shared
    /// switches? "If both Exclusive and Shared are Nil, all components are
    /// retrieved" — and both True likewise admits every edge (asking for
    /// exclusive *and* shared components is asking for all of them).
    pub fn admits_edge(&self, edge_exclusive: bool) -> bool {
        match (self.exclusive, self.shared) {
            (false, false) | (true, true) => true,
            (true, false) => edge_exclusive,
            (false, true) => !edge_exclusive,
        }
    }
}

impl Database {
    /// `(components-of Object [ListofClasses] [Exclusive] [Shared] [Level])`
    ///
    /// Returns the component set of `object`: "all objects directly or
    /// indirectly referenced from O via composite references" (§2.2), BFS
    /// order (so level-n components appear before level-n+1 ones).
    pub fn components_of(&self, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
        let _span = corion_obs::span("core", "components_of");
        let _timer = self.metrics.components_of_latency.start_timer();
        view::components_of(&mut &*self, object, filter)
    }

    /// `(parents-of Object [ListofClasses] [Exclusive] [Shared])` — the
    /// *parent set*: objects with a **direct** composite reference to
    /// `object`, answered from its reverse composite references (§2.4).
    pub fn parents_of(&self, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
        let _span = corion_obs::span("core", "parents_of");
        let _timer = self.metrics.parents_of_latency.start_timer();
        view::parents_of(&mut &*self, object, filter)
    }

    /// `(ancestors-of Object [ListofClasses] [Exclusive] [Shared])` — the
    /// *ancestor set*: objects with a direct **or indirect** composite
    /// reference to `object`, nearest first.
    pub fn ancestors_of(&self, object: Oid, filter: &Filter) -> DbResult<Vec<Oid>> {
        let _span = corion_obs::span("core", "ancestors_of");
        let _timer = self.metrics.ancestors_of_latency.start_timer();
        view::ancestors_of(&mut &*self, object, filter)
    }

    /// The roots of every composite object containing `object`: its
    /// ancestors (plus itself) that have no composite parents.
    pub fn roots_of(&self, object: Oid) -> DbResult<Vec<Oid>> {
        let _span = corion_obs::span("core", "roots_of");
        let _timer = self.metrics.ancestors_of_latency.start_timer();
        view::roots_of(&mut &*self, object)
    }

    // ------------------------------------------------------------------
    // Parallel batch traversals
    // ------------------------------------------------------------------

    /// [`Database::components_of`] for a batch of objects, fanned out over
    /// scoped threads (the read path is `&self` and internally
    /// synchronised). Results align with `objects`, each carrying its own
    /// per-object verdict.
    pub fn components_of_many(&self, objects: &[Oid], filter: &Filter) -> Vec<DbResult<Vec<Oid>>> {
        self.fan_out(objects, |db, oid| db.components_of(oid, filter))
    }

    /// [`Database::ancestors_of`] for a batch of objects, fanned out over
    /// scoped threads. Results align with `objects`.
    pub fn ancestors_of_many(&self, objects: &[Oid], filter: &Filter) -> Vec<DbResult<Vec<Oid>>> {
        self.fan_out(objects, |db, oid| db.ancestors_of(oid, filter))
    }

    /// Runs `op` over `objects` on up to `available_parallelism` scoped
    /// threads, each taking a contiguous chunk. Falls back to the calling
    /// thread for batches of one (or machines reporting one core).
    fn fan_out<T: Send>(
        &self,
        objects: &[Oid],
        op: impl Fn(&Self, Oid) -> DbResult<T> + Sync,
    ) -> Vec<DbResult<T>> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(objects.len());
        if workers <= 1 {
            return objects.iter().map(|&o| op(self, o)).collect();
        }
        let chunk = objects.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = objects
                .chunks(chunk)
                .map(|part| {
                    let op = &op;
                    scope.spawn(move || part.iter().map(|&o| op(self, o)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("traversal worker panicked"))
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // §3.2 predicates — classes
    // ------------------------------------------------------------------

    /// `(compositep Class [AttributeName])`.
    pub fn compositep(&self, class: ClassId, attr: Option<&str>) -> DbResult<bool> {
        let _timer = self.metrics.predicate_latency.start_timer();
        let c = self.catalog.class(class)?;
        Ok(match attr {
            None => c.compositep(),
            Some(name) => c
                .attr(name)
                .ok_or_else(|| DbError::NoSuchAttribute {
                    class,
                    attr: name.into(),
                })?
                .composite
                .is_some(),
        })
    }

    /// `(exclusive-compositep Class [AttributeName])`.
    pub fn exclusive_compositep(&self, class: ClassId, attr: Option<&str>) -> DbResult<bool> {
        self.compositep_matching(class, attr, |s| s.exclusive)
    }

    /// `(shared-compositep Class [AttributeName])`.
    pub fn shared_compositep(&self, class: ClassId, attr: Option<&str>) -> DbResult<bool> {
        self.compositep_matching(class, attr, |s| !s.exclusive)
    }

    /// `(dependent-compositep Class [AttributeName])`.
    pub fn dependent_compositep(&self, class: ClassId, attr: Option<&str>) -> DbResult<bool> {
        self.compositep_matching(class, attr, |s| s.dependent)
    }

    fn compositep_matching(
        &self,
        class: ClassId,
        attr: Option<&str>,
        pred: impl Fn(crate::schema::attr::CompositeSpec) -> bool,
    ) -> DbResult<bool> {
        let _timer = self.metrics.predicate_latency.start_timer();
        let c = self.catalog.class(class)?;
        Ok(match attr {
            None => c
                .attrs
                .iter()
                .any(|a| a.composite.map(&pred).unwrap_or(false)),
            Some(name) => c
                .attr(name)
                .ok_or_else(|| DbError::NoSuchAttribute {
                    class,
                    attr: name.into(),
                })?
                .composite
                .map(pred)
                .unwrap_or(false),
        })
    }

    // ------------------------------------------------------------------
    // §3.2 predicates — instances
    // ------------------------------------------------------------------

    /// `(component-of Object1 Object2)`: is `o1` a direct or indirect
    /// component of `o2`? Answered by walking **up** from `o1` through
    /// reverse references, which is bounded by `o1`'s ancestor set rather
    /// than `o2`'s (usually much larger) component set.
    pub fn component_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        let _span = corion_obs::span("core", "component_of");
        let _timer = self.metrics.predicate_latency.start_timer();
        view::component_of(&mut &*self, o1, o2)
    }

    /// `(child-of Object1 Object2)`: is `o1` a **direct** component of `o2`?
    pub fn child_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        let _timer = self.metrics.predicate_latency.start_timer();
        Ok(view::parents_of(&mut &*self, o1, &Filter::all())?.contains(&o2))
    }

    /// `(exclusive-component-of Object1 Object2)`: True if `o1` is an
    /// exclusive component of `o2`; Nil if it is not a component at all or a
    /// shared one.
    pub fn exclusive_component_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        self.component_held(o1, o2, &Filter::all().exclusive())
    }

    /// `(shared-component-of Object1 Object2)`: True if `o1` is a shared
    /// component of `o2`. The paper notes this equals `component-of` ∧
    /// ¬`exclusive-component-of`, which by Topology Rule 3 reduces to a flag
    /// test on `o1`.
    pub fn shared_component_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        self.component_held(o1, o2, &Filter::all().shared())
    }

    /// Is `o1` a component of `o2` *and* held by some parent through a
    /// reference of the kind `held` admits?
    fn component_held(&self, o1: Oid, o2: Oid, held: &Filter) -> DbResult<bool> {
        let _timer = self.metrics.predicate_latency.start_timer();
        let view = &mut &*self;
        Ok(!view::parents_of(view, o1, held)?.is_empty() && view::component_of(view, o1, o2)?)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::schema::attr::{CompositeSpec, Domain};
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;

    /// Three-level hierarchy: Book --(excl dep)--> Chapter --(shared dep)-->
    /// Paragraph, plus Book --(ind shared)--> Image.
    struct Fixture {
        db: Database,
        book: ClassId,
        chapter: ClassId,
        paragraph: ClassId,
        image: ClassId,
    }

    fn fixture() -> Fixture {
        let mut db = Database::new();
        let paragraph = db.define_class(ClassBuilder::new("Paragraph")).unwrap();
        let image = db.define_class(ClassBuilder::new("Image")).unwrap();
        let chapter = db
            .define_class(ClassBuilder::new("Chapter").attr_composite(
                "paras",
                Domain::SetOf(Box::new(Domain::Class(paragraph))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        let book = db
            .define_class(
                ClassBuilder::new("Book")
                    .attr_composite(
                        "chapters",
                        Domain::SetOf(Box::new(Domain::Class(chapter))),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    )
                    .attr_composite(
                        "figures",
                        Domain::SetOf(Box::new(Domain::Class(image))),
                        CompositeSpec {
                            exclusive: false,
                            dependent: false,
                        },
                    ),
            )
            .unwrap();
        Fixture {
            db,
            book,
            chapter,
            paragraph,
            image,
        }
    }

    struct Built {
        book: Oid,
        ch1: Oid,
        ch2: Oid,
        p1: Oid,
        p2: Oid,
        img: Oid,
    }

    fn build(f: &mut Fixture) -> Built {
        let db = &mut f.db;
        let p1 = db.make(f.paragraph, vec![], vec![]).unwrap();
        let p2 = db.make(f.paragraph, vec![], vec![]).unwrap();
        let img = db.make(f.image, vec![], vec![]).unwrap();
        let ch1 = db
            .make(
                f.chapter,
                vec![("paras", Value::Set(vec![Value::Ref(p1), Value::Ref(p2)]))],
                vec![],
            )
            .unwrap();
        let ch2 = db
            .make(
                f.chapter,
                vec![("paras", Value::Set(vec![Value::Ref(p2)]))],
                vec![],
            )
            .unwrap();
        let book = db
            .make(
                f.book,
                vec![
                    (
                        "chapters",
                        Value::Set(vec![Value::Ref(ch1), Value::Ref(ch2)]),
                    ),
                    ("figures", Value::Set(vec![Value::Ref(img)])),
                ],
                vec![],
            )
            .unwrap();
        Built {
            book,
            ch1,
            ch2,
            p1,
            p2,
            img,
        }
    }

    #[test]
    fn components_of_returns_full_component_set() {
        let mut f = fixture();
        let b = build(&mut f);
        let comps = f.db.components_of(b.book, &Filter::all()).unwrap();
        let set: HashSet<Oid> = comps.iter().copied().collect();
        assert_eq!(set, [b.ch1, b.ch2, b.p1, b.p2, b.img].into_iter().collect());
    }

    #[test]
    fn components_of_level_one_is_direct_children() {
        let mut f = fixture();
        let b = build(&mut f);
        let comps = f.db.components_of(b.book, &Filter::all().level(1)).unwrap();
        let set: HashSet<Oid> = comps.iter().copied().collect();
        assert_eq!(set, [b.ch1, b.ch2, b.img].into_iter().collect());
    }

    #[test]
    fn components_of_class_filter() {
        let mut f = fixture();
        let b = build(&mut f);
        let paragraph = f.paragraph;
        let comps =
            f.db.components_of(b.book, &Filter::all().classes(vec![paragraph]))
                .unwrap();
        let set: HashSet<Oid> = comps.iter().copied().collect();
        assert_eq!(set, [b.p1, b.p2].into_iter().collect());
    }

    #[test]
    fn components_of_exclusive_only_follows_exclusive_edges() {
        let mut f = fixture();
        let b = build(&mut f);
        let comps =
            f.db.components_of(b.book, &Filter::all().exclusive())
                .unwrap();
        let set: HashSet<Oid> = comps.iter().copied().collect();
        // Only chapters reach via exclusive edges; paragraphs hang off
        // shared edges and the image is shared too.
        assert_eq!(set, [b.ch1, b.ch2].into_iter().collect());
    }

    #[test]
    fn components_of_shared_only() {
        let mut f = fixture();
        let b = build(&mut f);
        let comps = f.db.components_of(b.book, &Filter::all().shared()).unwrap();
        let set: HashSet<Oid> = comps.iter().copied().collect();
        // Shared-only traversal cannot pass the exclusive book->chapter
        // edges, so only the image is reached.
        assert_eq!(set, [b.img].into_iter().collect());
    }

    #[test]
    fn bfs_order_is_by_level() {
        let mut f = fixture();
        let b = build(&mut f);
        let comps = f.db.components_of(b.book, &Filter::all()).unwrap();
        let pos = |o: Oid| {
            comps
                .iter()
                .position(|&x| x == o)
                .expect("component present")
        };
        assert!(pos(b.ch1) < pos(b.p1), "level-1 before level-2");
    }

    #[test]
    fn parents_and_ancestors() {
        let mut f = fixture();
        let b = build(&mut f);
        let parents = f.db.parents_of(b.p2, &Filter::all()).unwrap();
        let pset: HashSet<Oid> = parents.iter().copied().collect();
        assert_eq!(pset, [b.ch1, b.ch2].into_iter().collect());
        let anc = f.db.ancestors_of(b.p2, &Filter::all()).unwrap();
        let aset: HashSet<Oid> = anc.iter().copied().collect();
        assert_eq!(aset, [b.ch1, b.ch2, b.book].into_iter().collect());
    }

    #[test]
    fn parents_of_with_shared_filter() {
        let mut f = fixture();
        let b = build(&mut f);
        assert_eq!(
            f.db.parents_of(b.ch1, &Filter::all().shared()).unwrap(),
            Vec::<Oid>::new()
        );
        assert_eq!(
            f.db.parents_of(b.ch1, &Filter::all().exclusive()).unwrap(),
            vec![b.book]
        );
    }

    #[test]
    fn roots_of_finds_hierarchy_roots() {
        let mut f = fixture();
        let b = build(&mut f);
        assert_eq!(f.db.roots_of(b.p1).unwrap(), vec![b.book]);
        assert_eq!(
            f.db.roots_of(b.book).unwrap(),
            vec![b.book],
            "a root's root is itself"
        );
    }

    #[test]
    fn class_predicates() {
        let f = fixture();
        let db = &f.db;
        assert!(db.compositep(f.book, None).unwrap());
        assert!(db.compositep(f.book, Some("chapters")).unwrap());
        assert!(!db.compositep(f.paragraph, None).unwrap());
        assert!(db.exclusive_compositep(f.book, Some("chapters")).unwrap());
        assert!(!db.exclusive_compositep(f.book, Some("figures")).unwrap());
        assert!(db.shared_compositep(f.book, Some("figures")).unwrap());
        assert!(db.dependent_compositep(f.book, Some("chapters")).unwrap());
        assert!(!db.dependent_compositep(f.book, Some("figures")).unwrap());
        assert!(db.shared_compositep(f.chapter, None).unwrap());
        assert!(db.compositep(f.book, Some("missing")).is_err());
    }

    #[test]
    fn instance_predicates() {
        let mut f = fixture();
        let b = build(&mut f);
        let db = &mut f.db;
        assert!(db.component_of(b.p1, b.book).unwrap(), "indirect component");
        assert!(db.component_of(b.ch1, b.book).unwrap(), "direct component");
        assert!(!db.component_of(b.book, b.p1).unwrap(), "not symmetric");
        assert!(!db.component_of(b.book, b.book).unwrap(), "not reflexive");
        assert!(db.child_of(b.ch1, b.book).unwrap());
        assert!(
            !db.child_of(b.p1, b.book).unwrap(),
            "child-of is direct only"
        );
        assert!(db.exclusive_component_of(b.ch1, b.book).unwrap());
        assert!(!db.shared_component_of(b.ch1, b.book).unwrap());
        assert!(db.shared_component_of(b.p1, b.book).unwrap());
        assert!(!db.exclusive_component_of(b.p1, b.book).unwrap());
    }

    #[test]
    fn ancestors_answer_the_reverse_component_question() {
        // §3.2: "there is no need to define a message for determining if an
        // Object1 belongs to the ancestor set of an Object2, since … the
        // message component-of can be used" with swapped arguments.
        let mut f = fixture();
        let b = build(&mut f);
        assert!(f.db.component_of(b.p1, b.book).unwrap());
        let anc = f.db.ancestors_of(b.p1, &Filter::all()).unwrap();
        assert!(anc.contains(&b.book));
    }

    #[test]
    fn traversals_reject_missing_objects() {
        let f = fixture();
        let ghost = Oid::new(f.paragraph, 999);
        assert!(f.db.components_of(ghost, &Filter::all()).is_err());
        assert!(f.db.ancestors_of(ghost, &Filter::all()).is_err());
        assert!(f.db.parents_of(ghost, &Filter::all()).is_err());
        assert!(f.db.roots_of(ghost).is_err());
        assert!(f.db.component_of(ghost, ghost).is_err());
    }

    #[test]
    fn admits_edge_switch_semantics() {
        // "If both Exclusive and Shared are Nil, all components are
        // retrieved" — and both True likewise admits everything.
        for filter in [Filter::all(), Filter::all().exclusive().shared()] {
            assert!(filter.admits_edge(true));
            assert!(filter.admits_edge(false));
        }
        // Exclusive-only admits exactly the exclusive edges…
        let excl = Filter::all().exclusive();
        assert!(excl.admits_edge(true));
        assert!(!excl.admits_edge(false));
        // …and shared-only exactly the shared ones.
        let shared = Filter::all().shared();
        assert!(!shared.admits_edge(true));
        assert!(shared.admits_edge(false));
    }

    /// Diamond of shared references: root -> {a, b} -> leaf. The leaf's
    /// shortest path from the root has two composite references, so it is a
    /// level-2 component (§3.1) and must appear exactly once despite being
    /// reachable along both arms.
    fn diamond() -> (Database, Oid, Oid, Oid, Oid) {
        let mut db = Database::new();
        let node = db.define_class(ClassBuilder::new("Node")).unwrap();
        db.add_attribute(
            node,
            crate::schema::attr::AttributeDef::composite(
                "kids",
                Domain::SetOf(Box::new(Domain::Class(node))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ),
        )
        .unwrap();
        let leaf = db.make(node, vec![], vec![]).unwrap();
        let a = db
            .make(
                node,
                vec![("kids", Value::Set(vec![Value::Ref(leaf)]))],
                vec![],
            )
            .unwrap();
        let b = db
            .make(
                node,
                vec![("kids", Value::Set(vec![Value::Ref(leaf)]))],
                vec![],
            )
            .unwrap();
        let root = db
            .make(
                node,
                vec![("kids", Value::Set(vec![Value::Ref(a), Value::Ref(b)]))],
                vec![],
            )
            .unwrap();
        (db, root, a, b, leaf)
    }

    #[test]
    fn level_bounded_components_on_shared_diamond() {
        let (db, root, a, b, leaf) = diamond();
        let level1 = db.components_of(root, &Filter::all().level(1)).unwrap();
        assert_eq!(
            level1.iter().copied().collect::<HashSet<_>>(),
            [a, b].into()
        );
        let level2 = db.components_of(root, &Filter::all().level(2)).unwrap();
        assert_eq!(
            level2.iter().copied().collect::<HashSet<_>>(),
            [a, b, leaf].into()
        );
        assert_eq!(level2.len(), 3, "shared leaf reported once, not per-path");
        // Unbounded equals the level-2 bound here (the diamond is 2 deep),
        // and a level-0 bound yields nothing.
        assert_eq!(db.components_of(root, &Filter::all()).unwrap(), level2);
        assert_eq!(
            db.components_of(root, &Filter::all().level(0)).unwrap(),
            vec![]
        );
        // The leaf's ancestors see the whole diamond from below.
        let anc = db.ancestors_of(leaf, &Filter::all()).unwrap();
        assert_eq!(
            anc.iter().copied().collect::<HashSet<_>>(),
            [a, b, root].into()
        );
    }

    #[test]
    fn batch_traversals_match_single_object_calls() {
        let mut f = fixture();
        let b = build(&mut f);
        let objects = [
            b.book,
            b.ch1,
            b.ch2,
            b.p1,
            b.p2,
            b.img,
            Oid::new(f.paragraph, 999),
        ];
        for filter in [
            Filter::all(),
            Filter::all().exclusive(),
            Filter::all().level(1),
        ] {
            let batch = f.db.components_of_many(&objects, &filter);
            assert_eq!(batch.len(), objects.len());
            for (&oid, got) in objects.iter().zip(&batch) {
                assert_eq!(
                    got.as_ref().ok(),
                    f.db.components_of(oid, &filter).as_ref().ok()
                );
            }
            assert!(
                batch.last().unwrap().is_err(),
                "missing object reports its own error"
            );
            let batch = f.db.ancestors_of_many(&objects, &filter);
            for (&oid, got) in objects.iter().zip(&batch) {
                assert_eq!(
                    got.as_ref().ok(),
                    f.db.ancestors_of(oid, &filter).as_ref().ok()
                );
            }
        }
        assert!(f.db.components_of_many(&[], &Filter::all()).is_empty());
    }
}
