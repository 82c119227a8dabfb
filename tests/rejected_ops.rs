//! A rejected operation leaves no trace.
//!
//! Every mutating message runs in an operation scope of the overlay it
//! writes into (DESIGN.md §13): when the engine refuses it — even after
//! the operation already wrote something — the write set is put back as
//! it was. This suite drives each message with an input that is refused
//! *after* at least one write, where the message has such an input, and
//! a plainly refused one otherwise, through the four ways a message
//! reaches the engine:
//!
//! * `Database` autocommit,
//! * inside `Database::begin_transaction`,
//! * a `WriteTxn`, then `commit`,
//! * a wire session: `Begin`, the message, `Commit`.
//!
//! On every path the error comes back typed, the state the session sees
//! is what it saw before the message, the transaction stays usable, and
//! after commit the engine passes `verify_integrity` and holds exactly
//! what the accepted messages wrote.

use std::collections::BTreeMap;

use corion::{
    AuthStore, ClassBuilder, ClassId, Client, ClientError, CompositeSpec, ConcurrentDb, Database,
    DbError, Domain, ErrorCode, MakeSpec, Oid, ParentRef, Server, ServerConfig, Value, WriteTxn,
};

/// The seeded world every case runs against.
#[derive(Clone, Copy)]
struct World {
    item: ClassId,
    holder: ClassId,
    cell: ClassId,
    /// Free items.
    i1: Oid,
    i3: Oid,
    /// Exclusively owned by `h1`.
    i2: Oid,
    h1: Oid,
    /// A holder with no slots filled.
    h2: Oid,
    /// `c.single` holds `d`, dependent and exclusive.
    c: Oid,
    d: Oid,
}

impl World {
    fn classes(&self) -> [ClassId; 3] {
        [self.item, self.holder, self.cell]
    }
}

fn seed(db: &mut Database) -> World {
    let exclusive_dependent = CompositeSpec {
        exclusive: true,
        dependent: true,
    };
    let item = db
        .define_class(
            ClassBuilder::new("Item")
                .attr("n", Domain::Integer)
                .attr("friend", Domain::Any),
        )
        .unwrap();
    let holder = db
        .define_class(ClassBuilder::new("Holder").attr_composite(
            "slots",
            Domain::SetOf(Box::new(Domain::Class(item))),
            exclusive_dependent,
        ))
        .unwrap();
    let cell = db
        .define_class(ClassBuilder::new("Cell").attr_composite(
            "single",
            Domain::Class(item),
            exclusive_dependent,
        ))
        .unwrap();
    let mut mk = |n| db.make(item, vec![("n", Value::Int(n))], vec![]).unwrap();
    let (i1, i2, i3, d) = (mk(1), mk(2), mk(3), mk(4));
    let h1 = db
        .make(
            holder,
            vec![("slots", Value::Set(vec![Value::Ref(i2)]))],
            vec![],
        )
        .unwrap();
    let h2 = db.make(holder, vec![], vec![]).unwrap();
    let c = db
        .make(cell, vec![("single", Value::Ref(d))], vec![])
        .unwrap();
    World {
        item,
        holder,
        cell,
        i1,
        i3,
        i2,
        h1,
        h2,
        c,
        d,
    }
}

/// What a session sees: every instance of the world's classes, with its
/// attribute values and composite parents.
type Fingerprint = BTreeMap<Oid, (Vec<Value>, Vec<Oid>)>;

/// One way a message reaches the engine.
trait Session {
    fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> Result<Oid, ErrorCode>;
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<(), ErrorCode>;
    fn delete(&mut self, oid: Oid) -> Result<(), ErrorCode>;
    fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode>;
    fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode>;
    /// The state as this session sees it (own writes included).
    fn fingerprint(&mut self, w: &World) -> Fingerprint;
    /// Commits what is open, then audits the committed engine and
    /// returns its state.
    fn finish(self: Box<Self>, w: &World) -> Fingerprint;
}

fn code(e: DbError) -> ErrorCode {
    ErrorCode::from(&e)
}

fn committed(db: &mut Database, w: &World) -> Fingerprint {
    db.verify_integrity().unwrap();
    state_of(db, w)
}

fn state_of(db: &Database, w: &World) -> Fingerprint {
    let mut out = Fingerprint::new();
    for class in w.classes() {
        for oid in db.instances_of(class, false) {
            let obj = db.get(oid).unwrap();
            out.insert(oid, (obj.attrs.clone(), obj.composite_parents()));
        }
    }
    out
}

/// `Database`, autocommit or inside one open transaction.
struct Direct {
    db: Database,
    in_txn: bool,
}

impl Session for Direct {
    fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> Result<Oid, ErrorCode> {
        self.db.make(class, values, parents).map_err(code)
    }
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<(), ErrorCode> {
        self.db.set_attr(oid, attr, value).map_err(code)
    }
    fn delete(&mut self, oid: Oid) -> Result<(), ErrorCode> {
        self.db.delete(oid).map(|_| ()).map_err(code)
    }
    fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.db.make_component(child, parent, attr).map_err(code)
    }
    fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.db.remove_component(child, parent, attr).map_err(code)
    }
    fn fingerprint(&mut self, w: &World) -> Fingerprint {
        state_of(&self.db, w)
    }
    fn finish(mut self: Box<Self>, w: &World) -> Fingerprint {
        if self.in_txn {
            self.db.commit_transaction().unwrap();
        }
        committed(&mut self.db, w)
    }
}

/// A `WriteTxn` over a `ConcurrentDb`.
struct Concurrent {
    cdb: ConcurrentDb,
    txn: WriteTxn,
}

impl Session for Concurrent {
    fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> Result<Oid, ErrorCode> {
        self.txn.make(class, values, parents).map_err(code)
    }
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<(), ErrorCode> {
        self.txn.set_attr(oid, attr, value).map_err(code)
    }
    fn delete(&mut self, oid: Oid) -> Result<(), ErrorCode> {
        self.txn.delete(oid).map(|_| ()).map_err(code)
    }
    fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.txn.make_component(child, parent, attr).map_err(code)
    }
    fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.txn.remove_component(child, parent, attr).map_err(code)
    }
    fn fingerprint(&mut self, w: &World) -> Fingerprint {
        let mut out = Fingerprint::new();
        for class in w.classes() {
            let oids = self
                .txn
                .with_view(&[], |v| Ok(v.instances_of(class, false)))
                .unwrap();
            for oid in oids {
                let obj = self.txn.get(oid).unwrap();
                out.insert(oid, (obj.attrs.clone(), obj.composite_parents()));
            }
        }
        out
    }
    fn finish(self: Box<Self>, w: &World) -> Fingerprint {
        let this = *self;
        this.txn.commit().unwrap();
        this.cdb.with_exclusive(|db| committed(db, w))
    }
}

/// A wire session with an open `Begin`.
struct Wire {
    cdb: ConcurrentDb,
    server: Server,
    client: Client,
}

fn wire_code(e: ClientError) -> ErrorCode {
    e.code()
        .unwrap_or_else(|| panic!("not a server error: {e}"))
}

impl Session for Wire {
    fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> Result<Oid, ErrorCode> {
        let values = values.into_iter().map(|(n, v)| (n.into(), v)).collect();
        let parents = parents.into_iter().map(|(o, a)| (o, a.into())).collect();
        self.client.make(class, values, parents).map_err(wire_code)
    }
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<(), ErrorCode> {
        self.client.set_attr(oid, attr, value).map_err(wire_code)
    }
    fn delete(&mut self, oid: Oid) -> Result<(), ErrorCode> {
        self.client.delete(oid).map(|_| ()).map_err(wire_code)
    }
    fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.client
            .make_component(child, parent, attr)
            .map_err(wire_code)
    }
    fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> Result<(), ErrorCode> {
        self.client
            .remove_component(child, parent, attr)
            .map_err(wire_code)
    }
    fn fingerprint(&mut self, w: &World) -> Fingerprint {
        let mut out = Fingerprint::new();
        for class in w.classes() {
            for oid in self.client.instances_of(class, false).unwrap() {
                let obj = self.client.get(oid).unwrap();
                let attrs = obj.attrs.into_iter().map(|(_, v)| v).collect();
                out.insert(oid, (attrs, obj.parents));
            }
        }
        out
    }
    fn finish(self: Box<Self>, w: &World) -> Fingerprint {
        let mut this = *self;
        this.client.commit().unwrap();
        drop(this.client);
        this.server.shutdown();
        this.cdb.with_exclusive(|db| committed(db, w))
    }
}

const PATHS: [&str; 4] = [
    "autocommit",
    "Database transaction",
    "WriteTxn",
    "wire session",
];

fn open(path: &str) -> (Box<dyn Session>, World) {
    let mut db = Database::new();
    let w = seed(&mut db);
    let session: Box<dyn Session> = match path {
        "autocommit" => Box::new(Direct { db, in_txn: false }),
        "Database transaction" => {
            db.begin_transaction().unwrap();
            Box::new(Direct { db, in_txn: true })
        }
        "WriteTxn" => {
            let cdb = ConcurrentDb::from_database(db);
            let txn = cdb.begin_write();
            Box::new(Concurrent { cdb, txn })
        }
        _ => {
            let cdb = ConcurrentDb::from_database(db);
            let server =
                Server::start(cdb.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
            let mut client = Client::connect(server.local_addr(), 0).unwrap();
            client.begin().unwrap();
            Box::new(Wire {
                cdb,
                server,
                client,
            })
        }
    };
    (session, w)
}

fn refs(oids: &[Oid]) -> Value {
    Value::Set(oids.iter().copied().map(Value::Ref).collect())
}

type Case = (
    &'static str,
    ErrorCode,
    fn(&mut dyn Session, &World) -> Result<(), ErrorCode>,
);

/// One refused input per mutating message; the first three are refused
/// only after the operation has already written.
const CASES: [Case; 6] = [
    (
        // Attaches i1 (a reverse reference lands in it), then finds i2
        // exclusively owned by h1.
        "set_attr: the second new component breaks the Make-Component Rule",
        ErrorCode::Constraint,
        |s, w| s.set_attr(w.h2, "slots", refs(&[w.i1, w.i2])),
    ),
    (
        // The holder exists and i1 is attached before i2 is refused.
        "make: the second reference of a composite value is refused",
        ErrorCode::Constraint,
        |s, w| {
            s.make(w.holder, vec![("slots", refs(&[w.i1, w.i2]))], vec![])
                .map(|_| ())
        },
    ),
    (
        // The first pair displaces d out of c.single, which deletes it (a
        // dependent orphan); the second pair then names an object that is
        // gone.
        "make: the second :parent pair is refused",
        ErrorCode::NoSuchObject,
        |s, w| {
            s.make(w.item, vec![], vec![(w.c, "single"), (w.d, "friend")])
                .map(|_| ())
        },
    ),
    (
        "make_component: the child is exclusively owned elsewhere",
        ErrorCode::Constraint,
        |s, w| s.make_component(w.i2, w.h2, "slots"),
    ),
    (
        "remove_component: the child is not a component of the parent",
        ErrorCode::NoSuchObject,
        |s, w| s.remove_component(w.i1, w.h2, "slots"),
    ),
    (
        "delete: the object does not exist",
        ErrorCode::NoSuchObject,
        |s, w| s.delete(Oid::new(w.item, 9_999)),
    ),
];

#[test]
fn a_rejected_operation_leaves_no_trace_on_any_entry_path() {
    for path in PATHS {
        for (case, want, run) in CASES {
            let (mut s, w) = open(path);
            // Something accepted first, so there is a write set to keep.
            let mine = s.make(w.item, vec![("n", Value::Int(10))], vec![]).unwrap();
            s.set_attr(w.i3, "n", Value::Int(30)).unwrap();
            let before = s.fingerprint(&w);

            let got = run(&mut *s, &w);
            assert_eq!(got, Err(want), "{path} / {case}");
            assert_eq!(
                s.fingerprint(&w),
                before,
                "{path} / {case}: the refused message left a trace"
            );

            // The transaction is still usable, and commits what it should.
            s.set_attr(mine, "n", Value::Int(11)).unwrap();
            s.make_component(w.i1, w.h2, "slots").unwrap();
            let mut want_final = before;
            want_final.get_mut(&mine).unwrap().0[0] = Value::Int(11);
            want_final.get_mut(&w.i1).unwrap().1 = vec![w.h2];
            want_final.get_mut(&w.h2).unwrap().0[0] = refs(&[w.i1]);
            assert_eq!(s.finish(&w), want_final, "{path} / {case}: committed state");
        }
    }
}

/// `make_many` is one operation too: a spec refused late takes the
/// earlier specs of the same call back out of an open transaction.
#[test]
fn a_rejected_make_many_leaves_an_open_transaction_as_it_was() {
    let mut db = Database::new();
    let w = seed(&mut db);
    db.begin_transaction().unwrap();
    let mine = db.make(w.item, vec![], vec![]).unwrap();
    let mut s = Direct { db, in_txn: true };
    let before = s.fingerprint(&w);
    let specs = [
        MakeSpec::new(w.holder),
        MakeSpec::new(w.item).parent(ParentRef::Created(0), "slots"),
        // Exclusively owned already: refused after two objects exist.
        MakeSpec::new(w.holder).value("slots", refs(&[w.i2])),
    ];
    assert!(matches!(
        s.db.make_many(&specs),
        Err(DbError::MakeComponentViolation { .. })
    ));
    assert_eq!(s.fingerprint(&w), before);
    s.db.set_attr(mine, "n", Value::Int(1)).unwrap();
    s.db.commit_transaction().unwrap();
    assert_eq!(s.db.get_attr(mine, "n").unwrap(), Value::Int(1));
    assert_eq!(s.db.instances_of(w.holder, false), vec![w.h1, w.h2]);
    s.db.verify_integrity().unwrap();
}
