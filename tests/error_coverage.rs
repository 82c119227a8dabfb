//! Exhaustive error-taxonomy coverage.
//!
//! Every [`StorageError`] and [`DbError`] variant must (1) render a
//! nonempty, variant-distinguishing `Display` message and (2) carry an
//! explicit retry classification: every storage error is permanent, and
//! only a deadlock victim is retryable, in process and on the wire. The
//! census functions
//! below pair with wildcard-free `match` guards, so adding a variant
//! without extending this test is a compile error — a new error can never
//! ship unclassified.

use corion::storage::StorageError;
use corion::{ClassId, DbError, ErrorClass, ErrorCode, Oid, RefKind};

/// One instance of every `StorageError` variant.
fn all_storage_errors() -> Vec<StorageError> {
    let all = vec![
        StorageError::RecordTooLarge {
            len: 9000,
            max: 4000,
        },
        StorageError::InvalidSlot { page: 3, slot: 7 },
        StorageError::InvalidPage { page: 12 },
        StorageError::InvalidSegment { segment: 5 },
        StorageError::PoolExhausted,
        StorageError::DanglingPhysId {
            segment: 1,
            page: 2,
            slot: 3,
        },
        StorageError::InjectedFault { op: "page:write" },
        StorageError::ReadOnly,
        StorageError::Truncated {
            context: "object header",
        },
        StorageError::Corrupt {
            context: "value tag 0xff",
        },
        StorageError::BatchAlreadyOpen,
        StorageError::NoBatchOpen,
        StorageError::NeedsRecovery,
        StorageError::TornWrite {
            op: "page write",
            kept: 512,
        },
        StorageError::ShortRead { op: "page read" },
        StorageError::LockConflict { holder: 4242 },
        StorageError::DeviceIo { op: "fsync" },
    ];
    // Compile-time exhaustiveness guard: a new variant fails this match
    // until it is added to the census above (and classified below).
    for e in &all {
        match e {
            StorageError::RecordTooLarge { .. }
            | StorageError::InvalidSlot { .. }
            | StorageError::InvalidPage { .. }
            | StorageError::InvalidSegment { .. }
            | StorageError::PoolExhausted
            | StorageError::DanglingPhysId { .. }
            | StorageError::InjectedFault { .. }
            | StorageError::ReadOnly
            | StorageError::Truncated { .. }
            | StorageError::Corrupt { .. }
            | StorageError::BatchAlreadyOpen
            | StorageError::NoBatchOpen
            | StorageError::NeedsRecovery
            | StorageError::TornWrite { .. }
            | StorageError::ShortRead { .. }
            | StorageError::LockConflict { .. }
            | StorageError::DeviceIo { .. } => {}
        }
    }
    all
}

/// One instance of every `DbError` variant.
fn all_db_errors() -> Vec<DbError> {
    let oid = Oid::new(ClassId(1), 5);
    let all = vec![
        DbError::NoSuchClassName("Vehicle".into()),
        DbError::NoSuchClass(ClassId(9)),
        DbError::NoSuchAttribute {
            class: ClassId(1),
            attr: "Body".into(),
        },
        DbError::NoSuchObject(oid),
        DbError::DuplicateClass("Vehicle".into()),
        DbError::DuplicateAttribute {
            class: ClassId(1),
            attr: "Body".into(),
        },
        DbError::DomainMismatch {
            attr: "Body".into(),
            expected: "ref to class c2".into(),
            got: "integer".into(),
        },
        DbError::TopologyViolation {
            rule: 3,
            object: oid,
            detail: "demo".into(),
        },
        DbError::MakeComponentViolation {
            object: oid,
            adding: RefKind::Composite {
                exclusive: true,
                dependent: true,
            },
            detail: "demo".into(),
        },
        DbError::CycleDetected {
            child: oid,
            parent: Oid::new(ClassId(1), 6),
        },
        DbError::SchemaChangeRejected {
            reason: "demo".into(),
        },
        DbError::LatticeCycle {
            class: ClassId(1),
            superclass: ClassId(2),
        },
        DbError::NotComposite {
            class: ClassId(1),
            attr: "note".into(),
        },
        DbError::TransactionState {
            reason: "demo".into(),
        },
        DbError::Deadlock {
            cycle: "t1 -> t2 -> t1".into(),
        },
        DbError::ReadOnly,
        DbError::Storage(StorageError::PoolExhausted),
    ];
    for e in &all {
        match e {
            DbError::NoSuchClassName(_)
            | DbError::NoSuchClass(_)
            | DbError::NoSuchAttribute { .. }
            | DbError::NoSuchObject(_)
            | DbError::DuplicateClass(_)
            | DbError::DuplicateAttribute { .. }
            | DbError::DomainMismatch { .. }
            | DbError::TopologyViolation { .. }
            | DbError::MakeComponentViolation { .. }
            | DbError::CycleDetected { .. }
            | DbError::SchemaChangeRejected { .. }
            | DbError::LatticeCycle { .. }
            | DbError::NotComposite { .. }
            | DbError::TransactionState { .. }
            | DbError::Deadlock { .. }
            | DbError::ReadOnly
            | DbError::Storage(_) => {}
        }
    }
    all
}

#[test]
fn every_storage_error_displays_distinctly() {
    let all = all_storage_errors();
    let mut rendered: Vec<String> = all.iter().map(|e| e.to_string()).collect();
    for (e, s) in all.iter().zip(&rendered) {
        assert!(!s.is_empty(), "{e:?} renders empty");
        assert!(
            !s.contains("Error") && !s.starts_with(char::is_uppercase),
            "{e:?} renders like a Debug dump, not a message: {s}"
        );
    }
    rendered.sort();
    rendered.dedup();
    assert_eq!(
        rendered.len(),
        all.len(),
        "two storage variants render identically"
    );
}

#[test]
fn every_db_error_displays_distinctly() {
    let all = all_db_errors();
    let mut rendered: Vec<String> = all.iter().map(|e| e.to_string()).collect();
    for (e, s) in all.iter().zip(&rendered) {
        assert!(!s.is_empty(), "{e:?} renders empty");
    }
    rendered.sort();
    rendered.dedup();
    assert_eq!(
        rendered.len(),
        all.len(),
        "two db variants render identically"
    );
}

/// Every `DbError` variant, plus every storage error wrapped as one — the
/// whole set an engine call can answer.
fn every_engine_answer() -> Vec<DbError> {
    let mut all = all_db_errors();
    all.extend(all_storage_errors().into_iter().map(DbError::from));
    all
}

#[test]
fn transient_classification_is_explicit_for_every_variant() {
    // Nothing maps to the wire's `TransientStorage`, which stays
    // decodable (code 2) and Retryable only so that older peers keep
    // parsing it.
    for e in every_engine_answer() {
        assert_ne!(
            ErrorCode::from(&e),
            ErrorCode::TransientStorage,
            "{e:?} maps to the reserved transient code"
        );
    }
    assert_eq!(ErrorCode::from_u16(2), ErrorCode::TransientStorage);
    assert_eq!(ErrorCode::TransientStorage.as_u16(), 2);
    assert_eq!(ErrorCode::TransientStorage.class(), ErrorClass::Retryable);
}

#[test]
fn retryable_classification_is_explicit_for_every_variant() {
    // Exactly one thing invites a retry: a deadlock-victim abort. Every
    // storage error is permanent — a device fault at the durability point
    // leaves the commit in doubt — and the wire class agrees.
    for e in every_engine_answer() {
        let expect = matches!(e, DbError::Deadlock { .. });
        assert_eq!(e.is_retryable(), expect, "{e:?} misclassified");
        assert_eq!(
            ErrorCode::from(&e).class() == ErrorClass::Retryable,
            expect,
            "{e:?} misclassified on the wire"
        );
    }
}

#[test]
fn conversion_preserves_the_taxonomy() {
    // Every storage error converts to a permanent DbError, and the
    // degraded-mode rejection surfaces as the typed engine variant.
    for e in all_storage_errors() {
        let converted: DbError = e.clone().into();
        assert!(!converted.is_retryable(), "{e:?} converted retryable");
        match e {
            StorageError::ReadOnly => assert_eq!(converted, DbError::ReadOnly),
            other => assert_eq!(converted, DbError::Storage(other)),
        }
    }
}

/// Everything that works on committed state — DDL, `dump`, `repair`,
/// `scrub`, `checkpoint`, `sync`, raw overwrites — is refused inside an
/// open transaction by one guard with one typed error, and refusing
/// costs the transaction nothing.
#[test]
fn committed_state_operations_refuse_inside_a_transaction_with_one_typed_error() {
    use corion::core::evolution::{AttrTypeChange, Maintenance};
    use corion::{AttributeDef, ClassBuilder, CompositeSpec, Database, Domain, Value};

    let mut db = Database::new();
    let item = db
        .define_class(ClassBuilder::new("Item").attr("n", Domain::Integer))
        .unwrap();
    let holder = db
        .define_class(ClassBuilder::new("Holder").attr_composite(
            "slot",
            Domain::Class(item),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let i = db.make(item, vec![("n", Value::Int(1))], vec![]).unwrap();
    let stored = db.get(i).unwrap();

    db.begin_transaction().unwrap();
    db.set_attr(i, "n", Value::Int(2)).unwrap();
    let refusals: Vec<(&str, Result<(), DbError>)> = vec![
        ("begin_transaction", db.begin_transaction()),
        (
            "define_class",
            db.define_class(ClassBuilder::new("Late")).map(|_| ()),
        ),
        (
            "add_attribute",
            db.add_attribute(item, AttributeDef::plain("x", Domain::Integer)),
        ),
        ("drop_attribute", db.drop_attribute(item, "n")),
        ("add_superclass", db.add_superclass(holder, item)),
        ("drop_class", db.drop_class(holder)),
        (
            "change_attribute_type",
            db.change_attribute_type(
                holder,
                "slot",
                AttrTypeChange::ToIndependent,
                Maintenance::Immediate,
            ),
        ),
        ("dump", db.dump().map(|_| ())),
        ("repair", db.repair().map(|_| ())),
        ("scrub", db.scrub().map(|_| ())),
        ("checkpoint", db.checkpoint()),
        ("raw_overwrite_object", db.raw_overwrite_object(&stored)),
    ];
    for (what, result) in refusals {
        assert!(
            matches!(result, Err(DbError::TransactionState { .. })),
            "{what} inside a transaction: {result:?}"
        );
    }
    db.commit_transaction().unwrap();
    assert_eq!(db.get_attr(i, "n").unwrap(), Value::Int(2));
    db.dump().unwrap();
    assert!(db.repair().unwrap().is_clean());
}
