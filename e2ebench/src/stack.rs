//! Standing the stack up and taking it down: data directory, wrapped
//! devices, schema, seed data, checkpoint, server, client connections.
//!
//! Default `DbConfig` and `ServerConfig` everywhere (commit policy
//! `Immediate`): the benchmark measures what users get.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corion::storage::{DeviceMetrics, FileDisk, FileWal};
use corion::{
    AuthStore, ClassBuilder, ClassId, Client, CompositeSpec, ConcurrentDb, Database, DbConfig,
    Domain, MakeSpec, Oid, ParentRef, Server, ServerConfig, Value,
};

use crate::devices::{BenchDisk, BenchLog, DeviceCounters};
use crate::workload::{seed_payload, PartAddr, FANOUT, PAYLOAD_LEN};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `Root —subs→ Asm —parts→ Part(payload)` through exclusive, dependent
/// composite references: the paper's composite object proper, the unit of
/// locking whose writers on different composites hold compatible lock
/// sets (§7, IXO with IXO). With *shared* references — as the
/// `shard_scaling` bench has them — the protocol admits one writer per
/// component class (IXOS excludes IXOS), and every workload here would
/// measure that one class lock.
#[derive(Debug, Clone, Copy)]
pub struct Classes {
    pub part: ClassId,
    pub asm: ClassId,
    pub root: ClassId,
}

/// One seeded composite: a root, its assemblies, their parts.
pub struct RootOids {
    pub root: Oid,
    pub asms: [Oid; FANOUT],
    pub parts: [[Oid; FANOUT]; FANOUT],
}

impl RootOids {
    pub fn part(&self, addr: PartAddr) -> Oid {
        self.parts[addr.asm as usize][addr.part as usize]
    }

    /// The whole composite, root first.
    pub fn subtree(&self) -> impl Iterator<Item = Oid> + '_ {
        std::iter::once(self.root)
            .chain(self.asms.iter().copied())
            .chain(self.parts.iter().flatten().copied())
    }
}

/// The generator's model of the seed data.
pub struct Seeded {
    pub seed: u64,
    pub classes: Classes,
    pub roots: Vec<RootOids>,
}

impl Seeded {
    pub fn objects(&self) -> usize {
        self.roots.len() * (1 + FANOUT + FANOUT * FANOUT)
    }

    /// Bytes of part payload the seed data holds.
    pub fn payload_bytes(&self) -> u64 {
        (self.roots.len() * FANOUT * FANOUT * PAYLOAD_LEN) as u64
    }
}

/// A seeded, checkpointed engine on wrapped file devices, not yet served.
pub struct Engine {
    pub dir: PathBuf,
    pub counters: Arc<DeviceCounters>,
    pub db: Database,
    pub seeded: Seeded,
}

/// Opens `dir` on the benchmark's device wrappers.
pub fn open_wrapped(dir: &Path) -> Res<(Database, Arc<DeviceCounters>)> {
    let counters = Arc::new(DeviceCounters::default());
    let disk = BenchDisk::new(
        FileDisk::open(dir, DeviceMetrics::detached())?,
        Arc::clone(&counters),
    );
    let log = BenchLog::new(
        FileWal::open(dir, DeviceMetrics::detached())?,
        Arc::clone(&counters),
    );
    let db = Database::with_devices(dir, DbConfig::default(), Arc::new(disk), Arc::new(log))?;
    Ok((db, counters))
}

pub fn define_schema(db: &mut Database) -> Res<Classes> {
    let exclusive_dependent = CompositeSpec {
        exclusive: true,
        dependent: true,
    };
    let part = db.define_class(ClassBuilder::new("Part").attr("payload", Domain::String))?;
    let asm = db.define_class(ClassBuilder::new("Asm").attr_composite(
        "parts",
        Domain::SetOf(Box::new(Domain::Class(part))),
        exclusive_dependent,
    ))?;
    let root = db.define_class(ClassBuilder::new("Root").attr_composite(
        "subs",
        Domain::SetOf(Box::new(Domain::Class(asm))),
        exclusive_dependent,
    ))?;
    Ok(Classes { part, asm, root })
}

/// Seeds `roots` composites, one clustered `make_many` per composite.
pub fn seed_data(db: &mut Database, classes: Classes, roots: usize, seed: u64) -> Res<Seeded> {
    let mut out = Vec::with_capacity(roots);
    for r in 0..roots {
        let mut specs = Vec::with_capacity(1 + FANOUT + FANOUT * FANOUT);
        specs.push(MakeSpec::new(classes.root));
        for a in 0..FANOUT {
            let asm_at = specs.len();
            specs.push(MakeSpec::new(classes.asm).parent(ParentRef::Created(0), "subs"));
            for p in 0..FANOUT {
                let addr = PartAddr {
                    root: r as u32,
                    asm: a as u8,
                    part: p as u8,
                };
                specs.push(
                    MakeSpec::new(classes.part)
                        .value("payload", Value::Str(seed_payload(seed, addr)))
                        .parent(ParentRef::Created(asm_at), "parts"),
                );
            }
        }
        let oids = db.make_many(&specs)?;
        let mut it = oids.into_iter();
        let mut next = || it.next().expect("make_many returns one OID per spec");
        let root = next();
        let mut asms = [root; FANOUT];
        let mut parts = [[root; FANOUT]; FANOUT];
        for a in 0..FANOUT {
            asms[a] = next();
            for slot in parts[a].iter_mut() {
                *slot = next();
            }
        }
        out.push(RootOids { root, asms, parts });
    }
    Ok(Seeded {
        seed,
        classes,
        roots: out,
    })
}

/// mkdir → wrapped devices → schema → seed → one checkpoint.
pub fn build_engine(dir: &Path, roots: usize, seed: u64) -> Res<Engine> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let (mut db, counters) = open_wrapped(dir)?;
    let classes = define_schema(&mut db)?;
    let seeded = seed_data(&mut db, classes, roots, seed)?;
    db.checkpoint()?;
    Ok(Engine {
        dir: dir.to_path_buf(),
        counters,
        db,
        seeded,
    })
}

/// A served engine.
pub struct Stack {
    pub dir: PathBuf,
    pub counters: Arc<DeviceCounters>,
    pub cdb: ConcurrentDb,
    pub seeded: Seeded,
    server: Server,
}

impl Stack {
    /// Serves `engine` on a free loopback port.
    pub fn serve(engine: Engine) -> Res<Stack> {
        let cdb = ConcurrentDb::from_database(engine.db);
        let server = Server::start(cdb.clone(), AuthStore::new(), ServerConfig::default())?;
        Ok(Stack {
            dir: engine.dir,
            counters: engine.counters,
            cdb,
            seeded: engine.seeded,
            server,
        })
    }

    /// `n` handshaken superuser sessions.
    pub fn connect(&self, n: usize) -> Res<Vec<Client>> {
        (0..n)
            .map(|_| Ok(Client::connect(self.server.local_addr(), 0)?))
            .collect()
    }

    /// Stops the server once every session has ended (the caller has
    /// dropped its clients) and drops the engine, leaving the directory
    /// as a killed process would — no final checkpoint.
    pub fn stop(self) -> Res<(PathBuf, Arc<DeviceCounters>, Seeded)> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self
            .cdb
            .metrics_snapshot()
            .gauge("corion_server_sessions_active")
            > 0
        {
            if Instant::now() > deadline {
                return Err("server sessions did not end within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.server.shutdown();
        drop(self.cdb);
        Ok((self.dir, self.counters, self.seeded))
    }
}

/// Bytes in the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Schema, seed data, a checkpoint, then updates and an ingest — the
    /// operations the workloads perform — against `db`.
    fn exercise(db: &mut Database) -> Vec<u8> {
        let classes = define_schema(db).unwrap();
        let seeded = seed_data(db, classes, 6, 42).unwrap();
        db.checkpoint().unwrap();
        for (i, r) in seeded.roots.iter().enumerate() {
            let part = r.parts[i % FANOUT][(i * 3) % FANOUT];
            db.set_attr(part, "payload", Value::Str(format!("{i:0>70}")))
                .unwrap();
        }
        db.transaction(|db| {
            let asm = db.make(classes.asm, vec![], vec![(seeded.roots[0].root, "subs")])?;
            db.make(
                classes.part,
                vec![("payload", Value::Str("x".repeat(PAYLOAD_LEN)))],
                vec![(asm, "parts")],
            )
        })
        .unwrap();
        db.dump().unwrap()
    }

    #[test]
    fn wrapped_devices_leave_the_dump_byte_identical() {
        let plain_dir = test_dir("plain");
        let wrapped_dir = test_dir("wrapped");
        let plain = exercise(&mut Database::open(&plain_dir, DbConfig::default()).unwrap());
        let (mut db, counters) = open_wrapped(&wrapped_dir).unwrap();
        let wrapped = exercise(&mut db);
        assert!(
            plain == wrapped,
            "dumps differ: the wrappers are not pass-through"
        );

        // The wrappers saw the traffic, and everything appended was synced.
        let counts = counters.snapshot();
        assert!(counts.log_appends > 0 && counts.log_syncs > 0 && counts.page_writes > 0);
        let log_len = std::fs::metadata(wrapped_dir.join(FileWal::LOG_FILE))
            .unwrap()
            .len();
        assert_eq!(counters.synced_len(), log_len);
        drop(db);

        // And the two directories hold the same bytes, file by file.
        for name in [FileDisk::PAGES_FILE, FileDisk::SUMS_FILE, FileWal::LOG_FILE] {
            let a = std::fs::read(plain_dir.join(name)).unwrap();
            let b = std::fs::read(wrapped_dir.join(name)).unwrap();
            assert!(a == b, "{name} differs between plain and wrapped devices");
        }
        std::fs::remove_dir_all(plain_dir).unwrap();
        std::fs::remove_dir_all(wrapped_dir).unwrap();
    }

    #[test]
    fn seeded_model_matches_the_engine() {
        let dir = test_dir("model");
        let engine = build_engine(&dir, 3, 7).unwrap();
        assert_eq!(engine.db.object_count(), engine.seeded.objects());
        let r = &engine.seeded.roots[2];
        let all = corion::Filter::all();
        let mut got = engine.db.components_of(r.root, &all).unwrap();
        let mut want: Vec<Oid> = r.subtree().skip(1).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        let addr = PartAddr {
            root: 2,
            asm: 4,
            part: 5,
        };
        match engine.db.get(r.part(addr)).unwrap().attrs.first() {
            Some(Value::Str(s)) => assert_eq!(*s, seed_payload(7, addr)),
            other => panic!("payload is {other:?}"),
        }
        drop(engine);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
