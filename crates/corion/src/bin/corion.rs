//! The `corion` command-line tool.
//!
//! ```text
//! corion stats [--prometheus | --text] [--docs N] [--no-crash]
//! corion dump <path> [--docs N]
//! corion fsck <path> [--repair]
//! ```
//!
//! `corion stats` drives a representative workload through one in-memory
//! engine — document-corpus generation (§2.3 Example 2), the §3 traversals
//! and predicates, a lock-manager exercise (§7), a crash/recover cycle
//! (DESIGN.md §10), and a round of concurrent MVCC transactions with a
//! pinned snapshot (DESIGN.md §14) — then prints every metric the engine
//! recorded. It is
//! the worked example for `docs/OBSERVABILITY.md`: run it to see the full
//! metric catalog with live values.
//!
//! Output formats:
//!
//! * default — a human-readable table (counters, gauges, histogram
//!   summaries with mean latency);
//! * `--prometheus` — the Prometheus text exposition format, one scrape's
//!   worth (`corion stats --prometheus | promtool check metrics` parses);
//! * `--text` — the snapshot serialisation format of
//!   `MetricsSnapshot::to_text` (parse it back with `parse_text`, merge
//!   shards with `merge`).
//!
//! `corion dump` writes a document-corpus database image to disk;
//! `corion fsck` loads an image, scrubs the storage substrate, and verifies
//! every composite-object invariant, optionally repairing what it can
//! (`docs/RESILIENCE.md`). Exit status is 0 only for a clean (or cleanly
//! repaired) database, so the pair works as a CI smoke test.

use std::process::ExitCode;
use std::sync::Arc;

use corion::concurrent::ChangeSink;
use corion::server::metrics::ServerMetrics;
use corion::server::stream::ChangeStreams;
use corion::workload::{Corpus, CorpusParams};
use corion::{
    AuthStore, ClassId, Client, ClientError, ConcurrentDb, Database, DbConfig, Filter, LockManager,
    LockMode, Lockable, MakeSpec, Oid, ParentRef, Server, ServerConfig, Value,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => stats(&args[1..]),
        Some("dump") => dump(&args[1..]),
        Some("fsck") => fsck(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("repl") => repl(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("corion: unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
corion — the CORION composite-object database (SIGMOD 1989 reproduction)

USAGE:
    corion stats [--prometheus | --text] [--docs N] [--no-crash] [--data-dir D]
    corion dump <path> [--docs N]
    corion fsck <path> [--repair]
    corion serve [--addr A] [--docs N] [--max-sessions N] [--idle-timeout S]
                 [--data-dir D]
    corion repl [--addr A] [--user N]
    corion help

SUBCOMMANDS:
    stats    Run a representative workload (documents, traversals, locks,
             crash+recover) and print the engine's metrics.
    dump     Generate a document corpus and save the database image to
             <path> (atomic write, fsynced).
    fsck     Load the image at <path>, scrub pages against their checksums,
             and verify Topology Rules 1-4, reverse-reference sync, and
             reference reachability. Exit 0 iff the database is clean.
    serve    Serve an engine over TCP (docs/PROTOCOL.md). Blocks until a
             superuser sends Shutdown over the wire (repl: `shutdown`).
    repl     Connect to a server and read line commands from stdin
             (type `help` at the prompt). Scripts cleanly: pipe commands
             in, and EOF disconnects.

OPTIONS (stats):
    --prometheus    Print in the Prometheus text exposition format.
    --text          Print the MetricsSnapshot text serialisation.
    --docs N        Corpus size in documents (default 10).
    --no-crash      Skip the crash/recover cycle (WAL recovery counters
                    will stay zero).
    --data-dir D    Run the workload on a file-backed engine at D instead
                    of the in-memory simulated disk. D should be a fresh
                    directory (created if absent): the workload defines
                    its own schema and collides with a seeded one.

OPTIONS (dump):
    --docs N        Corpus size in documents (default 10).

OPTIONS (fsck):
    --repair        Repair what fsck finds — drop dangling composite
                    references, resolve topology conflicts, rebuild reverse
                    references, cascade-delete orphaned dependents — then
                    re-verify and write the repaired image back to <path>.

OPTIONS (serve):
    --addr A            Address to bind (default 127.0.0.1:4990).
    --docs N            Seed a document corpus of N documents so clients
                        have a schema to work against (default 0: empty).
    --max-sessions N    Admission-control cap (default 64).
    --idle-timeout S    Session idle timeout in seconds (default 300).
    --data-dir D        Persist to the directory D (created if absent):
                        real page files and an fsynced WAL, with crash
                        recovery on startup. A second server on the same
                        directory is refused by the lock file. Without
                        this flag, state lives in memory and dies with
                        the process. --docs seeds only a fresh directory.

OPTIONS (repl):
    --addr A        Server address (default 127.0.0.1:4990).
    --user N        User id for the handshake (default 0, the superuser).
";

fn dump(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut docs = 10usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--docs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => docs = n,
                None => {
                    eprintln!("corion dump: --docs needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => {
                eprintln!("corion dump: unexpected argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("corion dump: missing <path>\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut db = Database::new();
    let corpus = match Corpus::generate(
        &mut db,
        CorpusParams {
            documents: docs,
            ..CorpusParams::default()
        },
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corion dump: corpus generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = db.save_to_file(path) {
        eprintln!("corion dump: saving `{path}` failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "corion dump: wrote {path} ({} documents, {} sections)",
        corpus.documents.len(),
        corpus.sections.len()
    );
    ExitCode::SUCCESS
}

fn fsck(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut repair = false;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => {
                eprintln!("corion fsck: unexpected argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("corion fsck: missing <path>\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    // A dump that fails to load (truncated file, checksum mismatch from a
    // flipped bit, malformed records) is unconditionally an fsck failure:
    // there is no engine to repair.
    let mut db = match Database::load_from_file(path, DbConfig::default()) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("corion fsck: `{path}` failed to load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scrub = match db.scrub() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("corion fsck: scrub of `{path}` failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "corion fsck: scrub checked {} pages ({} salvaged from the WAL, {} reset)",
        scrub.pages_checked, scrub.pages_salvaged, scrub.pages_reset
    );
    match db.verify_integrity() {
        Ok(report) => {
            println!(
                "corion fsck: clean — {} objects, {} composite edges, {} weak refs",
                report.objects, report.composite_edges, report.weak_refs
            );
            ExitCode::SUCCESS
        }
        Err(e) if repair => {
            println!("corion fsck: integrity violation: {e}; repairing");
            let report = match db.repair() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("corion fsck: repair failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "corion fsck: repair dropped {} dangling + {} conflicting edges, \
                 rewrote reverse refs on {} objects, deleted {} orphans",
                report.dangling_edges_dropped,
                report.conflicting_edges_dropped,
                report.reverse_refs_fixed,
                report.orphans_deleted
            );
            if let Err(e) = db.verify_integrity() {
                eprintln!("corion fsck: database still inconsistent after repair: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = db.save_to_file(path) {
                eprintln!("corion fsck: saving repaired image failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("corion fsck: repaired image written back to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corion fsck: integrity violation: {e} (rerun with --repair)");
            ExitCode::FAILURE
        }
    }
}

#[derive(PartialEq)]
enum Format {
    Human,
    Prometheus,
    Text,
}

fn stats(args: &[String]) -> ExitCode {
    let mut format = Format::Human;
    let mut docs = 10usize;
    let mut crash = true;
    let mut data_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prometheus" => format = Format::Prometheus,
            "--text" => format = Format::Text,
            "--no-crash" => crash = false,
            "--docs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => docs = n,
                None => {
                    eprintln!("corion stats: --docs needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--data-dir" => match it.next() {
                Some(d) => data_dir = Some(d.clone()),
                None => {
                    eprintln!("corion stats: --data-dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("corion stats: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut db = match &data_dir {
        Some(dir) => match Database::open(dir, DbConfig::default()) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("corion stats: opening data directory `{dir}` failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Database::new(),
    };
    let corpus = match Corpus::generate(
        &mut db,
        CorpusParams {
            documents: docs,
            ..CorpusParams::default()
        },
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corion stats: corpus generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if run_workload(&mut db, &corpus, crash).is_err() {
        eprintln!("corion stats: workload failed");
        return ExitCode::FAILURE;
    }

    // Concurrent engine: wrap the same database (and registry) in the
    // MVCC + §7-locking spine and run writers against a pinned snapshot
    // so the `corion_mvcc_*` / `corion_mvcc_txn_*` families go live.
    let cdb = ConcurrentDb::from_database(db);
    if let Err(e) = run_concurrent(&cdb, &corpus) {
        eprintln!("corion stats: concurrent workload failed: {e}");
        return ExitCode::FAILURE;
    }

    let snapshot = cdb.with_read(|db| db.metrics_snapshot());
    match format {
        Format::Prometheus => print!("{}", snapshot.render_prometheus()),
        Format::Text => print!("{}", snapshot.to_text()),
        Format::Human => {
            println!(
                "# corion stats — {} documents, {} sections ({} shared refs){}",
                corpus.documents.len(),
                corpus.sections.len(),
                corpus.shared_section_refs,
                if crash {
                    ", one crash/recover cycle"
                } else {
                    ""
                }
            );
            print_human(&snapshot);
        }
    }
    ExitCode::SUCCESS
}

/// Traversals + predicates + locks + (optionally) a crash/recover cycle:
/// enough traffic to make every catalogued metric nonzero.
fn run_workload(db: &mut Database, corpus: &Corpus, crash: bool) -> Result<(), corion::DbError> {
    // §3 traversals, twice per document so the cache records both misses
    // and hits; batch variants fan out over scoped threads.
    for _ in 0..2 {
        for &d in &corpus.documents {
            db.components_of(d, &Filter::all())?;
            db.roots_of(d)?;
        }
        for &s in &corpus.sections {
            db.parents_of(s, &Filter::all())?;
            db.ancestors_of(s, &Filter::all())?;
        }
    }
    let _ = db.components_of_many(&corpus.documents, &Filter::all());
    // §3.2 predicates.
    for &s in &corpus.sections {
        db.compositep(corpus.schema.document, None)?;
        if let Some(&d) = corpus.documents.first() {
            db.component_of(s, d)?;
            db.child_of(s, d)?;
        }
    }
    // Write path: one grouped transaction, one clustered bulk ingest, and
    // one deliberate abort, so the corion_txn_* counters go live.
    let extra = db.transaction(|db| db.make(corpus.schema.document, vec![], vec![]))?;
    db.make_many(&[
        MakeSpec::new(corpus.schema.section).parent(ParentRef::Existing(extra), "Sections"),
        MakeSpec::new(corpus.schema.paragraph).parent(ParentRef::Created(0), "Content"),
    ])?;
    db.begin_transaction()?;
    db.make(corpus.schema.paragraph, vec![], vec![])?;
    db.abort_transaction()?;
    // §7 locks, sharing the engine's registry: one clean 2PL round and one
    // conflict.
    let lm = LockManager::with_registry(db.metrics_registry());
    let t1 = lm.begin();
    let t2 = lm.begin();
    let root = Lockable::Class(corpus.schema.document);
    lm.lock(t1, root, LockMode::IXO).ok();
    let _ = lm.try_lock(t2, root, LockMode::X); // conflicts with IXO
    lm.release_all(t1);
    lm.lock(t2, root, LockMode::X).ok();
    lm.release_all(t2);
    // Commits write no pages: everything above is still only in the pool
    // and the log. The checkpoint is where it reaches the disk, so the
    // corion_buffer_writebacks_checkpoint / dirty_frames metrics go live.
    db.checkpoint()?;
    // Crash + recovery: exercises the WAL replay path so the
    // corion_storage_recover* counters go live.
    if crash {
        let victim = *corpus.documents.last().expect("nonempty corpus");
        db.delete(victim)?;
        db.simulate_crash();
        db.recover()?;
        db.checkpoint()?;
    }
    Ok(())
}

/// Concurrent MVCC transactions (DESIGN.md §14): two writer threads add
/// a section to different documents while a snapshot pinned beforehand
/// keeps observing the pre-write state, then a vacuum reclaims the
/// version chains the dropped snapshot no longer pins. One in-process
/// change-stream subscriber is attached for the round, so the
/// `corion_server_stream_*` family — the emit-cost histogram included —
/// goes live without a socket (DESIGN.md §15).
fn run_concurrent(cdb: &ConcurrentDb, corpus: &Corpus) -> Result<(), corion::DbError> {
    let registry = cdb.with_read(|db| db.metrics_registry().clone());
    let streams = ChangeStreams::new(16, Arc::new(ServerMetrics::new(&registry)));
    cdb.set_change_sink(Arc::clone(&streams) as Arc<dyn ChangeSink>);
    let subscription = streams.subscribe(cdb);
    // The crash cycle in `run_workload` deletes the last document, so
    // pick targets from whatever is still alive.
    let live: Vec<_> = cdb.with_read(|db| {
        corpus
            .documents
            .iter()
            .copied()
            .filter(|&d| db.exists(d))
            .take(2)
            .collect()
    });
    let (doc_a, doc_b) = match live.as_slice() {
        [a, b] => (*a, *b),
        [a] => (*a, *a),
        _ => return Ok(()),
    };
    let section = corpus.schema.section;
    let pinned = cdb.begin_read();
    let before = pinned.components_of(doc_a)?.len();
    std::thread::scope(|s| {
        let writer = |doc| {
            let cdb = cdb.clone();
            s.spawn(move || cdb.run_write(|t| t.make(section, vec![], vec![(doc, "Sections")])))
        };
        let a = writer(doc_a);
        let b = writer(doc_b);
        a.join().expect("writer thread panicked")?;
        b.join().expect("writer thread panicked")?;
        Ok::<(), corion::DbError>(())
    })?;
    // The pinned snapshot still sees the pre-write component count; the
    // latest state sees one more.
    assert_eq!(pinned.components_of(doc_a)?.len(), before);
    drop(pinned);
    assert_eq!(
        subscription.events.try_iter().count(),
        2,
        "one event per commit"
    );
    cdb.vacuum();
    Ok(())
}

fn serve(args: &[String]) -> ExitCode {
    let mut addr = String::from("127.0.0.1:4990");
    let mut docs = 0usize;
    let mut data_dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return flag_err("serve", "--addr needs an address"),
            },
            "--data-dir" => match it.next() {
                Some(d) => data_dir = Some(d.clone()),
                None => return flag_err("serve", "--data-dir needs a path"),
            },
            "--docs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => docs = n,
                None => return flag_err("serve", "--docs needs an integer"),
            },
            "--max-sessions" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_sessions = n,
                None => return flag_err("serve", "--max-sessions needs an integer"),
            },
            "--idle-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => config.idle_timeout = std::time::Duration::from_secs(s),
                None => return flag_err("serve", "--idle-timeout needs seconds"),
            },
            other => {
                eprintln!("corion serve: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    config.addr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("corion serve: bad --addr `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut db = match &data_dir {
        Some(dir) => match Database::open(dir, DbConfig::default()) {
            Ok(db) => {
                println!("corion serve: data directory {dir} opened");
                db
            }
            Err(e) => {
                eprintln!("corion serve: opening data directory `{dir}` failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Database::new(),
    };
    // Seed only an engine with no schema yet: a reopened data directory
    // already carries its corpus, and regenerating would collide with the
    // persisted classes.
    if docs > 0 && db.catalog().all_classes().is_empty() {
        if let Err(e) = Corpus::generate(
            &mut db,
            CorpusParams {
                documents: docs,
                ..CorpusParams::default()
            },
        ) {
            eprintln!("corion serve: corpus generation failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match Server::start(ConcurrentDb::from_database(db), AuthStore::new(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corion serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("corion serve: listening on {}", server.local_addr());
    server.join();
    println!("corion serve: shut down");
    ExitCode::SUCCESS
}

const REPL_HELP: &str = "\
commands:
    ping                              liveness probe
    begin | commit | abort            transaction control
    classes                           list the catalog
    class <name>                      resolve a class name
    make <class> [<parent> <attr>]    create an instance
    get <oid>                         read a whole object
    attr <oid> <name>                 read one attribute
    set <oid> <name> <value>          assign one attribute
    delete <oid>                      cascading delete
    exists <oid>                      liveness of an OID
    instances <class> [deep]          class extension
    components|parents|ancestors|subtree <oid>
    link <child> <parent> <attr>      make-component
    unlink <child> <parent> <attr>    remove-component
    metrics                           Prometheus dump of the whole stack
    subscribe [n]                     stream change events (n, or forever)
    shutdown                          stop the server (superuser)
    quit                              disconnect
<class> is a name or cN; <oid> is cN.iM as the server prints it;
<value> is an integer, float, true/false, nil, cN.iM (a reference),
or anything else (a string).
";

fn repl(args: &[String]) -> ExitCode {
    let mut addr = String::from("127.0.0.1:4990");
    let mut user = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return flag_err("repl", "--addr needs an address"),
            },
            "--user" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => user = n,
                None => return flag_err("repl", "--user needs an integer"),
            },
            other => {
                eprintln!("corion repl: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut client = match Client::connect(&addr, user) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corion repl: connect to {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "connected to {addr} as user {user} (session {})",
        client.session()
    );
    use std::io::BufRead;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            return ExitCode::SUCCESS; // EOF: scripted sessions end here
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, rest)) = words.split_first() else {
            continue;
        };
        match cmd {
            "quit" | "exit" => return ExitCode::SUCCESS,
            "help" => print!("{REPL_HELP}"),
            "subscribe" => {
                let limit: Option<u64> = rest.first().and_then(|n| n.parse().ok());
                return match client.subscribe() {
                    Ok(sub) => stream_events(sub, limit),
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            _ => {
                if let Err(e) = run_repl_command(&mut client, cmd, rest) {
                    eprintln!("error: {e}");
                    if matches!(e, ClientError::Io(_)) {
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
}

/// One request/response REPL command; prints the result.
fn run_repl_command(client: &mut Client, cmd: &str, rest: &[&str]) -> Result<(), ClientError> {
    let usage = |what: &str| ClientError::Unexpected(format!("usage: {what}"));
    match cmd {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "begin" => {
            client.begin()?;
            println!("ok");
        }
        "commit" => println!("committed at lsn {}", client.commit()?),
        "abort" => {
            client.abort()?;
            println!("aborted");
        }
        "classes" => {
            for (id, name) in client.list_classes()? {
                println!("{id} {name}");
            }
        }
        "class" => {
            let name = rest.first().ok_or_else(|| usage("class <name>"))?;
            println!("{}", client.class_by_name(name)?);
        }
        "make" => {
            let class = rest
                .first()
                .ok_or_else(|| usage("make <class> [<parent> <attr>]"))?;
            let class = resolve_class(client, class)?;
            let parents = match rest.get(1..3) {
                Some([p, a]) => vec![(parse_oid(p)?, (*a).to_string())],
                _ => vec![],
            };
            println!("{}", client.make(class, vec![], parents)?);
        }
        "get" => {
            let oid = parse_oid(rest.first().ok_or_else(|| usage("get <oid>"))?)?;
            let obj = client.get(oid)?;
            println!("{}", obj.oid);
            for (name, value) in &obj.attrs {
                println!("  {name} = {value:?}");
            }
            if !obj.parents.is_empty() {
                let parents: Vec<String> = obj.parents.iter().map(Oid::to_string).collect();
                println!("  parents: {}", parents.join(" "));
            }
        }
        "attr" => {
            let (oid, name) = two_args(rest, || usage("attr <oid> <name>"))?;
            println!("{:?}", client.get_attr(parse_oid(oid)?, name)?);
        }
        "set" => {
            let [oid, name, value] = rest else {
                return Err(usage("set <oid> <name> <value>"));
            };
            client.set_attr(parse_oid(oid)?, name, parse_value(value))?;
            println!("ok");
        }
        "delete" => {
            let oid = parse_oid(rest.first().ok_or_else(|| usage("delete <oid>"))?)?;
            println!("deleted {}", join_oids(&client.delete(oid)?));
        }
        "exists" => {
            let oid = parse_oid(rest.first().ok_or_else(|| usage("exists <oid>"))?)?;
            println!("{}", client.exists(oid)?);
        }
        "instances" => {
            let class = rest
                .first()
                .ok_or_else(|| usage("instances <class> [deep]"))?;
            let class = resolve_class(client, class)?;
            let deep = rest.get(1) == Some(&"deep");
            println!("{}", join_oids(&client.instances_of(class, deep)?));
        }
        "components" | "parents" | "ancestors" | "subtree" => {
            let oid = parse_oid(rest.first().ok_or_else(|| usage("<traversal> <oid>"))?)?;
            let oids = match cmd {
                "components" => client.components_of(oid)?,
                "parents" => client.parents_of(oid)?,
                "ancestors" => client.ancestors_of(oid)?,
                _ => client.subtree_of(oid)?,
            };
            println!("{}", join_oids(&oids));
        }
        "link" | "unlink" => {
            let [child, parent, attr] = rest else {
                return Err(usage("link|unlink <child> <parent> <attr>"));
            };
            let (child, parent) = (parse_oid(child)?, parse_oid(parent)?);
            if cmd == "link" {
                client.make_component(child, parent, attr)?;
            } else {
                client.remove_component(child, parent, attr)?;
            }
            println!("ok");
        }
        "metrics" => print!("{}", client.metrics()?),
        "shutdown" => {
            client.shutdown_server()?;
            println!("server shutting down");
        }
        other => {
            return Err(ClientError::Unexpected(format!(
                "unknown command `{other}` (try `help`)"
            )))
        }
    }
    Ok(())
}

/// Prints events off a subscription until `limit` events (or the server
/// closes the stream).
fn stream_events(mut sub: corion::Subscriber, limit: Option<u64>) -> ExitCode {
    println!("subscribed from lsn {}", sub.start_lsn());
    let mut seen = 0u64;
    while limit.is_none_or(|n| seen < n) {
        match sub.next_event() {
            Ok(event) => {
                seen += 1;
                for delta in &event.deltas {
                    println!("lsn {} {delta:?}", event.commit_lsn);
                }
            }
            Err(e) => {
                eprintln!("stream ended: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn two_args<'a>(
    rest: &[&'a str],
    err: impl Fn() -> ClientError,
) -> Result<(&'a str, &'a str), ClientError> {
    match rest {
        [a, b] => Ok((a, b)),
        _ => Err(err()),
    }
}

fn flag_err(sub: &str, msg: &str) -> ExitCode {
    eprintln!("corion {sub}: {msg}");
    ExitCode::FAILURE
}

/// `cN` is used directly; anything else is resolved through the catalog.
fn resolve_class(client: &mut Client, word: &str) -> Result<ClassId, ClientError> {
    if let Some(n) = word.strip_prefix('c').and_then(|n| n.parse().ok()) {
        return Ok(ClassId(n));
    }
    client.class_by_name(word)
}

/// Parses the `cN.iM` form [`Oid`] displays as.
fn parse_oid(word: &str) -> Result<Oid, ClientError> {
    let parsed = word.split_once(".i").and_then(|(class, serial)| {
        let class = class.strip_prefix('c')?.parse().ok()?;
        Some(Oid::new(ClassId(class), serial.parse().ok()?))
    });
    parsed.ok_or_else(|| ClientError::Unexpected(format!("`{word}` is not an OID (cN.iM)")))
}

/// Literal syntax for `set`: numbers, booleans, nil, OIDs, else a string.
fn parse_value(word: &str) -> Value {
    if word == "nil" {
        Value::Null
    } else if word == "true" || word == "false" {
        Value::Bool(word == "true")
    } else if let Ok(i) = word.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = word.parse::<f64>() {
        Value::Float(f)
    } else if let Ok(oid) = parse_oid(word) {
        Value::Ref(oid)
    } else {
        Value::Str(word.to_string())
    }
}

fn join_oids(oids: &[Oid]) -> String {
    if oids.is_empty() {
        return "(none)".into();
    }
    oids.iter()
        .map(Oid::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

fn print_human(snapshot: &corion::MetricsSnapshot) {
    println!("\ncounters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<45} {value}");
    }
    println!("\ngauges:");
    for (name, value) in &snapshot.gauges {
        println!("  {name:<45} {value}");
    }
    println!("\nhistograms (count / mean):");
    for (name, h) in &snapshot.histograms {
        let mean = h.mean().unwrap_or(0.0);
        println!("  {name:<45} {:>8} / {mean:.0} ns", h.count);
    }
}
