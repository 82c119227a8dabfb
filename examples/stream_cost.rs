//! What a change-stream subscriber costs the committer.
//!
//! Committer threads (default one) run `ingest`-shaped transactions — an
//! assembly and three 70-byte parts under one of their own 100 standing
//! roots — straight into a served `ConcurrentDb`, first with nobody
//! subscribed, then with one subscriber draining its stream over TCP, and
//! again. The event is built and enqueued by the committer under the
//! commit latch (DESIGN.md §15), so the subscribed rate is lower and the
//! latch is held longer; docs/PERFORMANCE.md ("The change stream") says by
//! how much. Per pass it prints the commit rate and, from the
//! `corion_shard_latch_*` histograms, how long the engine latch was held
//! and waited for per commit.
//!
//! ```text
//! cargo run --release --example stream_cost [seconds-per-pass] [committers]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use corion::{
    AuthStore, ClassBuilder, Client, CompositeSpec, ConcurrentDb, Database, Domain, Server,
    ServerConfig, Value,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args
        .next()
        .map_or(5.0, |s| s.parse().expect("seconds per pass"));
    let committers: usize = args.next().map_or(1, |s| s.parse().expect("committers"));
    let owned = CompositeSpec {
        exclusive: true,
        dependent: true,
    };
    let mut db = Database::new();
    let part = db
        .define_class(ClassBuilder::new("Part").attr("payload", Domain::String))
        .unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            owned,
        ))
        .unwrap();
    let root_class = db
        .define_class(ClassBuilder::new("Root").attr_composite(
            "subs",
            Domain::SetOf(Box::new(Domain::Class(asm))),
            owned,
        ))
        .unwrap();
    let cdb = ConcurrentDb::from_database(db);
    let server = Server::start(cdb.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let latch_ns = |name: &str| {
        let snapshot = cdb.metrics_snapshot();
        snapshot.histogram(name).map_or(0, |h| h.sum)
    };

    for subscribers in [0usize, 1, 0, 1] {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..subscribers)
                .map(|_| {
                    let mut sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();
                    let stop = &stop;
                    s.spawn(move || {
                        let mut events = 0u64;
                        loop {
                            match sub.next_event_timeout(Duration::from_millis(100)) {
                                Ok(Some(_)) => events += 1,
                                Ok(None) if stop.load(Ordering::SeqCst) => return Ok(events),
                                Ok(None) => {}
                                // `SlowConsumer`, if this thread was kept
                                // off the CPU for 256 commits.
                                Err(e) => return Err(format!("{e} after {events} events")),
                            }
                        }
                    })
                })
                .collect();
            // Fresh roots per pass keep their `subs` sets — one is
            // rewritten by every commit — the same size in each.
            let roots: Vec<Vec<_>> = (0..committers)
                .map(|_| {
                    (0..100)
                        .map(|_| {
                            cdb.run_write(|t| t.make(root_class, vec![], vec![]))
                                .unwrap()
                        })
                        .collect()
                })
                .collect();
            let (hold, wait) = (
                latch_ns("corion_shard_latch_hold_ns"),
                latch_ns("corion_shard_latch_wait_ns"),
            );
            let started = Instant::now();
            let writers: Vec<_> = roots
                .into_iter()
                .map(|roots| {
                    let cdb = &cdb;
                    s.spawn(move || {
                        let payload = Value::Str("p".repeat(70));
                        let mut commits = 0u64;
                        while started.elapsed().as_secs_f64() < seconds {
                            let root = roots[commits as usize % roots.len()];
                            let mut txn = cdb.begin_write();
                            let a = txn.make(asm, vec![], vec![(root, "subs")]).unwrap();
                            for _ in 0..3 {
                                txn.make(
                                    part,
                                    vec![("payload", payload.clone())],
                                    vec![(a, "parts")],
                                )
                                .unwrap();
                            }
                            txn.commit().unwrap();
                            commits += 1;
                        }
                        commits
                    })
                })
                .collect();
            let commits: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
            let elapsed = started.elapsed().as_secs_f64();
            let per_commit = |ns: u64| ns as f64 / 1e3 / commits as f64;
            println!(
                "subscribers={subscribers} committers={committers} commits_per_s={:.0} \
                 latch_hold_us_per_commit={:.1} latch_wait_us_per_commit={:.1}",
                commits as f64 / elapsed,
                per_commit(latch_ns("corion_shard_latch_hold_ns") - hold),
                per_commit(latch_ns("corion_shard_latch_wait_ns") - wait),
            );
            stop.store(true, Ordering::SeqCst);
            for reader in readers {
                match reader.join().unwrap() {
                    Ok(seen) => println!("  a subscriber saw {seen} events for {commits} commits"),
                    Err(why) => println!("  a subscriber was dropped: {why}"),
                }
            }
        });
    }
    server.shutdown();
}
