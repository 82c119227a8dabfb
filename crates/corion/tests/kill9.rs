//! Real-process crash durability: a file-backed `corion serve` is killed
//! with SIGKILL mid-traffic, then reopened on the same data directory.
//! Every object whose creation the server acknowledged must still exist —
//! the acknowledgement happens after the WAL fsync, so kill-9 can only
//! lose work the client was never told about.
//!
//! This is the one test in the suite where the "crash" is not simulated at
//! all: the kernel destroys the process, the page cache keeps whatever it
//! kept, and recovery runs in a fresh process against real files.
//!
//! A commit's LSN (`OkLsn`) is the WAL LSN of its commit marker, so it
//! keeps increasing across the kill: the reopened server numbers its
//! commits after every commit the dead one acknowledged.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use corion::Client;

/// Spawns `corion serve` on an OS-assigned port and waits for the
/// listening line; returns the child and the bound address.
fn spawn_server(dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_corion"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--docs",
            "2",
            "--data-dir",
            dir.to_str().expect("utf-8 tempdir"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn corion serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            let status = child.wait().expect("reap server");
            panic!("server exited ({status}) before announcing its address");
        }
        if let Some(rest) = line.trim().strip_prefix("corion serve: listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, addr)
}

#[test]
fn kill_nine_loses_nothing_the_server_acknowledged() {
    let dir = std::env::temp_dir().join(format!("corion_kill9_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Round 1: create objects until the kill, recording every acknowledged
    // OID. Acknowledgement = the server's reply to `make`, which is sent
    // only after the commit's WAL fsync returned.
    let (mut child, addr) = spawn_server(&dir);
    let mut acked = Vec::new();
    let mut acked_lsns = Vec::new();
    {
        let mut client = Client::connect(&addr, 0).expect("connect");
        let section = client.class_by_name("Section").expect("seeded schema");
        for _ in 0..25 {
            let oid = client.make(section, vec![], vec![]).expect("make");
            acked.push(oid);
        }
        for _ in 0..5 {
            client.begin().expect("begin");
            acked.push(client.make(section, vec![], vec![]).expect("make"));
            acked_lsns.push(client.commit().expect("commit"));
        }
    }
    // SIGKILL: no shutdown handler runs, no buffer is flushed by the
    // process — whatever is durable is exactly what fsync made durable.
    child.kill().expect("kill -9 the server");
    child.wait().expect("reap the killed server");

    // Round 2: a fresh process recovers the directory (taking over the
    // dead process's stale lock file) and must serve every acked object.
    let (mut child, addr) = spawn_server(&dir);
    {
        let mut client = Client::connect(&addr, 0).expect("reconnect");
        for &oid in &acked {
            assert!(
                client.exists(oid).expect("exists"),
                "{oid} was acknowledged before the kill but is gone after recovery"
            );
        }
        // The reopened engine is writable: the WAL, serial floor, and lock
        // all came back in working order.
        let section = client.class_by_name("Section").expect("schema survived");
        let fresh = client
            .make(section, vec![], vec![])
            .expect("post-recovery make");
        assert!(
            !acked.contains(&fresh),
            "post-recovery OID {fresh} collides with a pre-kill allocation"
        );
        client.begin().expect("post-recovery begin");
        client.make(section, vec![], vec![]).expect("make");
        let lsn = client.commit().expect("post-recovery commit");
        let last = *acked_lsns.iter().max().expect("pre-kill commits");
        assert!(
            lsn > last,
            "post-recovery commit LSN {lsn} is not above the pre-kill {acked_lsns:?}"
        );
    }
    child.kill().expect("cleanup kill");
    child.wait().expect("cleanup reap");
    std::fs::remove_dir_all(&dir).ok();
}
