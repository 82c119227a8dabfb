//! The lock manager.
//!
//! Lockable granules are classes and instances (paper §7 locks "the vehicle
//! class object", "the vehicle composite instance Vi", and "the component
//! class objects"). A transaction may hold several modes on one resource
//! (e.g. IS escalated alongside ISO); a request is granted when it is
//! compatible with every mode held by *other* transactions. Blocking
//! requests build a waits-for graph; a request that closes a cycle fails
//! with [`LockError::Deadlock`] and the requester is the victim.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corion_core::{ClassId, Oid};
use corion_obs::Registry;
use parking_lot::{Condvar, Mutex};

use crate::error::{LockError, LockResult};
use crate::metrics::LockMetrics;
use crate::modes::{compatible, LockMode};

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A lockable granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lockable {
    /// A class object (granularity parent of its instances).
    Class(ClassId),
    /// An instance object.
    Instance(Oid),
}

impl std::fmt::Display for Lockable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lockable::Class(c) => write!(f, "class {c}"),
            Lockable::Instance(o) => write!(f, "instance {o}"),
        }
    }
}

#[derive(Default)]
struct State {
    /// resource -> (txn -> granted modes).
    granted: HashMap<Lockable, HashMap<TxnId, Vec<LockMode>>>,
    /// txn -> resources it holds locks on (for release_all).
    held: HashMap<TxnId, HashSet<Lockable>>,
    /// Waits-for edges: blocked txn -> the holders it waits on.
    waits_for: HashMap<TxnId, HashSet<TxnId>>,
    next_txn: u64,
    /// Total lock requests granted (for the locking benches).
    grants: u64,
}

/// A blocking lock manager with deadlock detection.
pub struct LockManager {
    state: Mutex<State>,
    released: Condvar,
    /// Upper bound for blocking waits; `None` waits forever.
    wait_timeout: Option<Duration>,
    /// `corion_lock_*` counters (outside the mutex — they are atomics).
    metrics: LockMetrics,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Creates a manager whose blocking waits never time out (deadlocks are
    /// still detected and broken). Metrics go to a private registry; use
    /// [`LockManager::with_registry`] to share one with an engine.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Creates a manager recording its `corion_lock_*` counters into
    /// `registry` — typically a [`Database`](corion_core::Database)'s
    /// registry (`db.metrics_registry()`), so lock traffic shows up in the
    /// same snapshot as the engine's traversal and WAL metrics.
    pub fn with_registry(registry: &Registry) -> Self {
        LockManager {
            state: Mutex::new(State::default()),
            released: Condvar::new(),
            wait_timeout: None,
            metrics: LockMetrics::new(registry),
        }
    }

    /// Creates a manager whose blocking waits give up after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_timeout_and_registry(timeout, &Registry::new())
    }

    /// [`LockManager::with_timeout`], recording into `registry`.
    pub fn with_timeout_and_registry(timeout: Duration, registry: &Registry) -> Self {
        LockManager {
            wait_timeout: Some(timeout),
            ..Self::with_registry(registry)
        }
    }

    /// Shared-ownership constructor for multi-threaded tests and examples.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Starts a transaction.
    pub fn begin(&self) -> TxnId {
        let mut st = self.state.lock();
        st.next_txn += 1;
        TxnId(st.next_txn)
    }

    fn grantable(st: &State, txn: TxnId, resource: Lockable, mode: LockMode) -> bool {
        st.granted
            .get(&resource)
            .map(|holders| {
                holders
                    .iter()
                    .filter(|(t, _)| **t != txn)
                    .all(|(_, modes)| modes.iter().all(|m| compatible(mode, *m)))
            })
            .unwrap_or(true)
    }

    fn record_grant(st: &mut State, txn: TxnId, resource: Lockable, mode: LockMode) {
        st.granted
            .entry(resource)
            .or_default()
            .entry(txn)
            .or_default()
            .push(mode);
        st.held.entry(txn).or_default().insert(resource);
        st.grants += 1;
    }

    /// Non-blocking acquire.
    pub fn try_lock(&self, txn: TxnId, resource: Lockable, mode: LockMode) -> LockResult<()> {
        let mut st = self.state.lock();
        // Re-granting a mode already held is a no-op (idempotent).
        if let Some(modes) = st.granted.get(&resource).and_then(|h| h.get(&txn)) {
            if modes.contains(&mode) {
                return Ok(());
            }
        }
        if Self::grantable(&st, txn, resource, mode) {
            Self::record_grant(&mut st, txn, resource, mode);
            self.metrics.acquires.inc();
            Ok(())
        } else {
            self.metrics.conflicts.inc();
            Err(LockError::WouldBlock {
                txn,
                resource,
                mode,
            })
        }
    }

    /// Blocking acquire with deadlock detection. If the request closes a
    /// waits-for cycle the requester aborts with [`LockError::Deadlock`].
    pub fn lock(&self, txn: TxnId, resource: Lockable, mode: LockMode) -> LockResult<()> {
        let deadline = self.wait_timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock();
        if let Some(modes) = st.granted.get(&resource).and_then(|h| h.get(&txn)) {
            if modes.contains(&mode) {
                return Ok(());
            }
        }
        // Started lazily, on the first conflicting pass; drops (and records
        // the wait latency) at grant, deadlock, or timeout.
        let mut wait_timer = None;
        loop {
            if Self::grantable(&st, txn, resource, mode) {
                st.waits_for.remove(&txn);
                Self::record_grant(&mut st, txn, resource, mode);
                self.metrics.acquires.inc();
                return Ok(());
            }
            if wait_timer.is_none() {
                self.metrics.conflicts.inc();
                self.metrics.waits.inc();
                wait_timer = Some(self.metrics.wait_latency.start_timer());
            }
            // Record who we wait on and check for a cycle.
            let blockers: HashSet<TxnId> = st
                .granted
                .get(&resource)
                .map(|holders| {
                    holders
                        .iter()
                        .filter(|(t, modes)| {
                            **t != txn && modes.iter().any(|m| !compatible(mode, *m))
                        })
                        .map(|(t, _)| *t)
                        .collect()
                })
                .unwrap_or_default();
            st.waits_for.insert(txn, blockers);
            if let Some(cycle) = find_cycle(&st.waits_for, txn) {
                st.waits_for.remove(&txn);
                self.metrics.deadlocks.inc();
                return Err(LockError::Deadlock { txn, cycle });
            }
            match deadline {
                Some(d) => {
                    if self.released.wait_until(&mut st, d).timed_out() {
                        st.waits_for.remove(&txn);
                        self.metrics.timeouts.inc();
                        return Err(LockError::Timeout { txn, resource });
                    }
                }
                None => self.released.wait(&mut st),
            }
        }
    }

    /// Releases every lock the transaction holds (2PL shrink phase).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        if let Some(resources) = st.held.remove(&txn) {
            for r in resources {
                if let Some(holders) = st.granted.get_mut(&r) {
                    holders.remove(&txn);
                    if holders.is_empty() {
                        st.granted.remove(&r);
                    }
                }
            }
        }
        st.waits_for.remove(&txn);
        self.released.notify_all();
    }

    /// The modes `txn` currently holds on `resource`.
    pub fn held_modes(&self, txn: TxnId, resource: Lockable) -> Vec<LockMode> {
        self.state
            .lock()
            .granted
            .get(&resource)
            .and_then(|h| h.get(&txn))
            .cloned()
            .unwrap_or_default()
    }

    /// Every `(resource, mode)` pair `txn` holds.
    pub fn held_by(&self, txn: TxnId) -> Vec<(Lockable, LockMode)> {
        let st = self.state.lock();
        let mut out = Vec::new();
        if let Some(resources) = st.held.get(&txn) {
            for &r in resources {
                if let Some(modes) = st.granted.get(&r).and_then(|h| h.get(&txn)) {
                    for &m in modes {
                        out.push((r, m));
                    }
                }
            }
        }
        out
    }

    /// Total lock requests granted since creation (benchmark metric: the
    /// paper's protocol wins by *reducing the number of locks*).
    pub fn grant_count(&self) -> u64 {
        self.state.lock().grants
    }
}

/// Finds a waits-for cycle through `start`, returning it if present.
fn find_cycle(graph: &HashMap<TxnId, HashSet<TxnId>>, start: TxnId) -> Option<Vec<TxnId>> {
    let mut path = vec![start];
    let mut on_path: HashSet<TxnId> = [start].into();
    fn dfs(
        graph: &HashMap<TxnId, HashSet<TxnId>>,
        start: TxnId,
        node: TxnId,
        path: &mut Vec<TxnId>,
        on_path: &mut HashSet<TxnId>,
    ) -> bool {
        if let Some(nexts) = graph.get(&node) {
            for &n in nexts {
                if n == start {
                    return true;
                }
                if on_path.insert(n) {
                    path.push(n);
                    if dfs(graph, start, n, path, on_path) {
                        return true;
                    }
                    path.pop();
                    on_path.remove(&n);
                }
            }
        }
        false
    }
    if dfs(graph, start, start, &mut path, &mut on_path) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn res(n: u64) -> Lockable {
        Lockable::Instance(Oid::new(ClassId(0), n))
    }

    #[test]
    fn compatible_grants_coexist() {
        let lm = LockManager::new();
        let (t1, t2) = (lm.begin(), lm.begin());
        lm.try_lock(t1, res(1), LockMode::S).unwrap();
        lm.try_lock(t2, res(1), LockMode::S).unwrap();
        lm.try_lock(t2, res(1), LockMode::IS).unwrap();
        assert_eq!(lm.held_modes(t2, res(1)).len(), 2);
    }

    #[test]
    fn conflicting_try_lock_would_block() {
        let lm = LockManager::new();
        let (t1, t2) = (lm.begin(), lm.begin());
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        assert!(matches!(
            lm.try_lock(t2, res(1), LockMode::S),
            Err(LockError::WouldBlock { .. })
        ));
    }

    #[test]
    fn release_unblocks_waiter() {
        let lm = LockManager::shared();
        let t1 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let t2 = lm2.begin();
            lm2.lock(t2, res(1), LockMode::S).unwrap();
            t2
        });
        thread::sleep(Duration::from_millis(20));
        lm.release_all(t1);
        let t2 = h.join().unwrap();
        assert_eq!(lm.held_modes(t2, res(1)), vec![LockMode::S]);
    }

    #[test]
    fn reacquiring_same_mode_is_idempotent() {
        let lm = LockManager::new();
        let t1 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::S).unwrap();
        lm.try_lock(t1, res(1), LockMode::S).unwrap();
        assert_eq!(lm.held_modes(t1, res(1)), vec![LockMode::S]);
        assert_eq!(lm.grant_count(), 1);
    }

    #[test]
    fn own_locks_do_not_self_conflict() {
        let lm = LockManager::new();
        let t1 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::S).unwrap();
        // S + X held by the same transaction is an upgrade, not a conflict.
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        assert_eq!(lm.held_modes(t1, res(1)).len(), 2);
    }

    #[test]
    fn deadlock_is_detected_and_victim_chosen() {
        let lm = LockManager::shared();
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        lm.try_lock(t2, res(2), LockMode::X).unwrap();
        // t1 waits for res2 in another thread.
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(t1, res(2), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        // t2 requesting res1 closes the cycle t2 -> t1 -> t2.
        let err = lm.lock(t2, res(1), LockMode::X).unwrap_err();
        assert!(matches!(err, LockError::Deadlock { txn, .. } if txn == t2));
        // Victim aborts; t1 can proceed.
        lm.release_all(t2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn timeout_bounds_blocking() {
        let lm = LockManager::with_timeout(Duration::from_millis(30));
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        let err = lm.lock(t2, res(1), LockMode::S).unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
    }

    #[test]
    fn release_all_clears_everything() {
        let lm = LockManager::new();
        let t1 = lm.begin();
        lm.try_lock(t1, res(1), LockMode::S).unwrap();
        lm.try_lock(t1, res(2), LockMode::IX).unwrap();
        assert_eq!(lm.held_by(t1).len(), 2);
        lm.release_all(t1);
        assert!(lm.held_by(t1).is_empty());
        // Resource is free again.
        let t2 = lm.begin();
        lm.try_lock(t2, res(1), LockMode::X).unwrap();
    }

    #[test]
    fn class_and_instance_granules_are_distinct() {
        let lm = LockManager::new();
        let t1 = lm.begin();
        let t2 = lm.begin();
        lm.try_lock(t1, Lockable::Class(ClassId(1)), LockMode::X)
            .unwrap();
        // Same numeric id as an instance is a different resource.
        lm.try_lock(t2, res(1), LockMode::X).unwrap();
    }

    #[test]
    fn registry_counters_track_grants_conflicts_and_timeouts() {
        let registry = Registry::new();
        let lm = LockManager::with_timeout_and_registry(Duration::from_millis(10), &registry);
        let (t1, t2) = (lm.begin(), lm.begin());
        lm.try_lock(t1, res(1), LockMode::X).unwrap();
        lm.try_lock(t1, res(1), LockMode::X).unwrap(); // idempotent: not re-counted
        assert!(lm.try_lock(t2, res(1), LockMode::S).is_err());
        assert!(matches!(
            lm.lock(t2, res(1), LockMode::S),
            Err(LockError::Timeout { .. })
        ));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("corion_lock_acquires_total"), 1);
        assert_eq!(snap.counter("corion_lock_conflicts_total"), 2);
        assert_eq!(snap.counter("corion_lock_waits_total"), 1);
        assert_eq!(snap.counter("corion_lock_timeouts_total"), 1);
        let waits = snap.histogram("corion_lock_wait_latency_ns").unwrap();
        assert_eq!(waits.count, 1);
        assert!(waits.sum >= 10_000_000, "waited at least the 10ms timeout");
    }

    #[test]
    fn concurrent_stress_no_lost_grants() {
        let lm = LockManager::shared();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let lm = lm.clone();
                thread::spawn(move || {
                    for i in 0..50 {
                        let t = lm.begin();
                        lm.lock(t, res(i % 5), LockMode::S).unwrap();
                        lm.release_all(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(lm.grant_count(), 8 * 50);
    }
}
