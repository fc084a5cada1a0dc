//! Node Processors: per-node connection pools, optimizer interference, and
//! the snapshot ordering SVP sub-queries need.
//!
//! Paper §4: "For each connection established by C-JDBC using Apuama, a
//! Node Processor is created and is responsible for mediating and
//! monitoring requests sent to its corresponding DBMS. To be able to
//! process multiple requests, the Node Processor creates a pool of
//! connections."

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use apuama_cjdbc::{BreakerPolicy, Connection, HealthTracker};
use apuama_engine::{EngineError, EngineResult, QueryGovernor, QueryOutput};

/// A counting semaphore bounding concurrent statements per node — the
/// connection pool. (In-process we do not hold real sockets; the pool's
/// observable behaviour — at most `capacity` statements in flight — is what
/// matters.)
#[derive(Debug)]
struct ConnectionPool {
    state: Mutex<usize>,
    available: Condvar,
    capacity: usize,
}

impl ConnectionPool {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a pool needs at least one connection");
        ConnectionPool {
            state: Mutex::new(capacity),
            available: Condvar::new(),
            capacity,
        }
    }

    fn acquire(&self) {
        let mut free = self.state.lock();
        while *free == 0 {
            self.available.wait(&mut free);
        }
        *free -= 1;
    }

    fn release(&self) {
        let mut free = self.state.lock();
        *free += 1;
        drop(free);
        self.available.notify_one();
    }
}

/// RAII pool slot.
struct PoolSlot<'a>(&'a ConnectionPool);

impl Drop for PoolSlot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// State of the `enable_seqscan` interference: how many SVP sub-queries are
/// currently running on this node. The setting is flipped off when the
/// count leaves zero and restored when it returns to zero — the paper's
/// "Apuama disables full scans only before starting to process a query
/// using intra-query parallelism. When the query processing is finished,
/// the original settings are re-established."
#[derive(Debug, Default)]
struct SvpActivity {
    active: Mutex<u64>,
}

/// One node's processor.
pub struct NodeProcessor {
    conn: Arc<dyn Connection>,
    pool: ConnectionPool,
    svp: SvpActivity,
    /// Committed write transactions observed through this processor — the
    /// consistency protocol's per-node transaction counter.
    txn_counter: AtomicU64,
    /// Ordering lock standing in for the DBMS's snapshot isolation: SVP
    /// sub-queries hold it shared, updates exclusively, so an update
    /// admitted after sub-query dispatch cannot slip *before* a sub-query
    /// on one replica and *after* it on another (our engine has no MVCC —
    /// see DESIGN.md).
    snapshot: RwLock<()>,
    /// Whether to force index usage during SVP sub-queries (ablation knob;
    /// the paper always does).
    force_index: bool,
    /// Shared cluster health tracker this processor reports into.
    health: Arc<HealthTracker>,
    /// This node's index in the tracker.
    index: usize,
    /// SVP sub-query statements currently inside `run_guarded` (queued on
    /// the pool or executing). Observable for the timeout-reassignment
    /// leak regression: after an abandoned attempt is cancelled, this
    /// drains back to zero.
    in_flight: AtomicUsize,
}

/// RAII decrement for [`NodeProcessor::in_flight`].
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl NodeProcessor {
    pub fn new(conn: Arc<dyn Connection>, pool_size: usize, force_index: bool) -> Arc<Self> {
        let health = Arc::new(HealthTracker::new(1, BreakerPolicy::default()));
        Self::with_health(conn, pool_size, force_index, health, 0)
    }

    /// Builds a processor that reports request outcomes into a shared
    /// [`HealthTracker`] as node `index` — how the engine wires all
    /// processors to one cluster-wide breaker.
    pub fn with_health(
        conn: Arc<dyn Connection>,
        pool_size: usize,
        force_index: bool,
        health: Arc<HealthTracker>,
        index: usize,
    ) -> Arc<Self> {
        assert!(index < health.node_count());
        Arc::new(NodeProcessor {
            conn,
            pool: ConnectionPool::new(pool_size),
            svp: SvpActivity::default(),
            txn_counter: AtomicU64::new(0),
            snapshot: RwLock::new(()),
            force_index,
            health,
            index,
            in_flight: AtomicUsize::new(0),
        })
    }

    /// The health tracker this processor reports into.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// SVP sub-queries currently holding the seqscan interference.
    pub fn svp_active(&self) -> u64 {
        *self.svp.active.lock()
    }

    /// Node name (from the wrapped connection).
    pub fn name(&self) -> &str {
        self.conn.name()
    }

    /// Pool capacity.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity
    }

    /// SVP sub-query statements currently in flight on this node (queued
    /// on the pool or executing).
    pub fn subqueries_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Committed write transactions seen by this node.
    pub fn txn_count(&self) -> u64 {
        self.txn_counter.load(Ordering::SeqCst)
    }

    /// Pass-through read (non-SVP OLTP/OLAP query, or SET).
    pub fn execute_read(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        let _shared = self.snapshot.read();
        self.conn.execute(sql)
    }

    /// Pass-through read under a [`QueryGovernor`].
    pub fn execute_read_governed(
        &self,
        sql: &str,
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        let _shared = self.snapshot.read();
        self.conn.execute_governed(sql, gov)
    }

    /// Peak pipeline-breaker memory reported by the wrapped backend.
    pub fn mem_peak_bytes(&self) -> u64 {
        self.conn.mem_peak_bytes()
    }

    /// Write (single statement or transaction script): serialized against
    /// in-flight SVP sub-queries, counted on success.
    pub fn execute_write(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        let _exclusive = self.snapshot.write();
        let out = self.conn.execute(sql)?;
        self.txn_counter.fetch_add(1, Ordering::SeqCst);
        Ok(out)
    }

    /// Acquires the shared snapshot ticket for an SVP sub-query. The
    /// returned guard must be held until the sub-query finishes; callers
    /// signal "dispatched" (unblocking updates) once every node holds its
    /// ticket.
    pub fn begin_subquery(&self) -> SubqueryTicket<'_> {
        SubqueryTicket {
            node: self,
            _shared: self.snapshot.read(),
        }
    }

    /// Runs one SVP sub-query statement — pool slot, optimizer
    /// interference, execution — *without* touching the snapshot lock.
    /// Snapshot ordering is the ticket's job; splitting the statement out
    /// lets the engine run it on a detached thread under a deadline (the
    /// ticket guard is not `Send`) while the worker keeps holding the
    /// ticket. Outcomes are reported to the health tracker.
    pub fn run_subquery_statement(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.run_guarded(|conn| conn.execute(sql))
    }

    /// Like [`NodeProcessor::run_subquery_statement`], but executes a
    /// prepared statement with bound range values. Engine-backed
    /// connections serve this from their plan cache — the dispatcher's
    /// "parse and plan once per node" path; interposing connections fall
    /// back to the trait's text-substitution default, which renders the
    /// identical SQL the literal path would send.
    pub fn run_subquery_bound(
        &self,
        sql: &str,
        params: &[apuama_sql::Value],
    ) -> EngineResult<QueryOutput> {
        self.run_guarded(|conn| conn.execute_bound(sql, params))
    }

    /// Like [`NodeProcessor::run_subquery_bound`], but the statement runs
    /// under a [`QueryGovernor`]: a cancelled or expired governor stops it
    /// at the next batch boundary instead of letting it run to completion.
    /// This is how the engine reclaims an abandoned (timed-out) attempt —
    /// the detached thread observes the cancel, unwinds, and releases its
    /// pool slot.
    pub fn run_subquery_bound_governed(
        &self,
        sql: &str,
        params: &[apuama_sql::Value],
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        self.run_guarded(|conn| conn.execute_bound_governed(sql, params, gov))
    }

    fn run_guarded(
        &self,
        run: impl FnOnce(&dyn Connection) -> EngineResult<QueryOutput>,
    ) -> EngineResult<QueryOutput> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _in_flight = InFlightGuard(&self.in_flight);
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        let guard = if self.force_index {
            match SeqscanGuard::engage(self) {
                Ok(g) => Some(g),
                Err(e) => {
                    // The interference SET itself failed: the sub-query
                    // never ran. Plain failure, refcount untouched.
                    self.health.record_failure(self.index);
                    return Err(e);
                }
            }
        } else {
            None
        };
        let result = run(self.conn.as_ref());
        match &result {
            Ok(_) => self.health.record_success(self.index),
            // A cooperative cancel is the *coordinator* abandoning the
            // attempt (timeout reassignment, sibling failure, client
            // cancel) — the node did nothing wrong, so it is
            // health-neutral: neither a success nor a breaker strike.
            Err(EngineError::Cancelled(_)) => {}
            Err(_) => self.health.record_failure(self.index),
        }
        // Dropping the guard *after* recording lets a failed
        // `enable_seqscan = on` restore stand as the node's latest health
        // event without clobbering a successful result.
        drop(guard);
        result
    }

    /// Marks an externally detected failure (the engine's sub-query
    /// deadline firing) against this node.
    pub fn record_timeout(&self) {
        self.health.record_failure(self.index);
    }
}

/// RAII for the `enable_seqscan` interference refcount.
///
/// The count is bumped only after `set enable_seqscan = off` succeeds, and
/// the drop handler always decrements — so a failed SET can no longer leak
/// the refcount and permanently disable the interference (the seed's bug).
/// A failed restore (`set enable_seqscan = on`) is *reported*, not
/// propagated: the sub-query's result stands, and the node's suspect
/// session state is surfaced through the health tracker.
struct SeqscanGuard<'a> {
    node: &'a NodeProcessor,
}

impl<'a> SeqscanGuard<'a> {
    fn engage(node: &'a NodeProcessor) -> EngineResult<Self> {
        let mut active = node.svp.active.lock();
        if *active == 0 {
            // Fallible part first: only a successful SET owns a count.
            node.conn.execute("set enable_seqscan = off")?;
        }
        *active += 1;
        Ok(SeqscanGuard { node })
    }
}

impl Drop for SeqscanGuard<'_> {
    fn drop(&mut self) {
        let node = self.node;
        let mut active = node.svp.active.lock();
        *active -= 1;
        if *active == 0 {
            // Restore the original setting even if the query failed; if the
            // restore itself fails, surface it through the health tracker —
            // never clobber the sub-query result from a drop handler.
            if node.conn.execute("set enable_seqscan = on").is_err() {
                node.health.record_restore_failure(node.index);
            }
        }
    }
}

/// The dispatch ticket: holding it keeps this node's updates ordered after
/// the sub-query. Execute the sub-query through [`SubqueryTicket::run`].
pub struct SubqueryTicket<'a> {
    node: &'a NodeProcessor,
    _shared: parking_lot::RwLockReadGuard<'a, ()>,
}

impl SubqueryTicket<'_> {
    /// Runs the SVP sub-query, applying the optimizer interference.
    pub fn run(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.node.run_subquery_statement(sql)
    }

    /// Runs the SVP sub-query from a prepared statement with bound range
    /// values, applying the optimizer interference.
    pub fn run_bound(&self, sql: &str, params: &[apuama_sql::Value]) -> EngineResult<QueryOutput> {
        self.node.run_subquery_bound(sql, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_cjdbc::{EngineNode, NodeConnection};
    use apuama_engine::Database;

    fn node(force_index: bool) -> (Arc<NodeProcessor>, Arc<EngineNode>) {
        let mut db = Database::new(64);
        db.execute("create table t (k int not null, v float, primary key (k)) clustered by (k)")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!("insert into t values ({i}, {i}.0)"))
                .unwrap();
        }
        let engine_node = EngineNode::new("n0", db);
        let conn: Arc<dyn Connection> = Arc::new(NodeConnection::new(engine_node.clone()));
        (NodeProcessor::new(conn, 4, force_index), engine_node)
    }

    #[test]
    fn passthrough_read_and_write_count() {
        let (np, _) = node(true);
        assert_eq!(np.txn_count(), 0);
        np.execute_write("insert into t values (1000, 0.0)")
            .unwrap();
        assert_eq!(np.txn_count(), 1);
        let out = np.execute_read("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], apuama_sql::Value::Int(101));
        // Reads do not bump the counter.
        assert_eq!(np.txn_count(), 1);
    }

    #[test]
    fn subquery_toggles_seqscan_off_and_back() {
        let (np, engine_node) = node(true);
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
        let ticket = np.begin_subquery();
        ticket
            .run("select sum(v) as s from t where k >= 10 and k < 20")
            .unwrap();
        drop(ticket);
        // Restored afterwards.
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn bound_subquery_matches_literal_and_uses_the_plan_cache() {
        use apuama_sql::Value;
        let (np, engine_node) = node(true);
        let sql = "select sum(v) as s from t where k >= $1 and k < $2";
        let ticket = np.begin_subquery();
        let want = ticket
            .run("select sum(v) as s from t where k >= 10 and k < 20")
            .unwrap();
        for _ in 0..3 {
            let got = ticket
                .run_bound(sql, &[Value::Int(10), Value::Int(20)])
                .unwrap();
            assert_eq!(got.rows, want.rows);
        }
        drop(ticket);
        // Interference restored, and the three bound runs shared one plan,
        // made by the first of them under the ticket's forced
        // `enable_seqscan = off`.
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
        let stats = engine_node.with_db(|db| db.plan_cache_stats());
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
    }

    #[test]
    fn force_index_disabled_leaves_setting_alone() {
        let (np, engine_node) = node(false);
        let ticket = np.begin_subquery();
        // Run and make sure the setting never flipped (we can't observe
        // mid-flight here, but with force_index=false the toggle path is
        // never taken, so a poisoned 'off' would persist if it ran).
        ticket.run("select count(*) as n from t").unwrap();
        drop(ticket);
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn nested_subqueries_share_the_toggle() {
        let (np, engine_node) = node(true);
        let t1 = np.begin_subquery();
        let t2 = np.begin_subquery();
        t1.run("select count(*) as a from t").unwrap();
        // After t1's statement the refcount is back to 0 only if t2 hasn't
        // run yet; run t2 and ensure the final state is restored.
        t2.run("select count(*) as b from t").unwrap();
        drop(t1);
        drop(t2);
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn writes_wait_for_held_tickets() {
        let (np, _) = node(true);
        let ticket = np.begin_subquery();
        let np2 = Arc::clone(&np);
        let writer = std::thread::spawn(move || {
            np2.execute_write("insert into t values (500, 1.0)")
                .unwrap();
        });
        // Give the writer a moment to block on the snapshot lock.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(np.txn_count(), 0, "write must wait for the ticket");
        drop(ticket);
        writer.join().unwrap();
        assert_eq!(np.txn_count(), 1);
    }

    #[test]
    fn failed_seqscan_set_does_not_leak_the_refcount() {
        use apuama_cjdbc::{FaultPlan, FaultyConnection};
        let (np, engine_node) = node(true);
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(engine_node.clone())),
            FaultPlan {
                only_matching: Some("enable_seqscan = off".into()),
                ..FaultPlan::fail_all()
            },
        );
        drop(np);
        let np = NodeProcessor::new(faulty.clone() as Arc<dyn Connection>, 4, true);
        // The interference SET fails; the sub-query surfaces the error…
        let ticket = np.begin_subquery();
        assert!(ticket.run("select count(*) as n from t").is_err());
        drop(ticket);
        // …but the refcount did not leak (the seed bug left it at 1,
        // permanently suppressing the restore).
        assert_eq!(np.svp_active(), 0);
        // After the fault clears, the toggle works end to end again.
        faulty.heal();
        let ticket = np.begin_subquery();
        ticket.run("select count(*) as n from t").unwrap();
        drop(ticket);
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn failed_restore_keeps_the_result_and_reports_health() {
        use apuama_cjdbc::{FaultPlan, FaultyConnection};
        let (np, engine_node) = node(true);
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(engine_node.clone())),
            FaultPlan {
                only_matching: Some("enable_seqscan = on".into()),
                ..FaultPlan::fail_all()
            },
        );
        drop(np);
        let np = NodeProcessor::new(faulty.clone() as Arc<dyn Connection>, 4, true);
        let ticket = np.begin_subquery();
        // The sub-query succeeds; the restore SET fails. The seed discarded
        // the successful result here — it must survive.
        let out = ticket.run("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], apuama_sql::Value::Int(100));
        drop(ticket);
        assert_eq!(np.svp_active(), 0);
        // The failure is surfaced through the health tracker instead.
        assert_eq!(np.health().restore_failures(0), 1);
        // Seqscan is genuinely still off (the restore failed)…
        assert!(!engine_node.with_db(|db| db.seqscan_enabled()));
        // …and the next successful round trip restores it.
        faulty.heal();
        let ticket = np.begin_subquery();
        ticket.run("select count(*) as n from t").unwrap();
        drop(ticket);
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn statement_outcomes_feed_the_health_tracker() {
        let (np, _) = node(true);
        let ticket = np.begin_subquery();
        ticket.run("select count(*) as n from t").unwrap();
        assert!(ticket.run("select nope from missing").is_err());
        drop(ticket);
        assert_eq!(np.health().successes(0), 1);
        assert_eq!(np.health().failures(0), 1);
    }

    #[test]
    fn pool_bounds_concurrency() {
        let (np, _) = node(false);
        // 16 threads over a pool of 4: everything completes (no deadlock)
        // and results are correct.
        std::thread::scope(|s| {
            for _ in 0..16 {
                let np = Arc::clone(&np);
                s.spawn(move || {
                    for _ in 0..10 {
                        np.execute_read("select count(*) as n from t").unwrap();
                    }
                });
            }
        });
    }
}
