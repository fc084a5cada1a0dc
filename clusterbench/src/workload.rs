//! The three workloads, their seed-derived inputs, and the client loops
//! that drive them through `Controller::execute` and
//! `Controller::execute_write_transaction`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apuama_engine::{EngineResult, ExecStats, PlanCacheStats, QueryOutput};
use apuama_sql::Value;
use apuama_tpch::{query_sequence, refresh_stream, QueryParams, RefreshTransaction, TpchData};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cluster::Cluster;
use crate::trace::{Kind, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop client running TPC-H power streams; no writes.
    OlapPower,
    /// One closed-loop client: a refresh transaction, then three point
    /// lookups, per iteration.
    Oltp,
    /// The power-stream client plus an open-loop refresh writer.
    Mixed,
}

pub const WORKLOADS: [Workload; 3] = [Workload::OlapPower, Workload::Oltp, Workload::Mixed];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapPower => "olap_power",
            Workload::Oltp => "oltp",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Ops of this workload's unrecorded warm-up: every distinct OLAP
    /// statement once, or five `oltp` pairs.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::Oltp => 40,
            _ => 8 * PARAM_SETS as usize,
        }
    }

    /// Ops over which exact counts are taken: the first `count_ops`
    /// closed-loop ops of a traced phase.
    pub fn count_ops(self) -> usize {
        match self {
            Workload::Oltp => 400,
            _ => 16,
        }
    }
}

/// Parameter sets drawn per seed for the OLAP statements; stream `k`
/// runs `query_sequence(k)` with set `k`. Six sets keep the distinct
/// sub-query texts per node (48) within the 64-entry plan cache.
pub const PARAM_SETS: u64 = 6;
/// Open-loop writer rate in `mixed`, transactions per second.
pub const WRITER_TPS: f64 = 50.0;

/// What an op was, for the per-class metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// An eval query through the power stream.
    Olap,
    /// A refresh transaction.
    Write,
    /// A point lookup on a fact table (`orders`, `lineitem`): the SVP path.
    Lookup,
    /// A point lookup on `customer`, which SVP passes through.
    Passthrough,
}

/// One client operation as the client saw it. Times are seconds since
/// the phase began.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// When an open-loop op was due; equals `start` for closed-loop ops.
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub ok: bool,
    /// True for ops of the closed-loop client.
    pub closed_loop: bool,
    /// Root span of the op in a traced phase.
    pub root: Option<u32>,
    /// Index of the statement text (OLAP ops) for per-statement checks.
    pub stmt: Option<usize>,
    pub stats: ExecStats,
    /// Result rows and the cluster's plan-cache counters after the op,
    /// kept only when the budget asks (the fidelity tests).
    pub rows: Option<Vec<Vec<Value>>>,
    pub plan_cache: Option<PlanCacheStats>,
    /// Microseconds `apuama_sql::parse_statements` takes on the op's text
    /// (traced phases only).
    pub parse_us: f64,
}

impl Op {
    /// Latency as the user sees it: from when the op was due.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }
}

/// One distinct OLAP statement and its single-replica answer.
pub struct OlapStmt {
    pub label: String,
    pub sql: String,
    pub reference: QueryOutput,
}

/// Seed-derived inputs shared by every phase of a run.
pub struct Inputs {
    pub olap: Vec<OlapStmt>,
    /// Power streams as indices into `olap`, cycled in order.
    pub streams: Vec<Vec<usize>>,
    orders: HashMap<i64, usize>,
    lineitems: HashMap<i64, Vec<usize>>,
    customers: HashMap<i64, usize>,
    base_orders: i64,
    seed: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Draws the statements and keys from `seed`; `reference` answers each
    /// distinct OLAP statement once (on a standalone replica).
    pub fn new(
        data: &TpchData,
        seed: u64,
        reference: impl Fn(&str) -> EngineResult<QueryOutput>,
    ) -> Inputs {
        let params: Vec<QueryParams> = (0..PARAM_SETS)
            .map(|p| QueryParams::random(mix(seed, 0x51 + p)))
            .collect();
        let mut olap = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut streams = Vec::new();
        for (s, p) in params.iter().enumerate() {
            let stream = query_sequence(s as u64)
                .into_iter()
                .map(|q| {
                    let sql = q.sql(p);
                    *index.entry(sql.clone()).or_insert_with(|| {
                        let reference = reference(&sql)
                            .unwrap_or_else(|e| panic!("reference {}: {e}", q.label()));
                        olap.push(OlapStmt {
                            label: q.label().to_lowercase(),
                            sql,
                            reference,
                        });
                        olap.len() - 1
                    })
                })
                .collect();
            streams.push(stream);
        }
        let key = |r: &Vec<Value>| r[0].as_i64().expect("integer key");
        let mut lineitems: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, r) in data.lineitem.iter().enumerate() {
            lineitems.entry(key(r)).or_default().push(i);
        }
        let orders: HashMap<i64, usize> = data
            .orders
            .iter()
            .enumerate()
            .map(|(i, r)| (key(r), i))
            .collect();
        Inputs {
            olap,
            streams,
            base_orders: orders.keys().copied().max().unwrap_or(0),
            orders,
            lineitems,
            customers: data
                .customer
                .iter()
                .enumerate()
                .map(|(i, r)| (key(r), i))
                .collect(),
            seed,
        }
    }

    /// Statement indices of the power streams, flattened in run order.
    pub fn olap_sequence(&self) -> impl Iterator<Item = usize> + '_ {
        self.streams.iter().flatten().copied().cycle()
    }
}

/// Refresh transactions from `refresh_stream`, issued as insert/delete
/// pairs of one order each, keyed above the base orders: after every even
/// number of transactions the base data is restored.
pub struct RefreshPairs {
    config: apuama_tpch::TpchConfig,
    start_key: i64,
    seed: u64,
    chunk: Vec<RefreshTransaction>,
    next: usize,
    chunks: u64,
}

/// Orders per `refresh_stream` call (each gives an insert and a delete).
const PAIRS_PER_CHUNK: usize = 256;

impl RefreshPairs {
    pub fn new(data: &TpchData, inputs: &Inputs, salt: u64) -> RefreshPairs {
        RefreshPairs {
            config: data.config,
            start_key: inputs.base_orders + 1,
            seed: mix(inputs.seed, salt),
            chunk: Vec::new(),
            next: 0,
            chunks: 0,
        }
    }

    pub fn next_txn(&mut self) -> RefreshTransaction {
        if self.next == self.chunk.len() {
            let n = PAIRS_PER_CHUNK;
            let first = self.start_key + (self.chunks as usize * n) as i64;
            let stream = refresh_stream(&self.config, 2 * n, first, mix(self.seed, self.chunks));
            let (ins, del) = stream.split_at(n);
            self.chunk = ins
                .iter()
                .zip(del)
                .flat_map(|(i, d)| [i.clone(), d.clone()])
                .collect();
            self.next = 0;
            self.chunks += 1;
        }
        self.next += 1;
        self.chunk[self.next - 1].clone()
    }
}

// Every column, in table order, named: the SVP rewriter passes `SELECT *`
// through, and a fact-table lookup is meant to take the SVP path.
const ORDERS_COLUMNS: &str = "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
     o_orderpriority, o_clerk, o_shippriority, o_comment";
const LINEITEM_COLUMNS: &str = "l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, \
     l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate, l_commitdate, \
     l_receiptdate, l_shipinstruct, l_shipmode, l_comment";
const CUSTOMER_COLUMNS: &str = "c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, \
     c_mktsegment, c_comment";

/// Seed-derived point-lookup keys over the base data.
pub struct Lookups {
    rng: StdRng,
    orders: i64,
    customers: i64,
}

impl Lookups {
    pub fn new(data: &TpchData, inputs: &Inputs, salt: u64) -> Lookups {
        Lookups {
            rng: StdRng::seed_from_u64(mix(inputs.seed, salt)),
            orders: inputs.base_orders,
            customers: data.config.customers() as i64,
        }
    }

    /// The three lookups of one `oltp` iteration.
    fn next(&mut self) -> [(Class, String, LookupKey); 3] {
        let o = self.rng.random_range(1..=self.orders);
        let l = self.rng.random_range(1..=self.orders);
        let c = self.rng.random_range(1..=self.customers);
        [
            (
                Class::Lookup,
                format!("select {ORDERS_COLUMNS} from orders where o_orderkey = {o}"),
                LookupKey::Order(o),
            ),
            (
                Class::Lookup,
                format!("select {LINEITEM_COLUMNS} from lineitem where l_orderkey = {l}"),
                LookupKey::Lineitem(l),
            ),
            (
                Class::Passthrough,
                format!("select {CUSTOMER_COLUMNS} from customer where c_custkey = {c}"),
                LookupKey::Customer(c),
            ),
        ]
    }
}

#[derive(Debug, Clone, Copy)]
enum LookupKey {
    Order(i64),
    Lineitem(i64),
    Customer(i64),
}

/// How long a phase runs: until `seconds` passed and at least `min_ops`
/// closed-loop ops completed. Writers in `mixed` issue a fixed count.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
    /// Keep every op's result rows and plan-cache counters.
    pub record_results: bool,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    /// Answers that disagreed with the reference or the generated rows.
    pub mismatches: Vec<String>,
    /// OLAP answers checked against the reference.
    pub verified: usize,
    /// Plan-cache counters before the phase and after the
    /// `count_ops`-th closed-loop op.
    pub plan_cache_before: PlanCacheStats,
    pub plan_cache_at_count: Option<PlanCacheStats>,
    /// Wall time of the phase, seconds.
    pub seconds: f64,
    /// How late the open-loop writer started each transaction, ms.
    pub gen_lag_ms: Vec<f64>,
}

/// What a client op sends: a read statement or a refresh transaction.
#[derive(Clone, Copy)]
enum Request<'a> {
    Statement(&'a str),
    Transaction(&'a RefreshTransaction),
}

/// The shared state of one phase's client loops.
struct Ctx<'a> {
    cluster: &'a Cluster,
    inputs: &'a Inputs,
    tracer: Option<&'a Arc<Tracer>>,
    t0: Instant,
    record_results: bool,
}

impl Ctx<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs one client op through the controller and records it.
    fn run(&self, class: Class, req: Request<'_>, due: Option<f64>) -> (Op, Option<QueryOutput>) {
        let kind = match req {
            Request::Statement(_) => Kind::Read,
            Request::Transaction(_) => Kind::Write,
        };
        let start = self.now();
        let (result, root) = {
            let guard = self.tracer.map(|t| t.client_op(kind));
            let result = match req {
                Request::Statement(sql) => self.cluster.controller.execute(sql).map(|(o, _)| o),
                Request::Transaction(t) => self
                    .cluster
                    .controller
                    .execute_write_transaction(&t.statements),
            };
            (result, guard.as_ref().map(|g| g.id))
        };
        let end = self.now();
        let parse_us = if self.tracer.is_some() {
            let text = match req {
                Request::Statement(sql) => sql.to_string(),
                // The script `execute_write_transaction` builds.
                Request::Transaction(t) => format!("begin; {}; commit", t.statements.join("; ")),
            };
            let t = Instant::now();
            let _ = apuama_sql::parse_statements(&text);
            t.elapsed().as_nanos() as f64 / 1e3
        } else {
            0.0
        };
        let out = result.ok();
        let op = Op {
            class,
            due: due.unwrap_or(start),
            start,
            end,
            ok: out.is_some(),
            closed_loop: due.is_none(),
            root,
            stmt: None,
            stats: out.as_ref().map(|o| o.stats).unwrap_or_default(),
            rows: out
                .as_ref()
                .filter(|_| self.record_results)
                .map(|o| o.rows.clone()),
            plan_cache: self.record_results.then(|| self.cluster.plan_cache()),
            parse_us,
        };
        (op, out)
    }
}

/// Compares an OLAP answer with its reference: same columns, same rows in
/// order, floats within 1e-9 relative.
pub fn olap_mismatch(got: &QueryOutput, want: &QueryOutput) -> Option<String> {
    if got.columns != want.columns {
        return Some(format!("columns {:?} vs {:?}", got.columns, want.columns));
    }
    if got.rows.len() != want.rows.len() {
        return Some(format!("{} rows vs {}", got.rows.len(), want.rows.len()));
    }
    for (i, (a, b)) in got.rows.iter().zip(&want.rows).enumerate() {
        if a.len() != b.len() {
            return Some(format!("row {i}: arity {} vs {}", a.len(), b.len()));
        }
        for (x, y) in a.iter().zip(b) {
            let same = match (x, y) {
                (Value::Float(_), _) | (_, Value::Float(_)) => match (x.as_f64(), y.as_f64()) {
                    (Some(p), Some(q)) => p == q || (p - q).abs() <= 1e-9 * p.abs().max(q.abs()),
                    _ => false,
                },
                _ => x == y,
            };
            if !same {
                return Some(format!("row {i}: {x:?} vs {y:?}"));
            }
        }
    }
    None
}

fn lookup_mismatch(
    inputs: &Inputs,
    data: &TpchData,
    key: LookupKey,
    got: &QueryOutput,
) -> Option<String> {
    let linenumber = |r: &Vec<Value>| r[3].as_i64().unwrap_or(0);
    let (want, rows): (Vec<Vec<Value>>, Vec<Vec<Value>>) = match key {
        LookupKey::Order(k) => (
            inputs
                .orders
                .get(&k)
                .map(|&i| data.orders[i].clone())
                .into_iter()
                .collect(),
            got.rows.clone(),
        ),
        LookupKey::Customer(k) => (
            inputs
                .customers
                .get(&k)
                .map(|&i| data.customer[i].clone())
                .into_iter()
                .collect(),
            got.rows.clone(),
        ),
        LookupKey::Lineitem(k) => {
            let mut want: Vec<Vec<Value>> = inputs
                .lineitems
                .get(&k)
                .map(|ix| ix.iter().map(|&i| data.lineitem[i].clone()).collect())
                .unwrap_or_default();
            want.sort_by_key(linenumber);
            let mut rows = got.rows.clone();
            rows.sort_by_key(linenumber);
            (want, rows)
        }
    };
    (rows != want).then(|| format!("{key:?}: got {} rows, want {}", rows.len(), want.len()))
}

/// Runs `warmup` unrecorded ops and then one measured phase of `workload`
/// through `cluster`. `gens` continues across calls, so consecutive phases
/// draw fresh inputs deterministically.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    workload: Workload,
    cluster: &Cluster,
    data: &TpchData,
    inputs: &Inputs,
    gens: &mut Generators<'_>,
    tracer: Option<&Arc<Tracer>>,
    warmup: usize,
    budget: Budget,
) -> Phase {
    let ctx = Ctx {
        cluster,
        inputs,
        tracer,
        t0: Instant::now(),
        record_results: budget.record_results,
    };
    let mut phase = Phase::default();
    // Warm-up: closed-loop ops, unrecorded.
    {
        let mut scratch = Phase::default();
        let mut n = 0;
        while n < warmup {
            n += closed_loop_step(workload, &ctx, data, gens, &mut scratch, None);
        }
        phase.mismatches = scratch.mismatches;
        phase.verified = scratch.verified;
    }
    phase.plan_cache_before = cluster.plan_cache();
    let ctx = Ctx {
        t0: Instant::now(),
        ..ctx
    };
    let count_ops = workload.count_ops();
    match workload {
        Workload::OlapPower | Workload::Oltp => {
            let mut done = 0;
            while done < budget.min_ops || ctx.now() < budget.seconds {
                done += closed_loop_step(workload, &ctx, data, gens, &mut phase, None);
                if phase.plan_cache_at_count.is_none() && done >= count_ops {
                    phase.plan_cache_at_count = Some(cluster.plan_cache());
                }
            }
        }
        Workload::Mixed => {
            let txns = ((WRITER_TPS * budget.seconds / 2.0).round() as usize).max(1) * 2;
            let writes: Vec<RefreshTransaction> =
                (0..txns).map(|_| gens.refresh.next_txn()).collect();
            // Writer progress: transactions started and committed, so the
            // reader can tell which answers saw the base data.
            let started = AtomicU64::new(0);
            let committed = AtomicU64::new(0);
            let writer_done = AtomicBool::new(false);
            let (writer_ops, lag) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut ops = Vec::with_capacity(txns);
                    let mut lag = Vec::with_capacity(txns);
                    for (j, t) in writes.iter().enumerate() {
                        let due = j as f64 / WRITER_TPS;
                        let wait = due - ctx.now();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        started.fetch_add(1, Ordering::SeqCst);
                        let (op, _) = ctx.run(Class::Write, Request::Transaction(t), Some(due));
                        committed.fetch_add(1, Ordering::SeqCst);
                        lag.push((op.start - due) * 1e3);
                        ops.push(op);
                    }
                    writer_done.store(true, Ordering::SeqCst);
                    (ops, lag)
                });
                let mut done = 0;
                while done < budget.min_ops || !writer_done.load(Ordering::SeqCst) {
                    let writes_before = (
                        started.load(Ordering::SeqCst),
                        committed.load(Ordering::SeqCst),
                    );
                    done += closed_loop_step(
                        workload,
                        &ctx,
                        data,
                        gens,
                        &mut phase,
                        Some(&|| {
                            // No write in flight before, none started or
                            // committed while the query ran, and every pair
                            // complete: the query saw the base data.
                            let (s0, c0) = writes_before;
                            let writes_after = (
                                started.load(Ordering::SeqCst),
                                committed.load(Ordering::SeqCst),
                            );
                            s0 == c0 && writes_after == writes_before && c0 % 2 == 0
                        }),
                    );
                    if phase.plan_cache_at_count.is_none() && done >= count_ops {
                        phase.plan_cache_at_count = Some(cluster.plan_cache());
                    }
                }
                writer.join().expect("writer thread")
            });
            phase.ops.extend(writer_ops);
            phase.gen_lag_ms = lag;
        }
    }
    phase.seconds = ctx.now();
    phase
}

/// The per-run input streams, continued across phases.
pub struct Generators<'a> {
    pub olap: Box<dyn Iterator<Item = usize> + 'a>,
    pub refresh: RefreshPairs,
    pub lookups: Lookups,
}

impl<'a> Generators<'a> {
    pub fn new(data: &TpchData, inputs: &'a Inputs) -> Generators<'a> {
        Generators {
            olap: Box::new(inputs.olap_sequence()),
            refresh: RefreshPairs::new(data, inputs, 0xF1),
            lookups: Lookups::new(data, inputs, 0xF2),
        }
    }
}

/// One step of the closed-loop client: an OLAP query, or two `oltp`
/// iterations (one insert/delete pair). Returns the number of ops it ran.
/// `base_state`, when given, says after an OLAP query whether it provably
/// ran against the base data; only then is its answer compared with the
/// reference.
fn closed_loop_step(
    workload: Workload,
    ctx: &Ctx<'_>,
    data: &TpchData,
    gens: &mut Generators<'_>,
    phase: &mut Phase,
    base_state: Option<&dyn Fn() -> bool>,
) -> usize {
    match workload {
        Workload::OlapPower | Workload::Mixed => {
            let i = gens.olap.next().expect("cycled");
            let stmt = &ctx.inputs.olap[i];
            let (mut op, out) = ctx.run(Class::Olap, Request::Statement(&stmt.sql), None);
            op.stmt = Some(i);
            if let Some(out) = out {
                if base_state.is_none_or(|f| f()) {
                    phase.verified += 1;
                    if let Some(m) = olap_mismatch(&out, &stmt.reference) {
                        phase.mismatches.push(format!("{}: {m}", stmt.label));
                    }
                }
            }
            phase.ops.push(op);
            1
        }
        Workload::Oltp => {
            // Two iterations, so every insert is followed by its delete
            // before the loop can stop.
            let mut n = 0;
            for _ in 0..2 {
                let txn = gens.refresh.next_txn();
                let (op, _) = ctx.run(Class::Write, Request::Transaction(&txn), None);
                phase.ops.push(op);
                for (class, sql, key) in gens.lookups.next() {
                    let (op, out) = ctx.run(class, Request::Statement(&sql), None);
                    if let Some(out) = out {
                        if let Some(m) = lookup_mismatch(ctx.inputs, data, key, &out) {
                            phase.mismatches.push(m);
                        }
                    }
                    phase.ops.push(op);
                }
                n += 4;
            }
            n
        }
    }
}
