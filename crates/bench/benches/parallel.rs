//! Morsel-driven intra-node parallelism arms: what the third parallelism
//! tier buys on one node.
//!
//! Two statement shapes over the same 20 k-row lineitem-style table, each
//! timed serial (`parallel_workers = 1`) and parallel (`parallel_workers =
//! max(2, cores)`):
//!
//! * `aggregate` — the Q1-style scan→filter→aggregate statement, which
//!   the aggregate drives itself; parallel mode folds each page-aligned
//!   morsel into a partial group table on the worker pool and merges the
//!   partials in morsel order.
//! * `scan` — a selective filter + sort; the scan stays serial (only
//!   aggregates fold morsels on the pool) and parallel mode chunk-sorts on
//!   the worker pool.
//!
//! Runs as a plain binary (`harness = false`), prints one line per arm,
//! and writes `BENCH_parallel.json` at the workspace root for CI's
//! `parallel_pipeline` step. The recorded `cores` count lets the perf gate
//! skip the speedup assertion on single-core machines, where the morsel
//! coordinator can only add overhead.

use std::time::Instant;

use apuama_engine::Database;
use apuama_sql::Value;

const ROWS: i64 = 20_000;

const AGG: &str = "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
     count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
     and l_quantity > $3 group by l_returnflag order by l_returnflag";

const SCAN: &str = "select l_orderkey, l_extendedprice from lineitem \
     where l_quantity > $1 order by l_extendedprice, l_orderkey limit 100";

fn lineitem() -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table lineitem (l_orderkey int not null, l_quantity int, \
         l_extendedprice float, l_returnflag text, primary key (l_orderkey)) \
         clustered by (l_orderkey)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Float((i % 97) as f64 * 1.25),
                Value::Str(format!("F{}", i % 3)),
            ]
        })
        .collect();
    db.load_table("lineitem", rows).unwrap();
    db
}

/// Mean microseconds per execution over `iters` runs of `f` (after
/// `warmup` untimed runs).
fn time_us(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let iters = (iters / 8).max(10);
    let warmup = (iters / 10).max(1);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = cores.max(2);

    let db = lineitem();
    let agg_params = [Value::Int(0), Value::Int(ROWS), Value::Int(5)];
    let scan_params = [Value::Int(40)];
    db.prepare(AGG).unwrap();
    db.prepare(SCAN).unwrap();

    // Sanity first: both modes must answer identically before either is
    // worth timing (quantities and 1.25-step prices are exact in f64).
    db.query("set parallel_workers = 1").unwrap();
    let want_agg = db.query_bound(AGG, &agg_params).unwrap();
    let want_scan = db.query_bound(SCAN, &scan_params).unwrap();
    db.query(&format!("set parallel_workers = {workers}"))
        .unwrap();
    assert_eq!(
        db.query_bound(AGG, &agg_params).unwrap().rows,
        want_agg.rows
    );
    assert_eq!(
        db.query_bound(SCAN, &scan_params).unwrap().rows,
        want_scan.rows
    );

    // -- aggregate arm -----------------------------------------------------
    db.query("set parallel_workers = 1").unwrap();
    let agg_serial_us = time_us(warmup, iters, || {
        db.query_bound(AGG, &agg_params).unwrap();
    });
    db.query(&format!("set parallel_workers = {workers}"))
        .unwrap();
    let agg_parallel_us = time_us(warmup, iters, || {
        db.query_bound(AGG, &agg_params).unwrap();
    });

    // -- scan + sort arm ---------------------------------------------------
    db.query("set parallel_workers = 1").unwrap();
    let scan_serial_us = time_us(warmup, iters, || {
        db.query_bound(SCAN, &scan_params).unwrap();
    });
    db.query(&format!("set parallel_workers = {workers}"))
        .unwrap();
    let scan_parallel_us = time_us(warmup, iters, || {
        db.query_bound(SCAN, &scan_params).unwrap();
    });

    let speedup = agg_serial_us / agg_parallel_us;
    let scan_speedup = scan_serial_us / scan_parallel_us;
    println!(
        "bench parallel_pipeline: aggregate serial {agg_serial_us:.1} µs/exec, \
         parallel ×{workers} {agg_parallel_us:.1} µs/exec ({speedup:.2}x) on {cores} core(s)"
    );
    println!(
        "bench parallel_pipeline: scan serial {scan_serial_us:.1} µs/exec, \
         parallel ×{workers} {scan_parallel_us:.1} µs/exec ({scan_speedup:.2}x)"
    );

    // -- report ------------------------------------------------------------
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"workers\": {workers},\n  \
         \"serial_us_per_exec\": {agg_serial_us:.2},\n  \
         \"parallel_us_per_exec\": {agg_parallel_us:.2},\n  \
         \"parallel_speedup_vs_serial\": {speedup:.3},\n  \
         \"scan_serial_us_per_exec\": {scan_serial_us:.2},\n  \
         \"scan_parallel_us_per_exec\": {scan_parallel_us:.2},\n  \
         \"scan_parallel_speedup_vs_serial\": {scan_speedup:.3}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel.json");
    std::fs::write(&out, &json).unwrap();
    println!("wrote {}", out.display());
}
