//! Columnar-pipeline arms: what transposing scan batches into typed
//! column vectors (DESIGN.md §13) buys on the scan→filter→aggregate shape
//! an aggregate drives itself.
//!
//! Two arms over the same Q1-style statement on one node, both prepared
//! once, executed through the cached plan, and serial
//! (`parallel_workers = 1`):
//!
//! * `row_pipeline` — `enable_columnar = off`: the aggregate's compiled
//!   scalar row loop, the baseline the columnar fold is gated against.
//! * `columnar` — `enable_columnar = on` (the default): predicate and
//!   aggregate loops over typed column vectors under a selection vector.
//!
//! Runs as a plain binary (`harness = false`), prints one line per arm,
//! and writes `BENCH_columnar.json` at the workspace root for CI's
//! `columnar_pipeline` step. The recorded `cores` count lets the perf
//! gate skip the speedup assertion on single-core machines, where one
//! noisy scheduler tick swamps a microsecond-scale arm.

use std::time::Instant;

use apuama_engine::Database;
use apuama_sql::Value;

const ROWS: i64 = 20_000;

const Q1ISH: &str = "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
     count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
     and l_quantity > $3 group by l_returnflag order by l_returnflag";

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

    let db = lineitem();
    let params = [Value::Int(0), Value::Int(ROWS), Value::Int(5)];
    db.query("set enable_batch_exec = on").unwrap();
    db.prepare(Q1ISH).unwrap();

    db.query("set parallel_workers = 1").unwrap();

    // Sanity first: both modes must answer identically before either is
    // worth timing (quantities and 1.25-step prices are exact in f64).
    db.query("set enable_columnar = off").unwrap();
    let want = db.query_bound(Q1ISH, &params).unwrap();
    db.query("set enable_columnar = on").unwrap();
    assert_eq!(db.query_bound(Q1ISH, &params).unwrap().rows, want.rows);

    // -- arm 1: row_pipeline (columnar off) --------------------------------
    db.query("set enable_columnar = off").unwrap();
    let row_us = time_us(warmup, iters, || {
        db.query_bound(Q1ISH, &params).unwrap();
    });

    // -- arm 2: columnar (the default) -------------------------------------
    db.query("set enable_columnar = on").unwrap();
    let columnar_us = time_us(warmup, iters, || {
        db.query_bound(Q1ISH, &params).unwrap();
    });

    let columnar_speedup = row_us / columnar_us;
    println!(
        "bench columnar_pipeline: row-pipeline {row_us:.1} µs/exec, \
         columnar {columnar_us:.1} µs/exec on {cores} core(s)"
    );
    println!("bench columnar_pipeline: columnar vs row pipeline {columnar_speedup:.2}x");

    // -- report ------------------------------------------------------------
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"row_pipeline_us_per_exec\": {row_us:.2},\n  \
         \"columnar_us_per_exec\": {columnar_us:.2},\n  \
         \"columnar_speedup_vs_row_pipeline\": {columnar_speedup:.3}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_columnar.json");
    std::fs::write(&out, &json).unwrap();
    println!("wrote {}", out.display());
}
