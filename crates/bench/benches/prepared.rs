//! Prepared-plan micro-arm: what the plan cache buys.
//!
//! `prepared_vs_text` — the SVP dispatcher's eval-query shape (narrow
//! range slice of a Q1-style aggregate) executed on one node by
//! re-sending rendered text versus prepare-once + bind-per-execution.
//! Text pays lex, parse, and planning on every execution; the bound path
//! pays them once.
//!
//! Runs as a plain binary (`harness = false`), prints one line per arm,
//! and writes `BENCH_prepared.json` at the workspace root for CI's
//! `bench_smoke` step.

use std::time::Instant;

use apuama_engine::Database;
use apuama_sql::Value;

const ROWS: i64 = 20_000;
const SLICE: i64 = 128;

const Q1ISH: &str = "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
     count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
     group by l_returnflag order by l_returnflag";

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
fn time_us(warmup: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..warmup {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(warmup + i);
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn slice_bounds(i: usize) -> (i64, i64) {
    let lo = (i as i64 * SLICE) % (ROWS - SLICE);
    (lo, lo + SLICE)
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);

    // -- arm 1: prepared_vs_text ------------------------------------------
    let db = lineitem();
    let text_us = time_us(iters / 10, iters, |i| {
        let (lo, hi) = slice_bounds(i);
        // What a text-only driver sends: render literals, then the engine
        // lexes, parses, and plans the statement before running it.
        let sql = Q1ISH
            .replace("$1", &lo.to_string())
            .replace("$2", &hi.to_string());
        db.query(&sql).unwrap();
    });
    db.prepare(Q1ISH).unwrap();
    let prepared_us = time_us(iters / 10, iters, |i| {
        let (lo, hi) = slice_bounds(i);
        db.query_bound(Q1ISH, &[Value::Int(lo), Value::Int(hi)])
            .unwrap();
    });
    let prepared_speedup = text_us / prepared_us;
    println!(
        "bench prepared_vs_text: text {text_us:.1} µs/exec, \
         prepared {prepared_us:.1} µs/exec, speedup {prepared_speedup:.2}x"
    );

    // -- report ------------------------------------------------------------
    // Recorded so CI's perf gates can tell a timing regression from
    // single-core scheduling noise and skip (with a reason) accordingly.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"text_us_per_exec\": {text_us:.2},\n  \
         \"prepared_us_per_exec\": {prepared_us:.2},\n  \
         \"prepared_speedup\": {prepared_speedup:.3}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_prepared.json");
    std::fs::write(&out, &json).unwrap();
    println!("wrote {}", out.display());
}
