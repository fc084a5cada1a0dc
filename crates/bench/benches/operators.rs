//! Operator-pipeline micro-arms: what the unified physical pipeline costs
//! against the seed interpreter's profile.
//!
//! Two arms over the same Q1-style scan→filter→aggregate statement on one
//! node, both serial (`parallel_workers = 1`):
//!
//! * `interpreter_seed` — the seed's text path: every execution re-lexes,
//!   re-parses, and re-lowers before running the operator tree with
//!   `enable_batch_exec` off. This is the historical row-at-a-time
//!   interpreter's cost profile, preserved verbatim behind the knob.
//! * `unified_pipeline` — the same statement prepared once and executed
//!   through the cached plan with `enable_batch_exec` on and
//!   `enable_columnar` off: the aggregate's compiled scalar fold over its
//!   own morsel scan, without the columnar fold (timed by `columnar.rs`)
//!   or morsel workers (timed by `parallel.rs`).
//!
//! Runs as a plain binary (`harness = false`), prints one line per arm,
//! and writes `BENCH_operators.json` at the workspace root for CI's
//! `bench_smoke` step.

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

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    // Full-table aggregation is the heavy arm; keep iteration counts sane.
    let scan_iters = (iters / 8).max(10);
    let warmup = (scan_iters / 10).max(1);
    let params = [Value::Int(0), Value::Int(ROWS), Value::Int(5)];
    let text = Q1ISH
        .replace("$1", "0")
        .replace("$2", &ROWS.to_string())
        .replace("$3", "5");

    // Recorded so CI's perf gates can tell a timing regression from
    // single-core scheduling noise and skip (with a reason) accordingly.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let db = lineitem();
    db.query("set parallel_workers = 1").unwrap();

    // -- arm 1: interpreter_seed (text, legacy row-at-a-time execution —
    //    the seed's cost profile) ------------------------------------------
    db.query("set enable_batch_exec = off").unwrap();
    let interpreter_us = time_us(warmup, scan_iters, |_| {
        db.query(&text).unwrap();
    });

    // -- arm 2: unified_pipeline (bound, compiled batch exec, scalar
    //    fold) ---------------------------------------------------------------
    db.query("set enable_batch_exec = on").unwrap();
    db.query("set enable_columnar = off").unwrap();
    db.prepare(Q1ISH).unwrap();
    let pipeline_us = time_us(warmup, scan_iters, |_| {
        db.query_bound(Q1ISH, &params).unwrap();
    });

    let pipeline_speedup = interpreter_us / pipeline_us;
    println!(
        "bench operator_pipeline: interpreter-seed {interpreter_us:.1} µs/exec, \
         unified-pipeline {pipeline_us:.1} µs/exec on {cores} core(s)"
    );
    println!("bench operator_pipeline: pipeline vs seed {pipeline_speedup:.2}x");

    // -- report ------------------------------------------------------------
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"interpreter_seed_us_per_exec\": {interpreter_us:.2},\n  \
         \"unified_pipeline_us_per_exec\": {pipeline_us:.2},\n  \
         \"pipeline_speedup_vs_seed\": {pipeline_speedup:.3}\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_operators.json");
    std::fs::write(&out, &json).unwrap();
    println!("wrote {}", out.display());
}
