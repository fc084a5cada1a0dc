//! `EXPLAIN ANALYZE` golden tests over a representative TPC-H query: the
//! rendered tree must expose per-operator actual row counts that match the
//! plain query's output, and the per-operator self times must be
//! internally consistent with the reported total execution time.

use apuama::{DataCatalog, Rewritten, SvpRewriter};
use apuama_engine::Database;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, TpchQuery, ALL_QUERIES};

fn tpch_db() -> Database {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    db
}

fn plan_lines(db: &Database, sql: &str) -> Vec<String> {
    let out = db.query(sql).unwrap();
    assert_eq!(out.columns, vec!["plan"]);
    out.rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect()
}

/// Pulls `name=<float>` out of an operator line.
fn field(line: &str, name: &str) -> f64 {
    let marker = format!("{name}=");
    let start = line.find(&marker).unwrap_or_else(|| {
        panic!("line {line:?} has no {marker}");
    }) + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

/// Checks one rendered tree: a footer with the wall-clock total, the
/// actual-rows annotation on every operator, an unindented root reporting
/// exactly the query's rows, and — the tree being serial — exclusive self
/// times that telescope to the root's inclusive time, itself bounded by
/// the footer.
fn assert_consistent_serial_tree(lines: &[String], expected_rows: f64) {
    let (footer, ops) = lines.split_last().expect("non-empty plan");
    assert!(footer.starts_with("execution time: "), "{footer}");
    let total_ms: f64 = footer
        .trim_start_matches("execution time: ")
        .trim_end_matches(" ms")
        .parse()
        .unwrap();
    for op in ops {
        assert!(
            op.contains("(actual rows=") && op.contains("self_ms="),
            "{op}"
        );
    }
    let root = &ops[0];
    assert!(!root.starts_with(' '), "root must be unindented: {root}");
    assert_eq!(field(root, "rows"), expected_rows, "{root}");

    // Slack covers the 3-decimal rendering of each line.
    let self_sum: f64 = ops.iter().map(|l| field(l, "self_ms")).sum();
    let root_total = field(root, "total_ms");
    let slack = root_total * 0.01 + 0.01;
    assert!(
        (self_sum - root_total).abs() <= slack,
        "self_ms sum {self_sum} differs from root total {root_total}\n{lines:?}"
    );
    assert!(
        root_total <= total_ms * 1.01 + 0.1,
        "root total {root_total} exceeds execution time {total_ms}"
    );
    // And the accounting is not degenerate: the probes did record time.
    assert!(total_ms > 0.0, "{footer}");
}

#[test]
fn explain_analyze_tpch_q1ish_reports_consistent_tree() {
    let db = tpch_db();
    // Pinned serial: with morsel workers the per-worker probe lines report
    // overlapping wall time, so the self-time sum is a serial-tree
    // invariant. The parallel rendering has its own test.
    db.query("set parallel_workers = 1").unwrap();
    let q = &ALL_QUERIES[0];
    let sql = q.sql(&QueryParams::random(7));
    let expected_rows = db.query(&sql).unwrap().rows.len() as f64;

    // Q1 is one aggregate over one table: the aggregate drives the scan
    // itself and renders as a single node, inline at one worker.
    let lines = plan_lines(&db, &format!("explain analyze {sql}"));
    let aggs: Vec<&String> = lines
        .iter()
        .filter(|l| l.trim_start().starts_with("aggregate over lineitem"))
        .collect();
    assert_eq!(aggs.len(), 1, "{lines:?}");
    assert!(!aggs[0].contains("[parallel"), "{lines:?}");
    assert!(
        !lines.iter().any(|l| l.trim_start().starts_with("scan ")),
        "{lines:?}"
    );
    assert_consistent_serial_tree(&lines, expected_rows);

    // The interpreter profile streams a scan into a separate aggregate.
    db.query("set enable_batch_exec = off").unwrap();
    let lines = plan_lines(&db, &format!("explain analyze {sql}"));
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("scan ")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("aggregate (")),
        "{lines:?}"
    );
    assert_consistent_serial_tree(&lines, expected_rows);
}

/// With `parallel_workers` ≥ 2, the aggregate over TPC-H Q1's range
/// sub-query — the statement an SVP node runs — is the one operator on
/// the worker pool: a single `[parallel ×2]` node with one probe line per
/// worker, whose rows reconcile with the plain query. Scans under other
/// consumers (Q3's joins) stay serial.
#[test]
fn explain_analyze_shows_parallel_marker_and_worker_breakdown() {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    db.query("set parallel_workers = 2").unwrap();
    let params = QueryParams::random(7);
    let rewriter = SvpRewriter::new(DataCatalog::tpch(data.config.orders() as i64));
    let Rewritten::Svp(plan) = rewriter.rewrite(&ALL_QUERIES[0].sql(&params), 2).unwrap() else {
        panic!("Q1 is SVP-eligible");
    };
    let sql = &plan.subqueries[0];
    let expected_rows = db.query(sql).unwrap().rows.len() as f64;

    let lines = plan_lines(&db, &format!("explain analyze {sql}"));
    let aggs: Vec<&String> = lines
        .iter()
        .filter(|l| l.trim_start().starts_with("aggregate over lineitem"))
        .collect();
    assert_eq!(aggs.len(), 1, "{lines:?}");
    assert!(aggs[0].contains("[parallel ×2]"), "{lines:?}");
    let workers: Vec<&String> = lines
        .iter()
        .filter(|l| l.trim_start().starts_with("parallel worker "))
        .collect();
    assert_eq!(workers.len(), 2, "{lines:?}");
    let depth = |l: &str| l.len() - l.trim_start().len();
    for w in &workers {
        assert!(w.contains("(actual rows=") && w.contains("self_ms="), "{w}");
        assert_eq!(
            depth(w),
            depth(aggs[0]) + 2,
            "worker under the aggregate: {lines:?}"
        );
    }
    // Workers together scanned every morsel's rows exactly once.
    let scanned: f64 = workers.iter().map(|l| field(l, "rows")).sum();
    let serial_scanned = {
        db.query("set parallel_workers = 1").unwrap();
        let out = db.query(sql).unwrap();
        db.query("set parallel_workers = 2").unwrap();
        out.stats.rows_scanned as f64
    };
    assert_eq!(scanned, serial_scanned, "{lines:?}");
    assert_eq!(field(&lines[0], "rows"), expected_rows, "{lines:?}");

    // Q3 joins three tables: its scans feed the join, not an aggregate,
    // so none of them runs on the pool.
    let q3 = TpchQuery::Q3.sql(&params);
    let lines = plan_lines(&db, &format!("explain analyze {q3}"));
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("scan ")),
        "{lines:?}"
    );
    assert!(!lines.iter().any(|l| l.contains("[parallel")), "{lines:?}");
}

/// The instrumented execution answers exactly like the plain one for every
/// evaluation query — instrumentation must not change what runs.
#[test]
fn explain_analyze_runs_every_eval_query() {
    let db = tpch_db();
    let params = QueryParams::random(7);
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        let expected = db.query(&sql).unwrap().rows.len() as f64;
        let lines = plan_lines(&db, &format!("explain analyze {sql}"));
        let root = &lines[0];
        assert_eq!(field(root, "rows"), expected, "{}: {root}", q.label());
    }
}
