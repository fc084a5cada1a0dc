//! Property-based tests of the physical operator pipeline:
//!
//! 1. **Mode equivalence** — for random data and a family of generated
//!    filters, joins, aggregates, ORDER BY/LIMIT/DISTINCT, and
//!    subquery-bearing statements, the batch-exec pipeline (its compiled
//!    aggregate fold with the columnar form on and off, at 1, 2 and 4
//!    workers) and the seed interpreter's profile (`enable_batch_exec =
//!    off`) produce byte-identical rows *and* identical work counters —
//!    `rows_scanned`, `cpu_tuple_ops`, `index_probes`, `rows_out`,
//!    `bytes_out`, `scan_batches`, and buffer-pool page touches.
//! 2. **Path equivalence** — for every family member, the text path and
//!    the prepared/bound path (cached physical plan) are indistinguishable
//!    in every mode.
//! 3. **TPC-H sweep** — the full evaluation-query set answers identically
//!    in every mode.

use proptest::prelude::*;

use apuama_engine::{Database, QueryOutput};
use apuama_sql::Value;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

/// Two joinable tables: an orders-like dimension and a lineitem-like fact,
/// both clustered on their key so index-range and seq-scan access paths
/// are each reachable depending on the generated predicate range.
fn cluster_db(rows: &[(i64, i64, f64, u8)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table orders (o_orderkey int not null, o_priority text, \
         primary key (o_orderkey)) clustered by (o_orderkey)",
    )
    .unwrap();
    db.execute(
        "create table lineitem (l_orderkey int not null, l_quantity int, \
         l_extendedprice float, l_returnflag text, primary key (l_orderkey)) \
         clustered by (l_orderkey)",
    )
    .unwrap();
    // Every third key is an order, so equi-joins hit a real subset.
    let orders: Vec<Vec<Value>> = rows
        .iter()
        .filter(|(k, ..)| k % 3 == 0)
        .map(|(k, _, _, f)| vec![Value::Int(*k), Value::Str(format!("P{}", f % 2))])
        .collect();
    let lineitem: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, q, p, f)| {
            vec![
                Value::Int(*k),
                Value::Int(*q),
                Value::Float(*p),
                Value::Str(format!("F{}", f % 3)),
            ]
        })
        .collect();
    let mut lineitem = lineitem;
    // Pad the fact table with rows outside the generated key range so full
    // scans span several page-aligned morsels and the parallel execution
    // path genuinely engages when `parallel_workers` > 1; range queries
    // over the generated keys keep seeing exactly the generated rows.
    for k in 10_000i64..14_000 {
        lineitem.push(vec![
            Value::Int(k),
            Value::Int(k % 97),
            Value::Float((k % 89) as f64 * 0.25),
            Value::Str(format!("F{}", k % 3)),
        ]);
    }
    db.load_table("orders", orders).unwrap();
    db.load_table("lineitem", lineitem).unwrap();
    db
}

/// Strategy: unique order keys with arbitrary payloads. Float payloads are
/// quarter-steps (exactly representable, sums never round), so aggregate
/// results are byte-identical regardless of how partial sums associate —
/// the property the parallel-workers dimension depends on.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64, u8)>> {
    proptest::collection::btree_map(0i64..500, (0i64..100, 0i64..4000, any::<u8>()), 1..150)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (q, p, f))| (k, q, p as f64 * 0.25, f))
                .collect::<Vec<_>>()
        })
}

/// The query family: `(statement with placeholders, parameter count)`.
/// Spans every operator the pipeline lowers to: scans with range and
/// residual filters, projection, hash join, global and grouped
/// aggregation, HAVING, ORDER BY, LIMIT, DISTINCT, and subqueries (the
/// pipeline-breaker path).
const FAMILY: &[(&str, usize)] = &[
    // Fusion-rule shapes: single table, range + residual, aggregated.
    (
        "select sum(l_extendedprice) as s, count(*) as n from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
         count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
         group by l_returnflag order by l_returnflag",
        2,
    ),
    (
        "select min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3",
        3,
    ),
    // Scan → filter → project with ORDER BY/LIMIT.
    (
        "select l_orderkey, l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         order by l_orderkey limit 10",
        3,
    ),
    // DISTINCT.
    (
        "select distinct l_returnflag from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 order by l_returnflag",
        2,
    ),
    // Hash join → grouped aggregate.
    (
        "select o_priority, count(*) as n, sum(l_quantity) as s from orders, lineitem \
         where l_orderkey = o_orderkey and o_orderkey >= $1 and o_orderkey < $2 \
         group by o_priority order by o_priority",
        2,
    ),
    // Hash join, non-aggregated, with ORDER BY/LIMIT.
    (
        "select o_orderkey, l_quantity from orders, lineitem \
         where l_orderkey = o_orderkey and l_quantity > $3 \
         order by o_orderkey limit 10",
        3,
    ),
    // HAVING over grouped aggregation ($1 reused as the count threshold).
    (
        "select l_returnflag, count(*) as n from lineitem group by l_returnflag \
         having count(*) > $1 order by l_returnflag",
        1,
    ),
    // Subquery in the predicate: the pipeline-breaker path.
    (
        "select count(*) as n from lineitem \
         where l_orderkey in (select o_orderkey from orders where o_priority = 'P0') \
         and l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
];

/// Renders the placeholder statement as literal text.
fn render(template: &str, params: &[Value]) -> String {
    let mut sql = template.to_string();
    for (i, v) in params.iter().enumerate() {
        sql = sql.replace(&format!("${}", i + 1), &v.to_string());
    }
    sql
}

fn params_for(n: usize, lo: i64, hi: i64, qty: i64) -> Vec<Value> {
    [Value::Int(lo), Value::Int(hi), Value::Int(qty)][..n].to_vec()
}

/// Byte identity: rows (float bits included) and every work counter.
fn assert_identical(a: &QueryOutput, b: &QueryOutput, what: &str) {
    assert_eq!(a.columns, b.columns, "{what}");
    assert_eq!(a.rows, b.rows, "{what}");
    assert_eq!(a.stats.rows_scanned, b.stats.rows_scanned, "{what}");
    assert_eq!(a.stats.cpu_tuple_ops, b.stats.cpu_tuple_ops, "{what}");
    assert_eq!(a.stats.index_probes, b.stats.index_probes, "{what}");
    assert_eq!(a.stats.rows_out, b.stats.rows_out, "{what}");
    assert_eq!(a.stats.bytes_out, b.stats.bytes_out, "{what}");
    assert_eq!(a.stats.scan_batches, b.stats.scan_batches, "{what}");
    assert_eq!(a.stats.pages_pruned, b.stats.pages_pruned, "{what}");
    assert_eq!(
        a.stats.buffer.accesses(),
        b.stats.buffer.accesses(),
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every generated statement, the seed interpreter's profile
    /// (`enable_batch_exec = off`, serial, text) is the reference: the
    /// bound legacy path, the legacy path at `workers`, and the batch-exec
    /// pipeline — text and bound, columnar fold on and off, at `workers` —
    /// are byte-identical to it in rows and work counters.
    #[test]
    fn pipeline_identical_across_modes_and_bind_path(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = cluster_db(&rows);
        let params = params_for(n_params, lo, lo + width, qty);
        let text = render(template, &params);

        db.query("set enable_batch_exec = off").unwrap();
        db.query("set parallel_workers = 1").unwrap();
        let want = db.query(&text).unwrap();
        let legacy_bound = db.query_bound(template, &params).unwrap();
        assert_identical(&legacy_bound, &want, &format!("legacy bound≡text: {text}"));
        db.query(&format!("set parallel_workers = {workers}")).unwrap();
        let legacy = db.query(&text).unwrap();
        assert_identical(&legacy, &want, &format!("legacy ×{workers}≡serial: {text}"));

        db.query("set enable_batch_exec = on").unwrap();
        for columnar in ["on", "off"] {
            db.query(&format!("set enable_columnar = {columnar}")).unwrap();
            let what = format!("batch ×{workers}, columnar {columnar}");
            let got = db.query(&text).unwrap();
            assert_identical(&got, &want, &format!("{what}, text: {text}"));
            let got = db.query_bound(template, &params).unwrap();
            assert_identical(&got, &want, &format!("{what}, bound: {text}"));
        }
    }
}

/// ORDER BY is stable: rows whose sort keys tie on every component come
/// out in input (clustered-key) order — across more than one scan batch,
/// in both batch-exec modes, and on the bound path.
#[test]
fn sort_is_stable_for_equal_keys() {
    let mut db = Database::in_memory();
    db.execute("create table t (k int not null, g int, primary key (k)) clustered by (k)")
        .unwrap();
    // 3000 rows (> 2 full 1024-row batches) with only 7 distinct keys, so
    // every key group spans many batches and ties dominate the sort.
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|k| vec![Value::Int(k), Value::Int(k % 7)])
        .collect();
    db.load_table("t", rows).unwrap();
    let sql = "select k, g from t order by g";
    let expected: Vec<Vec<Value>> = (0..7i64)
        .flat_map(|g| {
            (0..3000i64)
                .filter(move |k| k % 7 == g)
                .map(move |k| vec![Value::Int(k), Value::Int(g)])
        })
        .collect();
    // 3000 rows also clear the parallel chunk-sort threshold, so the
    // workers dimension exercises the chunk-sort + k-way-merge path, which
    // must preserve the same tie order.
    for workers in [1usize, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        for mode in ["on", "off"] {
            db.query(&format!("set enable_batch_exec = {mode}"))
                .unwrap();
            let out = db.query(sql).unwrap();
            assert_eq!(
                out.rows, expected,
                "ties must keep input order (mode {mode}, workers {workers})"
            );
            let bound = db.query_bound(sql, &[]).unwrap();
            assert_eq!(
                bound.rows, expected,
                "bound path (mode {mode}, workers {workers})"
            );
            // DESC reverses key groups, not the tie order within a group.
            let desc = db.query("select k, g from t order by g desc").unwrap();
            let expected_desc: Vec<Vec<Value>> = (0..7i64)
                .rev()
                .flat_map(|g| {
                    (0..3000i64)
                        .filter(move |k| k % 7 == g)
                        .map(move |k| vec![Value::Int(k), Value::Int(g)])
                })
                .collect();
            assert_eq!(
                desc.rows, expected_desc,
                "desc ties (mode {mode}, workers {workers})"
            );
        }
    }
    db.query("set enable_batch_exec = on").unwrap();
}

/// Columnar-substrate edge cases (DESIGN.md §13), each asserted
/// byte-identical across the `enable_batch_exec` × `enable_columnar` ×
/// `parallel_workers` matrix against one pinned serial/scalar reference:
///
/// * **empty batches** — a predicate range matching zero rows, so column
///   extraction and the selection vector both see empty input;
/// * **all-rows-filtered selection vectors** — every row survives the
///   scan but fails the residual predicate, leaving `sel` empty before
///   the aggregation stage;
/// * **NULL-heavy columns** — a column that is mostly NULL (validity
///   bitmap round-trip: aggregates must skip exactly the invalid slots,
///   and `count(*)` must not);
/// * **mixed Int/Float widening** — a column holding both Int and Float
///   values, which extracts as a boxed `Val` column: predicate batches
///   decline to the scalar loop, aggregate updates take the boxed path.
#[test]
fn columnar_edge_cases_identical_across_modes() {
    let mut db = Database::in_memory();
    db.execute(
        "create table edge (k int not null, q int, p float, f text, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    // > 2 full scan batches so batch boundaries land mid-table. q is
    // NULL-heavy (two of three slots), p mixes Int and Float values
    // mid-column (quarter-step floats stay exactly representable), f is a
    // low-cardinality group key with occasional NULLs.
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|k| {
            vec![
                Value::Int(k),
                if k % 3 == 0 {
                    Value::Int(k % 50)
                } else {
                    Value::Null
                },
                if k % 2 == 0 {
                    Value::Int(k % 89)
                } else {
                    Value::Float((k % 89) as f64 * 0.25)
                },
                if k % 11 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("F{}", k % 3))
                },
            ]
        })
        .collect();
    db.load_table("edge", rows).unwrap();

    let cases: &[&str] = &[
        // Empty batches: the range matches no rows at all.
        "select count(*) as n, sum(q) as s from edge where k >= 90000 and k < 90010",
        // All rows filtered: the residual predicate kills every row the
        // scan produces, so the selection vector drains to empty.
        "select count(*) as n, sum(q) as s from edge where k >= 0 and k < 3000 and q > 100",
        // NULL-heavy aggregation: count/sum/avg skip the invalid slots,
        // count(*) counts them.
        "select f, count(*) as n, count(q) as nq, sum(q) as s, avg(q) as a \
         from edge where k >= 0 and k < 3000 group by f order by f",
        // Mixed Int/Float widening under both predicate and aggregate.
        "select f, sum(p) as s, min(p) as lo, max(p) as hi from edge \
         where k >= 0 and k < 3000 and p >= 1 group by f order by f",
    ];
    for sql in cases {
        // Pinned reference: serial, scalar, row-at-a-time.
        db.query("set parallel_workers = 1").unwrap();
        db.query("set enable_batch_exec = off").unwrap();
        db.query("set enable_columnar = off").unwrap();
        let want = db.query(sql).unwrap();
        for workers in [1usize, 2, 4] {
            db.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            for batch in ["on", "off"] {
                db.query(&format!("set enable_batch_exec = {batch}"))
                    .unwrap();
                for columnar in ["on", "off"] {
                    db.query(&format!("set enable_columnar = {columnar}"))
                        .unwrap();
                    let got = db.query(sql).unwrap();
                    assert_identical(
                        &got,
                        &want,
                        &format!("batch {batch}, columnar {columnar}, workers {workers}: {sql}"),
                    );
                }
            }
        }
    }
    db.query("set parallel_workers = 1").unwrap();
    db.query("set enable_batch_exec = on").unwrap();
    db.query("set enable_columnar = on").unwrap();
}

/// The full TPC-H evaluation-query set answers byte-identically — rows and
/// counters — in every serial execution mode: the batch-exec pipeline with
/// the columnar fold on and off against the seed interpreter's profile
/// (`enable_batch_exec = off`). At 2 and 4 workers the counters and every
/// non-float value stay identical too, but TPC-H prices are hundredths
/// (not exactly representable), so merging per-morsel partial sums may
/// round a float sum differently in the last bits than the serial fold:
/// those cells are held to a 1e-12 relative bound. Exact float identity
/// across worker counts is proven on exactly representable data by the
/// property family above and by `tests/parallel_identity.rs`.
#[test]
fn tpch_eval_queries_identical_across_modes() {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let params = QueryParams::default();
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        db.query("set enable_batch_exec = off").unwrap();
        db.query("set parallel_workers = 1").unwrap();
        let want = db.query(&sql).unwrap();
        assert!(!want.columns.is_empty(), "{}", q.label());
        db.query("set enable_batch_exec = on").unwrap();
        for workers in [1usize, 2, 4] {
            db.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            for columnar in ["on", "off"] {
                db.query(&format!("set enable_columnar = {columnar}"))
                    .unwrap();
                let got = db.query(&sql).unwrap();
                let what = format!("{} ×{workers}, columnar {columnar}", q.label());
                if workers == 1 {
                    assert_identical(&got, &want, &what);
                } else {
                    assert_identical_up_to_float_sums(&got, &want, &what);
                }
            }
        }
    }
}

/// [`assert_identical`], except that float cells may differ by float-sum
/// reassociation (a 1e-12 relative bound).
fn assert_identical_up_to_float_sums(a: &QueryOutput, b: &QueryOutput, what: &str) {
    let strip = |o: &QueryOutput| QueryOutput {
        rows: Vec::new(),
        ..o.clone()
    };
    assert_identical(&strip(a), &strip(b), what);
    assert_eq!(a.rows.len(), b.rows.len(), "{what}");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.len(), rb.len(), "{what}");
        for (x, y) in ra.iter().zip(rb) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert!(
                    (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
                    "{what}: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "{what}"),
            }
        }
    }
}

/// Rewrites every `exists (…)` in `sql` as `(exists (…) or false)`. The
/// disjunction has the same truth value and is still one conjunct (one
/// cpu charge), but it is not an `EXISTS` conjunct, so the engine
/// evaluates it by framed tree-walk instead of the compiled index probe —
/// the reference the compiled probe must match.
fn framed_exists(sql: &str) -> String {
    let mut out = String::new();
    let mut rest = sql;
    while let Some(at) = rest.find("exists (") {
        let open = at + "exists ".len();
        let mut depth = 0usize;
        let close = rest[open..]
            .char_indices()
            .find_map(|(i, c)| {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(open + i);
                        }
                    }
                    _ => {}
                }
                None
            })
            .expect("balanced parentheses");
        out.push_str(&rest[..at]);
        out.push('(');
        out.push_str(&rest[at..=close]);
        out.push_str(" or false)");
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    out
}

/// Runs `template` bound to `params` through the compiled and the framed
/// `EXISTS` path, each as text and as a bound statement, with
/// `enable_batch_exec` on and off, and asserts all eight outcomes — rows,
/// errors, `ExecStats` and buffer-pool accesses — are identical.
fn assert_exists_paths_identical(db: &Database, template: &str, params: &[Value]) {
    let reference_text = render(&framed_exists(template), params);
    db.query("set enable_batch_exec = on").unwrap();
    let want = db.query(&reference_text);
    for batch in ["on", "off"] {
        db.query(&format!("set enable_batch_exec = {batch}"))
            .unwrap();
        for (path, tpl) in [
            ("compiled", template.to_string()),
            ("framed", framed_exists(template)),
        ] {
            let text = render(&tpl, params);
            for (how, got) in [
                ("text", db.query(&text)),
                ("bound", db.query_bound(&tpl, params)),
            ] {
                let what = format!("{path} {how}, batch {batch}: {text}");
                match (&got, &want) {
                    (Ok(g), Ok(w)) => assert_identical(g, w, &what),
                    (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{what}"),
                    _ => panic!("{what}: {got:?} vs {want:?}"),
                }
            }
        }
    }
    db.query("set enable_batch_exec = on").unwrap();
}

/// The compiled correlated `EXISTS` probe agrees with framed evaluation
/// on TPC-H Q4 (`exists`) and Q21 (`exists` and `not exists`).
#[test]
fn compiled_exists_probe_matches_framed_on_tpch_q4_and_q21() {
    let data = generate(TpchConfig {
        scale_factor: 0.002,
        seed: 11,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    db.query("set parallel_workers = 1").unwrap();
    let params = QueryParams::default();
    for q in [apuama_tpch::TpchQuery::Q4, apuama_tpch::TpchQuery::Q21] {
        let sql = q.sql(&params);
        assert!(framed_exists(&sql).contains("or false)"), "{}", q.label());
        assert_exists_paths_identical(&db, &sql, &[]);
    }
}

/// Edge cases of the compiled `EXISTS` probe, each identical to framed
/// evaluation across batch modes and text vs bound paths.
#[test]
fn compiled_exists_probe_edge_cases_match_framed() {
    let mut db = Database::in_memory();
    db.execute(
        "create table outer_t (k int not null, ref int, s int, note text, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    db.execute(
        "create table inner_t (ik int not null, ref int, s int, v int, flag text, \
         primary key (ik)) clustered by (ik)",
    )
    .unwrap();
    db.execute("create index inner_ref on inner_t (ref)")
        .unwrap();
    // Every fifth outer row has a NULL correlation key; inner keys cover
    // only part of the outer key range, some of them NULL too.
    let outer: Vec<Vec<Value>> = (0..300i64)
        .map(|k| {
            vec![
                Value::Int(k),
                if k % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(k % 40)
                },
                Value::Int(k % 3),
                Value::Str(format!("n{}", k % 4)),
            ]
        })
        .collect();
    let inner: Vec<Vec<Value>> = (0..500i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 25)
                },
                Value::Int(i % 4),
                Value::Int(i % 100),
                Value::Str(format!("F{}", i % 3)),
            ]
        })
        .collect();
    db.load_table("outer_t", outer).unwrap();
    db.load_table("inner_t", inner).unwrap();
    db.query("set parallel_workers = 1").unwrap();

    let cases: &[(&str, &[Value])] = &[
        // NULL outer key: the probe looks up NULL and finds nothing.
        (
            "select k from outer_t where exists (select * from inner_t \
             where inner_t.ref = outer_t.ref) order by k",
            &[],
        ),
        (
            "select k from outer_t where not exists (select * from inner_t \
             where inner_t.ref = outer_t.ref and inner_t.s <> outer_t.s) order by k",
            &[],
        ),
        // No WHERE: no probe candidate, a sequential search per row.
        (
            "select count(*) as n from outer_t where k < 20 \
             and exists (select * from inner_t)",
            &[],
        ),
        // Unqualified inner names shadow the outer row's.
        (
            "select k from outer_t where exists (select * from inner_t \
             where ref = outer_t.ref and s <> outer_t.s) order by k",
            &[],
        ),
        // `ref = ref`: the probe key resolves outside, the predicate inside.
        (
            "select count(*) as n from outer_t where exists (select * from inner_t \
             where ref = ref and v > 90)",
            &[],
        ),
        // An unqualified outer name that both join inputs carry.
        (
            "select o1.k from outer_t o1, outer_t o2 where o1.k = o2.k \
             and exists (select * from inner_t where inner_t.ref = o1.ref and note = 'n1') \
             order by o1.k",
            &[],
        ),
        // Correlated through a join's row (the filter above the join).
        (
            "select o1.k from outer_t o1, outer_t o2 where o1.k = o2.k + 1 \
             and exists (select * from inner_t where inner_t.ref = o1.ref \
             and inner_t.s = o2.s) order by o1.k",
            &[],
        ),
        // A parameter inside the subquery.
        (
            "select k from outer_t where exists (select * from inner_t \
             where inner_t.ref = outer_t.ref and inner_t.v > $1) order by k",
            &[Value::Int(60)],
        ),
        // A parameter as the probe key.
        (
            "select count(*) as n from outer_t where k < $1 \
             and exists (select * from inner_t where inner_t.ref = $2)",
            &[Value::Int(50), Value::Int(3)],
        ),
        // GROUP BY / LIMIT in the subquery do not change existence.
        (
            "select k from outer_t where exists (select flag from inner_t \
             where inner_t.ref = outer_t.ref group by flag limit 0) order by k",
            &[],
        ),
        // A type error in the inner predicate surfaces identically.
        (
            "select k from outer_t where exists (select * from inner_t \
             where inner_t.ref = outer_t.ref and inner_t.flag > 3) order by k",
            &[],
        ),
    ];
    for (template, params) in cases {
        assert_exists_paths_identical(&db, template, params);
    }
}
