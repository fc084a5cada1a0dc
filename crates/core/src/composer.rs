//! The Result Composer.
//!
//! Paper §3: "Sub-queries produced by SVP in Apuama are independently
//! processed by each node and their partial results must be combined in
//! order to form the final query result. Apuama uses HSQLDB, a fast
//! in-memory DBMS, to perform result composition."
//!
//! Our HSQLDB stand-in is the same relational engine the nodes run, with an
//! unbounded buffer pool ([`Database::in_memory`]): partial results are
//! loaded into the staging table and the composition query re-aggregates
//! them. The composition's own [`ExecStats`] are reported separately so the
//! simulator can price the composition step (the paper measures it at under
//! a second even for large partials).

use apuama_engine::{Database, EngineError, EngineResult, ExecStats, QueryOutput};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::rewrite::{SvpPlan, PARTIALS_TABLE};

/// Result of composing partial outputs.
#[derive(Debug, Clone)]
pub struct Composed {
    /// The final query result.
    pub output: QueryOutput,
    /// Work done by the composition query itself (staging-table scan,
    /// re-aggregation, sort).
    pub composition_stats: ExecStats,
    /// Total partial rows staged.
    pub partial_rows: u64,
}

/// SQL type name for a staging column, inferred from the first non-null
/// value seen in that column (all-NULL columns degrade to text, which
/// compares fine for our dialect).
fn infer_type(rows: &[&Row], col: usize) -> &'static str {
    for row in rows {
        match &row[col] {
            Value::Null => continue,
            Value::Int(_) => return "int",
            Value::Float(_) => return "float",
            Value::Str(_) => return "text",
            Value::Date(_) => return "date",
            Value::Bool(_) => return "bool",
            Value::Interval(_) => return "int",
        }
    }
    "text"
}

/// Loads the partial outputs into a fresh in-memory staging table and runs
/// the plan's composition query.
pub fn compose(plan: &SvpPlan, partials: &[QueryOutput]) -> EngineResult<Composed> {
    ReusableComposer::new().compose(plan, partials)
}

/// A composer that keeps its in-memory engine and staging table alive
/// across queries whose staging DDL matches, truncating the table instead
/// of rebuilding the engine — the "connection-pooled HSQLDB" variant of
/// the paper's design (DESIGN.md §5). [`ApuamaEngine`](crate::ApuamaEngine)
/// holds one and composes every SVP query through it, once, after the last
/// partial landed.
///
/// A reused staging table is truncated (fresh heap, cold pages) before the
/// reload, so every composition — rows, `partial_rows` and
/// `composition_stats` — is byte-identical to the one-shot [`compose`].
#[derive(Default)]
pub struct ReusableComposer {
    /// The staging `CREATE TABLE` statement and the engine it was run on;
    /// `None` until first use, or after a failed rebuild.
    staged: Option<(String, Database)>,
}

impl ReusableComposer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages `partials` (in slice order) and runs the composition query.
    /// Reuses the staging table when the DDL — column names and inferred
    /// types — matches the previous call; otherwise starts a fresh engine
    /// (our dialect has no DROP TABLE, and a new in-memory instance is
    /// equivalent and cheap).
    pub fn compose(&mut self, plan: &SvpPlan, partials: &[QueryOutput]) -> EngineResult<Composed> {
        let (ddl, rows) = staging(plan, partials)?;
        let staged = match self.staged.take() {
            Some((staged_ddl, mut mem)) if staged_ddl == ddl => {
                mem.truncate_table(PARTIALS_TABLE)?;
                (staged_ddl, mem)
            }
            _ => {
                let mut mem = Database::in_memory();
                mem.execute(&ddl)?;
                (ddl, mem)
            }
        };
        let (_, mem) = self.staged.insert(staged);
        let partial_rows = rows.len() as u64;
        mem.load_table(PARTIALS_TABLE, rows)?;
        let mut output = mem.query(&plan.composition_sql)?;
        let composition_stats = output.stats;
        output.stats = ExecStats::default();
        Ok(Composed {
            output,
            composition_stats,
            partial_rows,
        })
    }
}

/// Checks every partial row against the plan's arity and returns the
/// staging table's `CREATE TABLE` statement (types inferred from the rows)
/// plus the rows to stage, partial by partial.
fn staging(plan: &SvpPlan, partials: &[QueryOutput]) -> EngineResult<(String, Vec<Row>)> {
    let arity = plan.partial_columns.len();
    for (i, p) in partials.iter().enumerate() {
        if let Some(row) = p.rows.iter().find(|r| r.len() != arity) {
            return Err(EngineError::Constraint(format!(
                "partial result {i} has arity {} but the plan expects {arity}",
                row.len()
            )));
        }
    }
    let all_rows: Vec<&Row> = partials.iter().flat_map(|p| p.rows.iter()).collect();
    let columns_ddl = plan
        .partial_columns
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{name} {}", infer_type(&all_rows, i)))
        .collect::<Vec<_>>()
        .join(", ");
    let ddl = format!("create table {PARTIALS_TABLE} ({columns_ddl})");
    Ok((ddl, all_rows.into_iter().cloned().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::rewrite::{Rewritten, SvpRewriter};

    /// Runs an SVP plan end to end against `n` identical in-memory replicas
    /// and checks the composed result equals the plain single-node answer.
    fn check_equivalence(sql: &str, n: usize) {
        // One replica of a small orders/lineitem-ish dataset.
        let build = || {
            let mut db = Database::in_memory();
            db.execute(
                "create table orders (o_orderkey int not null, o_totalprice float, \
                 o_orderpriority text, primary key (o_orderkey)) clustered by (o_orderkey)",
            )
            .unwrap();
            db.execute(
                "create table lineitem (l_orderkey int not null, l_quantity float, \
                 l_discount float, primary key (l_orderkey)) clustered by (l_orderkey)",
            )
            .unwrap();
            for k in 1..=100i64 {
                db.execute(&format!(
                    "insert into orders values ({k}, {}.0, '{}')",
                    k * 10,
                    if k % 2 == 0 { "1-URGENT" } else { "5-LOW" }
                ))
                .unwrap();
                db.execute(&format!(
                    "insert into lineitem values ({k}, {}.0, 0.0{})",
                    k % 7 + 1,
                    k % 10
                ))
                .unwrap();
            }
            db
        };
        let reference = build().query(sql).unwrap();

        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter.rewrite(sql, n).unwrap() else {
            panic!("expected SVP plan for {sql}");
        };
        let replica = build();
        let partials: Vec<QueryOutput> = plan
            .subqueries
            .iter()
            .map(|s| replica.query(s).unwrap())
            .collect();
        let composed = compose(&plan, &partials).unwrap();
        assert_eq!(composed.output.columns, reference.columns, "{sql}");
        assert_eq!(composed.output.rows.len(), reference.rows.len(), "{sql}");
        for (a, b) in composed.output.rows.iter().zip(&reference.rows) {
            for (x, y) in a.iter().zip(b) {
                match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        assert!((fx - fy).abs() < 1e-6, "{sql}: {fx} vs {fy}")
                    }
                    _ => assert_eq!(x, y, "{sql}"),
                }
            }
        }
    }

    #[test]
    fn global_sum_recomposes() {
        check_equivalence("select sum(l_quantity) as s from lineitem", 4);
    }

    #[test]
    fn global_avg_recomposes() {
        check_equivalence("select avg(l_quantity) as a from lineitem", 4);
    }

    #[test]
    fn count_star_recomposes() {
        check_equivalence("select count(*) as n from orders", 3);
    }

    #[test]
    fn min_max_recompose() {
        check_equivalence(
            "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders",
            5,
        );
    }

    #[test]
    fn group_by_with_order_and_limit() {
        check_equivalence(
            "select o_orderpriority, count(*) as n, sum(o_totalprice) as t from orders \
             group by o_orderpriority order by o_orderpriority limit 2",
            4,
        );
    }

    #[test]
    fn expression_over_aggregates() {
        check_equivalence(
            "select 100.0 * sum(l_discount) / sum(l_quantity) as ratio from lineitem",
            4,
        );
    }

    #[test]
    fn join_query_recomposes() {
        check_equivalence(
            "select o_orderpriority, sum(l_quantity) as q from orders, lineitem \
             where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority",
            4,
        );
    }

    #[test]
    fn non_aggregated_union() {
        check_equivalence(
            "select o_orderkey, o_totalprice from orders where o_totalprice > 900.0 \
             order by o_orderkey",
            3,
        );
    }

    #[test]
    fn having_filters_globally_not_per_node() {
        // Per-node counts are all below the threshold; only the global
        // count passes. Composing must still produce the group.
        check_equivalence(
            "select o_orderpriority, count(*) as n from orders \
             group by o_orderpriority having count(*) > 30 order by o_orderpriority",
            10,
        );
    }

    #[test]
    fn empty_partials_compose_to_empty_or_null() {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter
            .rewrite("select sum(l_quantity) as s from lineitem", 2)
            .unwrap()
        else {
            panic!()
        };
        let empty = QueryOutput {
            columns: plan.partial_columns.clone(),
            rows: vec![],
            ..QueryOutput::default()
        };
        let composed = compose(&plan, &[empty.clone(), empty]).unwrap();
        // Global aggregate over nothing: one row, NULL sum.
        assert_eq!(composed.output.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter
            .rewrite("select sum(l_quantity) as s from lineitem", 2)
            .unwrap()
        else {
            panic!()
        };
        let bad = QueryOutput {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
            ..QueryOutput::default()
        };
        assert!(compose(&plan, std::slice::from_ref(&bad)).is_err());
        // The pooled composer rejects it too, and stays usable afterwards.
        let mut pooled = ReusableComposer::new();
        assert!(pooled.compose(&plan, &[bad]).is_err());
        let good = QueryOutput {
            columns: plan.partial_columns.clone(),
            rows: vec![vec![Value::Float(1.5)], vec![Value::Float(2.0)]],
            ..QueryOutput::default()
        };
        let got = pooled.compose(&plan, std::slice::from_ref(&good)).unwrap();
        assert_eq!(
            got.output.rows,
            compose(&plan, &[good]).unwrap().output.rows
        );
    }
}

#[cfg(test)]
mod reusable_tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::rewrite::{Rewritten, SvpRewriter};
    use apuama_sql::Value;

    fn plan_for(sql: &str, n: usize) -> SvpPlan {
        match SvpRewriter::new(DataCatalog::tpch(100))
            .rewrite(sql, n)
            .unwrap()
        {
            Rewritten::Svp(p) => p,
            _ => panic!("eligible"),
        }
    }

    fn partial(plan: &SvpPlan, rows: Vec<Row>) -> QueryOutput {
        QueryOutput {
            columns: plan.partial_columns.clone(),
            rows,
            ..QueryOutput::default()
        }
    }

    #[test]
    fn reusable_matches_one_shot_composer_across_repeats() {
        let plan = plan_for(
            "select o_orderpriority, count(*) as n from orders group by o_orderpriority \
             order by o_orderpriority",
            3,
        );
        let mut reusable = ReusableComposer::new();
        for round in 1..=3i64 {
            let partials: Vec<QueryOutput> = (0..3)
                .map(|node| {
                    partial(
                        &plan,
                        vec![vec![
                            Value::Str(format!("P{}", node % 2)),
                            Value::Int(round * (node + 1)),
                        ]],
                    )
                })
                .collect();
            let fresh = compose(&plan, &partials).unwrap();
            let reused = reusable.compose(&plan, &partials).unwrap();
            assert_eq!(reused.output.rows, fresh.output.rows, "round {round}");
            assert_eq!(reused.partial_rows, fresh.partial_rows);
            assert_eq!(reused.composition_stats, fresh.composition_stats);
        }
    }

    #[test]
    fn shape_change_rebuilds_cleanly() {
        let mut reusable = ReusableComposer::new();
        let p1 = plan_for("select count(*) as n from orders", 2);
        let r1 = reusable
            .compose(
                &p1,
                &[
                    partial(&p1, vec![vec![Value::Int(3)]]),
                    partial(&p1, vec![vec![Value::Int(4)]]),
                ],
            )
            .unwrap();
        assert_eq!(r1.output.rows, vec![vec![Value::Int(7)]]);
        // Different template: more columns.
        let p2 = plan_for(
            "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders",
            2,
        );
        let r2 = reusable
            .compose(
                &p2,
                &[
                    partial(&p2, vec![vec![Value::Float(1.0), Value::Float(9.0)]]),
                    partial(&p2, vec![vec![Value::Float(0.5), Value::Float(7.0)]]),
                ],
            )
            .unwrap();
        assert_eq!(
            r2.output.rows,
            vec![vec![Value::Float(0.5), Value::Float(9.0)]]
        );
        // And back to the first shape (forces another rebuild).
        let r3 = reusable
            .compose(
                &p1,
                &[
                    partial(&p1, vec![vec![Value::Int(1)]]),
                    partial(&p1, vec![vec![Value::Int(1)]]),
                ],
            )
            .unwrap();
        assert_eq!(r3.output.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn leftover_rows_never_leak_between_queries() {
        let plan = plan_for("select sum(o_totalprice) as s from orders", 2);
        let mut reusable = ReusableComposer::new();
        let big = reusable
            .compose(
                &plan,
                &[
                    partial(&plan, vec![vec![Value::Float(100.0)]]),
                    partial(&plan, vec![vec![Value::Float(200.0)]]),
                ],
            )
            .unwrap();
        assert_eq!(big.output.rows, vec![vec![Value::Float(300.0)]]);
        let small = reusable
            .compose(
                &plan,
                &[
                    partial(&plan, vec![vec![Value::Float(1.0)]]),
                    partial(&plan, vec![vec![Value::Float(2.0)]]),
                ],
            )
            .unwrap();
        assert_eq!(small.output.rows, vec![vec![Value::Float(3.0)]]);
    }
}
