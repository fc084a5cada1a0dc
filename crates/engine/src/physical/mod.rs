//! The batch-at-a-time physical operator pipeline.
//!
//! The planner lowers every SELECT to a [`PhysicalPlan`]: a tree of
//! operators (`SeqScan`/`IndexRangeScan`, `Filter`, `Project`, `HashJoin`,
//! `HashAggregate`, `Sort`, `Limit`, `Distinct`) each implementing
//! [`Operator::next_batch`] over [`RowBatch`]es of up to
//! [`exec::SCAN_BATCH_ROWS`] rows. One executor serves every shape, and
//! one aggregation operator serves every aggregate: over a single base
//! table whose conjuncts compile, [`AggregateExec`] drives the scan itself
//! as morsel-local scan→filter→partial-aggregate folds (on the worker pool
//! when `parallel_workers` allows), and every other aggregate folds its
//! child's batches through the same compiled fold and group table.
//!
//! # Byte-identity with the seed interpreter
//!
//! Query answers and [`crate::ExecStats`] counters are byte-identical to
//! the fully-materialized interpreter this module replaced. Two invariants
//! make that hold:
//!
//! * **Charging contracts are ported verbatim** — each operator charges the
//!   same counters in the same per-row pattern the interpreter did (scan
//!   pages once per page change, `cpu_tuple_ops` before each predicate
//!   evaluation, one `n·log n` charge per sort, ...). Totals are sums, so
//!   batching never changes them.
//! * **Pipeline breakers are explicit.** Streaming an operator is
//!   order-safe only when its per-row expressions are subquery-free: then
//!   the only interleaved charges are CPU counters, which commute. An
//!   expression containing a subquery can touch buffer-pool pages, and the
//!   pool's LRU makes the hit/miss *order* observable — so subquery-bearing
//!   `Filter`/`Project`/`Aggregate` stages materialize their input first,
//!   which is exactly when the interpreter evaluated them. `Sort` and
//!   `Limit` are always breakers (the interpreter never terminated a scan
//!   early), and join inputs are materialized in FROM order before the
//!   greedy join phase, again matching the interpreter's phases.
//!
//! The one accepted divergence: when a query *errors*, the streaming
//! pipeline may surface a projection error from an early batch before a
//! scan error from a later row, where the interpreter would surface the
//! scan error first. Which error wins can differ; successful results and
//! their statistics never do.

use apuama_sql::ast::{Expr, Select, SetQuantifier, TableRef};

use crate::db::Database;
use crate::error::EngineResult;
use crate::eval::{self, Frame};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner::{self};

mod batch;
mod columns;
mod compile;
mod explain;
mod operators;
mod parallel_exec;

pub(crate) use batch::*;
pub(crate) use columns::*;
pub(crate) use compile::*;
pub(crate) use explain::*;
pub(crate) use operators::*;
pub(crate) use parallel_exec::*;
// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// A lowered SELECT: the original statement plus its operator plan.
/// Cached plans store this tree; the access path of each scan is still
/// chosen per execution from the actual bound values.
#[derive(Debug, Clone)]
pub(crate) struct PhysicalPlan {
    pub(crate) select: Select,
    pub(crate) general: GeneralPlan,
}

/// General shape: one node per FROM item, the equi-join edges between
/// them, and the residual (post-join) predicates with the scope names each
/// one needs.
#[derive(Debug, Clone)]
pub(crate) struct GeneralPlan {
    inputs: Vec<InputNode>,
    edges: Vec<planner::JoinEdge>,
    post: Vec<(Expr, Vec<String>)>,
    aggregated: bool,
}

/// One FROM item with its pushed-down single-scope conjuncts.
#[derive(Debug, Clone)]
pub(crate) enum InputNode {
    Table {
        name: String,
        alias: Option<String>,
        single: Vec<Expr>,
    },
    Derived {
        alias: String,
        plan: Box<PhysicalPlan>,
        single: Vec<Expr>,
    },
}

impl InputNode {
    fn scope_name(&self) -> &str {
        match self {
            InputNode::Table { name, alias, .. } => alias.as_deref().unwrap_or(name),
            InputNode::Derived { alias, .. } => alias,
        }
    }
}

/// Lowers a SELECT to its physical plan. Infallible by design: unknown
/// tables and other execution-time errors surface when the tree is opened,
/// exactly where the interpreter surfaced them.
pub(crate) fn lower(q: &Select, db: &Database) -> PhysicalPlan {
    PhysicalPlan {
        // Load-bearing clone: the plan owns its statement so prepared
        // statements can cache it past the parse.
        select: q.clone(),
        general: lower_general(q, db),
    }
}

/// The general lowering: classify WHERE conjuncts against the FROM scopes
/// (single-scope → pushed into that scan, equality across two scopes → a
/// join edge, the rest → post-filters) and lower derived tables
/// recursively.
pub(crate) fn lower_general(q: &Select, db: &Database) -> GeneralPlan {
    let catalog = db.catalog();
    let scopes = planner::scopes_for_from(&q.from, catalog);

    let conjuncts = eval::split_conjuncts(q.selection.as_ref());
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); q.from.len()];
    let mut edges: Vec<planner::JoinEdge> = Vec::new();
    let mut post: Vec<(Expr, Vec<String>)> = Vec::new();
    for c in conjuncts {
        let refs = planner::conjunct_bindings(&c, &scopes, catalog);
        if refs.len() == 1 {
            let name = refs.iter().next().expect("len checked");
            let idx = scopes
                .iter()
                .position(|s| &s.name == name)
                .expect("binding came from scopes");
            single[idx].push(c);
        } else if let Some(edge) = planner::as_join_edge(&c, &scopes, catalog) {
            edges.push(edge);
        } else {
            post.push((c, refs.into_iter().collect()));
        }
    }
    // Evaluate subquery-bearing residuals last within each scan.
    for list in &mut single {
        list.sort_by_key(exec::contains_subquery);
    }

    let inputs = q
        .from
        .iter()
        .zip(single)
        .map(|(item, single)| match item {
            TableRef::Table { name, alias } => InputNode::Table {
                name: name.clone(),
                alias: alias.clone(),
                single,
            },
            TableRef::Subquery { query, alias } => InputNode::Derived {
                alias: alias.clone(),
                plan: Box::new(lower(query, db)),
                single,
            },
        })
        .collect();

    GeneralPlan {
        inputs,
        edges,
        post,
        aggregated: !q.group_by.is_empty() || exec::select_has_aggregates(q),
    }
}

/// The batch-at-a-time operator contract. `open` is called exactly once,
/// before the first `next_batch`, and returns the operator's output
/// bindings; `next_batch` returns a non-empty batch or `None` once the
/// stream is exhausted. The `'e` lifetime lets scans hand rows out of the
/// table heap by reference instead of cloning them per row.
pub(crate) trait Operator<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>>;
    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>>;
}

/// Executes a lowered plan, draining the operator tree into a materialized
/// relation (the statement boundary — results cross the network whole).
pub(crate) fn execute(
    plan: &PhysicalPlan,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    execute_select(&plan.select, &plan.general, outer, ctx)
}

pub(crate) fn execute_select<'e>(
    q: &'e Select,
    g: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
) -> EngineResult<Relation> {
    let (mut root, _) = build_tree(q, g, outer, ctx, None);
    let bindings = root.open()?;
    let mut rows = Vec::new();
    while let Some(batch) = root.next_batch()? {
        ctx.check_interrupt()?;
        rows.extend(batch.rows.into_owned());
    }
    Ok(Relation { bindings, rows })
}

/// Wraps a freshly built operator in a timing probe when an `EXPLAIN
/// ANALYZE` collector is active; otherwise passes it through untouched.
pub(crate) fn instrument<'e>(
    az: Option<&'e Analyze>,
    op: Box<dyn Operator<'e> + 'e>,
    label: String,
    children: Vec<usize>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    let idx = az.map(|a| a.register(label, children));
    instrument_registered(az, op, idx)
}

/// Wraps an operator that registered its probe node itself (so it can
/// attach child probes while it runs) in that node's timing probe.
pub(crate) fn instrument_registered<'e>(
    az: Option<&'e Analyze>,
    op: Box<dyn Operator<'e> + 'e>,
    idx: Option<usize>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    match (az, idx) {
        (Some(az), Some(idx)) => (Box::new(TimedExec { inner: op, az, idx }), Some(idx)),
        _ => (op, None),
    }
}

/// Assembles the operator tree for one plan: the source block (streamed
/// single scan or materializing join) under the projection or aggregation
/// stage — or, for an aggregate over one base table whose conjuncts
/// compile, the aggregate driving the scan itself — then the uniform
/// DISTINCT → Sort → Limit tail. With `az` set, every operator is wrapped
/// in a [`TimedExec`] probe and the returned index identifies the root's
/// probe node.
pub(crate) fn build_tree<'e>(
    q: &'e Select,
    g: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    let batch = ctx.db.batch_exec_enabled();
    let table = if batch && g.aggregated {
        TableInput::resolve(q, g, ctx)
    } else {
        None
    };
    let (mut op, mut idx) = if let Some(table) = table {
        let idx = az.map(|a| a.register(table.label(), Vec::new()));
        let probe = az.zip(idx);
        let op = AggregateExec::new(q, AggInput::Table(table), outer, ctx, batch, probe);
        instrument_registered(az, Box::new(op), idx)
    } else {
        let (source, sidx) = build_source(g, outer, ctx, batch, az);
        let children: Vec<usize> = sidx.into_iter().collect();
        if g.aggregated {
            let op = AggregateExec::new(q, AggInput::Child(source), outer, ctx, batch, None);
            instrument(az, Box::new(op), "aggregate".to_string(), children)
        } else {
            instrument(
                az,
                Box::new(ProjectExec::new(q, source, outer, ctx, batch)),
                format!("project ({} column(s))", q.items.len()),
                children,
            )
        }
    };
    if q.quantifier == SetQuantifier::Distinct {
        (op, idx) = instrument(
            az,
            Box::new(DistinctExec::new(op, ctx)),
            "distinct".to_string(),
            idx.into_iter().collect(),
        );
    }
    if !q.order_by.is_empty() {
        (op, idx) = instrument(
            az,
            Box::new(SortExec::new(q, op, ctx)),
            format!("sort ({} key(s))", q.order_by.len()),
            idx.into_iter().collect(),
        );
    }
    if let Some(l) = q.limit {
        (op, idx) = instrument(
            az,
            Box::new(LimitExec::new(l, op, ctx)),
            format!("limit {l}"),
            idx.into_iter().collect(),
        );
    }
    (op, idx)
}

/// The source block under projection/aggregation. A single FROM item
/// streams through a `Filter`; several are materialized and joined by
/// `HashJoin` (the greedy join phase needs full cardinalities, exactly as
/// the interpreter did).
pub(crate) fn build_source<'e>(
    g: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    batch: bool,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    if g.inputs.len() == 1 {
        let (base, bidx) = build_input(&g.inputs[0], outer, ctx, batch, az);
        // With one scope every post predicate is scope-free (single-scope
        // conjuncts were pushed into the scan), so all of them apply here.
        if g.post.is_empty() {
            (base, bidx)
        } else {
            let preds: Vec<Expr> = g.post.iter().map(|(e, _)| e.clone()).collect();
            let n = preds.len();
            instrument(
                az,
                Box::new(FilterExec::new(base, preds, outer, ctx, batch)),
                format!("filter ({n} predicate(s))"),
                bidx.into_iter().collect(),
            )
        }
    } else {
        // The join registers its probe node up front so it can attach its
        // input probes as children when it materializes them in open().
        let jidx = az.map(|a| a.register("hash join block (greedy order)".to_string(), Vec::new()));
        instrument_registered(az, Box::new(JoinExec::new(g, outer, ctx, az, jidx)), jidx)
    }
}

pub(crate) fn build_input<'e>(
    node: &'e InputNode,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    batch: bool,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    match node {
        InputNode::Table {
            name,
            alias,
            single,
        } => instrument(
            az,
            Box::new(ScanExec::new(
                name,
                alias.as_deref(),
                single,
                outer,
                ctx,
                batch,
            )),
            match alias {
                Some(a) => format!("scan {name} as {a}"),
                None => format!("scan {name}"),
            },
            Vec::new(),
        ),
        InputNode::Derived {
            alias,
            plan,
            single,
        } => instrument(
            az,
            Box::new(DerivedExec::new(alias, plan, single, outer, ctx)),
            format!("derived table {alias}"),
            Vec::new(),
        ),
    }
}
