use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hasher;

use apuama_sql::ast::{BinOp, ColumnRef, Expr, TableRef};
use apuama_sql::value::hash_value;
use apuama_sql::Value;
use apuama_storage::{OrderedIndex, Row, RowId};

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, eval_expr, truthiness, CompiledExpr, Frame};
use crate::exec::{self, Binding, ExecContext, GroupState, Relation};
use crate::table::Table;

/// A filter predicate, pre-resolved to positional form where possible.
/// Compilation succeeds exactly when every column resolves uniquely in the
/// operator's own bindings and no subquery appears — in which case the
/// compiled program is value- and error-identical to frame evaluation —
/// so falling back to `Framed` never changes semantics. The batch-exec
/// mode additionally specializes the hot `col <cmp> literal` shape to a
/// direct comparison (`FastCmp`), skipping the expression walk and its
/// per-operand `Value` clones. A correlated single-table `EXISTS` compiles
/// to an [`ExistsProbe`] under the same rule: only shapes proven
/// equivalent to framed evaluation.
pub(crate) enum ResidualPred<'e> {
    /// `col <op> lit`, normalized so the column is on the left. Semantics
    /// mirror [`eval::eval_binary_with`] for comparison operators: NULL on
    /// either side filters the row (three-valued logic), incomparable
    /// non-null operands are a type error with the same message.
    FastCmp {
        col: usize,
        op: BinOp,
        lit: Value,
    },
    Compiled(CompiledExpr),
    Exists(ExistsProbe<'e>),
    Framed(Expr),
}

impl ResidualPred<'_> {
    /// Re-sinks a compiled predicate into its fastest evaluable form.
    pub(crate) fn from_compiled(c: CompiledExpr) -> Self {
        if let CompiledExpr::Binary { left, op, right } = &c {
            if op.is_comparison() {
                match (left.as_ref(), right.as_ref()) {
                    (CompiledExpr::Col(i), CompiledExpr::Lit(v)) => {
                        return ResidualPred::FastCmp {
                            col: *i,
                            op: *op,
                            lit: v.clone(),
                        }
                    }
                    (CompiledExpr::Lit(v), CompiledExpr::Col(i)) => {
                        return ResidualPred::FastCmp {
                            col: *i,
                            op: flip_cmp(*op),
                            lit: v.clone(),
                        }
                    }
                    _ => {}
                }
            }
        }
        ResidualPred::Compiled(c)
    }
}

/// A correlated `[NOT] EXISTS (select … from t where …)` conjunct,
/// resolved once when its operator opens instead of per row by
/// [`eval_expr`]'s frame walk: the inner table and its probe-candidate
/// indexes are looked up once, the probe keys are programs over the
/// operator's row, and the subquery's predicate is one program over the
/// inner columns followed by the operator's, into which each outer row's
/// values are folded once (not once per candidate).
///
/// Evaluation is the framed path's, step for step: the candidates come
/// from the same [`eval::exists_probe_candidates`], the same
/// [`eval::choose_probe`] picks the first key that evaluates, and the
/// same [`eval::exists_search`] loop charges the index probe and each
/// visited row — so rows, errors and every counter are unchanged.
pub(crate) struct ExistsProbe<'e> {
    table: &'e Table,
    negated: bool,
    /// `(index, key over the operator's row)`, in probe-preference order.
    candidates: Vec<(&'e OrderedIndex, CompiledExpr)>,
    /// The subquery's WHERE over the inner columns, then the operator's.
    pred: Option<CompiledExpr>,
    n_inner: usize,
}

impl<'e> ExistsProbe<'e> {
    /// Compiles `e` against an operator whose rows are described by
    /// `bindings` and which has no enclosing query scopes. `None` — the
    /// caller keeps framed evaluation — unless `e` is an `EXISTS` over one
    /// existing table whose predicate and probe keys all pre-resolve: a
    /// name that is ambiguous or unknown in frame order, a nested
    /// subquery, or an aggregate call all decline.
    pub(crate) fn compile(e: &Expr, bindings: &[Binding], ctx: &ExecContext<'e>) -> Option<Self> {
        let Expr::Exists { negated, query } = e else {
            return None;
        };
        let [TableRef::Table { name, alias }] = query.from.as_slice() else {
            return None;
        };
        let table = ctx.db.table(name)?;
        let inner = exec::bindings_for_table(&table.schema, alias.as_deref());
        let n_inner = inner.len();
        // Frame order: the inner row first, then the operator's; an
        // ambiguous name stops the search there, as `resolve_in_frames` does.
        let resolve = |c: &ColumnRef| match exec::resolve_column(&inner, c) {
            Ok(i) => Some(i),
            Err(EngineError::AmbiguousColumn(_)) => None,
            Err(_) => exec::resolve_column(bindings, c).ok().map(|i| n_inner + i),
        };
        let pred = match &query.selection {
            Some(p) => Some(eval::prebind_params(
                &eval::compile_expr_with(p, &resolve)?,
                ctx,
            )),
            None => None,
        };
        let mut candidates = Vec::new();
        for (idx, key) in eval::exists_probe_candidates(query.selection.as_ref(), &inner, table) {
            // A bare column the operator's row lacks can never evaluate,
            // so the framed path always skips it.
            if let Expr::Column(c) = key {
                if exec::resolve_column(bindings, c).is_err() {
                    continue;
                }
            }
            let key = eval::prebind_params(&eval::compile_expr(key, bindings)?, ctx);
            // A column or literal key always evaluates: later candidates
            // are never consulted.
            let last = matches!(key, CompiledExpr::Col(_) | CompiledExpr::Lit(_));
            candidates.push((idx, key));
            if last {
                break;
            }
        }
        Some(ExistsProbe {
            table,
            negated: *negated,
            candidates,
            pred,
            n_inner,
        })
    }

    /// The conjunct's truth for one operator row.
    pub(crate) fn eval(&self, row: &[Value], ctx: &ExecContext<'_>) -> EngineResult<bool> {
        let probe = eval::choose_probe(&self.candidates, |key| eval::eval_compiled(key, row, ctx));
        // Bound on the first visited candidate: a probe that finds no
        // posting never needs the outer values.
        let mut bound: Option<CompiledExpr> = None;
        let found = eval::exists_search(self.table, probe, ctx, |inner| {
            let Some(pred) = &self.pred else {
                return Ok(true);
            };
            let pred = bound.get_or_insert_with(|| eval::bind_outer(pred, self.n_inner, row));
            Ok(truthiness(&eval::eval_compiled(pred, inner, ctx)?) == Some(true))
        })?;
        Ok(found != self.negated)
    }
}

/// Resolves one conjunct of an operator — its rows described by
/// `bindings`, its enclosing query scopes by `outer` — into its cheapest
/// exact form: compiled when every column
/// is the operator's own (batch-exec mode also folds bound parameters in
/// and specializes `col <cmp> literal`; the legacy mode keeps the seed
/// interpreter's per-row parameter lookups), a compiled [`ExistsProbe`]
/// when `outer` is empty and the conjunct is a provable correlated
/// `EXISTS`, framed otherwise.
pub(crate) fn resolve_pred<'e>(
    e: &Expr,
    bindings: &[Binding],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'e>,
    batch_mode: bool,
) -> ResidualPred<'e> {
    if let Some(c) = eval::compile_expr(e, bindings) {
        return if batch_mode {
            ResidualPred::from_compiled(eval::prebind_params(&c, ctx))
        } else {
            ResidualPred::Compiled(c)
        };
    }
    if outer.is_empty() {
        if let Some(probe) = ExistsProbe::compile(e, bindings, ctx) {
            return ResidualPred::Exists(probe);
        }
    }
    ResidualPred::Framed(e.clone())
}

/// Mirror image of a comparison operator (`lit < col` ⇔ `col > lit`).
pub(crate) fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric.
    }
}

pub(crate) fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("FastCmp only built for comparison operators"),
    }
}

/// One row through a conjunctive predicate list: `charge` is called before
/// each evaluation and the list short-circuits on the first non-true,
/// exactly like the interpreter's scan/filter loops. The caller chooses
/// whether charges land on the context per row (legacy mode) or in a local
/// counter flushed per batch (batch-exec mode) — totals are identical.
pub(crate) fn keep_row_charged(
    row: &Row,
    bindings: &[Binding],
    preds: &[ResidualPred],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
    mut charge: impl FnMut(),
) -> EngineResult<bool> {
    let mut frames: Option<Vec<Frame<'_>>> = None;
    for pred in preds {
        charge();
        let keep = match pred {
            ResidualPred::FastCmp { col, op, lit } => {
                let v = &row[*col];
                if v.is_null() || lit.is_null() {
                    false // NULL comparison result is never true.
                } else {
                    match v.sql_cmp(lit) {
                        None => {
                            return Err(EngineError::TypeError(format!(
                                "cannot compare {v} with {lit}"
                            )))
                        }
                        Some(ord) => cmp_matches(*op, ord),
                    }
                }
            }
            ResidualPred::Compiled(c) => {
                truthiness(&eval::eval_compiled(c, row, ctx)?) == Some(true)
            }
            ResidualPred::Exists(probe) => probe.eval(row, ctx)?,
            ResidualPred::Framed(e) => {
                let frames = frames.get_or_insert_with(|| {
                    let mut f = Vec::with_capacity(outer.len() + 1);
                    f.push(Frame { bindings, row });
                    f.extend_from_slice(outer);
                    f
                });
                truthiness(&eval_expr(e, frames, ctx)?) == Some(true)
            }
        };
        if !keep {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Legacy per-row form: `cpu_tuple_ops` bumped on the context before each
/// predicate evaluation.
pub(crate) fn keep_row(
    row: &Row,
    bindings: &[Binding],
    preds: &[ResidualPred],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<bool> {
    keep_row_charged(row, bindings, preds, outer, ctx, || ctx.bump_cpu(1))
}

// ---------------------------------------------------------------------------
// Zone-map page pruning
// ---------------------------------------------------------------------------

/// The `col <cmp> literal` residual conjuncts eligible for zone-map page
/// pruning on `table`: exactly the [`ResidualPred::FastCmp`] shape,
/// restricted to columns the heap keeps zone maps for. Extraction is
/// independent of the execution mode — it recompiles from the raw
/// expressions with bound parameters folded in — so every scan path
/// (legacy, batch-exec, aggregate-driven morsels, DML) prunes the same pages and the
/// cross-mode counter identity holds.
pub(crate) fn zone_prune_preds(
    table: &Table,
    bindings: &[Binding],
    residual_exprs: &[&Expr],
    ctx: &ExecContext<'_>,
) -> Vec<(usize, BinOp, Value)> {
    let zone_cols = table.heap.zone_columns();
    if zone_cols.is_empty() {
        return Vec::new();
    }
    residual_exprs
        .iter()
        .filter_map(|e| {
            let c = eval::compile_expr(e, bindings)?;
            match ResidualPred::from_compiled(eval::prebind_params(&c, ctx)) {
                ResidualPred::FastCmp { col, op, lit } if zone_cols.contains(&col) => {
                    Some((col, op, lit))
                }
                _ => None,
            }
        })
        .collect()
}

/// Does `page`'s zone map prove no live row can satisfy `col <op> lit`?
///
/// Decisions mirror the row-level `FastCmp` semantics ([`Value::sql_cmp`]):
/// a NULL literal or an all-NULL page can never produce a `true`
/// comparison (NULL operands short-circuit to false before comparing), so
/// both always prune; an incomparable min or max means some row might
/// raise a type error, so the page is kept and row-level evaluation
/// surfaces the same error it always did. Comparable min/max bounds are
/// safe because [`Value::sort_cmp`]'s type ranks coincide with
/// `sql_cmp`'s comparability classes: if both bounds compare with the
/// literal, every value between them does too (NaN sorts above all floats
/// and is itself incomparable, so a page containing one is never pruned).
pub(crate) fn zone_page_refutes(
    heap: &apuama_storage::Heap,
    page: u64,
    preds: &[(usize, BinOp, Value)],
) -> bool {
    use apuama_storage::ZoneRange;
    preds.iter().any(|(col, op, lit)| {
        match heap.zone_range(*col, page) {
            None => false,
            Some(ZoneRange::Empty) => true,
            Some(ZoneRange::Range { min, max }) => {
                if lit.is_null() {
                    return true;
                }
                let (Some(lo), Some(hi)) = (min.sql_cmp(lit), max.sql_cmp(lit)) else {
                    return false;
                };
                match op {
                    BinOp::Eq => lo == Ordering::Greater || hi == Ordering::Less,
                    // Only refutable when the page holds a single value.
                    BinOp::NotEq => lo == Ordering::Equal && hi == Ordering::Equal,
                    BinOp::Lt => lo != Ordering::Less,
                    BinOp::LtEq => lo == Ordering::Greater,
                    BinOp::Gt => hi != Ordering::Greater,
                    BinOp::GtEq => hi == Ordering::Less,
                    _ => false,
                }
            }
        }
    })
}

/// Builds the heap iterator for a sequential scan, skipping — and counting
/// as `pages_pruned` — pages whose zone maps refute a residual conjunct.
/// Pruned pages are never iterated: no page charge, no `rows_scanned`.
pub(crate) fn seq_scan_iter<'e>(
    table: &'e Table,
    bindings: &[Binding],
    residual_exprs: &[&Expr],
    ctx: &ExecContext<'_>,
) -> Box<dyn Iterator<Item = (RowId, &'e Row)> + 'e> {
    let preds = zone_prune_preds(table, bindings, residual_exprs, ctx);
    if preds.is_empty() {
        return Box::new(table.heap.iter());
    }
    let mut allowed: Vec<u64> = Vec::new();
    let mut pruned = 0u64;
    for page in 0..table.heap.pages() {
        if zone_page_refutes(&table.heap, page, &preds) {
            pruned += 1;
        } else {
            allowed.push(page);
        }
    }
    ctx.bump_pages_pruned(pruned);
    let heap = &table.heap;
    let rpp = heap.geometry().rows_per_page;
    Box::new(
        allowed
            .into_iter()
            .flat_map(move |p| heap.iter_range(p * rpp, (p + 1) * rpp)),
    )
}

// ---------------------------------------------------------------------------
// Group table
// ---------------------------------------------------------------------------

/// One group-by key component program: a direct column read (no clone per
/// row) or a compiled expression evaluated into a per-row scratch slot.
pub(crate) enum KeyProg {
    Col(usize),
    Expr { expr: CompiledExpr, slot: usize },
}

/// Compiles group-by expressions into [`KeyProg`]s; `None` when any key
/// needs framed evaluation (the caller falls back to the legacy fold).
pub(crate) fn compile_key_progs(
    exprs: &[Expr],
    bindings: &[Binding],
    ctx: &ExecContext<'_>,
) -> Option<Vec<KeyProg>> {
    let mut progs = Vec::with_capacity(exprs.len());
    let mut slots = 0usize;
    for e in exprs {
        let c = eval::prebind_params(&eval::compile_expr(e, bindings)?, ctx);
        progs.push(match c {
            CompiledExpr::Col(i) => KeyProg::Col(i),
            other => {
                let slot = slots;
                slots += 1;
                KeyProg::Expr { expr: other, slot }
            }
        });
    }
    Some(progs)
}

/// Evaluates the expression-valued key components into `scratch` (cleared
/// first); `Col` components are read straight from the row at lookup time.
pub(crate) fn eval_key_scratch(
    progs: &[KeyProg],
    row: &[Value],
    ctx: &ExecContext<'_>,
    scratch: &mut Vec<Value>,
) -> EngineResult<()> {
    scratch.clear();
    for p in progs {
        if let KeyProg::Expr { expr, .. } = p {
            scratch.push(eval::eval_compiled(expr, row, ctx)?);
        }
    }
    Ok(())
}

pub(crate) fn key_component<'a>(
    progs: &[KeyProg],
    i: usize,
    row: &'a [Value],
    scratch: &'a [Value],
) -> &'a Value {
    match &progs[i] {
        KeyProg::Col(c) => &row[*c],
        KeyProg::Expr { slot, .. } => &scratch[*slot],
    }
}

/// FNV-1a, the group table's bucketing hash. Only bucket placement
/// depends on the hash — grouping equality is `sort_cmp` and output order
/// is first-seen — so a cheap function is enough.
pub(crate) struct FnvHasher(u64);

impl FnvHasher {
    pub(crate) fn new() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// How many groups the table matches by linear scan before cutting over
/// to a hashed index.
pub(crate) const LINEAR_GROUPS_MAX: usize = 16;

/// The compiled aggregation fold's group table: groups are matched by
/// *borrowed* key components (no per-row key `Vec` or `Value` clones — a
/// key is cloned exactly once, when its group is first seen) and states
/// come out in first-seen order, ready for [`exec::project_groups`].
/// Equality is `sort_cmp == Equal` per component and [`hash_value`]
/// canonicalizes numerics, so grouping is identical to the framed fold's
/// `HashMap<Vec<HashableValue>, _>` (NULLs form one group, `1` and `1.0`
/// share a group).
///
/// The lookup is specialized for the SVP sub-query profile: the
/// scan→filter→aggregate shapes a node runs almost always have tiny group
/// cardinality (TPC-H Q1 has four), where a couple of direct comparisons
/// beat hashing the key on every row. The table runs hash-free until the
/// group count outgrows [`LINEAR_GROUPS_MAX`], then builds an FNV index
/// once and probes it from there on.
pub(crate) struct GroupTable {
    keys: Vec<Vec<Value>>,
    states: Vec<GroupState>,
    /// FNV hash → group indices (collision list); `None` in the linear
    /// regime, built exactly once at cut-over.
    index: Option<HashMap<u64, Vec<u32>>>,
}

impl GroupTable {
    pub(crate) fn new() -> Self {
        GroupTable {
            keys: Vec::new(),
            states: Vec::new(),
            index: None,
        }
    }

    fn stored_hash(key: &[Value]) -> u64 {
        let mut hasher = FnvHasher::new();
        for v in key {
            hash_value(v, &mut hasher);
        }
        hasher.finish()
    }

    pub(crate) fn find_or_insert(
        &mut self,
        progs: &[KeyProg],
        row: &[Value],
        scratch: &[Value],
        new_state: impl FnOnce() -> GroupState,
    ) -> &mut GroupState {
        let gi = self.find(
            || {
                let mut hasher = FnvHasher::new();
                for i in 0..progs.len() {
                    hash_value(key_component(progs, i, row, scratch), &mut hasher);
                }
                hasher.finish()
            },
            |stored| {
                stored.iter().enumerate().all(|(i, s)| {
                    s.sort_cmp(key_component(progs, i, row, scratch)) == Ordering::Equal
                })
            },
        );
        let gi = match gi {
            Some(gi) => gi,
            // Load-bearing clone: a new group's key is materialized once;
            // probes compare against row/scratch without cloning.
            None => self.push(
                (0..progs.len())
                    .map(|i| key_component(progs, i, row, scratch).clone())
                    .collect(),
                new_state(),
            ),
        };
        &mut self.states[gi]
    }

    /// The group matching a probe key: a linear `matches` scan before the
    /// cut-over (which never hashes), an index probe after it.
    fn find(
        &self,
        probe_hash: impl FnOnce() -> u64,
        matches: impl Fn(&[Value]) -> bool,
    ) -> Option<usize> {
        match &self.index {
            None => self.keys.iter().position(|stored| matches(stored)),
            Some(index) => index.get(&probe_hash()).and_then(|bucket| {
                bucket
                    .iter()
                    .map(|&gi| gi as usize)
                    .find(|&gi| matches(&self.keys[gi]))
            }),
        }
    }

    /// Appends a new group, indexing it — or, on outgrowing the linear
    /// regime, indexing every group seen so far, once.
    fn push(&mut self, key: Vec<Value>, state: GroupState) -> usize {
        let gi = self.states.len();
        self.keys.push(key);
        self.states.push(state);
        if let Some(index) = &mut self.index {
            let h = Self::stored_hash(&self.keys[gi]);
            index.entry(h).or_default().push(gi as u32);
        } else if self.keys.len() > LINEAR_GROUPS_MAX {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            for (i, key) in self.keys.iter().enumerate() {
                index
                    .entry(Self::stored_hash(key))
                    .or_default()
                    .push(i as u32);
            }
            self.index = Some(index);
        }
        gi
    }

    /// The accumulated group states, in first-seen order.
    pub(crate) fn into_states(self) -> Vec<GroupState> {
        self.states
    }

    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Folds another group table — one morsel's partial aggregate — into
    /// this one. The parallel coordinator calls this in morsel order, which
    /// preserves global first-seen group order: a group's first occurrence
    /// lives in the earliest morsel containing it, so it is either already
    /// present (keeping its earlier representative row) or appended here
    /// exactly when the serial scan would have created it.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        for (key, state) in other.keys.into_iter().zip(other.states) {
            let gi = self.find(
                || Self::stored_hash(&key),
                |stored| {
                    stored
                        .iter()
                        .zip(&key)
                        .all(|(s, k)| s.sort_cmp(k) == Ordering::Equal)
                },
            );
            match gi {
                Some(gi) => {
                    for (acc, o) in self.states[gi].accs.iter_mut().zip(state.accs) {
                        acc.merge(o);
                    }
                }
                None => {
                    self.push(key, state);
                }
            }
        }
    }
}

/// Keeps only rows satisfying every predicate (materialized form, used by
/// the join phase and derived tables).
pub(crate) fn filter_rows(
    rel: Relation,
    preds: &[Expr],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let bindings = rel.bindings;
    let mut rows = Vec::with_capacity(rel.rows.len());
    'rows: for row in rel.rows {
        let mut frames = Vec::with_capacity(outer.len() + 1);
        frames.push(Frame {
            bindings: &bindings,
            row: &row,
        });
        frames.extend_from_slice(outer);
        for p in preds {
            ctx.bump_cpu(1);
            if truthiness(&eval_expr(p, &frames, ctx)?) != Some(true) {
                continue 'rows;
            }
        }
        rows.push(row);
    }
    Ok(Relation { bindings, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn db() -> Database {
        let mut db = Database::in_memory();
        db.execute("create table o (k int not null, r int, primary key (k))")
            .unwrap();
        db.execute("create table i (ik int not null, r int, s int, primary key (ik))")
            .unwrap();
        db.execute("create index i_r on i (r)").unwrap();
        db
    }

    fn compiles(sql: &str, bindings: &[Binding]) -> Option<usize> {
        let db = db();
        let ctx = ExecContext::new(&db);
        let e = apuama_sql::parse_expression(sql).unwrap();
        ExistsProbe::compile(&e, bindings, &ctx).map(|p| p.candidates.len())
    }

    #[test]
    fn exists_probe_compiles_only_provable_shapes() {
        let db = db();
        let o = exec::bindings_for_table(&db.table("o").unwrap().schema, None);
        // Correlated probe on the indexed column, residual over both rows.
        assert_eq!(
            compiles("exists (select * from i where i.r = o.r and s <> k)", &o),
            Some(1)
        );
        // `not exists`, and no WHERE at all (no probe candidate).
        assert_eq!(
            compiles("not exists (select * from i where r = o.r)", &o),
            Some(1)
        );
        assert_eq!(compiles("exists (select * from i)", &o), Some(0));
        // A key over the inner table can never evaluate outside: skipped.
        assert_eq!(
            compiles("exists (select * from i where r = s)", &o),
            Some(0)
        );
        // Declined: unknown names, nested subqueries, joins, non-EXISTS.
        assert_eq!(
            compiles("exists (select * from i where i.r = zz)", &o),
            None
        );
        assert_eq!(
            compiles(
                "exists (select * from i where r = (select max(k) from o))",
                &o
            ),
            None
        );
        assert_eq!(
            compiles("exists (select * from i, o where i.r = o.r)", &o),
            None
        );
        assert_eq!(compiles("exists (select * from nosuch)", &o), None);
        assert_eq!(compiles("k in (select r from i)", &o), None);
        // An outer name ambiguous in the operator's row (a self-join).
        let mut join = exec::bindings_for_table(&db.table("o").unwrap().schema, Some("a"));
        join.extend(exec::bindings_for_table(
            &db.table("o").unwrap().schema,
            Some("b"),
        ));
        assert_eq!(
            compiles("exists (select * from i where i.r = a.r)", &join),
            Some(1)
        );
        assert_eq!(
            compiles("exists (select * from i where i.r = k)", &join),
            None
        );
        assert_eq!(
            compiles("exists (select * from i where i.r = a.r and s = k)", &join),
            None
        );
    }

    #[test]
    fn exists_keeps_framed_evaluation_under_enclosing_scopes() {
        let db = db();
        let ctx = ExecContext::new(&db);
        let o = exec::bindings_for_table(&db.table("o").unwrap().schema, None);
        let e = apuama_sql::parse_expression("exists (select * from i where i.r = o.r)").unwrap();
        assert!(matches!(
            resolve_pred(&e, &o, &[], &ctx, true),
            ResidualPred::Exists(_)
        ));
        let row = vec![Value::Int(1), Value::Int(2)];
        let outer = [Frame {
            bindings: &o,
            row: &row,
        }];
        assert!(matches!(
            resolve_pred(&e, &o, &outer, &ctx, true),
            ResidualPred::Framed(_)
        ));
    }
}
