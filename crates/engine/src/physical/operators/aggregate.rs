use std::collections::HashMap;

use apuama_sql::ast::{Expr, Select};
use apuama_sql::value::HashableValue;
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::{self, eval_expr, CompiledExpr, Frame};
use crate::exec::{self, Acc, AggSpec, Binding, ExecContext, GroupState};

use crate::physical::*;

// ---------------------------------------------------------------------------
// HashAggregate
// ---------------------------------------------------------------------------

/// One aggregate input, pre-resolved: no per-row work for `count(*)` and
/// argument-less specs, a direct positional read for plain-column
/// arguments, a compiled program otherwise.
pub(crate) enum AggArg {
    None,
    Col(usize),
    Expr(CompiledExpr),
}

/// Compiles the group keys and aggregate arguments against the rows the
/// aggregate folds, with bound parameters folded in; `None` when any of
/// them needs framed evaluation.
pub(crate) fn compile_agg_progs(
    q: &Select,
    specs: &[AggSpec],
    bindings: &[Binding],
    ctx: &ExecContext<'_>,
) -> Option<(Vec<KeyProg>, Vec<AggArg>)> {
    let keys = compile_key_progs(&q.group_by, bindings, ctx)?;
    let args = specs
        .iter()
        .map(|s| match (&s.arg, s.star) {
            (_, true) | (None, _) => Some(AggArg::None),
            (Some(a), false) => {
                let c = eval::prebind_params(&eval::compile_expr(a, bindings)?, ctx);
                Some(match c {
                    CompiledExpr::Col(i) => AggArg::Col(i),
                    other => AggArg::Expr(other),
                })
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some((keys, args))
}

/// The compiled aggregation fold, resolved for one execution: the residual
/// predicates a row must pass first (non-empty only when the aggregate
/// drives its own scan), the group-key and argument programs, and the
/// columnar plan when every one of them is positional and the knob allows
/// it. Shared read-only by morsel workers.
pub(crate) struct AggFold<'p> {
    preds: Vec<ResidualPred<'static>>,
    keys: &'p [KeyProg],
    args: &'p [AggArg],
    columnar: Option<ColumnarFold>,
}

impl<'p> AggFold<'p> {
    pub(crate) fn new(
        preds: Vec<ResidualPred<'static>>,
        (keys, args): &'p (Vec<KeyProg>, Vec<AggArg>),
        width: usize,
        ctx: &ExecContext<'_>,
    ) -> Self {
        let columnar = if ctx.db.columnar_enabled() {
            ColumnarFold::try_new(&preds, keys, args, width)
        } else {
            None
        };
        AggFold {
            preds,
            keys,
            args,
            columnar,
        }
    }

    /// Folds one batch of rows into `groups` and returns the batch's
    /// `cpu_tuple_ops`: one charge per predicate evaluation, then one per
    /// aggregated row. The columnar fold runs when eligible; a batch it
    /// declines (mixed-type or NaN-bearing predicate column) takes the
    /// scalar loop, which is value-, error- and charge-identical.
    pub(crate) fn batch(
        &self,
        rows: &[&Row],
        specs: &[AggSpec],
        groups: &mut GroupTable,
        scratch: &mut Vec<Value>,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<u64> {
        if let Some(cf) = &self.columnar {
            if let Some(cpu) = cf.fold(rows, &self.preds, specs, groups)? {
                return Ok(cpu);
            }
        }
        let mut cpu = 0u64;
        for &row in rows {
            // Compiled predicates never read bindings or frames.
            if !self.preds.is_empty()
                && !keep_row_charged(row, &[], &self.preds, &[], ctx, || cpu += 1)?
            {
                continue;
            }
            cpu += 1;
            eval_key_scratch(self.keys, row, ctx, scratch)?;
            let group = groups.find_or_insert(self.keys, row, scratch, || GroupState {
                rep_row: row.to_vec(),
                accs: specs.iter().map(Acc::new).collect(),
            });
            for (arg, acc) in self.args.iter().zip(group.accs.iter_mut()) {
                acc.update(match arg {
                    AggArg::None => None,
                    AggArg::Col(i) => Some(row[*i].clone()),
                    AggArg::Expr(a) => Some(eval::eval_compiled(a, row, ctx)?),
                })?;
            }
        }
        Ok(cpu)
    }
}

/// A single base table the aggregate scans itself. Every pushed-down and
/// post conjunct, group key and aggregate argument compiled against the
/// table's bindings — so none carries a subquery, the access-path choice
/// touches no page, and morsels can be filtered and folded on worker
/// threads.
pub(crate) struct TableInput<'e> {
    name: &'e str,
    alias: Option<&'e str>,
    single: &'e [Expr],
    bindings: Vec<Binding>,
    compiled_single: Vec<CompiledExpr>,
    compiled_post: Vec<CompiledExpr>,
    progs: Option<(Vec<KeyProg>, Vec<AggArg>)>,
}

impl<'e> TableInput<'e> {
    /// `None` unless `g` is one base table and everything compiles.
    pub(crate) fn resolve(q: &Select, g: &'e GeneralPlan, ctx: &ExecContext<'_>) -> Option<Self> {
        let [InputNode::Table {
            name,
            alias,
            single,
        }] = g.inputs.as_slice()
        else {
            return None;
        };
        let table = ctx.db.table(name)?;
        let bindings = exec::bindings_for_table(&table.schema, alias.as_deref());
        let compile =
            |e: &Expr| eval::compile_expr(e, &bindings).map(|c| eval::prebind_params(&c, ctx));
        let compiled_single = single.iter().map(compile).collect::<Option<_>>()?;
        let compiled_post = g
            .post
            .iter()
            .map(|(e, _)| compile(e))
            .collect::<Option<_>>()?;
        let progs = compile_agg_progs(q, &exec::collect_agg_specs(q), &bindings, ctx)?;
        Some(TableInput {
            name,
            alias: alias.as_deref(),
            single,
            bindings,
            compiled_single,
            compiled_post,
            progs: Some(progs),
        })
    }

    /// The `EXPLAIN ANALYZE` label of an aggregate over this table.
    pub(crate) fn label(&self) -> String {
        match self.alias {
            Some(a) => format!("aggregate over {} as {a}", self.name),
            None => format!("aggregate over {}", self.name),
        }
    }
}

/// Where an aggregate's rows come from.
pub(crate) enum AggInput<'e> {
    /// A child operator's batches (joins, derived tables, subquery-bearing
    /// scans, and every input in the legacy mode).
    Child(Box<dyn Operator<'e> + 'e>),
    /// A base table scanned by the aggregate itself, morsel by morsel.
    Table(TableInput<'e>),
}

/// Hash aggregation: folds its input into group accumulators, then
/// finalizes through [`exec::project_groups`] (HAVING, the select-list
/// projection with aggregates substituted, ORDER BY keys).
///
/// In batch-exec mode, when the group keys and arguments compile, rows
/// fold through one compiled [`AggFold`] into a [`GroupTable`]. Over a
/// [`AggInput::Table`] the aggregate drives the scan itself: it plans
/// page-aligned morsels, replays their page charges in serial order, and
/// folds each morsel — on the worker pool, merging partials in morsel
/// order, when `parallel_workers` ≥ 2, there are ≥ 2 morsels, no outer
/// frames and no DISTINCT accumulator; inline otherwise. Everything else
/// — the legacy mode, subquery-bearing keys or arguments — runs the framed
/// `HashMap` fold, the seed interpreter's profile and the identity
/// reference. Folding streams unless a key or argument contains a
/// subquery.
pub(crate) struct AggregateExec<'e> {
    q: &'e Select,
    input: AggInput<'e>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    breaker: bool,
    batch_mode: bool,
    specs: Vec<AggSpec>,
    in_bindings: Vec<Binding>,
    /// Compiled group-key + aggregate-argument programs; `Some` only in
    /// batch-exec mode when everything compiles (else the framed fold runs).
    progs: Option<(Vec<KeyProg>, Vec<AggArg>)>,
    /// The `EXPLAIN ANALYZE` node worker breakdowns attach to.
    probe: Option<(&'e Analyze, usize)>,
    emitter: Option<BatchEmitter>,
}

impl<'e> AggregateExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        input: AggInput<'e>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
        batch_mode: bool,
        probe: Option<(&'e Analyze, usize)>,
    ) -> Self {
        let specs = exec::collect_agg_specs(q);
        let breaker = q.group_by.iter().any(exec::contains_subquery)
            || specs
                .iter()
                .any(|s| s.arg.as_ref().is_some_and(exec::contains_subquery));
        AggregateExec {
            q,
            input,
            outer,
            ctx,
            breaker,
            batch_mode,
            specs,
            in_bindings: Vec::new(),
            progs: None,
            probe,
            emitter: None,
        }
    }

    pub(crate) fn fold_row(
        &self,
        row: &Row,
        specs: &[AggSpec],
        groups: &mut HashMap<Vec<HashableValue>, GroupState>,
        order: &mut Vec<Vec<HashableValue>>,
    ) -> EngineResult<()> {
        self.ctx.bump_cpu(1);
        let mut frames = Vec::with_capacity(self.outer.len() + 1);
        frames.push(Frame {
            bindings: &self.in_bindings,
            row,
        });
        frames.extend_from_slice(self.outer);
        let mut key = Vec::with_capacity(self.q.group_by.len());
        for g in &self.q.group_by {
            key.push(eval_expr(g, &frames, self.ctx)?.hash_key());
        }
        let group = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                // Key clone only on first sight of a group: the map owns the
                // key, the first-seen order list needs its own copy.
                order.push(e.key().clone());
                e.insert(GroupState {
                    rep_row: row.clone(),
                    accs: specs.iter().map(Acc::new).collect(),
                })
            }
        };
        for (spec, acc) in specs.iter().zip(group.accs.iter_mut()) {
            let v = match (&spec.arg, spec.star) {
                (_, true) | (None, _) => None,
                (Some(arg), false) => Some(eval_expr(arg, &frames, self.ctx)?),
            };
            acc.update(v)?;
        }
        Ok(())
    }

    /// The compiled fold into one [`GroupTable`]. Group-state growth is
    /// charged against the memory budget at batch (or morsel) grain: one
    /// charge per batch covering the groups it created (state width ≈ rep
    /// row + one accumulator per spec).
    fn fold_compiled(&mut self, progs: &(Vec<KeyProg>, Vec<AggArg>)) -> EngineResult<GroupTable> {
        let ctx = self.ctx;
        let state_width = self.in_bindings.len() + self.specs.len();
        let mut groups = GroupTable::new();
        let mut scratch: Vec<Value> = Vec::new();
        let mut charged = 0u64;
        let mut fold_batch =
            |fold: &AggFold, rows: &[&Row], groups: &mut GroupTable| -> EngineResult<()> {
                ctx.bump_cpu(fold.batch(rows, &self.specs, groups, &mut scratch, ctx)?);
                let n = groups.len() as u64;
                ctx.charge_mem(exec::approx_state_bytes(n - charged, state_width))?;
                charged = n;
                Ok(())
            };
        let src = match &mut self.input {
            AggInput::Child(child) => {
                let fold = AggFold::new(Vec::new(), progs, self.in_bindings.len(), ctx);
                while let Some(batch) = child.next_batch()? {
                    ctx.check_interrupt()?;
                    let rows: Vec<&Row> = batch.rows.iter().collect();
                    fold_batch(&fold, &rows, &mut groups)?;
                }
                return Ok(groups);
            }
            AggInput::Table(src) => src,
        };

        let scan = plan_scan(src.name, src.alias, src.single, ctx)?;
        let preds = scan
            .residual
            .iter()
            .map(|&i| &src.compiled_single[i])
            .chain(&src.compiled_post)
            .map(|c| ResidualPred::from_compiled(c.clone()))
            .collect();
        let fold = AggFold::new(preds, progs, src.bindings.len(), ctx);
        let residual_exprs: Vec<&Expr> = scan.residual.iter().map(|&i| &src.single[i]).collect();
        let sm = plan_scan_morsels(
            scan.table,
            &src.bindings,
            &residual_exprs,
            &scan.choice,
            ctx,
        );
        ctx.bump_pages_pruned(sm.pages_pruned);
        ctx.bump_index_probes(sm.index_probes);
        // No other page touch can interleave (every conjunct compiled), so
        // replaying the scan's page sequence up front leaves the buffer
        // pool exactly as the row-by-row scan does.
        precharge_morsel_pages(&sm, ctx);

        let workers = ctx.db.parallel_workers();
        let mut scanned = 0u64;
        if workers >= 2
            && sm.morsels.len() >= 2
            && self.outer.is_empty()
            && !self.specs.iter().any(|s| s.distinct)
        {
            // DISTINCT accumulators cannot be merged across partials and
            // correlated frames cannot cross threads; both stay inline.
            let specs = &self.specs;
            let parts = run_morsels(sm.morsels.len(), workers, ctx, self.probe, |i, wctx| {
                wctx.check_interrupt()?;
                let rows: Vec<&Row> = morsel_rows(sm.table, &sm.morsels[i]).collect();
                let mut part = GroupTable::new();
                let cpu = fold.batch(&rows, specs, &mut part, &mut Vec::new(), wctx)?;
                // Transient partial state, released when the worker's
                // context drops; the merged total is charged below.
                wctx.charge_mem(exec::approx_state_bytes(part.len() as u64, state_width))?;
                Ok(((part, cpu), rows.len() as u64))
            })?;
            for ((part, cpu), n) in parts {
                scanned += n;
                ctx.bump_cpu(cpu);
                groups.merge(part);
            }
            ctx.charge_mem(exec::approx_state_bytes(groups.len() as u64, state_width))?;
        } else {
            let mut rows: Vec<&Row> = Vec::with_capacity(exec::SCAN_BATCH_ROWS as usize);
            for m in &sm.morsels {
                ctx.check_interrupt()?;
                rows.clear();
                rows.extend(morsel_rows(sm.table, m));
                scanned += rows.len() as u64;
                fold_batch(&fold, &rows, &mut groups)?;
            }
        }
        ctx.bump_rows_scanned(scanned);
        ctx.bump_scan_batches(scanned.div_ceil(exec::SCAN_BATCH_ROWS));
        Ok(groups)
    }

    /// The framed fold reads only child batches: a table input always
    /// compiles its fold.
    fn next_child_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        match &mut self.input {
            AggInput::Child(child) => child.next_batch(),
            AggInput::Table(_) => Ok(None),
        }
    }

    /// The framed fold: the seed interpreter's `HashMap` over hashable key
    /// vectors, every key and argument evaluated through frames.
    fn fold_framed(&mut self) -> EngineResult<Vec<GroupState>> {
        let state_width = self.in_bindings.len() + self.specs.len();
        let mut groups: HashMap<Vec<HashableValue>, GroupState> = HashMap::new();
        let mut order: Vec<Vec<HashableValue>> = Vec::new();
        if self.breaker {
            // Drain first (subquery page touches land after the child's),
            // then fold each row by reference — borrowed batches are never
            // cloned just to be read once. The buffered input is charged
            // per batch as it arrives.
            let mut batches: Vec<BatchRows<'e>> = Vec::new();
            while let Some(batch) = self.next_child_batch()? {
                self.ctx.check_interrupt()?;
                self.ctx.charge_mem(exec::approx_state_bytes(
                    batch.rows.len() as u64,
                    self.in_bindings.len(),
                ))?;
                batches.push(batch.rows);
            }
            for b in &batches {
                for row in b.iter() {
                    self.fold_row(row, &self.specs, &mut groups, &mut order)?;
                }
            }
            self.ctx
                .charge_mem(exec::approx_state_bytes(groups.len() as u64, state_width))?;
        } else {
            let mut charged = 0u64;
            while let Some(batch) = self.next_child_batch()? {
                self.ctx.check_interrupt()?;
                for row in batch.rows.iter() {
                    self.fold_row(row, &self.specs, &mut groups, &mut order)?;
                }
                let n = groups.len() as u64;
                self.ctx
                    .charge_mem(exec::approx_state_bytes(n - charged, state_width))?;
                charged = n;
            }
        }
        Ok(order
            .into_iter()
            .map(|k| groups.remove(&k).expect("order tracks the map's keys"))
            .collect())
    }
}

impl<'e> Operator<'e> for AggregateExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        match &mut self.input {
            AggInput::Child(child) => {
                self.in_bindings = child.open()?;
                if self.batch_mode && !self.breaker {
                    self.progs =
                        compile_agg_progs(self.q, &self.specs, &self.in_bindings, self.ctx);
                }
            }
            AggInput::Table(src) => {
                self.in_bindings = src.bindings.clone();
                self.progs = src.progs.take();
            }
        }
        Ok(exec::output_bindings(self.q, &self.in_bindings))
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if self.emitter.is_none() {
            let states = match self.progs.take() {
                Some(progs) => self.fold_compiled(&progs)?.into_states(),
                None => self.fold_framed()?,
            };
            let (rel, keys) = exec::project_groups(
                self.q,
                &self.in_bindings,
                &self.specs,
                states,
                self.outer,
                self.ctx,
            )?;
            self.emitter = Some(BatchEmitter::nested(rel.rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
