use apuama_sql::ast::{Expr, Select};
use apuama_sql::Value;
use apuama_storage::{AccessKind, Row};

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, eval_expr, CompiledExpr, Frame};
use crate::exec::{self, Acc, Binding, ExecContext, GroupState, Relation};
use crate::planner::{self, AccessPath};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Fused scan→filter→aggregate
// ---------------------------------------------------------------------------

/// One aggregate input, pre-resolved: no per-row work for `count(*)`,
/// a direct positional read for plain-column arguments (the common
/// kernel case), a compiled program otherwise.
pub(crate) enum FusedArg {
    None,
    Col(usize),
    Expr(CompiledExpr),
}

/// Specializes the fused plan's aggregate-argument programs for one
/// execution (parameters folded in).
pub(crate) fn resolve_fused_args(plan: &FusedPlan, ctx: &ExecContext<'_>) -> Vec<FusedArg> {
    plan.agg_args
        .iter()
        .map(|a| match a.as_ref().map(|c| eval::prebind_params(c, ctx)) {
            None => FusedArg::None,
            Some(CompiledExpr::Col(i)) => FusedArg::Col(i),
            Some(other) => FusedArg::Expr(other),
        })
        .collect()
}

/// The fused plan's residual predicate programs: scan conjuncts the access
/// path didn't consume, then post predicates, in plan order, with bound
/// parameters folded in and `col <cmp> literal` sunk to direct
/// comparisons.
pub(crate) fn resolve_fused_preds(
    plan: &FusedPlan,
    choice: &planner::ScanChoice,
    ctx: &ExecContext<'_>,
) -> Vec<ResidualPred<'static>> {
    plan.compiled_single
        .iter()
        .enumerate()
        .filter(|(i, _)| !choice.consumed.contains(i))
        .map(|(_, c)| c)
        .chain(plan.compiled_post.iter())
        .map(|c| ResidualPred::from_compiled(eval::prebind_params(c, ctx)))
        .collect()
}

/// The fusion rule's executor: one pass over the base table in borrowed
/// [`exec::SCAN_BATCH_ROWS`]-row batches, predicates and aggregate updates
/// evaluated positionally against borrowed rows, statistics charged once
/// per batch. Finishes through the same [`exec::project_groups`] as the
/// general tree, which is what keeps the two shapes byte-identical.
pub(crate) struct FusedExec<'e> {
    q: &'e Select,
    plan: &'e FusedPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> FusedExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        plan: &'e FusedPlan,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        FusedExec {
            q,
            plan,
            outer,
            ctx,
            emitter: None,
        }
    }

    pub(crate) fn run(&self) -> EngineResult<(Relation, Vec<Vec<Value>>)> {
        let (plan, ctx) = (self.plan, self.ctx);
        let table = ctx
            .db
            .table(&plan.table)
            .ok_or_else(|| EngineError::UnknownTable(plan.table.clone()))?;
        let eval_const = |e: &Expr| -> Option<Value> {
            if exec::expr_has_columns(e) {
                None
            } else {
                eval_expr(e, &[], ctx).ok()
            }
        };
        let choice = planner::choose_access_path(
            table,
            &plan.binding_name,
            &plan.single,
            ctx.db.seqscan_enabled(),
            ctx.db.indexscan_enabled(),
            &eval_const,
        );
        // All four compiled program sets are specialized once per
        // execution: parameters folded in, `col <cmp> literal` predicates
        // sunk to direct comparisons, group keys turned into positional
        // programs. Residual scan predicates run before post predicates,
        // in plan order, exactly as before.
        let preds = resolve_fused_preds(plan, &choice, ctx);
        let key_progs = key_progs_from_compiled(&plan.group_by, ctx);
        let agg_args = resolve_fused_args(plan, ctx);
        // The vectorized fold, when the plan shape is fully positional and
        // the knob allows it. Per-batch eligibility (mixed-type or
        // NaN-bearing predicate columns) is re-checked inside `fold`, which
        // then declines and the scalar loop below runs instead.
        let columnar = if ctx.db.columnar_enabled() {
            ColumnarFused::try_new(&preds, &key_progs, &agg_args, plan.bindings.len())
        } else {
            None
        };

        let mut table_groups = FusedGroups::new();
        let mut scratch: Vec<Value> = Vec::new();
        let state_width = plan.bindings.len() + plan.specs.len();
        let mut charged_groups = 0u64;

        // Folds one batch of borrowed rows: predicate pass, then
        // accumulator updates, with the statistics for the whole batch
        // charged in one go. Also the kernel's cancellation point and
        // memory-charge boundary.
        let mut fold_batch = |batch: &[&Row]| -> EngineResult<()> {
            ctx.check_interrupt()?;
            ctx.bump_rows_scanned(batch.len() as u64);
            ctx.bump_scan_batches(1);
            let mut cpu = 0u64;
            let vectorized = match &columnar {
                Some(cf) => match cf.fold(batch, &preds, &plan.specs, &mut table_groups)? {
                    Some(batch_cpu) => {
                        cpu = batch_cpu;
                        true
                    }
                    None => false,
                },
                None => false,
            };
            if !vectorized {
                for row in batch {
                    if !preds.is_empty()
                        && !keep_row_charged(row, &plan.bindings, &preds, self.outer, ctx, || {
                            cpu += 1
                        })?
                    {
                        continue;
                    }
                    cpu += 1; // the aggregation update the general loop charges
                    eval_key_scratch(&key_progs, row, ctx, &mut scratch)?;
                    let group =
                        table_groups.find_or_insert(&key_progs, row, &scratch, || GroupState {
                            rep_row: row.to_vec(),
                            accs: plan.specs.iter().map(Acc::new).collect(),
                        });
                    for (arg, acc) in agg_args.iter().zip(group.accs.iter_mut()) {
                        let v = match arg {
                            FusedArg::None => None,
                            FusedArg::Col(i) => Some(row[*i].clone()),
                            FusedArg::Expr(a) => Some(eval::eval_compiled(a, row, ctx)?),
                        };
                        acc.update(v)?;
                    }
                }
            }
            ctx.bump_cpu(cpu);
            let groups = table_groups.len() as u64;
            ctx.charge_mem(exec::approx_state_bytes(
                groups - charged_groups,
                state_width,
            ))?;
            charged_groups = groups;
            Ok(())
        };

        let batch_cap = exec::SCAN_BATCH_ROWS as usize;
        let mut batch: Vec<&Row> = Vec::with_capacity(batch_cap);
        match &choice.path {
            AccessPath::SeqScan => {
                let residual_exprs: Vec<&Expr> = plan
                    .single
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !choice.consumed.contains(i))
                    .map(|(_, e)| e)
                    .collect();
                let mut last_page = u64::MAX;
                for (rid, row) in seq_scan_iter(table, &plan.bindings, &residual_exprs, ctx) {
                    let page = table.heap.geometry().page_of(rid);
                    if page != last_page {
                        ctx.charge_page(table.schema.id, page, AccessKind::Sequential);
                        last_page = page;
                    }
                    batch.push(row);
                    if batch.len() == batch_cap {
                        fold_batch(&batch)?;
                        batch.clear();
                    }
                }
            }
            AccessPath::IndexRange {
                column,
                low,
                high,
                clustered,
            } => {
                let idx = table
                    .index_on(*column)
                    .expect("planner only chooses existing indexes");
                ctx.bump_index_probes(1);
                let kind = if *clustered {
                    AccessKind::Sequential
                } else {
                    AccessKind::Random
                };
                let mut last_page = u64::MAX;
                for (_, rid) in idx.range(exec::bound_ref(low), exec::bound_ref(high)) {
                    let Some(row) = table.heap.get(rid) else {
                        continue;
                    };
                    let page = table.heap.geometry().page_of(rid);
                    if page != last_page {
                        ctx.charge_page(table.schema.id, page, kind);
                        last_page = page;
                    }
                    batch.push(row);
                    if batch.len() == batch_cap {
                        fold_batch(&batch)?;
                        batch.clear();
                    }
                }
            }
        }
        if !batch.is_empty() {
            fold_batch(&batch)?;
        }

        let (rel, keys) = exec::project_groups(
            self.q,
            &plan.bindings,
            &plan.specs,
            table_groups.into_states(),
            self.outer,
            ctx,
        )?;
        Ok((rel, keys))
    }
}

impl<'e> Operator<'e> for FusedExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        Ok(exec::output_bindings(self.q, &self.plan.bindings))
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if self.emitter.is_none() {
            let (rel, keys) = self.run()?;
            self.emitter = Some(BatchEmitter::nested(rel.rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
