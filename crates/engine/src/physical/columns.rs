//! Columnar batches, selection vectors, and the vectorized aggregate fold.
//!
//! This module is the engine half of the columnar substrate (the typed
//! [`Column`]/[`ColumnVec`] representation itself lives in the storage
//! crate next to the heap that owns the tuples). It provides:
//!
//! * [`ColumnBatch`] — the referenced attributes of one borrowed row
//!   batch, transposed into typed columns (one slot per binding; only the
//!   columns a plan actually touches are extracted);
//! * [`Sel`] — a selection vector of surviving row indices, so predicate
//!   evaluation marks rows instead of compacting the batch;
//! * [`ColumnarFold`] — the vectorized filter→aggregate fold the compiled
//!   [`AggFold`] runs (per batch or per morsel, serial or on the worker
//!   pool) when every predicate, key, and argument is positional.
//!
//! # Byte-identity argument
//!
//! The columnar fold must be observationally identical to the scalar
//! row loop it replaces — same rows, same error (message *and* which error
//! surfaces first), same `ExecStats` counters. That holds because:
//!
//! * **Charges.** The scalar loop charges `cpu_tuple_ops` before each
//!   predicate evaluation and short-circuits on the first non-true, so
//!   predicate *k* is charged exactly once per row surviving predicates
//!   `0..k`. The columnar fold evaluates predicate-major over the current
//!   selection vector — which contains exactly those survivors — and
//!   charges `sel.len()` per predicate, so the totals coincide. The
//!   per-survivor aggregation charge is `sel.len()` after the last
//!   predicate, as the scalar loop's `cpu += 1` per kept row. Both modes
//!   accumulate into a local counter flushed only when the whole batch
//!   folds successfully, so an erroring batch contributes nothing in
//!   either mode.
//! * **Errors.** `FastCmp` raises a type error only for *non-NULL*,
//!   incomparable operands. Within one typed column every non-NULL value
//!   has the same comparability class against a fixed literal, so a
//!   predicate either errors for none of its input rows or for all of
//!   them — and then the first evaluated valid row errors, which is the
//!   same row the scalar loop errors on (rows before it are NULL in that
//!   column and short-circuit to `false` without error in both modes).
//!   The two shapes where comparability is *not* uniform per column —
//!   mixed-type columns (extracted as [`ColumnVec::Val`]) and `Float`
//!   columns containing NaN — make [`ColumnarFold::fold`] decline the
//!   batch, and the caller re-runs it through the scalar loop.
//!   Aggregate-update errors are raised row-major over survivors in spec
//!   order, exactly like the scalar loop.
//! * **Grouping.** Group probing is not vectorized at all: survivors go
//!   through the *same* [`GroupTable::find_or_insert`] call as the
//!   scalar loop, reading key cells straight out of the original rows —
//!   identical by construction, and allocation-free on the probe path
//!   (extracting a string key column and re-materializing it per survivor
//!   measured slower than the row loop it replaced).
//!
//! Row materialization is deferred to the existing boundaries: a group's
//! representative row and key values are cloned once when the group is
//! first seen, and everything downstream of the fold (projection,
//! ORDER BY, the statement boundary) is untouched.

use apuama_sql::ast::BinOp;
use apuama_sql::Value;
use apuama_storage::{Column, ColumnVec, Row};

use crate::error::{EngineError, EngineResult};
use crate::exec::{Acc, AggSpec, GroupState};

use crate::physical::*;

/// Selection vector: indices (into the current batch) of rows that
/// survived every predicate applied so far, in ascending row order.
pub(crate) type Sel = Vec<u32>;

/// The referenced attributes of one row batch in columnar form: one
/// optional [`Column`] per binding position. Unreferenced bindings stay
/// `None` — extraction only pays for the columns the plan touches.
pub(crate) struct ColumnBatch {
    cols: Vec<Option<Column>>,
    len: usize,
}

impl ColumnBatch {
    /// Transposes `wanted` attributes of the borrowed batch. Rows are in
    /// scan order (for heap scans: page order), so column slot `i`
    /// corresponds to `rows[i]` throughout.
    pub(crate) fn extract(rows: &[&Row], wanted: &[usize], width: usize) -> ColumnBatch {
        let mut cols: Vec<Option<Column>> = Vec::with_capacity(width);
        cols.resize_with(width, || None);
        for &c in wanted {
            if cols[c].is_none() {
                cols[c] = Some(Column::from_row_refs(rows, c));
            }
        }
        ColumnBatch {
            cols,
            len: rows.len(),
        }
    }

    #[inline]
    pub(crate) fn col(&self, c: usize) -> &Column {
        self.cols[c].as_ref().expect("column was extracted")
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The vectorized aggregate fold, resolved once per execution.
/// Construction succeeds only for the fully positional shape: every residual
/// predicate is a [`ResidualPred::FastCmp`], every group key a
/// [`KeyProg::Col`], every aggregate argument [`AggArg::None`] or
/// [`AggArg::Col`]. Anything else keeps the scalar loop.
pub(crate) struct ColumnarFold {
    /// Column index per predicate, parallel to the resolved pred list.
    pred_cols: Vec<usize>,
    /// Positional key programs (all `KeyProg::Col`), fed to the scalar
    /// group probe — keys are read from the rows, never extracted.
    key_progs: Vec<KeyProg>,
    /// One entry per aggregate spec: `None` for `count(*)`.
    agg_cols: Vec<Option<usize>>,
    /// Deduplicated union of every predicate and aggregate column.
    wanted: Vec<usize>,
    /// Row width (binding count) — sizes the per-batch column table.
    width: usize,
}

impl ColumnarFold {
    pub(crate) fn try_new(
        preds: &[ResidualPred],
        keys: &[KeyProg],
        args: &[AggArg],
        width: usize,
    ) -> Option<ColumnarFold> {
        let mut pred_cols = Vec::with_capacity(preds.len());
        for p in preds {
            match p {
                ResidualPred::FastCmp { col, .. } => pred_cols.push(*col),
                _ => return None,
            }
        }
        let mut key_progs = Vec::with_capacity(keys.len());
        for k in keys {
            match k {
                KeyProg::Col(c) => key_progs.push(KeyProg::Col(*c)),
                KeyProg::Expr { .. } => return None,
            }
        }
        let mut agg_cols = Vec::with_capacity(args.len());
        for a in args {
            match a {
                AggArg::None => agg_cols.push(None),
                AggArg::Col(c) => agg_cols.push(Some(*c)),
                AggArg::Expr(_) => return None,
            }
        }
        let mut wanted: Vec<usize> = pred_cols
            .iter()
            .chain(agg_cols.iter().flatten())
            .copied()
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        Some(ColumnarFold {
            pred_cols,
            key_progs,
            agg_cols,
            wanted,
            width,
        })
    }

    /// Folds one batch vectorized. Returns `Ok(Some(cpu))` with the
    /// batch's `cpu_tuple_ops` total on success, `Ok(None)` when the batch
    /// is ineligible (a predicate column extracted mixed-typed or a float
    /// predicate column contains NaN) and the caller must run the scalar
    /// loop instead — the decline happens before any group state or
    /// counter is touched, so falling back is free of side effects.
    pub(crate) fn fold(
        &self,
        batch: &[&Row],
        preds: &[ResidualPred],
        specs: &[AggSpec],
        groups: &mut GroupTable,
    ) -> EngineResult<Option<u64>> {
        let cb = ColumnBatch::extract(batch, &self.wanted, self.width);
        for &pc in &self.pred_cols {
            let c = cb.col(pc);
            match &c.data {
                // Mixed-type columns have per-row comparability; NaN makes
                // a float comparison a per-row type error. Either would
                // change which error surfaces first — scalar loop decides.
                ColumnVec::Val(_) => return Ok(None),
                ColumnVec::Float(_) if c.has_nan => return Ok(None),
                _ => {}
            }
        }

        let mut cpu = 0u64;
        let mut sel: Sel = (0..cb.len() as u32).collect();
        let mut next: Sel = Vec::with_capacity(cb.len());
        for (pred, &pc) in preds.iter().zip(&self.pred_cols) {
            let ResidualPred::FastCmp { op, lit, .. } = pred else {
                unreachable!("try_new only accepts FastCmp predicates");
            };
            // One charge per row this predicate evaluates — the rows
            // surviving every earlier predicate, same as the scalar
            // short-circuit.
            cpu += sel.len() as u64;
            next.clear();
            filter_fastcmp(cb.col(pc), *op, lit, &sel, &mut next)?;
            std::mem::swap(&mut sel, &mut next);
            if sel.is_empty() {
                break; // later predicates see no rows: zero charges either way
            }
        }

        // The per-survivor aggregation-update charge the scalar loop adds.
        cpu += sel.len() as u64;
        let agg_cols: Vec<Option<&Column>> =
            self.agg_cols.iter().map(|c| c.map(|c| cb.col(c))).collect();
        for &i in &sel {
            let i = i as usize;
            let row = batch[i];
            // The scalar probe, verbatim: key cells are read positionally
            // from the row (no scratch is needed — every key program is a
            // column read), cloned only when a new group is inserted.
            let state = groups.find_or_insert(&self.key_progs, row, &[], || GroupState {
                rep_row: row.to_vec(),
                accs: specs.iter().map(Acc::new).collect(),
            });
            for (arg, acc) in agg_cols.iter().zip(state.accs.iter_mut()) {
                update_acc_cell(acc, *arg, i)?;
            }
        }
        Ok(Some(cpu))
    }
}

/// One `col <op> lit` predicate over the batch: appends the indices from
/// `sel` whose cell satisfies the comparison to `out`. Semantics mirror
/// the scalar `FastCmp` arm of `keep_row_charged` exactly: a NULL cell or
/// NULL literal makes the row fail without error; non-NULL incomparable
/// operands raise the same `cannot compare` type error, at the first
/// selected valid row (comparability is uniform per typed column — the
/// caller already excluded mixed and NaN-bearing columns).
fn filter_fastcmp(
    col: &Column,
    op: BinOp,
    lit: &Value,
    sel: &[u32],
    out: &mut Sel,
) -> EngineResult<()> {
    if lit.is_null() {
        return Ok(()); // NULL comparison result is never true
    }
    let incomparable = |i: usize| -> EngineError {
        EngineError::TypeError(format!("cannot compare {} with {lit}", col.value_at(i)))
    };
    match (&col.data, lit) {
        (ColumnVec::Int(v), Value::Int(b)) => {
            for &i in sel {
                let i = i as usize;
                if col.validity.is_valid(i) && cmp_matches(op, v[i].cmp(b)) {
                    out.push(i as u32);
                }
            }
        }
        (ColumnVec::Int(v), Value::Float(b)) => {
            for &i in sel {
                let i = i as usize;
                if !col.validity.is_valid(i) {
                    continue;
                }
                match (v[i] as f64).partial_cmp(b) {
                    Some(ord) => {
                        if cmp_matches(op, ord) {
                            out.push(i as u32);
                        }
                    }
                    None => return Err(incomparable(i)), // NaN literal
                }
            }
        }
        (ColumnVec::Float(v), Value::Int(b)) => {
            let bf = *b as f64;
            for &i in sel {
                let i = i as usize;
                if !col.validity.is_valid(i) {
                    continue;
                }
                match v[i].partial_cmp(&bf) {
                    Some(ord) => {
                        if cmp_matches(op, ord) {
                            out.push(i as u32);
                        }
                    }
                    None => return Err(incomparable(i)),
                }
            }
        }
        (ColumnVec::Float(v), Value::Float(b)) => {
            for &i in sel {
                let i = i as usize;
                if !col.validity.is_valid(i) {
                    continue;
                }
                match v[i].partial_cmp(b) {
                    Some(ord) => {
                        if cmp_matches(op, ord) {
                            out.push(i as u32);
                        }
                    }
                    None => return Err(incomparable(i)), // NaN literal
                }
            }
        }
        (ColumnVec::Str { .. }, Value::Str(s)) => {
            for &i in sel {
                let i = i as usize;
                if col.validity.is_valid(i) && cmp_matches(op, col.data.str_at(i).cmp(s.as_str())) {
                    out.push(i as u32);
                }
            }
        }
        (ColumnVec::Date(v), Value::Date(d)) => {
            for &i in sel {
                let i = i as usize;
                if col.validity.is_valid(i) && cmp_matches(op, v[i].cmp(&d.0)) {
                    out.push(i as u32);
                }
            }
        }
        // Typed column vs a literal outside its comparability class
        // (e.g. Int column vs Str literal): sql_cmp is None for every
        // non-NULL cell, so the first selected valid row errors.
        _ => {
            for &i in sel {
                let i = i as usize;
                if col.validity.is_valid(i) {
                    return Err(incomparable(i));
                }
            }
        }
    }
    Ok(())
}

/// `cell sql_cmp cur == Some(order)`, for min/max replacement. `None`
/// comparisons (NaN, cross-class) never replace, exactly like
/// [`Acc::update`]'s strict-inequality rule.
fn cell_sql_is(col: &Column, i: usize, cur: &Value, order: std::cmp::Ordering) -> bool {
    let ord = match (&col.data, cur) {
        (ColumnVec::Int(v), Value::Int(b)) => Some(v[i].cmp(b)),
        (ColumnVec::Int(v), Value::Float(b)) => (v[i] as f64).partial_cmp(b),
        (ColumnVec::Float(v), Value::Int(b)) => v[i].partial_cmp(&(*b as f64)),
        (ColumnVec::Float(v), Value::Float(b)) => v[i].partial_cmp(b),
        (ColumnVec::Str { .. }, Value::Str(s)) => Some(col.data.str_at(i).cmp(s.as_str())),
        (ColumnVec::Date(v), Value::Date(d)) => Some(v[i].cmp(&d.0)),
        (ColumnVec::Val(v), c) => v[i].sql_cmp(c),
        _ => None,
    };
    ord == Some(order)
}

/// One aggregate update from a column cell, value- and error-identical to
/// `acc.update(arg-value)` in the scalar loop but without boxing the cell
/// for the hot numeric accumulators. DISTINCT accumulators and exotic
/// cases materialize the cell and take the boxed path — correctness over
/// speed off the hot path.
fn update_acc_cell(acc: &mut Acc, col: Option<&Column>, i: usize) -> EngineResult<()> {
    let Some(col) = col else {
        return acc.update(None); // count(*): unconditional increment
    };
    if !col.validity.is_valid(i) {
        // NULL argument: every accumulator ignores it except count(*),
        // which has no argument column and was handled above.
        if let Acc::CountStar(n) = acc {
            *n += 1;
        }
        return Ok(());
    }
    match acc {
        Acc::CountStar(n) => *n += 1,
        Acc::Count { n, distinct } => {
            if let Some(set) = distinct {
                if !set.insert(col.value_at(i).hash_key()) {
                    return Ok(());
                }
            }
            *n += 1;
        }
        Acc::Sum {
            int,
            float,
            any_float,
            n,
            distinct,
        } => {
            if let Some(set) = distinct {
                if !set.insert(col.value_at(i).hash_key()) {
                    return Ok(());
                }
            }
            match &col.data {
                ColumnVec::Int(v) => {
                    *int = int.wrapping_add(v[i]);
                    *float += v[i] as f64;
                }
                ColumnVec::Float(v) => {
                    *any_float = true;
                    *float += v[i];
                }
                ColumnVec::Val(v) => match &v[i] {
                    Value::Int(x) => {
                        *int = int.wrapping_add(*x);
                        *float += *x as f64;
                    }
                    Value::Float(x) => {
                        *any_float = true;
                        *float += x;
                    }
                    other => return Err(EngineError::TypeError(format!("sum() over {other}"))),
                },
                _ => {
                    return Err(EngineError::TypeError(format!(
                        "sum() over {}",
                        col.value_at(i)
                    )))
                }
            }
            *n += 1;
        }
        Acc::Avg { sum, n, distinct } => {
            if let Some(set) = distinct {
                if !set.insert(col.value_at(i).hash_key()) {
                    return Ok(());
                }
            }
            let x = match &col.data {
                ColumnVec::Int(v) => v[i] as f64,
                ColumnVec::Float(v) => v[i],
                ColumnVec::Val(v) => match v[i].as_f64() {
                    Some(x) => x,
                    None => return Err(EngineError::TypeError(format!("avg() over {}", v[i]))),
                },
                _ => {
                    return Err(EngineError::TypeError(format!(
                        "avg() over {}",
                        col.value_at(i)
                    )))
                }
            };
            *sum += x;
            *n += 1;
        }
        Acc::Min(cur) => {
            let replace = match cur {
                None => true,
                Some(c) => cell_sql_is(col, i, c, std::cmp::Ordering::Less),
            };
            if replace {
                *cur = Some(col.value_at(i));
            }
        }
        Acc::Max(cur) => {
            let replace = match cur {
                None => true,
                Some(c) => cell_sql_is(col, i, c, std::cmp::Ordering::Greater),
            };
            if replace {
                *cur = Some(col.value_at(i));
            }
        }
    }
    Ok(())
}
