//! Expression evaluation with SQL three-valued logic and subquery support.
//!
//! Evaluation happens against a stack of [`Frame`]s: the innermost frame is
//! the current tuple; outer frames belong to enclosing queries, which is how
//! correlated subqueries (TPC-H Q4's `EXISTS`, Q21's `EXISTS`/`NOT EXISTS`)
//! resolve their outer references.
//!
//! `EXISTS` over a single table is executed with a semi-join optimization:
//! if the subquery has an equality conjunct between an indexed inner column
//! and an expression computable from the outer frames, the evaluator probes
//! the index instead of scanning — the same plan PostgreSQL picks for these
//! queries, and essential for Q21 (three lineitem references) to finish.
//! The probe is three shared steps — [`exists_probe_candidates`],
//! [`choose_probe`], [`exists_search`] — which the physical operators also
//! run, with pre-resolved programs instead of frames, for the correlated
//! `EXISTS` conjuncts they can compile (`physical::compile`'s
//! `ExistsProbe`). Frame evaluation here serves what stays uncompiled:
//! other subqueries, and `EXISTS` under enclosing scopes or with names
//! that do not pre-resolve.
//!
//! Below the framed evaluator sits [`CompiledExpr`]: expressions with
//! every column pre-resolved to a row position, evaluated by reference.

use apuama_sql::ast::{BinOp, ColumnRef, Expr, Select, TableRef, UnaryOp};
use apuama_sql::value::HashableValue;
use apuama_sql::Value;
use std::cmp::Ordering;
use std::collections::HashSet;

use apuama_storage::OrderedIndex;

use crate::error::{EngineError, EngineResult};
use crate::exec::{self, Binding, ExecContext};
use crate::table::Table;

/// One scope level: the bindings describing a tuple's columns plus the
/// tuple itself.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    pub bindings: &'a [Binding],
    pub row: &'a [Value],
}

/// Resolves a column reference against a frame stack (innermost first).
pub fn resolve_in_frames(frames: &[Frame<'_>], col: &ColumnRef) -> EngineResult<(usize, usize)> {
    for (fi, frame) in frames.iter().enumerate() {
        match exec::resolve_column(frame.bindings, col) {
            Ok(ci) => return Ok((fi, ci)),
            Err(EngineError::AmbiguousColumn(c)) => return Err(EngineError::AmbiguousColumn(c)),
            Err(_) => continue,
        }
    }
    Err(EngineError::UnknownColumn(format!("{col}")))
}

/// Evaluates an expression. `frames[0]` is the innermost scope.
pub fn eval_expr(expr: &Expr, frames: &[Frame<'_>], ctx: &ExecContext<'_>) -> EngineResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Parameter(n) => ctx.param(*n),
        Expr::Column(c) => {
            let (fi, ci) = resolve_in_frames(frames, c)?;
            Ok(frames[fi].row[ci].clone())
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, frames, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(EngineError::TypeError(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match truthiness(&v) {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, frames, ctx),
        Expr::Function { name, args, .. } => eval_scalar_function(name, args, frames, ctx),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if truthiness(&eval_expr(cond, frames, ctx)?) == Some(true) {
                    return eval_expr(result, frames, ctx);
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, frames, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            let lo = eval_expr(low, frames, ctx)?;
            let hi = eval_expr(high, frames, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != Ordering::Greater);
            let within = and3(ge, le);
            Ok(bool3(if *negated { not3(within) } else { within }))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_expr(item, frames, ctx)?;
                match compare(&v, &w) {
                    None => saw_null = true,
                    Some(Ordering::Equal) => {
                        return Ok(Value::Bool(!negated));
                    }
                    Some(_) => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let (set, saw_null) = subquery_value_set(query, frames, ctx)?;
            if set.contains(&v.hash_key()) {
                Ok(Value::Bool(!negated))
            } else if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Exists { negated, query } => {
            let found = eval_exists(query, frames, ctx)?;
            Ok(Value::Bool(found != *negated))
        }
        Expr::ScalarSubquery(query) => {
            let rel = exec::run_select(query, frames, ctx)?;
            match rel.rows.len() {
                0 => Ok(Value::Null),
                1 => {
                    let row = &rel.rows[0];
                    if row.len() != 1 {
                        return Err(EngineError::TypeError(
                            "scalar subquery must return one column".into(),
                        ));
                    }
                    Ok(row[0].clone())
                }
                _ => Err(EngineError::TypeError(
                    "scalar subquery returned more than one row".into(),
                )),
            }
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            let p = eval_expr(pattern, frames, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let m = like_match(&s, &pat);
                    Ok(Value::Bool(m != *negated))
                }
                (a, b) => Err(EngineError::TypeError(format!(
                    "LIKE needs strings, got {a} and {b}"
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, frames, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn eval_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    eval_binary_with(
        op,
        || eval_expr(left, frames, ctx),
        || eval_expr(right, frames, ctx),
    )
}

/// Binary-operator semantics parameterized over operand evaluation, so the
/// interpreted evaluator and compiled programs share one implementation
/// (including AND/OR short-circuiting, which is why operands arrive lazily).
pub(crate) fn eval_binary_with(
    op: BinOp,
    mut left: impl FnMut() -> EngineResult<Value>,
    mut right: impl FnMut() -> EngineResult<Value>,
) -> EngineResult<Value> {
    // AND/OR get short-circuit three-valued logic.
    if op == BinOp::And {
        let l = truthiness(&left()?);
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truthiness(&right()?);
        return Ok(bool3(and3(l, r)));
    }
    if op == BinOp::Or {
        let l = truthiness(&left()?);
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truthiness(&right()?);
        return Ok(bool3(or3(l, r)));
    }
    let l = left()?;
    let r = right()?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let Some(ord) = compare(&l, &r) else {
            return Err(EngineError::TypeError(format!(
                "cannot compare {l} with {r}"
            )));
        };
        let b = match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    arith(l, op, r)
}

/// Numeric / date arithmetic.
fn arith(l: Value, op: BinOp, r: Value) -> EngineResult<Value> {
    use Value::*;
    match (l, op, r) {
        // Date ± interval.
        (Date(d), BinOp::Add, Interval(iv)) | (Interval(iv), BinOp::Add, Date(d)) => {
            Ok(Date(d.add_interval(iv)))
        }
        (Date(d), BinOp::Sub, Interval(iv)) => Ok(Date(d.add_interval(iv.negate()))),
        // Integer arithmetic stays exact.
        (Int(a), BinOp::Add, Int(b)) => Ok(Int(a.wrapping_add(b))),
        (Int(a), BinOp::Sub, Int(b)) => Ok(Int(a.wrapping_sub(b))),
        (Int(a), BinOp::Mul, Int(b)) => Ok(Int(a.wrapping_mul(b))),
        (Int(a), BinOp::Div, Int(b)) => {
            if b == 0 {
                Ok(Null)
            } else {
                Ok(Int(a / b))
            }
        }
        // Mixed / float arithmetic widens to f64.
        (a, op2, b) => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(EngineError::TypeError(format!(
                    "bad operands for {}: {a}, {b}",
                    op2.symbol()
                )));
            };
            let v = match op2 {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Ok(Null);
                    }
                    x / y
                }
                _ => unreachable!("comparisons handled earlier"),
            };
            Ok(Float(v))
        }
    }
}

/// Scalar (non-aggregate) functions available in expressions. Aggregates
/// reaching this point mean the planner misclassified the query.
fn eval_scalar_function(
    name: &str,
    args: &[Expr],
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    eval_scalar_function_with(name, args.len(), |i| eval_expr(&args[i], frames, ctx))
}

/// Scalar-function semantics parameterized over argument evaluation (lazy,
/// so `coalesce` keeps its short-circuit), shared by the interpreted
/// evaluator and compiled programs.
pub(crate) fn eval_scalar_function_with(
    name: &str,
    n_args: usize,
    mut arg: impl FnMut(usize) -> EngineResult<Value>,
) -> EngineResult<Value> {
    match name {
        "extract_year" | "year" => {
            let v = arg(0)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Date(d) => Ok(Value::Int(d.year() as i64)),
                other => Err(EngineError::TypeError(format!("year() on {other}"))),
            }
        }
        "substring" | "substr" => {
            // substring(s, start, len) with 1-based start, SQL style.
            if n_args != 3 {
                return Err(EngineError::TypeError("substring needs 3 args".into()));
            }
            let s = arg(0)?;
            let start = arg(1)?;
            let len = arg(2)?;
            match (s, start, len) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Str(s), Value::Int(st), Value::Int(ln)) => {
                    let st = (st.max(1) - 1) as usize;
                    let ln = ln.max(0) as usize;
                    Ok(Value::Str(s.chars().skip(st).take(ln).collect()))
                }
                _ => Err(EngineError::TypeError("bad substring args".into())),
            }
        }
        "abs" => {
            let v = arg(0)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => Err(EngineError::TypeError(format!("abs() on {other}"))),
            }
        }
        "coalesce" => {
            for i in 0..n_args {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        agg if apuama_sql::ast::is_aggregate_name(agg) => Err(EngineError::TypeError(format!(
            "aggregate {agg}() used outside aggregation context"
        ))),
        other => Err(EngineError::Unsupported(format!("function {other}()"))),
    }
}

/// SQL LIKE matcher (`%` = any run, `_` = any single char); iterative
/// two-pointer algorithm, O(n·m) worst case, no allocation.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// SQL truthiness: NULL ⇒ None, Bool(b) ⇒ Some(b); anything else is a type
/// error in strict SQL but we treat non-null non-bool as an error upstream —
/// here we map it to false to keep predicates total (this never fires on
/// well-typed queries).
pub fn truthiness(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        _ => Some(false),
    }
}

pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

pub(crate) fn bool3(a: Option<bool>) -> Value {
    match a {
        None => Value::Null,
        Some(b) => Value::Bool(b),
    }
}

/// Comparison used by predicates (NULL ⇒ None).
pub fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    a.sql_cmp(b)
}

// ---------------------------------------------------------------------------
// Subquery execution
// ---------------------------------------------------------------------------

/// Executes an IN-subquery and collects its (single) output column into a
/// hash set, noting whether any NULL appeared (SQL's NOT IN trap).
fn subquery_value_set(
    query: &Select,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<(HashSet<HashableValue>, bool)> {
    let rel = exec::run_select(query, frames, ctx)?;
    let mut set = HashSet::with_capacity(rel.rows.len());
    let mut saw_null = false;
    for row in &rel.rows {
        if row.len() != 1 {
            return Err(EngineError::TypeError(
                "IN subquery must return one column".into(),
            ));
        }
        if row[0].is_null() {
            saw_null = true;
        } else {
            set.insert(row[0].hash_key());
        }
    }
    Ok((set, saw_null))
}

/// Evaluates `EXISTS (subquery)` for the current frame stack.
///
/// Only the subquery's FROM and WHERE matter: its select list, grouping
/// and LIMIT do not change whether a qualifying row exists (the
/// single-table path ignores them). Single-table subqueries run through
/// [`exists_probe_candidates`], [`choose_probe`] and [`exists_search`] —
/// the same three steps the compiled probe (`physical::compile`'s
/// `ExistsProbe`) runs with pre-resolved programs — with the predicate
/// checked per candidate against a frame stack.
fn eval_exists(query: &Select, frames: &[Frame<'_>], ctx: &ExecContext<'_>) -> EngineResult<bool> {
    // General shapes (joins, derived tables) fall back to full execution.
    let [TableRef::Table { name, alias }] = query.from.as_slice() else {
        let rel = exec::run_select(query, frames, ctx)?;
        return Ok(!rel.rows.is_empty());
    };
    let table = ctx
        .db
        .table(name)
        .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
    let bindings = exec::bindings_for_table(&table.schema, alias.as_deref());
    let candidates = exists_probe_candidates(query.selection.as_ref(), &bindings, table);
    let probe = choose_probe(&candidates, |key| eval_expr(key, frames, ctx));
    exists_search(table, probe, ctx, |row| {
        let Some(pred) = &query.selection else {
            return Ok(true);
        };
        let mut stack: Vec<Frame<'_>> = Vec::with_capacity(frames.len() + 1);
        stack.push(Frame {
            bindings: &bindings,
            row,
        });
        stack.extend_from_slice(frames);
        Ok(truthiness(&eval_expr(pred, &stack, ctx)?) == Some(true))
    })
}

/// The index-probe candidates of a single-table `EXISTS`, in conjunct
/// order: for every top-level `a = b` conjunct, each side that is a
/// column of the inner table carrying an index, paired with the opposite
/// side — the probe key, which must be computable from the outer scopes.
pub(crate) fn exists_probe_candidates<'q, 't>(
    pred: Option<&'q Expr>,
    bindings: &[Binding],
    table: &'t Table,
) -> Vec<(&'t OrderedIndex, &'q Expr)> {
    fn go<'q, 't>(
        e: &'q Expr,
        bindings: &[Binding],
        table: &'t Table,
        out: &mut Vec<(&'t OrderedIndex, &'q Expr)>,
    ) {
        let Expr::Binary { left, op, right } = e else {
            return;
        };
        match op {
            BinOp::And => {
                go(left, bindings, table, out);
                go(right, bindings, table, out);
            }
            BinOp::Eq => {
                for (a, b) in [(left, right), (right, left)] {
                    let Expr::Column(col) = a.as_ref() else {
                        continue;
                    };
                    let Ok(ci) = exec::resolve_column(bindings, col) else {
                        continue;
                    };
                    if let Some(idx) = table.index_on(ci) {
                        out.push((idx, b.as_ref()));
                    }
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    if let Some(p) = pred {
        go(p, bindings, table, &mut out);
    }
    out
}

/// Picks the probe for one outer row: the first candidate whose key
/// evaluates without error. A key that fails — typically one mentioning
/// the inner table, which the outer scopes cannot resolve — is skipped;
/// when none evaluates, the search scans the heap instead.
pub(crate) fn choose_probe<'t, K>(
    candidates: &[(&'t OrderedIndex, K)],
    mut eval_key: impl FnMut(&K) -> EngineResult<Value>,
) -> Option<(&'t OrderedIndex, Value)> {
    candidates
        .iter()
        .find_map(|(idx, key)| eval_key(key).ok().map(|v| (*idx, v)))
}

/// The `EXISTS` search loop: with a probe, one index probe and a random
/// row fetch per visited posting; without, a sequential heap scan. Stops
/// at the first row `matches` accepts.
pub(crate) fn exists_search(
    table: &Table,
    probe: Option<(&OrderedIndex, Value)>,
    ctx: &ExecContext<'_>,
    mut matches: impl FnMut(&[Value]) -> EngineResult<bool>,
) -> EngineResult<bool> {
    if let Some((idx, key)) = probe {
        ctx.bump_index_probes(1);
        for &rid in idx.get(&key) {
            let Some(row) = table.heap.get(rid) else {
                continue;
            };
            ctx.charge_row_fetch(table, rid);
            if matches(row)? {
                return Ok(true);
            }
        }
        return Ok(false);
    }
    let mut last_page = u64::MAX;
    for (rid, row) in table.heap.iter() {
        let page = table.heap.geometry().page_of(rid);
        if page != last_page {
            ctx.charge_page(
                table.schema.id,
                page,
                apuama_storage::AccessKind::Sequential,
            );
            last_page = page;
        }
        ctx.bump_rows_scanned(1);
        if matches(row)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Splits an optional predicate into its top-level AND conjuncts.
pub fn split_conjuncts(pred: Option<&Expr>) -> Vec<Expr> {
    let mut out = Vec::new();
    fn go(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            go(left, out);
            go(right, out);
        } else {
            out.push(e.clone());
        }
    }
    if let Some(p) = pred {
        go(p, &mut out);
    }
    out
}

/// Rebuilds a predicate from conjuncts (inverse of [`split_conjuncts`]).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(Expr::and)
}

// ---------------------------------------------------------------------------
// Pre-resolved (compiled) expressions
// ---------------------------------------------------------------------------

/// An expression with every column reference pre-resolved to a positional
/// index into one relation's row — the batch-friendly form every physical
/// operator prefers: no name resolution per row, no [`Frame`] stacks, rows
/// evaluated by reference. Subquery forms are unrepresentable: compilation
/// rejects them, and the operator falls back to framed [`eval_expr`].
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    Col(usize),
    Lit(Value),
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    Binary {
        left: Box<CompiledExpr>,
        op: BinOp,
        right: Box<CompiledExpr>,
    },
    Func {
        name: String,
        args: Vec<CompiledExpr>,
    },
    Case {
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    Between {
        expr: Box<CompiledExpr>,
        negated: bool,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
    },
    InList {
        expr: Box<CompiledExpr>,
        negated: bool,
        list: Vec<CompiledExpr>,
    },
    Like {
        expr: Box<CompiledExpr>,
        negated: bool,
        pattern: Box<CompiledExpr>,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
}

/// Resolves columns and checks for supported node types; `None` means the
/// expression cannot be pre-resolved (subqueries, aggregate calls, columns
/// not found in `bindings` — e.g. correlated references to outer scopes)
/// and must be evaluated with frames. Compilation succeeding guarantees
/// [`eval_compiled`] agrees with [`eval_expr`] bit for bit: every column
/// resolves in the innermost frame, which is exactly the frame-stack
/// resolution order.
pub(crate) fn compile_expr(e: &Expr, bindings: &[Binding]) -> Option<CompiledExpr> {
    compile_expr_with(e, &|c| exec::resolve_column(bindings, c).ok())
}

/// [`compile_expr`] with a caller-supplied column resolver, so a program
/// can span more than one scope (the correlated `EXISTS` probe resolves
/// inner columns first, then the outer row's, in frame order).
pub(crate) fn compile_expr_with(
    e: &Expr,
    resolve: &impl Fn(&ColumnRef) -> Option<usize>,
) -> Option<CompiledExpr> {
    let sub = |x: &Expr| compile_expr_with(x, resolve);
    let boxed = |x: &Expr| sub(x).map(Box::new);
    Some(match e {
        Expr::Column(c) => CompiledExpr::Col(resolve(c)?),
        Expr::Literal(v) => CompiledExpr::Lit(v.clone()),
        Expr::Parameter(n) => CompiledExpr::Param(*n),
        Expr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: boxed(expr)?,
        },
        Expr::Binary { left, op, right } => CompiledExpr::Binary {
            left: boxed(left)?,
            op: *op,
            right: boxed(right)?,
        },
        Expr::Function {
            name,
            args,
            distinct: false,
            star: false,
        } if !apuama_sql::ast::is_aggregate_name(name) => CompiledExpr::Func {
            name: name.clone(),
            args: args.iter().map(sub).collect::<Option<Vec<_>>>()?,
        },
        Expr::Case {
            branches,
            else_expr,
        } => CompiledExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Some((sub(c)?, sub(r)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(x) => Some(boxed(x)?),
                None => None,
            },
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => CompiledExpr::Between {
            expr: boxed(expr)?,
            negated: *negated,
            low: boxed(low)?,
            high: boxed(high)?,
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => CompiledExpr::InList {
            expr: boxed(expr)?,
            negated: *negated,
            list: list.iter().map(sub).collect::<Option<Vec<_>>>()?,
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => CompiledExpr::Like {
            expr: boxed(expr)?,
            negated: *negated,
            pattern: boxed(pattern)?,
        },
        Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: boxed(expr)?,
            negated: *negated,
        },
        // Subqueries, DISTINCT/star aggregates in scalar position, and
        // anything else falls back to framed evaluation.
        _ => return None,
    })
}

/// Folds bound parameter references into literals, once per execution, so
/// per-row evaluation never goes through `ExecContext::param`'s lookup and
/// clone. Parameters that are *not* bound are left in place: the
/// unbound-parameter error keeps surfacing lazily, on the first row that
/// actually evaluates it, exactly like the unprebound program.
pub(crate) fn prebind_params(e: &CompiledExpr, ctx: &ExecContext<'_>) -> CompiledExpr {
    map_leaves(e, &|leaf| match leaf {
        CompiledExpr::Param(n) => ctx.param(*n).ok().map(CompiledExpr::Lit),
        _ => None,
    })
}

/// Folds the outer row into a program compiled over `inner ++ outer`
/// columns: every `Col(i)` with `i >= n_inner` becomes the literal
/// `outer[i - n_inner]`, leaving a program over the inner row alone.
pub(crate) fn bind_outer(e: &CompiledExpr, n_inner: usize, outer: &[Value]) -> CompiledExpr {
    map_leaves(e, &|leaf| match leaf {
        CompiledExpr::Col(i) if *i >= n_inner => {
            Some(CompiledExpr::Lit(outer[*i - n_inner].clone()))
        }
        _ => None,
    })
}

/// Copies a program, replacing each leaf (`Col`, `Lit`, `Param`) for which
/// `leaf` returns a substitute.
fn map_leaves(
    e: &CompiledExpr,
    leaf: &impl Fn(&CompiledExpr) -> Option<CompiledExpr>,
) -> CompiledExpr {
    let map = |x: &CompiledExpr| map_leaves(x, leaf);
    let bind = |x: &CompiledExpr| Box::new(map(x));
    match e {
        CompiledExpr::Col(_) | CompiledExpr::Lit(_) | CompiledExpr::Param(_) => {
            leaf(e).unwrap_or_else(|| e.clone())
        }
        CompiledExpr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: bind(expr),
        },
        CompiledExpr::Binary { left, op, right } => CompiledExpr::Binary {
            left: bind(left),
            op: *op,
            right: bind(right),
        },
        CompiledExpr::Func { name, args } => CompiledExpr::Func {
            name: name.clone(),
            args: args.iter().map(map).collect(),
        },
        CompiledExpr::Case {
            branches,
            else_expr,
        } => CompiledExpr::Case {
            branches: branches.iter().map(|(c, r)| (map(c), map(r))).collect(),
            else_expr: else_expr.as_ref().map(|x| bind(x)),
        },
        CompiledExpr::Between {
            expr,
            negated,
            low,
            high,
        } => CompiledExpr::Between {
            expr: bind(expr),
            negated: *negated,
            low: bind(low),
            high: bind(high),
        },
        CompiledExpr::InList {
            expr,
            negated,
            list,
        } => CompiledExpr::InList {
            expr: bind(expr),
            negated: *negated,
            list: list.iter().map(map).collect(),
        },
        CompiledExpr::Like {
            expr,
            negated,
            pattern,
        } => CompiledExpr::Like {
            expr: bind(expr),
            negated: *negated,
            pattern: bind(pattern),
        },
        CompiledExpr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: bind(expr),
            negated: *negated,
        },
    }
}

/// Evaluates a compiled expression against a borrowed row. Semantics are
/// shared with the framed evaluator through [`eval_binary_with`],
/// [`eval_scalar_function_with`], and the three-valued-logic helpers.
pub(crate) fn eval_compiled(
    e: &CompiledExpr,
    row: &[Value],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    match e {
        CompiledExpr::Col(i) => Ok(row[*i].clone()),
        CompiledExpr::Lit(v) => Ok(v.clone()),
        CompiledExpr::Param(n) => ctx.param(*n),
        CompiledExpr::Unary { op, expr } => {
            let v = eval_compiled(expr, row, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(EngineError::TypeError(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match truthiness(&v) {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        CompiledExpr::Binary { left, op, right } => eval_binary_with(
            *op,
            || eval_compiled(left, row, ctx),
            || eval_compiled(right, row, ctx),
        ),
        CompiledExpr::Func { name, args } => {
            eval_scalar_function_with(name, args.len(), |i| eval_compiled(&args[i], row, ctx))
        }
        CompiledExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if truthiness(&eval_compiled(cond, row, ctx)?) == Some(true) {
                    return eval_compiled(result, row, ctx);
                }
            }
            match else_expr {
                Some(x) => eval_compiled(x, row, ctx),
                None => Ok(Value::Null),
            }
        }
        CompiledExpr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            let lo = eval_compiled(low, row, ctx)?;
            let hi = eval_compiled(high, row, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != Ordering::Greater);
            let within = and3(ge, le);
            Ok(bool3(if *negated { not3(within) } else { within }))
        }
        CompiledExpr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_compiled(item, row, ctx)?;
                match compare(&v, &w) {
                    None => saw_null = true,
                    Some(Ordering::Equal) => {
                        return Ok(Value::Bool(!negated));
                    }
                    Some(_) => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        CompiledExpr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            let p = eval_compiled(pattern, row, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let m = like_match(&s, &pat);
                    Ok(Value::Bool(m != *negated))
                }
                (a, b) => Err(EngineError::TypeError(format!(
                    "LIKE needs strings, got {a} and {b}"
                ))),
            }
        }
        CompiledExpr::IsNull { expr, negated } => {
            let v = eval_compiled(expr, row, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matcher_cases() {
        assert!(like_match("PROMO BRUSHED", "PROMO%"));
        assert!(!like_match("STANDARD", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abbc", "a_c"));
        assert!(like_match("anything", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("x%y", "x%y"));
        assert!(like_match("special requests", "%special%requests%"));
    }

    #[test]
    fn three_valued_logic_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(not3(None), None);
    }

    #[test]
    fn conjunct_splitting_roundtrip() {
        let e = apuama_sql::parse_expression("a = 1 and b = 2 and c = 3").unwrap();
        let parts = split_conjuncts(Some(&e));
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        assert_eq!(back.to_string(), "(((a = 1) and (b = 2)) and (c = 3))");
    }

    #[test]
    fn or_is_not_split() {
        let e = apuama_sql::parse_expression("a = 1 or b = 2").unwrap();
        assert_eq!(split_conjuncts(Some(&e)).len(), 1);
    }
}
