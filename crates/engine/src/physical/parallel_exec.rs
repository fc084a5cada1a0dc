use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::time::Instant;

use parking_lot::Mutex;

use apuama_sql::ast::Expr;
use apuama_storage::{AccessKind, Row, RowId};

use crate::db::Database;
use crate::error::EngineResult;
use crate::exec::{self, Binding, ExecContext};
use crate::planner::{self, AccessPath};
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Morsels (intra-node parallelism)
// ---------------------------------------------------------------------------

/// One morsel's row source: a slice of a sequential scan's page list or a
/// slice of an index range's row-id list. Morsels tile the scan in global
/// row order — concatenating their row streams in morsel-index order
/// reproduces the serial scan exactly.
pub(crate) enum MorselInput {
    Pages(Vec<u64>),
    Rids(Vec<RowId>),
}

/// The morsel decomposition of one base-table scan, planned without
/// charging any statistics: the aggregate driving the scan applies
/// `pages_pruned` / `index_probes` itself and replays the page charges via
/// [`precharge_morsel_pages`], whether its morsels then run on the worker
/// pool or inline.
pub(crate) struct ScanMorsels<'e> {
    pub(crate) table: &'e Table,
    kind: AccessKind,
    pub(crate) morsels: Vec<MorselInput>,
    pub(crate) pages_pruned: u64,
    pub(crate) index_probes: u64,
}

/// Splits a scan into ~[`exec::SCAN_BATCH_ROWS`]-row morsels: page-aligned
/// chunks of the zone-allowed page list for sequential scans, row-id
/// slices for index ranges. Zone-map pruning is evaluated here with the
/// same predicates the serial path uses, so both modes skip — and count —
/// the same pages.
pub(crate) fn plan_scan_morsels<'e>(
    table: &'e Table,
    bindings: &[Binding],
    residual_exprs: &[&Expr],
    choice: &planner::ScanChoice,
    ctx: &ExecContext<'_>,
) -> ScanMorsels<'e> {
    match &choice.path {
        AccessPath::SeqScan => {
            let preds = zone_prune_preds(table, bindings, residual_exprs, ctx);
            let mut pages: Vec<u64> = Vec::new();
            let mut pruned = 0u64;
            for page in 0..table.heap.pages() {
                if !preds.is_empty() && zone_page_refutes(&table.heap, page, &preds) {
                    pruned += 1;
                } else {
                    pages.push(page);
                }
            }
            let rpp = table.heap.geometry().rows_per_page;
            let per = (exec::SCAN_BATCH_ROWS.div_ceil(rpp.max(1)).max(1)) as usize;
            ScanMorsels {
                table,
                kind: AccessKind::Sequential,
                morsels: pages
                    .chunks(per)
                    .map(|c| MorselInput::Pages(c.to_vec()))
                    .collect(),
                pages_pruned: pruned,
                index_probes: 0,
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
            let rids: Vec<RowId> = idx
                .range(exec::bound_ref(low), exec::bound_ref(high))
                .map(|(_, rid)| rid)
                .collect();
            ScanMorsels {
                table,
                kind: if *clustered {
                    AccessKind::Sequential
                } else {
                    AccessKind::Random
                },
                morsels: rids
                    .chunks(exec::SCAN_BATCH_ROWS as usize)
                    .map(|c| MorselInput::Rids(c.to_vec()))
                    .collect(),
                pages_pruned: 0,
                index_probes: 1,
            }
        }
    }
}

/// Replays a scan's buffer-pool traffic on the coordinator: pages are
/// touched in exactly the order and multiplicity the streaming
/// [`ScanExec`] produces — ascending page order for sequential scans,
/// row-id order for index ranges, one charge per page change, pages with
/// no live row skipped — so the LRU state and hit/miss counters after a
/// morsel-driven scan are byte-identical to the streamed ones. Morsel
/// folds never touch the pool.
pub(crate) fn precharge_morsel_pages(sm: &ScanMorsels<'_>, ctx: &ExecContext<'_>) {
    let table = sm.table;
    let rpp = table.heap.geometry().rows_per_page;
    let mut last_page = u64::MAX;
    for m in &sm.morsels {
        match m {
            MorselInput::Pages(pages) => {
                for &p in pages {
                    let live = table
                        .heap
                        .iter_range(p * rpp, (p + 1) * rpp)
                        .next()
                        .is_some();
                    if live && p != last_page {
                        ctx.charge_page(table.schema.id, p, sm.kind);
                        last_page = p;
                    }
                }
            }
            MorselInput::Rids(rids) => {
                for &rid in rids {
                    if table.heap.get(rid).is_none() {
                        continue; // dead row ids cost nothing, as in the serial path
                    }
                    let p = table.heap.geometry().page_of(rid);
                    if p != last_page {
                        ctx.charge_page(table.schema.id, p, sm.kind);
                        last_page = p;
                    }
                }
            }
        }
    }
}

/// Iterates one morsel's live rows in scan order.
pub(crate) fn morsel_rows<'a>(
    table: &'a Table,
    m: &'a MorselInput,
) -> Box<dyn Iterator<Item = &'a Row> + 'a> {
    match m {
        MorselInput::Pages(pages) => {
            let heap = &table.heap;
            let rpp = heap.geometry().rows_per_page;
            Box::new(
                pages.iter().flat_map(move |&p| {
                    heap.iter_range(p * rpp, (p + 1) * rpp).map(|(_, row)| row)
                }),
            )
        }
        MorselInput::Rids(rids) => Box::new(rids.iter().filter_map(|&rid| table.heap.get(rid))),
    }
}

/// Per-worker execution tally, recorded as an `EXPLAIN ANALYZE` child
/// probe: rows scanned, morsels processed, wall-clock nanoseconds.
pub(crate) type WorkerTally = (u64, u64, u128);

/// Marks an operator's probe node `[parallel ×N]` and registers one child
/// probe per worker under it, so `EXPLAIN ANALYZE` shows the per-worker
/// row/morsel/time breakdown.
pub(crate) fn record_worker_probes(probe: Option<(&Analyze, usize)>, tallies: &[WorkerTally]) {
    let Some((az, parent)) = probe else {
        return;
    };
    az.append_label(parent, &format!(" [parallel ×{}]", tallies.len()));
    for (w, &(rows, morsels, nanos)) in tallies.iter().enumerate() {
        let child = az.register(format!("parallel worker {w}"), Vec::new());
        az.add_child(parent, child);
        az.record(child, rows, morsels, nanos);
    }
}

/// One morsel's output and the number of rows it scanned.
pub(crate) type MorselOut<T> = EngineResult<(T, u64)>;

/// Runs `work` over morsels `0..n_morsels` on `workers` pool threads and
/// returns its outputs in morsel order. Each worker pulls morsel indices
/// from a shared atomic and runs under its own context with a child
/// [`crate::governor::QueryGovernor`] (statement cancel reaches workers)
/// and the statement's parameters; `work` returns its output and the rows
/// it scanned. Workers never touch the buffer pool or the statement's
/// stats: the caller charges both on the coordinator.
///
/// The first failure aborts the peers, and — because morsel indices are
/// claimed in increasing order and abandoned slots always sit beyond the
/// failing one — the error returned is the earliest morsel's, the one a
/// serial scan would have hit first. The per-morsel interrupt check on
/// the coordinator mirrors the serial once-per-batch cancellation cadence.
pub(crate) fn run_morsels<T: Send>(
    n_morsels: usize,
    workers: usize,
    ctx: &ExecContext<'_>,
    probe: Option<(&Analyze, usize)>,
    work: impl Fn(usize, &ExecContext<'_>) -> MorselOut<T> + Sync,
) -> EngineResult<Vec<(T, u64)>> {
    let work = &work;
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Mutex<Vec<Option<MorselOut<T>>>> =
        Mutex::new((0..n_morsels).map(|_| None).collect());
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(vec![(0, 0, 0); workers]);
    let db = ctx.db;
    let params = ctx.params_snapshot();

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    for w in 0..workers {
        let params = params.clone();
        let gov = ctx.child_governor();
        let (next, abort, results, tallies) = (&next, &abort, &results, &tallies);
        tasks.push(Box::new(move || {
            let start = Instant::now();
            let wctx = ExecContext::governed(db, params, gov);
            let (mut wrows, mut wmorsels) = (0u64, 0u64);
            loop {
                let i = next.fetch_add(1, AtomicOrd::Relaxed);
                if i >= n_morsels || abort.load(AtomicOrd::Relaxed) {
                    break;
                }
                let r = work(i, &wctx);
                match &r {
                    Ok((_, rows)) => wrows += rows,
                    Err(_) => abort.store(true, AtomicOrd::Relaxed),
                }
                wmorsels += 1;
                results.lock()[i] = Some(r);
            }
            tallies.lock()[w] = (wrows, wmorsels, start.elapsed().as_nanos());
        }));
    }
    db.worker_pool(workers).scoped_run(tasks);

    let mut out = Vec::with_capacity(n_morsels);
    for slot in results.into_inner() {
        ctx.check_interrupt()?;
        match slot {
            Some(r) => out.push(r?),
            None => unreachable!("abandoned morsel precedes the slot that aborted it"),
        }
    }
    record_worker_probes(probe, &tallies.into_inner());
    Ok(out)
}

/// Sorts an index permutation on the worker pool: each worker stable-sorts
/// one contiguous chunk, then the coordinator k-way merges the chunks. On
/// equal keys the earlier chunk wins, and within a chunk `sort_by` keeps
/// input order — since the chunks partition the (initially ascending)
/// index vector in order, the result is exactly what a stable sort of the
/// whole vector produces, so parallel and serial sorts emit identical row
/// orders.
pub(crate) fn parallel_sort_indices(
    idx: &mut Vec<usize>,
    workers: usize,
    db: &Database,
    cmp: &(dyn Fn(usize, usize) -> std::cmp::Ordering + Sync),
) {
    let n = idx.len();
    let chunk = n.div_ceil(workers).max(1);
    let pool = db.worker_pool(workers);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = idx
        .chunks_mut(chunk)
        .map(|part| {
            Box::new(move || part.sort_by(|&a, &b| cmp(a, b))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scoped_run(tasks);

    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    let mut heads: Vec<usize> = bounds.iter().map(|&(s, _)| s).collect();
    let mut merged = Vec::with_capacity(n);
    loop {
        let mut best: Option<usize> = None;
        for (c, &(_, end)) in bounds.iter().enumerate() {
            if heads[c] >= end {
                continue;
            }
            match best {
                None => best = Some(c),
                // Strict `Less` only: ties keep the earliest chunk.
                Some(b) => {
                    if cmp(idx[heads[c]], idx[heads[b]]) == std::cmp::Ordering::Less {
                        best = Some(c);
                    }
                }
            }
        }
        let Some(b) = best else { break };
        merged.push(idx[heads[b]]);
        heads[b] += 1;
    }
    *idx = merged;
}
