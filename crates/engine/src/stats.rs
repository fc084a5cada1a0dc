//! Per-statement execution statistics.
//!
//! These counters are the contract between the real execution (this crate)
//! and the simulated timing (`apuama-sim`): the engine counts *work*, the
//! simulator prices it. Buffer-pool numbers come from diffing
//! [`apuama_storage::BufferStats`] around the statement; CPU-side numbers
//! are counted by the executor.

use apuama_storage::BufferStats;

/// Everything a statement did, in hardware-neutral units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Buffer pool activity attributed to this statement.
    pub buffer: BufferStats,
    /// Tuples read out of heaps (scan output before filtering).
    pub rows_scanned: u64,
    /// Tuples flowing through CPU-bound operators (filter evaluations,
    /// hash-join build+probe, aggregation updates, sort comparisons are
    /// folded in at `n log n`).
    pub cpu_tuple_ops: u64,
    /// Rows in the statement result.
    pub rows_out: u64,
    /// Approximate bytes in the statement result (network transfer input
    /// for the cost model).
    pub bytes_out: u64,
    /// Number of index probes performed (subquery lookups, secondary-index
    /// point reads).
    pub index_probes: u64,
    /// Scan batches dispatched through the physical pipeline (full
    /// [`crate::exec::SCAN_BATCH_ROWS`]-row batches plus the final partial
    /// one per scan). Identical across execution modes and worker counts;
    /// the sim can price per-batch dispatch overhead off it.
    pub scan_batches: u64,
    /// Heap pages a sequential scan skipped outright because the page's
    /// zone map proved no row could satisfy a pushed-down comparison.
    /// Pruned pages are *not* charged to the buffer pool and their rows
    /// are not counted in `rows_scanned`.
    pub pages_pruned: u64,
}

impl ExecStats {
    /// Component-wise sum, used when one logical operation runs several
    /// statements (e.g. a refresh transaction).
    pub fn merge(&mut self, other: &ExecStats) {
        self.buffer.hits += other.buffer.hits;
        self.buffer.misses_seq += other.buffer.misses_seq;
        self.buffer.misses_rand += other.buffer.misses_rand;
        self.buffer.evictions += other.buffer.evictions;
        self.rows_scanned += other.rows_scanned;
        self.cpu_tuple_ops += other.cpu_tuple_ops;
        self.rows_out += other.rows_out;
        self.bytes_out += other.bytes_out;
        self.index_probes += other.index_probes;
        self.scan_batches += other.scan_batches;
        self.pages_pruned += other.pages_pruned;
    }
}

/// Wall-clock phase breakdown of a parallel execution: how long until the
/// first partial landed, and how long composition took after the last one.
/// All durations are measured by the orchestrator (the engine counts *work*
/// in [`ExecStats`]; phases are *time*).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    /// Dispatch (all sub-queries released) → first successful partial.
    pub first_partial_ms: f64,
    /// Always 0: composition runs once, after every partial has landed, so
    /// no composition work overlaps the sub-queries. Kept because
    /// clusterbench reads the field.
    pub compose_overlap_ms: f64,
    /// The composition call after the last partial arrived (the serial
    /// tail).
    pub compose_tail_ms: f64,
    /// Dispatch → final result, total.
    pub total_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let mut a = ExecStats {
            rows_scanned: 10,
            cpu_tuple_ops: 5,
            ..ExecStats::default()
        };
        let b = ExecStats {
            rows_scanned: 3,
            rows_out: 1,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 13);
        assert_eq!(a.cpu_tuple_ops, 5);
        assert_eq!(a.rows_out, 1);
    }

    /// Scan counters are flushed once per [`crate::exec::SCAN_BATCH_ROWS`]
    /// batch rather than once per row; totals must be exactly the row
    /// count, including the final partial batch.
    #[test]
    fn batched_scan_charges_are_exact() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, primary key (k)) clustered by (k)")
            .unwrap();
        // 2500 rows = two full 1024-row batches plus a 452-row remainder.
        let rows: Vec<Vec<Value>> = (0..2500i64).map(|i| vec![Value::Int(i)]).collect();
        d.load_table("t", rows).unwrap();
        let out = d.query("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2500));
        assert_eq!(out.stats.rows_scanned, 2500);
        // 2 full batches + 1 partial.
        assert_eq!(out.stats.scan_batches, 3);
        // An index range scans exactly the rows in range, same batching.
        d.query("set enable_seqscan = off").unwrap();
        let out = d
            .query("select count(*) as n from t where k >= 100 and k < 2100")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2000));
        assert_eq!(out.stats.rows_scanned, 2000);
        assert_eq!(out.stats.scan_batches, 2);
    }

    /// The compiled aggregate fold charges statistics per batch (or per
    /// morsel, possibly on worker threads); its totals must equal the
    /// interpreter's per-row totals (`enable_batch_exec = off`) on the same
    /// query, at every worker count and with the columnar fold on or off.
    #[test]
    fn kernel_batch_charges_equal_interpreted_totals() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, v float, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Float((i % 5) as f64)])
            .collect();
        d.load_table("t", rows).unwrap();
        let sql = "select sum(v) as s, count(*) as n from t where k >= $1 and k < $2 and v > $3";
        let params = [Value::Int(50), Value::Int(2950), Value::Float(0.5)];
        d.query("set enable_batch_exec = off").unwrap();
        let interpreted = d.query_bound(sql, &params).unwrap();
        d.query("set enable_batch_exec = on").unwrap();
        for workers in [1, 2, 4] {
            for columnar in ["on", "off"] {
                d.query(&format!("set parallel_workers = {workers}"))
                    .unwrap();
                d.query(&format!("set enable_columnar = {columnar}"))
                    .unwrap();
                let kernel = d.query_bound(sql, &params).unwrap();
                let what = format!("workers {workers}, columnar {columnar}");
                assert_eq!(kernel.rows, interpreted.rows, "{what}");
                assert_eq!(
                    kernel.stats.rows_scanned, interpreted.stats.rows_scanned,
                    "{what}"
                );
                assert_eq!(
                    kernel.stats.cpu_tuple_ops, interpreted.stats.cpu_tuple_ops,
                    "{what}"
                );
                assert_eq!(
                    kernel.stats.index_probes, interpreted.stats.index_probes,
                    "{what}"
                );
                assert_eq!(
                    kernel.stats.scan_batches, interpreted.stats.scan_batches,
                    "{what}"
                );
                assert_eq!(
                    kernel.stats.buffer.accesses(),
                    interpreted.stats.buffer.accesses(),
                    "{what}"
                );
            }
        }
    }

    /// The batch-exec fast paths accumulate cpu charges locally and flush
    /// them per batch; every counter must still equal the legacy row-at-a-
    /// time totals exactly — on a range aggregate, a grouped aggregate,
    /// and a join — for both text and bound execution.
    #[test]
    fn batch_exec_charges_equal_legacy_totals() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, v float, primary key (k)) clustered by (k)")
            .unwrap();
        d.execute("create table u (k int not null, w float, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Float((i % 5) as f64)])
            .collect();
        d.load_table("t", rows).unwrap();
        let urows: Vec<Vec<Value>> = (0..500i64)
            .map(|i| vec![Value::Int(i * 3), Value::Float(i as f64)])
            .collect();
        d.load_table("u", urows).unwrap();
        let cases: &[(&str, Vec<Value>)] = &[
            (
                "select sum(v) as s, count(*) as n from t where k >= $1 and k < $2 and v > $3",
                vec![Value::Int(50), Value::Int(2950), Value::Float(0.5)],
            ),
            (
                "select v, count(*) as n from t where k < $1 group by v order by v",
                vec![Value::Int(2000)],
            ),
            (
                "select t.v, u.w from t, u where t.k = u.k and u.w < $1 order by t.v, u.w",
                vec![Value::Float(200.0)],
            ),
        ];
        for (sql, params) in cases {
            d.query("set enable_batch_exec = on").unwrap();
            let fast = d.query_bound(sql, params).unwrap();
            d.query("set enable_batch_exec = off").unwrap();
            let legacy = d.query_bound(sql, params).unwrap();
            assert_eq!(fast.rows, legacy.rows, "{sql}");
            assert_eq!(fast.stats.rows_scanned, legacy.stats.rows_scanned, "{sql}");
            assert_eq!(
                fast.stats.cpu_tuple_ops, legacy.stats.cpu_tuple_ops,
                "{sql}"
            );
            assert_eq!(fast.stats.index_probes, legacy.stats.index_probes, "{sql}");
            assert_eq!(fast.stats.scan_batches, legacy.stats.scan_batches, "{sql}");
            assert_eq!(fast.stats.bytes_out, legacy.stats.bytes_out, "{sql}");
            assert_eq!(
                fast.stats.buffer.accesses(),
                legacy.stats.buffer.accesses(),
                "{sql}"
            );
        }
        d.query("set enable_batch_exec = on").unwrap();
    }

    /// Zone-map pruning accounting, pinned exactly: pruned pages are
    /// counted in `pages_pruned`, generate no buffer-pool access, and
    /// contribute nothing to `rows_scanned` / `scan_batches` — identically
    /// in every execution mode.
    #[test]
    fn zone_map_pruning_accounting_is_exact() {
        use apuama_sql::Value;
        use apuama_storage::PageGeometry;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, g int, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        d.load_table("t", rows).unwrap();
        // Same geometry derivation as Table::new: 8-byte header + two
        // 8-byte int columns.
        let rpp = PageGeometry::for_tuple_bytes(8 + 8 + 8).rows_per_page;
        let pages = 3000u64.div_ceil(rpp);
        assert!(pages >= 4, "need a multi-page heap for pruning to show");
        // Force the heap path: with index scans disabled the k-range stays
        // a residual FastCmp conjunct the zone maps can refute per page.
        d.query("set enable_indexscan = off").unwrap();
        let cut = 2 * rpp as i64 + 100; // mid third page
        let sql = format!("select count(*) as n from t where k >= {cut}");
        let out = d.query(&sql).unwrap();
        assert_eq!(out.rows[0][0], Value::Int(3000 - cut));
        // The first two pages hold only keys below the cut.
        assert_eq!(out.stats.pages_pruned, 2);
        assert_eq!(out.stats.buffer.accesses(), pages - 2);
        assert_eq!(out.stats.rows_scanned, 3000 - 2 * rpp);
        assert_eq!(
            out.stats.scan_batches,
            (3000 - 2 * rpp).div_ceil(crate::exec::SCAN_BATCH_ROWS)
        );
        // Every execution mode prunes the same pages and charges the same
        // counters.
        for (batch, workers) in [("off", 1), ("on", 1), ("on", 4)] {
            d.query(&format!("set enable_batch_exec = {batch}"))
                .unwrap();
            d.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            let other = d.query(&sql).unwrap();
            assert_eq!(other.rows, out.rows);
            assert_eq!(other.stats.pages_pruned, out.stats.pages_pruned);
            assert_eq!(other.stats.rows_scanned, out.stats.rows_scanned);
            assert_eq!(other.stats.cpu_tuple_ops, out.stats.cpu_tuple_ops);
            assert_eq!(other.stats.scan_batches, out.stats.scan_batches);
            assert_eq!(other.stats.buffer.accesses(), out.stats.buffer.accesses());
        }
        d.query("set enable_batch_exec = on").unwrap();
        // An unmapped column never prunes, even when every page could be
        // refuted by its values.
        let out = d.query("select count(*) as n from t where g > 6").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert_eq!(out.stats.pages_pruned, 0);
        assert_eq!(out.stats.rows_scanned, 3000);
        // Indexing g adds it to the zone maps; every page's g-range is
        // 0..=6, so `g > 6` now refutes the entire heap: nothing scanned,
        // nothing charged.
        d.execute("create index ig on t (g)").unwrap();
        let out = d.query("select count(*) as n from t where g > 6").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert_eq!(out.stats.pages_pruned, pages);
        assert_eq!(out.stats.rows_scanned, 0);
        assert_eq!(out.stats.buffer.accesses(), 0);
        assert_eq!(out.stats.scan_batches, 0);
        // ... while an in-range predicate on the same column prunes nothing.
        let out = d.query("select count(*) as n from t where g = 3").unwrap();
        assert_eq!(out.stats.pages_pruned, 0);
        assert_eq!(out.stats.rows_scanned, 3000);
    }
}
