//! Turning recorded ops and spans into named metrics.

use std::collections::{HashMap, HashSet};

use apuama_engine::{ExecStats, PlanCacheStats};

use crate::trace::{attributed_self, exclusive, Span, SvpRecord};
use crate::workload::{Class, Phase};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Linear-interpolated percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Latencies (ms) of the successful ops of one class.
pub fn latencies(phase: &Phase, class: Class) -> Vec<f64> {
    phase
        .ops
        .iter()
        .filter(|o| o.ok && o.class == class)
        .map(|o| o.latency_ms())
        .collect()
}

/// Per-class figures under the class names: OLAP, refresh writes, fact
/// lookups (SVP path) and `customer` lookups (pass-through). A class the
/// workload does not run is left out.
pub fn class_metrics(phase: &Phase) -> Vec<Metric> {
    let secs = phase.seconds.max(1e-9);
    let mut out = Vec::new();
    let olap = latencies(phase, Class::Olap);
    if !olap.is_empty() {
        // Every statement weighs the same, as in TPC-H Power: the
        // geometric mean over distinct statements of each one's median.
        let mut by_stmt: HashMap<usize, Vec<f64>> = HashMap::new();
        for o in phase.ops.iter().filter(|o| o.ok && o.class == Class::Olap) {
            by_stmt
                .entry(o.stmt.unwrap_or(usize::MAX))
                .or_default()
                .push(o.latency_ms());
        }
        let medians: Vec<f64> = by_stmt.values().map(|v| median(v)).collect();
        out.push(metric("olap_qps", "1/s", olap.len() as f64 / secs));
        out.push(metric("olap_geomean_ms", "ms", geomean(&medians)));
        out.push(metric("olap_p50_ms", "ms", median(&olap)));
        out.push(metric("olap_p90_ms", "ms", percentile(&olap, 90.0)));
    }
    let writes = latencies(phase, Class::Write);
    if !writes.is_empty() {
        out.push(metric("write_tps", "1/s", writes.len() as f64 / secs));
        out.push(metric("write_p50_ms", "ms", median(&writes)));
        out.push(metric("write_p99_ms", "ms", percentile(&writes, 99.0)));
    }
    let lookups = latencies(phase, Class::Lookup);
    if !lookups.is_empty() {
        out.push(metric("lookup_p50_ms", "ms", median(&lookups)));
        out.push(metric("lookup_p99_ms", "ms", percentile(&lookups, 99.0)));
    }
    let pass = latencies(phase, Class::Passthrough);
    if !pass.is_empty() {
        out.push(metric("passthrough_p50_ms", "ms", median(&pass)));
    }
    let failed = phase.ops.iter().filter(|o| !o.ok).count();
    out.push(metric(
        "failed_frac",
        "ratio",
        failed as f64 / phase.ops.len().max(1) as f64,
    ));
    out
}

/// Median latency per eval query (`olap.<query>.p50_ms`), OLAP ops only.
pub fn query_metrics(phase: &Phase, labels: &[String]) -> Vec<Metric> {
    let mut by_label: Vec<(String, Vec<f64>)> = Vec::new();
    for o in phase.ops.iter().filter(|o| o.ok && o.class == Class::Olap) {
        let Some(label) = o.stmt.map(|i| &labels[i]) else {
            continue;
        };
        match by_label.iter_mut().find(|(l, _)| l == label) {
            Some((_, v)) => v.push(o.latency_ms()),
            None => by_label.push((label.clone(), vec![o.latency_ms()])),
        }
    }
    by_label
        .into_iter()
        .map(|(l, v)| metric(format!("olap.{l}.p50_ms"), "ms", median(&v)))
        .collect()
}

/// Exact work counts over the first `count_ops` closed-loop ops of a
/// phase (deterministic for a single-client workload and a given seed).
pub fn count_metrics(
    phase: &Phase,
    count_ops: usize,
    spans: &[Span],
    svp: &[SvpRecord],
) -> Vec<Metric> {
    let first: Vec<_> = phase
        .ops
        .iter()
        .filter(|o| o.closed_loop)
        .take(count_ops)
        .collect();
    let mut stats = ExecStats::default();
    for o in &first {
        stats.merge(&o.stats);
    }
    let roots: HashSet<u32> = first.iter().filter_map(|o| o.root).collect();
    let svp_spans: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "core.svp" && roots.contains(&s.root))
        .map(|s| s.id)
        .collect();
    let fanout_calls = spans
        .iter()
        .filter(|s| s.name == "node.read" && s.parent.is_some_and(|p| svp_spans.contains(&p)))
        .count();
    let partial_rows: u64 = svp
        .iter()
        .filter(|r| svp_spans.contains(&r.span))
        .map(|r| r.partial_rows)
        .sum();
    let before = phase.plan_cache_before;
    let after = phase.plan_cache_at_count.unwrap_or(before);
    let pc = PlanCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        replans: after.replans - before.replans,
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        metric(
            "engine.exec.rows_scanned",
            "count",
            stats.rows_scanned as f64,
        ),
        metric(
            "engine.exec.cpu_tuple_ops",
            "count",
            stats.cpu_tuple_ops as f64,
        ),
        metric(
            "engine.exec.scan_batches",
            "count",
            stats.scan_batches as f64,
        ),
        metric(
            "engine.exec.index_probes",
            "count",
            stats.index_probes as f64,
        ),
        metric(
            "engine.exec.pages_pruned",
            "count",
            stats.pages_pruned as f64,
        ),
        metric(
            "engine.exec.rows_scanned_per_row_out",
            "ratio",
            ratio(stats.rows_scanned, stats.rows_out),
        ),
        metric(
            "engine.plan_cache.hit_ratio",
            "ratio",
            ratio(pc.hits, pc.hits + pc.misses),
        ),
        metric("engine.plan_cache.misses", "count", pc.misses as f64),
        metric("engine.plan_cache.evictions", "count", pc.evictions as f64),
        metric("engine.plan_cache.replans", "count", pc.replans as f64),
        metric(
            "core.svp.fanout",
            "ratio",
            ratio(fanout_calls as u64, svp_spans.len() as u64),
        ),
        metric("core.composer.partial_rows", "count", partial_rows as f64),
    ]
}

/// Per-layer times from a traced phase, and the number of client ops
/// whose attributed self times do not add up to their wall time.
pub fn layer_metrics(phase: &Phase, spans: &[Span], svp: &[SvpRecord]) -> (Vec<Metric>, usize) {
    let mut by_root: HashMap<u32, Vec<Span>> = HashMap::new();
    for s in spans {
        by_root.entry(s.root).or_default().push(s.clone());
    }
    let svp_by_span: HashMap<u32, &SvpRecord> = svp.iter().map(|r| (r.span, r)).collect();
    let mut controller_us = Vec::new();
    let mut engine_us = Vec::new();
    let mut rewrite_us = Vec::new();
    let mut pre_dispatch_ms = Vec::new();
    let mut overlap_ms = Vec::new();
    let mut tail_ms = Vec::new();
    let mut straggler = Vec::new();
    let mut write_wait_ms = Vec::new();
    let mut node_read_ms = Vec::new();
    let mut node_write_ms = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut set_ms = Vec::new();
    let mut unbalanced = 0;
    for op in &phase.ops {
        let Some(tree) = op.root.and_then(|r| by_root.get(&r)) else {
            continue;
        };
        let Some(root) = tree.iter().find(|s| s.parent.is_none()) else {
            continue;
        };
        let attributed = attributed_self(tree);
        let total: f64 = attributed.values().sum();
        if (total - root.dur()).abs() > 1e-6 * root.dur().max(1.0) {
            unbalanced += 1;
        }
        let children =
            |id: u32| -> Vec<&Span> { tree.iter().filter(|s| s.parent == Some(id)).collect() };
        let sum_ms = |name: &str| -> f64 {
            tree.iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .fold(0.0, |a, d| a + d)
                / 1e3
        };
        controller_us.push(exclusive(root, &children(root.id)));
        let engine_self: f64 = tree
            .iter()
            .filter(|s| s.name == "core.engine")
            .map(|e| exclusive(e, &children(e.id)))
            .fold(0.0, |a, d| a + d);
        if op.class == Class::Write {
            // A write's engine span minus its node-write children is gate
            // begin/end, the pool slot and the snapshot lock.
            write_wait_ms.push(engine_self / 1e3);
            node_write_ms.push(sum_ms("node.write"));
            continue;
        }
        engine_us.push(engine_self);
        rewrite_us.extend(
            tree.iter()
                .filter(|s| s.name == "core.rewrite")
                .map(Span::dur),
        );
        node_read_ms.push(sum_ms("node.read"));
        prepare_ms.push(sum_ms("node.prepare"));
        set_ms.push(sum_ms("node.set"));
        for s in tree.iter().filter(|s| s.name == "core.svp") {
            if let Some(rec) = svp_by_span.get(&s.id) {
                pre_dispatch_ms.push(s.dur() / 1e3 - rec.timing.total_ms);
                overlap_ms.push(rec.timing.compose_overlap_ms);
                tail_ms.push(rec.timing.compose_tail_ms);
            }
            let reads: Vec<f64> = children(s.id)
                .iter()
                .filter(|c| c.name == "node.read")
                .map(|c| c.dur())
                .collect();
            if reads.len() > 1 && mean(&reads) > 0.0 {
                straggler.push(reads.iter().copied().fold(0.0, f64::max) / mean(&reads));
            }
        }
    }
    let parse: Vec<f64> = phase.ops.iter().map(|o| o.parse_us).collect();
    let out = vec![
        metric("cjdbc.controller.self_us", "us", mean(&controller_us)),
        metric("cjdbc.controller.self_us.p50", "us", median(&controller_us)),
        metric("core.engine.self_us", "us", mean(&engine_us)),
        metric("core.rewrite.us", "us", mean(&rewrite_us)),
        metric("core.rewrite.us.p50", "us", median(&rewrite_us)),
        metric("core.svp.pre_dispatch_ms", "ms", mean(&pre_dispatch_ms)),
        metric(
            "core.svp.pre_dispatch_ms.p50",
            "ms",
            median(&pre_dispatch_ms),
        ),
        metric("core.composer.overlap_ms", "ms", mean(&overlap_ms)),
        metric("core.composer.tail_ms", "ms", mean(&tail_ms)),
        metric("core.consistency.write_wait_ms", "ms", mean(&write_wait_ms)),
        metric("engine.node.read_ms", "ms", mean(&node_read_ms)),
        metric("engine.node.read_ms.p50", "ms", median(&node_read_ms)),
        metric("engine.node.straggler", "ratio", mean(&straggler)),
        metric("engine.node.write_ms", "ms", mean(&node_write_ms)),
        metric("engine.node.prepare_ms", "ms", mean(&prepare_ms)),
        metric("engine.node.set_ms", "ms", mean(&set_ms)),
        metric("sql.parse_us", "us", mean(&parse)),
    ];
    (out, unbalanced)
}

/// Operator classes EXPLAIN ANALYZE self times are summed into.
pub const OPERATOR_CLASSES: [&str; 6] = ["scan", "join", "aggregate", "fused", "sort", "other"];

/// The class of one EXPLAIN ANALYZE operator label.
pub fn operator_class(label: &str) -> &'static str {
    let l = label.to_lowercase();
    if l.starts_with("fused") {
        "fused"
    } else if l.contains("join") {
        "join"
    } else if l.starts_with("aggregate") || l.contains("group") {
        "aggregate"
    } else if l.starts_with("sort") || l.starts_with("limit") || l.starts_with("top") {
        "sort"
    } else if l.starts_with("scan") || l.contains("index") {
        "scan"
    } else {
        "other"
    }
}

/// Sums `self_ms` per operator class over EXPLAIN ANALYZE lines. A
/// `parallel worker` line counts for the operator it sits under, so a
/// parallel operator's value is its workers' summed time.
pub fn operator_self_ms(lines: &[String]) -> HashMap<&'static str, f64> {
    let mut out: HashMap<&'static str, f64> = OPERATOR_CLASSES.iter().map(|&c| (c, 0.0)).collect();
    let mut ancestors: Vec<(usize, &'static str)> = Vec::new();
    for line in lines {
        let (Some(cut), Some(at)) = (line.find(" (actual rows="), line.find("self_ms=")) else {
            continue;
        };
        let indent = line.len() - line.trim_start().len();
        while ancestors.last().is_some_and(|&(d, _)| d >= indent) {
            ancestors.pop();
        }
        let label = line[..cut].trim();
        let class = match ancestors.last() {
            Some(&(_, parent)) if label.starts_with("parallel worker") => parent,
            _ => operator_class(label),
        };
        ancestors.push((indent, class));
        let rest = &line[at + "self_ms=".len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        if let Ok(ms) = rest[..end].parse::<f64>() {
            *out.get_mut(class).unwrap() += ms;
        }
    }
    out
}

/// `{"<name>": {"value": …, "unit": "…"}, …}` with every digit of each value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn explain_lines_sum_by_operator_class() {
        let lines: Vec<String> = [
            "aggregate (actual rows=3 batches=1 self_ms=0.500 total_ms=2.000)",
            "  hash join block (greedy order) (actual rows=3 batches=1 self_ms=1.000 total_ms=1.500)",
            "    scan t [parallel ×2] (actual rows=9 batches=1 self_ms=0.000 total_ms=0.250)",
            "      parallel worker 0 (actual rows=5 batches=1 self_ms=0.125 total_ms=0.125)",
            "      parallel worker 1 (actual rows=4 batches=1 self_ms=0.125 total_ms=0.125)",
            "    scan u (actual rows=2 batches=1 self_ms=0.250 total_ms=0.250)",
            "fused aggregate over v [parallel ×2] (actual rows=1 batches=1 self_ms=0.000 total_ms=1.0)",
            "  parallel worker 0 (actual rows=5 batches=1 self_ms=0.750 total_ms=0.750)",
            "execution time: 2.100 ms",
        ]
        .map(String::from)
        .to_vec();
        let got = operator_self_ms(&lines);
        assert_eq!(got["aggregate"], 0.5);
        assert_eq!(got["join"], 1.0);
        assert_eq!(got["scan"], 0.5);
        assert_eq!(got["fused"], 0.75);
        assert_eq!(got["sort"] + got["other"], 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("a_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
