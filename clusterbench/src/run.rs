//! One benchmark run: set-up, the measured phase (or, traced, a traced and
//! an untraced phase), the correctness checks, and the metrics.

use std::sync::Arc;

use apuama_tpch::TpchData;

use crate::cluster::{build, setup, Cluster, SetupTiming, NODES};
use crate::metrics::{
    class_metrics, count_metrics, geomean, latencies, layer_metrics, median, metric,
    operator_self_ms, percentile, query_metrics, Metric, OPERATOR_CLASSES,
};
use crate::trace::{Span, SvpRecord, Tracer};
use crate::workload::{
    olap_mismatch, run_phase, Budget, Class, Generators, Inputs, Phase, Workload,
};

/// TPC-H scale factor of the benchmark.
pub const SCALE_FACTOR: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The figures the result line carries: end-to-end untraced, per-layer
    /// traced.
    pub metrics: Vec<Metric>,
    /// Per-class figures of the measured (untraced) phase.
    pub classes: Vec<Metric>,
    pub meta: Vec<(&'static str, String)>,
    pub errors: Vec<String>,
    /// Spans of the traced phase, for writing out.
    pub spans: Vec<Span>,
    /// EXPLAIN ANALYZE lines per eval query (traced runs).
    pub plans: Vec<(String, Vec<String>)>,
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` (no process is spawned);
/// `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs").and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Answers every distinct OLAP statement once more through the controller
/// and compares with the reference; returns the mismatches.
pub fn verify_all_olap(cluster: &Cluster, inputs: &Inputs) -> Vec<String> {
    let mut errs = Vec::new();
    for s in &inputs.olap {
        match cluster.controller.execute(&s.sql) {
            Ok((out, _)) => {
                if let Some(m) = olap_mismatch(&out, &s.reference) {
                    errs.push(format!("{} (final pass): {m}", s.label));
                }
            }
            Err(e) => errs.push(format!("{} (final pass): {e}", s.label)),
        }
    }
    errs
}

/// Ratio of traced to untraced latency medians, as a percentage over 1,
/// averaged (geometrically) over the classes both phases ran.
fn overhead_pct(traced: &Phase, untraced: &Phase) -> f64 {
    let ratios: Vec<f64> = [Class::Olap, Class::Write, Class::Lookup, Class::Passthrough]
        .into_iter()
        .filter_map(|c| {
            let (a, b) = (latencies(traced, c), latencies(untraced, c));
            (!a.is_empty() && !b.is_empty()).then(|| median(&a) / median(&b))
        })
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

/// `engine.op.<query>.<class>.self_ms`: EXPLAIN ANALYZE of each eval
/// query's first-range sub-query on replica 0, under the same optimizer
/// interference (`enable_seqscan = off`) SVP sub-queries run with.
/// Also returns each query's plan lines and any errors.
#[allow(clippy::type_complexity)]
fn operator_metrics(
    cluster: &Cluster,
    inputs: &Inputs,
) -> (Vec<Metric>, Vec<(String, Vec<String>)>, Vec<String>) {
    let mut out = Vec::new();
    let mut plans = Vec::new();
    let mut errs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for s in &inputs.olap {
        if !seen.insert(s.label.clone()) {
            continue;
        }
        let per_class = match cluster.engine.rewriter().template(&s.sql) {
            Ok(Some(t)) => {
                let (lo, hi) = t.svp_plan(NODES).ranges[0];
                let sub = t.subquery_for_range(lo, hi);
                let lines = cluster.nodes[0].with_db(|db| {
                    let _ = db.query("set enable_seqscan = off");
                    let r = db.query(&format!("explain analyze {sub}"));
                    let _ = db.query("set enable_seqscan = on");
                    r
                });
                match lines {
                    Ok(o) => {
                        let lines: Vec<String> = o
                            .rows
                            .iter()
                            .filter_map(|r| r[0].as_str().map(str::to_string))
                            .collect();
                        let per_class = operator_self_ms(&lines);
                        plans.push((s.label.clone(), lines));
                        per_class
                    }
                    Err(e) => {
                        errs.push(format!("explain analyze {}: {e}", s.label));
                        continue;
                    }
                }
            }
            _ => {
                errs.push(format!("{} is not SVP-eligible", s.label));
                continue;
            }
        };
        for c in OPERATOR_CLASSES {
            out.push(metric(
                format!("engine.op.{}.{c}.self_ms", s.label),
                "ms",
                per_class[c],
            ));
        }
    }
    (out, plans, errs)
}

/// Runs one workload as `opts` says.
pub fn run(opts: Options) -> Outcome {
    let wl = opts.workload;
    let mut timings: Vec<SetupTiming> = Vec::new();
    let mut kept: Option<(TpchData, Cluster)> = None;
    let mut inputs: Option<Inputs> = None;
    for r in 0..SETUP_REPS {
        drop(kept.take()); // free the previous set-up before building the next
        let (data, cluster, t) = setup(SCALE_FACTOR, opts.seed);
        timings.push(t);
        if r == 0 {
            // The single-replica reference: a fresh replica of this
            // set-up, queried directly.
            inputs = Some(Inputs::new(&data, opts.seed, |sql| {
                cluster.nodes[0].with_db(|db| db.query(sql))
            }));
        }
        kept = Some((data, cluster));
    }
    let (data, cluster) = kept.expect("at least one set-up");
    let inputs = inputs.expect("inputs drawn");
    let mut gens = Generators::new(&data, &inputs);
    let mut errors = Vec::new();
    let med = |f: fn(&SetupTiming) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());

    let mut meta: Vec<(&'static str, String)> = vec![
        ("workload", wl.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", (opts.trace as u8).to_string()),
        ("commit", commit()),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("scale_factor", SCALE_FACTOR.to_string()),
        ("nodes", NODES.to_string()),
    ];
    for (k, v) in cluster.knobs() {
        meta.push((k, v));
    }

    let warmup = wl.warmup_ops();
    let labels: Vec<String> = inputs.olap.iter().map(|s| s.label.clone()).collect();
    let mut plans = Vec::new();
    let (metrics, classes, phases, spans) = if !opts.trace {
        let budget = Budget {
            seconds: opts.seconds,
            min_ops: 0,
            record_results: false,
        };
        let phase = run_phase(
            wl, &cluster, &data, &inputs, &mut gens, None, warmup, budget,
        );
        let mut classes = class_metrics(&phase);
        classes.extend(query_metrics(&phase, &labels));
        let mut m = vec![
            metric("setup_s", "s", med(|t| t.total_s)),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ];
        m.extend(end_to_end(&phase));
        (m, classes, vec![phase], Vec::new())
    } else {
        let tracer = Arc::new(Tracer::default());
        let traced = build(&cluster.nodes, data.config.orders(), Some(&tracer));
        let half = Budget {
            seconds: opts.seconds / 2.0,
            min_ops: wl.count_ops(),
            record_results: false,
        };
        let gov0 = traced.controller.governance_counts();
        let tphase = run_phase(
            wl,
            &traced,
            &data,
            &inputs,
            &mut gens,
            Some(&tracer),
            warmup,
            half,
        );
        let gov1 = traced.controller.governance_counts();
        let uphase = run_phase(wl, &cluster, &data, &inputs, &mut gens, None, warmup, half);
        errors.extend(traced.convergence_errors(&data));
        let (spans, svp): (Vec<Span>, Vec<SvpRecord>) = tracer.snapshot();
        let (mut m, unbalanced) = layer_metrics(&tphase, &spans, &svp);
        if unbalanced > 0 {
            errors.push(format!(
                "{unbalanced} ops whose self times do not add up to their wall time"
            ));
        }
        m.extend(count_metrics(&tphase, wl.count_ops(), &spans, &svp));
        m.push(metric(
            "cjdbc.controller.shed",
            "count",
            (gov1.shed - gov0.shed) as f64,
        ));
        m.push(metric(
            "cjdbc.controller.cancelled",
            "count",
            (gov1.cancelled - gov0.cancelled) as f64,
        ));
        m.push(metric("storage.pages", "pages", cluster.pages() as f64));
        m.push(metric("tpch.generate_s", "s", med(|t| t.generate_s)));
        m.push(metric("tpch.load_s", "s", med(|t| t.load_s)));
        m.push(metric(
            "client.gen_lag_ms",
            "ms",
            median(&tphase.gen_lag_ms),
        ));
        m.push(metric(
            "client.gen_lag_ms.p99",
            "ms",
            percentile(&tphase.gen_lag_ms, 99.0),
        ));
        m.push(metric(
            "trace.overhead_pct",
            "pct",
            overhead_pct(&tphase, &uphase),
        ));
        let (ops, op_plans, op_errs) = operator_metrics(&cluster, &inputs);
        m.extend(ops);
        plans = op_plans;
        errors.extend(op_errs);
        let mut classes = class_metrics(&uphase);
        classes.extend(query_metrics(&uphase, &labels));
        (m, classes, vec![tphase, uphase], spans)
    };

    for p in &phases {
        errors.extend(p.mismatches.iter().cloned());
    }
    if wl == Workload::Mixed {
        errors.extend(verify_all_olap(&cluster, &inputs));
    }
    errors.extend(cluster.convergence_errors(&data));
    let attempted = phases.iter().map(|p| p.ops.len()).sum();
    let failed = phases
        .iter()
        .map(|p| p.ops.iter().filter(|o| !o.ok).count())
        .sum();
    meta.push((
        "olap_verified",
        phases.iter().map(|p| p.verified).sum::<usize>().to_string(),
    ));
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        classes,
        meta,
        errors,
        spans,
        plans,
    }
}

/// End-to-end figures every workload reports besides `setup_s` and
/// `peak_rss_mb`: the closed-loop client's throughput, and latency over
/// every successful client op of the phase (both clients in `mixed`).
pub fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let all: Vec<f64> = phase
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.latency_ms())
        .collect();
    let closed = phase.ops.iter().filter(|o| o.ok && o.closed_loop).count();
    vec![
        metric("ops_per_s", "1/s", closed as f64 / phase.seconds.max(1e-9)),
        metric("op_geomean_ms", "ms", geomean(&all)),
        metric("op_p95_ms", "ms", percentile(&all, 95.0)),
    ]
}
