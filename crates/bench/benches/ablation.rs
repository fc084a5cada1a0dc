//! Criterion ablations of the design knobs (DESIGN.md §5): optimizer
//! interference, SVP vs baseline, consistency-mode gate overhead,
//! load-balancer policy cost, and composer pooling.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use apuama::{ConsistencyMode, UpdateGate};
use apuama_cjdbc::{LeastPendingBalancer, LoadBalancer, RandomBalancer, RoundRobinBalancer};
use apuama_sim::{run_isolated, SimCluster, SimClusterConfig};
use apuama_tpch::{generate, QueryParams, TpchConfig, TpchQuery};

const SF: f64 = 0.002;

fn dataset() -> apuama_tpch::TpchData {
    generate(TpchConfig {
        scale_factor: SF,
        seed: 42,
    })
}

/// SVP on vs off (plain inter-query baseline), isolated Q1 at 4 nodes.
fn svp_vs_baseline(c: &mut Criterion) {
    let data = dataset();
    let sql = TpchQuery::Q1.sql(&QueryParams::default());
    let mut group = c.benchmark_group("ablation_svp");
    group.sample_size(10);
    let svp = SimCluster::new(&data, SimClusterConfig::paper(4)).unwrap();
    group.bench_function("svp_on", |b| {
        b.iter(|| run_isolated(black_box(&svp), &sql, 2).unwrap())
    });
    let mut cfg = SimClusterConfig::paper(4);
    cfg.svp = false;
    let base = SimCluster::new(&data, cfg).unwrap();
    group.bench_function("svp_off", |b| {
        b.iter(|| run_isolated(black_box(&base), &sql, 2).unwrap())
    });
    group.finish();
}

/// `SET enable_seqscan = off` interference on vs off.
fn force_index(c: &mut Criterion) {
    let data = dataset();
    let sql = TpchQuery::Q6.sql(&QueryParams::default());
    let mut group = c.benchmark_group("ablation_force_index");
    group.sample_size(10);
    let forced = SimCluster::new(&data, SimClusterConfig::paper(4)).unwrap();
    group.bench_function("forced", |b| {
        b.iter(|| run_isolated(black_box(&forced), &sql, 2).unwrap())
    });
    let mut cfg = SimClusterConfig::paper(4);
    cfg.force_index = false;
    let unforced = SimCluster::new(&data, cfg).unwrap();
    group.bench_function("unforced", |b| {
        b.iter(|| run_isolated(black_box(&unforced), &sql, 2).unwrap())
    });
    group.finish();
}

/// Raw overhead of the consistency gate per write, blocking vs relaxed.
fn gate_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gate");
    for (name, mode) in [
        ("blocking", ConsistencyMode::Blocking),
        ("relaxed", ConsistencyMode::Relaxed),
    ] {
        group.bench_function(name, |b| {
            let gate = UpdateGate::new(4, mode);
            b.iter(|| {
                for node in 0..4 {
                    gate.begin_node_write(node, "w");
                    gate.end_node_write(node, "w", true);
                }
            })
        });
    }
    group.finish();
}

/// Load-balancer decision cost.
fn balancer_cost(c: &mut Criterion) {
    let pending = vec![3usize, 1, 4, 1, 5, 9, 2, 6];
    let mut group = c.benchmark_group("ablation_balancer");
    let lp = LeastPendingBalancer;
    group.bench_function("least_pending", |b| {
        b.iter(|| lp.choose(black_box(&pending)))
    });
    let rr = RoundRobinBalancer::default();
    group.bench_function("round_robin", |b| b.iter(|| rr.choose(black_box(&pending))));
    let rnd = RandomBalancer::new(7);
    group.bench_function("random", |b| b.iter(|| rnd.choose(black_box(&pending))));
    group.finish();
}

criterion_group!(
    ablations,
    svp_vs_baseline,
    force_index,
    gate_overhead,
    balancer_cost
);

// Composer ablation (DESIGN.md §5): a fresh staging engine per query vs
// the pooled staging table the engine reuses across same-schema queries.
mod composer_ablation {
    use super::*;
    use apuama::{compose, DataCatalog, ReusableComposer, Rewritten, SvpRewriter};

    pub fn composer_pooling(c: &mut Criterion) {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(1_000_000));
        let Rewritten::Svp(plan) = rewriter
            .rewrite(
                "select o_orderpriority, count(*) as n, sum(o_totalprice) as t \
                 from orders group by o_orderpriority order by o_orderpriority",
                16,
            )
            .unwrap()
        else {
            panic!()
        };
        let partial = apuama_engine::QueryOutput {
            columns: plan.partial_columns.clone(),
            rows: (0..5)
                .map(|i| {
                    vec![
                        apuama_sql::Value::Str(format!("{i}-PRIORITY")),
                        apuama_sql::Value::Int(10 + i),
                        apuama_sql::Value::Float(100.0 * i as f64),
                    ]
                })
                .collect(),
            ..Default::default()
        };
        let partials: Vec<_> = (0..16).map(|_| partial.clone()).collect();

        let mut group = c.benchmark_group("ablation_composer");
        group.bench_function("fresh_engine_per_query", |b| {
            b.iter(|| compose(black_box(&plan), &partials).unwrap())
        });
        group.bench_function("pooled_staging_table", |b| {
            let mut pooled = ReusableComposer::new();
            // Prime once so the steady state (schema reuse) is measured.
            pooled.compose(&plan, &partials).unwrap();
            b.iter(|| pooled.compose(black_box(&plan), &partials).unwrap())
        });
        group.finish();
    }
}

criterion_group!(composer, composer_ablation::composer_pooling);

criterion_main!(ablations, composer);
