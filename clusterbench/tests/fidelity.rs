//! The tracing decorators must not change what the stack does, and the
//! counts a traced run reports must repeat exactly for a given seed.
//!
//! Runs at a small scale factor with a fixed number of ops, so the checks
//! are about behaviour, not speed:
//!
//! ```text
//! cargo test --release --offline --manifest-path clusterbench/Cargo.toml
//! ```

use std::sync::Arc;

use apuama_clusterbench::cluster::{build, generate_data, load_replicas, Cluster};
use apuama_clusterbench::metrics::count_metrics;
use apuama_clusterbench::run::verify_all_olap;
use apuama_clusterbench::trace::Tracer;
use apuama_clusterbench::workload::{run_phase, Budget, Generators, Inputs, Phase, Workload};
use apuama_engine::Database;
use apuama_tpch::{load_into, TpchData};

const SF: f64 = 0.002;
const SEED: u64 = 11;

fn inputs(data: &TpchData) -> Inputs {
    let mut reference = Database::in_memory();
    load_into(&mut reference, data).unwrap();
    Inputs::new(data, SEED, |sql| reference.query(sql))
}

/// A fresh cluster over fresh replicas, traced or not.
fn fresh(data: &TpchData, traced: bool) -> (Cluster, Option<Arc<Tracer>>) {
    let tracer = traced.then(|| Arc::new(Tracer::default()));
    let nodes = load_replicas(data);
    (build(&nodes, data.config.orders(), tracer.as_ref()), tracer)
}

/// One phase of `ops` closed-loop ops (for `mixed`, plus a short writer).
fn short_run(
    workload: Workload,
    data: &TpchData,
    inputs: &Inputs,
    cluster: &Cluster,
    tracer: Option<&Arc<Tracer>>,
    ops: usize,
    seconds: f64,
) -> Phase {
    let mut gens = Generators::new(data, inputs);
    let phase = run_phase(
        workload,
        cluster,
        data,
        inputs,
        &mut gens,
        tracer,
        workload.warmup_ops(),
        Budget {
            seconds,
            min_ops: ops,
            record_results: true,
        },
    );
    assert_eq!(cluster.convergence_errors(data), Vec::<String>::new());
    phase
}

#[test]
fn traced_and_untraced_clusters_return_identical_results() {
    let data = generate_data(SF, SEED);
    let inputs = inputs(&data);
    for workload in [Workload::OlapPower, Workload::Oltp] {
        let ops = workload.count_ops();
        let (plain, _) = fresh(&data, false);
        let (traced, tracer) = fresh(&data, true);
        let a = short_run(workload, &data, &inputs, &plain, None, ops, 0.0);
        let b = short_run(workload, &data, &inputs, &traced, tracer.as_ref(), ops, 0.0);
        assert_eq!(a.ops.len(), b.ops.len(), "{}", workload.name());
        assert_eq!(a.mismatches, b.mismatches, "{}", workload.name());
        for (i, (x, y)) in a.ops.iter().zip(&b.ops).enumerate() {
            let at = format!("{} op {i}", workload.name());
            assert!(x.ok && y.ok, "{at}");
            assert_eq!(x.class, y.class, "{at}");
            assert_eq!(x.rows, y.rows, "{at}: rows");
            assert_eq!(x.stats, y.stats, "{at}: ExecStats");
            assert_eq!(x.plan_cache, y.plan_cache, "{at}: plan cache");
        }
        // Every traced op has a span tree.
        assert!(b.ops.iter().all(|o| o.root.is_some()));
    }
}

#[test]
fn mixed_run_leaves_traced_and_untraced_clusters_answering_alike() {
    let data = generate_data(SF, SEED);
    let inputs = inputs(&data);
    let (plain, _) = fresh(&data, false);
    let (traced, tracer) = fresh(&data, true);
    // Writer interleaving depends on timing, so compare what does not:
    // every verified answer (checked inside the run), convergence, and a
    // final pass over every statement, row for row and stat for stat.
    let a = short_run(Workload::Mixed, &data, &inputs, &plain, None, 8, 0.4);
    let b = short_run(
        Workload::Mixed,
        &data,
        &inputs,
        &traced,
        tracer.as_ref(),
        8,
        0.4,
    );
    assert!(a.mismatches.is_empty() && b.mismatches.is_empty());
    assert!(verify_all_olap(&plain, &inputs).is_empty());
    assert!(verify_all_olap(&traced, &inputs).is_empty());
    for s in &inputs.olap {
        let (x, _) = plain.controller.execute(&s.sql).unwrap();
        let (y, _) = traced.controller.execute(&s.sql).unwrap();
        assert_eq!(x.rows, y.rows, "{}", s.label);
        assert_eq!(x.stats, y.stats, "{}", s.label);
    }
}

#[test]
fn traced_counts_repeat_exactly_for_a_seed() {
    let data = generate_data(SF, SEED);
    let inputs = inputs(&data);
    for workload in [Workload::OlapPower, Workload::Oltp] {
        let counts = || {
            let (cluster, tracer) = fresh(&data, true);
            let tracer = tracer.unwrap();
            let phase = short_run(
                workload,
                &data,
                &inputs,
                &cluster,
                Some(&tracer),
                workload.count_ops(),
                0.0,
            );
            let (spans, svp) = tracer.snapshot();
            count_metrics(&phase, workload.count_ops(), &spans, &svp)
        };
        let (first, second) = (counts(), counts());
        assert_eq!(first, second, "{}", workload.name());
        let fanout = first.iter().find(|m| m.name == "core.svp.fanout").unwrap();
        assert_eq!(
            fanout.value,
            4.0,
            "{}: one node read per node",
            workload.name()
        );
    }
}
