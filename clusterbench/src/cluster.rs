//! Building the cluster under test: TPC-H data from the seed, replicas,
//! the Apuama engine and the C-JDBC controller, all at their defaults.

use std::sync::Arc;
use std::time::Instant;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::{Database, PlanCacheStats};
use apuama_tpch::{generate, load_into, TpchConfig, TpchData};

use crate::trace::{TracedApuama, TracedNode, Tracer};

/// Replicas behind the controller.
pub const NODES: usize = 4;

/// The session knobs recorded with every result.
pub const KNOBS: [&str; 5] = [
    "enable_kernel",
    "enable_batch_exec",
    "enable_columnar",
    "parallel_workers",
    "enable_seqscan",
];

/// Tables whose row counts a workload must leave as it found them.
pub const BASE_TABLES: [&str; 3] = ["orders", "lineitem", "customer"];

/// The stack: replicas, engine and controller.
pub struct Cluster {
    pub nodes: Vec<Arc<EngineNode>>,
    pub engine: Arc<ApuamaEngine>,
    pub controller: Controller,
}

/// Wall-clock split of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub generate_s: f64,
    pub load_s: f64,
    pub total_s: f64,
}

pub fn generate_data(scale_factor: f64, seed: u64) -> TpchData {
    generate(TpchConfig { scale_factor, seed })
}

pub fn load_replicas(data: &TpchData) -> Vec<Arc<EngineNode>> {
    (0..NODES)
        .map(|i| {
            let mut db = Database::in_memory();
            load_into(&mut db, data).expect("replica loads");
            EngineNode::new(format!("node-{i}"), db)
        })
        .collect()
}

/// Builds engine and controller over `nodes` with default settings. With
/// a tracer, both seams are decorated.
pub fn build(nodes: &[Arc<EngineNode>], order_count: u64, tracer: Option<&Arc<Tracer>>) -> Cluster {
    let node_conns: Vec<Arc<dyn Connection>> = nodes
        .iter()
        .map(|n| {
            let conn: Arc<dyn Connection> = Arc::new(NodeConnection::new(n.clone()));
            match tracer {
                Some(t) => Arc::new(TracedNode {
                    inner: conn,
                    tracer: t.clone(),
                }) as Arc<dyn Connection>,
                None => conn,
            }
        })
        .collect();
    let engine = ApuamaEngine::new(
        node_conns,
        DataCatalog::tpch(order_count as i64),
        ApuamaConfig::default(),
    );
    let backends: Vec<Arc<dyn Connection>> = match tracer {
        Some(t) => (0..NODES)
            .map(|i| {
                Arc::new(TracedApuama {
                    inner: engine.connection(i),
                    engine: engine.clone(),
                    tracer: t.clone(),
                }) as Arc<dyn Connection>
            })
            .collect(),
        None => engine.connections(),
    };
    let controller = Controller::new(backends, ControllerConfig::default());
    Cluster {
        nodes: nodes.to_vec(),
        engine,
        controller,
    }
}

/// One timed set-up: generate, load the replicas, build the stack.
pub fn setup(scale_factor: f64, seed: u64) -> (TpchData, Cluster, SetupTiming) {
    let t0 = Instant::now();
    let data = generate_data(scale_factor, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let nodes = load_replicas(&data);
    let load_s = t1.elapsed().as_secs_f64();
    let cluster = build(&nodes, data.config.orders(), None);
    let total_s = t0.elapsed().as_secs_f64();
    (
        data,
        cluster,
        SetupTiming {
            generate_s,
            load_s,
            total_s,
        },
    )
}

impl Cluster {
    /// Plan-cache counters summed over every replica.
    pub fn plan_cache(&self) -> PlanCacheStats {
        let mut sum = PlanCacheStats::default();
        for n in &self.nodes {
            let s = n.with_db(|db| db.plan_cache_stats());
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.evictions += s.evictions;
            sum.invalidations += s.invalidations;
            sum.replans += s.replans;
        }
        sum
    }

    /// Heap pages per replica (equal on converged replicas; the first).
    pub fn pages(&self) -> u64 {
        self.nodes[0].with_db(|db| db.total_pages())
    }

    /// Every knob in [`KNOBS`] as set on replica 0, or `default:<value>`
    /// with the value the engine uses when the session never set it.
    pub fn knobs(&self) -> Vec<(&'static str, String)> {
        self.nodes[0].with_db(|db| {
            KNOBS
                .iter()
                .map(|&k| {
                    let v = db.setting(k).unwrap_or_else(|| {
                        let effective = match k {
                            "enable_kernel" => db.kernel_enabled().to_string(),
                            "enable_batch_exec" => db.batch_exec_enabled().to_string(),
                            "enable_columnar" => db.columnar_enabled().to_string(),
                            "parallel_workers" => db.parallel_workers().to_string(),
                            _ => db.seqscan_enabled().to_string(),
                        };
                        format!("default:{effective}")
                    });
                    (k, v)
                })
                .collect()
        })
    }

    /// Problems with replica convergence and base row counts; empty when
    /// every replica applied the same writes and the base data is intact.
    pub fn convergence_errors(&self, data: &TpchData) -> Vec<String> {
        let mut errs = Vec::new();
        let txn = self.engine.txn_counters();
        if txn.windows(2).any(|w| w[0] != w[1]) {
            errs.push(format!("engine txn counters diverge: {txn:?}"));
        }
        let wc = self.controller.write_counters();
        if wc.windows(2).any(|w| w[0] != w[1]) {
            errs.push(format!("controller write counters diverge: {wc:?}"));
        }
        for t in BASE_TABLES {
            let want = data.rows(t).map_or(0, Vec::len) as i64;
            for n in &self.nodes {
                let got = n.with_db(|db| {
                    db.query(&format!("select count(*) as n from {t}"))
                        .ok()
                        .and_then(|o| o.rows.first().and_then(|r| r[0].as_i64()))
                });
                if got != Some(want) {
                    errs.push(format!(
                        "{}: {t} has {got:?} rows, base has {want}",
                        n.name()
                    ));
                }
            }
        }
        errs
    }
}
