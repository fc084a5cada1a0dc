//! End-to-end benchmark of the in-process Apuama cluster: TPC-H data from
//! a seed, four replicas behind `ApuamaEngine` and the C-JDBC
//! `Controller` at their defaults, three workloads driven in wall clock,
//! and a traced run that splits each client op's time by layer. See
//! `README.md` in this directory.

pub mod cluster;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
