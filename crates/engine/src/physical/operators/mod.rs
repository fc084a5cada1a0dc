//! The physical operators: one file per pipeline stage. Scan feeds
//! Filter/Join, Project and Aggregate shape the output (Aggregate also
//! drives its own morsel scan over a single base table), and tail holds
//! the always-breaker stages (Distinct, Sort, Limit).

mod aggregate;
mod filter;
mod join;
mod project;
mod scan;
mod tail;

pub(crate) use aggregate::*;
pub(crate) use filter::*;
pub(crate) use join::*;
pub(crate) use project::*;
pub(crate) use scan::*;
pub(crate) use tail::*;
