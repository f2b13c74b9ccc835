//! The repo's benchmark harness (see `bench/README.md`): five workloads
//! from parse to serve, seven end-to-end metrics measured through
//! production entry points, and a per-layer ledger attributed from
//! outside by decorators over the public policy traits.

pub mod decor;
pub mod host;
pub mod layers;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;
