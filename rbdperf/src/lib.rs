//! # rbdperf — end-to-end and per-layer benchmark of the rbd workspace
//!
//! Four workloads drive the program through its public crates only:
//! ORSIH batch extraction, large pages into a fresh store, store-backed
//! serving, and the paper's Figure-1 pipeline. Each run checks its outputs
//! against the corpus generator's ground truth; see `README.md`.

pub mod checks;
pub mod client;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod stats;
pub mod steady;
pub mod workloads;
