//! `ledger` — the repo's one benchmark: four workloads, end-to-end metrics
//! from untraced runs, and a traced pass that prices each layer through its
//! public API and reconciles the parts against the whole. README.md beside
//! Cargo.toml defines every name; `src/main.rs` is the command line.

pub mod compare;
pub mod env;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod pacing;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};

/// The repository this package sits in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repo root")
        .to_path_buf()
}

/// Where span files and default results go (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
