//! Shared helpers for the ArchExplorer benchmark/experiment harnesses.
//! The per-figure binaries live in `src/bin/`.

pub mod args;
pub mod emit;

pub use args::Args;
pub use emit::Table;
