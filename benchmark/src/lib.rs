//! Layer-attributed benchmark for the coherent-DSM race detector: five
//! workloads that climb from `vclock::kernels` to a served TCP session and
//! the discrete-event simulator. See `README.md` for what each workload and
//! metric is for; `BENCHMARK.json` at the repository root is the contract
//! the regression gate reads.

#![forbid(unsafe_code)]

pub mod child;
pub mod compare;
pub mod json;
pub mod ladder;
pub mod orchestrate;
pub mod proc;
pub mod procfs;
pub mod report;
pub mod server;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod stream;

/// Where result and trace files go: `benchmark/out/`, whether the current
/// directory is the repository root (the documented way to run) or the
/// package itself (where `cargo test` runs).
pub fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}
