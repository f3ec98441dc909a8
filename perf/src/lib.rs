//! `vv-perf` — the repository benchmark.
//!
//! One command drives four seeded workloads through the public API of the
//! validation stack and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload cold_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! | workload | shape | why |
//! |---|---|---|
//! | `cold_stream` | interleaved OpenACC + OpenMP probed corpus, early exit, fresh compile cache per round | the production campaign; exec, compile cache, corpus and executor changes show here |
//! | `paced_judge` | same corpus, record-all, judge paced like a remote LLM | judge waits dominate; only wait overlap moves it, a CPU-layer gain must show no change |
//! | `warm_rerun` | re-run against a populated artifact store, 9 in 10 cases seen | store replay dominates; an exec or compile gain must show no change |
//! | `daemon_tenants` | `vv-server` over loopback, a bulk and an interactive tenant in closed loops | protocol, tenant round robin and the daemon's worker pool |
//!
//! Every workload runs *rounds* of *jobs* (one submission each, awaited to
//! its last record) for the measured window and reports medians and
//! percentiles over them. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced rounds and
//! prints the per-layer metrics, timed from outside around calls into each
//! layer's public functions (see [`trace`]). Outputs are checked against a
//! `Sequential` + uncached oracle outside the timed jobs (see [`check`]);
//! a case whose record is missing, errored or mismatched counts as failed,
//! and `failed / attempted` is printed as `failed_frac` (a metric that is
//! 0 on a correct program, so it is not a regression-bounded one).
//!
//! Set-up (`setup_s`) is timed at least three times per run, and for up to
//! a second when it is short, and reported as the median: materialising
//! the inputs the checks need, building the service or starting the
//! daemon, and for `warm_rerun` the cold populate.

pub mod check;
pub mod corpus;
mod daemon;
pub mod measure;
pub mod pipeline;
pub mod report;
pub mod trace;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Production campaign shape: early exit, fresh compile cache.
    ColdStream,
    /// Record-all with the judge paced like a remote LLM.
    PacedJudge,
    /// Incremental re-run against a populated artifact store.
    WarmRerun,
    /// Two tenants of the resident daemon over loopback.
    DaemonTenants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdStream,
        Workload::PacedJudge,
        Workload::WarmRerun,
        Workload::DaemonTenants,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStream => "cold_stream",
            Workload::PacedJudge => "paced_judge",
            Workload::WarmRerun => "warm_rerun",
            Workload::DaemonTenants => "daemon_tenants",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the measured configuration, or a tiny one for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Sizes the published numbers are measured at.
    Full,
    /// Sizes that run every workload in well under a second.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Print per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for artifact stores; removed by the caller.
    pub work_dir: PathBuf,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Cases submitted across every measured round.
    pub attempted: u64,
    /// Cases whose record was missing, errored or mismatched the oracle.
    pub failed: u64,
    /// End-to-end (untraced run) or per-layer (traced run) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (accuracy, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Run one workload and return its metrics.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|err| format!("creating {}: {err}", opts.work_dir.display()))?;
    match opts.workload {
        Workload::DaemonTenants => daemon::run(opts),
        _ => pipeline::run(opts),
    }
}
