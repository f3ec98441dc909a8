//! Streaming at scale: drive 120,000 generated + probed cases through
//! `ValidationService::submit_source` without ever materializing the suite.
//!
//! The corpus pipeline (template generation → negative probing) runs lazily
//! as the validation pipeline demands more work; at most the in-flight
//! window of cases exists at any moment, so peak memory is bounded by the
//! channel capacity — not by the suite size. The same suite as a
//! materialized `Vec<WorkItem>` would hold 120k source files in memory at
//! once.
//!
//! ```text
//! cargo run --release --example streaming_scale                 # 120k cases
//! cargo run --release --example streaming_scale -- 250000       # pick a size
//! cargo run --release --example streaming_scale -- 120000 pipelined:4
//! ```
//!
//! The optional second argument selects the scheduling strategy
//! (`sequential` | `pipelined[:N]`, default `pipelined` = one worker per
//! core); both strategies produce identical records, so the counters
//! printed here are strategy-independent by construction.

use std::time::Instant;

use vv_dclang::DirectiveModel;
use vv_judge::Verdict;
use vv_pipeline::{ExecutionStrategy, ValidationService};
use vv_probing::CorpusSpec;

fn parse_strategy(arg: &str) -> Option<ExecutionStrategy> {
    match arg {
        "sequential" => Some(ExecutionStrategy::Sequential),
        "pipelined" => Some(ExecutionStrategy::Pipelined { workers: 0 }),
        _ => {
            let workers = arg.strip_prefix("pipelined:")?.parse().ok()?;
            Some(ExecutionStrategy::Pipelined { workers })
        }
    }
}

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(120_000);
    let strategy = match std::env::args().nth(2) {
        Some(arg) => match parse_strategy(&arg) {
            Some(strategy) => strategy,
            None => {
                eprintln!("unknown strategy {arg:?} (expected sequential | pipelined[:N])");
                std::process::exit(2);
            }
        },
        None => ExecutionStrategy::default(),
    };

    let spec = CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(0xACC5)
        .probe_seed(0xACC6)
        .size(size);
    println!("source : {}", spec.describe());

    let service = ValidationService::builder()
        .channel_capacity(64)
        .strategy(strategy)
        .build();
    println!("strategy: {}", service.strategy().label());

    let started = Instant::now();
    let mut stream = service.submit_source(spec.source());
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for record in &mut stream {
        // Records are consumed (and dropped) in submission order as they
        // complete — nothing accumulates on this side either.
        match record.pipeline_verdict() {
            Verdict::Valid => accepted += 1,
            Verdict::Invalid => rejected += 1,
        }
    }
    let stats = stream.stats();
    let elapsed = started.elapsed();

    println!(
        "validated {} cases in {:.2}s ({:.0} cases/s, wall-clock)",
        stats.submitted,
        elapsed.as_secs_f64(),
        stats.submitted as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    );
    println!(
        "accepted {accepted}, rejected {rejected}; compiled {}, executed {}, judged {} (early-exit saved the judge {:.0}% of the files)",
        stats.compiled,
        stats.executed,
        stats.judged,
        stats.judge_stage_savings() * 100.0
    );
    assert_eq!(
        stats.submitted, size,
        "every generated case must be validated"
    );
    assert_eq!(accepted + rejected, size);
    println!(
        "in-flight cases bounded by max(channel capacity {}, 2 x workers) — the {size}-file suite never existed in memory.",
        service.config().channel_capacity
    );
}
