//! Validation-service throughput demo: run the same probed OpenACC suite
//! through both execution strategies of the `ValidationService` (the
//! sequential reference and the pipelined executor at 1, 2 and all
//! cores; early-exit and record-all), compare wall time, judge-stage
//! savings and record agreement, then stream a corpus source through
//! `submit_source` to show records arriving as the suite is generated on
//! the fly.
//!
//! ```text
//! cargo run --release --example validation_pipeline
//! ```

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService, WorkItem};
use vv_probing::CorpusSpec;

fn spec(size: usize) -> CorpusSpec {
    CorpusSpec::new(DirectiveModel::OpenAcc)
        .seed(7)
        .probe_seed(8)
        .size(size)
}

fn probed_items(size: usize) -> Vec<WorkItem> {
    let items: Vec<WorkItem> = spec(size)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect();
    println!(
        "{} probed files materialized for the strategy comparison\n",
        items.len()
    );
    items
}

fn main() {
    let items = probed_items(120);

    // One service per (strategy, mode) combination — a single entry point,
    // `run`, regardless of scheduling.
    let run = |strategy: ExecutionStrategy, mode: PipelineMode| {
        ValidationService::builder()
            .strategy(strategy)
            .mode(mode)
            .build()
            .run(items.clone())
    };
    let sequential = run(ExecutionStrategy::Sequential, PipelineMode::EarlyExit);
    let pipelined_1 = run(
        ExecutionStrategy::Pipelined { workers: 1 },
        PipelineMode::EarlyExit,
    );
    let pipelined_2 = run(
        ExecutionStrategy::Pipelined { workers: 2 },
        PipelineMode::EarlyExit,
    );
    let pipelined = run(ExecutionStrategy::default(), PipelineMode::EarlyExit);
    let pipelined_all = run(ExecutionStrategy::default(), PipelineMode::RecordAll);

    let agreement = [&pipelined_1, &pipelined_2, &pipelined]
        .iter()
        .all(|run| run.records == sequential.records);

    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>16}",
        "strategy", "wall (ms)", "judged", "savings", "sim. GPU (ms)"
    );
    for (name, run) in [
        ("sequential, early-exit", &sequential),
        ("pipelined:1, early-exit", &pipelined_1),
        ("pipelined:2, early-exit", &pipelined_2),
        ("pipelined, early-exit", &pipelined),
        ("pipelined, record-all", &pipelined_all),
    ] {
        println!(
            "{:<28} {:>10.1} {:>10} {:>11.0}% {:>16.0}",
            name,
            run.stats.wall_time.as_secs_f64() * 1e3,
            run.stats.judged,
            run.stats.judge_stage_savings() * 100.0,
            run.stats.simulated_judge_latency_ms,
        );
    }
    println!(
        "\nevery pipelined run's records byte-identical to the sequential reference: {agreement}"
    );
    assert!(agreement, "strategy parity violated");
    println!(
        "early-exit spared the (simulated 33B-parameter) judge {:.0}% of the files that record-all would have sent to the GPU.",
        (1.0 - pipelined.stats.judged as f64 / pipelined_all.stats.judged.max(1) as f64) * 100.0
    );

    // Streaming: `submit_source` drains the corpus pipeline lazily through
    // the bounded channels — generation, probing and validation overlap,
    // and the suite is never materialized.
    let streaming_spec = spec(40);
    println!(
        "\nstreaming through submit_source (first 5 records)\n  source: {}",
        streaming_spec.describe()
    );
    let service = ValidationService::builder().channel_capacity(4).build();
    let stream = service.submit_source(streaming_spec.source());
    let mut completed = 0usize;
    for record in stream {
        if completed < 5 {
            println!(
                "  {:<36} stage {:?}, verdict {:?}",
                record.id,
                record.stage_reached(),
                record.pipeline_verdict()
            );
        }
        completed += 1;
    }
    println!("  ... {completed} records streamed in submission order");
}
