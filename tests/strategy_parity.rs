//! Strategy-parity determinism tests: the pipelined executor of the
//! `ValidationService`, at every worker count, must produce
//! **byte-identical** `CaseRecord`s — same verdicts, same summaries, same
//! judge prompts and responses — to the `Sequential` reference for the
//! same seeds and inputs, in both `EarlyExit` and `RecordAll` modes, and
//! both strategies must stream them in submission order. This is the
//! contract that lets the benchmarks vary the worker count without
//! re-validating semantics, and it is asserted here over full record
//! equality (`CaseRecord: PartialEq` covers every captured field).

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{
    CaseRecord, ExecutionStrategy, PipelineMode, ValidationService, ValidationServiceBuilder,
    WorkItem,
};
use vv_probing::CorpusSpec;

fn probed_spec(model: DirectiveModel, size: usize, seed: u64) -> CorpusSpec {
    CorpusSpec::new(model)
        .seed(seed)
        .probe_seed(seed ^ 0xA5A5)
        .size(size)
}

fn probed_items(model: DirectiveModel, size: usize, seed: u64) -> Vec<WorkItem> {
    probed_spec(model, size, seed)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect()
}

/// The candidates checked against the `Sequential` reference.
const PIPELINED: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Pipelined { workers: 1 },
    ExecutionStrategy::Pipelined { workers: 2 },
    ExecutionStrategy::Pipelined { workers: 4 },
];

fn builder(mode: PipelineMode, strategy: ExecutionStrategy) -> ValidationServiceBuilder {
    ValidationService::builder().mode(mode).strategy(strategy)
}

fn records_for(
    mode: PipelineMode,
    strategy: ExecutionStrategy,
    items: &[WorkItem],
) -> Vec<CaseRecord> {
    builder(mode, strategy).build().run(items.to_vec()).records
}

#[test]
fn strategies_produce_byte_identical_records_in_both_modes() {
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let items = probed_items(model, 36, 4711);
        for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
            let reference = records_for(mode, ExecutionStrategy::Sequential, &items);
            assert_eq!(reference.len(), items.len());
            for strategy in PIPELINED {
                let candidate = records_for(mode, strategy, &items);
                assert_eq!(
                    reference, candidate,
                    "{model} {mode:?}: {strategy:?} diverged from Sequential"
                );
            }
        }
    }
}

#[test]
fn strategies_produce_byte_identical_records_through_submit_source() {
    // Same contract as above, but with the corpus streamed straight into
    // the service (generation → probing → validation, no materialized
    // suite): every strategy must produce the same records, and they must
    // equal the records of the materialized item path.
    let spec = probed_spec(DirectiveModel::OpenAcc, 32, 9182);
    for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
        let via_items = builder(mode, ExecutionStrategy::Sequential)
            .build()
            .run(probed_items(DirectiveModel::OpenAcc, 32, 9182))
            .records;
        for strategy in std::iter::once(ExecutionStrategy::Sequential).chain(PIPELINED) {
            let streamed = builder(mode, strategy)
                .build()
                .run_source(spec.source())
                .records;
            assert_eq!(
                via_items, streamed,
                "{mode:?}: {strategy:?} via submit_source diverged"
            );
        }
    }
}

#[test]
fn reruns_are_deterministic_per_strategy() {
    let items = probed_items(DirectiveModel::OpenAcc, 24, 99);
    for strategy in std::iter::once(ExecutionStrategy::Sequential).chain(PIPELINED) {
        let first = records_for(PipelineMode::RecordAll, strategy, &items);
        let second = records_for(PipelineMode::RecordAll, strategy, &items);
        assert_eq!(
            first, second,
            "{strategy:?} is not deterministic across runs"
        );
    }
}

#[test]
fn streaming_submit_matches_the_batch_run() {
    let items = probed_items(DirectiveModel::OpenMp, 30, 2024);
    let service = ValidationService::builder()
        .mode(PipelineMode::RecordAll)
        .build();

    let batch = service.run(items.clone());

    // submit() yields in submission order, so the streamed records must
    // be exactly the batch records, and the final stream stats must agree
    // on every counter (wall time differs by construction).
    let mut stream = service.submit(items.clone());
    let mut streamed: Vec<CaseRecord> = Vec::new();
    for record in &mut stream {
        streamed.push(record);
    }
    assert_eq!(streamed.len(), batch.records.len());
    let stream_stats = stream.stats();
    assert_eq!(stream_stats.submitted, batch.stats.submitted);
    assert_eq!(stream_stats.judged, batch.stats.judged);
    assert_eq!(stream_stats.compile_failures, batch.stats.compile_failures);
    assert_eq!(streamed, batch.records);
}

#[test]
fn both_strategies_stream_in_submission_order() {
    // `RecordStream` guarantees submission order under either strategy,
    // through a one-slot channel and with early exits mixed in (cases
    // leaving at different stages finish out of order in the pipelined
    // executor, so its reorder buffer is exercised).
    let items = probed_items(DirectiveModel::OpenAcc, 40, 777);
    let ids: Vec<String> = items.iter().map(|item| item.id.clone()).collect();
    for strategy in std::iter::once(ExecutionStrategy::Sequential).chain(PIPELINED) {
        let streamed: Vec<String> = builder(PipelineMode::EarlyExit, strategy)
            .channel_capacity(1)
            .build()
            .submit(items.clone())
            .map(|record| record.id)
            .collect();
        assert_eq!(streamed, ids, "{strategy:?} broke submission order");
    }
}

#[test]
fn streaming_handles_lazily_generated_unbounded_style_input() {
    // The iterator is consumed lazily under either strategy: feed a
    // generator that would be wasteful to materialize, stop consuming after
    // a prefix, and drop the stream — the tail must never be produced.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let items = probed_items(DirectiveModel::OpenAcc, 200, 31);
    for strategy in ExecutionStrategy::ALL {
        let pulled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&pulled);
        let lazy = items.clone().into_iter().inspect(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });

        let service = builder(PipelineMode::EarlyExit, strategy)
            .channel_capacity(2)
            .build();
        let mut stream = service.submit(lazy);
        for _ in 0..5 {
            assert!(stream.next().is_some());
        }
        drop(stream);

        let consumed = pulled.load(Ordering::SeqCst);
        assert!(
            consumed < 200,
            "{strategy:?}: lazy input was fully materialized ({consumed}/200 items pulled)"
        );
    }
}
