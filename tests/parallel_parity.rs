//! Parity and shutdown laws of the multi-worker executor
//! (`ExecutionStrategy::Pipelined`).
//!
//! The contract under test, at release scale:
//!
//! * **Byte identity** — for every worker count and artifact-store state
//!   (none, cold, warm), `Pipelined` produces records equal (full
//!   `CaseRecord` equality, every captured field) to the `Sequential`
//!   baseline, in both pipeline modes;
//! * **Counter parity** — the stage counters (`submitted`, `compiled`,
//!   `executed`, `judged` and their failure/rejection tallies) equal the
//!   `Sequential` run's exactly, and the store counters conserve
//!   (`store_hits + store_misses == submitted`, all hits when warm);
//! * **Submission order** — like the `Sequential` oracle, the pipelined
//!   executor's `RecordStream` yields records in submission order (its
//!   reorder buffer releases ordinal `n + 1` only after `n`);
//! * **Exact histogram merge** — per-worker judge-latency histograms merge
//!   into exactly the sequential run's histogram (the accumulator-merge
//!   law applied to per-worker private stats). Float *sums* of simulated
//!   latency are intentionally not asserted — f64 addition is not
//!   order-stable across schedules;
//! * **Clean shutdown** — dropping the stream mid-run (any worker count)
//!   leaves no deadlocked or leaked worker: the drop returns, the lazy
//!   input tail is never pulled, and the service remains usable.
//!
//! Cache hit/miss *totals* are schedule-dependent under concurrency (two
//! workers can race-miss the same address), so the cache law asserted here
//! is conservation — `hits + misses == compiled`, less the store replays,
//! which never reach the compile cache — not equality with the sequential
//! split.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vv_corpus::CaseSource;
use vv_dclang::DirectiveModel;
use vv_pipeline::{
    CaseRecord, ExecutionStrategy, PipelineMode, PipelineRun, PipelineStats, ValidationService,
    ValidationServiceBuilder, WorkItem,
};
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_store::ArtifactStore;

/// Release runs exercise the executor at the scale the ISSUE pins (≥10k
/// mixed cases); debug builds keep the suite fast.
const SCALE: usize = if cfg!(debug_assertions) { 120 } else { 10_000 };

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A mixed corpus: half the cases carry probing mutations, so compile
/// failures, exec failures and judge rejections all occur and every
/// early-exit path is taken.
fn mixed_items(model: DirectiveModel, size: usize, seed: u64) -> Vec<WorkItem> {
    let mut probe = ProbeConfig::with_seed(seed ^ 0xA5A5);
    probe.mutated_fraction = 0.5;
    CorpusSpec::new(model)
        .seed(seed)
        .probe(probe)
        .size(size)
        .source()
        .into_cases()
        .map(WorkItem::from)
        .collect()
}

fn builder(mode: PipelineMode, strategy: ExecutionStrategy) -> ValidationServiceBuilder {
    ValidationService::builder().mode(mode).strategy(strategy)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vv-parallel-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Where one pipelined run keeps its compile cache and records.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// The in-memory (sharded) compile cache alone.
    Memory,
    /// An artifact store over a scratch directory: a cold run, then a warm
    /// rerun over the populated store.
    Store,
}

/// The stage counters every schedule must reproduce exactly.
fn stage_counters(stats: &PipelineStats) -> [usize; 7] {
    [
        stats.submitted,
        stats.compiled,
        stats.compile_failures,
        stats.executed,
        stats.exec_failures,
        stats.judged,
        stats.judge_rejections,
    ]
}

fn assert_matches_reference(reference: &PipelineRun, run: &PipelineRun, label: &str) {
    assert_eq!(
        reference.records, run.records,
        "{label}: diverged from Sequential"
    );
    assert_eq!(
        stage_counters(&run.stats),
        stage_counters(&reference.stats),
        "{label}: stage counters differ from Sequential"
    );
    assert_eq!(
        run.stats.compile_cache_hits + run.stats.compile_cache_misses,
        run.stats.compiled - run.stats.store_hits,
        "{label}: cache counter conservation"
    );
}

#[test]
fn pipelined_is_byte_identical_to_sequential_across_workers_and_shards() {
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE, 0xBEEF);
    for mode in [PipelineMode::EarlyExit, PipelineMode::RecordAll] {
        let reference = builder(mode, ExecutionStrategy::Sequential)
            .build()
            .run(items.clone());
        assert_eq!(reference.records.len(), items.len());
        // Mixed corpus sanity: the parity claim is vacuous unless every
        // stage actually rejects something.
        assert!(reference.stats.compile_failures > 0, "no compile failures");

        for workers in WORKER_COUNTS {
            // The in-memory sharded cache upholds the identity, and so does
            // a store-backed run whether it validates fresh or replays.
            for layout in [Layout::Memory, Layout::Store] {
                let label = format!("{mode:?} workers={workers} {layout:?}");
                let strategy = ExecutionStrategy::Pipelined { workers };
                match layout {
                    Layout::Memory => {
                        let run = builder(mode, strategy).build().run(items.clone());
                        assert_matches_reference(&reference, &run, &label);
                    }
                    Layout::Store => {
                        let dir = temp_dir(&format!("{mode:?}-{workers}"));
                        let store = ArtifactStore::open_shared(&dir).expect("open store");
                        let service = builder(mode, strategy).artifact_store(store).build();
                        let cold = service.run(items.clone());
                        assert_matches_reference(&reference, &cold, &format!("{label} cold"));
                        assert_eq!(
                            cold.stats.store_hits + cold.stats.store_misses,
                            cold.stats.submitted,
                            "{label} cold: store counter conservation"
                        );
                        let warm = service.run(items.clone());
                        assert_matches_reference(&reference, &warm, &format!("{label} warm"));
                        assert_eq!(
                            warm.stats.store_hits, warm.stats.submitted,
                            "{label} warm: every case must replay"
                        );
                        drop(service);
                        let _ = std::fs::remove_dir_all(&dir);
                    }
                }
            }
        }
    }
}

#[test]
fn per_worker_judge_latency_histograms_merge_exactly() {
    // RecordAll judges every case, maximizing the histogram mass.
    let items = mixed_items(DirectiveModel::OpenMp, SCALE / 2, 0xD00D);
    let sequential = builder(PipelineMode::RecordAll, ExecutionStrategy::Sequential)
        .build()
        .run(items.clone());
    for workers in WORKER_COUNTS {
        let run = builder(
            PipelineMode::RecordAll,
            ExecutionStrategy::Pipelined { workers },
        )
        .build()
        .run(items.clone());
        assert_eq!(run.stats.judged, sequential.stats.judged);
        assert_eq!(
            run.stats.judge_latency, sequential.stats.judge_latency,
            "workers={workers}: merged per-worker histogram differs from sequential"
        );
        // Exact merge implies exact quantiles.
        assert_eq!(
            run.stats.judge_latency_p95(),
            sequential.stats.judge_latency_p95()
        );
    }
}

#[test]
fn pipelined_stream_yields_records_in_submission_order() {
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE.min(2000), 7);
    let expected_ids: Vec<String> = items.iter().map(|item| item.id.clone()).collect();
    for workers in [2, 8] {
        let service = builder(
            PipelineMode::RecordAll,
            ExecutionStrategy::Pipelined { workers },
        )
        .build();
        let yielded: Vec<String> = service
            .submit(items.clone())
            .map(|record: CaseRecord| record.id)
            .collect();
        assert_eq!(
            yielded, expected_ids,
            "workers={workers}: stream order is not submission order"
        );
    }
}

#[test]
fn dropping_the_stream_mid_run_shuts_down_cleanly() {
    // The assertions here are (a) this test returning at all — a deadlocked
    // or leaked worker would hang the drop or the process — and (b) the
    // lazy input tail never being pulled once the consumer is gone.
    let items = mixed_items(DirectiveModel::OpenAcc, SCALE.max(1000), 0xACE);
    let total = items.len();
    for workers in WORKER_COUNTS {
        for taken in [0usize, 1, 7, 64] {
            let pulled = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&pulled);
            let lazy = items.clone().into_iter().inspect(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            let service = builder(
                PipelineMode::RecordAll,
                ExecutionStrategy::Pipelined { workers },
            )
            .channel_capacity(4)
            .build();
            let mut stream = service.submit(lazy);
            for _ in 0..taken {
                assert!(
                    stream.next().is_some(),
                    "stream ended before {taken} records"
                );
            }
            drop(stream);
            let consumed = pulled.load(Ordering::SeqCst);
            assert!(
                consumed < total,
                "workers={workers} taken={taken}: input was fully materialized \
                 ({consumed}/{total} pulled)"
            );
        }
        // The service survives abandoned streams: a fresh full run still
        // completes and accounts for every submission.
        let service = builder(
            PipelineMode::RecordAll,
            ExecutionStrategy::Pipelined { workers },
        )
        .build();
        let rerun = service.run(items.clone());
        assert_eq!(rerun.records.len(), total);
    }
}
