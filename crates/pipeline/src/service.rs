//! The validation service: one entry point for both execution strategies,
//! with pluggable stage backends and streaming results.
//!
//! [`ValidationService`] replaces the three hardcoded runner methods of the
//! old `ValidationPipeline`. It is constructed through
//! [`ValidationServiceBuilder`] and offers two ways to consume results:
//!
//! * [`ValidationService::run`] — batch: process a `Vec<WorkItem>` and get a
//!   [`PipelineRun`] with records in submission order plus aggregate stats;
//! * [`ValidationService::submit`] — streaming: feed any iterator of work
//!   items and receive an iterator of [`CaseRecord`]s in submission order.
//!   Input is pulled lazily and the output channel is bounded, so the
//!   suite can be arbitrarily large while memory stays constant.
//!
//! Both execution strategies run every case through the same per-case
//! function, [`ValidationService::process_case`], and therefore produce
//! identical records, in the same order, for identical inputs (asserted by
//! the strategy-parity tests); they differ only in scheduling.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;

use crate::backend::{
    CompileBackend, CompileOutput, ExecBackend, JudgeBackend, PacedJudge, SessionLease,
    SimCompileBackend, SimExecBackend, SurrogateJudgeBackend,
};
use crate::persist::RecordStore;
use crate::runner::PipelineRun;
use crate::stats::PipelineStats;
use crate::{CaseRecord, PipelineConfig, PipelineMode, WorkItem};
use vv_corpus::CaseSource;
use vv_judge::{JudgeProfile, PromptStyle};
use vv_simcompiler::{CompileCache, CompileFetch, PersistentCache};
use vv_store::ArtifactStore;

/// How the service schedules the per-file work.
///
/// Both strategies run each case through the same per-case function and
/// produce byte-identical records, in submission order, for identical
/// inputs (the strategy-parity laws); they differ only in scheduling:
///
/// * [`Pipelined`](Self::Pipelined) — the default: a pool of workers, each
///   running whole cases, with lazy input admission and an ordered output
///   stream.
/// * [`Sequential`](Self::Sequential) — one thread, one case at a time,
///   no scheduling at all. The slow reference oracle the parity tests
///   compare [`Pipelined`](Self::Pipelined) against, and the baseline for
///   the scaling benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// One worker thread runs every stage for each file, in submission
    /// order.
    Sequential,
    /// `workers` threads (`0` = one per available core), each running
    /// whole cases: lazy input admission bounded by an in-flight window,
    /// and a reorder buffer so the stream yields records in submission
    /// order. See [`crate::parallel`] for the design.
    Pipelined {
        /// Worker thread count; `0` resolves to
        /// `std::thread::available_parallelism()`.
        workers: usize,
    },
}

impl Default for ExecutionStrategy {
    /// `Pipelined { workers: 0 }`: one worker per available core.
    fn default() -> Self {
        ExecutionStrategy::Pipelined { workers: 0 }
    }
}

impl ExecutionStrategy {
    /// Both strategies, in display order (`Pipelined` at its auto-sized
    /// worker count).
    pub const ALL: [ExecutionStrategy; 2] = [
        ExecutionStrategy::Sequential,
        ExecutionStrategy::Pipelined { workers: 0 },
    ];

    /// A short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionStrategy::Sequential => "sequential",
            ExecutionStrategy::Pipelined { .. } => "pipelined",
        }
    }
}

/// Builder for [`ValidationService`].
///
/// The compile layer is derived from two optional inputs: a shared
/// [`CompileCache`] ([`Self::compile_cache`], default
/// [`CompileCache::shared`]) and an [`ArtifactStore`]
/// ([`Self::artifact_store`]). With a store, compiles go memory cache →
/// store → fresh compile (a [`PersistentCache`]); without one, through the
/// memory cache alone. An explicit backend — [`Self::uncached_compile`] or
/// [`Self::compile_backend`] — takes precedence over both inputs.
///
/// ```
/// use vv_pipeline::{ExecutionStrategy, PipelineMode, ValidationService};
///
/// let service = ValidationService::builder()
///     .mode(PipelineMode::RecordAll)
///     .strategy(ExecutionStrategy::Pipelined { workers: 2 })
///     .build();
/// let run = service.run(Vec::new());
/// assert_eq!(run.stats.submitted, 0);
/// ```
#[derive(Clone, Default)]
pub struct ValidationServiceBuilder {
    config: PipelineConfig,
    strategy: ExecutionStrategy,
    /// An explicit compile backend; when set, `cache` and `store` do not
    /// shape the compile layer.
    compile: Option<Arc<dyn CompileBackend>>,
    /// Concrete handle kept alongside `compile` when the compile backend is
    /// a simulated one, so executor threads can lease sessions instead of
    /// round-tripping the pool per case.
    sim_compile: Option<Arc<SimCompileBackend>>,
    cache: Option<Arc<CompileCache>>,
    exec: Option<Arc<dyn ExecBackend>>,
    judge: Option<Arc<dyn JudgeBackend>>,
    store: Option<Arc<ArtifactStore>>,
    judge_pacing: Option<f64>,
}

impl ValidationServiceBuilder {
    /// Early-exit (production) or record-all (experimental) mode.
    pub fn mode(mut self, mode: PipelineMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Capacity of the bounded output channel, which is also the floor of
    /// the pipelined executor's in-flight window.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Scheduling strategy (the pipelined multi-worker executor, or the
    /// sequential reference); see [`ExecutionStrategy`].
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Prompt style for the default judge backend.
    pub fn judge_style(mut self, style: PromptStyle) -> Self {
        self.config.judge_style = style;
        self
    }

    /// Calibration profile for the default judge backend.
    pub fn judge_profile(mut self, profile: JudgeProfile) -> Self {
        self.config.judge_profile = profile;
        self
    }

    /// Decision seed for the default judge backend.
    pub fn judge_seed(mut self, seed: u64) -> Self {
        self.config.judge_seed = seed;
        self
    }

    /// Use the indirect-analysis judge (LLMJ 2 / Pipeline 2 in the paper).
    pub fn indirect_judge(self) -> Self {
        self.judge_style(PromptStyle::AgentIndirect)
            .judge_profile(JudgeProfile::deepseek_agent_indirect())
    }

    /// Plug in a custom compile backend. It takes precedence over
    /// [`Self::compile_cache`] and [`Self::artifact_store`] for the compile
    /// stage.
    pub fn compile_backend(mut self, backend: impl CompileBackend + 'static) -> Self {
        self.compile = Some(Arc::new(backend));
        self.sim_compile = None;
        self
    }

    /// Compile through a shared content-addressed compile cache instead of
    /// a fresh [`CompileCache::shared`]. Several services — e.g. the
    /// scenarios of a campaign that re-run identical corpus shards — can
    /// share one cache and compile each distinct source once between them.
    /// With an [`Self::artifact_store`] attached, the store becomes this
    /// cache's disk tier.
    pub fn compile_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Compile every file afresh (no content-addressed cache, no disk
    /// tier); the slow oracle the cached paths are checked against. Takes
    /// precedence over [`Self::compile_cache`] and
    /// [`Self::artifact_store`] for the compile stage.
    pub fn uncached_compile(mut self) -> Self {
        let backend = Arc::new(SimCompileBackend::uncached());
        self.sim_compile = Some(Arc::clone(&backend));
        self.compile = Some(backend);
        self
    }

    /// Pace the judge stage: sleep `latency_ms × scale` after every
    /// judgement, realizing the simulated latency as wall-clock time (see
    /// [`crate::backend::PacedJudge`]). `0.0` disables pacing. Applied
    /// around whichever judge backend is in effect, custom or default;
    /// records are unchanged — only timing is.
    pub fn judge_pacing(mut self, scale: f64) -> Self {
        self.judge_pacing = Some(scale);
        self
    }

    /// Attach a durable artifact store. Two layers light up:
    ///
    /// * the compile cache gets this store as its disk tier (unless an
    ///   explicit compile backend is plugged in), so recurring sources skip
    ///   the frontend across processes;
    /// * if every stage backend states a configuration fingerprint (the
    ///   defaults all do), completed [`CaseRecord`]s are persisted under
    ///   `(mode, fingerprints, model, lang, source)` and replayed wholesale
    ///   on re-runs — see [`crate::persist::RecordStore`].
    pub fn artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Plug in a custom execute backend.
    pub fn exec_backend(mut self, backend: impl ExecBackend + 'static) -> Self {
        self.exec = Some(Arc::new(backend));
        self
    }

    /// Plug in a custom judge backend (replaces the surrogate judge that
    /// would otherwise be built from the config's style/profile/seed).
    pub fn judge_backend(mut self, backend: impl JudgeBackend + 'static) -> Self {
        self.judge = Some(Arc::new(backend));
        self
    }

    /// Finalize the service. Unset backends fall back to the simulated
    /// substrates: the compile layer derived from the cache and store (see
    /// the type docs), the default executor, and the surrogate judge built
    /// from the judge style, profile and seed.
    pub fn build(self) -> ValidationService {
        let mut judge = self.judge.unwrap_or_else(|| {
            Arc::new(SurrogateJudgeBackend::new(
                self.config.judge_profile.clone(),
                self.config.judge_style,
                self.config.judge_seed,
            ))
        });
        if let Some(scale) = self.judge_pacing.filter(|s| *s > 0.0) {
            judge = Arc::new(PacedJudge::new(judge, scale));
        }
        let exec = self
            .exec
            .unwrap_or_else(|| Arc::new(SimExecBackend::default()));
        let mut sim_compile = self.sim_compile;
        let compile: Arc<dyn CompileBackend> = match self.compile {
            Some(backend) => backend,
            None => {
                let cache = self.cache.unwrap_or_else(CompileCache::shared);
                let backend = Arc::new(match &self.store {
                    Some(store) => SimCompileBackend::persistent(Arc::new(PersistentCache::new(
                        cache,
                        Arc::clone(store),
                    ))),
                    None => SimCompileBackend::cached(cache),
                });
                sim_compile = Some(Arc::clone(&backend));
                backend
            }
        };
        // Whole-record persistence requires every stage to pin its
        // configuration; one abstaining backend disables the layer.
        let record_store = self.store.as_ref().and_then(|store| {
            let compile_fp = compile.fingerprint()?;
            let exec_fp = exec.fingerprint()?;
            let judge_fp = judge.fingerprint()?;
            Some(Arc::new(RecordStore::new(
                Arc::clone(store),
                self.config.mode,
                &compile_fp,
                &exec_fp,
                &judge_fp,
            )))
        });
        ValidationService {
            config: self.config,
            strategy: self.strategy,
            compile,
            sim_compile,
            exec,
            judge,
            record_store,
        }
    }
}

/// The validation service (see the module docs).
#[derive(Clone)]
pub struct ValidationService {
    config: PipelineConfig,
    strategy: ExecutionStrategy,
    compile: Arc<dyn CompileBackend>,
    /// The same backend as `compile` when it is the default simulated one
    /// (executor threads lease sessions through this handle); `None` for
    /// custom backends.
    sim_compile: Option<Arc<SimCompileBackend>>,
    exec: Arc<dyn ExecBackend>,
    judge: Arc<dyn JudgeBackend>,
    /// Whole-record persistence layer, when an artifact store is attached
    /// and every backend pins its configuration.
    record_store: Option<Arc<RecordStore>>,
}

impl std::fmt::Debug for ValidationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationService")
            .field("config", &self.config)
            .field("strategy", &self.strategy)
            .field("compile", &self.compile.name())
            .field("exec", &self.exec.name())
            .field("judge", &self.judge.name())
            .finish()
    }
}

impl Default for ValidationService {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl ValidationService {
    /// A builder with default config, strategy and backends.
    pub fn builder() -> ValidationServiceBuilder {
        ValidationServiceBuilder::default()
    }

    /// The effective configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The scheduling strategy in effect.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The whole-record persistence layer, when active (an artifact store
    /// was attached and every stage backend stated a fingerprint). The
    /// campaign delta planner probes this to split a corpus into
    /// already-stored and fresh work.
    pub fn record_store(&self) -> Option<&Arc<RecordStore>> {
        self.record_store.as_ref()
    }

    /// Batch entry point: run `items` to completion and return the records
    /// in submission order plus aggregate statistics.
    pub fn run(&self, items: Vec<WorkItem>) -> PipelineRun {
        let stream = self.submit(items);
        stream.into_run()
    }

    /// Streaming entry point for corpus pipelines: drain a
    /// [`CaseSource`] directly. Generation (and probing, when the source
    /// includes a `probe` stage) happens lazily on the worker threads as
    /// they admit more work, so generation → compile → execute → judge
    /// runs end-to-end in constant memory — the suite is never
    /// materialized, whatever its size.
    pub fn submit_source<S>(&self, source: S) -> RecordStream
    where
        S: CaseSource + Send + 'static,
    {
        self.submit(source.into_cases().map(WorkItem::from))
    }

    /// Drain a [`CaseSource`] to completion and return the records in
    /// stream order plus aggregate statistics (the batch counterpart of
    /// [`ValidationService::submit_source`]). The records are materialized,
    /// so prefer `submit_source` for very large corpora.
    pub fn run_source<S>(&self, source: S) -> PipelineRun
    where
        S: CaseSource + Send + 'static,
    {
        self.submit_source(source).into_run()
    }

    /// Streaming entry point: feed an iterator of work items, get an
    /// iterator of records in submission order. Input is pulled lazily and
    /// the output channel is bounded, so memory stays constant for
    /// arbitrarily large suites.
    pub fn submit<I>(&self, items: I) -> RecordStream
    where
        I: IntoIterator<Item = WorkItem>,
        I::IntoIter: Send + 'static,
    {
        let started = Instant::now();
        let stats = Arc::new(Mutex::new(PipelineStats::default()));
        let capacity = self.config.channel_capacity.max(1);
        let (tx_done, rx_done) = bounded::<CaseRecord>(capacity);
        let items = items.into_iter();
        let handles = match self.strategy {
            ExecutionStrategy::Sequential => {
                let service = self.clone();
                let stats = Arc::clone(&stats);
                vec![std::thread::spawn(move || {
                    let mut local = PipelineStats::default();
                    let mut lease = service.lease();
                    for item in items {
                        local.submitted += 1;
                        let record = service.process_leased(&item, &mut local, &mut lease);
                        // A failed send means the consumer dropped the
                        // stream: stop pulling input.
                        if tx_done.send(record).is_err() {
                            break;
                        }
                    }
                    stats.lock().merge(&local);
                })]
            }
            ExecutionStrategy::Pipelined { workers } => {
                let workers = if workers == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    workers
                };
                crate::parallel::spawn(self.clone(), items, tx_done, &stats, capacity, workers)
            }
        };
        RecordStream {
            rx: Some(rx_done),
            stats,
            handles,
            started,
            finished: None,
            record_store: self.record_store.clone(),
        }
    }

    /// Run every stage for one item on the calling thread, folding its
    /// provenance into `stats` (everything but `submitted`, which the
    /// caller counts). This is the one per-case function: both strategies'
    /// threads run every case through it (holding a compile-session lease
    /// for their lifetime instead of one per call), and external
    /// schedulers call it directly — the validation server's tenant-fair
    /// worker pool dispatches through it.
    ///
    /// The record-store replay/persist layer is included, so by the
    /// strategy-parity and replay laws the returned record is
    /// byte-identical to what [`ValidationService::submit`] yields for the
    /// same item, whatever thread or order a scheduler picks.
    pub fn process_case(&self, item: &WorkItem, stats: &mut PipelineStats) -> CaseRecord {
        self.process_leased(item, stats, &mut self.lease())
    }

    /// A compile-session lease on the default simulated backend, for a
    /// thread that compiles many cases; `None` when a custom compile
    /// backend is plugged in (it is called per case instead).
    pub(crate) fn lease(&self) -> Option<SessionLease<'_>> {
        self.sim_compile.as_deref().map(SessionLease::new)
    }

    /// [`ValidationService::process_case`], compiling through the caller's
    /// `lease` (from [`ValidationService::lease`] on this service).
    pub(crate) fn process_leased(
        &self,
        item: &WorkItem,
        stats: &mut PipelineStats,
        lease: &mut Option<SessionLease<'_>>,
    ) -> CaseRecord {
        if let Some(store) = &self.record_store {
            if let Some(record) = store.lookup(item) {
                stats.store_hits += 1;
                // Replay the stored stages into the aggregates, so
                // hit-heavy runs report the same stage counters as cold
                // ones.
                stats.observe_record(&record);
                return record;
            }
            stats.store_misses += 1;
        }
        let record = self.process_fresh(item, stats, lease);
        if let Some(store) = &self.record_store {
            store.persist(item, &record);
        }
        record
    }

    /// The three stages proper, bypassing the store layer.
    fn process_fresh(
        &self,
        item: &WorkItem,
        stats: &mut PipelineStats,
        lease: &mut Option<SessionLease<'_>>,
    ) -> CaseRecord {
        let mode = self.config.mode;
        let CompileOutput {
            summary: compile,
            artifact,
            signals,
            fetch,
        } = match lease {
            Some(lease) => lease.compile(item),
            None => self.compile.compile(item),
        };
        stats.compiled += 1;
        if !compile.succeeded {
            stats.compile_failures += 1;
        }
        match fetch {
            Some(CompileFetch::Fresh) => stats.compile_cache_misses += 1,
            Some(_) => stats.compile_cache_hits += 1,
            None => {}
        }
        if !compile.succeeded && mode == PipelineMode::EarlyExit {
            return CaseRecord {
                id: item.id.clone(),
                compile,
                exec: None,
                judgement: None,
            };
        }
        let exec = artifact
            .as_ref()
            .map(|program| self.exec.execute(item, program));
        if let Some(exec) = &exec {
            stats.executed += 1;
            if !exec.passed {
                stats.exec_failures += 1;
            }
        }
        let exec_failed = exec.as_ref().is_none_or(|e| !e.passed);
        if exec_failed && mode == PipelineMode::EarlyExit {
            return CaseRecord {
                id: item.id.clone(),
                compile,
                exec,
                judgement: None,
            };
        }
        let judgement = self
            .judge
            .judge(item, &compile, exec.as_ref(), signals.as_deref());
        stats.judged += 1;
        stats.observe_judge_latency_ms(judgement.latency_ms);
        if !judgement.verdict_or_invalid().is_valid() {
            stats.judge_rejections += 1;
        }
        CaseRecord {
            id: item.id.clone(),
            compile,
            exec,
            judgement: Some(judgement),
        }
    }
}

/// Streaming result iterator returned by [`ValidationService::submit`].
///
/// Yields one [`CaseRecord`] per submitted item, **in submission order**,
/// under either [`ExecutionStrategy`]: the sequential worker processes
/// items in order, and the pipelined executor releases completed records
/// through a reorder buffer. After the iterator is exhausted,
/// [`RecordStream::stats`] reports the final aggregate statistics.
/// Dropping the stream early cancels the remaining work: the worker
/// threads observe the closed channel and exit, and the unprocessed tail
/// of the input iterator is never pulled.
///
/// A panic inside a backend is not lost: it is captured when the worker is
/// reaped and resumed on the consuming thread (from `next()` returning
/// `None`, from [`RecordStream::into_run`], or from `drop`), matching the
/// propagation behaviour of the scoped-thread runners this replaces.
pub struct RecordStream {
    rx: Option<Receiver<CaseRecord>>,
    stats: Arc<Mutex<PipelineStats>>,
    handles: Vec<JoinHandle<()>>,
    started: Instant,
    finished: Option<std::time::Duration>,
    /// Flushed when the stream completes, so every record processed
    /// through a finished stream is durable.
    record_store: Option<Arc<RecordStore>>,
}

impl RecordStream {
    /// A snapshot of the statistics so far. `wall_time` is the time since
    /// `submit` was called, latched at completion once the stream is
    /// exhausted (so the snapshot is final and stable from then on).
    ///
    /// The per-case counters live in worker-private accumulators merged
    /// when each worker retires (no shared mutable state on the case
    /// path), so mid-run snapshots lag behind the records already yielded;
    /// the post-completion snapshot is exact under either strategy.
    pub fn stats(&self) -> PipelineStats {
        let mut stats = self.stats.lock().clone();
        stats.wall_time = self.finished.unwrap_or_else(|| self.started.elapsed());
        stats
    }

    /// Drain the stream into a [`PipelineRun`] (records in submission
    /// order, as the stream yields them).
    ///
    /// Records already consumed through `next()` cannot be recovered: the
    /// run contains only the *remaining* records, while the statistics
    /// still count every processed file. Call this before iterating (as
    /// [`ValidationService::run`] does) to get the complete batch.
    pub fn into_run(mut self) -> PipelineRun {
        let records = match self.rx.take() {
            Some(rx) => rx.iter().collect(),
            None => Vec::new(),
        };
        self.finish();
        PipelineRun::new(records, self.stats())
    }

    /// Reap the worker threads, latch the wall time, flush the record
    /// store, and re-raise the first worker panic (if any) on this thread.
    fn finish(&mut self) {
        let panic = self.join_workers();
        self.finished.get_or_insert_with(|| self.started.elapsed());
        if let Some(store) = &self.record_store {
            store.flush();
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    fn join_workers(&mut self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        let mut first_panic = None;
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }
}

impl Iterator for RecordStream {
    type Item = CaseRecord;

    fn next(&mut self) -> Option<CaseRecord> {
        match self.rx.as_ref()?.recv() {
            Ok(record) => Some(record),
            Err(_) => {
                // All workers have dropped their senders; reap the threads
                // so `stats()` is final (and any backend panic surfaces)
                // when `next` returns `None`.
                self.rx = None;
                self.finish();
                None
            }
        }
    }
}

impl Drop for RecordStream {
    fn drop(&mut self) {
        // Close the channel first so blocked workers wake up and exit.
        self.rx = None;
        let panic = self.join_workers();
        self.finished.get_or_insert_with(|| self.started.elapsed());
        if let Some(store) = &self.record_store {
            store.flush();
        }
        // Surface a backend panic even on early drop, but never while this
        // thread is already unwinding (a double panic would abort).
        if let Some(payload) = panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;
    use vv_simcompiler::Lang;

    #[test]
    fn a_shared_cache_with_a_store_compiles_through_the_disk_tier() {
        let dir = std::env::temp_dir().join(format!("vv-service-disk-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_shared(&dir).expect("open store");
        let items: Vec<WorkItem> = (0..12)
            .map(|i| WorkItem {
                id: format!("case-{i}"),
                source: format!("int main() {{ int x = {i}; return 0; }}"),
                lang: Lang::C,
                model: DirectiveModel::OpenAcc,
            })
            .collect();
        let first = ValidationService::builder()
            .compile_cache(CompileCache::shared())
            .artifact_store(Arc::clone(&store))
            .build()
            .run(items.clone());
        // A fresh memory cache and a new judge seed: no record replays, so
        // every compile must come from the store the first service filled.
        let second = ValidationService::builder()
            .compile_cache(CompileCache::shared())
            .artifact_store(Arc::clone(&store))
            .judge_seed(7)
            .build()
            .run(items.clone());
        let stats = &second.stats;
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.compiled, items.len());
        assert_eq!(stats.compile_cache_misses, 0);
        assert_eq!(stats.compile_cache_hits, stats.compiled);
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.compile, b.compile);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
