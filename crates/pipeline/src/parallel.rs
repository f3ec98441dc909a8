//! The stage-pipelined, work-stealing parallel executor behind
//! [`crate::ExecutionStrategy::Pipelined`].
//!
//! # Topology
//!
//! Every worker owns the whole pipeline: three shared [`Injector`] queues
//! (compile → execute → judge) hold the stage transitions, and each of the
//! `workers` threads pops from its
//! *home* stage first — homes are distributed by measured per-case stage
//! cost, execute-heavy — then steals from the other stages,
//! downstream-first, whenever its home queue is empty. A worker that finds
//! every queue empty admits new input. The result is a schedule that
//! pipelines across stages *and* parallelizes within them, with no thread
//! ever idle while any stage has work, at any worker count (a single
//! worker degenerates to exactly the sequential schedule).
//!
//! # Constant memory
//!
//! Input is pulled lazily from the caller's iterator, gated by a global
//! in-flight window (cases admitted but not yet yielded). Because
//! admission is every worker's *last* resort, queue depths stay near zero
//! under steady state and the window is only reached when the consumer or
//! a stage stalls. Nothing in the executor blocks while holding queue
//! space: stage transitions are pushes, and the only blocking send — into
//! the bounded output channel — happens after all stage work for the case
//! is done, so the classic pipeline deadlock (a full downstream channel
//! holding up the stage that must drain it) cannot be constructed.
//!
//! # Submission order
//!
//! Every case carries its submission ordinal; completed records pass
//! through a reorder buffer that releases ordinal `n + 1` only after `n`.
//! Input is admitted in ordinal order, so a missing ordinal is always in
//! flight and the buffer never holds more than the in-flight window —
//! [`crate::RecordStream`] therefore yields records in submission order
//! under this strategy, at every worker count.
//!
//! # No shared mutable hot state
//!
//! Per-case work touches no shared lock: each worker accumulates a
//! private [`PipelineStats`] merged into the run's aggregate when the
//! worker retires (exact under the accumulator-merge law), and each
//! worker leases its own `CompileSession`s (returned to the backend's
//! pool at exit). The compile cache the sessions share is internally
//! sharded ([`vv_simcompiler::CompileCache::with_shards`]) with per-shard
//! locks and counters. What remains shared — the stage queues, the
//! reorder buffer, the admission iterator — is touched once per stage
//! transition, not per unit of stage work.
//!
//! # Shutdown and panics
//!
//! Dropping the [`crate::RecordStream`] closes the output channel; the
//! next emission attempt observes the disconnect and flips the cancel
//! flag, and every worker (parked workers time out on a short condvar
//! wait) drains out promptly. A panicking backend sets the same flag from
//! the worker's drop guard, so the remaining workers retire, the stream's
//! join re-raises the panic on the consumer thread, and no thread is
//! leaked — the early-drop stress test in `tests/parallel_parity.rs`
//! exercises both paths.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::Sender;
use crossbeam::deque::{Injector, Steal};

use crate::backend::{
    CompileBackend, CompileOutput, ExecBackend, JudgeBackend, SimCompileBackend,
    MAX_SESSION_SYMBOLS,
};
use crate::persist::RecordStore;
use crate::stats::PipelineStats;
use crate::{CaseRecord, CompileSummary, ExecSummary, PipelineMode, WorkItem};
use vv_dclang::DirectiveModel;
use vv_judge::CodeSignals;
use vv_simcompiler::{CompileFetch, CompileSession, Program};

/// Stage indices into the queue array.
const COMPILE: usize = 0;
const EXEC: usize = 1;
const JUDGE: usize = 2;

/// How long an idle worker sleeps before re-scanning on its own. Wakeups
/// are normally driven by the notification generation counter; the timeout
/// is the liveness backstop that bounds shutdown latency even if a wakeup
/// is lost.
const IDLE_PARK: Duration = Duration::from_millis(5);

/// Everything the executor needs from the service (the service's fields
/// are private to its module; this bundle crosses the module boundary).
pub(crate) struct PipelineSpec {
    pub(crate) mode: PipelineMode,
    pub(crate) compile: Arc<dyn CompileBackend>,
    /// The concrete default backend when the service is running one, which
    /// unlocks per-worker session leases; `None` falls back to the
    /// object-safe per-call path.
    pub(crate) sim_compile: Option<Arc<SimCompileBackend>>,
    pub(crate) exec: Arc<dyn ExecBackend>,
    pub(crate) judge: Arc<dyn JudgeBackend>,
    pub(crate) record_store: Option<Arc<RecordStore>>,
}

/// A case in flight, tagged with its submission ordinal.
enum Task {
    Compile {
        seq: usize,
        item: WorkItem,
    },
    Exec {
        seq: usize,
        item: WorkItem,
        compile: CompileSummary,
        artifact: Option<Program>,
        signals: Option<Arc<CodeSignals>>,
    },
    Judge {
        seq: usize,
        item: WorkItem,
        compile: CompileSummary,
        exec: Option<ExecSummary>,
        signals: Option<Arc<CodeSignals>>,
    },
}

/// The lazy input iterator plus the admission ordinal counter.
struct InputState {
    items: Box<dyn Iterator<Item = WorkItem> + Send>,
    next_seq: usize,
    done: bool,
}

/// A completed record waiting for its predecessors. Ordering is by
/// ordinal only, reversed so [`BinaryHeap`] (a max-heap) pops the
/// smallest ordinal first.
struct Pending {
    seq: usize,
    record: CaseRecord,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.seq.cmp(&self.seq)
    }
}

/// The submission-order release buffer in front of the output channel.
struct Reorder {
    tx: Option<Sender<CaseRecord>>,
    pending: BinaryHeap<Pending>,
    next_emit: usize,
}

/// Wakeup bookkeeping: a generation counter bumped by every notification,
/// so a worker that observed generation `g` before its final empty scan
/// can sleep without racing a push that happened in between.
struct MonitorState {
    generation: u64,
}

/// State shared by every worker of one pipelined run.
struct Core {
    spec: PipelineSpec,
    /// Bound on cases admitted but not yet released to the consumer.
    window: usize,
    queues: [Injector<Task>; 3],
    input: Mutex<InputState>,
    input_done: AtomicBool,
    in_flight: AtomicUsize,
    reorder: Mutex<Reorder>,
    monitor: Mutex<MonitorState>,
    wakeup: Condvar,
    cancelled: AtomicBool,
    stats: Arc<parking_lot::Mutex<PipelineStats>>,
}

/// Spawn the pipelined executor: `workers` identical threads over the
/// shared core. Called by `ValidationService::submit`.
pub(crate) fn spawn(
    spec: PipelineSpec,
    items: impl Iterator<Item = WorkItem> + Send + 'static,
    tx_done: Sender<CaseRecord>,
    stats: &Arc<parking_lot::Mutex<PipelineStats>>,
    capacity: usize,
    workers: usize,
) -> Vec<JoinHandle<()>> {
    let workers = workers.max(1);
    let core = Arc::new(Core {
        spec,
        // At least two cases per worker keeps every thread busy while the
        // reorder buffer waits on a straggler; the channel capacity sets
        // the floor, so a configured capacity bounds memory as documented.
        window: capacity.max(2 * workers),
        queues: [Injector::new(), Injector::new(), Injector::new()],
        input: Mutex::new(InputState {
            items: Box::new(items),
            next_seq: 0,
            done: false,
        }),
        input_done: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            tx: Some(tx_done),
            pending: BinaryHeap::new(),
            next_emit: 0,
        }),
        monitor: Mutex::new(MonitorState { generation: 0 }),
        wakeup: Condvar::new(),
        cancelled: AtomicBool::new(false),
        stats: Arc::clone(stats),
    });
    (0..workers)
        .map(|index| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker(core, home_stage(index)))
        })
        .collect()
}

/// The home stage of worker `index`. Homes are distributed by measured
/// per-case stage cost (BENCH_PR5: execute dominates by ~5x over judge
/// and ~50x over a cached compile — weights 1:7:2), so pop priorities
/// roughly match where the cycles go; work stealing reassigns threads the
/// moment reality differs (e.g. under a latency-paced judge, where the
/// judge stage dominates instead).
fn home_stage(index: usize) -> usize {
    const PATTERN: [usize; 10] = [
        EXEC, EXEC, JUDGE, EXEC, EXEC, COMPILE, EXEC, JUDGE, EXEC, EXEC,
    ];
    PATTERN[index % PATTERN.len()]
}

fn lock_poison_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Core {
    /// Bump the notification generation and wake every parked worker.
    fn notify(&self) {
        lock_poison_ok(&self.monitor).generation += 1;
        self.wakeup.notify_all();
    }

    fn generation(&self) -> u64 {
        lock_poison_ok(&self.monitor).generation
    }

    /// Sleep until the generation moves past `observed` (or the liveness
    /// timeout elapses).
    fn park(&self, observed: u64) {
        let guard = lock_poison_ok(&self.monitor);
        if guard.generation != observed {
            return;
        }
        let _ = self
            .wakeup
            .wait_timeout(guard, IDLE_PARK)
            .unwrap_or_else(|poison| poison.into_inner());
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.notify();
    }

    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// True once no case will ever need work again: the input iterator is
    /// exhausted and every admitted case has been released (or the run was
    /// cancelled).
    fn finished(&self) -> bool {
        self.cancelled()
            || (self.input_done.load(Ordering::Acquire)
                && self.in_flight.load(Ordering::Acquire) == 0)
    }

    /// Find the next task: home queue, then the other stages
    /// downstream-first, then new input (admission is the last resort, so
    /// in-flight cases drain before new ones enter and queue depths stay
    /// near zero).
    fn find_task(&self, home: usize) -> Option<Task> {
        let order = match home {
            COMPILE => [COMPILE, JUDGE, EXEC],
            EXEC => [EXEC, JUDGE, COMPILE],
            _ => [JUDGE, EXEC, COMPILE],
        };
        for stage in order {
            loop {
                match self.queues[stage].steal() {
                    Steal::Success(task) => return Some(task),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        self.admit()
    }

    /// Pull one new case from the input iterator, if the in-flight window
    /// has room.
    fn admit(&self) -> Option<Task> {
        if self.in_flight.load(Ordering::Acquire) >= self.window {
            return None;
        }
        let mut input = lock_poison_ok(&self.input);
        if input.done {
            return None;
        }
        match input.items.next() {
            Some(item) => {
                let seq = input.next_seq;
                input.next_seq += 1;
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                Some(Task::Compile { seq, item })
            }
            None => {
                input.done = true;
                drop(input);
                self.input_done.store(true, Ordering::Release);
                // Wake idlers so they observe the exhaustion and retire.
                self.notify();
                None
            }
        }
    }

    /// Push a stage transition and wake a worker for it.
    fn forward(&self, stage: usize, task: Task) {
        self.queues[stage].push(task);
        self.notify();
    }

    /// Hand a completed record to the reorder buffer, releasing every
    /// consecutive ordinal that is now ready. Send failures mean the
    /// consumer dropped the stream: flip the cancel flag so the run winds
    /// down.
    fn emit(&self, seq: usize, record: CaseRecord) {
        let mut reorder = lock_poison_ok(&self.reorder);
        reorder.pending.push(Pending { seq, record });
        let mut released = 0usize;
        while reorder
            .pending
            .peek()
            .is_some_and(|p| p.seq == reorder.next_emit)
        {
            let pending = reorder.pending.pop().expect("peeked entry");
            reorder.next_emit += 1;
            released += 1;
            let disconnected = match &reorder.tx {
                Some(tx) => tx.send(pending.record).is_err(),
                None => true,
            };
            if disconnected {
                reorder.tx = None;
                reorder.pending.clear();
                drop(reorder);
                self.cancel();
                return;
            }
        }
        drop(reorder);
        if released > 0 {
            self.in_flight.fetch_sub(released, Ordering::AcqRel);
            // Window space freed (and possibly the run finished): wake
            // admission-blocked and retiring workers.
            self.notify();
        }
    }
}

/// Per-worker private state, cleaned up through `Drop` so sessions return
/// to the pool and partial statistics merge even when a backend panics —
/// and so a panic cancels the run instead of leaving the other workers
/// waiting for an ordinal that will never emit.
struct WorkerState {
    core: Arc<Core>,
    local: PipelineStats,
    sessions: HashMap<DirectiveModel, CompileSession>,
}

impl Drop for WorkerState {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.cancel();
        }
        if let Some(sim) = &self.core.spec.sim_compile {
            for (model, session) in self.sessions.drain() {
                sim.return_session(model, session);
            }
        }
        self.core.stats.lock().merge(&self.local);
        // A retiring worker may be the one whose emission completed the
        // run; make sure parked peers re-check promptly.
        self.core.notify();
    }
}

impl WorkerState {
    /// Compile through this worker's leased session when the concrete
    /// backend allows it (no pool round-trip per case), or through the
    /// object-safe backend otherwise.
    fn compile(&mut self, item: &WorkItem) -> CompileOutput {
        match &self.core.spec.sim_compile {
            Some(sim) => {
                let session = self
                    .sessions
                    .entry(item.model)
                    .or_insert_with(|| sim.take_session(item.model));
                if session.interner().len() > MAX_SESSION_SYMBOLS {
                    // Same retirement rule as the pooled path: a
                    // pathological corpus must not grow the interner
                    // without bound.
                    *session = sim.take_session(item.model);
                }
                sim.compile_with(session, item)
            }
            None => self.core.spec.compile.compile(item),
        }
    }
}

/// One worker thread: scan for work, process, retire when the run is
/// complete (or cancelled).
fn worker(core: Arc<Core>, home: usize) {
    let mut state = WorkerState {
        core: Arc::clone(&core),
        local: PipelineStats::default(),
        sessions: HashMap::new(),
    };
    loop {
        if core.cancelled() {
            break;
        }
        if let Some(task) = core.find_task(home) {
            run_task(&mut state, task);
            continue;
        }
        // Empty scan. Snapshot the generation, re-scan once (a push may
        // have raced the first scan), then park against the snapshot: a
        // notification between snapshot and park bumps the generation and
        // the park returns immediately.
        let observed = core.generation();
        if core.finished() {
            break;
        }
        if let Some(task) = core.find_task(home) {
            run_task(&mut state, task);
            continue;
        }
        core.park(observed);
    }
}

/// Run one stage for one case. Identical per-case semantics to
/// `ValidationService::process_case` — the parity tests pin this.
fn run_task(state: &mut WorkerState, task: Task) {
    match task {
        Task::Compile { seq, item } => {
            state.local.submitted += 1;
            let core = Arc::clone(&state.core);
            if let Some(store) = &core.spec.record_store {
                if let Some(record) = store.lookup(&item) {
                    state.local.store_hits += 1;
                    // Replay the stored stages into the aggregates, so
                    // hit-heavy runs report the same stage counters as
                    // cold ones.
                    state.local.observe_record(&record);
                    core.emit(seq, record);
                    return;
                }
                state.local.store_misses += 1;
            }
            let CompileOutput {
                summary: compile,
                artifact,
                signals,
                fetch,
            } = state.compile(&item);
            state.local.compiled += 1;
            if !compile.succeeded {
                state.local.compile_failures += 1;
            }
            match fetch {
                Some(CompileFetch::Fresh) => state.local.compile_cache_misses += 1,
                Some(_) => state.local.compile_cache_hits += 1,
                None => {}
            }
            if !compile.succeeded && core.spec.mode == PipelineMode::EarlyExit {
                let record = CaseRecord {
                    id: item.id.clone(),
                    compile,
                    exec: None,
                    judgement: None,
                };
                if let Some(store) = &core.spec.record_store {
                    store.persist(&item, &record);
                }
                core.emit(seq, record);
                return;
            }
            core.forward(
                EXEC,
                Task::Exec {
                    seq,
                    item,
                    compile,
                    artifact,
                    signals,
                },
            );
        }
        Task::Exec {
            seq,
            item,
            compile,
            artifact,
            signals,
        } => {
            let core = Arc::clone(&state.core);
            let exec = artifact
                .as_ref()
                .map(|program| core.spec.exec.execute(&item, program));
            if exec.is_some() {
                state.local.executed += 1;
                if exec.as_ref().is_some_and(|e| !e.passed) {
                    state.local.exec_failures += 1;
                }
            }
            let failed = exec.as_ref().is_none_or(|e| !e.passed);
            if failed && core.spec.mode == PipelineMode::EarlyExit {
                let record = CaseRecord {
                    id: item.id.clone(),
                    compile,
                    exec,
                    judgement: None,
                };
                if let Some(store) = &core.spec.record_store {
                    store.persist(&item, &record);
                }
                core.emit(seq, record);
                return;
            }
            core.forward(
                JUDGE,
                Task::Judge {
                    seq,
                    item,
                    compile,
                    exec,
                    signals,
                },
            );
        }
        Task::Judge {
            seq,
            item,
            compile,
            exec,
            signals,
        } => {
            let core = Arc::clone(&state.core);
            let judgement =
                core.spec
                    .judge
                    .judge(&item, &compile, exec.as_ref(), signals.as_deref());
            state.local.judged += 1;
            state.local.observe_judge_latency_ms(judgement.latency_ms);
            if !judgement.verdict_or_invalid().is_valid() {
                state.local.judge_rejections += 1;
            }
            let record = CaseRecord {
                id: item.id.clone(),
                compile,
                exec,
                judgement: Some(judgement),
            };
            if let Some(store) = &core.spec.record_store {
                store.persist(&item, &record);
            }
            core.emit(seq, record);
        }
    }
}
