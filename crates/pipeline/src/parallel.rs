//! The multi-worker executor behind
//! [`crate::ExecutionStrategy::Pipelined`].
//!
//! # Topology
//!
//! `workers` identical threads each run whole cases: a worker admits the
//! next case from the shared input, runs it through the service's one
//! per-case function ([`crate::ValidationService::process_case`], with a
//! compile-session lease the worker holds for its lifetime), and hands the
//! record to the reorder buffer. Cases overlap across workers rather than
//! across stages, so no stage transition ever crosses a thread and a
//! single worker runs exactly the sequential schedule.
//!
//! # Constant memory
//!
//! Input is pulled lazily from the caller's iterator, gated by a global
//! in-flight window (cases admitted but not yet yielded). The window is
//! only reached when the consumer or a straggling case stalls; workers
//! that find it full park until an emission frees space. The only
//! blocking send — into the bounded output channel — happens after all
//! work for the case is done, so no worker holds a case another worker
//! needs while it blocks.
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
//! sharded ([`vv_simcompiler::DEFAULT_CACHE_SHARDS`] ways) with per-shard
//! locks and counters. What remains shared — the admission iterator and
//! the reorder buffer — is touched once per case, not per unit of stage
//! work.
//!
//! # Shutdown and panics
//!
//! Dropping the [`crate::RecordStream`] closes the output channel; the
//! next emission attempt observes the disconnect and flips the cancel
//! flag, and every worker (parked workers time out on a short condvar
//! wait) drains out promptly. A panicking backend sets the same flag from
//! the worker's drop guard, so the remaining workers retire, the stream's
//! join re-raises the panic on the consumer thread, and no thread is
//! leaked. The early-drop stress test in `tests/parallel_parity.rs`
//! exercises the first path; the mid-run backend-panic sweep in
//! `runner.rs` exercises the second.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::Sender;

use crate::service::ValidationService;
use crate::stats::PipelineStats;
use crate::{CaseRecord, WorkItem};

/// How long an idle worker sleeps before re-checking on its own. Wakeups
/// are normally driven by the notification generation counter; the timeout
/// is the liveness backstop that bounds shutdown latency even if a wakeup
/// is lost.
const IDLE_PARK: Duration = Duration::from_millis(5);

/// The lazy input iterator plus the admission ordinal counter.
struct InputState {
    items: Box<dyn Iterator<Item = WorkItem> + Send>,
    next_seq: usize,
}

/// The submission-order release buffer in front of the output channel:
/// completed records keyed by ordinal, waiting for their predecessors.
struct Reorder {
    tx: Option<Sender<CaseRecord>>,
    pending: BTreeMap<usize, CaseRecord>,
    next_emit: usize,
}

/// State shared by every worker of one pipelined run.
struct Core {
    service: ValidationService,
    /// Bound on cases admitted but not yet released to the consumer.
    window: usize,
    input: Mutex<InputState>,
    /// Set under the `input` lock once the iterator is exhausted.
    input_done: AtomicBool,
    in_flight: AtomicUsize,
    reorder: Mutex<Reorder>,
    /// Wakeup bookkeeping: a generation counter bumped by every
    /// notification, so a worker that observed generation `g` before its
    /// final admission attempt can sleep without racing an emission that
    /// happened in between.
    monitor: Mutex<u64>,
    wakeup: Condvar,
    cancelled: AtomicBool,
    stats: Arc<parking_lot::Mutex<PipelineStats>>,
}

/// Spawn the pipelined executor: `workers` identical threads over the
/// shared core. Called by `ValidationService::submit`.
pub(crate) fn spawn(
    service: ValidationService,
    items: impl Iterator<Item = WorkItem> + Send + 'static,
    tx_done: Sender<CaseRecord>,
    stats: &Arc<parking_lot::Mutex<PipelineStats>>,
    capacity: usize,
    workers: usize,
) -> Vec<JoinHandle<()>> {
    let workers = workers.max(1);
    let core = Arc::new(Core {
        service,
        // At least two cases per worker keeps every thread busy while the
        // reorder buffer waits on a straggler; the channel capacity sets
        // the floor, so a configured capacity bounds memory as documented.
        window: capacity.max(2 * workers),
        input: Mutex::new(InputState {
            items: Box::new(items),
            next_seq: 0,
        }),
        input_done: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            tx: Some(tx_done),
            pending: BTreeMap::new(),
            next_emit: 0,
        }),
        monitor: Mutex::new(0),
        wakeup: Condvar::new(),
        cancelled: AtomicBool::new(false),
        stats: Arc::clone(stats),
    });
    (0..workers)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker(core))
        })
        .collect()
}

fn lock_poison_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Core {
    /// Bump the notification generation and wake every parked worker.
    fn notify(&self) {
        *lock_poison_ok(&self.monitor) += 1;
        self.wakeup.notify_all();
    }

    fn generation(&self) -> u64 {
        *lock_poison_ok(&self.monitor)
    }

    /// Sleep until the generation moves past `observed` (or the liveness
    /// timeout elapses).
    fn park(&self, observed: u64) {
        let guard = lock_poison_ok(&self.monitor);
        if *guard != observed {
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

    /// True once no worker will ever admit another case: the input
    /// iterator is exhausted (cases still in flight are finished by the
    /// workers that admitted them), or the run was cancelled.
    fn finished(&self) -> bool {
        self.cancelled() || self.input_done.load(Ordering::Acquire)
    }

    /// The next case to run, parking while the in-flight window is full;
    /// `None` once the run is finished.
    fn next_case(&self) -> Option<(usize, WorkItem)> {
        loop {
            if self.cancelled() {
                return None;
            }
            if let Some(case) = self.admit() {
                return Some(case);
            }
            // Snapshot the generation, re-check once (an emission may have
            // freed window space after the first attempt), then park
            // against the snapshot: a notification between snapshot and
            // park bumps the generation and the park returns immediately.
            let observed = self.generation();
            if self.finished() {
                return None;
            }
            if let Some(case) = self.admit() {
                return Some(case);
            }
            self.park(observed);
        }
    }

    /// Pull one new case from the input iterator, if the in-flight window
    /// has room.
    fn admit(&self) -> Option<(usize, WorkItem)> {
        if self.in_flight.load(Ordering::Acquire) >= self.window {
            return None;
        }
        let mut input = lock_poison_ok(&self.input);
        if self.input_done.load(Ordering::Acquire) {
            return None;
        }
        let Some(item) = input.items.next() else {
            self.input_done.store(true, Ordering::Release);
            drop(input);
            // Wake parked workers so they observe the exhaustion and retire.
            self.notify();
            return None;
        };
        let seq = input.next_seq;
        input.next_seq += 1;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        Some((seq, item))
    }

    /// Hand a completed record to the reorder buffer, releasing every
    /// consecutive ordinal that is now ready. Send failures mean the
    /// consumer dropped the stream: flip the cancel flag so the run winds
    /// down.
    fn emit(&self, seq: usize, record: CaseRecord) {
        let mut reorder = lock_poison_ok(&self.reorder);
        reorder.pending.insert(seq, record);
        let mut released = 0usize;
        loop {
            let next = reorder.next_emit;
            let Some(record) = reorder.pending.remove(&next) else {
                break;
            };
            reorder.next_emit = next + 1;
            released += 1;
            let disconnected = match &reorder.tx {
                Some(tx) => tx.send(record).is_err(),
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
            // Window space freed: wake admission-blocked workers.
            self.notify();
        }
    }
}

/// Per-worker private statistics, merged through `Drop` so partial
/// statistics survive a backend panic — and so a panic cancels the run
/// instead of leaving the other workers waiting for an ordinal that will
/// never emit.
struct WorkerState {
    core: Arc<Core>,
    local: PipelineStats,
}

impl Drop for WorkerState {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.cancel();
        }
        self.core.stats.lock().merge(&self.local);
    }
}

/// One worker thread: admit a case, run it, emit its record; retire when
/// the input is exhausted (or the run is cancelled).
fn worker(core: Arc<Core>) {
    let mut state = WorkerState {
        core: Arc::clone(&core),
        local: PipelineStats::default(),
    };
    let mut lease = core.service.lease();
    while let Some((seq, item)) = core.next_case() {
        state.local.submitted += 1;
        let record = core
            .service
            .process_leased(&item, &mut state.local, &mut lease);
        core.emit(seq, record);
    }
}
