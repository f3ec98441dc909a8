//! Outside-in tracing: timing decorators around the pipeline's public
//! backend hooks, and isolated passes over a workload's own items and
//! records for the layers no hook reaches transparently.
//!
//! The decorators plug in through `exec_backend` and `judge_backend`, which
//! only swap an `Arc`, and forward `name()` and `fingerprint()` — a
//! decorator that left the fingerprint at its `None` default would make
//! `build()` drop the record store and a traced warm re-run would measure
//! the cold path. Compile is *not* decorated: plugging a custom
//! `compile_backend` drops the executor's per-worker session leases and the
//! store-backed persistent compile, so it would trace a different program.
//! It is timed in [`stage_pass`] instead, through
//! `SimCompileBackend::compile_with` on leased sessions over the same item
//! sequence.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vv_judge::{CodeSignals, JudgeOutcome};
use vv_pipeline::{
    decode_record, encode_record, CaseRecord, CompileSummary, ExecBackend, ExecSummary,
    JudgeBackend, PipelineMode, SimCompileBackend, SimExecBackend, ValidationService, WorkItem,
};
use vv_server::protocol::{read_frame, write_frame, Request, Response};
use vv_simcompiler::{CompileFetch, Program};
use vv_store::ArtifactStore;

use crate::measure::ns_since;

/// One call into a layer: the item's ordinal, its duration, and whether
/// the layer failed the item (exec failure, judge rejection).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Submission ordinal of the item.
    pub ordinal: u32,
    /// Duration of the call.
    pub ns: u64,
    /// The call failed the item.
    pub failed: bool,
}

/// Spans of one layer, from any worker.
#[derive(Debug, Default)]
pub struct SpanLog(Mutex<Vec<Span>>);

impl SpanLog {
    fn push(&self, span: Span) {
        self.0
            .lock()
            .expect("span log poisoned by a panicking worker")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span log poisoned"))
    }
}

/// Maps a work item's id to its submission ordinal.
pub type Ordinals = Arc<HashMap<String, u32>>;

fn ordinal_of(ordinals: &Ordinals, item: &WorkItem) -> u32 {
    ordinals.get(&item.id).copied().unwrap_or(u32::MAX)
}

/// Times every `execute` call of the wrapped backend.
pub struct TimedExec {
    inner: Arc<dyn ExecBackend>,
    ordinals: Ordinals,
    spans: Arc<SpanLog>,
}

impl TimedExec {
    /// Decorate `inner`, logging spans by the ordinal of the item's id.
    pub fn new(inner: Arc<dyn ExecBackend>, ordinals: Ordinals, spans: Arc<SpanLog>) -> Self {
        Self {
            inner,
            ordinals,
            spans,
        }
    }
}

impl ExecBackend for TimedExec {
    fn execute(&self, item: &WorkItem, program: &Program) -> ExecSummary {
        let started = Instant::now();
        let summary = self.inner.execute(item, program);
        self.spans.push(Span {
            ordinal: ordinal_of(&self.ordinals, item),
            ns: ns_since(started),
            failed: !summary.passed,
        });
        summary
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fingerprint(&self) -> Option<String> {
        self.inner.fingerprint()
    }
}

/// Times every `judge` call of the wrapped backend.
pub struct TimedJudge {
    inner: Arc<dyn JudgeBackend>,
    ordinals: Ordinals,
    spans: Arc<SpanLog>,
}

impl TimedJudge {
    /// Decorate `inner`, logging spans by the ordinal of the item's id.
    pub fn new(inner: Arc<dyn JudgeBackend>, ordinals: Ordinals, spans: Arc<SpanLog>) -> Self {
        Self {
            inner,
            ordinals,
            spans,
        }
    }
}

impl JudgeBackend for TimedJudge {
    fn judge(
        &self,
        item: &WorkItem,
        compile: &CompileSummary,
        exec: Option<&ExecSummary>,
        signals: Option<&CodeSignals>,
    ) -> JudgeOutcome {
        let started = Instant::now();
        let outcome = self.inner.judge(item, compile, exec, signals);
        self.spans.push(Span {
            ordinal: ordinal_of(&self.ordinals, item),
            ns: ns_since(started),
            failed: !outcome.verdict_or_invalid().is_valid(),
        });
        outcome
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fingerprint(&self) -> Option<String> {
        self.inner.fingerprint()
    }
}

/// Stage costs of one item, measured in isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSample {
    /// Compile time.
    pub compile_ns: u64,
    /// Whether the compile cache served the outcome.
    pub hit: bool,
    /// Execute time, when the item reached the execute stage.
    pub exec_ns: Option<u64>,
    /// Judge time, when the item reached the judge stage.
    pub judge_ns: Option<u64>,
}

/// Time each stage for `items` in order, on one thread, through a fresh
/// default compile backend (leased sessions, fresh cache) and — with
/// `downstream` — the default execute and judge backends, following
/// `mode`'s early-exit rule. With `warm` the item sequence is compiled
/// twice first, so the cache holds what a resident daemon's would.
pub fn stage_pass(
    items: &[WorkItem],
    mode: PipelineMode,
    downstream: Option<&dyn JudgeBackend>,
    warm: bool,
) -> Vec<StageSample> {
    let compile = SimCompileBackend::default();
    let exec = SimExecBackend::default();
    let mut sessions = HashMap::new();
    let mut compile_one = |item: &WorkItem| {
        let session = sessions
            .entry(item.model)
            .or_insert_with(|| compile.take_session(item.model));
        compile.compile_with(session, item)
    };
    if warm {
        for _ in 0..2 {
            items.iter().for_each(|item| drop(compile_one(item)));
        }
    }
    items
        .iter()
        .map(|item| {
            let started = Instant::now();
            let output = compile_one(item);
            let mut sample = StageSample {
                compile_ns: ns_since(started),
                hit: matches!(
                    output.fetch,
                    Some(CompileFetch::MemoryHit | CompileFetch::DiskHit)
                ),
                ..StageSample::default()
            };
            let Some(judge) = downstream else {
                return sample;
            };
            let early_exit = mode == PipelineMode::EarlyExit;
            if early_exit && !output.summary.succeeded {
                return sample;
            }
            let ran = output.artifact.as_ref().map(|program| {
                let started = Instant::now();
                let summary = exec.execute(item, program);
                sample.exec_ns = Some(ns_since(started));
                summary
            });
            if early_exit && !ran.as_ref().is_some_and(|e| e.passed) {
                return sample;
            }
            let started = Instant::now();
            drop(judge.judge(
                item,
                &output.summary,
                ran.as_ref(),
                output.signals.as_deref(),
            ));
            sample.judge_ns = Some(ns_since(started));
            sample
        })
        .collect()
}

/// Store-layer costs measured in isolation.
#[derive(Clone, Debug, Default)]
pub struct StoreSample {
    /// `(pair index, ns)` of one whole-record replay per stored item.
    pub replay_ns: Vec<(usize, u64)>,
    /// `(pair index, ns)` of one whole-record persist per item the store
    /// did not hold.
    pub persist_ns: Vec<(usize, u64)>,
    /// The flush sealing the persisted records.
    pub flush_ns: u64,
}

/// Replay every pair the store at `dir` already holds and persist the
/// rest, then flush — the record-store work of a re-run. When the store
/// held none of them, replay the freshly persisted records too, so every
/// workload reports replay cost. The record store comes from a service
/// built with the default backends in `mode`, so keys match the
/// workload's.
pub fn store_pass(
    dir: &Path,
    mode: PipelineMode,
    pairs: &[(WorkItem, CaseRecord)],
) -> Result<StoreSample, String> {
    let store = ArtifactStore::open_shared(dir).map_err(|err| format!("store pass: {err}"))?;
    let service = ValidationService::builder()
        .mode(mode)
        .artifact_store(store)
        .build();
    let records = service
        .record_store()
        .ok_or("store pass: default backends must enable the record store")?;
    let mut sample = StoreSample::default();
    for (index, (item, record)) in pairs.iter().enumerate() {
        let started = Instant::now();
        if records.replay(item).is_some() {
            sample.replay_ns.push((index, ns_since(started)));
        } else {
            let started = Instant::now();
            records.persist(item, record);
            sample.persist_ns.push((index, ns_since(started)));
        }
    }
    let started = Instant::now();
    records.flush();
    sample.flush_ns = ns_since(started);
    if sample.replay_ns.is_empty() {
        for (index, (item, _)) in pairs.iter().enumerate() {
            let started = Instant::now();
            let replayed = records.replay(item);
            sample.replay_ns.push((index, ns_since(started)));
            if replayed.is_none() {
                return Err(format!("store pass: {} did not replay", item.id));
            }
        }
    }
    Ok(sample)
}

/// Protocol codec costs measured in isolation.
#[derive(Clone, Debug, Default)]
pub struct CodecSample {
    /// Encode, frame, unframe and decode of one `CASE` request.
    pub case_ns: Vec<u64>,
    /// Encode, frame, unframe and decode of one `RECORD` response,
    /// record codec included.
    pub record_ns: Vec<u64>,
}

/// Round-trip every item as a `CASE` frame and every record as a `RECORD`
/// frame, as the daemon and its client would.
pub fn codec_pass(pairs: &[(WorkItem, CaseRecord)]) -> Result<CodecSample, String> {
    let mut sample = CodecSample::default();
    let (mut wire, mut payload) = (Vec::new(), Vec::new());
    for (seq, (item, record)) in pairs.iter().enumerate() {
        let seq = seq as u64;
        let request = Request::Case {
            job: 1,
            seq,
            item: item.clone(),
        };
        let started = Instant::now();
        wire.clear();
        write_frame(&mut wire, &request.encode()).map_err(|err| err.to_string())?;
        read_frame(&mut wire.as_slice(), &mut payload).map_err(|err| err.to_string())?;
        let decoded = Request::decode(&payload).map_err(|err| err.to_string())?;
        sample.case_ns.push(ns_since(started));
        drop(decoded);

        let started = Instant::now();
        let response = Response::Record {
            job: 1,
            seq,
            record: encode_record(record),
        };
        wire.clear();
        write_frame(&mut wire, &response.encode()).map_err(|err| err.to_string())?;
        read_frame(&mut wire.as_slice(), &mut payload).map_err(|err| err.to_string())?;
        let decoded = match Response::decode(&payload).map_err(|err| err.to_string())? {
            Response::Record { record, .. } => decode_record(&record),
            _ => None,
        };
        sample.record_ns.push(ns_since(started));
        if decoded.as_ref() != Some(record) {
            return Err(format!("codec pass: record {} did not round-trip", item.id));
        }
    }
    Ok(sample)
}
