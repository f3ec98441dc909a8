//! `cold_stream`, `paced_judge` and `warm_rerun`: workloads that drive a
//! [`ValidationService`] directly on `Pipelined { workers: 0 }`.
//!
//! A round validates one slice of the workload's corpus through a freshly
//! built service, so every round starts from a fresh compile cache. Round
//! `r` of `cold_stream` and `paced_judge` takes the next slice of the
//! unbounded campaign corpus, so a run covers many distinct cases; every
//! `warm_rerun` round re-runs the same slice against the store the cold
//! populate filled, reset after the round to that same state.
//! Like a campaign over corpus shards, the round submits its slice as
//! consecutive jobs of equal size through that one service, each after the
//! previous job's last record; a job's latency runs from its submit to its
//! last record, flush included.

use std::collections::HashSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vv_corpus::source::{from_cases, split_seed};
use vv_corpus::{CaseSource, TestCase};
use vv_judge::Verdict;
use vv_pipeline::{
    CaseRecord, ExecutionStrategy, JudgeBackend, PacedJudge, PipelineMode, PipelineStats,
    SimExecBackend, SurrogateJudgeBackend, ValidationService, WorkItem,
};
use vv_probing::IssueKind;
use vv_store::ArtifactStore;

use crate::check::{self, JudgeConfig, Reference};
use crate::corpus::{self, SourceTrace, Stamped};
use crate::measure::{self, median, ms, ns_between, quantile, segment_quantile, us, JOB_SEGMENT};
use crate::trace::{self, Ordinals, Span, SpanLog, TimedExec, TimedJudge};
use crate::{Options, Outcome, Scale, Workload};

/// Judge pacing of `paced_judge`: each judged case sleeps its simulated
/// latency × this scale (a few ms), modelling a remote LLM judge.
const PACING: f64 = 0.001;

/// In `warm_rerun`, one case in this many is new; the rest were seen by
/// the cold populate.
const NEW_EVERY: usize = 10;

/// Cases per round and jobs per round.
fn shape(workload: Workload, scale: Scale) -> (usize, usize) {
    match (workload, scale) {
        (Workload::ColdStream, Scale::Full) => (16_000, 8),
        (Workload::PacedJudge, Scale::Full) => (1_920, 32),
        (Workload::WarmRerun, Scale::Full) => (20_000, 2),
        (Workload::ColdStream | Workload::WarmRerun, Scale::Smoke) => (100, 2),
        (_, Scale::Smoke) => (24, 2),
        (Workload::DaemonTenants, Scale::Full) => unreachable!("the daemon has its own driver"),
    }
}

fn mode_of(workload: Workload) -> PipelineMode {
    match workload {
        Workload::PacedJudge => PipelineMode::RecordAll,
        _ => PipelineMode::EarlyExit,
    }
}

/// One round's slice of the corpus: what the checks and the tracer need.
struct Slice {
    /// Corpus ordinal of the slice's first case.
    start: usize,
    /// Per slice ordinal: the case's id and ground-truth issue.
    ids: Vec<String>,
    issues: Vec<IssueKind>,
    ordinals: Ordinals,
    /// `warm_rerun`: the materialised mixed corpus, streamed each round.
    cases: Vec<TestCase>,
}

impl Slice {
    /// The `n` cases from corpus ordinal `start`, with the items the oracle
    /// recomputes.
    fn new(
        workload: Workload,
        seed: u64,
        start: usize,
        n: usize,
    ) -> (Self, Vec<(usize, WorkItem)>) {
        let mut slice = Slice {
            start,
            ids: Vec::with_capacity(n),
            issues: Vec::with_capacity(n),
            ordinals: Ordinals::default(),
            cases: Vec::new(),
        };
        let mut sampled = Vec::new();
        for (i, (case, issue)) in corpus_cases(workload, seed, start, n, None).enumerate() {
            if check::sampled(seed, start + i) {
                sampled.push((i, item_of(&case)));
            }
            slice.ids.push(case.id.clone());
            slice.issues.push(issue);
            if workload == Workload::WarmRerun {
                slice.cases.push(case);
            }
        }
        slice.ordinals = Arc::new(
            slice
                .ids
                .iter()
                .enumerate()
                .map(|(i, id)| (id.clone(), i as u32))
                .collect(),
        );
        (slice, sampled)
    }

    /// Every work item of the slice, in submission order. Streamed corpora
    /// are regenerated, so only traced runs hold them in memory.
    fn items(&self, workload: Workload, seed: u64) -> Vec<WorkItem> {
        match workload {
            Workload::WarmRerun => self.cases.iter().map(item_of).collect(),
            _ => corpus_cases(workload, seed, self.start, self.ids.len(), None)
                .map(|(case, _)| item_of(&case))
                .collect(),
        }
    }
}

/// Everything the rounds share, built by set-up.
struct Plan {
    workload: Workload,
    seed: u64,
    mode: PipelineMode,
    /// Jobs per round.
    jobs: usize,
    /// `warm_rerun`: the store the cold populate filled.
    seeded_store: Option<Seeded>,
    /// The first round's slice, and the service set-up built for it.
    first: Option<(Slice, Vec<(usize, WorkItem)>)>,
    first_service: Option<ValidationService>,
}

fn item_of(case: &TestCase) -> WorkItem {
    WorkItem {
        id: case.id.clone(),
        source: case.source.clone(),
        lang: case.lang,
        model: case.model,
    }
}

/// Whether ordinal `i` of a `warm_rerun` round is a new case.
fn is_new(i: usize) -> bool {
    i % NEW_EVERY == NEW_EVERY - 1
}

/// Cases `[start, start + n)` of the workload's corpus with their ground
/// truth, each as a test case carrying the (possibly mutated) source to
/// validate. `warm_rerun` mixes one new case into every [`NEW_EVERY`] of
/// the seen corpus (and always starts at 0).
fn corpus_cases(
    workload: Workload,
    seed: u64,
    start: usize,
    n: usize,
    trace: Option<&SourceTrace>,
) -> Box<dyn Iterator<Item = (TestCase, IssueKind)>> {
    let cases = |seed: u64, start: usize, n: usize| {
        corpus::campaign(seed, start, n, trace)
            .into_cases()
            .map(|generated| {
                let issue = IssueKind::of_case(&generated);
                let case = TestCase {
                    source: generated.source,
                    ..generated.case
                };
                (case, issue)
            })
    };
    if workload != Workload::WarmRerun {
        return Box::new(cases(seed, start, n));
    }
    let fresh_n = (0..n).filter(|&i| is_new(i)).count();
    let mut seen = cases(seed, 0, n - fresh_n);
    let mut fresh = cases(split_seed(seed, 0xF4E5), 0, fresh_n);
    Box::new((0..n).map(move |i| {
        if is_new(i) {
            let (case, issue) = fresh.next().expect("fresh_n new cases");
            let id = format!("new-{}", case.id);
            (TestCase { id, ..case }, issue)
        } else {
            seen.next().expect("n - fresh_n seen cases")
        }
    }))
}

/// Spans collected by a traced round's decorators, keyed by the
/// submission ordinal of each item's id.
pub struct Tracer {
    ordinals: Ordinals,
    source: SourceTrace,
    exec: Arc<SpanLog>,
    /// The judge's own compute.
    judge: Arc<SpanLog>,
    /// The whole judge call, pacing included.
    judge_call: Arc<SpanLog>,
}

impl Tracer {
    /// A tracer for items whose ids map to ordinals through `ordinals`.
    pub fn new(ordinals: Ordinals) -> Self {
        Self {
            ordinals,
            source: SourceTrace::default(),
            exec: Arc::default(),
            judge: Arc::default(),
            judge_call: Arc::default(),
        }
    }
}

/// What one round measured.
struct Round {
    traced: bool,
    /// Corpus ordinal of the round's first case.
    start: usize,
    wall: Duration,
    job_walls: Vec<Duration>,
    /// Per ordinal: milliseconds from the pull off the source to the
    /// record's arrival. Kept compact: a run holds every round's.
    latencies_ms: Vec<f32>,
    /// Traced rounds, per ordinal: nanoseconds the pull itself took.
    pull_ns: Vec<u64>,
    stats: PipelineStats,
    /// Traced rounds: spans and every record.
    spans: Option<(Tracer, Vec<CaseRecord>)>,
}

impl Round {
    fn cases_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = opts.workload;
    let (n, jobs) = shape(workload, opts.scale);
    let (reps, budget) = if opts.scale == Scale::Smoke {
        (1, Duration::ZERO)
    } else {
        (measure::SETUP_REPS, measure::SETUP_BUDGET)
    };
    let seeded = opts.work_dir.join("seeded");
    let (mut plan, setup_s) =
        measure::repeated_setup(reps, budget, || setup(opts, n, jobs, &seeded))?;
    let judge = JudgeConfig::default();
    let (slice, sampled) = plan.first.take().expect("set-up builds the first slice");
    let reference = Reference::new(slice.ids.clone(), sampled, plan.mode, &judge);
    let mut current = (slice, reference);

    let mut rounds: Vec<Round> = Vec::new();
    let (mut failed, mut agree) = (0u64, 0usize);
    let window = Duration::from_secs_f64(opts.seconds);
    measure::run_rounds(window, 2, |index| {
        if index > 0 && workload != Workload::WarmRerun {
            let (slice, sampled) = Slice::new(workload, opts.seed, index * n, n);
            let reference = Reference::new(slice.ids.clone(), sampled, plan.mode, &judge);
            current = (slice, reference);
        }
        let traced = opts.trace && index % 2 == 1;
        let (slice, reference) = &mut current;
        let (round, verdicts, bad) = run_round(&mut plan, slice, reference, traced)?;
        failed += bad;
        agree += check::agreements(&verdicts, &slice.issues);
        rounds.push(round);
        Ok(true)
    })?;
    let attempted = (rounds.len() * n) as u64;

    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{}: {} rounds of {jobs} jobs of {} cases; pipeline accuracy vs ground truth {:.4}; \
         failed_frac {}",
        workload.name(),
        rounds.len(),
        n / jobs,
        agree as f64 / attempted as f64,
        failed as f64 / attempted as f64,
    ));
    out.notes.push(format!(
        "round cases/s: {:?}",
        rounds
            .iter()
            .map(|r| r.cases_per_s().round())
            .collect::<Vec<_>>()
    ));
    if opts.trace {
        per_layer(opts, &plan, &current.0, &rounds, &mut out)?;
    } else {
        end_to_end(&rounds, n / jobs, setup_s, &mut out);
    }
    Ok(out)
}

fn setup(opts: &Options, n: usize, jobs: usize, seeded: &Path) -> Result<Plan, String> {
    let first = Slice::new(opts.workload, opts.seed, 0, n);
    let mut plan = Plan {
        workload: opts.workload,
        seed: opts.seed,
        mode: mode_of(opts.workload),
        jobs,
        seeded_store: None,
        first: None,
        first_service: None,
    };
    if opts.workload == Workload::WarmRerun {
        populate(&plan, &first.0, seeded)?;
        plan.seeded_store = Some(Seeded::capture(seeded)?);
    } else {
        plan.first_service = Some(service(plan.workload, None, None));
    }
    plan.first = Some(first);
    Ok(plan)
}

/// The cold populate: validate the seen cases into a fresh store.
fn populate(plan: &Plan, slice: &Slice, dir: &Path) -> Result<(), String> {
    remove_dir(dir)?;
    let store = open_store(dir)?;
    let seen: Vec<WorkItem> = slice
        .cases
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_new(*i))
        .map(|(_, case)| item_of(case))
        .collect();
    let stored = service(plan.workload, Some(store), None)
        .submit(seen)
        .count();
    if stored == 0 {
        return Err("cold populate stored nothing".into());
    }
    Ok(())
}

fn open_store(dir: &Path) -> Result<Arc<ArtifactStore>, String> {
    ArtifactStore::open_shared(dir).map_err(|err| format!("opening store {}: {err}", dir.display()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(err) if err.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {err}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// A closed store directory and what it held: the state every
/// `warm_rerun` round starts from.
struct Seeded {
    dir: PathBuf,
    files: HashSet<OsString>,
    manifest: Vec<u8>,
}

impl Seeded {
    fn capture(dir: &Path) -> Result<Self, String> {
        let files = std::fs::read_dir(dir)
            .map_err(|err| format!("listing {}: {err}", dir.display()))?
            .map(|entry| entry.map(|entry| entry.file_name()))
            .collect::<Result<_, _>>()
            .map_err(|err| err.to_string())?;
        let manifest = std::fs::read(dir.join(MANIFEST))
            .map_err(|err| format!("reading the manifest of {}: {err}", dir.display()))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            files,
            manifest,
        })
    }

    /// Put the (closed) store back as captured. Sealed segments are never
    /// rewritten, so deleting the segments a round sealed and restoring
    /// the manifest undoes the round without copying the store. The reset
    /// is made durable here, so the next round's flushes do not pay for
    /// committing it.
    fn restore(&self) -> Result<(), String> {
        if self.dir.join(vv_store::LOCK_NAME).exists() {
            return Err("the seeded store is still open after its round".into());
        }
        let entries = std::fs::read_dir(&self.dir).map_err(|err| err.to_string())?;
        for entry in entries {
            let entry = entry.map_err(|err| err.to_string())?;
            if !self.files.contains(&entry.file_name()) {
                std::fs::remove_file(entry.path()).map_err(|err| err.to_string())?;
            }
        }
        let sync = |path: &Path| std::fs::File::open(path).and_then(|file| file.sync_all());
        let manifest = self.dir.join(MANIFEST);
        std::fs::write(&manifest, &self.manifest)
            .and_then(|()| sync(&manifest))
            .and_then(|()| sync(&self.dir))
            .map_err(|err| format!("restoring {}: {err}", self.dir.display()))
    }
}

/// The manifest file of a store directory (see the `vv-store` format spec).
const MANIFEST: &str = "manifest.vvs";

/// The service a round of `workload` runs on: `Pipelined { workers: 0 }`
/// with default backends, over `store` when given. With a tracer, exec and
/// judge are wrapped in timing decorators that forward every fingerprint,
/// so the service — record store included — is the same program.
pub fn service(
    workload: Workload,
    store: Option<Arc<ArtifactStore>>,
    tracer: Option<&Tracer>,
) -> ValidationService {
    let pacing = if workload == Workload::PacedJudge {
        PACING
    } else {
        0.0
    };
    let mut builder = ValidationService::builder()
        .mode(mode_of(workload))
        .strategy(ExecutionStrategy::Pipelined { workers: 0 });
    if let Some(store) = store {
        builder = builder.artifact_store(store);
    }
    builder = match tracer {
        None => builder.judge_pacing(pacing),
        Some(tracer) => {
            let config = JudgeConfig::default();
            let surrogate: Arc<dyn JudgeBackend> = Arc::new(SurrogateJudgeBackend::new(
                config.profile,
                config.style,
                config.seed,
            ));
            let judge: Arc<dyn JudgeBackend> = Arc::new(TimedJudge::new(
                surrogate,
                Arc::clone(&tracer.ordinals),
                Arc::clone(&tracer.judge),
            ));
            // The builder's `judge_pacing` would wrap the pacing around
            // this decorator; wrap it here instead (the same `PacedJudge`)
            // so the outer decorator sees the paced wait.
            let call: Arc<dyn JudgeBackend> = if pacing > 0.0 {
                Arc::new(PacedJudge::new(judge, pacing))
            } else {
                judge
            };
            builder
                .exec_backend(TimedExec::new(
                    Arc::new(SimExecBackend::default()),
                    Arc::clone(&tracer.ordinals),
                    Arc::clone(&tracer.exec),
                ))
                .judge_backend(TimedJudge::new(
                    call,
                    Arc::clone(&tracer.ordinals),
                    Arc::clone(&tracer.judge_call),
                ))
        }
    };
    builder.build()
}

/// The source of job `job`: the slice's cases `[job * size, (job + 1) *
/// size)`.
fn job_source(
    plan: &Plan,
    slice: &Slice,
    job: usize,
    trace: Option<&SourceTrace>,
) -> Box<dyn CaseSource + Send> {
    let size = slice.ids.len() / plan.jobs;
    let start = job * size;
    match plan.workload {
        Workload::WarmRerun => from_cases(slice.cases[start..start + size].to_vec()).boxed(),
        _ => corpus::campaign(plan.seed, slice.start + start, size, trace),
    }
}

/// Run one round over `slice`; returns it with the pipeline verdict of
/// every case (true = accepted) and the number of failed cases.
fn run_round(
    plan: &mut Plan,
    slice: &Slice,
    reference: &mut Reference,
    traced: bool,
) -> Result<(Round, Vec<bool>, u64), String> {
    let n = slice.ids.len();
    let tracer = traced.then(|| Tracer::new(Arc::clone(&slice.ordinals)));
    let store = match &plan.seeded_store {
        Some(seeded) => Some(open_store(&seeded.dir)?),
        None => None,
    };
    let service = match plan.first_service.take() {
        Some(service) if !traced => service,
        _ => service(plan.workload, store, tracer.as_ref()),
    };
    if plan.seeded_store.is_some() && service.record_store().is_none() {
        return Err("the record store is disabled; a backend lost its fingerprint".into());
    }
    let pulls = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let mut arrivals = Vec::with_capacity(n);
    let mut verdicts = Vec::with_capacity(n);
    let mut records = Vec::new();
    let mut job_walls = Vec::with_capacity(plan.jobs);
    let mut stats = PipelineStats::default();
    let mut failed = 0u64;

    let started = Instant::now();
    for job in 0..plan.jobs {
        let source = job_source(plan, slice, job, tracer.as_ref().map(|t| &t.source));
        let job_started = Instant::now();
        let mut stream = service.submit_source(Stamped::new(source, Arc::clone(&pulls)));
        for record in &mut stream {
            let ordinal = arrivals.len();
            arrivals.push(Instant::now());
            if !reference.check(ordinal, &record) {
                failed += 1;
            }
            verdicts.push(record.pipeline_verdict() == Verdict::Valid);
            if traced {
                records.push(record);
            }
        }
        job_walls.push(job_started.elapsed());
        stats.merge(&stream.stats());
        // A lost record would shift every later ordinal: stop here.
        if arrivals.len() != (job + 1) * (n / plan.jobs) {
            break;
        }
    }
    let wall = started.elapsed();
    drop(service);
    if let Some(seeded) = &plan.seeded_store {
        seeded.restore()?;
    }
    failed += (n - arrivals.len().min(n)) as u64;
    let pulls = std::mem::take(&mut *pulls.lock().map_err(|_| "pull log poisoned")?);
    let latencies_ms = pulls
        .iter()
        .zip(&arrivals)
        .map(|((pulled, _), arrived)| (arrived.duration_since(*pulled).as_secs_f64() * 1e3) as f32)
        .collect();
    let pull_ns = if traced {
        pulls
            .iter()
            .map(|(pulled, ready)| ns_between(*pulled, *ready))
            .collect()
    } else {
        Vec::new()
    };
    let round = Round {
        traced,
        start: slice.start,
        wall,
        job_walls,
        latencies_ms,
        pull_ns,
        stats,
        spans: tracer.map(|tracer| (tracer, records)),
    };
    Ok((round, verdicts, failed))
}

fn end_to_end(rounds: &[Round], job_cases: usize, setup_s: f64, out: &mut Outcome) {
    let jobs_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.job_walls.iter().map(Duration::as_secs_f64))
        .collect();
    let rates: Vec<f64> = jobs_s.iter().map(|s| job_cases as f64 / s).collect();
    let jobs_ms: Vec<f64> = jobs_s.iter().map(|s| s * 1e3).collect();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().map(|&ms| f64::from(ms)))
        .collect();
    out.push("cases_per_s", median(&rates), "1/s");
    out.push("case_latency_p50_ms", quantile(&latencies, 0.5), "ms");
    out.push("job_latency_p50_ms", quantile(&jobs_ms, 0.5), "ms");
    out.push(
        "job_latency_p90_ms",
        segment_quantile(&jobs_ms, JOB_SEGMENT, 0.9),
        "ms",
    );
    out.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    out.push("setup_s", setup_s, "s");
}

/// Median over `rounds` of a per-round statistic.
fn median_of<'a>(rounds: impl Iterator<Item = &'a Round>, f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.map(f).collect::<Vec<_>>())
}

fn ratio(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Per-layer metrics. Spans come from every traced round; the isolated
/// passes and the executor's wait and busy shares use the last traced
/// round's slice (`last_slice` is the slice of the last round run).
fn per_layer(
    opts: &Options,
    plan: &Plan,
    last_slice: &Slice,
    rounds: &[Round],
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced = || rounds.iter().filter(|r| !r.traced);
    let traced: Vec<(&Round, &Tracer, &Vec<CaseRecord>)> = rounds
        .iter()
        .filter_map(|r| r.spans.as_ref().map(|(t, recs)| (r, t, recs)))
        .collect();
    let (last, _, records) = *traced.last().ok_or("no traced round ran")?;
    let n = records.len();
    let items = match plan.workload {
        Workload::WarmRerun => last_slice.items(plan.workload, plan.seed),
        _ => corpus_cases(plan.workload, plan.seed, last.start, n, None)
            .map(|(case, _)| item_of(&case))
            .collect(),
    };
    let stat = |f: &dyn Fn(&PipelineStats) -> f64| median_of(untraced(), |r| f(&r.stats));

    // Source layers: in the round for streamed corpora; `warm_rerun`
    // generates in set-up only, so its cost is timed over the same corpora.
    let source_tallies: Vec<SourceTrace> = match plan.workload {
        Workload::WarmRerun => {
            let trace = SourceTrace::default();
            corpus_cases(plan.workload, plan.seed, 0, n, Some(&trace)).for_each(drop);
            vec![trace]
        }
        _ => traced.iter().map(|(_, t, _)| t.source.clone()).collect(),
    };
    let tally_median =
        |f: &dyn Fn(&SourceTrace) -> f64| median(&source_tallies.iter().map(f).collect::<Vec<_>>());
    out.push(
        "corpus.cases",
        tally_median(&|t| t.generate.cases() as f64),
        "count",
    );
    out.push(
        "corpus.busy_ms",
        tally_median(&|t| ms(t.generate.ns())),
        "ms",
    );
    out.push(
        "probing.mutated_ratio",
        tally_median(&|t| ratio(t.probe.mutated() as usize, t.probe.cases() as usize)),
        "ratio",
    );
    out.push(
        "probing.busy_ms",
        tally_median(&|t| ms(t.probe.ns().saturating_sub(t.generate.ns()))),
        "ms",
    );

    // Compile, isolated over the items that reach the compile stage.
    let compiled: Vec<usize> = match plan.workload {
        Workload::WarmRerun => (0..n).filter(|&i| is_new(i)).collect(),
        _ => (0..n).collect(),
    };
    let compile_items: Vec<WorkItem> = compiled.iter().map(|&i| items[i].clone()).collect();
    let samples = trace::stage_pass(&compile_items, plan.mode, None, false);
    let mut compile_ns = vec![0u64; n];
    for (&i, sample) in compiled.iter().zip(&samples) {
        compile_ns[i] = sample.compile_ns;
    }
    let mut hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.hit)
        .map(|s| us(s.compile_ns))
        .collect();
    if hits.is_empty() {
        // No source recurred often enough to be admitted: time hits on a
        // cache warmed by the same sequence.
        let warm = trace::stage_pass(&compile_items, plan.mode, None, true);
        hits = warm
            .iter()
            .filter(|s| s.hit)
            .map(|s| us(s.compile_ns))
            .collect();
    }
    let misses: Vec<f64> = samples
        .iter()
        .filter(|s| !s.hit)
        .map(|s| us(s.compile_ns))
        .collect();
    out.push(
        "simcompiler.calls",
        stat(&|s| (s.compile_cache_hits + s.compile_cache_misses) as f64),
        "count",
    );
    out.push(
        "simcompiler.hit_ratio",
        stat(&|s| {
            ratio(
                s.compile_cache_hits,
                s.compile_cache_hits + s.compile_cache_misses,
            )
        }),
        "ratio",
    );
    out.push("simcompiler.hit_us_p50", median(&hits), "us");
    out.push("simcompiler.miss_us_p50", median(&misses), "us");
    out.push(
        "simcompiler.busy_ms",
        ms(samples.iter().map(|s| s.compile_ns).sum()),
        "ms",
    );

    // Exec and judge, from the decorators of the traced rounds: real calls
    // only (the pipeline's stage counters also count replayed records).
    let spans_of = |f: &dyn Fn(&Tracer) -> &SpanLog| -> Vec<Vec<Span>> {
        traced.iter().map(|(_, t, _)| f(t).take()).collect()
    };
    let exec = spans_of(&|t| &t.exec);
    let judge = spans_of(&|t| &t.judge);
    let judge_call = spans_of(&|t| &t.judge_call);
    let pooled_us =
        |spans: &[Vec<Span>]| -> Vec<f64> { spans.iter().flatten().map(|s| us(s.ns)).collect() };
    let per_round = |spans: &[Vec<Span>], f: &dyn Fn(&[Span]) -> f64| -> f64 {
        median(&spans.iter().map(|round| f(round)).collect::<Vec<_>>())
    };
    let busy_ms = |spans: &[Vec<Span>]| per_round(spans, &|r| ms(r.iter().map(|s| s.ns).sum()));
    let calls = |spans: &[Vec<Span>]| per_round(spans, &|r| r.len() as f64);
    let failures =
        |spans: &[Vec<Span>]| per_round(spans, &|r| r.iter().filter(|s| s.failed).count() as f64);
    let exec_us = pooled_us(&exec);
    out.push("simexec.calls", calls(&exec), "count");
    out.push("simexec.busy_ms", busy_ms(&exec), "ms");
    out.push("simexec.us_p50", quantile(&exec_us, 0.5), "us");
    out.push("simexec.us_p99", quantile(&exec_us, 0.99), "us");
    out.push("simexec.failures", failures(&exec), "count");
    out.push("judge.calls", calls(&judge), "count");
    out.push("judge.busy_ms", busy_ms(&judge), "ms");
    out.push("judge.us_p50", quantile(&pooled_us(&judge), 0.5), "us");
    out.push("judge.rejections", failures(&judge), "count");
    out.push(
        "judge.paced_wait_ms",
        busy_ms(&judge_call) - busy_ms(&judge),
        "ms",
    );

    // Store and protocol, isolated over the last traced round's records.
    if items.len() != n {
        return Err("a traced round lost records".into());
    }
    let pairs: Vec<(WorkItem, CaseRecord)> =
        items.into_iter().zip(records.iter().cloned()).collect();
    let store = match &plan.seeded_store {
        Some(seeded) => {
            let sample = trace::store_pass(&seeded.dir, plan.mode, &pairs)?;
            seeded.restore()?;
            sample
        }
        None => {
            let dir = opts.work_dir.join("store-pass");
            remove_dir(&dir)?;
            let sample = trace::store_pass(&dir, plan.mode, &pairs)?;
            remove_dir(&dir)?;
            sample
        }
    };
    let mut store_ns = vec![0u64; n];
    if plan.seeded_store.is_some() {
        for &(i, ns) in store.replay_ns.iter().chain(&store.persist_ns) {
            store_ns[i] = ns;
        }
    }
    out.push("store.hits", stat(&|s| s.store_hits as f64), "count");
    out.push(
        "store.hit_ratio",
        stat(&|s| ratio(s.store_hits, s.store_hits + s.store_misses)),
        "ratio",
    );
    let pooled = |v: &[(usize, u64)]| v.iter().map(|(_, ns)| us(*ns)).collect::<Vec<_>>();
    out.push(
        "store.replay_us_p50",
        median(&pooled(&store.replay_ns)),
        "us",
    );
    out.push(
        "store.persist_us_p50",
        median(&pooled(&store.persist_ns)),
        "us",
    );
    out.push("store.flush_ms", ms(store.flush_ns), "ms");

    let codec = trace::codec_pass(&pairs)?;
    let codec_us = |v: &[u64]| v.iter().map(|ns| us(*ns)).collect::<Vec<_>>();
    out.push("server.frames", 0.0, "count");
    out.push("server.wire_bytes", 0.0, "bytes");
    out.push(
        "server.case_frame_us",
        median(&codec_us(&codec.case_ns)),
        "us",
    );
    out.push(
        "server.record_frame_us",
        median(&codec_us(&codec.record_ns)),
        "us",
    );
    out.push("server.tenant_queue_depth_max", 0.0, "count");

    // Executor: per-case latency minus the case's layer spans.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spans_ns: Vec<u64> = (0..n)
        .map(|i| last.pull_ns[i] + compile_ns[i] + store_ns[i])
        .collect();
    for span in exec.last().into_iter().chain(judge_call.last()).flatten() {
        if let Some(slot) = spans_ns.get_mut(span.ordinal as usize) {
            *slot += span.ns;
        }
    }
    let waits: Vec<f64> = last
        .latencies_ms
        .iter()
        .zip(&spans_ns)
        .map(|(latency_ms, span)| f64::from(*latency_ms) * 1e3 - us(*span))
        .collect();
    let busy_s = spans_ns.iter().sum::<u64>() as f64 / 1e9;
    let busy_frac = busy_s / (workers as f64 * last.wall.as_secs_f64());
    out.push("pipeline.wait_us_p50", quantile(&waits, 0.5), "us");
    out.push("pipeline.wait_us_p99", quantile(&waits, 0.99), "us");
    out.push("pipeline.busy_frac", busy_frac, "ratio");
    out.push("pipeline.unattributed_frac", 1.0 - busy_frac, "ratio");

    let untraced_rate = median_of(untraced(), Round::cases_per_s);
    let traced_rate = median_of(traced.iter().map(|(r, _, _)| *r), Round::cases_per_s);
    out.push(
        "trace.overhead_frac",
        1.0 - traced_rate / untraced_rate,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_store_restores_to_the_captured_state() {
        let dir = std::env::temp_dir().join(format!("vv-perf-seeded-{}", std::process::id()));
        remove_dir(&dir).unwrap();
        let put = |key: &[u8]| {
            let store = open_store(&dir).unwrap();
            store.put(1, 7, key, b"value").unwrap();
            store.flush().unwrap();
        };
        put(b"seen");
        let seeded = Seeded::capture(&dir).unwrap();
        put(b"new");
        seeded.restore().unwrap();
        let store = open_store(&dir).unwrap();
        assert!(store.open_report().pristine());
        assert!(store.get(1, 7, b"seen").is_some());
        assert!(store.get(1, 7, b"new").is_none());
        assert!(seeded.restore().is_err(), "an open store must not be reset");
        drop(store);
        remove_dir(&dir).unwrap();
    }
}
