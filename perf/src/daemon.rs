//! `daemon_tenants`: `vv-server` over the in-process loopback transport
//! (no TCP, which keeps socket noise out) with two tenants in closed loops.
//!
//! The bulk tenant (the main thread) keeps one large job open at a time: a
//! round is one bulk job, submitted after the previous one's `JOB_DONE`.
//! The interactive tenant (one more thread) submits small jobs back to back
//! for the whole window, each after the previous `JOB_DONE`, cycling over a
//! fixed set of distinct small jobs. The daemon's compile cache is resident,
//! so after the first jobs this measures a warm daemon: protocol, tenant
//! round robin and the daemon's worker pool. `ServerConfig::workers` is the
//! core count; the load generator uses two threads and two connections.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vv_corpus::source::split_seed;
use vv_corpus::CaseSource;
use vv_pipeline::{CaseRecord, JudgeBackend, PipelineMode, SurrogateJudgeBackend, WorkItem};
use vv_server::{Client, Conn, JobSpec, Server, ServerConfig, ServerStats};

use crate::check::{JudgeConfig, Reference};
use crate::corpus::{self, SourceTrace};
use crate::measure::{self, median, ms, quantile, segment_quantile, us, JOB_SEGMENT};
use crate::trace::{self, Ordinals, SpanLog, TimedJudge};
use crate::{Options, Outcome, Scale};

/// How often a traced round samples the tenant queues.
const QUEUE_POLL: Duration = Duration::from_millis(1);

struct Sizes {
    bulk: usize,
    small: usize,
    small_jobs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            bulk: 2_000,
            small: 8,
            small_jobs: 32,
        },
        Scale::Smoke => Sizes {
            bulk: 60,
            small: 4,
            small_jobs: 4,
        },
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        mode: PipelineMode::EarlyExit,
        ..JobSpec::default()
    }
}

fn judge_config() -> JudgeConfig {
    let spec = job_spec();
    JudgeConfig {
        style: spec.style,
        profile: spec.profile.profile(),
        seed: spec.judge_seed,
    }
}

/// Bytes and client-side frames crossing both tenants' connections.
#[derive(Debug, Default)]
struct Wire {
    bytes: AtomicU64,
    /// `write_frame` flushes once per frame, so client flushes count the
    /// request frames.
    flushes: AtomicU64,
}

/// A transparent byte-counting connection.
struct Counted {
    inner: Box<dyn Conn>,
    wire: Arc<Wire>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.wire.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.wire.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.wire.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

impl Conn for Counted {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(Counted {
            inner: self.inner.try_clone_conn()?,
            wire: Arc::clone(&self.wire),
        }))
    }

    fn shutdown_conn(&self) {
        self.inner.shutdown_conn();
    }
}

/// The running daemon and its two tenants. Clients are declared first so
/// they disconnect before the server drops.
struct Daemon {
    bulk: Client,
    interactive: Client,
    server: Server,
    wire: Arc<Wire>,
    bulk_items: Vec<WorkItem>,
    /// The interactive tenant's jobs, concatenated.
    small_items: Vec<WorkItem>,
}

fn relabel(
    prefix: &str,
    cases: Vec<(vv_corpus::GeneratedCase, vv_probing::IssueKind)>,
) -> Vec<WorkItem> {
    cases
        .into_iter()
        .map(|(case, _)| {
            let mut item = WorkItem::from(case);
            item.id = format!("{prefix}-{}", item.id);
            item
        })
        .collect()
}

fn setup(opts: &Options) -> Result<Daemon, String> {
    let sizes = sizes(opts.scale);
    let bulk_items = relabel(
        "bulk",
        corpus::collect(corpus::campaign(opts.seed, 0, sizes.bulk, None)),
    );
    let small_items = relabel(
        "interactive",
        corpus::collect(corpus::campaign(
            split_seed(opts.seed, 1),
            0,
            sizes.small * sizes.small_jobs,
            None,
        )),
    );
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .map_err(|err| format!("starting the daemon: {err}"))?;
    let wire = Arc::new(Wire::default());
    let connect = |tenant: &str| {
        let conn = Counted {
            inner: Box::new(server.connect()),
            wire: Arc::clone(&wire),
        };
        Client::over(Box::new(conn), tenant).map_err(|err| format!("{tenant} hello: {err}"))
    };
    Ok(Daemon {
        bulk: connect("bulk")?,
        interactive: connect("interactive")?,
        server,
        wire,
        bulk_items,
        small_items,
    })
}

/// One interactive job as the tenant saw it.
struct SmallJob {
    /// Index into the interactive job list.
    index: usize,
    opened: Instant,
    finished: Instant,
    /// Record arrival times.
    arrivals: Vec<Instant>,
}

/// What the interactive tenant did over the window.
#[derive(Default)]
struct Interactive {
    jobs: Vec<SmallJob>,
    failed: u64,
    attempted: u64,
}

fn interactive_loop(
    client: &mut Client,
    items: &[WorkItem],
    small: usize,
    reference: &mut Reference,
    stop: &AtomicBool,
    done: &AtomicU64,
) -> Interactive {
    let mut log = Interactive::default();
    let lists = items.len() / small;
    for k in 0.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let index = k % lists;
        let batch = items[index * small..(index + 1) * small].to_vec();
        log.attempted += small as u64;
        let opened = Instant::now();
        let mut arrivals = Vec::with_capacity(small);
        let mut ok = true;
        match client.submit(job_spec(), batch) {
            Ok(mut job) => {
                for result in &mut job {
                    match result {
                        Ok((seq, record)) => {
                            arrivals.push(Instant::now());
                            done.fetch_add(1, Ordering::AcqRel);
                            let ordinal = index * small + seq as usize;
                            if seq as usize >= small || !reference.check(ordinal, &record) {
                                log.failed += 1;
                            }
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                ok &= job.stats().is_some();
            }
            Err(_) => ok = false,
        }
        let finished = Instant::now();
        log.failed += (small - arrivals.len().min(small)) as u64;
        if !ok {
            // A client error leaves the connection unusable.
            break;
        }
        log.jobs.push(SmallJob {
            index,
            opened,
            finished,
            arrivals,
        });
    }
    log
}

/// One bulk job.
struct Round {
    traced: bool,
    started: Instant,
    wall: Duration,
    /// Cases answered to both tenants during the round.
    cases: u64,
    /// Server counters before and after (untraced rounds).
    stats: Option<(ServerStats, ServerStats)>,
    /// Request frames and wire bytes during the round.
    flushes: u64,
    bytes: u64,
    /// Interactive jobs finished during the round.
    small_jobs: u64,
    queue_depth_max: u64,
    /// Traced rounds: the bulk records, by seq.
    records: Vec<Option<CaseRecord>>,
}

impl Round {
    fn cases_per_s(&self) -> f64 {
        self.cases as f64 / self.wall.as_secs_f64()
    }
}

fn queue_depth(stats: &ServerStats) -> u64 {
    stats.tenants.iter().map(|t| t.queued).max().unwrap_or(0)
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let sizes = sizes(opts.scale);
    let (reps, budget) = if opts.scale == Scale::Smoke {
        (1, Duration::ZERO)
    } else {
        (measure::SETUP_REPS, measure::SETUP_BUDGET)
    };
    let (mut daemon, setup_s) = measure::repeated_setup(reps, budget, || setup(opts))?;
    let judge = judge_config();
    let mode = PipelineMode::EarlyExit;
    let mut bulk_ref = Reference::for_items(&daemon.bulk_items, mode, &judge, opts.seed);
    let mut small_ref = Reference::for_items(&daemon.small_items, mode, &judge, opts.seed ^ 1);

    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let mut rounds: Vec<Round> = Vec::new();
    let mut bulk_failed = 0u64;
    let Daemon {
        bulk,
        interactive,
        server,
        wire,
        bulk_items,
        small_items,
    } = &mut daemon;
    let (server, wire, bulk_items): (&Server, &Wire, &[WorkItem]) = (server, wire, bulk_items);
    let small = std::thread::scope(|scope| -> Result<Interactive, String> {
        let (stop, done, small_ref) = (&stop, &done, &mut small_ref);
        let small_items: &[WorkItem] = small_items;
        let tenant = scope.spawn(move || {
            interactive_loop(interactive, small_items, sizes.small, small_ref, stop, done)
        });
        let window = Duration::from_secs_f64(opts.seconds);
        let result = measure::run_rounds(window, 2, |index| {
            let traced = opts.trace && index % 2 == 1;
            let (round, failed, ok) =
                bulk_round(bulk, server, wire, bulk_items, &mut bulk_ref, done, traced);
            bulk_failed += failed;
            rounds.push(round);
            Ok(ok)
        });
        stop.store(true, Ordering::Release);
        let log = tenant
            .join()
            .map_err(|_| "the interactive tenant panicked")?;
        result?;
        Ok(log)
    })?;
    let Daemon {
        bulk,
        interactive,
        server,
        bulk_items,
        small_items,
        ..
    } = daemon;
    drop((bulk, interactive));
    server.handle().shutdown();
    server.join();

    for job in &small.jobs {
        if let Some(round) = rounds
            .iter_mut()
            .find(|r| job.finished >= r.started && job.finished <= r.started + r.wall)
        {
            round.small_jobs += 1;
        }
    }
    let attempted = (rounds.len() * bulk_items.len()) as u64 + small.attempted;
    let failed = bulk_failed + small.failed;
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "daemon_tenants: {} bulk jobs of {} cases, {} interactive jobs of {} cases; failed_frac {}",
        rounds.len(),
        bulk_items.len(),
        small.jobs.len(),
        sizes.small,
        failed as f64 / attempted.max(1) as f64,
    ));
    if opts.trace {
        per_layer(
            opts,
            &rounds,
            &small,
            &bulk_items,
            &small_items,
            sizes.small,
            &mut out,
        )?;
    } else {
        end_to_end(&rounds, &small, setup_s, &mut out);
    }
    Ok(out)
}

/// Run one bulk job to `JOB_DONE`; returns the round, its failed cases and
/// whether the connection is still usable.
fn bulk_round(
    client: &mut Client,
    server: &Server,
    wire: &Wire,
    items: &[WorkItem],
    reference: &mut Reference,
    done: &AtomicU64,
    traced: bool,
) -> (Round, u64, bool) {
    let batch = items.to_vec();
    let before = (!traced).then(|| server.stats());
    let (done0, flushes0, bytes0) = (
        done.load(Ordering::Acquire),
        wire.flushes.load(Ordering::Relaxed),
        wire.bytes.load(Ordering::Relaxed),
    );
    let mut records = if traced {
        vec![None; items.len()]
    } else {
        Vec::new()
    };
    let (mut depth, mut polled) = (0u64, Instant::now());
    let (mut got, mut failed, mut ok) = (0usize, 0u64, true);
    let started = Instant::now();
    match client.submit(job_spec(), batch) {
        Ok(mut job) => {
            for result in &mut job {
                let Ok((seq, record)) = result else {
                    ok = false;
                    break;
                };
                got += 1;
                if !reference.check(seq as usize, &record) {
                    failed += 1;
                }
                if traced {
                    if polled.elapsed() >= QUEUE_POLL {
                        depth = depth.max(queue_depth(&server.stats()));
                        polled = Instant::now();
                    }
                    if let Some(slot) = records.get_mut(seq as usize) {
                        *slot = Some(record);
                    }
                }
            }
            ok &= job.stats().is_some();
        }
        Err(_) => ok = false,
    }
    let wall = started.elapsed();
    failed += (items.len() - got.min(items.len())) as u64;
    let round = Round {
        traced,
        started,
        wall,
        cases: got as u64 + (done.load(Ordering::Acquire) - done0),
        stats: before.map(|before| (before, server.stats())),
        flushes: wire.flushes.load(Ordering::Relaxed) - flushes0,
        bytes: wire.bytes.load(Ordering::Relaxed) - bytes0,
        small_jobs: 0,
        queue_depth_max: depth,
        records,
    };
    (round, failed, ok)
}

fn end_to_end(rounds: &[Round], small: &Interactive, setup_s: f64, out: &mut Outcome) {
    let rates: Vec<f64> = rounds.iter().map(Round::cases_per_s).collect();
    let mut case_ms = Vec::new();
    let mut job_ms = Vec::new();
    for job in &small.jobs {
        case_ms.extend(
            job.arrivals
                .iter()
                .map(|t| t.duration_since(job.opened).as_secs_f64() * 1e3),
        );
        job_ms.push(job.finished.duration_since(job.opened).as_secs_f64() * 1e3);
    }
    out.push("cases_per_s", median(&rates), "1/s");
    out.push("case_latency_p50_ms", quantile(&case_ms, 0.5), "ms");
    out.push("job_latency_p50_ms", quantile(&job_ms, 0.5), "ms");
    out.push(
        "job_latency_p90_ms",
        segment_quantile(&job_ms, JOB_SEGMENT, 0.9),
        "ms",
    );
    out.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    out.push("setup_s", setup_s, "s");
}

/// Delta of a served-stats counter over an untraced round.
fn served(round: &Round, f: impl Fn(&ServerStats) -> u64) -> Option<f64> {
    round
        .stats
        .as_ref()
        .map(|(before, after)| f(after).saturating_sub(f(before)) as f64)
}

fn per_layer(
    opts: &Options,
    rounds: &[Round],
    small: &Interactive,
    bulk_items: &[WorkItem],
    small_items: &[WorkItem],
    small_size: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced = |f: &dyn Fn(&ServerStats) -> u64| -> f64 {
        median(
            &rounds
                .iter()
                .filter_map(|r| served(r, f))
                .collect::<Vec<_>>(),
        )
    };
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();

    // Source layers: the daemon receives materialised items, so generation
    // is timed over the same corpora in isolation.
    let source = SourceTrace::default();
    for (seed, len) in [
        (opts.seed, bulk_items.len()),
        (split_seed(opts.seed, 1), small_items.len()),
    ] {
        corpus::campaign(seed, 0, len, Some(&source))
            .into_cases()
            .for_each(drop);
    }
    out.push("corpus.cases", source.generate.cases() as f64, "count");
    out.push("corpus.busy_ms", ms(source.generate.ns()), "ms");
    out.push(
        "probing.mutated_ratio",
        source.probe.mutated() as f64 / source.probe.cases().max(1) as f64,
        "ratio",
    );
    out.push(
        "probing.busy_ms",
        ms(source.probe.ns().saturating_sub(source.generate.ns())),
        "ms",
    );

    // Stage costs, isolated: misses on a fresh cache, and every stage on a
    // cache warmed like the resident daemon's.
    let all: Vec<WorkItem> = bulk_items.iter().chain(small_items).cloned().collect();
    let ordinals: Ordinals = Arc::new(
        all.iter()
            .enumerate()
            .map(|(i, item)| (item.id.clone(), i as u32))
            .collect(),
    );
    let judge = judge_config();
    let inner = Arc::new(SpanLog::default());
    let timed = TimedJudge::new(
        Arc::new(SurrogateJudgeBackend::new(
            judge.profile,
            judge.style,
            judge.seed,
        )),
        ordinals,
        Arc::clone(&inner),
    );
    let cold = trace::stage_pass(&all, PipelineMode::EarlyExit, None, false);
    let warm = trace::stage_pass(
        &all,
        PipelineMode::EarlyExit,
        Some(&timed as &dyn JudgeBackend),
        true,
    );
    let mut judge_inner = vec![0u64; all.len()];
    for span in inner.take() {
        if let Some(slot) = judge_inner.get_mut(span.ordinal as usize) {
            *slot = span.ns;
        }
    }
    let span_ns = |i: usize| {
        let s = &warm[i];
        s.compile_ns + s.exec_ns.unwrap_or(0) + s.judge_ns.unwrap_or(0)
    };
    // Per traced round: the bulk job plus the interactive jobs it overlapped.
    let round_sum = |round: &Round, f: &dyn Fn(usize) -> u64| -> u64 {
        let bulk: u64 = (0..bulk_items.len()).map(f).sum();
        let small_jobs = small.jobs.iter().filter(|job| {
            job.finished >= round.started && job.finished <= round.started + round.wall
        });
        let interactive: u64 = small_jobs
            .flat_map(|job| {
                (0..small_size).map(move |s| bulk_items.len() + job.index * small_size + s)
            })
            .map(f)
            .sum();
        bulk + interactive
    };
    let busy_ms = |f: &dyn Fn(usize) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|r| ms(round_sum(r, f)))
                .collect::<Vec<_>>(),
        )
    };

    let hits: Vec<f64> = warm
        .iter()
        .filter(|s| s.hit)
        .map(|s| us(s.compile_ns))
        .collect();
    let misses: Vec<f64> = cold
        .iter()
        .filter(|s| !s.hit)
        .map(|s| us(s.compile_ns))
        .collect();
    out.push(
        "simcompiler.calls",
        untraced(&|s| s.served.compiled as u64),
        "count",
    );
    let (hits_n, misses_n) = (
        untraced(&|s| s.compile_cache.hits),
        untraced(&|s| s.compile_cache.misses),
    );
    out.push(
        "simcompiler.hit_ratio",
        hits_n / (hits_n + misses_n).max(1.0),
        "ratio",
    );
    out.push("simcompiler.hit_us_p50", median(&hits), "us");
    out.push("simcompiler.miss_us_p50", median(&misses), "us");
    out.push(
        "simcompiler.busy_ms",
        busy_ms(&|i| warm[i].compile_ns),
        "ms",
    );

    let exec_us: Vec<f64> = warm.iter().filter_map(|s| s.exec_ns).map(us).collect();
    out.push(
        "simexec.calls",
        untraced(&|s| s.served.executed as u64),
        "count",
    );
    out.push(
        "simexec.busy_ms",
        busy_ms(&|i| warm[i].exec_ns.unwrap_or(0)),
        "ms",
    );
    out.push("simexec.us_p50", quantile(&exec_us, 0.5), "us");
    out.push("simexec.us_p99", quantile(&exec_us, 0.99), "us");
    out.push(
        "simexec.failures",
        untraced(&|s| s.served.exec_failures as u64),
        "count",
    );

    let judge_us: Vec<f64> = judge_inner
        .iter()
        .filter(|ns| **ns > 0)
        .map(|ns| us(*ns))
        .collect();
    out.push(
        "judge.calls",
        untraced(&|s| s.served.judged as u64),
        "count",
    );
    out.push("judge.busy_ms", busy_ms(&|i| judge_inner[i]), "ms");
    out.push("judge.us_p50", quantile(&judge_us, 0.5), "us");
    out.push(
        "judge.rejections",
        untraced(&|s| s.served.judge_rejections as u64),
        "count",
    );
    out.push(
        "judge.paced_wait_ms",
        busy_ms(&|i| warm[i].judge_ns.unwrap_or(0).saturating_sub(judge_inner[i])),
        "ms",
    );

    // Executor: interactive case latency minus the case's stage costs.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut waits = Vec::new();
    for job in &small.jobs {
        let base = bulk_items.len() + job.index * small_size;
        // Arrivals are in completion order, so pair them with the sorted
        // stage costs of the job: an approximation that keeps the
        // per-job sums exact.
        let mut costs: Vec<u64> = (0..small_size).map(|s| span_ns(base + s)).collect();
        costs.sort_unstable();
        for (arrived, cost) in job.arrivals.iter().zip(costs) {
            let latency_us = arrived.duration_since(job.opened).as_secs_f64() * 1e6;
            waits.push(latency_us - us(cost));
        }
    }
    let busy_frac = median(
        &traced
            .iter()
            .map(|r| ms(round_sum(r, &span_ns)) / 1e3 / (workers as f64 * r.wall.as_secs_f64()))
            .collect::<Vec<_>>(),
    );
    out.push("pipeline.wait_us_p50", quantile(&waits, 0.5), "us");
    out.push("pipeline.wait_us_p99", quantile(&waits, 0.99), "us");
    out.push("pipeline.busy_frac", busy_frac, "ratio");
    out.push("pipeline.unattributed_frac", 1.0 - busy_frac, "ratio");

    // Store and protocol, isolated over the last traced bulk job's records.
    let last = traced.last().ok_or("no traced round ran")?;
    let pairs: Vec<(WorkItem, CaseRecord)> = bulk_items
        .iter()
        .zip(&last.records)
        .filter_map(|(item, record)| Some((item.clone(), record.clone()?)))
        .collect();
    if pairs.len() != bulk_items.len() {
        return Err("a traced bulk job lost records".into());
    }
    let store_dir = opts.work_dir.join("store-pass");
    let store = trace::store_pass(&store_dir, PipelineMode::EarlyExit, &pairs)?;
    std::fs::remove_dir_all(&store_dir).map_err(|err| err.to_string())?;
    let pooled = |v: &[(usize, u64)]| v.iter().map(|(_, ns)| us(*ns)).collect::<Vec<_>>();
    out.push("store.hits", 0.0, "count");
    out.push("store.hit_ratio", 0.0, "ratio");
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
    let untraced_rounds = || rounds.iter().filter(|r| !r.traced);
    // Client request frames, plus one RECORD per case and one JOB_DONE per
    // job answered.
    let frames: Vec<f64> = untraced_rounds()
        .map(|r| (r.flushes + r.cases + 1 + r.small_jobs) as f64)
        .collect();
    let bytes: Vec<f64> = untraced_rounds().map(|r| r.bytes as f64).collect();
    let codec_us = |v: &[u64]| v.iter().map(|ns| us(*ns)).collect::<Vec<_>>();
    out.push("server.frames", median(&frames), "count");
    out.push("server.wire_bytes", median(&bytes), "bytes");
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
    out.push(
        "server.tenant_queue_depth_max",
        traced.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
        "count",
    );

    let untraced_rate = median(
        &untraced_rounds()
            .map(Round::cases_per_s)
            .collect::<Vec<_>>(),
    );
    let traced_rate = median(&traced.iter().map(|r| r.cases_per_s()).collect::<Vec<_>>());
    out.push(
        "trace.overhead_frac",
        1.0 - traced_rate / untraced_rate,
        "ratio",
    );
    Ok(())
}
