//! Seeded inputs and the source-side timing adapters.
//!
//! Every workload validates the production campaign's corpus shape: an
//! OpenACC and an OpenMP template stream, each negatively probed, then
//! interleaved. Case `i` is a pure function of `(seed, i)`, so a round's
//! source can be rebuilt lazily for every round while set-up materialises
//! the same cases once for ground truth and the correctness oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vv_corpus::source::split_seed;
use vv_corpus::{CaseSource, GeneratedCase, TemplateSource, NO_ISSUE_ID};
use vv_dclang::DirectiveModel;
use vv_probing::{IssueKind, ProbeConfig, ProbeExt};

use crate::measure::ns_since;

/// Work done by one source layer: cases produced, mutated, and time spent
/// inside `next_case`.
#[derive(Debug, Default)]
pub struct Tally {
    ns: AtomicU64,
    cases: AtomicU64,
    mutated: AtomicU64,
}

impl Tally {
    /// Nanoseconds spent producing cases.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Cases produced.
    pub fn cases(&self) -> u64 {
        self.cases.load(Ordering::Relaxed)
    }

    /// Produced cases that carry one of the five mutations.
    pub fn mutated(&self) -> u64 {
        self.mutated.load(Ordering::Relaxed)
    }
}

/// A timing adapter: forwards `next_case` and adds its duration to a
/// shared [`Tally`].
pub struct Timed<S> {
    inner: S,
    tally: Arc<Tally>,
}

impl<S> Timed<S> {
    /// Time every pull from `inner` into `tally`.
    pub fn new(inner: S, tally: Arc<Tally>) -> Self {
        Self { inner, tally }
    }
}

impl<S: CaseSource> CaseSource for Timed<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let started = Instant::now();
        let case = self.inner.next_case();
        self.tally
            .ns
            .fetch_add(ns_since(started), Ordering::Relaxed);
        if let Some(case) = &case {
            self.tally.cases.fetch_add(1, Ordering::Relaxed);
            if case.issue_id.is_some_and(|id| id != NO_ISSUE_ID) {
                self.tally.mutated.fetch_add(1, Ordering::Relaxed);
            }
        }
        case
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn describe(&self) -> String {
        format!("timed({})", self.inner.describe())
    }

    fn skip_cases(&mut self, count: usize) -> usize {
        self.inner.skip_cases(count)
    }
}

/// The start and end of one pull from the executor's input, in pull
/// (= submission) order.
pub type Pulls = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// The per-case latency adapter: stamps when the executor pulls each case
/// off the source and when the pull returns. The pipelined executor
/// yields in submission order, so the consumer joins these stamps to
/// record arrivals by ordinal.
pub struct Stamped<S> {
    inner: S,
    pulls: Pulls,
}

impl<S> Stamped<S> {
    /// Stamp every pull from `inner` into `pulls`.
    pub fn new(inner: S, pulls: Pulls) -> Self {
        Self { inner, pulls }
    }
}

impl<S: CaseSource> CaseSource for Stamped<S> {
    fn next_case(&mut self) -> Option<GeneratedCase> {
        let started = Instant::now();
        let case = self.inner.next_case()?;
        let ended = Instant::now();
        self.pulls
            .lock()
            .expect("pull log poisoned by a panicking executor worker")
            .push((started, ended));
        Some(case)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn describe(&self) -> String {
        format!("stamped({})", self.inner.describe())
    }
}

/// Timing tallies for the generator and the probe adapter of a traced
/// source. `probe` includes the generator's time it wraps.
#[derive(Clone, Debug, Default)]
pub struct SourceTrace {
    /// Both template generators.
    pub generate: Arc<Tally>,
    /// Both probe adapters, generator included.
    pub probe: Arc<Tally>,
}

/// Seed of stream `stream` of a corpus derived from `seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    split_seed(seed, stream)
}

fn probed_side(
    model: DirectiveModel,
    seed: u64,
    stream: u64,
    trace: Option<&SourceTrace>,
) -> Box<dyn CaseSource + Send> {
    let generator = TemplateSource::new(model, sub_seed(seed, stream));
    let probe = ProbeConfig::with_seed(sub_seed(seed, stream + 1));
    match trace {
        None => generator.probe(probe).boxed(),
        Some(trace) => Timed::new(
            Timed::new(generator, Arc::clone(&trace.generate)).probe(probe),
            Arc::clone(&trace.probe),
        )
        .boxed(),
    }
}

/// Cases `[start, start + len)` of the campaign corpus derived from
/// `seed`: probed OpenACC interleaved with probed OpenMP. The skip to
/// `start` is O(1), so consecutive ranges partition the corpus at no extra
/// cost. With `trace`, the generators and the probe adapters are timed.
pub fn campaign(
    seed: u64,
    start: usize,
    len: usize,
    trace: Option<&SourceTrace>,
) -> Box<dyn CaseSource + Send> {
    let mut source = probed_side(DirectiveModel::OpenAcc, seed, 0, trace).interleave(probed_side(
        DirectiveModel::OpenMp,
        seed,
        2,
        trace,
    ));
    source.skip_cases(start);
    source.take(len).boxed()
}

/// Materialise a source: every case with its ground-truth issue kind.
pub fn collect(mut source: impl CaseSource) -> Vec<(GeneratedCase, IssueKind)> {
    let mut cases = Vec::new();
    while let Some(case) = source.next_case() {
        let issue = IssueKind::of_case(&case);
        cases.push((case, issue));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_a_pure_function_of_the_seed() {
        let a = collect(campaign(7, 0, 40, None));
        let b = collect(campaign(7, 0, 40, None));
        let c = collect(campaign(8, 0, 40, None));
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let models: Vec<_> = a.iter().take(2).map(|(c, _)| c.case.model).collect();
        assert_eq!(models, [DirectiveModel::OpenAcc, DirectiveModel::OpenMp]);
        assert!(a.iter().any(|(_, issue)| !issue.is_valid()));
    }

    #[test]
    fn ranges_partition_the_campaign() {
        let whole = collect(campaign(7, 0, 40, None));
        let parts: Vec<_> = (0..4)
            .flat_map(|k| collect(campaign(7, k * 10, 10, None)))
            .collect();
        assert_eq!(parts, whole);
    }

    #[test]
    fn timing_adapters_change_no_case() {
        let trace = SourceTrace::default();
        let timed = collect(campaign(7, 0, 40, Some(&trace)));
        assert_eq!(timed, collect(campaign(7, 0, 40, None)));
        assert_eq!(trace.probe.cases(), 40);
        assert_eq!(trace.generate.cases(), 40);
        let mutated = timed.iter().filter(|(_, issue)| !issue.is_valid()).count();
        assert_eq!(trace.probe.mutated(), mutated as u64);
        assert!(trace.probe.ns() >= trace.generate.ns());
    }
}
