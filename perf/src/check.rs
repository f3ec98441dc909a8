//! Output checks, made outside the timed window.
//!
//! A deterministic sample of every item list (about one case in
//! [`SAMPLE_EVERY`]) is recomputed once through a fresh `Sequential` +
//! `uncached_compile()` service — the slow oracle — and every record the
//! workload produced for a sampled ordinal is byte-compared with it
//! (`encode_record`). Every record is also checked for its id and for the
//! same pipeline verdict each time its item recurs. A missing record, a
//! client error or a mismatch counts the case as failed.

use std::collections::HashMap;

use vv_corpus::source::split_seed;
use vv_judge::{JudgeProfile, PromptStyle, Verdict};
use vv_pipeline::{
    encode_record, CaseRecord, ExecutionStrategy, PipelineMode, ValidationService, WorkItem,
};
use vv_probing::IssueKind;

/// About one case in this many is recomputed by the oracle.
pub const SAMPLE_EVERY: u64 = 16;

/// The judge configuration a workload validates under.
#[derive(Clone, Debug)]
pub struct JudgeConfig {
    /// Prompt style.
    pub style: PromptStyle,
    /// Calibration profile.
    pub profile: JudgeProfile,
    /// Decision seed.
    pub seed: u64,
}

impl Default for JudgeConfig {
    /// The service builder's default judge.
    fn default() -> Self {
        let config = vv_pipeline::PipelineConfig::default();
        Self {
            style: config.judge_style,
            profile: config.judge_profile,
            seed: config.judge_seed,
        }
    }
}

/// Whether ordinal `ordinal` of a list checked under `seed` is sampled.
pub fn sampled(seed: u64, ordinal: usize) -> bool {
    split_seed(seed ^ 0x5A4D_504C, ordinal as u64) % SAMPLE_EVERY == 0
}

/// The reference one item list is checked against.
pub struct Reference {
    ids: Vec<String>,
    oracle: HashMap<usize, Vec<u8>>,
    verdicts: Vec<Option<bool>>,
}

impl Reference {
    /// A reference for a list with these `ids`, recomputing `sampled` —
    /// every `(ordinal, item)` for which [`sampled`] holds — through the
    /// oracle.
    pub fn new(
        ids: Vec<String>,
        sampled: Vec<(usize, WorkItem)>,
        mode: PipelineMode,
        judge: &JudgeConfig,
    ) -> Self {
        let oracle = ValidationService::builder()
            .mode(mode)
            .strategy(ExecutionStrategy::Sequential)
            .uncached_compile()
            .judge_style(judge.style)
            .judge_profile(judge.profile.clone())
            .judge_seed(judge.seed)
            .build();
        let (ordinals, items): (Vec<usize>, Vec<WorkItem>) = sampled.into_iter().unzip();
        let run = oracle.run(items);
        Self {
            verdicts: vec![None; ids.len()],
            ids,
            oracle: ordinals
                .into_iter()
                .zip(&run.records)
                .map(|(i, record)| (i, encode_record(record)))
                .collect(),
        }
    }

    /// A reference for a materialised item list.
    pub fn for_items(
        items: &[WorkItem],
        mode: PipelineMode,
        judge: &JudgeConfig,
        seed: u64,
    ) -> Self {
        let ids = items.iter().map(|item| item.id.clone()).collect();
        let picked = (0..items.len())
            .filter(|&i| sampled(seed, i))
            .map(|i| (i, items[i].clone()))
            .collect();
        Self::new(ids, picked, mode, judge)
    }

    /// Check one record the workload produced for `ordinal`: its id, its
    /// verdict against earlier records of the same item, and — for sampled
    /// ordinals — its bytes against the oracle. True when it passes.
    pub fn check(&mut self, ordinal: usize, record: &CaseRecord) -> bool {
        let Some(id) = self.ids.get(ordinal) else {
            return false;
        };
        if &record.id != id {
            return false;
        }
        let valid = record.pipeline_verdict() == Verdict::Valid;
        if *self.verdicts[ordinal].get_or_insert(valid) != valid {
            return false;
        }
        match self.oracle.get(&ordinal) {
            Some(bytes) => encode_record(record) == *bytes,
            None => true,
        }
    }
}

/// How many cases' pipeline verdicts (true = accepted) agree with their
/// ground-truth issue kind — the paper's pipeline accuracy, before
/// dividing by the case count.
pub fn agreements(verdicts: &[bool], issues: &[IssueKind]) -> usize {
    verdicts
        .iter()
        .zip(issues)
        .filter(|(valid, issue)| **valid == issue.is_valid())
        .count()
}
