//! Differential law: the register-bytecode VM must be **byte-identical** to
//! the tree-walking oracle across the full streaming corpus.
//!
//! This is the exec-layer mirror of the corpus/metrics byte-identity laws
//! from earlier PRs: for every compiled case — clean template output,
//! random non-directive code, and negative-probed mutants — the two engines
//! must agree on return code, stdout, stderr, fault *and* step count, and a
//! validation service wired with the oracle backend must produce the same
//! records and the same judge-latency histogram buckets as the production
//! (bytecode, memoized per program) service.
//!
//! Release runs sweep ≥ 10k mixed cases per the PR-4 acceptance bar; debug
//! runs shrink so tier-1 `cargo test -q` stays fast.

use vv_corpus::{CaseSource, RandomCodeSource, TemplateSource};
use vv_dclang::DirectiveModel;
use vv_pipeline::{ExecBackend, ExecSummary, PipelineMode, ValidationService, WorkItem};
use vv_probing::CorpusSpec;
use vv_simcompiler::{compiler_for, Program};
use vv_simexec::{ExecConfig, Executor, TreeWalkExecutor};

/// Mixed-case budget: clean templates + random code + probed mutants.
fn per_source_budget() -> usize {
    if cfg!(debug_assertions) {
        60 // tier-1 debug runs stay fast
    } else {
        1800 // 1800 × 2 models × 3 sources ≥ 10.8k mixed cases
    }
}

fn sources_for(model: DirectiveModel, seed: u64) -> Vec<Box<dyn CaseSource + Send>> {
    let n = per_source_budget();
    vec![
        Box::new(TemplateSource::new(model, seed).take(n)),
        Box::new(RandomCodeSource::new(model, seed ^ 0x5EED).take(n)),
        CorpusSpec::new(model)
            .seed(seed ^ 0xC0DE)
            .probe_seed(seed ^ 0xBEEF)
            .size(n)
            .source(),
    ]
}

fn assert_outcomes_identical(limits: ExecConfig, label: &str) {
    let vm = Executor::new(limits);
    let oracle = TreeWalkExecutor::new(limits);
    let mut compiled_count = 0usize;
    let mut total = 0usize;
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        let compiler = compiler_for(model);
        for mut source in sources_for(model, 0x9A17) {
            while let Some(case) = source.next_case() {
                total += 1;
                let outcome = compiler.compile(&case.source, case.case.lang);
                let Some(program) = outcome.artifact else {
                    continue;
                };
                compiled_count += 1;
                let fast = vm.run(&program);
                let slow = oracle.run(&program);
                let id = &case.case.id;
                assert_eq!(
                    fast.return_code, slow.return_code,
                    "{label}/{id}: return code diverged\nvm stderr: {}\noracle stderr: {}",
                    fast.stderr, slow.stderr
                );
                assert_eq!(fast.stdout, slow.stdout, "{label}/{id}: stdout diverged");
                assert_eq!(fast.stderr, slow.stderr, "{label}/{id}: stderr diverged");
                assert_eq!(fast.fault, slow.fault, "{label}/{id}: fault diverged");
                assert_eq!(
                    fast.steps, slow.steps,
                    "{label}/{id}: step accounting diverged"
                );
            }
        }
    }
    assert!(
        compiled_count * 2 >= total,
        "{label}: corpus should mostly compile ({compiled_count}/{total})"
    );
}

#[test]
fn bytecode_vm_matches_treewalk_oracle_on_mixed_corpus() {
    assert_outcomes_identical(ExecConfig::default(), "default-limits");
}

#[test]
fn parity_holds_under_tight_step_and_capture_limits() {
    // Tight limits exercise the boundary behaviours where step coalescing
    // or capture truncation could diverge: mid-expression step-limit kills
    // and output clipped during formatting.
    assert_outcomes_identical(
        ExecConfig {
            step_limit: 700,
            max_call_depth: 16,
            capture_limit: 96,
        },
        "tight-limits",
    );
}

/// Directed regressions for divergences found in review: shapes the
/// semantic checker accepts but the corpus rarely generates.
#[test]
fn parity_on_adversarial_shapes() {
    let cases = [
        // A compute region whose body faults after freeing a mapped
        // allocation: the oracle still runs the exit-phase copy-back, whose
        // use-after-free segfault replaces the divide-by-zero.
        (
            DirectiveModel::OpenMp,
            r#"
#include <stdlib.h>
int main() {
    double *a = (double *)malloc(4 * sizeof(double));
    int z = 0;
#pragma omp target map(tofrom: a[0:4])
    { free(a); z = 1 / z; }
    return 0;
}
"#,
        ),
        // exit() inside a compute region: exit clauses still apply.
        (
            DirectiveModel::OpenAcc,
            r#"
#include <stdlib.h>
int main() {
    double *a = (double *)malloc(4 * sizeof(double));
#pragma acc parallel copy(a[0:4])
    { exit(7); }
    return 0;
}
"#,
        ),
        // A call with a missing argument whose parameter shadows a global:
        // the oracle's dynamic lookup falls through to the global.
        (
            DirectiveModel::OpenAcc,
            "int g = 41;\nint f(int g) { return g + 1; }\nint main() { return f(); }",
        ),
        // Assignment through the unbound parameter writes the global.
        (
            DirectiveModel::OpenAcc,
            "int g = 1;\nint f(int g) { g = 9; return 0; }\nint main() { f(); return g; }",
        ),
        // Forward global reference: unbound at init time in both engines,
        // with identical step accounting around the faulting load.
        (
            DirectiveModel::OpenMp,
            "int a = b + 1;\nint b = 2;\nint main() { return a; }",
        ),
    ];
    let vm = Executor::default();
    let oracle = TreeWalkExecutor::default();
    for (i, (model, source)) in cases.iter().enumerate() {
        let outcome = compiler_for(*model).compile(source, vv_simcompiler::Lang::C);
        let Some(program) = outcome.artifact else {
            panic!(
                "adversarial case {i} must compile; stderr: {}",
                outcome.stderr
            );
        };
        let fast = vm.run(&program);
        let slow = oracle.run(&program);
        assert_eq!(fast.return_code, slow.return_code, "case {i}: return code");
        assert_eq!(fast.stdout, slow.stdout, "case {i}: stdout");
        assert_eq!(fast.stderr, slow.stderr, "case {i}: stderr");
        assert_eq!(fast.fault, slow.fault, "case {i}: fault");
        assert_eq!(fast.steps, slow.steps, "case {i}: steps");
    }
}

/// The oracle as a pipeline backend, for service-level parity.
#[derive(Clone, Debug, Default)]
struct TreeWalkBackend {
    executor: TreeWalkExecutor,
}

impl ExecBackend for TreeWalkBackend {
    fn execute(&self, _item: &WorkItem, program: &Program) -> ExecSummary {
        let outcome = self.executor.run(program);
        ExecSummary {
            return_code: outcome.return_code,
            stdout: outcome.stdout.into(),
            stderr: outcome.stderr.into(),
            passed: outcome.return_code == 0,
        }
    }

    fn name(&self) -> &'static str {
        "treewalk-oracle"
    }
}

#[test]
fn service_records_and_latency_histogram_are_engine_independent() {
    let n = if cfg!(debug_assertions) { 80 } else { 2500 };
    for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
        // Each case three times over, under distinct ids: the compile cache
        // admits a source on its second touch and hits on its third, so the
        // bytecode service serves repeats from the exec memo while the
        // oracle service runs the tree-walker every time.
        let items: Vec<WorkItem> = CorpusSpec::new(model)
            .seed(0xFA57)
            .probe_seed(0x51_0C)
            .size(n)
            .source()
            .into_cases()
            .map(WorkItem::from)
            .flat_map(|item| {
                (0..3).map(move |copy| WorkItem {
                    id: format!("{}#{copy}", item.id),
                    ..item.clone()
                })
            })
            .collect();

        let bytecode_run = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .build()
            .run(items.clone());
        let oracle_run = ValidationService::builder()
            .mode(PipelineMode::RecordAll)
            .exec_backend(TreeWalkBackend::default())
            .build()
            .run(items);

        // Byte-identical records: same exec summaries feed the judge the
        // same prompts, so verdicts and responses match too.
        assert_eq!(
            bytecode_run.records, oracle_run.records,
            "{model}: records diverged between engines"
        );
        // And the PipelineStats latency histogram has identical bucket
        // counts — the simulated judge latency is a pure function of the
        // evidence both engines must agree on.
        assert_eq!(
            bytecode_run.stats.judge_latency, oracle_run.stats.judge_latency,
            "{model}: judge-latency histogram buckets diverged"
        );
        assert!(
            bytecode_run.stats.compile_cache_hits > 0,
            "{model}: repeats must hit the compile cache"
        );
        assert_eq!(bytecode_run.stats.judged, oracle_run.stats.judged);
        assert_eq!(bytecode_run.stats.executed, oracle_run.stats.executed);
        assert_eq!(
            bytecode_run.stats.exec_failures,
            oracle_run.stats.exec_failures
        );
    }
}
