//! The execution entry point.
//!
//! [`Executor::run`] lowers the checked [`Program`] to register bytecode
//! (once — the artifact is cached on the program, see
//! [`crate::bytecode::lower_cached`]) and executes it with the VM's
//! dispatch loop. [`Executor::run_uncached`] lowers afresh, runs, and drops
//! the bytecode without touching the program's slot; the pipeline's exec
//! backend uses it because it keeps the run's *result* in that slot
//! instead. The original tree-walking interpreter is available as an
//! oracle behind the `treewalk-reference` feature
//! ([`crate::treewalk::TreeWalkExecutor`]); all three produce
//! byte-identical [`ExecOutcome`]s.

use crate::bytecode;
use crate::outcome::ExecOutcome;
use vv_simcompiler::Program;

/// Configuration for the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum number of interpreter steps before the run is killed
    /// (simulates a batch-system time limit).
    pub step_limit: u64,
    /// Maximum call depth before a simulated stack overflow.
    pub max_call_depth: usize,
    /// Maximum captured stdout/stderr size in bytes.
    pub capture_limit: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            step_limit: 4_000_000,
            max_call_depth: 128,
            capture_limit: 64 * 1024,
        }
    }
}

/// Runs compiled programs through the register-bytecode VM.
#[derive(Clone, Debug, Default)]
pub struct Executor {
    /// Execution limits.
    pub config: ExecConfig,
}

impl Executor {
    /// Create an executor with a custom configuration.
    pub fn new(config: ExecConfig) -> Self {
        Self { config }
    }

    /// Execute a compiled program and capture its observable behaviour.
    ///
    /// The first run of a given program lowers it to bytecode and caches
    /// the artifact on the program itself; subsequent runs (including runs
    /// of clones) skip straight to execution. If the program's slot already
    /// holds something else (the pipeline's memoized exec summary), every
    /// run lowers afresh: still correct, just not cached.
    pub fn run(&self, program: &Program) -> ExecOutcome {
        let lowered = bytecode::lower_cached(program);
        bytecode::run_lowered(&lowered, &self.config)
    }

    /// Execute a compiled program without reading or filling its shared
    /// slot: lower it, run the bytecode once, and drop it.
    ///
    /// For callers that cache something else in [`Program::derived`] (the
    /// pipeline's exec backend keeps the run's summary there), so the
    /// program does not also carry its bytecode. The outcome is identical
    /// to [`Executor::run`]'s.
    pub fn run_uncached(&self, program: &Program) -> ExecOutcome {
        bytecode::run_lowered(&bytecode::lower(program), &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_c_string;
    use crate::outcome::RuntimeFault;
    use crate::value::Value;
    use vv_dclang::DirectiveModel;
    use vv_simcompiler::{compiler_for, Lang};

    fn compile(source: &str, model: DirectiveModel) -> Program {
        let outcome = compiler_for(model).compile(source, Lang::C);
        assert!(outcome.succeeded(), "compile failed: {}", outcome.stderr);
        outcome.artifact.unwrap()
    }

    fn run(source: &str, model: DirectiveModel) -> ExecOutcome {
        Executor::default().run(&compile(source, model))
    }

    #[test]
    fn arithmetic_and_printf() {
        let out = run(
            "#include <stdio.h>\nint main() { int x = 6 * 7; double y = 1.5 + 2.25; printf(\"x=%d y=%f\\n\", x, y); return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 0);
        assert_eq!(out.stdout, "x=42 y=3.750000\n");
    }

    #[test]
    fn return_code_propagates() {
        let out = run("int main() { return 3; }", DirectiveModel::OpenMp);
        assert_eq!(out.return_code, 3);
    }

    #[test]
    fn exit_call_stops_execution() {
        let out = run(
            "#include <stdlib.h>\n#include <stdio.h>\nint main() { printf(\"before\\n\"); exit(7); printf(\"after\\n\"); return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 7);
        assert_eq!(out.stdout, "before\n");
    }

    #[test]
    fn user_function_calls_work() {
        let out = run(
            "int square(int x) { return x * x; }\nint main() { return square(5) == 25 ? 0 : 1; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 0);
    }

    #[test]
    fn stack_arrays_and_loops() {
        let out = run(
            "#include <stdio.h>\nint main() { int a[10]; int sum = 0; for (int i = 0; i < 10; i++) { a[i] = i; } for (int i = 0; i < 10; i++) { sum += a[i]; } printf(\"%d\\n\", sum); return sum == 45 ? 0 : 1; }",
            DirectiveModel::OpenMp,
        );
        assert_eq!(out.return_code, 0, "stdout: {}", out.stdout);
        assert_eq!(out.stdout.trim(), "45");
    }

    #[test]
    fn out_of_bounds_write_segfaults() {
        let out = run(
            "#include <stdlib.h>\nint main() { double *a = (double *)malloc(4 * sizeof(double)); a[100] = 1.0; return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 139);
        assert!(out.stderr.contains("Segmentation fault"));
    }

    #[test]
    fn division_by_zero_faults() {
        let out = run(
            "int main() { int a = 4; int b = 0; return a / b; }",
            DirectiveModel::OpenMp,
        );
        assert_eq!(out.return_code, 136);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let program = compile(
            "int main() { while (1) { } return 0; }",
            DirectiveModel::OpenAcc,
        );
        let exec = Executor::new(ExecConfig {
            step_limit: 10_000,
            ..Default::default()
        });
        let out = exec.run(&program);
        assert_eq!(out.return_code, 124);
        assert_eq!(out.fault, Some(RuntimeFault::StepLimit));
    }

    #[test]
    fn use_after_free_segfaults() {
        let out = run(
            "#include <stdlib.h>\nint main() { double *a = (double *)malloc(4 * sizeof(double)); free(a); a[0] = 1.0; return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 139);
    }

    #[test]
    fn omp_target_map_round_trip() {
        let out = run(
            r#"
#include <stdio.h>
#define N 32
int main() {
    double a[N];
    double b[N];
    for (int i = 0; i < N; i++) { a[i] = i * 1.0; b[i] = 0.0; }
#pragma omp target map(to: a[0:N]) map(from: b[0:N])
    {
#pragma omp parallel for
        for (int i = 0; i < N; i++) { b[i] = a[i] + 1.0; }
    }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != a[i] + 1.0) { err++; } }
    if (err != 0) { printf("FAIL %d\n", err); return 1; }
    printf("PASS\n");
    return 0;
}
"#,
            DirectiveModel::OpenMp,
        );
        assert_eq!(
            out.return_code, 0,
            "stdout: {} stderr: {}",
            out.stdout, out.stderr
        );
        assert!(out.stdout.contains("PASS"));
    }

    #[test]
    fn acc_reduction_computes_correct_sum() {
        let out = run(
            r#"
#include <stdio.h>
#include <stdlib.h>
#define N 100
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { a[i] = 1.0; }
    double sum = 0.0;
#pragma acc parallel loop reduction(+:sum) copyin(a[0:N])
    for (int i = 0; i < N; i++) { sum += a[i]; }
    free(a);
    if (sum != 100.0) { printf("FAIL sum=%f\n", sum); return 1; }
    printf("PASS\n");
    return 0;
}
"#,
            DirectiveModel::OpenAcc,
        );
        assert_eq!(
            out.return_code, 0,
            "stdout: {} stderr: {}",
            out.stdout, out.stderr
        );
    }

    #[test]
    fn copyin_without_copyout_loses_device_writes() {
        // A classic data-movement mistake: results computed on the device are
        // never copied back, so the host-side verification fails.
        let out = run(
            r#"
#include <stdio.h>
#include <stdlib.h>
#define N 16
int main() {
    double *b = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { b[i] = 0.0; }
#pragma acc data copyin(b[0:N])
    {
#pragma acc parallel loop
        for (int i = 0; i < N; i++) { b[i] = 5.0; }
    }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != 5.0) { err++; } }
    if (err != 0) { printf("FAIL\n"); return 1; }
    printf("PASS\n");
    return 0;
}
"#,
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 1, "stdout: {}", out.stdout);
        assert!(out.stdout.contains("FAIL"));
    }

    #[test]
    fn enter_exit_data_and_update() {
        let out = run(
            r#"
#include <stdio.h>
#include <stdlib.h>
#define N 8
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { a[i] = 2.0; }
#pragma acc enter data copyin(a[0:N])
#pragma acc parallel loop present(a[0:N])
    for (int i = 0; i < N; i++) { a[i] = a[i] * 3.0; }
#pragma acc update self(a[0:N])
#pragma acc exit data delete(a[0:N])
    int err = 0;
    for (int i = 0; i < N; i++) { if (a[i] != 6.0) { err++; } }
    free(a);
    if (err != 0) { printf("FAIL\n"); return 1; }
    printf("PASS\n");
    return 0;
}
"#,
            DirectiveModel::OpenAcc,
        );
        assert_eq!(
            out.return_code, 0,
            "stdout: {} stderr: {}",
            out.stdout, out.stderr
        );
    }

    #[test]
    fn math_builtins() {
        let out = run(
            "#include <math.h>\nint main() { double x = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0); return x == 14.0 ? 0 : 1; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 0);
    }

    #[test]
    fn format_c_string_specifiers() {
        assert_eq!(
            format_c_string(
                "i=%d f=%.2f s=%s %%",
                &[Value::Int(3), Value::Float(1.5), Value::Str("ok".into())]
            ),
            "i=3 f=1.50 s=ok %"
        );
        assert_eq!(format_c_string("%ld", &[Value::Int(-9)]), "-9");
        assert_eq!(format_c_string("no args %d", &[]), "no args 0");
    }

    #[test]
    fn recursion_depth_limit_triggers_stack_overflow() {
        let src = "int rec(int n) { return rec(n + 1); }\nint main() { return rec(0); }";
        let out = run(src, DirectiveModel::OpenAcc);
        assert!(out.return_code == 139 || out.return_code == 124);
    }

    #[test]
    fn uninitialized_scalar_reads_produce_garbage_not_zero() {
        let out = run(
            "int main() { double x; if (x == 0.0) { return 0; } return 1; }",
            DirectiveModel::OpenAcc,
        );
        assert_eq!(out.return_code, 1);
    }

    #[test]
    fn break_and_continue_inside_data_region() {
        // Break out of a loop from inside a structured data region: the
        // region's exit transfers must still run (flow unwinding).
        let out = run(
            r#"
#include <stdio.h>
#include <stdlib.h>
#define N 8
int main() {
    double *b = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { b[i] = 0.0; }
    for (int i = 0; i < N; i++) {
#pragma acc data copy(b[0:N])
        {
#pragma acc parallel loop
            for (int j = 0; j < N; j++) { b[j] = b[j] + 1.0; }
        }
        if (i == 2) { break; }
    }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != 3.0) { err++; } }
    if (err != 0) { printf("FAIL\n"); return 1; }
    printf("PASS\n");
    return 0;
}
"#,
            DirectiveModel::OpenAcc,
        );
        assert_eq!(
            out.return_code, 0,
            "stdout: {} stderr: {}",
            out.stdout, out.stderr
        );
    }

    #[test]
    fn lowering_is_cached_on_the_program() {
        let program = compile("int main() { return 0; }", DirectiveModel::OpenAcc);
        let first = bytecode::lower_cached(&program);
        let second = bytecode::lower_cached(&program.clone());
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert!(first.instruction_count() > 0);
    }

    #[test]
    fn uncached_run_matches_cached_run_and_leaves_the_slot_empty() {
        let program = compile(
            "#include <stdio.h>\nint main() { int s = 0; for (int i = 0; i < 5; i++) { s += i; } printf(\"%d\\n\", s); return s == 10 ? 0 : 1; }",
            DirectiveModel::OpenAcc,
        );
        let exec = Executor::default();
        let uncached = exec.run_uncached(&program);
        // The slot is still empty, so the first value offered is published.
        assert_eq!(*program.derived(|| 7u32), 7);
        assert_eq!(*program.derived(|| 8u32), 7);
        // `run` on a slot that holds another type lowers without caching,
        // and still agrees with the uncached run.
        let cached = exec.run(&program);
        assert_eq!(uncached.stdout, "10\n");
        assert_eq!(
            (uncached.return_code, &uncached.stdout, &uncached.stderr),
            (cached.return_code, &cached.stdout, &cached.stderr)
        );
        assert_eq!(
            (uncached.fault, uncached.steps),
            (cached.fault, cached.steps)
        );
    }

    #[test]
    fn printf_return_value_counts_all_bytes_past_capture_limit() {
        let program = compile(
            "#include <stdio.h>\nint main() { int n = 0; for (int i = 0; i < 10; i++) { n += printf(\"0123456789\"); } return n == 100 ? 0 : 1; }",
            DirectiveModel::OpenAcc,
        );
        let exec = Executor::new(ExecConfig {
            capture_limit: 32,
            ..Default::default()
        });
        let out = exec.run(&program);
        assert_eq!(out.return_code, 0, "stdout: {}", out.stdout);
        assert_eq!(out.stdout.len(), 32);
    }
}
