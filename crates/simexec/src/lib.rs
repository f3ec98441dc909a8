//! `vv-simexec` — the execution substrate.
//!
//! The paper runs every successfully compiled test on a Perlmutter GPU node
//! and feeds the program's *return code, stdout and stderr* into the agent
//! prompt and the validation pipeline's second stage. This crate substitutes
//! a deterministic interpreter for that step:
//!
//! * it executes the checked [`vv_simcompiler::Program`] artifact directly;
//! * it models host and device memory separately, honouring data-movement
//!   clauses (`copyin`/`copyout`/`create`/`map`/`update`), with a present
//!   table per the OpenACC/OpenMP runtime semantics;
//! * it reproduces the runtime failure modes that matter for negative
//!   probing: dereferencing an uninitialized pointer (the "removed memory
//!   allocation" mutation) raises a simulated segmentation fault, failed
//!   verification loops make the test return a nonzero exit code, runaway
//!   loops hit a step budget, and data written only to a device copy that is
//!   never mapped back is lost, exactly as on real hardware;
//! * execution is fully deterministic, so every experiment in the benchmark
//!   harness is reproducible bit-for-bit.
//!
//! The outcome type mirrors exactly what the judge's agent prompt consumes.
//!
//! # Execution engines
//!
//! Programs execute through the register-bytecode VM in [`bytecode`]: the
//! checked AST is lowered (interned symbols, frame-slot variable resolution,
//! pre-resolved function and clause references) and the dispatch loop runs
//! the result. [`Executor::run`] caches the lowered artifact in the
//! [`vv_simcompiler::Program`]'s shared slot, so repeated execution pays only
//! the dispatch loop. [`Executor::run_uncached`] lowers, runs and drops the
//! bytecode without touching the slot; the validation pipeline's exec
//! backend uses it and keeps the run's summary in the slot instead, so a
//! repeated program skips the VM altogether there. No memo lives in this
//! crate: every call here runs the VM. The original tree-walking interpreter is retained
//! behind the `treewalk-reference` feature as a differential oracle: both
//! engines share per-operation semantics and must produce byte-identical
//! [`ExecOutcome`]s (asserted over the streaming corpus by
//! `tests/exec_parity.rs`).

pub mod bytecode;
pub mod interp;
pub mod memory;
pub mod outcome;
pub(crate) mod rt;
#[cfg(feature = "treewalk-reference")]
pub mod treewalk;
pub mod value;

pub use bytecode::{lower, lower_cached, CompiledProgram};
pub use interp::{ExecConfig, Executor};
pub use memory::{DeviceSpace, HostSpace, MemoryError};
pub use outcome::{ExecOutcome, RuntimeFault};
pub use rt::format_c_string;
#[cfg(feature = "treewalk-reference")]
pub use treewalk::TreeWalkExecutor;
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;
    use vv_simcompiler::{compiler_for, Lang};

    fn run(source: &str, model: DirectiveModel) -> ExecOutcome {
        let compiler = compiler_for(model);
        let compiled = compiler.compile(source, Lang::C);
        assert!(compiled.succeeded(), "compile failed: {}", compiled.stderr);
        Executor::default().run(&compiled.artifact.unwrap())
    }

    #[test]
    fn valid_acc_test_passes_end_to_end() {
        let src = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 64
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    double *b = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { a[i] = i * 0.5; b[i] = 0.0; }
#pragma acc data copyin(a[0:N]) copyout(b[0:N])
    {
#pragma acc parallel loop
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0; }
    }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != a[i] * 2.0) { err = err + 1; } }
    free(a);
    free(b);
    if (err != 0) { printf("Test failed with %d errors\n", err); return 1; }
    printf("Test passed\n");
    return 0;
}
"#;
        let outcome = run(src, DirectiveModel::OpenAcc);
        assert_eq!(outcome.return_code, 0, "stderr: {}", outcome.stderr);
        assert!(outcome.stdout.contains("Test passed"));
    }

    #[test]
    fn removed_allocation_segfaults_at_runtime() {
        let src = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 16
int main() {
    double *a;
    for (int i = 0; i < N; i++) { a[i] = i; }
    printf("done\n");
    return 0;
}
"#;
        let outcome = run(src, DirectiveModel::OpenAcc);
        assert_ne!(outcome.return_code, 0);
        assert!(outcome.stderr.to_lowercase().contains("segmentation"));
    }
}
