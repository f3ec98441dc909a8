//! Command-line entry point of the repository benchmark:
//!
//! ```text
//! vv-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host line, note lines, and as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! without a result line when the arguments or the run fail.

use std::process::ExitCode;

use vv_perf::{report, Options, Scale, Workload};

const USAGE: &str =
    "usage: vv-perf --workload <cold_stream|paced_judge|warm_rerun|daemon_tenants> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|err| format!("--seed: {err}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|err| format!("--seconds: {err}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let work_dir = std::env::current_dir()
        .map_err(|err| format!("current directory: {err}"))?
        .join(".bench_build")
        .join(format!("vv-perf-{}", std::process::id()));
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("vv-perf: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_line(&opts));
    let cpu_before = report::cpu_ticks();
    let result = vv_perf::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let line = result.and_then(|outcome| {
        for note in &outcome.notes {
            println!("# {note}");
        }
        if let Some(steal) = report::steal_share(&cpu_before, &report::cpu_ticks()) {
            println!("# host steal share during the run: {steal:.4}");
        }
        report::result_line(&outcome)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("vv-perf: {err}");
            ExitCode::FAILURE
        }
    }
}
