//! The printed result: a host line, note lines, and the final JSON object.

use std::fmt::Write as _;
use std::process::Command;

use crate::{Options, Outcome};

/// Escape `text` as a JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's standard output, or `unknown`. The command
/// is waited for.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host fingerprint every result names: core count, toolchain,
/// profile, source revision and the workload's seed.
pub fn host_line(opts: &Options) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"available_parallelism\": {cores}, \"rustc\": {}, \"profile\": \"{profile}\", \
         \"git_rev\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&probe(&rustc, &["-V"])),
        json_str(&probe("git", &["rev-parse", "HEAD"])),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
    )
}

/// The host's aggregate CPU tick counters (`/proc/stat`), if readable.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_owned();
            Some(
                line.split_whitespace()
                    .filter_map(|n| n.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings: on a shared host it explains run-to-run spread.
pub fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    (delta.len() > 7 && total > 0).then(|| delta[7] as f64 / total as f64)
}

/// The final result line. Fails on a non-finite metric, which JSON cannot
/// carry and which would mean a broken measurement.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for metric in &outcome.metrics {
        if !metric.value.is_finite() {
            return Err(format!("metric {} is {}", metric.name, metric.value));
        }
        metrics.push(format!(
            "{}: {{\"value\": {:?}, \"unit\": {}}}",
            json_str(metric.name),
            metric.value,
            json_str(metric.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    #[test]
    fn result_line_is_json_with_full_precision() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "cases_per_s",
                value: 1234.5678901234,
                unit: "1/s",
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"cases_per_s\": {\"value\": 1234.5678901234, \"unit\": \"1/s\"}}}"
        );
        let mut broken = outcome;
        broken.metrics[0].value = f64::NAN;
        assert!(result_line(&broken).is_err());
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
