//! Small measurement helpers: quantiles, repeated set-up, memory.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks), or 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`, or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Jobs per segment when a job-latency tail is taken per segment.
pub const JOB_SEGMENT: usize = 20;

/// The tail of a typical stretch of a run: the median, over consecutive
/// `segment`-sized runs of `values` (in submission order), of each
/// segment's `q`-quantile; the plain quantile when there are fewer values
/// than one segment. On a shared host a few stalled stretches would
/// otherwise decide a run's tail.
pub fn segment_quantile(values: &[f64], segment: usize, q: f64) -> f64 {
    if values.len() < segment {
        return quantile(values, q);
    }
    let tails: Vec<f64> = values
        .chunks_exact(segment)
        .map(|part| quantile(part, q))
        .collect();
    median(&tails)
}

/// Nanoseconds as (fractional) microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds as (fractional) milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Elapsed nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, Instant::now())
}

/// Nanoseconds from `start` to `end` (0 if `end` is earlier).
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Least set-up repetitions of a measured run; their median is reported
/// as `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Time a measured run goes on repeating a short set-up for.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Most set-up repetitions [`repeated_setup`] makes.
pub const SETUP_MAX_REPS: usize = 31;

/// Build the state a workload's timed section starts from at least `reps`
/// times, and more (up to [`SETUP_MAX_REPS`]) until `budget` has been
/// spent, so a set-up of a few milliseconds is still a median over many;
/// keep the last state and return it with the median set-up time in
/// seconds. Each earlier state is dropped before the next is built, so
/// repetitions never hold store locks or memory at the same time.
pub fn repeated_setup<T>(
    reps: usize,
    budget: Duration,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    let started = Instant::now();
    while times.len() < reps.max(1) || (times.len() < SETUP_MAX_REPS && started.elapsed() < budget)
    {
        drop(state.take());
        let rep_started = Instant::now();
        state = Some(setup()?);
        times.push(rep_started.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&times)))
}

/// Run `round(index)` until at least `min_rounds` have run and `window`
/// has elapsed since the first one started, or until a round returns
/// `false`.
pub fn run_rounds(
    window: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<bool, String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut index = 0;
    while index < min_rounds || started.elapsed() < window {
        if !round(index)? {
            break;
        }
        index += 1;
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_quantiles_take_the_typical_segment() {
        let mut values = vec![1.0; 3 * JOB_SEGMENT];
        values[..JOB_SEGMENT / 2].fill(100.0);
        assert_eq!(segment_quantile(&values, JOB_SEGMENT, 0.9), 1.0);
        assert_eq!(segment_quantile(&values[..3], JOB_SEGMENT, 0.5), 100.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
