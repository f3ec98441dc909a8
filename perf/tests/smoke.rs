//! The benchmark's own tests, at smoke size: every workload runs in well
//! under a second, prints exactly the metrics `BENCHMARK.json` declares,
//! and checks clean; the traced configuration is the same program.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use vv_perf::pipeline::{service, Tracer};
use vv_perf::{corpus, run, Options, Scale, Workload};
use vv_pipeline::{encode_record, WorkItem};
use vv_store::ArtifactStore;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `name -> unit` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    let listed = include_str!("../../BENCHMARK.json");
    for name in &workloads {
        assert!(
            listed.contains(&format!("\"name\": \"{name}\"")),
            "{name} not declared"
        );
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let dir = work_dir(&format!("smoke-{}-{trace}", workload.name()));
            let opts = Options {
                workload,
                seed: 3,
                seconds: 0.05,
                trace,
                scale: Scale::Smoke,
                work_dir: dir.clone(),
            };
            let outcome = run(&opts).unwrap_or_else(|err| panic!("{}: {err}", workload.name()));
            let _ = std::fs::remove_dir_all(&dir);
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
            let printed: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(
                printed.len(),
                outcome.metrics.len(),
                "a metric printed twice"
            );
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                printed,
                declared(section),
                "{} trace={trace}",
                workload.name()
            );
            assert!(vv_perf::report::result_line(&outcome).is_ok());
        }
    }
}

fn campaign_items(seed: u64, n: usize) -> Vec<WorkItem> {
    corpus::collect(corpus::campaign(seed, 0, n, None))
        .into_iter()
        .map(|(case, _)| WorkItem::from(case))
        .collect()
}

fn tracer_for(items: &[WorkItem]) -> Tracer {
    Tracer::new(Arc::new(
        items
            .iter()
            .enumerate()
            .map(|(i, item)| (item.id.clone(), i as u32))
            .collect(),
    ))
}

#[test]
fn traced_warm_rerun_keeps_the_record_store() {
    let dir = work_dir("traced-warm-store");
    let items = campaign_items(5, 60);
    {
        let store = ArtifactStore::open_shared(&dir).unwrap();
        let populated = service(Workload::WarmRerun, Some(store), None)
            .submit(items.clone())
            .count();
        assert_eq!(populated, items.len());
    }
    let store = ArtifactStore::open_shared(&dir).unwrap();
    let tracer = tracer_for(&items);
    let traced = service(Workload::WarmRerun, Some(store), Some(&tracer));
    assert!(
        traced.record_store().is_some(),
        "a decorator dropped its fingerprint"
    );
    let mut stream = traced.submit(items.clone());
    assert_eq!((&mut stream).count(), items.len());
    let stats = stream.stats();
    assert!(
        stats.store_hits * 10 >= stats.submitted * 9,
        "{} hits of {} submitted",
        stats.store_hits,
        stats.submitted
    );
    drop(stream);
    drop(traced);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_and_untraced_runs_give_identical_records() {
    for workload in [Workload::ColdStream, Workload::PacedJudge] {
        let items = campaign_items(9, 48);
        let tracer = tracer_for(&items);
        let plain: Vec<Vec<u8>> = service(workload, None, None)
            .submit(items.clone())
            .map(|record| encode_record(&record))
            .collect();
        let traced: Vec<Vec<u8>> = service(workload, None, Some(&tracer))
            .submit(items.clone())
            .map(|record| encode_record(&record))
            .collect();
        assert_eq!(plain.len(), items.len());
        assert_eq!(plain, traced, "{}", workload.name());
    }
}
