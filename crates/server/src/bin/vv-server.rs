//! `vv-server` — run and drive the resident validation daemon.
//!
//! ```text
//! vv-server serve --addr 127.0.0.1:7411 [--store DIR] [--workers N]
//!                 [--queue N] [--inflight N]
//! vv-server submit --addr HOST:PORT --tenant NAME [--size N]
//!                  [--model acc|omp] [--seed N] [--mutated F]
//! vv-server stats --addr HOST:PORT
//! vv-server shutdown --addr HOST:PORT
//! ```
//!
//! `serve` blocks until a client sends `SHUTDOWN`. `submit` generates a
//! probed corpus locally (same generator as the in-process campaigns),
//! streams it through the daemon and prints the job's statistics. Each
//! subcommand accepts only its own flags; anything else (a typo, a flag
//! of another subcommand) is a usage error. Exit status: 0 on success,
//! 1 on runtime failure, 2 on usage errors.

use std::process::ExitCode;
use std::time::Instant;

use vv_dclang::DirectiveModel;
use vv_pipeline::WorkItem;
use vv_probing::{CorpusSpec, ProbeConfig};
use vv_server::{Client, JobSpec, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => return usage(),
    };
    match command {
        "serve" => serve(rest),
        "submit" => submit(rest),
        "stats" => stats(rest),
        "shutdown" => shutdown(rest),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vv-server serve --addr HOST:PORT [--store DIR] [--workers N] \
         [--queue N] [--inflight N]\n       \
         vv-server submit --addr HOST:PORT --tenant NAME [--size N] \
         [--model acc|omp] [--seed N] [--mutated F]\n       \
         vv-server stats --addr HOST:PORT\n       \
         vv-server shutdown --addr HOST:PORT"
    );
    ExitCode::from(2)
}

const SERVE_FLAGS: &[&str] = &["addr", "store", "workers", "queue", "inflight"];
const SUBMIT_FLAGS: &[&str] = &["addr", "tenant", "size", "model", "seed", "mutated"];
const ADDR_FLAGS: &[&str] = &["addr"];

/// Split `args` into `--flag value` pairs; `None` (a usage error) when a
/// flag lacks its value or is not in `allowed`.
fn flag_pairs<'a>(args: &'a [String], allowed: &[&str]) -> Option<Vec<(&'a str, &'a str)>> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.strip_prefix("--")?;
        if !allowed.contains(&flag) {
            eprintln!("vv-server: unknown flag --{flag}");
            return None;
        }
        let value = it.next()?;
        pairs.push((flag, value.as_str()));
    }
    Some(pairs)
}

fn find<'a>(pairs: &[(&str, &'a str)], flag: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(name, _)| *name == flag)
        .map(|(_, value)| *value)
}

fn serve(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args, SERVE_FLAGS) else {
        return usage();
    };
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let mut config = ServerConfig::default();
    if let Some(dir) = find(&pairs, "store") {
        config.store_dir = Some(dir.into());
    }
    for (flag, slot) in [
        ("workers", &mut config.workers as &mut usize),
        ("queue", &mut config.tenant_queue_capacity),
        ("inflight", &mut config.max_in_flight_per_tenant),
    ] {
        if let Some(value) = find(&pairs, flag) {
            match value.parse() {
                Ok(n) => *slot = n,
                Err(_) => return usage(),
            }
        }
    }
    let server = match Server::bind(addr, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("vv-server: bind {addr} failed: {err}");
            return ExitCode::from(1);
        }
    };
    println!(
        "vv-server listening on {}",
        server.local_addr().expect("bound server has an address")
    );
    server.join();
    println!("vv-server: drained and stopped");
    ExitCode::SUCCESS
}

fn submit(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args, SUBMIT_FLAGS) else {
        return usage();
    };
    let (Some(addr), Some(tenant)) = (find(&pairs, "addr"), find(&pairs, "tenant")) else {
        return usage();
    };
    let size = match find(&pairs, "size").map(str::parse).transpose() {
        Ok(size) => size.unwrap_or(64),
        Err(_) => return usage(),
    };
    let seed: u64 = match find(&pairs, "seed").map(str::parse).transpose() {
        Ok(seed) => seed.unwrap_or(0xC0FFEE),
        Err(_) => return usage(),
    };
    let model = match find(&pairs, "model") {
        None | Some("acc") => DirectiveModel::OpenAcc,
        Some("omp") => DirectiveModel::OpenMp,
        Some(_) => return usage(),
    };
    let mut probe = ProbeConfig::with_seed(seed ^ 0x9E37_79B9);
    if let Some(fraction) = find(&pairs, "mutated") {
        match fraction.parse() {
            Ok(fraction) => probe.mutated_fraction = fraction,
            Err(_) => return usage(),
        }
    }
    let mut source = CorpusSpec::new(model)
        .seed(seed)
        .probe(probe)
        .size(size)
        .source();
    let mut items = Vec::with_capacity(size);
    while let Some(case) = source.next_case() {
        items.push(WorkItem::from(case));
    }

    let submitted = items.len();
    let run = move || -> Result<(), vv_server::ClientError> {
        let mut client = Client::connect(addr, tenant)?;
        println!("connected to {} as tenant {tenant}", client.server_name());
        let started = Instant::now();
        let run = client.submit(JobSpec::default(), items)?.into_run()?;
        let elapsed = started.elapsed();
        println!("{}", run.stats);
        println!(
            "{} case(s) in {:.2}s over the wire ({:.0} cases/s)",
            submitted,
            elapsed.as_secs_f64(),
            submitted as f64 / elapsed.as_secs_f64().max(1e-9),
        );
        Ok(())
    };
    finish(run())
}

fn stats(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args, ADDR_FLAGS) else {
        return usage();
    };
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let run = || -> Result<(), vv_server::ClientError> {
        let mut client = Client::connect(addr, "vv-server-cli")?;
        println!("{}", client.stats()?);
        Ok(())
    };
    finish(run())
}

fn shutdown(args: &[String]) -> ExitCode {
    let Some(pairs) = flag_pairs(args, ADDR_FLAGS) else {
        return usage();
    };
    let Some(addr) = find(&pairs, "addr") else {
        return usage();
    };
    let run = || -> Result<(), vv_server::ClientError> {
        Client::connect(addr, "vv-server-cli")?.shutdown()?;
        println!("server drained and stopped");
        Ok(())
    };
    finish(run())
}

fn finish(result: Result<(), vv_server::ClientError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vv-server: {err}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn flags_outside_the_subcommands_set_are_rejected() {
        let serve = args(&["--addr", "127.0.0.1:0", "--workers", "8", "--queue", "4"]);
        assert_eq!(flag_pairs(&serve, SERVE_FLAGS).map(|p| p.len()), Some(3));
        for bad in [
            args(&["--addr", "127.0.0.1:0", "--strategy", "staged"]),
            args(&["--addr", "127.0.0.1:0", "--worker", "8"]),
            args(&["--addr", "127.0.0.1:0", "--tenant", "t"]),
            args(&["--addr"]),
            args(&["addr", "127.0.0.1:0"]),
        ] {
            assert!(flag_pairs(&bad, SERVE_FLAGS).is_none(), "{bad:?}");
        }
        assert!(flag_pairs(&args(&["--addr", "h:1", "--size", "9"]), ADDR_FLAGS).is_none());
    }

    #[test]
    fn every_subcommand_answers_an_unknown_flag_with_usage() {
        let usage_error = ExitCode::from(2);
        let bad = |extra: &[&str]| {
            let mut list = vec!["--addr", "127.0.0.1:9", "--tenant", "t"];
            list.extend_from_slice(extra);
            args(&list)
        };
        assert_eq!(serve(&bad(&[])), usage_error, "serve takes no --tenant");
        assert_eq!(
            serve(&args(&["--addr", "127.0.0.1:0", "--strategy", "staged"])),
            usage_error
        );
        assert_eq!(submit(&bad(&["--worker", "8"])), usage_error);
        assert_eq!(stats(&bad(&[])), usage_error);
        assert_eq!(shutdown(&bad(&[])), usage_error);
    }
}
