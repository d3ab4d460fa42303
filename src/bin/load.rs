//! `halotis-load` — the load generator and differential checker for the
//! `halotis-serve` daemon.
//!
//! ```text
//! halotis-load (--tcp ADDR | --uds PATH) [--clients N] [--repeats N]
//!              [--timing PATH] [--check-stats GOLDEN] [--shutdown]
//! ```
//!
//! * `--tcp ADDR` / `--uds PATH` — where the daemon listens (exactly one),
//! * `--clients N` — concurrent client connections (default 4),
//! * `--repeats N` — corpus passes per client (default 1),
//! * `--timing PATH` — write the latency report in the capture format
//!   `scripts/bench_to_json.py` parses (`serve/load/p50`,
//!   `serve/simulate/p99`, `serve/request_period`, …),
//! * `--check-stats GOLDEN` — deterministic-replay mode: replay the corpus
//!   once over one connection and compare every scenario against the
//!   committed `CORPUS_stats.json` (counters exactly, floats bitwise);
//!   exits non-zero on the first divergence,
//! * `--shutdown` — send a `shutdown` request after the run, draining the
//!   daemon (used by `scripts/serve_bench.sh`).
//!
//! Every run replays the full 24-entry standard corpus — each entry loaded
//! by fingerprint, then simulated under the DDM, CDM and MIX model columns.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use halotis::serve::client::{shutdown_request, Client};
use halotis::serve::loadgen::{self, LoadOptions, Target};

const USAGE: &str = "usage: halotis-load (--tcp ADDR | --uds PATH) [--clients N] \
                     [--repeats N] [--timing PATH] [--check-stats GOLDEN] [--shutdown]";

struct Options {
    target: Target,
    load: LoadOptions,
    timing: Option<String>,
    check_stats: Option<String>,
    shutdown: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut target: Option<Target> = None;
    let mut load = LoadOptions::default();
    let mut timing = None;
    let mut check_stats = None;
    let mut shutdown = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--tcp" => target = Some(Target::Tcp(value_of("--tcp")?)),
            "--uds" => target = Some(Target::Uds(PathBuf::from(value_of("--uds")?))),
            "--clients" => {
                load.clients = value_of("--clients")?
                    .parse()
                    .map_err(|_| "--clients needs an integer".to_string())?
            }
            "--repeats" => {
                load.repeats = value_of("--repeats")?
                    .parse()
                    .map_err(|_| "--repeats needs an integer".to_string())?
            }
            "--timing" => timing = Some(value_of("--timing")?),
            "--check-stats" => check_stats = Some(value_of("--check-stats")?),
            "--shutdown" => shutdown = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    let target = target.ok_or_else(|| "one of --tcp / --uds is required".to_string())?;
    Ok(Options {
        target,
        load,
        timing,
        check_stats,
        shutdown,
    })
}

fn send_shutdown(target: &Target) -> Result<(), String> {
    let mut client = match target {
        Target::Tcp(addr) => Client::connect_tcp(addr),
        Target::Uds(path) => Client::connect_uds(path),
    }
    .map_err(|err| err.to_string())?;
    client
        .call(&shutdown_request(1))
        .map_err(|err| err.to_string())?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(golden_path) = &options.check_stats {
        let golden = match fs::read_to_string(golden_path) {
            Ok(golden) => golden,
            Err(error) => {
                eprintln!("cannot read golden {golden_path}: {error}");
                return ExitCode::FAILURE;
            }
        };
        match loadgen::check_against_golden(&options.target, &golden) {
            Ok(checked) => {
                println!("serve replay OK: {checked} scenarios match {golden_path} exactly");
            }
            Err(divergence) => {
                eprintln!("serve replay MISMATCH: {divergence}");
                return ExitCode::FAILURE;
            }
        }
        if options.shutdown {
            if let Err(error) = send_shutdown(&options.target) {
                eprintln!("shutdown request failed: {error}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let summary = match loadgen::run_load(&options.target, &options.load) {
        Ok(summary) => summary,
        Err(error) => {
            eprintln!("load run failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    let report = loadgen::render_report(&summary);
    print!("{report}");
    if let Some(timing_path) = &options.timing {
        if let Err(error) = fs::write(timing_path, &report) {
            eprintln!("cannot write {timing_path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("wrote {timing_path}");
    }
    if options.shutdown {
        if let Err(error) = send_shutdown(&options.target) {
            eprintln!("shutdown request failed: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
