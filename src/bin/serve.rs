//! `halotis-serve` — the compiled-circuit simulation daemon.
//!
//! ```text
//! halotis-serve [--tcp ADDR] [--uds PATH] [--workers N] [--queue-depth N]
//!               [--cache N] [--max-frame BYTES] [--max-inflight N]
//!               [--read-timeout-ms MS] [--preload]
//! ```
//!
//! * `--tcp ADDR` — listen on a TCP address (e.g. `127.0.0.1:7816`; port 0
//!   picks a free port, printed on startup),
//! * `--uds PATH` — listen on a Unix-domain socket (a stale socket file is
//!   replaced; the file is removed on clean shutdown),
//! * `--workers N` — simulation worker threads (default 2),
//! * `--queue-depth N` — bounded simulation queue; overflow answers `busy`
//!   (default 32),
//! * `--cache N` — compiled circuits the LRU cache keeps (default 8),
//! * `--max-frame BYTES` — largest accepted request frame (default 8 MiB),
//! * `--max-inflight N` — per-connection simulate quota; overflow answers
//!   `quota` (default 8),
//! * `--read-timeout-ms MS` — per-connection I/O timeout: it bounds each
//!   read (the slow-loris bound) and each run of answer writes, so a client
//!   that stops reading is disconnected (default 10000),
//! * `--preload` — replay the standard corpus into the compiled-circuit
//!   cache before accepting connections (raises `--cache` to fit it).
//!
//! At least one of `--tcp` / `--uds` is required.  The daemon runs until a
//! client sends `shutdown`, then drains: in-flight simulations finish,
//! new work is refused with `shutting_down`.  The wire protocol is
//! specified in `PROTOCOL.md`.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use halotis::serve::{self, ServerConfig};

const USAGE: &str = "usage: halotis-serve [--tcp ADDR] [--uds PATH] [--workers N] \
                     [--queue-depth N] [--cache N] [--max-frame BYTES] \
                     [--max-inflight N] [--read-timeout-ms MS] [--preload]";

fn parse_options(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parse_usize = |flag: &str, value: String| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match arg.as_str() {
            "--tcp" => config.tcp = Some(value_of("--tcp")?),
            "--uds" => config.uds = Some(PathBuf::from(value_of("--uds")?)),
            "--workers" => config.workers = parse_usize("--workers", value_of("--workers")?)?,
            "--queue-depth" => {
                config.queue_depth = parse_usize("--queue-depth", value_of("--queue-depth")?)?
            }
            "--cache" => config.cache_capacity = parse_usize("--cache", value_of("--cache")?)?,
            "--max-frame" => {
                config.max_frame = parse_usize("--max-frame", value_of("--max-frame")?)?
            }
            "--max-inflight" => {
                config.max_inflight = parse_usize("--max-inflight", value_of("--max-inflight")?)?
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(
                    value_of("--read-timeout-ms")?
                        .parse()
                        .map_err(|_| "--read-timeout-ms needs an integer".to_string())?,
                )
            }
            "--preload" => config.preload = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if config.tcp.is_none() && config.uds.is_none() {
        return Err("at least one of --tcp / --uds is required".to_string());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let config = match parse_options(&args) {
        Ok(config) => config,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let workers = config.workers;
    let handle = match serve::start(config) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("cannot start daemon: {error}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = handle.tcp_addr() {
        println!("halotis-serve listening on tcp {addr} ({workers} workers)");
    }
    if let Some(path) = handle.uds_path() {
        println!(
            "halotis-serve listening on uds {} ({workers} workers)",
            path.display()
        );
    }
    handle.wait();
    println!("halotis-serve drained; bye");
    ExitCode::SUCCESS
}
