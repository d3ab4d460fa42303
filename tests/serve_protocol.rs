//! Wire-protocol hardening tests for the `halotis-serve` daemon.
//!
//! Every abusive input — truncated frames, oversized length prefixes,
//! garbage JSON, slow-loris trickling, pipelined overload — must produce a
//! structured error (where a reply is still possible) and leave the daemon
//! serving; worker-pool slots and per-connection quotas must never leak.
//! A client that reads its answers slowly or never must cost the daemon no
//! memory beyond the socket buffers, and hold at most one worker, for no
//! longer than the I/O timeout at a time.  The daemon under test listens on loopback TCP (port 0) or a
//! Unix-domain socket, with timeouts tightened so the suite stays fast.

use std::io::Read;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use halotis::core::TimeDelta;
use halotis::corpus::StimulusSuite;
use halotis::netlist::{generators, writer};
use halotis::serve::client::{
    load_request, revert_request, shutdown_request, simulate_request, stats_request, Client,
    Response,
};
use halotis::serve::frame::{read_frame, write_frame, FrameError};
use halotis::serve::json::{self, Value};
use halotis::serve::{start, ServerConfig, ServerHandle};

fn test_config() -> ServerConfig {
    ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    }
}

fn start_daemon(config: ServerConfig) -> (ServerHandle, String) {
    let handle = start(config).expect("daemon starts");
    let addr = handle.tcp_addr().expect("tcp bound").to_string();
    (handle, addr)
}

fn connect(addr: &str) -> Client {
    let mut client = Client::connect_tcp(addr).expect("client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// Starts a daemon on a Unix-domain socket only, named after `test`.
fn start_uds_daemon(test: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let path =
        std::env::temp_dir().join(format!("halotis-serve-{test}-{}.sock", std::process::id()));
    let handle = start(ServerConfig {
        tcp: None,
        uds: Some(path.clone()),
        ..config
    })
    .expect("daemon starts on uds");
    (handle, path)
}

fn connect_uds(path: &Path) -> Client {
    let mut client = Client::connect_uds(path).expect("uds client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// Loads c17 and returns its cache key.
fn load_c17(client: &mut Client, id: u64) -> String {
    client
        .call(&load_request(id, &c17_text()))
        .unwrap()
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .expect("c17 loads")
        .to_string()
}

/// One counter of the daemon's `stats` answer.
fn stat(client: &mut Client, id: u64, counter: &str) -> u64 {
    client
        .call(&stats_request(id))
        .unwrap()
        .ok()
        .and_then(|ok| ok.get(counter))
        .and_then(Value::as_u64)
        .expect("stats carries the counter")
}

fn stop(handle: ServerHandle) {
    handle.initiate_shutdown();
    handle.wait();
}

fn c17_text() -> String {
    writer::to_text(&generators::c17())
}

fn exhaustive() -> StimulusSuite {
    StimulusSuite::Exhaustive {
        period: TimeDelta::from_ns(4.0),
    }
}

/// Extracts the deterministic per-scenario payload of a simulate response
/// (everything except `wall_time_ns`).
fn scenario_payload(response: &Response) -> Vec<(String, Vec<u64>, u64)> {
    response
        .ok()
        .expect("simulate succeeded")
        .get("scenarios")
        .and_then(Value::as_array)
        .expect("scenarios present")
        .iter()
        .map(|row| {
            let counters = [
                "events_scheduled",
                "events_filtered",
                "events_processed",
                "output_transitions",
                "degraded_transitions",
                "collapsed_transitions",
                "queue_high_water",
                "transitions",
                "glitch_pulses",
            ]
            .iter()
            .map(|field| row.get(field).and_then(Value::as_u64).unwrap())
            .collect();
            (
                row.get("stimulus")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
                counters,
                row.get("energy_joules")
                    .and_then(Value::as_f64)
                    .unwrap()
                    .to_bits(),
            )
        })
        .collect()
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);

    let response = client.call("{definitely not json").unwrap();
    assert_eq!(response.error_code(), Some("bad_json"));
    assert_eq!(response.id, None);

    client.send("\u{fffd}").unwrap(); // valid UTF-8; exercise bad JSON path
    assert_eq!(
        client.recv().unwrap().unwrap().error_code(),
        Some("bad_json")
    );

    let response = client.call(r#"{"op":"warp","id":4}"#).unwrap();
    assert_eq!(response.error_code(), Some("unknown_op"));
    assert_eq!(response.id, Some(4));

    let response = client.call(r#"{"op":"simulate","id":5}"#).unwrap();
    assert_eq!(response.error_code(), Some("bad_request"));

    let response = client.call(r#"[1,2,3]"#).unwrap();
    assert_eq!(response.error_code(), Some("bad_request"));

    // Non-UTF-8 body, correctly framed.
    client.send_bytes(&[0, 0, 0, 2, 0xff, 0xfe]).unwrap();
    let response = client.recv().unwrap().unwrap();
    assert_eq!(response.error_code(), Some("malformed_frame"));

    // The same connection still serves real requests.
    let response = client.call(&stats_request(9)).unwrap();
    assert!(response.ok().is_some());
    drop(client);
    stop(handle);
}

#[test]
fn oversized_length_prefix_is_refused_with_a_structured_error() {
    let (handle, addr) = start_daemon(ServerConfig {
        max_frame: 1024,
        ..test_config()
    });
    let mut client = connect(&addr);
    client.send_bytes(&(1u32 << 30).to_be_bytes()).unwrap();
    let response = client.recv().unwrap().unwrap();
    assert_eq!(response.error_code(), Some("frame_too_large"));
    // The daemon hangs up after the error (the body was never consumed)…
    assert!(matches!(client.recv(), Ok(None) | Err(_)));
    // …but keeps serving fresh connections.
    let mut next = connect(&addr);
    assert!(next.call(&stats_request(1)).unwrap().ok().is_some());
    drop(next);
    stop(handle);
}

#[test]
fn truncated_frames_and_abrupt_disconnects_leave_the_daemon_serving() {
    let (handle, addr) = start_daemon(test_config());
    // Half a length prefix, then hang up.
    let mut client = connect(&addr);
    client.send_bytes(&[0, 0]).unwrap();
    drop(client);
    // A full prefix promising a body that never comes, then hang up.
    let mut client = connect(&addr);
    client.send_bytes(&[0, 0, 0, 64, b'{']).unwrap();
    drop(client);

    let mut next = connect(&addr);
    assert!(next.call(&stats_request(1)).unwrap().ok().is_some());
    drop(next);
    stop(handle);
}

#[test]
fn slow_loris_trickle_hits_the_read_timeout() {
    let (handle, addr) = start_daemon(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..test_config()
    });
    let mut client = connect(&addr);
    // A frame promised but trickled too slowly: the prefix arrives, the
    // body never does.
    client.send_bytes(&[0, 0, 0, 8, b'{']).unwrap();
    let response = client.recv().unwrap().unwrap();
    assert_eq!(response.error_code(), Some("timeout"));
    assert!(matches!(client.recv(), Ok(None) | Err(_)));
    drop(client);
    stop(handle);
}

#[test]
fn pipelined_overload_answers_quota_or_busy_and_slots_do_not_leak() {
    let (handle, addr) = start_daemon(ServerConfig {
        workers: 1,
        queue_depth: 4,
        max_inflight: 2,
        ..test_config()
    });
    let mut client = connect(&addr);
    let load = client.call(&load_request(1, &c17_text())).unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // A second connection occupies the only worker first.  Its connection
    // thread submits the simulate before it answers the `stats` behind it,
    // so once that answer arrives, every simulate below queues behind a run
    // of tens of thousands of vectors.
    let mut holder = connect(&addr);
    let long = StimulusSuite::RandomVectors {
        vectors: 60_000,
        period: TimeDelta::from_ns(5.0),
        seed: 0xBEEF,
    };
    holder
        .send(&simulate_request(2, &key, &long, "ddm"))
        .unwrap();
    holder.send(&stats_request(3)).unwrap();
    let stats = holder.recv().unwrap().expect("stats answered");
    assert_eq!(stats.id, Some(3), "the long simulate ended before stats");

    // Two simulates fill the quota while they wait; the other six are
    // refused at once.
    let heavy = StimulusSuite::RandomVectors {
        vectors: 200,
        period: TimeDelta::from_ns(5.0),
        seed: 0xFEED,
    };
    let total = 8u64;
    for id in 10..10 + total {
        client
            .send(&simulate_request(id, &key, &heavy, "ddm"))
            .unwrap();
    }
    let mut ok = 0;
    let mut rejected = 0;
    for _ in 0..total {
        let response = client.recv().unwrap().expect("daemon answers all");
        match response.error_code() {
            None => ok += 1,
            Some("quota") | Some("busy") => rejected += 1,
            Some(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(ok >= 1, "the pool must make progress");
    assert!(
        rejected >= 1,
        "an 8-deep pipeline must overflow a quota of 2"
    );
    let held = holder.recv().unwrap().expect("the long simulate answered");
    assert_eq!(held.id, Some(2));
    assert!(held.ok().is_some(), "{:?}", held.error_code());

    // No leaked slots: sequential requests all succeed afterwards.
    for id in 100..104 {
        let response = client
            .call(&simulate_request(id, &key, &exhaustive(), "ddm"))
            .unwrap();
        assert!(
            response.ok().is_some(),
            "post-overload request failed: {:?}",
            response.error_code()
        );
    }
    drop(holder);
    drop(client);
    stop(handle);
}

#[test]
fn lru_eviction_invalidates_keys_and_simulate_reports_unknown_key() {
    let (handle, addr) = start_daemon(ServerConfig {
        cache_capacity: 1,
        ..test_config()
    });
    let mut client = connect(&addr);
    let first = client.call(&load_request(1, &c17_text())).unwrap();
    let first_key = first
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let second = client
        .call(&load_request(
            2,
            &writer::to_text(&generators::parity_tree(4)),
        ))
        .unwrap();
    let second_key = second
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let response = client
        .call(&simulate_request(3, &first_key, &exhaustive(), "ddm"))
        .unwrap();
    assert_eq!(response.error_code(), Some("unknown_key"));
    let response = client
        .call(&simulate_request(4, &second_key, &exhaustive(), "cdm"))
        .unwrap();
    assert!(response.ok().is_some());
    drop(client);
    stop(handle);
}

#[test]
fn edit_and_revert_round_trip_over_the_wire() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let load = client.call(&load_request(1, &c17_text())).unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let baseline = client
        .call(&simulate_request(2, &key, &exhaustive(), "ddm"))
        .unwrap();
    let baseline_payload = scenario_payload(&baseline);

    // Unknown names are structured errors, and they are atomic.
    let response = client
        .call(&format!(
            r#"{{"op":"edit","id":3,"key":"{key}","commands":[{{"action":"swap_kind","gate":"ghost","kind":"nor2"}}]}}"#
        ))
        .unwrap();
    assert_eq!(response.error_code(), Some("unknown_gate"));
    let response = client
        .call(&format!(
            r#"{{"op":"edit","id":4,"key":"{key}","commands":[{{"action":"expose","net":"ghost"}}]}}"#
        ))
        .unwrap();
    assert_eq!(response.error_code(), Some("unknown_net"));

    // A real edit changes the numbers…
    let gate = generators::c17().gates()[0].name().to_string();
    let response = client
        .call(&format!(
            r#"{{"op":"edit","id":5,"key":"{key}","commands":[{{"action":"swap_kind","gate":"{gate}","kind":"nor2"}}]}}"#
        ))
        .unwrap();
    let ok = response.ok().expect("edit succeeded").clone();
    assert_eq!(ok.get("revert_depth").and_then(Value::as_u64), Some(1));

    let edited = client
        .call(&simulate_request(6, &key, &exhaustive(), "ddm"))
        .unwrap();
    assert_ne!(scenario_payload(&edited), baseline_payload);

    // …and revert restores them bit-exactly.
    let response = client.call(&revert_request(7, &key)).unwrap();
    let ok = response.ok().expect("revert succeeded").clone();
    assert_eq!(ok.get("revert_depth").and_then(Value::as_u64), Some(0));

    let restored = client
        .call(&simulate_request(8, &key, &exhaustive(), "ddm"))
        .unwrap();
    assert_eq!(scenario_payload(&restored), baseline_payload);

    let response = client.call(&revert_request(9, &key)).unwrap();
    assert_eq!(response.error_code(), Some("nothing_to_revert"));
    drop(client);
    stop(handle);
}

/// Edit B removes a gate that is not last, which renumbers ids; reverting
/// it must still undo exactly edit B and keep edit A.
#[test]
fn revert_after_a_renumbering_removal_keeps_the_earlier_edit() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let load = client.call(&load_request(1, &c17_text())).unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let simulate = |client: &mut Client, id: u64| {
        scenario_payload(
            &client
                .call(&simulate_request(id, &key, &exhaustive(), "ddm"))
                .unwrap(),
        )
    };
    let baseline = simulate(&mut client, 2);

    // Edit A: two dangling inverters, `wb` last in the id space.
    let response = client
        .call(&format!(
            concat!(
                r#"{{"op":"edit","id":3,"key":"{}","commands":["#,
                r#"{{"action":"insert","kind":"inv","name":"wa","inputs":["i1"],"output":"wa_out"}},"#,
                r#"{{"action":"insert","kind":"inv","name":"wb","inputs":["i2"],"output":"wb_out"}}]}}"#
            ),
            key
        ))
        .unwrap();
    let depth = response.ok().and_then(|ok| ok.get("revert_depth"));
    assert_eq!(depth.and_then(Value::as_u64), Some(1));
    let after_a = simulate(&mut client, 4);
    assert_ne!(after_a, baseline);

    // Edit B: removing `wa` moves `wb` into its slot.
    let response = client
        .call(&format!(
            r#"{{"op":"edit","id":5,"key":"{key}","commands":[{{"action":"remove","gate":"wa"}}]}}"#
        ))
        .unwrap();
    let depth = response.ok().and_then(|ok| ok.get("revert_depth"));
    assert_eq!(depth.and_then(Value::as_u64), Some(2));

    let response = client.call(&revert_request(6, &key)).unwrap();
    assert_eq!(
        response.ok(),
        Some(&json::parse(r#"{"revert_depth":1}"#).unwrap())
    );
    assert_eq!(simulate(&mut client, 7), after_a);

    let response = client.call(&revert_request(8, &key)).unwrap();
    assert_eq!(
        response.ok(),
        Some(&json::parse(r#"{"revert_depth":0}"#).unwrap())
    );
    assert_eq!(simulate(&mut client, 9), baseline);
    drop(client);
    stop(handle);
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let response = client.call(&shutdown_request(1)).unwrap();
    assert_eq!(
        response
            .ok()
            .and_then(|ok| ok.get("draining"))
            .and_then(Value::as_bool),
        Some(true)
    );
    // The daemon closes this connection after acknowledging.
    assert!(matches!(client.recv(), Ok(None) | Err(_)));
    drop(client);
    handle.wait();
}

#[test]
fn unix_domain_socket_serves_the_same_protocol() {
    let (handle, path) = start_uds_daemon("uds", test_config());
    let mut client = connect_uds(&path);

    let load = client.call(&load_request(1, &c17_text())).unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let response = client
        .call(&simulate_request(2, &key, &exhaustive(), "mix"))
        .unwrap();
    assert!(response.ok().is_some());
    drop(client);
    handle.initiate_shutdown();
    handle.wait();
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

#[test]
fn preload_warms_the_cache_through_the_load_path() {
    let (handle, addr) = start_daemon(ServerConfig {
        preload: true,
        ..test_config()
    });
    let mut client = connect(&addr);

    // Every standard-corpus circuit was compiled before the first client
    // connected (the capacity floor keeps the replay from self-evicting).
    // Entries sharing a circuit (probe/soak variants) dedupe by fingerprint.
    let corpus = halotis::corpus::standard_corpus();
    let unique: std::collections::BTreeSet<String> = corpus
        .iter()
        .map(|entry| writer::to_text(&entry.netlist))
        .collect();
    let stats = client.call(&stats_request(1)).unwrap();
    let cache = stats
        .ok()
        .and_then(|ok| ok.get("cache"))
        .cloned()
        .expect("cache block present");
    assert_eq!(
        cache.get("entries").and_then(Value::as_u64),
        Some(unique.len() as u64)
    );
    assert_eq!(
        cache.get("compiles").and_then(Value::as_u64),
        Some(unique.len() as u64)
    );

    // A client loading a corpus circuit hits the warmed entry: the preload
    // renders through the same writer the fingerprint hashes.
    let load = client.call(&load_request(2, &c17_text())).unwrap();
    let ok = load.ok().expect("load succeeds");
    assert_eq!(ok.get("cached").and_then(Value::as_bool), Some(true));
    drop(client);
    stop(handle);
}

#[test]
fn clocked_suites_simulate_sequential_circuits_over_the_wire() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let load = client
        .call(&load_request(
            1,
            &writer::to_text(&halotis::netlist::iscas::s27()),
        ))
        .unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let clocked = StimulusSuite::Clocked {
        cycles: 16,
        period: TimeDelta::from_ns(4.0),
        high: TimeDelta::from_ns(2.0),
        skew: TimeDelta::from_ps(500.0),
        seed: 0x27,
    };
    let response = client
        .call(&simulate_request(2, &key, &clocked, "ddm"))
        .unwrap();
    let payload = scenario_payload(&response);
    assert_eq!(payload.len(), 1, "one clocked scenario");
    let (label, counters, _) = &payload[0];
    assert_eq!(label, "clk16");
    // events_processed > 0 and the queue high-water mark is reported.
    assert!(counters[2] > 0, "clocked run processes events");
    assert!(counters[6] > 0, "queue high-water reported");

    // A degenerate clock shape is refused before it reaches a worker.
    let degenerate = StimulusSuite::Clocked {
        cycles: 4,
        period: TimeDelta::from_ns(2.0),
        high: TimeDelta::from_ns(1.5),
        skew: TimeDelta::from_ns(0.5),
        seed: 1,
    };
    let response = client
        .call(&simulate_request(3, &key, &degenerate, "ddm"))
        .unwrap();
    assert_eq!(response.error_code(), Some("bad_request"));
    drop(client);
    stop(handle);
}

/// Sends `suite` against c17 and expects `bad_request` naming `reason`,
/// then a second client's ordinary simulate must still be answered.
fn refused_before_expansion(suite: StimulusSuite, reason: &str) {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let load = client.call(&load_request(1, &c17_text())).unwrap();
    let key = load
        .ok()
        .and_then(|ok| ok.get("key"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let response = client
        .call(&simulate_request(2, &key, &suite, "ddm"))
        .unwrap();
    assert_eq!(response.error_code(), Some("bad_request"));
    let message = response.error_message().unwrap_or_default();
    assert!(message.contains(reason), "error names the cause: {message}");
    drop(client);

    let mut second = connect(&addr);
    let response = second
        .call(&simulate_request(1, &key, &exhaustive(), "ddm"))
        .unwrap();
    assert_eq!(scenario_payload(&response).len(), 1);
    drop(second);
    stop(handle);
}

#[test]
fn a_suite_over_the_event_budget_is_refused_before_expansion() {
    // 5 inputs × 2^52 vectors: expanding the patterns aborted the whole
    // daemon on a failed allocation.  The 1 fs period keeps every time in
    // range, so only the event budget can refuse it.
    refused_before_expansion(
        StimulusSuite::RandomVectors {
            vectors: 1 << 52,
            period: TimeDelta::from_fs(1),
            seed: 1,
        },
        "event budget",
    );
}

#[test]
fn a_suite_whose_times_overflow_is_refused_before_expansion() {
    // 2000 vectors 2^53 − 1 fs apart wrap the i64 femtosecond clock; the
    // daemon answered ok with rows computed on wrapped times.
    refused_before_expansion(
        StimulusSuite::RandomVectors {
            vectors: 2000,
            period: TimeDelta::from_fs((1 << 53) - 1),
            seed: 1,
        },
        "overflows",
    );
}

#[test]
fn cyclic_netlists_are_refused_with_a_structured_error() {
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);

    // A two-inverter ring: every net is driven, but the gate graph is
    // cyclic.  The daemon must answer netlist_error — not panic.
    let ring = "circuit ring\ninput en\nwire a b\noutput b\n\
                gate nand2 u1 en b -> a\ngate inv u2 a -> b\n";
    let response = client.call(&load_request(1, ring)).unwrap();
    assert_eq!(response.error_code(), Some("netlist_error"));
    let message = response.error_message().unwrap_or_default();
    assert!(
        message.contains("combinational loop"),
        "error names the loop: {message}"
    );

    // The connection survives and serves acyclic work afterwards.
    let load = client.call(&load_request(2, &c17_text())).unwrap();
    assert!(load.ok().is_some());
    drop(client);
    stop(handle);
}

#[test]
fn sequential_calls_over_tcp_are_not_held_back_by_nagle() {
    // Each frame is one write: a prefix written on its own let Nagle hold
    // the body back for the peer's delayed ACK, about 88 ms per round trip.
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let started = Instant::now();
    for id in 0..200 {
        assert!(client.call(&stats_request(id)).unwrap().ok().is_some());
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "200 round trips took {elapsed:?}"
    );
    drop(client);
    stop(handle);
}

#[test]
fn a_client_that_stops_reading_stops_its_own_requests() {
    // The answers back up in the socket, not in the daemon: once the socket
    // buffers are full, the daemon stops reading the flood.  A Unix socket's
    // buffers are fixed, so the stall point does not depend on autotuning.
    // The timeout must outlast the stall, or the daemon would close the
    // connection before the answers are read back.
    let (handle, path) = start_uds_daemon(
        "backlog",
        ServerConfig {
            read_timeout: Duration::from_secs(60),
            ..test_config()
        },
    );
    const FRAMES: u64 = 100_000;
    let mut flood = UnixStream::connect(&path).unwrap();
    let mut writer = flood.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        for id in 0..FRAMES {
            write_frame(&mut writer, stats_request(id).as_bytes()).unwrap();
        }
    });

    // Poll until the count of flood frames read stops growing.  Each poll is
    // one request too, counted before the answer is rendered.
    let mut probe = connect_uds(&path);
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut read, mut unchanged) = (0, 0);
    for id in 0.. {
        let now = stat(&mut probe, id, "requests") - (id + 1);
        unchanged = if now == read { unchanged + 1 } else { 0 };
        read = now;
        if unchanged == 5 || read >= FRAMES || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        read < FRAMES / 2,
        "the daemon read {read} of {FRAMES} frames from a client that reads nothing"
    );

    // Reading resumes the flood, and every answer arrives, in order.
    for id in 0..FRAMES {
        let body = read_frame(&mut flood, 1 << 20)
            .unwrap()
            .expect("an answer per request");
        assert!(body.starts_with(format!(r#"{{"id":{id},"ok":"#).as_bytes()));
    }
    sender.join().unwrap();
    drop((flood, probe));
    stop(handle);
}

#[test]
fn a_stuck_reader_is_closed_and_other_clients_keep_being_answered() {
    let timeout = Duration::from_millis(300);
    let (handle, path) = start_uds_daemon(
        "stuck",
        ServerConfig {
            read_timeout: timeout,
            ..test_config()
        },
    );
    // One probe connection throughout, which is never answered `timeout`.
    let mut probe = connect_uds(&path);
    let key = load_c17(&mut probe, 1);

    // The stuck client pipelines simulates and never reads its answers;
    // its sends fail once the daemon closes the connection.
    let mut stuck = UnixStream::connect(&path).unwrap();
    let mut writer = stuck.try_clone().unwrap();
    let stuck_key = key.clone();
    let sender = std::thread::spawn(move || {
        for id in 0..20_000 {
            let request = simulate_request(id, &stuck_key, &exhaustive(), "ddm");
            if write_frame(&mut writer, request.as_bytes()).is_err() {
                break;
            }
        }
    });

    // The daemon has read a stuck frame once `requests` counts more than
    // the probe's own.  From then until the stuck connection is closed,
    // leaving only the probe's open, every probe simulate is answered
    // within a small multiple of the timeout.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut id = 1;
    loop {
        id += 1;
        if stat(&mut probe, id, "requests") > id {
            break;
        }
        assert!(Instant::now() < deadline, "the stuck client was never read");
    }
    loop {
        id += 1;
        if stat(&mut probe, id, "connections") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stuck connection was never closed"
        );
        id += 1;
        let started = Instant::now();
        let response = probe
            .call(&simulate_request(id, &key, &exhaustive(), "ddm"))
            .unwrap();
        assert!(response.ok().is_some(), "{:?}", response.error_code());
        let waited = started.elapsed();
        assert!(waited < timeout * 5, "a simulate waited {waited:?}");
    }

    // The stuck client finds its connection closed after the answers the
    // socket still holds.
    stuck
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loop {
        match read_frame(&mut stuck, 1 << 20) {
            Ok(Some(_)) => {}
            Ok(None) | Err(FrameError::Truncated | FrameError::Io(_)) => break,
            Err(err) => panic!("the stuck connection stayed open: {err}"),
        }
    }
    sender.join().unwrap();
    drop(probe);
    stop(handle);
}

#[test]
fn a_slow_reader_holds_up_no_other_client() {
    // A client keeps more simulates in flight than there are workers and
    // reads one answer every 0.8 timeouts, so no single write of an answer
    // to it times out.  A worker that finds another thread writing to the
    // connection queues its answer instead of waiting, so the client holds
    // at most one worker; and the answers waiting for it cannot all be
    // written within one timeout, so it is closed.
    let timeout = Duration::from_millis(500);
    let (handle, path) = start_uds_daemon(
        "slow",
        ServerConfig {
            read_timeout: timeout,
            ..test_config()
        },
    );
    let mut probe = connect_uds(&path);
    let key = load_c17(&mut probe, 1);

    let slow = UnixStream::connect(&path).unwrap();
    let mut writer = slow.try_clone().unwrap();
    let slow_key = key.clone();
    let sender = std::thread::spawn(move || {
        for id in 0..20_000 {
            let request = simulate_request(id, &slow_key, &exhaustive(), "ddm");
            if write_frame(&mut writer, request.as_bytes()).is_err() {
                break;
            }
        }
    });
    let mut reader = slow.try_clone().unwrap();
    let pace = timeout * 4 / 5;
    let done = Arc::new(AtomicBool::new(false));
    let slow_reader = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                match read_frame(&mut reader, 1 << 20) {
                    Ok(Some(_)) => std::thread::sleep(pace),
                    _ => break,
                }
            }
        })
    };

    // The daemon has read a slow frame once `requests` counts more than the
    // probe's own.  From then on, for six timeouts and until the slow
    // connection is closed, every probe simulate is answered promptly.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut id = 1;
    loop {
        id += 1;
        if stat(&mut probe, id, "requests") > id {
            break;
        }
        assert!(Instant::now() < deadline, "the slow client was never read");
    }
    let window = Instant::now() + timeout * 6;
    let mut worst = Duration::ZERO;
    loop {
        id += 1;
        if Instant::now() > window && stat(&mut probe, id, "connections") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the slow connection was never closed"
        );
        id += 1;
        let started = Instant::now();
        let response = probe
            .call(&simulate_request(id, &key, &exhaustive(), "ddm"))
            .unwrap();
        assert!(response.ok().is_some(), "{:?}", response.error_code());
        worst = worst.max(started.elapsed());
    }
    assert!(
        worst < timeout / 2,
        "a simulate waited {worst:?} beside the slow reader"
    );

    done.store(true, Ordering::Relaxed);
    let _ = slow.shutdown(Shutdown::Both);
    sender.join().unwrap();
    slow_reader.join().unwrap();
    drop(probe);
    stop(handle);
}

#[test]
fn an_answer_trickled_out_past_the_timeout_closes_the_connection() {
    // The client reads steadily, 64 KiB every 50 ms, so each write call of
    // its 8 MB answer makes progress well within the timeout.  Writing the
    // whole answer takes seconds, though, and one timeout bounds all of an
    // answer's writes together, so the daemon closes the connection
    // mid-frame.
    let timeout = Duration::from_millis(300);
    let (handle, path) = start_uds_daemon(
        "trickle",
        ServerConfig {
            read_timeout: timeout,
            max_frame: 16 << 20,
            ..test_config()
        },
    );
    // A `load` answer echoes the circuit's name, so a long name asks for a
    // long answer.  The request is built before connecting, lest the
    // connection idle out.
    let name = "x".repeat(8 << 20);
    let request = load_request(1, &renamed_c17(&name));
    let mut client = UnixStream::connect(&path).unwrap();
    write_frame(&mut client, request.as_bytes()).unwrap();
    let mut prefix = [0u8; 4];
    client.read_exact(&mut prefix).unwrap();
    let announced = u32::from_be_bytes(prefix) as usize;
    assert!(announced > name.len());

    let started = Instant::now();
    let mut chunk = vec![0u8; 64 << 10];
    let mut received = 0;
    loop {
        match client.read(&mut chunk).unwrap() {
            0 => break,
            n => received += n,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        received < announced,
        "all {announced} bytes of the answer were written, over {:?}",
        started.elapsed()
    );
    drop(client);
    stop(handle);
}

/// The c17 netlist text under another circuit name.
fn renamed_c17(name: &str) -> String {
    let text = c17_text();
    let (_, body) = text.split_once('\n').expect("a circuit line");
    format!("circuit {name}\n{body}")
}

#[test]
fn error_answers_do_not_echo_megabyte_tokens() {
    // Error messages quote the key or netlist token at fault; an 8 MiB one
    // must still get a short answer, and the daemon keeps serving.
    let (handle, addr) = start_daemon(ServerConfig {
        max_frame: 16 << 20,
        ..test_config()
    });
    let token = "x".repeat(8 << 20);
    let bad_key = revert_request(1, &token);
    let bad_netlist = load_request(2, &format!("circuit c\n{token} a b\n"));
    for (request, code) in [(bad_key, "unknown_key"), (bad_netlist, "netlist_error")] {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        write_frame(&mut stream, request.as_bytes()).unwrap();
        let answer = read_frame(&mut stream, 1 << 20)
            .unwrap()
            .expect("an error answer");
        let text = String::from_utf8(answer).unwrap();
        assert!(
            text.len() < 1024,
            "a {}-byte answer: {text:.200}",
            text.len()
        );
        assert!(text.contains(&format!(r#""code":"{code}""#)), "{text}");
        assert!(text.contains("bytes, truncated"), "{text}");
    }
    let mut client = connect(&addr);
    assert!(!load_c17(&mut client, 3).is_empty());
    stop(handle);
}

#[test]
fn out_of_range_thresholds_are_refused_in_both_formats() {
    // A threshold override outside (0, 1) would leave its pin without
    // events; the load is refused, and the daemon keeps serving.
    let (handle, addr) = start_daemon(test_config());
    let mut client = connect(&addr);
    let load = |id: u64, text: &str, format: &str| {
        format!(
            r#"{{"op":"load","id":{id},"netlist":{},"format":"{format}"}}"#,
            json::string(text)
        )
    };
    let mut id = 1;
    for fraction in ["2.0", "-1", "NaN", "inf", "0", "1", "0.3"] {
        let net = format!("circuit vt\ninput a\noutput y\ngate inv g a -> y vt={fraction}\n");
        let verilog = format!(
            "module vt (a, y);\n  input a;\n  output y;\n  (* vt = \"{fraction}\" *) not g (y, a);\nendmodule\n"
        );
        for (text, format) in [(net, "net"), (verilog, "verilog")] {
            id += 1;
            let response = client.call(&load(id, &text, format)).unwrap();
            if fraction == "0.3" {
                assert!(
                    response.ok().is_some(),
                    "{format}: {:?}",
                    response.error_message()
                );
            } else {
                assert_eq!(
                    response.error_code(),
                    Some("netlist_error"),
                    "{format} vt={fraction}"
                );
                let message = response.error_message().unwrap_or_default();
                assert!(
                    message.contains("outside (0, 1)"),
                    "{format} vt={fraction}: {message}"
                );
            }
        }
    }
    let mut second = connect(&addr);
    assert!(!load_c17(&mut second, 100).is_empty());
    stop(handle);
}

#[test]
fn a_client_waiting_on_its_own_simulates_is_not_timed_out() {
    // The connection sends nothing while its pipelined simulates run on one
    // worker, for longer than the read timeout.  An idle read with answers
    // still owed is no timeout; once all are delivered, it is.
    let timeout = Duration::from_millis(50);
    let (handle, addr) = start_daemon(ServerConfig {
        workers: 1,
        read_timeout: timeout,
        ..test_config()
    });
    let mut client = connect(&addr);
    let key = load_c17(&mut client, 1);
    let heavy = StimulusSuite::RandomVectors {
        vectors: 30_000,
        period: TimeDelta::from_ns(5.0),
        seed: 7,
    };
    let started = Instant::now();
    for id in 10..18 {
        client
            .send(&simulate_request(id, &key, &heavy, "ddm"))
            .unwrap();
    }
    for _ in 10..18 {
        let response = client.recv().unwrap().expect("every simulate answered");
        assert!(response.ok().is_some(), "{:?}", response.error_code());
    }
    let waited = started.elapsed();
    assert!(
        waited > timeout * 2,
        "the simulates took {waited:?}, too short to outlast the read timeout"
    );
    let idle = client.recv().unwrap().expect("a timeout before the close");
    assert_eq!(idle.error_code(), Some("timeout"));
    drop(client);
    stop(handle);
}
