//! Wire-protocol hardening tests for the `halotis-serve` daemon.
//!
//! Every abusive input — truncated frames, oversized length prefixes,
//! garbage JSON, slow-loris trickling, pipelined overload — must produce a
//! structured error (where a reply is still possible) and leave the daemon
//! serving; worker-pool slots and per-connection quotas must never leak.
//! The daemon under test listens on loopback TCP (port 0) or a Unix-domain
//! socket, with timeouts tightened so the suite stays fast.

use std::time::Duration;

use halotis::core::TimeDelta;
use halotis::corpus::StimulusSuite;
use halotis::netlist::{generators, writer};
use halotis::serve::client::{
    load_request, revert_request, shutdown_request, simulate_request, stats_request, Client,
    Response,
};
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

    // A workload slow enough that pipelined requests pile up behind it.
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
    let path = std::env::temp_dir().join(format!("halotis-serve-test-{}.sock", std::process::id()));
    let handle = start(ServerConfig {
        uds: Some(path.clone()),
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .expect("daemon starts on uds");
    let mut client = Client::connect_uds(&path).expect("uds client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

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
