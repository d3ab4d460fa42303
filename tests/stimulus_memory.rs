//! A long suite streams: running c17 under a long random suite through
//! the suite's generators must not grow the process's peak resident set by
//! more than 4 MB.
//!
//! * With the null observer, 50k vectors grow it by about 0.2 MB; keeping
//!   the stimulus (its expanded waveforms, and every event staged up
//!   front) grew it by 15.9 MB on the same run.
//! * With the [`ScenarioObserver`] bundle every corpus and daemon run
//!   uses, 200k vectors grow it by about 0.2 MB: the glitch profile folds
//!   each change point once no later transition can revoke it.  Keeping
//!   every change point for the whole run grew it by 18.2 MB.
//!
//! The peak (`VmHWM`) is per process and the test harness runs tests side
//! by side, so each test re-runs itself in a child process that does the
//! measured run alone and reports its growth.

#![cfg(target_os = "linux")]

use std::process::Command;

use halotis::core::TimeDelta;
use halotis::corpus::{ModelColumn, ScenarioObserver, StimulusSuite};
use halotis::netlist::{generators, technology};
use halotis::sim::{CompiledCircuit, SimObserver};

/// Set in the child process.
const CHILD: &str = "HALOTIS_STIMULUS_MEMORY_CHILD";
/// The bound on the peak growth, in kB.
const BOUND_KB: u64 = 4 * 1024;

/// The process's peak resident set, in kB.
fn peak_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM")
}

/// The measured run: compiles c17 and runs it once under a `vectors`-long
/// random suite's generator with `observer`; prints the peak growth in kB.
fn measure(vectors: usize, observer: &mut impl SimObserver) {
    let netlist = generators::c17();
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library).expect("c17 compiles");
    let mut state = circuit.new_state();
    let suite = StimulusSuite::RandomVectors {
        vectors,
        period: TimeDelta::from_ns(5.0),
        seed: 0x5EED,
    };
    let (_, source) = suite
        .sources(&netlist, &library)
        .pop()
        .expect("one stimulus");
    let before = peak_kb();
    let stats = circuit
        .run_observed(&mut state, &source, &ModelColumn::Ddm.config(), observer)
        .expect("the suite runs within the event budget");
    let grown = peak_kb() - before;
    assert!(stats.events_processed > 2 * vectors, "{stats:?}");
    println!(
        "peak growth {grown} kB, queue high water {}",
        stats.queue_high_water
    );
}

/// Runs `measure` in a child process that re-runs test `name` alone, and
/// checks the growth it reports against the bound.
fn measured_alone(name: &str, measure: impl FnOnce()) {
    if std::env::var_os(CHILD).is_some() {
        measure();
        return;
    }
    let output = Command::new(std::env::current_exe().expect("the test binary"))
        .args([name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the child test runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed: {stdout}");
    let grown: u64 = stdout
        .split("peak growth ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or_else(|| panic!("no growth reported: {stdout}"));
    assert!(
        grown < BOUND_KB,
        "peak resident set grew {grown} kB, over the {BOUND_KB} kB bound: {stdout}"
    );
}

#[test]
fn a_long_random_suite_streams_in_bounded_memory() {
    measured_alone("a_long_random_suite_streams_in_bounded_memory", || {
        measure(50_000, &mut ())
    });
}

#[test]
fn the_scenario_observers_stay_bounded_on_a_long_suite() {
    measured_alone(
        "the_scenario_observers_stay_bounded_on_a_long_suite",
        || measure(200_000, &mut ScenarioObserver::default()),
    );
}
