//! A long suite streams: running c17 under a 50k-vector random suite
//! through the suite's generators must not grow the process's peak
//! resident set by more than 4 MB.  Streaming grows it by about 0.2 MB;
//! keeping the stimulus (its expanded waveforms, and every event staged
//! up front) grew it by 15.9 MB on the same run.
//!
//! The peak (`VmHWM`) is per process and the test harness runs tests side
//! by side, so the test re-runs itself in a child process that does the
//! measured run alone and reports its growth.

#![cfg(target_os = "linux")]

use std::process::Command;

use halotis::core::TimeDelta;
use halotis::corpus::{ModelColumn, StimulusSuite};
use halotis::netlist::{generators, technology};
use halotis::sim::CompiledCircuit;

const TEST: &str = "a_long_random_suite_streams_in_bounded_memory";
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

/// The measured run: compiles c17 and runs it once under the suite's
/// generator with the null observer; prints the peak growth in kB.
fn measure() {
    let netlist = generators::c17();
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library).expect("c17 compiles");
    let mut state = circuit.new_state();
    let suite = StimulusSuite::RandomVectors {
        vectors: 50_000,
        period: TimeDelta::from_ns(5.0),
        seed: 0x5EED,
    };
    let (_, source) = suite
        .sources(&netlist, &library)
        .pop()
        .expect("one stimulus");
    let before = peak_kb();
    let stats = circuit
        .run_observed(&mut state, &source, &ModelColumn::Ddm.config(), &mut ())
        .expect("the suite runs within the event budget");
    let grown = peak_kb() - before;
    assert!(stats.events_processed > 100_000, "{stats:?}");
    println!(
        "peak growth {grown} kB, queue high water {}",
        stats.queue_high_water
    );
}

#[test]
fn a_long_random_suite_streams_in_bounded_memory() {
    if std::env::var_os(CHILD).is_some() {
        measure();
        return;
    }
    let output = Command::new(std::env::current_exe().expect("the test binary"))
        .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
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
