//! A conventional event-driven logic simulator with classical inertial
//! delay — the baseline whose shortcomings the paper's Fig. 1 demonstrates.
//!
//! Differences from the HALOTIS engine:
//!
//! * signals carry plain logic levels; the only observation threshold is
//!   `Vdd/2`, shared by every fanout input,
//! * the propagation delay is always the nominal (conventional) delay,
//! * pulse filtering happens **once, at the driving gate output**: when a
//!   gate schedules an output change while an opposite change is still
//!   pending, and the separation between the two is smaller than the gate's
//!   inertial delay (taken equal to its propagation delay), both are
//!   cancelled for *every* fanout gate.
//!
//! The result type is the shared [`SimulationResult`] so that figures and
//! tables can treat all three simulators (reference analog, HALOTIS,
//! classical) uniformly.
//!
//! The pending-commit store is the same [`TimeWheel`] the HALOTIS
//! [`EventQueue`](crate::queue::EventQueue) runs on — one implementation of
//! time-ordered insert with serial tie-breaks, not a private copy that can
//! drift from the engine's.  Liveness is this engine's own: a gate can have
//! several commits in flight, so its pending marker cannot tell which are
//! live, and a set of cancelled serials is consulted as commits pop — the
//! rule of the retired heap queue.

use std::collections::HashSet;
use std::time::Instant;

use halotis_core::{Capacitance, LogicLevel, NetId, Time, TimeDelta};
use halotis_delay::{inertial, nominal};
use halotis_netlist::eval;
use halotis_netlist::{Library, Netlist};
use halotis_waveform::{DigitalWaveform, Stimulus, Trace, Transition};

use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::ramp;
use crate::result::SimulationResult;
use crate::stats::SimulationStats;
use crate::wheel::TimeWheel;

/// Wheel payload of one scheduled net-level commit; the commit instant and
/// the serial tie-break live in the wheel itself.
#[derive(Clone, Copy, Debug)]
struct NetCommit {
    net: NetId,
    level: LogicLevel,
    slew: TimeDelta,
}

/// The per-gate pending marker: enough of the in-flight commit to apply the
/// inertial rule (time, projected level) and to cancel it by serial.
#[derive(Clone, Copy, Debug)]
struct PendingCommit {
    serial: u64,
    time: Time,
    level: LogicLevel,
}

/// Runs the classical simulator on `netlist` with `library` timing.
///
/// Only the nominal delays of the library are used; the `model` field of
/// `config` is ignored (this simulator has no degradation support by
/// construction) and the result is labelled as conventional.
///
/// # Errors
///
/// Same error conditions as [`Simulator::run`](crate::Simulator::run).
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{classical, SimulationConfig};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::inverter_chain(2);
/// let library = technology::cmos06();
/// let mut stimulus = Stimulus::new(library.default_input_slew());
/// stimulus.set_initial("in", LogicLevel::Low);
/// stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
/// let result = classical::run(&netlist, &library, &stimulus, &SimulationConfig::cdm())?;
/// assert_eq!(result.ideal_waveform("out").unwrap().final_level(), LogicLevel::High);
/// # Ok::<(), halotis_sim::SimulationError>(())
/// ```
pub fn run(
    netlist: &Netlist,
    library: &Library,
    stimulus: &Stimulus,
    config: &SimulationConfig,
) -> Result<SimulationResult, SimulationError> {
    let started = Instant::now();
    let vdd = library.vdd();

    let gate_loads: Vec<Capacitance> = netlist
        .gates()
        .iter()
        .map(|gate| netlist.net_load(gate.output(), library))
        .collect::<Result<_, _>>()?;

    // Initial levels.
    let mut assignments = Vec::with_capacity(netlist.primary_inputs().len());
    for &input in netlist.primary_inputs() {
        let name = netlist.net(input).name();
        let Some(waveform) = stimulus.waveform(name) else {
            return Err(SimulationError::UndrivenPrimaryInput {
                net: name.to_string(),
            });
        };
        assignments.push((input, waveform.initial()));
    }
    let mut net_levels = eval::evaluate(netlist, &assignments);

    let mut net_waveforms: Vec<DigitalWaveform> = netlist
        .nets()
        .iter()
        .map(|net| DigitalWaveform::new(net_levels[net.id().index()]))
        .collect();

    // Pending (scheduled, not yet committed) output change per gate.
    let mut pending: Vec<Option<PendingCommit>> = vec![None; netlist.gate_count()];

    let mut wheel: TimeWheel<NetCommit> = TimeWheel::new();
    // Commits the inertial rule cancelled, dropped as they pop.
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut stats = SimulationStats::default();

    // Primary-input commits at the half-swing crossing of each stimulus edge.
    for &input in netlist.primary_inputs() {
        let waveform = stimulus
            .waveform(netlist.net(input).name())
            .expect("checked above");
        for transition in waveform.transitions() {
            wheel.push(
                transition.midpoint(vdd),
                NetCommit {
                    net: input,
                    level: transition.edge().target_level(),
                    slew: transition.slew(),
                },
            );
            stats.events_scheduled += 1;
        }
    }

    while let Some((commit_time, commit_serial, commit)) = wheel.pop() {
        if !cancelled.is_empty() && cancelled.remove(&commit_serial) {
            continue;
        }
        if let Some(limit) = config.time_limit {
            if commit_time > limit {
                break;
            }
        }
        stats.events_processed += 1;
        if stats.events_processed > config.max_events {
            return Err(SimulationError::EventBudgetExhausted {
                budget: config.max_events,
            });
        }

        let net = commit.net;
        if net_levels[net.index()] == commit.level {
            continue;
        }
        let previous_level = net_levels[net.index()];
        net_levels[net.index()] = commit.level;
        if let Some(edge) = ramp::edge_toward(previous_level, commit.level) {
            net_waveforms[net.index()].push(Transition::new(commit_time, commit.slew, edge));
            stats.output_transitions += 1;
        }
        // Clear the pending marker of the driving gate if this was its commit.
        if let halotis_netlist::NetDriver::Gate(driver) = netlist.net(net).driver() {
            if pending[driver.index()].is_some_and(|p| p.serial == commit_serial) {
                pending[driver.index()] = None;
            }
        }

        for &pin in netlist.net(net).loads() {
            let gate = netlist.gate(pin.gate());
            let inputs: Vec<LogicLevel> = gate
                .inputs()
                .iter()
                .map(|&n| net_levels[n.index()])
                .collect();
            let new_value = gate.kind().evaluate(&inputs);
            let committed = net_levels[gate.output().index()];
            let projected = pending[gate.id().index()]
                .map(|p| p.level)
                .unwrap_or(committed);
            if new_value == projected {
                continue;
            }
            let Some(edge) = ramp::edge_toward(projected, new_value) else {
                continue;
            };
            let arc = library.pin(gate.kind(), pin.input_index())?.timing;
            let timing = nominal::timing(
                arc.for_edge(edge),
                gate_loads[gate.id().index()],
                commit.slew,
            );
            let new_time = commit_time + timing.delay;

            if let Some(previous) = pending[gate.id().index()] {
                // Opposite-value change already in flight: apply the
                // classical inertial rule to the pulse they would form.
                let width = new_time - previous.time;
                stats.events_scheduled += 1;
                if !inertial::decide(width, timing.delay).propagates() {
                    // `width < delay` means the previous commit lies after
                    // this instant, so it is still in flight: every
                    // cancelled serial pops later and leaves the set.
                    debug_assert!(previous.time > commit_time);
                    cancelled.insert(previous.serial);
                    pending[gate.id().index()] = None;
                    stats.events_filtered += 2;
                    continue;
                }
            } else {
                stats.events_scheduled += 1;
            }

            let serial = wheel.push(
                new_time,
                NetCommit {
                    net: gate.output(),
                    level: new_value,
                    slew: timing.output_slew,
                },
            );
            pending[gate.id().index()] = Some(PendingCommit {
                serial,
                time: new_time,
                level: new_value,
            });
        }
    }

    let mut waveforms = Trace::new();
    for net in netlist.nets() {
        waveforms.insert(
            net.name(),
            std::mem::replace(
                &mut net_waveforms[net.id().index()],
                DigitalWaveform::new(LogicLevel::Unknown),
            ),
        );
    }
    let output_names = netlist
        .primary_outputs()
        .iter()
        .map(|&net| netlist.net(net).name().to_string())
        .collect();
    Ok(SimulationResult::new(
        halotis_delay::DelayModelKind::Conventional.into(),
        vdd,
        waveforms,
        output_names,
        stats,
        started.elapsed(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::Edge;
    use halotis_netlist::{generators, technology};

    fn step_stimulus(library: &Library, at_ns: f64) -> Stimulus {
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(at_ns), LogicLevel::High);
        stimulus
    }

    #[test]
    fn single_edge_propagates_like_halotis() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let stimulus = step_stimulus(&library, 1.0);
        let classical = run(&netlist, &library, &stimulus, &SimulationConfig::cdm()).unwrap();
        let halotis = crate::Simulator::new(&netlist, &library)
            .run(&stimulus, &SimulationConfig::cdm())
            .unwrap();
        let c = classical.ideal_waveform("out").unwrap();
        let h = halotis.ideal_waveform("out").unwrap();
        assert_eq!(c.final_level(), h.final_level());
        assert_eq!(c.edge_count(), h.edge_count());
        // Edge times agree to within one gate delay (the two engines use
        // different reference points for the ramp).
        let dt = (c.changes()[0].0 - h.changes()[0].0).abs();
        assert!(dt < TimeDelta::from_ps(800.0), "difference {dt}");
    }

    #[test]
    fn narrow_pulse_is_filtered_at_the_output_for_all_fanouts() {
        // Classical rule: the pulse disappears for both branches of the
        // Fig. 1 circuit, no matter their thresholds.
        let (netlist, nets) = generators::figure1(0.15, 0.85);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.05), LogicLevel::Low);
        let result = run(&netlist, &library, &stimulus, &SimulationConfig::cdm()).unwrap();
        let out1 = result.ideal_waveform(&nets.out1).unwrap().edge_count();
        let out2 = result.ideal_waveform(&nets.out2).unwrap().edge_count();
        assert_eq!(out1, out2, "classical filtering is all-or-nothing");
        assert!(result.stats().events_filtered > 0 || out1 == 0);
    }

    #[test]
    fn wide_pulse_propagates_to_both_fanouts() {
        let (netlist, nets) = generators::figure1(0.15, 0.85);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(4.0), LogicLevel::Low);
        let result = run(&netlist, &library, &stimulus, &SimulationConfig::cdm()).unwrap();
        assert_eq!(result.ideal_waveform(&nets.out1).unwrap().edge_count(), 2);
        assert_eq!(result.ideal_waveform(&nets.out2).unwrap().edge_count(), 2);
    }

    #[test]
    fn undriven_input_is_rejected() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let stimulus = Stimulus::new(library.default_input_slew());
        let err = run(&netlist, &library, &stimulus, &SimulationConfig::cdm()).unwrap_err();
        assert!(matches!(err, SimulationError::UndrivenPrimaryInput { .. }));
    }

    /// Folds `bytes` into an FNV-1a hash.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Runs the classical engine and returns the seven stats fields in
    /// declaration order, the number of recorded net transitions, and an
    /// FNV-1a digest of every net's name and transitions (start and slew
    /// in fs, edge), net by net.
    fn fingerprint(netlist: &Netlist, stimulus: &Stimulus) -> ([usize; 7], usize, u64) {
        let library = technology::cmos06();
        let result = run(netlist, &library, stimulus, &SimulationConfig::cdm()).unwrap();
        let stats = result.stats();
        let mut transitions = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for net in netlist.nets() {
            fnv1a(&mut digest, net.name().as_bytes());
            for transition in result.waveform(net.name()).unwrap().transitions() {
                fnv1a(&mut digest, &transition.start().as_fs().to_le_bytes());
                fnv1a(&mut digest, &transition.slew().as_fs().to_le_bytes());
                fnv1a(&mut digest, &[u8::from(transition.edge() == Edge::Rise)]);
                transitions += 1;
            }
        }
        (
            [
                stats.events_scheduled,
                stats.events_filtered,
                stats.events_processed,
                stats.output_transitions,
                stats.degraded_transitions,
                stats.collapsed_transitions,
                stats.queue_high_water,
            ],
            transitions,
            digest,
        )
    }

    /// Pins the inertial rule's cancellations: stats and every net's
    /// transitions for pulse trains narrow enough that the rule cancels
    /// commits still in flight — 4 on the Fig. 1 circuit, 40 on the 4×4
    /// multiplier, where some inputs switch at one instant.  A cancelled
    /// commit always lies after the instant that cancels it (the debug
    /// assertion in `run` checks every one), so no cancellation can hit a
    /// commit that already popped, even where a gate's pending marker
    /// outlives its commit.
    #[test]
    fn narrow_pulse_trains_are_pinned() {
        let library = technology::cmos06();
        let (netlist, _) = generators::figure1(0.15, 0.85);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        let edges = [1.0, 1.12, 1.37, 1.52, 1.92, 1.98, 2.07, 2.22, 2.37];
        for (k, ns) in edges.into_iter().enumerate() {
            let level = if k % 2 == 0 {
                LogicLevel::High
            } else {
                LogicLevel::Low
            };
            stimulus.drive("in", Time::from_ns(ns), level);
        }
        assert_eq!(
            fingerprint(&netlist, &stimulus),
            ([23, 8, 15, 15, 0, 0, 0], 15, 11831260830710860422)
        );

        let netlist = generators::multiplier(4, 4);
        let ports = generators::MultiplierPorts::new(4, 4);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
            stimulus.set_initial(*bit, LogicLevel::Low);
        }
        let a = [
            (1.0, 0xf),
            (1.25, 0x2),
            (1.5, 0x9),
            (1.9, 0x3),
            (2.75, 0x5),
            (3.15, 0xf),
        ];
        let b = [
            (1.05, 0xe),
            (1.45, 0x3),
            (1.7, 0x1),
            (1.9, 0x7),
            (2.95, 0xf),
            (3.95, 0x6),
        ];
        for ((a_ns, a_value), (b_ns, b_value)) in a.into_iter().zip(b) {
            stimulus.drive_bus_value(&ports.a_refs(), a_value, Time::from_ns(a_ns));
            stimulus.drive_bus_value(&ports.b_refs(), b_value, Time::from_ns(b_ns));
        }
        assert_eq!(
            fingerprint(&netlist, &stimulus),
            ([243, 80, 163, 163, 0, 0, 0], 163, 4509811675160103950)
        );
    }

    #[test]
    fn multiplier_product_is_functionally_correct() {
        let netlist = generators::multiplier(4, 4);
        let ports = generators::MultiplierPorts::new(4, 4);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
            stimulus.set_initial(*bit, LogicLevel::Low);
        }
        stimulus.drive_bus_value(&ports.a_refs(), 0xB, Time::from_ns(1.0));
        stimulus.drive_bus_value(&ports.b_refs(), 0xD, Time::from_ns(1.0));
        let result = run(&netlist, &library, &stimulus, &SimulationConfig::cdm()).unwrap();
        let mut product = 0u64;
        for (bit, name) in ports.s.iter().enumerate() {
            if result.ideal_waveform(name).unwrap().final_level() == LogicLevel::High {
                product |= 1 << bit;
            }
        }
        assert_eq!(product, 0xB * 0xD);
    }
}
