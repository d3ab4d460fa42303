//! Property test for the daemon's what-if overlays: random histories of
//! `edit` requests and `revert`s on a cached c17.
//!
//! Each `edit` holds one to three named commands drawn from the active
//! netlist over the full alphabet — kind swaps, rewires, dangling inserts,
//! removals of any fanout-free gate (which renumber ids unless the gate is
//! last), exposes and unexposes — so some requests are rejected.  The oracle
//! does not use the revert code: after every accepted `edit` it records a
//! clone of the active netlist and that circuit's statistics on an
//! exhaustive suite.  Each `revert` must bring back exactly the snapshot
//! then on top, and the last one the pristine circuit with no overlay.  A
//! rejected `edit` must leave the netlist and the revert depth unchanged.

use halotis::core::TimeDelta;
use halotis::corpus::StimulusSuite;
use halotis::netlist::{generators, writer, CellKind, Netlist};
use halotis::serve::cache::{library, CircuitCache, CircuitState};
use halotis::serve::protocol::{EditCommand, ErrorCode};
use halotis::sim::{CompiledCircuit, SimulationConfig, SimulationStats};
use proptest::prelude::*;

/// One abstract command `(code, a, b, c)`, resolved against the active
/// netlist when its request is built.
type AbstractCommand = (u8, u32, u32, u32);

/// One recorded circuit: its netlist and its per-stimulus outcome.
type Snapshot = (Netlist, Vec<Result<SimulationStats, String>>);

fn pick<T: Clone>(items: &[T], selector: u32) -> T {
    items[selector as usize % items.len()].clone()
}

/// Resolves `command` to a named edit command on `netlist`.  `fresh` numbers
/// the names of inserted gates so every insert names a new net.
fn resolve(netlist: &Netlist, (code, a, b, c): AbstractCommand, fresh: &mut usize) -> EditCommand {
    let gate = pick(netlist.gates(), a);
    let net = |selector: u32| pick(netlist.nets(), selector).name().to_string();
    match code % 6 {
        0 => {
            // Mostly same-arity kinds; the rest are rejected arity changes.
            let arity = gate.inputs().len();
            let kinds: Vec<CellKind> = CellKind::ALL
                .into_iter()
                .filter(|kind| c % 4 == 0 || kind.input_count() == arity)
                .collect();
            EditCommand::SwapKind {
                gate: gate.name().to_string(),
                kind: pick(&kinds, b),
            }
        }
        1 => EditCommand::Rewire {
            gate: gate.name().to_string(),
            input: b as usize % gate.inputs().len(),
            net: net(c),
        },
        2 => {
            let kind = pick(&CellKind::ALL, a);
            *fresh += 1;
            EditCommand::Insert {
                kind,
                name: format!("w{fresh}"),
                inputs: (0..kind.input_count() as u32)
                    .map(|pin| net(b.wrapping_add(pin.wrapping_mul(c | 1))))
                    .collect(),
                output: format!("w{fresh}_out"),
            }
        }
        3 => {
            // Any fanout-free gate; with none, a gate in use (rejected).
            let removable: Vec<_> = netlist
                .gates()
                .iter()
                .filter(|gate| {
                    let output = netlist.net(gate.output());
                    output.loads().is_empty() && !output.is_primary_output()
                })
                .collect();
            let gate = if removable.is_empty() {
                &gate
            } else {
                pick(&removable, b)
            };
            EditCommand::Remove {
                gate: gate.name().to_string(),
            }
        }
        4 => EditCommand::Expose { net: net(a) },
        _ => EditCommand::Unexpose { net: net(a) },
    }
}

/// The active circuit's netlist and its outcome on every exhaustive-suite
/// stimulus.  A small event budget keeps oscillating latch loops cheap;
/// their budget error is part of the outcome.
fn snapshot(circuit: &CompiledCircuit<'_>) -> Snapshot {
    let suite = StimulusSuite::Exhaustive {
        period: TimeDelta::from_ns(4.0),
    };
    let config = SimulationConfig::default().with_max_events(100_000);
    let mut state = circuit.new_state();
    let outcomes = suite
        .stimuli(circuit.netlist(), library())
        .iter()
        .map(|(_, stimulus)| {
            circuit
                .run_stats(&mut state, stimulus, &config)
                .map_err(|err| err.to_string())
        })
        .collect();
    (circuit.netlist().clone(), outcomes)
}

fn depth(state: &CircuitState) -> usize {
    state
        .overlay
        .as_ref()
        .map_or(0, |overlay| overlay.scripts.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every revert restores the circuit as it stood before the newest
    /// outstanding edit.
    #[test]
    fn revert_restores_the_circuit_before_the_newest_edit(
        history in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(
                    (0u8..6, any::<u32>(), any::<u32>(), any::<u32>()),
                    1..=3,
                ),
            ),
            1..24,
        ),
    ) {
        let cache = CircuitCache::new(1);
        let key = cache.load(&writer::to_text(&generators::c17())).unwrap().key;
        let entry = cache.get(&key).unwrap();
        let mut state = entry.write_state();
        let pristine = snapshot(state.active());
        let mut snapshots: Vec<Snapshot> = Vec::new();
        let mut fresh = 0usize;

        for (step, commands) in history {
            if step == 0 {
                match state.revert() {
                    Ok(report) => {
                        prop_assert!(snapshots.pop().is_some());
                        prop_assert_eq!(report.revert_depth, snapshots.len());
                    }
                    Err(err) => {
                        prop_assert_eq!(err.code, ErrorCode::NothingToRevert);
                        prop_assert!(snapshots.is_empty());
                    }
                }
                let expected = snapshots.last().unwrap_or(&pristine);
                prop_assert_eq!(&snapshot(state.active()), expected);
                prop_assert_eq!(state.overlay.is_none(), snapshots.is_empty());
            } else {
                let commands: Vec<EditCommand> = commands
                    .into_iter()
                    .map(|command| resolve(state.active().netlist(), command, &mut fresh))
                    .collect();
                let before = state.active().netlist().clone();
                let depth_before = depth(&state);
                match state.apply_commands(&commands) {
                    Ok(report) => {
                        snapshots.push(snapshot(state.active()));
                        prop_assert_eq!(report.revert_depth, snapshots.len());
                    }
                    Err(_) => {
                        prop_assert_eq!(state.active().netlist(), &before);
                        prop_assert_eq!(depth(&state), depth_before);
                    }
                }
            }
            prop_assert_eq!(depth(&state), snapshots.len());
        }
    }
}
