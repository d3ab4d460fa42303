//! Equivalence suite for the incremental ECO path.
//!
//! The contract of `CompiledCircuit::apply_edits` is *latency only, no
//! behaviour change*: after any sequence of netlist edits, the incrementally
//! patched circuit must produce bit-identical waveforms and statistics to a
//! from-scratch compile of the mutated netlist — through the single-shot
//! run path and through a 2-thread batch.
//!
//! Each property drives a random edit script (kind swaps, gate inserts,
//! input rewires, gate removals, net exposures and un-exposures — including
//! scripts whose
//! individual steps are legitimately rejected, e.g. a rewire that would
//! close a combinational loop) against circuits from three families:
//! `random_logic`, the ISCAS c17 benchmark, and an 8-bit Kogge–Stone adder.

use halotis::core::{LogicLevel, NetId, Time, TimeDelta};
use halotis::netlist::{generators, technology, CellKind, Library, Netlist};
use halotis::sim::{
    sta, BatchRunner, CompiledCircuit, Scenario, SimulationConfig, SimulationError,
    SimulationResult,
};
use halotis::waveform::Stimulus;
use proptest::prelude::*;

/// One raw edit instruction: an opcode plus three operand seeds the driver
/// reduces modulo the current netlist dimensions.
type EditSeed = (u8, u32, u32, u32);

fn edit_script() -> impl Strategy<Value = Vec<EditSeed>> {
    proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>(), any::<u32>()), 1..10)
}

/// Interprets one seed against the current netlist, returning the number of
/// mutations applied (0 when the step was a no-op or legitimately rejected).
fn apply_one_edit(
    circuit: &mut CompiledCircuit<'_>,
    step: usize,
    (op, a, b, c): EditSeed,
) -> usize {
    let outcome = circuit.edit(|session| {
        let netlist = session.netlist();
        let gate_count = netlist.gate_count();
        let net_count = netlist.net_count();
        match op {
            // Swap a gate's cell kind within its arity class.
            0 => {
                let gate = netlist.gates()[a as usize % gate_count].id();
                let arity = netlist.gate(gate).inputs().len();
                let kinds: Vec<CellKind> = CellKind::ALL
                    .into_iter()
                    .filter(|kind| kind.input_count() == arity)
                    .collect();
                session.swap_cell_kind(gate, kinds[b as usize % kinds.len()])
            }
            // Graft a fresh 2-input gate onto two existing nets and expose
            // it, so the new logic is observable.
            1 => {
                let kinds = [
                    CellKind::Nand2,
                    CellKind::Nor2,
                    CellKind::Xor2,
                    CellKind::And2,
                ];
                let in1 = netlist.nets()[a as usize % net_count].id();
                let in2 = netlist.nets()[b as usize % net_count].id();
                let kind = kinds[c as usize % kinds.len()];
                let (_, output) = session.insert_gate(
                    kind,
                    format!("eco_g{step}"),
                    &[in1, in2],
                    format!("eco_n{step}"),
                )?;
                session.expose_net(output)
            }
            // Rewire one input pin; may be rejected as a combinational loop.
            2 => {
                let gate = netlist.gates()[a as usize % gate_count].id();
                let pin = b as usize % netlist.gate(gate).inputs().len();
                let net = netlist.nets()[c as usize % net_count].id();
                session.rewire_input(gate, pin, net)
            }
            // Remove the first removable gate at or after a random start.
            3 => {
                let start = a as usize % gate_count;
                let target = (0..gate_count)
                    .map(|offset| netlist.gates()[(start + offset) % gate_count].id())
                    .find(|&gate| {
                        let net = netlist.net(netlist.gate(gate).output());
                        net.loads().is_empty() && !net.is_primary_output()
                    });
                match target {
                    Some(gate) => session.remove_gate(gate).map(|_| ()),
                    None => Ok(()),
                }
            }
            // Expose a net; may be rejected when it is a primary input.
            4 => {
                let net = netlist.nets()[a as usize % net_count].id();
                session.expose_net(net)
            }
            // Un-expose a primary output, which may free its driver for a
            // later removal.
            _ => match netlist.primary_outputs() {
                [] => Ok(()),
                outputs => session.unexpose_net(outputs[a as usize % outputs.len()]),
            },
        }
    });
    match outcome {
        Ok(log) => log.edits(),
        // Structurally invalid steps (loops, exposing a primary input) are
        // atomic rejections: the netlist is untouched, the circuit stays
        // consistent, the script simply moves on.
        Err(SimulationError::Netlist(_)) => 0,
        Err(error) => panic!("edit step {step} failed unexpectedly: {error}"),
    }
}

/// Drives random toggles into every primary input.
fn random_stimulus(
    netlist: &Netlist,
    library: &Library,
    polarity: u64,
    spread_ps: f64,
) -> Stimulus {
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for (index, &input) in netlist.primary_inputs().iter().enumerate() {
        let name = netlist.net(input).name().to_string();
        let initial = if polarity & (1 << (index % 64)) != 0 {
            LogicLevel::High
        } else {
            LogicLevel::Low
        };
        stimulus.set_initial(&name, initial);
        stimulus.drive(
            &name,
            Time::from_ns(1.0) + TimeDelta::from_ps(spread_ps * (index as f64 + 1.0)),
            if initial == LogicLevel::High {
                LogicLevel::Low
            } else {
                LogicLevel::High
            },
        );
    }
    stimulus
}

fn assert_identical(context: &str, reference: &SimulationResult, candidate: &SimulationResult) {
    assert_eq!(
        reference.stats(),
        candidate.stats(),
        "{context}: statistics diverge"
    );
    for (name, waveform) in reference.waveforms().iter() {
        assert_eq!(
            Some(waveform),
            candidate.waveform(name),
            "{context}: waveform of net {name} diverges"
        );
    }
    assert_eq!(
        reference.waveforms().len(),
        candidate.waveforms().len(),
        "{context}: net sets diverge"
    );
    assert_eq!(
        reference.output_names(),
        candidate.output_names(),
        "{context}: primary-output lists diverge"
    );
}

/// The core property: apply `script` incrementally, then prove the patched
/// circuit indistinguishable from a fresh compile of the mutated netlist.
fn check_incremental_matches_fresh(
    context: &str,
    netlist: Netlist,
    script: &[EditSeed],
    polarity: u64,
    spread_ps: f64,
) {
    let library = technology::cmos06();
    let mut circuit = CompiledCircuit::compile(&netlist, &library).expect("base compile");
    let mut state = circuit.new_state();
    // Exercise arena reuse across the edit: run once before editing so a
    // stale-row bug in adapt_state cannot hide behind a fresh arena.
    let warmup = random_stimulus(circuit.netlist(), &library, polarity, spread_ps);
    circuit
        .run_with(&mut state, &warmup, &SimulationConfig::ddm())
        .expect("pre-edit run");

    let mut edits = 0usize;
    for (step, &seed) in script.iter().enumerate() {
        edits += apply_one_edit(&mut circuit, step, seed);
    }
    circuit.adapt_state(&mut state);

    let mutated = circuit.netlist().clone();
    let fresh =
        CompiledCircuit::compile(&mutated, &library).expect("fresh compile of edited netlist");
    assert_eq!(
        circuit.levels(),
        fresh.levels(),
        "{context}: incremental levelization diverges from fresh levelize"
    );
    assert_eq!(
        &mutated,
        fresh.netlist(),
        "{context}: netlist clone mismatch"
    );
    // Static timing walks the patched levelization and pin tables, so it
    // must bound every net exactly as on the fresh compile.
    let slew = library.default_input_slew();
    let (patched_sta, fresh_sta) = (sta::analyze(&circuit, slew), sta::analyze(&fresh, slew));
    for net in mutated.nets() {
        assert_eq!(
            (patched_sta.arrival(net.id()), patched_sta.slew(net.id())),
            (fresh_sta.arrival(net.id()), fresh_sta.slew(net.id())),
            "{context}: STA bounds of net {} diverge",
            net.name()
        );
    }

    let stimulus = random_stimulus(&mutated, &library, polarity, spread_ps);
    let mut fresh_state = fresh.new_state();
    let mut scenarios = Vec::new();
    let mut references = Vec::new();
    for config in [SimulationConfig::ddm(), SimulationConfig::cdm()] {
        let reference = fresh
            .run_with(&mut fresh_state, &stimulus, &config)
            .expect("fresh run");
        let incremental = circuit
            .run_with(&mut state, &stimulus, &config)
            .expect("incremental run");
        assert_identical(
            &format!("{context} [{} after {edits} edits]", config.model),
            &reference,
            &incremental,
        );
        scenarios.push(Scenario::new(
            format!("{}", config.model),
            stimulus.clone(),
            config,
        ));
        references.push(reference);
    }

    // The patched circuit must also serve the parallel batch path.
    let report = BatchRunner::with_threads(2).run(&circuit, &scenarios);
    assert_eq!(report.failed(), 0, "{context}: batch scenarios failed");
    for (reference, outcome) in references.iter().zip(report.outcomes()) {
        assert_identical(
            &format!("{context} [batch {}]", outcome.label),
            reference,
            outcome.result.as_ref().expect("batch run succeeds"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_logic_edit_sequences_match_fresh_compile(
        inputs in 3usize..7,
        gates in 6usize..28,
        seed in any::<u64>(),
        script in edit_script(),
        polarity in any::<u64>(),
        spread_ps in 0.0f64..2000.0,
    ) {
        let netlist = generators::random_logic(inputs, gates, seed);
        check_incremental_matches_fresh(
            &format!("random_logic({inputs},{gates},{seed:#x})"),
            netlist,
            &script,
            polarity,
            spread_ps,
        );
    }

    #[test]
    fn c17_edit_sequences_match_fresh_compile(
        script in edit_script(),
        polarity in any::<u64>(),
        spread_ps in 0.0f64..2000.0,
    ) {
        check_incremental_matches_fresh("c17", generators::c17(), &script, polarity, spread_ps);
    }

    #[test]
    fn kogge_stone_edit_sequences_match_fresh_compile(
        script in edit_script(),
        polarity in any::<u64>(),
        spread_ps in 0.0f64..1000.0,
    ) {
        check_incremental_matches_fresh(
            "ks8",
            generators::kogge_stone_adder(8),
            &script,
            polarity,
            spread_ps,
        );
    }
}

/// Deterministic smoke check outside proptest: a scripted mix of every edit
/// kind on c17, including a remove that renumbers by swap_remove.
#[test]
fn scripted_edit_mix_matches_fresh_compile() {
    let netlist = generators::c17();
    let library = technology::cmos06();
    let mut circuit = CompiledCircuit::compile(&netlist, &library).unwrap();

    let i1 = circuit.netlist().net_id("i1").unwrap();
    let n10 = circuit.netlist().net_id("n10").unwrap();
    let first = circuit.netlist().gates()[0].id();
    let log = circuit
        .edit(|session| {
            session.swap_cell_kind(first, CellKind::And2)?;
            let (tmp, _) = session.insert_gate(CellKind::Inv, "tmp", &[i1], "tmp_out")?;
            let (keep, keep_out) =
                session.insert_gate(CellKind::Xor2, "keep", &[n10, i1], "keep_out")?;
            session.expose_net(keep_out)?;
            session.rewire_input(keep, 1, n10)?;
            // Removing `tmp` renumbers `keep` (the last gate) into its slot.
            session.remove_gate(tmp)?;
            // Un-exposing o22 frees its driver for removal.
            let o22 = session.netlist().net_id("o22").expect("c17 drives o22");
            session.unexpose_net(o22)?;
            let g22 = session
                .netlist()
                .gates()
                .iter()
                .find(|gate| gate.name() == "g22")
                .expect("c17 has g22")
                .id();
            session.remove_gate(g22).map(|_| ())
        })
        .unwrap();
    assert!(log.edits() >= 7);

    let mutated = circuit.netlist().clone();
    let fresh = CompiledCircuit::compile(&mutated, &library).unwrap();
    assert_eq!(circuit.levels(), fresh.levels());

    let stimulus = random_stimulus(&mutated, &library, 0b10110, 333.0);
    let mut state = circuit.new_state();
    let mut fresh_state = fresh.new_state();
    for config in [SimulationConfig::ddm(), SimulationConfig::cdm()] {
        let reference = fresh
            .run_with(&mut fresh_state, &stimulus, &config)
            .unwrap();
        let incremental = circuit.run_with(&mut state, &stimulus, &config).unwrap();
        assert_identical("scripted mix", &reference, &incremental);
        assert_eq!(incremental.output_names(), ["o23", "keep_out"]);
        let keep_wave = incremental.waveform("keep_out");
        assert!(keep_wave.is_some(), "exposed net must be recorded");
    }
}

/// A gate insert that reuses the pin block freed by a prior removal must
/// rebuild those dense rows — the hole-reuse path of the pin allocator.
#[test]
fn hole_reuse_matches_fresh_compile() {
    let netlist = generators::c17();
    let library = technology::cmos06();
    let mut circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
    let pin_arena = circuit.pins().len();

    let i1 = circuit.netlist().net_id("i1").unwrap();
    let i2 = circuit.netlist().net_id("i2").unwrap();
    circuit
        .edit(|session| {
            let (doomed, _) =
                session.insert_gate(CellKind::Nand2, "doomed", &[i1, i2], "doomed_out")?;
            session.remove_gate(doomed).map(|_| ())
        })
        .unwrap();
    circuit
        .edit(|session| {
            let (_, out) =
                session.insert_gate(CellKind::Nor2, "reuser", &[i2, i1], "reuser_out")?;
            session.expose_net(out)
        })
        .unwrap();
    // The second 2-input gate must have slotted into the freed block.
    assert_eq!(circuit.pins().len(), pin_arena + 2);

    let mutated = circuit.netlist().clone();
    let fresh = CompiledCircuit::compile(&mutated, &library).unwrap();
    let stimulus = random_stimulus(&mutated, &library, 0b01011, 250.0);
    let reference = fresh.run(&stimulus, &SimulationConfig::ddm()).unwrap();
    let mut state = circuit.new_state();
    let incremental = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .unwrap();
    assert_identical("hole reuse", &reference, &incremental);
}

/// `NetId` is part of the public edit API surface; keep it nameable here so
/// an accidental re-export removal fails this suite rather than downstream
/// users.
#[allow(dead_code)]
fn _edit_api_types(net: NetId) -> NetId {
    net
}
