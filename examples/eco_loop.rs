//! The ECO loop: edit a compiled circuit in place and re-run in microseconds.
//!
//! An engineering change order ("what if this NAND were a NOR?") used to
//! mean recompiling the whole `CompiledCircuit`.  With the mutation API the
//! loop is: `edit` → (tables patched incrementally) → `run_with` — no
//! rebuild, no reallocation of untouched rows, bit-identical results to a
//! from-scratch compile of the edited netlist.
//!
//! ```text
//! cargo run --release --example eco_loop
//! ```

use std::time::Instant;

use halotis::core::{LogicLevel, Time};
use halotis::netlist::{iscas, technology, CellKind};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis::waveform::Stimulus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile the ISCAS-85 c880 benchmark once.
    let netlist = iscas::c880();
    let library = technology::cmos06();
    let mut circuit = CompiledCircuit::compile(&netlist, &library)?;
    let mut state = circuit.new_state();
    println!(
        "compiled {}: {} gates, {} nets",
        netlist.name(),
        netlist.gate_count(),
        netlist.net_count()
    );

    // 2. One stimulus, reused across the whole what-if sweep: every input
    //    starts low and rises at 1 ns.
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for &input in netlist.primary_inputs() {
        let name = netlist.net(input).name().to_string();
        stimulus.set_initial(&name, LogicLevel::Low);
        stimulus.drive(&name, Time::from_ns(1.0), LogicLevel::High);
    }
    let config = SimulationConfig::ddm();
    let baseline = circuit.run_with(&mut state, &stimulus, &config)?;
    println!("baseline: {}", baseline.stats());

    // 3. The ECO sweep: retype every 2-input AND in turn, re-run, revert.
    //    Each iteration is two single-gate edits plus one simulation —
    //    the compile step the loop used to pay is gone.
    let targets: Vec<_> = circuit
        .netlist()
        .gates()
        .iter()
        .filter(|gate| gate.kind() == CellKind::And2)
        .map(|gate| (gate.id(), gate.name().to_string()))
        .take(8)
        .collect();
    println!("\nwhat-if: AND2 -> NAND2, one gate at a time");
    let sweep_started = Instant::now();
    for (gate, name) in &targets {
        let edit_started = Instant::now();
        circuit.edit(|session| session.swap_cell_kind(*gate, CellKind::Nand2))?;
        circuit.adapt_state(&mut state);
        let edit_time = edit_started.elapsed();

        let variant = circuit.run_with(&mut state, &stimulus, &config)?;
        println!(
            "  {name:<8} edit {:>7.2?}  events {:>6} ({:+})  degraded {:>4} ({:+})",
            edit_time,
            variant.stats().events_processed,
            variant.stats().events_processed as i64 - baseline.stats().events_processed as i64,
            variant.stats().degraded_transitions,
            variant.stats().degraded_transitions as i64
                - baseline.stats().degraded_transitions as i64,
        );

        // Revert so the next what-if starts from the original circuit.
        circuit.edit(|session| session.swap_cell_kind(*gate, CellKind::And2))?;
    }
    println!(
        "{} what-if variants in {:.2?} (incl. {} single-gate edits)",
        targets.len(),
        sweep_started.elapsed(),
        targets.len() * 2,
    );

    // 4. Proof of the contract: after all those edits-and-reverts the
    //    circuit still reproduces the baseline bit-exactly.
    let replay = circuit.run_with(&mut state, &stimulus, &config)?;
    assert_eq!(baseline.stats(), replay.stats());
    println!("\npost-sweep replay matches the baseline bit-exactly");
    Ok(())
}
