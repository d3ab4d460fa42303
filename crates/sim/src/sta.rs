//! Static timing analysis over the compiled circuit.
//!
//! [`analyze`] runs a longest-path pass over the compiled circuit's own
//! levelization ([`CompiledCircuit::levels`], which edits keep current),
//! using the same library timing arcs the event-driven engine evaluates —
//! no separate characterisation, no duplicated delay math.  The result is
//! a per-net **upper bound** on when activity on that net can end,
//! measured from the end of the primary-input stimulus ramp that
//! triggered it.
//!
//! The bound is conservative by construction, arc by arc:
//!
//! * an input event fires where the input ramp crosses the pin threshold,
//!   which is never after the ramp ends (crossing progress is within
//!   `[0, 1]`);
//! * the nominal delay `tp0 = t_intrinsic + R·CL + S·tau_in` is linear in
//!   the input slew, so its maximum over any realisable slew in
//!   `[0, slew_bound]` is at an endpoint — both are evaluated, making the
//!   bound robust to negative slew-sensitivity coefficients;
//! * the output ramp starts at most `max(0, tp0 − tau_out/2)` after the
//!   input event (the causality clamp of
//!   [`ramp_start`](crate::ramp::ramp_start)) and lasts `tau_out`, which
//!   depends only on the load — so per-net slew bounds are exact, not
//!   estimates;
//! * degradation (the DDM) only *shortens* or *cancels* transitions
//!   relative to this nominal schedule, so the bound holds for every delay
//!   model the engine ships.
//!
//! What the bound does **not** cover is the engine's `+1 fs` monotonicity
//! nudge, which can push a ramp start one femtosecond past its predecessor
//! any time two output ramps collide.  Callers comparing against simulated
//! settle times add a margin of one femtosecond per recorded output
//! transition (see [`StaReport::settle_bound_with_margin`]) — in practice
//! nanometres of slack against picoseconds of path delay.
//!
//! Sequential circuits are **register-segmented**: a register's output is a
//! level source (arrival zero, slew bounded by its worst clock-to-Q arc)
//! and arrivals at its D/EN/CK pins end the segment — nothing propagates
//! through the register within a cycle.  The per-net bounds therefore cover
//! each register-bounded combinational cone, which is exactly the
//! single-cycle settling question, and register feedback loops analyse
//! cleanly instead of deadlocking the propagation.
//!
//! The corpus-wide differential test (`tests/sta_differential.rs` at the
//! workspace root) holds this invariant on every corpus entry: simulated
//! last-settle under the Conventional model never exceeds the STA bound.
//!
//! # Example
//!
//! ```
//! use halotis_netlist::{generators, technology};
//! use halotis_sim::{sta, CompiledCircuit};
//!
//! let netlist = generators::ripple_carry_adder(4);
//! let library = technology::cmos06();
//! let circuit = CompiledCircuit::compile(&netlist, &library)?;
//! let report = sta::analyze(&circuit, library.default_input_slew());
//! // The carry chain is the critical path: it ends at the last carry out.
//! let worst = report.worst_net();
//! assert!(report.arrival(worst) >= report.arrival(netlist.net_id("s0").unwrap()));
//! assert!(!report.critical_path().is_empty());
//! # Ok::<(), halotis_sim::SimulationError>(())
//! ```

use halotis_core::{Edge, GateId, NetId, PinRef, Time, TimeDelta};
use halotis_delay::nominal;
use halotis_waveform::Stimulus;

use crate::compiled::CompiledCircuit;

/// One arc of a critical path: gate input pin `pin` of `gate`, viewed as
/// the step from the net feeding the pin (`source`) to the net the gate
/// drives (`target`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathArc {
    /// The net feeding the gate input pin.
    pub source: NetId,
    /// The net driven by the gate's output.
    pub target: NetId,
    /// The gate the pin belongs to.
    pub gate: GateId,
    /// Zero-based input position on the gate.
    pub pin: u32,
}

/// The result of a static-timing pass: per-net arrival/slew bounds and the
/// critical path that set the worst one.  Produced by [`analyze`].
#[derive(Clone, Debug)]
pub struct StaReport {
    /// Upper bound on the end of activity per net, relative to the end of
    /// the triggering primary-input ramp.
    arrival: Vec<TimeDelta>,
    /// Upper bound on the output-ramp duration per net (exact per arc: the
    /// conventional model's output slew is load-only).
    slew: Vec<TimeDelta>,
    /// The arc that set each net's arrival bound (`None` for timing
    /// sources).
    predecessor: Vec<Option<PathArc>>,
    /// The net with the largest arrival bound.
    worst: NetId,
}

impl StaReport {
    /// The arrival-bound of one net: activity on it ends at most this long
    /// after the primary-input ramp that triggered it ends.
    pub fn arrival(&self, net: NetId) -> TimeDelta {
        self.arrival[net.index()]
    }

    /// The output-slew bound of one net.
    pub fn slew(&self, net: NetId) -> TimeDelta {
        self.slew[net.index()]
    }

    /// The net with the largest arrival bound.
    pub fn worst_net(&self) -> NetId {
        self.worst
    }

    /// The largest arrival bound — the topological critical-path delay.
    pub fn worst_arrival(&self) -> TimeDelta {
        self.arrival[self.worst.index()]
    }

    /// The critical path as arcs from a timing source to
    /// [`worst_net`](Self::worst_net), in propagation order.
    pub fn critical_path(&self) -> Vec<PathArc> {
        let mut path = Vec::new();
        let mut net = self.worst;
        while let Some(arc) = self.predecessor[net.index()] {
            path.push(arc);
            net = arc.source;
        }
        path.reverse();
        path
    }

    /// Absolute settle bound for a stimulus: no net activity after
    /// `stimulus.last_activity() + worst_arrival()`.  A stimulus with no
    /// transitions at all anchors the bound at time zero (initial
    /// settlement only).
    pub fn settle_bound(&self, stimulus: &Stimulus) -> Time {
        stimulus.last_activity().unwrap_or(Time::ZERO) + self.worst_arrival()
    }

    /// [`settle_bound`](Self::settle_bound) plus one femtosecond per
    /// recorded output transition, covering the engine's worst-case
    /// accumulation of `+1 fs` monotonicity nudges (see the module docs).
    pub fn settle_bound_with_margin(&self, stimulus: &Stimulus, output_transitions: usize) -> Time {
        self.settle_bound(stimulus) + TimeDelta::from_fs(output_transitions as i64)
    }
}

/// The worst-case arrival/slew increment of one gate input pin: how much
/// later than its input-net bound activity on the gate's output can end,
/// and how long the resulting output ramp can be.
fn pin_increment(
    circuit: &CompiledCircuit<'_>,
    pin: PinRef,
    input_slew_bound: TimeDelta,
) -> (TimeDelta, TimeDelta) {
    let load = circuit.gate_load(pin.gate());
    let timing = circuit.pin_timing(pin);
    let mut worst_increment = TimeDelta::ZERO;
    let mut worst_slew = TimeDelta::ZERO;
    for direction in [Edge::Rise, Edge::Fall] {
        let arc = timing.for_edge(direction);
        // tp0 is linear in the input slew; realisable slews lie in
        // [0, input_slew_bound], so the max is at an endpoint.
        let at_zero = nominal::timing(arc, load, TimeDelta::ZERO);
        let at_bound = nominal::timing(arc, load, input_slew_bound);
        let delay = at_zero.delay.max(at_bound.delay);
        let tau = at_zero.output_slew.max(at_bound.output_slew);
        // Mirror ramp_start's integer arithmetic exactly: the ramp begins
        // max(0, delay - tau/2) after the event and ends tau later.
        let half = tau / 2;
        let start_offset = if delay > half {
            delay - half
        } else {
            TimeDelta::ZERO
        };
        worst_increment = worst_increment.max(start_offset + tau);
        worst_slew = worst_slew.max(tau);
    }
    (worst_increment, worst_slew)
}

/// Runs the static-timing pass on a compiled circuit.
///
/// `input_slew` bounds the slew of every primary-input transition the
/// stimulus will carry — pass the stimulus's slew (usually
/// `library.default_input_slew()`); a larger value only loosens the bound.
///
/// Primary inputs and register outputs are the timing sources.  The pass
/// then visits the combinational gates in the circuit's topological order
/// ([`CompiledCircuit::levels`]), so every input net is final when its
/// gate is visited, and bounds each output by its worst input pin: the
/// pin's net bound plus the worst of the pin's rise/fall arcs (see the
/// module docs for why this bounds the event-driven engine).  Runs in
/// O(nets + pins).
pub fn analyze(circuit: &CompiledCircuit<'_>, input_slew: TimeDelta) -> StaReport {
    let netlist = circuit.netlist();
    let net_count = netlist.net_count();

    let mut arrival = vec![TimeDelta::ZERO; net_count];
    let mut slew = vec![TimeDelta::ZERO; net_count];
    let mut predecessor: Vec<Option<PathArc>> = vec![None; net_count];

    for &input in netlist.primary_inputs() {
        slew[input.index()] = input_slew;
    }
    // A register's output is a level source (clock-to-Q launches a fresh
    // ramp each cycle), which is what makes register feedback analysable:
    // the pass bounds each register-bounded combinational segment.  Its
    // ramp duration is bounded by the worst arc over its pins (clock,
    // data, reset all launch at most one Q ramp).
    for gate in netlist.gates() {
        if gate.kind().is_sequential() {
            slew[gate.output().index()] = (0..gate.inputs().len() as u32)
                .map(|pin| pin_increment(circuit, PinRef::new(gate.id(), pin), input_slew).1)
                .max()
                .unwrap_or(TimeDelta::ZERO);
        }
    }

    for gate_id in circuit.levels().topological_order() {
        let gate = netlist.gate(gate_id);
        if gate.kind().is_sequential() {
            // Arrival at a register's D/EN/CK pin does not propagate to Q
            // within the cycle; the segment ends here.
            continue;
        }
        let target = gate.output();
        for (pin, &source) in (0u32..).zip(gate.inputs()) {
            let (increment, tau) =
                pin_increment(circuit, PinRef::new(gate_id, pin), slew[source.index()]);
            let candidate = arrival[source.index()] + increment;
            let out = target.index();
            if candidate > arrival[out] || predecessor[out].is_none() {
                arrival[out] = candidate;
                predecessor[out] = Some(PathArc {
                    source,
                    target,
                    gate: gate_id,
                    pin,
                });
            }
            slew[out] = slew[out].max(tau);
        }
    }

    let worst = (0..net_count)
        .map(NetId::from_usize)
        .max_by_key(|net| arrival[net.index()])
        .expect("netlists have at least one net");
    StaReport {
        arrival,
        slew,
        predecessor,
        worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::LogicLevel;
    use halotis_netlist::{generators, technology};
    use halotis_waveform::Stimulus;

    use crate::config::SimulationConfig;
    use crate::observer::SimObserver;

    #[test]
    fn deeper_chains_have_larger_bounds() {
        let library = technology::cmos06();
        let slew = library.default_input_slew();
        let short = generators::inverter_chain(2);
        let long = generators::inverter_chain(8);
        let short_sta = analyze(&CompiledCircuit::compile(&short, &library).unwrap(), slew);
        let long_sta = analyze(&CompiledCircuit::compile(&long, &library).unwrap(), slew);
        assert!(long_sta.worst_arrival() > short_sta.worst_arrival());
        assert_eq!(long_sta.critical_path().len(), 8);
    }

    #[test]
    fn critical_path_walks_gate_by_gate_from_a_primary_input() {
        let netlist = generators::ripple_carry_adder(4);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let report = analyze(&circuit, library.default_input_slew());
        let path = report.critical_path();
        assert!(!path.is_empty());
        let first = path.first().unwrap();
        assert!(netlist.primary_inputs().contains(&first.source));
        assert_eq!(path.last().unwrap().target, report.worst_net());
        for pair in path.windows(2) {
            assert_eq!(pair[0].target, pair[1].source);
        }
    }

    #[test]
    fn larger_input_slew_cannot_tighten_the_bound() {
        let netlist = generators::ripple_carry_adder(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let tight = analyze(&circuit, TimeDelta::ZERO);
        let loose = analyze(&circuit, library.default_input_slew() * 4);
        assert!(loose.worst_arrival() >= tight.worst_arrival());
    }

    #[test]
    fn register_feedback_is_segmented_not_rejected() {
        use halotis_netlist::{CellKind, NetlistBuilder};

        let mut builder = NetlistBuilder::new("toggle");
        let ck = builder.add_input("ck");
        let q = builder.add_net("q");
        let nq = builder.add_net("nq");
        builder.add_gate(CellKind::Inv, "g_inv", &[q], nq).unwrap();
        builder
            .add_gate(CellKind::Dff, "g_ff", &[nq, ck], q)
            .unwrap();
        builder.mark_output(q);
        let netlist = builder.build().unwrap();
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let report = analyze(&circuit, library.default_input_slew());
        let nq = netlist.net_id("nq").unwrap();
        let q = netlist.net_id("q").unwrap();
        // Q is a segment source (arrival zero, non-trivial launch slew); the
        // inverter behind it is a bounded one-gate segment.
        assert_eq!(report.arrival(q), TimeDelta::ZERO);
        assert!(report.slew(q) > TimeDelta::ZERO);
        assert!(report.arrival(nq) > TimeDelta::ZERO);
    }

    /// The soundness contract on a small circuit: simulated settle under
    /// both built-in models stays below the STA bound.  (The corpus-wide
    /// version lives in `tests/sta_differential.rs`.)
    #[test]
    fn simulated_settle_respects_the_bound() {
        struct LastEnd(Time);
        impl SimObserver for LastEnd {
            fn on_transition(&mut self, _net: NetId, transition: &halotis_waveform::Transition) {
                self.0 = self.0.max(transition.end());
            }
        }

        let netlist = generators::ripple_carry_adder(4);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let report = analyze(&circuit, library.default_input_slew());

        let mut stimulus = Stimulus::new(library.default_input_slew());
        for &input in netlist.primary_inputs() {
            stimulus.set_initial(netlist.net(input).name(), LogicLevel::Low);
        }
        for (index, &input) in netlist.primary_inputs().iter().enumerate() {
            stimulus.drive(
                netlist.net(input).name(),
                Time::from_ns(1.0 + 0.2 * index as f64),
                LogicLevel::High,
            );
        }

        for config in [SimulationConfig::ddm(), SimulationConfig::cdm()] {
            let mut state = circuit.new_state();
            let mut last = LastEnd(Time::ZERO);
            let stats = circuit
                .run_observed(&mut state, &stimulus, &config, &mut last)
                .unwrap();
            let bound = report.settle_bound_with_margin(&stimulus, stats.output_transitions);
            assert!(
                last.0 <= bound,
                "settle {:?} exceeds STA bound {:?}",
                last.0,
                bound
            );
        }
    }
}
