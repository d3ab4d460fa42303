//! The reusable per-run state arena of the compile-once core.
//!
//! A [`SimState`] owns every mutable structure one simulation run needs —
//! dense pin levels, per-gate output bookkeeping and the event queue — sized
//! once for a [`CompiledCircuit`](crate::CompiledCircuit) and reset in place
//! between runs, so repeated runs perform zero per-run allocation of the
//! static structures.  What (if anything) a run *retains* — waveforms,
//! activity counts, a VCD document — lives in the run's
//! [`SimObserver`](crate::SimObserver), not here.

use halotis_core::{LogicLevel, Time};
use halotis_delay::DelayModelKind;
use halotis_netlist::Netlist;

use crate::pins::PinMap;
use crate::queue::EventQueue;

/// Sentinel for "this gate has not produced an output ramp yet" in
/// [`SimState::last_output_start`]: no legitimate ramp starts at the
/// minimum representable instant.
pub(crate) const NO_PREVIOUS_RAMP: Time = Time::MIN;

/// The mutable arena one simulation run works in.
///
/// Obtain one from
/// [`CompiledCircuit::new_state`](crate::CompiledCircuit::new_state) and
/// pass it to [`run_with`](crate::CompiledCircuit::run_with) as often as
/// needed; each run resets the arena, so results are independent of what ran
/// before.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{CompiledCircuit, SimulationConfig};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::c17();
/// let library = technology::cmos06();
/// let circuit = CompiledCircuit::compile(&netlist, &library)?;
/// let mut state = circuit.new_state();
/// let mut stimulus = Stimulus::new(library.default_input_slew());
/// for &input in netlist.primary_inputs() {
///     stimulus.set_initial(netlist.net(input).name(), LogicLevel::Low);
/// }
/// // The same arena serves both model configurations.
/// let ddm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm())?;
/// let cdm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::cdm())?;
/// assert_eq!(ddm.stats().events_processed, cdm.stats().events_processed);
/// # Ok::<(), halotis_sim::SimulationError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SimState {
    /// Current level of every gate input, by dense pin index.
    pub(crate) pin_levels: Vec<LogicLevel>,
    /// The level each gate's output is moving toward, by gate index.
    pub(crate) output_target: Vec<LogicLevel>,
    /// Start instant of each gate's previous output ramp, by gate index.
    /// [`NO_PREVIOUS_RAMP`] marks "no ramp yet" — a plain sentinel keeps the
    /// array at 8 bytes per gate where `Option<Time>` would double it.
    pub(crate) last_output_start: Vec<Time>,
    /// Net count of the circuit the arena was sized for (waveform retention
    /// itself lives in the run's [`SimObserver`](crate::SimObserver)).
    net_count: usize,
    /// The event queue, reset (allocation kept) between runs.
    pub(crate) queue: EventQueue,
    /// Per-gate built-in model kind resolved from the run's configuration
    /// (see [`DelayModel::kind_for`](halotis_delay::DelayModel::kind_for)),
    /// `None` where the gate needs dynamic dispatch.  Refilled at the start
    /// of every run — it depends on the configuration, not the circuit —
    /// into capacity this arena keeps.
    pub(crate) gate_model_kinds: Vec<Option<DelayModelKind>>,
}

impl SimState {
    /// Builds an arena for a circuit with the given table sizes.
    pub(crate) fn for_circuit(pin_count: usize, gate_count: usize, net_count: usize) -> Self {
        SimState {
            pin_levels: vec![LogicLevel::Unknown; pin_count],
            output_target: vec![LogicLevel::Unknown; gate_count],
            last_output_start: vec![NO_PREVIOUS_RAMP; gate_count],
            net_count,
            queue: EventQueue::new(pin_count),
            gate_model_kinds: Vec::with_capacity(gate_count),
        }
    }

    /// Number of dense pin slots the arena was sized for.
    pub fn pin_count(&self) -> usize {
        self.pin_levels.len()
    }

    /// Number of gate slots the arena was sized for.
    pub fn gate_count(&self) -> usize {
        self.output_target.len()
    }

    /// Number of nets of the circuit the arena was sized for.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Re-dimensions the arena for any circuit — the same one after edits
    /// or an unrelated one — shrinking or growing freely and discarding all
    /// queued work, while keeping the allocations.  Every run resets the
    /// rows it reads, so a reshaped arena produces bit-identical results to
    /// a freshly allocated one.
    pub(crate) fn reshape(&mut self, pin_count: usize, gate_count: usize, net_count: usize) {
        self.pin_levels.clear();
        self.pin_levels.resize(pin_count, LogicLevel::Unknown);
        self.output_target.clear();
        self.output_target.resize(gate_count, LogicLevel::Unknown);
        self.last_output_start.clear();
        self.last_output_start.resize(gate_count, NO_PREVIOUS_RAMP);
        self.net_count = net_count;
        self.queue.reshape_pins(pin_count);
        self.gate_model_kinds.clear();
    }

    /// Panics with a descriptive message when the arena does not match the
    /// circuit about to use it.
    pub(crate) fn check_capacity(&self, pin_count: usize, gate_count: usize, net_count: usize) {
        assert!(
            self.pin_count() == pin_count
                && self.gate_count() == gate_count
                && self.net_count() == net_count,
            "SimState sized for {} pins / {} gates / {} nets used with a circuit of {} pins / {} gates / {} nets",
            self.pin_count(),
            self.gate_count(),
            self.net_count(),
            pin_count,
            gate_count,
            net_count,
        );
    }

    /// Re-initialises the arena from the initial net levels of a new run,
    /// keeping every allocation of the static structures.
    pub(crate) fn reset(
        &mut self,
        netlist: &Netlist,
        pins: &PinMap,
        initial_levels: &[LogicLevel],
    ) {
        for gate in netlist.gates() {
            let block = pins.gate_offset(gate.id());
            for (slot, &net) in self.pin_levels[block..].iter_mut().zip(gate.inputs()) {
                *slot = initial_levels[net.index()];
            }
            self.output_target[gate.id().index()] = initial_levels[gate.output().index()];
            self.last_output_start[gate.id().index()] = NO_PREVIOUS_RAMP;
        }
        self.queue.reset();
    }
}

/// A long-lived worker's reusable [`SimState`], pointed at whichever
/// circuit its next job needs.
///
/// Each daemon worker keeps one, and [`BatchRunner`](crate::BatchRunner)
/// pools one per batch worker, so an arena is allocated on its first job
/// only and then keeps the largest capacity any of its jobs needed.
#[derive(Debug, Default)]
pub struct WorkerArena {
    state: Option<SimState>,
}

impl WorkerArena {
    /// Shapes the arena for `circuit` (allocating it on the first job) and
    /// hands it out.  The adapted state reproduces a fresh
    /// [`CompiledCircuit::new_state`](crate::CompiledCircuit::new_state)
    /// bit for bit.
    pub fn adopt(&mut self, circuit: &crate::CompiledCircuit<'_>) -> &mut SimState {
        match &mut self.state {
            Some(state) => {
                circuit.adapt_state(state);
                state
            }
            slot @ None => slot.insert(circuit.new_state()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_netlist::generators;

    #[test]
    fn arena_dimensions_match_the_circuit() {
        let netlist = generators::c17();
        let pins = PinMap::new(&netlist);
        let state = SimState::for_circuit(pins.len(), netlist.gate_count(), netlist.net_count());
        assert_eq!(state.pin_count(), 12);
        assert_eq!(state.gate_count(), netlist.gate_count());
        assert_eq!(state.net_count(), netlist.net_count());
        state.check_capacity(12, netlist.gate_count(), netlist.net_count());
    }

    #[test]
    fn reset_restores_initial_levels_everywhere() {
        let netlist = generators::inverter_chain(3);
        let pins = PinMap::new(&netlist);
        let mut state =
            SimState::for_circuit(pins.len(), netlist.gate_count(), netlist.net_count());
        let levels = vec![LogicLevel::High; netlist.net_count()];
        state.reset(&netlist, &pins, &levels);
        assert!(state.pin_levels.iter().all(|&l| l == LogicLevel::High));
        assert!(state.output_target.iter().all(|&l| l == LogicLevel::High));
        assert!(state
            .last_output_start
            .iter()
            .all(|&s| s == NO_PREVIOUS_RAMP));
    }
}
