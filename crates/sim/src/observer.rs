//! Streaming observation of a simulation run.
//!
//! The engine used to record full per-net waveforms unconditionally —
//! glitch-count sweeps over thousands of stimuli paid waveform memory they
//! never read.  [`SimObserver`] inverts that: the engine *streams* what
//! happens (transitions emitted on nets, events cancelled at inputs, gates
//! evaluated through the delay model) and the observer decides what to keep.
//! [`CompiledCircuit::run_observed`] drives any observer;
//! [`CompiledCircuit::run_with`] is now a thin wrapper plugging in a
//! [`WaveformRecorder`] and packaging its trace as a
//! [`SimulationResult`](crate::SimulationResult).
//!
//! Shipped observers:
//!
//! * [`WaveformRecorder`] — today's behaviour: every transition of every
//!   net, as [`DigitalWaveform`]s,
//! * [`ActivityCounter`] — per-net transition counts and the run statistics,
//!   with **no** waveform allocation (the Table 1 quantities),
//! * [`PowerAccumulator`] — switched-capacitance energy totals, computed
//!   online from the compiled net loads,
//! * `()` — the null observer, for pure-statistics runs,
//! * `(A, B)` — fan-out to two observers in one pass.
//!
//! # Example: Table 1 statistics without waveforms
//!
//! ```
//! use halotis_core::{LogicLevel, Time};
//! use halotis_netlist::{generators, technology};
//! use halotis_sim::{ActivityCounter, CompiledCircuit, SimulationConfig};
//! use halotis_waveform::Stimulus;
//!
//! let netlist = generators::c17();
//! let library = technology::cmos06();
//! let circuit = CompiledCircuit::compile(&netlist, &library)?;
//! let mut stimulus = Stimulus::new(library.default_input_slew());
//! for &input in netlist.primary_inputs() {
//!     let name = netlist.net(input).name();
//!     stimulus.set_initial(name, LogicLevel::Low);
//!     stimulus.drive(name, Time::from_ns(1.0), LogicLevel::High);
//! }
//!
//! let mut activity = ActivityCounter::new();
//! let mut state = circuit.new_state();
//! let stats = circuit.run_observed(&mut state, &stimulus, &SimulationConfig::ddm(), &mut activity)?;
//! assert_eq!(activity.total_transitions(), stats.output_transitions);
//! # Ok::<(), halotis_sim::SimulationError>(())
//! ```

use halotis_core::{Capacitance, GateId, LogicLevel, NetId, PinRef, Time, Voltage};
use halotis_delay::DelayOutcome;
use halotis_netlist::Netlist;
use halotis_waveform::{DigitalWaveform, Trace, Transition};

use crate::compiled::CompiledCircuit;
use crate::event::Event;
use crate::stats::SimulationStats;

/// A streaming consumer of simulation activity.
///
/// All methods have empty default bodies: implement only what the analysis
/// needs.  The engine calls them in this order —
///
/// 1. [`begin`](SimObserver::begin), once, before any event is processed,
/// 2. [`on_transition`](SimObserver::on_transition) /
///    [`on_event_filtered`](SimObserver::on_event_filtered) /
///    [`on_gate_evaluated`](SimObserver::on_gate_evaluated), interleaved in
///    simulation order,
/// 3. [`finish`](SimObserver::finish), once, with the final statistics
///    (skipped when the run aborts with an error).
///
/// Observers are reusable unless documented otherwise: `begin` re-initialises
/// all internal state, so one observer instance can serve many runs (the
/// batch runner relies on this to reuse one observer per worker when the
/// caller chooses to).
pub trait SimObserver {
    /// The run is about to start.  `initial_levels` holds the settled level
    /// of every net, indexed by net id — the same levels a recorded waveform
    /// would start from.
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        let _ = (circuit, initial_levels);
    }

    /// A transition (linear ramp) was emitted on `net` — gate outputs *and*
    /// stimulus edges on primary inputs, exactly what waveform recording
    /// used to capture.  Each net's transitions arrive with non-decreasing
    /// starts: a gate's output ramp never starts before its previous one
    /// (see [`ramp_start`](crate::ramp::ramp_start)), and a stimulus
    /// input's transitions come in order.
    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        let _ = (net, transition);
    }

    /// A candidate event at `at` for input `pin` triggered the per-input
    /// cancellation rule (paper Fig. 4): the pending previous event was
    /// removed and the candidate discarded — the pulse never existed for
    /// this input.
    fn on_event_filtered(&mut self, pin: PinRef, at: Time) {
        let _ = (pin, at);
    }

    /// The delay model evaluated an output excitation of `gate` (the gate's
    /// output value changed and a timed transition was computed from
    /// `event`).
    fn on_gate_evaluated(&mut self, gate: GateId, event: &Event, outcome: &DelayOutcome) {
        let _ = (gate, event, outcome);
    }

    /// The run completed; `stats` are the same statistics the run returns.
    fn finish(&mut self, stats: &SimulationStats) {
        let _ = stats;
    }
}

/// The null observer: a pure-statistics run.
impl SimObserver for () {}

/// Fan-out: drives two observers in one pass (nest tuples for more).
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.0.begin(circuit, initial_levels);
        self.1.begin(circuit, initial_levels);
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        self.0.on_transition(net, transition);
        self.1.on_transition(net, transition);
    }

    fn on_event_filtered(&mut self, pin: PinRef, at: Time) {
        self.0.on_event_filtered(pin, at);
        self.1.on_event_filtered(pin, at);
    }

    fn on_gate_evaluated(&mut self, gate: GateId, event: &Event, outcome: &DelayOutcome) {
        self.0.on_gate_evaluated(gate, event, outcome);
        self.1.on_gate_evaluated(gate, event, outcome);
    }

    fn finish(&mut self, stats: &SimulationStats) {
        self.0.finish(stats);
        self.1.finish(stats);
    }
}

/// Records every transition of every net — the engine's historical
/// behaviour, now one observer among others.
///
/// [`CompiledCircuit::run_with`] uses it internally and packages the trace
/// into a [`SimulationResult`](crate::SimulationResult); use it directly
/// with [`CompiledCircuit::run_observed`] to combine full waveforms with
/// other observers in a single pass.
#[derive(Clone, Debug, Default)]
pub struct WaveformRecorder {
    waveforms: Vec<DigitalWaveform>,
}

impl WaveformRecorder {
    /// An empty recorder; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// The waveform recorded so far for `net`.
    pub fn waveform(&self, net: NetId) -> Option<&DigitalWaveform> {
        self.waveforms.get(net.index())
    }

    /// Drains the recording into a name-keyed trace, in the netlist's net
    /// declaration order.
    pub fn into_trace(mut self, netlist: &Netlist) -> Trace<DigitalWaveform> {
        let mut trace = Trace::new();
        for net in netlist.nets() {
            trace.insert(
                net.name(),
                std::mem::replace(
                    &mut self.waveforms[net.id().index()],
                    DigitalWaveform::new(LogicLevel::Unknown),
                ),
            );
        }
        trace
    }
}

impl SimObserver for WaveformRecorder {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.waveforms.clear();
        self.waveforms.extend(
            initial_levels
                .iter()
                .map(|&level| DigitalWaveform::new(level)),
        );
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        self.waveforms[net.index()].push(*transition);
    }
}

/// Counts transitions per net without storing them — the switching-activity
/// quantities of the paper's Table 1 discussion, at O(nets) memory and zero
/// waveform allocation.
#[derive(Clone, Debug, Default)]
pub struct ActivityCounter {
    per_net: Vec<usize>,
    total: usize,
    stats: SimulationStats,
}

impl ActivityCounter {
    /// An empty counter; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Transitions counted on one net.
    pub fn transitions(&self, net: NetId) -> usize {
        self.per_net.get(net.index()).copied().unwrap_or(0)
    }

    /// Per-net transition counts, indexed by net id.
    pub fn per_net(&self) -> &[usize] {
        &self.per_net
    }

    /// Total transitions across all nets (equals the run's
    /// `output_transitions` statistic).
    pub fn total_transitions(&self) -> usize {
        self.total
    }

    /// The run statistics captured at [`finish`](SimObserver::finish).
    pub fn stats(&self) -> &SimulationStats {
        &self.stats
    }
}

impl SimObserver for ActivityCounter {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.per_net.clear();
        self.per_net.resize(initial_levels.len(), 0);
        self.total = 0;
        self.stats = SimulationStats::default();
    }

    fn on_transition(&mut self, net: NetId, _transition: &Transition) {
        self.per_net[net.index()] += 1;
        self.total += 1;
    }

    fn finish(&mut self, stats: &SimulationStats) {
        self.stats = *stats;
    }
}

/// Accumulates dynamic energy online: every transition contributes one full
/// `C_net · Vdd²` swing, using the net capacitances the
/// [`CompiledCircuit`] already holds.
///
/// Produces the same totals as
/// [`power::estimate_compiled`](crate::power::estimate_compiled) on a
/// recorded result, without recording anything.
#[derive(Clone, Debug, Default)]
pub struct PowerAccumulator {
    vdd: Voltage,
    net_loads: Vec<Capacitance>,
    counts: Vec<usize>,
}

impl PowerAccumulator {
    /// An empty accumulator; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dynamic energy accumulated so far, in joules.
    pub fn total_joules(&self) -> f64 {
        self.per_net().map(|(_, joules)| joules).sum()
    }

    /// Every net's `(transitions, C · Vdd² · transitions joules)`, in
    /// net-id order.
    pub fn per_net(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let vdd_squared = self.vdd.as_volts() * self.vdd.as_volts();
        self.counts
            .iter()
            .zip(&self.net_loads)
            .map(move |(&count, load)| (count, load.as_farads() * vdd_squared * count as f64))
    }

    /// Total number of net transitions that contributed energy.
    pub fn total_transitions(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Packages the accumulated activity as a full
    /// [`PowerReport`](crate::power::PowerReport) (per-net breakdown,
    /// hotspots), identical to estimating from a recorded result.
    pub fn report(&self, netlist: &Netlist) -> crate::power::PowerReport {
        crate::power::report_from_counts(netlist, &self.net_loads, self.vdd, &self.counts)
    }
}

impl SimObserver for PowerAccumulator {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, _initial_levels: &[LogicLevel]) {
        self.vdd = circuit.vdd();
        self.net_loads.clear();
        self.net_loads.extend_from_slice(circuit.net_loads());
        self.counts.clear();
        self.counts.resize(self.net_loads.len(), 0);
    }

    fn on_transition(&mut self, net: NetId, _transition: &Transition) {
        self.counts[net.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{power, SimulationConfig};
    use halotis_core::Time;
    use halotis_netlist::{generators, technology, Library};
    use halotis_waveform::Stimulus;

    fn chain_stimulus(library: &Library) -> Stimulus {
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.3), LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(4.0), LogicLevel::High);
        stimulus
    }

    #[test]
    fn activity_counter_matches_recorded_waveform_lengths() {
        let netlist = generators::inverter_chain(5);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);

        let result = circuit.run(&stimulus, &SimulationConfig::ddm()).unwrap();
        let mut activity = ActivityCounter::new();
        let mut state = circuit.new_state();
        let stats = circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();

        assert_eq!(&stats, result.stats());
        assert_eq!(activity.stats(), result.stats());
        assert_eq!(activity.total_transitions(), stats.output_transitions);
        for net in netlist.nets() {
            assert_eq!(
                activity.transitions(net.id()),
                result.waveform(net.name()).unwrap().len(),
                "count mismatch on {}",
                net.name()
            );
        }
        assert_eq!(activity.per_net().len(), netlist.net_count());
    }

    #[test]
    fn power_accumulator_matches_the_recorded_estimate() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for &input in netlist.primary_inputs() {
            let name = netlist.net(input).name();
            stimulus.set_initial(name, LogicLevel::Low);
            stimulus.drive(name, Time::from_ns(1.0), LogicLevel::High);
        }

        let result = circuit.run(&stimulus, &SimulationConfig::ddm()).unwrap();
        let recorded = power::estimate_compiled(&circuit, &result);

        let mut accumulator = PowerAccumulator::new();
        let mut state = circuit.new_state();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut accumulator,
            )
            .unwrap();
        assert_eq!(accumulator.report(&netlist), recorded);
        assert!((accumulator.total_joules() - recorded.total_joules()).abs() < 1e-18);
        assert_eq!(
            accumulator.total_transitions(),
            recorded.total_transitions()
        );
    }

    #[test]
    fn tuple_observer_drives_both() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);
        let mut pair = (ActivityCounter::new(), PowerAccumulator::new());
        let mut state = circuit.new_state();
        let stats = circuit
            .run_observed(&mut state, &stimulus, &SimulationConfig::ddm(), &mut pair)
            .unwrap();
        assert_eq!(pair.0.total_transitions(), stats.output_transitions);
        assert_eq!(pair.1.total_transitions(), stats.output_transitions);
        assert!(pair.1.total_joules() > 0.0);
    }

    #[test]
    fn observers_reset_between_runs() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);
        let mut activity = ActivityCounter::new();
        let mut state = circuit.new_state();
        let first = circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();
        let total_first = activity.total_transitions();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();
        assert_eq!(activity.total_transitions(), total_first);
        assert_eq!(first.output_transitions, total_first);
    }
}
