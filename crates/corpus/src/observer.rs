//! Corpus-specific [`SimObserver`]s: glitch profiling and wall-clock
//! probing, both allocation-light and batch-friendly, and the
//! [`ScenarioObserver`] bundle every scenario runs.

use std::time::{Duration, Instant};

use halotis_core::{LogicLevel, NetId, Time};
use halotis_sim::{CompiledCircuit, PowerAccumulator, SimObserver, SimulationStats};
use halotis_waveform::Transition;

/// The observers of one scenario, for the Table 1 columns the engine's own
/// counters lack: switched-capacitance energy and glitch pulses.  The
/// [`CorpusRunner`](crate::CorpusRunner) and the simulation daemon both run
/// exactly this bundle.  Transition activity needs no observer: it is the
/// engine's `SimulationStats::output_transitions`.
pub type ScenarioObserver = (PowerAccumulator, GlitchProfile);

/// Counts glitch pulses per net on the half-swing ideal projection.
///
/// Every transition is folded into the same incremental `(time, level)`
/// change-point projection the VCD streamer uses (an overtaken change is
/// revoked, a level-preserving crossing is dropped, sub-half-swing runt
/// ramps never register).  A net that settles back to its initial level
/// needed zero changes, one that settles to the opposite level needed one —
/// everything beyond that is glitching, and each glitch pulse contributes
/// exactly two settled change points.  Hence per net:
///
/// ```text
/// glitch_pulses = settled_changes / 2   (integer division)
/// ```
///
/// This is the corpus's "glitch count": the number of logically unnecessary
/// full-swing pulses the run produced, the quantity the degradation model
/// suppresses and a conventional model overestimates.
#[derive(Clone, Debug, Default)]
pub struct GlitchProfile {
    initials: Vec<LogicLevel>,
    /// One shared arena for every net's change-point stack: `(settled time,
    /// level, previous node in the same stack or [`NIL`])`.  A per-net
    /// `Vec<Vec<_>>` layout costs one allocation per active net per run —
    /// measurably the most expensive observer in the corpus bundle — while
    /// the arena costs one.  Revoked nodes are simply unlinked; the arena
    /// only grows to the transition count of the run.
    nodes: Vec<(Time, LogicLevel, u32)>,
    /// Per-net top-of-stack arena index, [`NIL`] when the stack is empty.
    tops: Vec<u32>,
    /// Per-net live stack depth (the settled change count).
    depths: Vec<u32>,
}

/// Null link of the per-net change stacks.
const NIL: u32 = u32::MAX;

impl GlitchProfile {
    /// An empty profile; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Settled half-swing change points recorded on `net`.
    pub fn settled_changes(&self, net: NetId) -> usize {
        self.depths
            .get(net.index())
            .map_or(0, |&depth| depth as usize)
    }

    /// Glitch pulses attributed to `net`.
    pub fn glitches(&self, net: NetId) -> usize {
        self.settled_changes(net) / 2
    }

    /// Total glitch pulses across all nets.
    pub fn total_glitches(&self) -> usize {
        self.depths.iter().map(|&depth| depth as usize / 2).sum()
    }
}

impl SimObserver for GlitchProfile {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.initials.clear();
        self.initials.extend_from_slice(initial_levels);
        self.nodes.clear();
        self.tops.clear();
        self.tops.resize(initial_levels.len(), NIL);
        self.depths.clear();
        self.depths.resize(initial_levels.len(), 0);
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        // The half-supply fraction is exactly 0.5 for either edge direction
        // ((v/2)/v rounds to exactly 0.5 in IEEE 754 for any normal v), so
        // this is `crossing_time(vdd.half(), vdd)` without the per-event
        // division: bit-identical and measurably cheaper on the hot path.
        let cross = transition.start() + transition.slew().scale(0.5);
        let net_index = net.index();
        let target = transition.edge().target_level();
        // Revoke overtaken change points (the new crossing settles first).
        let mut top = self.tops[net_index];
        while top != NIL {
            let (last_time, _, previous) = self.nodes[top as usize];
            if cross > last_time {
                break;
            }
            top = previous;
            self.depths[net_index] -= 1;
        }
        let current = if top == NIL {
            self.initials[net_index]
        } else {
            self.nodes[top as usize].1
        };
        if current != target {
            self.nodes.push((cross, target, top));
            top = (self.nodes.len() - 1) as u32;
            self.depths[net_index] += 1;
        }
        self.tops[net_index] = top;
    }
}

/// Times one observed run from [`begin`](SimObserver::begin) to
/// [`finish`](SimObserver::finish).
///
/// A run that aborts with an error never reaches `finish`, so
/// [`elapsed`](WallClockProbe::elapsed) stays `None` for it.
#[derive(Clone, Debug, Default)]
pub struct WallClockProbe {
    started: Option<Instant>,
    elapsed: Option<Duration>,
}

impl WallClockProbe {
    /// An idle probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock duration of the last completed run.
    pub fn elapsed(&self) -> Option<Duration> {
        self.elapsed
    }
}

impl SimObserver for WallClockProbe {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, _initial_levels: &[LogicLevel]) {
        self.started = Some(Instant::now());
        self.elapsed = None;
    }

    fn finish(&mut self, _stats: &SimulationStats) {
        self.elapsed = self.started.map(|started| started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::Time;
    use halotis_netlist::{generators, technology};
    use halotis_sim::SimulationConfig;
    use halotis_waveform::Stimulus;

    #[test]
    fn glitch_profile_matches_ideal_waveform_excess() {
        // A staggered double edge into an XOR tree produces output glitching;
        // the profile must equal the recorded ideal waveforms' excess-change
        // count exactly.
        let netlist = generators::parity_tree(4);
        let library = technology::cmos06();
        let circuit = halotis_sim::CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for i in 0..4 {
            stimulus.set_initial(format!("in{i}"), LogicLevel::Low);
        }
        stimulus.drive("in0", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in3", Time::from_ns(1.3), LogicLevel::High);

        let result = circuit.run(&stimulus, &SimulationConfig::ddm()).unwrap();
        let mut profile = GlitchProfile::new();
        let mut state = circuit.new_state();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut profile,
            )
            .unwrap();

        let mut expected_total = 0;
        for net in netlist.nets() {
            let ideal = result.ideal_waveform(net.name()).unwrap();
            let needed = usize::from(ideal.final_level() != ideal.initial());
            let expected = (ideal.changes().len() - needed) / 2;
            assert_eq!(
                profile.glitches(net.id()),
                expected,
                "glitch mismatch on {}",
                net.name()
            );
            assert_eq!(profile.settled_changes(net.id()), ideal.changes().len());
            expected_total += expected;
        }
        assert_eq!(profile.total_glitches(), expected_total);
    }

    #[test]
    fn quiet_run_has_zero_glitches() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = halotis_sim::CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        let mut profile = GlitchProfile::new();
        let mut state = circuit.new_state();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut profile,
            )
            .unwrap();
        // One clean edge per net: no glitching anywhere in a chain.
        assert_eq!(profile.total_glitches(), 0);
        let out = netlist.net_id("out").unwrap();
        assert_eq!(profile.settled_changes(out), 1);
    }

    #[test]
    fn wall_clock_probe_times_completed_runs_only() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let circuit = halotis_sim::CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut probe = WallClockProbe::new();
        assert_eq!(probe.elapsed(), None);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        let mut state = circuit.new_state();
        circuit
            .run_observed(&mut state, &stimulus, &SimulationConfig::ddm(), &mut probe)
            .unwrap();
        assert!(probe.elapsed().is_some());
    }
}
