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
/// change-point projection as
/// [`DigitalWaveform::ideal_half_swing`](halotis_waveform::DigitalWaveform::ideal_half_swing)
/// (an overtaken change is revoked, a level-preserving crossing is dropped,
/// sub-half-swing runt ramps never register).  A net that settles back to
/// its initial level needed zero changes, one that settles to the opposite
/// level needed one — everything beyond that is glitching, and each glitch
/// pulse contributes exactly two settled change points.  Hence per net:
///
/// ```text
/// glitch_pulses = settled_changes / 2   (integer division)
/// ```
///
/// This is the corpus's "glitch count": the number of logically unnecessary
/// full-swing pulses the run produced, the quantity the degradation model
/// suppresses and a conventional model overestimates.
///
/// The profile keeps only the change points a later transition could still
/// revoke, so its memory does not grow with the length of a run.  The
/// engine reports each net's transitions with non-decreasing starts (see
/// [`SimObserver::on_transition`]), and a transition crosses half swing no
/// earlier than it starts, so a change point that crosses before the net's
/// latest start can never be overtaken: it is folded into the net's count
/// and settled level.
#[derive(Clone, Debug, Default)]
pub struct GlitchProfile {
    /// Per net, the level of its last folded change point (its initial
    /// level until one is folded).
    settled: Vec<LogicLevel>,
    /// One shared arena for every net's stack of revocable change points:
    /// `(crossing time, level, next node down the same stack or [`NIL`])`.
    /// A per-net `Vec<Vec<_>>` layout costs one allocation per active net
    /// per run — measurably the most expensive observer in the corpus
    /// bundle — while the arena costs one, reused via a free list.
    nodes: Vec<(Time, LogicLevel, u32)>,
    /// Arena nodes released by revoked and folded change points.
    free: Vec<u32>,
    /// Per-net top-of-stack arena index, [`NIL`] when the stack is empty.
    tops: Vec<u32>,
    /// Per-net settled change count, folded and revocable points alike.
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

    /// Stores a change point in a free arena node and returns its index.
    fn push_node(&mut self, point: (Time, LogicLevel, u32)) -> u32 {
        match self.free.pop() {
            Some(node) => {
                self.nodes[node as usize] = point;
                node
            }
            None => {
                self.nodes.push(point);
                (self.nodes.len() - 1) as u32
            }
        }
    }
}

impl SimObserver for GlitchProfile {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.settled.clear();
        self.settled.extend_from_slice(initial_levels);
        self.nodes.clear();
        self.free.clear();
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
        let start = transition.start();
        let cross = start + transition.slew().scale(0.5);
        let net_index = net.index();
        let target = transition.edge().target_level();
        // Revoke overtaken change points (the new crossing settles first).
        let mut top = self.tops[net_index];
        while top != NIL {
            let (last_time, _, below) = self.nodes[top as usize];
            if cross > last_time {
                break;
            }
            self.free.push(top);
            top = below;
            self.depths[net_index] -= 1;
        }
        // Fold the points that cross before this transition starts: no
        // later transition can reach them.
        let mut lowest_live = NIL;
        let mut node = top;
        while node != NIL && self.nodes[node as usize].0 >= start {
            lowest_live = node;
            node = self.nodes[node as usize].2;
        }
        if node != NIL {
            self.settled[net_index] = self.nodes[node as usize].1;
            if lowest_live == NIL {
                top = NIL;
            } else {
                self.nodes[lowest_live as usize].2 = NIL;
            }
            while node != NIL {
                self.free.push(node);
                node = self.nodes[node as usize].2;
            }
        }
        let current = if top == NIL {
            self.settled[net_index]
        } else {
            self.nodes[top as usize].1
        };
        if current != target {
            top = self.push_node((cross, target, top));
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
    use halotis_core::{Edge, TimeDelta};
    use halotis_netlist::{generators, technology};
    use halotis_sim::SimulationConfig;
    use halotis_waveform::{DigitalWaveform, Stimulus};
    use proptest::prelude::*;

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

    /// A train's gap or slew in femtoseconds: `kind` makes spans of 0 to
    /// 3 fs common enough that starts and crossings collide.
    fn pick(kind: u8, value: i64) -> TimeDelta {
        TimeDelta::from_fs(if kind < 4 { value % 4 } else { value })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Trains with non-decreasing starts and mixed slews, as the engine
        /// reports them, spread over two nets sharing the arena: the folded
        /// counts equal the full half-swing projection's change points.
        #[test]
        fn profile_matches_the_ideal_projection_on_random_trains(
            initials in (proptest::bool::ANY, proptest::bool::ANY),
            steps in proptest::collection::vec(
                (((0u8..6, 0i64..400_000), (0u8..6, 0i64..600_000), proptest::bool::ANY), 0u8..2),
                0..80,
            ),
        ) {
            let library = technology::cmos06();
            let netlist = generators::inverter_chain(1);
            let circuit = halotis_sim::CompiledCircuit::compile(&netlist, &library).unwrap();
            let initials = [
                LogicLevel::from_bool(initials.0),
                LogicLevel::from_bool(initials.1),
            ];
            let mut waveforms = initials.map(DigitalWaveform::new);
            let mut starts = [Time::ZERO; 2];
            let mut profile = GlitchProfile::new();
            profile.begin(&circuit, &initials);
            for (((gap_kind, gap), (slew_kind, slew), rises), net) in steps {
                let net = usize::from(net);
                starts[net] += pick(gap_kind, gap);
                let edge = if rises { Edge::Rise } else { Edge::Fall };
                let transition = Transition::new(starts[net], pick(slew_kind, slew), edge);
                waveforms[net].push(transition);
                profile.on_transition(NetId::from_usize(net), &transition);
            }
            let mut total = 0;
            for (net, waveform) in waveforms.iter().enumerate() {
                let changes = waveform.ideal_half_swing(library.vdd()).changes().len();
                prop_assert_eq!(profile.settled_changes(NetId::from_usize(net)), changes);
                total += changes / 2;
            }
            prop_assert_eq!(profile.total_glitches(), total);
        }
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
