//! The compile-once/run-many simulation core.
//!
//! [`Simulator::run`](crate::Simulator::run) used to rebuild every static
//! table — dense pin indices, per-pin thresholds, timing arcs, gate loads,
//! fanout lists — on every invocation, so multi-run workloads (the Table 1/2
//! sweeps, the pulse-width scan, Monte-Carlo stimulus sets) paid the full
//! circuit-compilation cost per stimulus.  [`CompiledCircuit`] splits that
//! work off: it is built **once** per netlist + library and owns every
//! immutable table in flat, cache-friendly arrays, while the per-run mutable
//! state lives in a reusable [`SimState`] arena.
//!
//! ```text
//! Netlist + Library ──compile()──▶ CompiledCircuit   (immutable, Sync)
//!                                       │
//!              run_observed(&mut SimState, stimulus, config, &mut observer)
//!                                       │  (repeat at will, zero static
//!                                       ▼   re-preparation per run)
//!                               SimulationStats + whatever the
//!                               observer retained
//! ```
//!
//! [`run_with`](CompiledCircuit::run_with) (full-waveform
//! [`SimulationResult`]) and [`run_stats`](CompiledCircuit::run_stats)
//! (statistics only) are thin wrappers plugging a
//! [`WaveformRecorder`] or the null observer into that one loop.
//!
//! Every run takes its stimulus as a [`StimulusSource`] — a [`Stimulus`],
//! or a generator such as a corpus suite — and streams it through a
//! [`StimulusFeed`]: the set-up pass walks each
//! primary input's transitions once to report them and settle their
//! Fig. 4 outcomes, and the feed walks them again one window ahead of the
//! main loop's clock.  Neither keeps anything per transition, so a run's
//! memory does not grow with the length of its stimulus.
//!
//! The tables are laid out CSR-style: per-pin quantities (threshold voltage,
//! timing arcs) are indexed by the dense pin index of
//! [`PinMap`], and the fanout adjacency of every net is
//! flattened into one `Vec` with a per-net offset array, so the hot loop of
//! the engine only chases one level of indirection.  Every row is derived
//! by one routine: [`compile`](CompiledCircuit::compile) sizes the tables
//! and runs it over every net and gate, and
//! [`apply_edits`](CompiledCircuit::apply_edits) runs it over the rows an
//! edit dirtied.  The circuit also keeps its netlist's levelization,
//! patched in place by edits: run initialisation evaluates in that order,
//! and the static-timing pass ([`sta`](crate::sta)) walks it to bound every
//! net's arrival.
//!
//! # Example: one compile, many runs
//!
//! ```
//! use halotis_core::{LogicLevel, Time};
//! use halotis_netlist::{generators, technology};
//! use halotis_sim::{CompiledCircuit, SimulationConfig};
//! use halotis_waveform::Stimulus;
//!
//! let netlist = generators::inverter_chain(3);
//! let library = technology::cmos06();
//! let circuit = CompiledCircuit::compile(&netlist, &library)?;
//! let mut state = circuit.new_state();
//! for at_ns in [1.0, 2.0, 3.0] {
//!     let mut stimulus = Stimulus::new(library.default_input_slew());
//!     stimulus.set_initial("in", LogicLevel::Low);
//!     stimulus.drive("in", Time::from_ns(at_ns), LogicLevel::High);
//!     let result = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm())?;
//!     assert_eq!(
//!         result.ideal_waveform("out").unwrap().final_level(),
//!         LogicLevel::Low
//!     );
//! }
//! # Ok::<(), halotis_sim::SimulationError>(())
//! ```

use std::borrow::Cow;
use std::time::Instant;

use halotis_core::{Capacitance, Edge, GateId, LogicLevel, NetId, PinRef, TimeDelta, Voltage};
use halotis_delay::{BoundArc, CellClass, DelayContext, DelayModel, DelayModelKind, PinTiming};
use halotis_netlist::edit::{EditLog, EditOp, EditSession};
use halotis_netlist::levelize::{self, Levelization};
use halotis_netlist::{eval, CellKind, Library, Netlist, NetlistError};
use halotis_waveform::{Stimulus, Transition};

use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::event::Event;
use crate::feed::{FeedPin, StimulusFeed, StimulusSource};
use crate::observer::{SimObserver, WaveformRecorder};
use crate::pins::PinMap;
use crate::queue::ScheduleOutcome;
use crate::ramp;
use crate::result::SimulationResult;
use crate::state::{SimState, NO_PREVIOUS_RAMP};
use crate::stats::SimulationStats;

/// Sentinel in the per-fanout progress tables for "this threshold lies
/// outside the `(0, Vdd)` swing and is never crossed" (legal progress values
/// are within `[0, 1]`).
const NEVER_CROSSED: f64 = -1.0;

/// Zeroed timing arc that fills new pin rows until
/// [`CompiledCircuit::refresh`] derives them from the library.  Never
/// evaluated: compile refreshes every row, and an edit refreshes the rows of
/// every gate it appends.
const PLACEHOLDER_TIMING: PinTiming = {
    const EDGE: halotis_delay::EdgeTiming = halotis_delay::EdgeTiming {
        propagation: halotis_delay::PropagationCoeffs {
            t_intrinsic: TimeDelta::ZERO,
            r_load_ohms: 0.0,
            s_slew: 0.0,
        },
        output_slew: halotis_delay::SlewCoeffs {
            base: TimeDelta::ZERO,
            load_factor_ohms: 0.0,
        },
        degradation: halotis_delay::DegradationCoeffs {
            a_volt_seconds: 0.0,
            b_volt_per_farad_seconds: 0.0,
            c_volts: 0.0,
        },
    };
    PinTiming {
        rise: EDGE,
        fall: EDGE,
    }
};

/// Precomputes, for one fanout input threshold, the ramp progress fraction
/// at which a rising (index 0) / falling (index 1) transition crosses it —
/// the compile-time half of [`Transition::crossing_time`], byte-identical in
/// its f64 arithmetic so crossing times are bit-equal to the on-the-fly
/// division it replaces.
fn crossing_progress(threshold: Voltage, vdd: Voltage) -> [f64; 2] {
    let fraction = threshold / vdd;
    if (0.0..=1.0).contains(&fraction) {
        [fraction, 1.0 - fraction]
    } else {
        [NEVER_CROSSED, NEVER_CROSSED]
    }
}

/// A netlist + library compiled into flat lookup tables, ready to execute
/// any number of stimuli without re-preparation.
///
/// `CompiledCircuit` is immutable and `Sync`: one instance can be shared by
/// the worker threads of a [`BatchRunner`](crate::BatchRunner).  All per-run
/// mutable state lives in [`SimState`], obtained from [`new_state`] and
/// reusable across runs.
///
/// [`new_state`]: CompiledCircuit::new_state
#[derive(Clone, Debug)]
pub struct CompiledCircuit<'a> {
    /// The compiled netlist.  Starts as a borrow; the first
    /// [`edit`](CompiledCircuit::edit) clones it into owned storage so the
    /// circuit can mutate its own copy (copy-on-write).
    netlist: Cow<'a, Netlist>,
    library: &'a Library,
    vdd: Voltage,
    pins: PinMap,
    /// The levelization of the netlist, kept current across edits by
    /// [`Levelization::update`] — run initialisation evaluates with this
    /// order instead of re-levelizing per run, and
    /// [`sta::analyze`](crate::sta::analyze) walks it.
    levels: Levelization,
    /// Threshold voltage per dense pin index.
    pin_thresholds: Vec<Voltage>,
    /// Timing arcs per dense pin index.
    pin_timing: Vec<PinTiming>,
    /// Delay-model dispatch tag per gate (see [`CellClass`]).
    gate_classes: Vec<CellClass>,
    /// Switched capacitance per net (also used by
    /// [`power::estimate_compiled`](crate::power::estimate_compiled)); a
    /// gate's output load is the row of its output net.
    net_loads: Vec<Capacitance>,
    /// CSR fanout adjacency as per-net windows: net `n` drives the rows
    /// `fanout_start[n] .. fanout_start[n] + fanout_len[n]` of the fanout
    /// columns, with `fanout_cap[n]` rows reserved.  Windows (instead of a
    /// packed `n + 1` prefix array) let an edit rewrite or grow one net's
    /// rows without shifting every later net; a window that outgrows its
    /// capacity relocates to the end of the arena with pow2 headroom.  The
    /// columns themselves are struct-of-arrays so the scheduling loop
    /// touches only what it needs.
    fanout_start: Vec<u32>,
    /// Live row count of each net's fanout window.
    fanout_len: Vec<u32>,
    /// Reserved row count of each net's fanout window.
    fanout_cap: Vec<u32>,
    /// Fanout column: the gate input pin the net drives.
    fanout_pins: Vec<PinRef>,
    /// Fanout column: that pin's dense index (see [`PinMap`]).
    fanout_dense: Vec<u32>,
    /// Fanout column: precomputed `[rise, fall]` crossing progress of the
    /// pin's threshold (see [`crossing_progress`]).
    fanout_progress: Vec<[f64; 2]>,
    /// Owning gate of every dense pin — the hot loop's event → gate hop,
    /// without touching the netlist's gate objects.
    pin_gate: Vec<u32>,
    /// `[rise, fall]` timing arcs per dense pin with the gate's load and the
    /// supply folded in (see [`BoundArc`]) — the built-in models evaluate
    /// these directly, skipping the per-event load/tau recomputation.
    pin_bound: Vec<[BoundArc; 2]>,
    /// Cell kind per gate (the evaluate dispatch), densely packed.
    gate_kinds: Vec<CellKind>,
    /// Input count per gate, paired with [`PinMap::gate_offset`] to form the
    /// gate's pin-level window.
    gate_pin_counts: Vec<u32>,
    /// Output net per gate.
    gate_outputs: Vec<NetId>,
}

impl<'a> CompiledCircuit<'a> {
    /// Compiles `netlist` against `library` into flat tables.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::Library`] when a gate uses a cell or pin
    /// the library does not characterise — the same condition the legacy
    /// single-shot path reported per run.
    pub fn compile(netlist: &'a Netlist, library: &'a Library) -> Result<Self, SimulationError> {
        Self::compile_cow(Cow::Borrowed(netlist), library)
    }

    /// [`compile`](Self::compile) for an *owned* netlist: the circuit
    /// carries the netlist itself, so the result's lifetime is tied only to
    /// `library`.  With a `&'static Library` this yields a
    /// `CompiledCircuit<'static>` that can be cached, sent across threads
    /// and outlive every caller — the shape a resident simulation service
    /// needs.
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile).
    pub fn compile_owned(netlist: Netlist, library: &'a Library) -> Result<Self, SimulationError> {
        Self::compile_cow(Cow::Owned(netlist), library)
    }

    /// The shared compile body: sizes every table with placeholder rows
    /// (each net's fanout window packed at its exact length, in net order),
    /// derives every row with [`refresh`](Self::refresh), the routine edits
    /// use, then levelizes.
    fn compile_cow(
        source: Cow<'a, Netlist>,
        library: &'a Library,
    ) -> Result<Self, SimulationError> {
        let (gates, nets) = (source.gate_count(), source.net_count());
        let mut circuit = CompiledCircuit {
            pins: PinMap::new(&source),
            netlist: source,
            library,
            vdd: library.vdd(),
            levels: Levelization::default(),
            pin_thresholds: Vec::new(),
            pin_timing: Vec::new(),
            gate_classes: Vec::new(),
            net_loads: Vec::new(),
            fanout_start: Vec::new(),
            fanout_len: Vec::new(),
            fanout_cap: Vec::new(),
            fanout_pins: Vec::new(),
            fanout_dense: Vec::new(),
            fanout_progress: Vec::new(),
            pin_gate: Vec::new(),
            pin_bound: Vec::new(),
            gate_kinds: Vec::new(),
            gate_pin_counts: Vec::new(),
            gate_outputs: Vec::new(),
        };
        circuit.grow_rows(gates, nets);
        let mut rows = 0;
        for (n, net) in circuit.netlist.nets().iter().enumerate() {
            circuit.fanout_start[n] = u32::try_from(rows).expect("fanout rows fit u32");
            circuit.fanout_cap[n] = u32::try_from(net.loads().len()).expect("fanout rows fit u32");
            rows += net.loads().len();
        }
        circuit.grow_fanout(rows);
        circuit.refresh(
            (0..nets).map(NetId::from_usize),
            (0..gates).map(GateId::from_usize),
        )?;
        // Levelized last, after the tables are allocated.  Levelized first,
        // a drop-and-recompile of c880 ran about a third slower, and at the
        // same speed with glibc's heap trimming switched off: the order
        // decides whether a dropped circuit's table pages go back to the
        // kernel and fault in again on the next compile.
        circuit.levels = levelize::levelize(&circuit.netlist)?;
        Ok(circuit)
    }

    /// The compiled netlist.  After an [`edit`](CompiledCircuit::edit) this
    /// is the circuit's own mutated copy, so the returned borrow is tied to
    /// `self` rather than the original compile-time netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The levelization of the compiled netlist, kept current across edits.
    pub fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The cell library the circuit was compiled against.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The supply voltage of the library.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// The dense pin indexing of the circuit.
    pub fn pins(&self) -> &PinMap {
        &self.pins
    }

    /// The precomputed switched capacitance of every net, indexed by net id.
    pub fn net_loads(&self) -> &[Capacitance] {
        &self.net_loads
    }

    /// The library timing arcs of one gate input pin.
    pub fn pin_timing(&self, pin: PinRef) -> &PinTiming {
        &self.pin_timing[self.pins.index(pin)]
    }

    /// The output load one gate drives (its output net's switched
    /// capacitance).
    pub fn gate_load(&self, gate: GateId) -> Capacitance {
        self.net_loads[self.gate_outputs[gate.index()].index()]
    }

    /// Allocates a fresh state arena sized for this circuit.
    ///
    /// The arena is reusable: every [`run_with`](CompiledCircuit::run_with)
    /// resets it, so repeated runs perform no per-run allocation of the
    /// static structures (gate state, pin levels, queue slots).
    pub fn new_state(&self) -> SimState {
        SimState::for_circuit(
            self.pins.len(),
            self.netlist.gate_count(),
            self.netlist.net_count(),
        )
    }

    /// Reshapes an existing state arena to fit this circuit, keeping its
    /// allocations and clearing all queued work.  The arena may have been
    /// sized for this circuit before an [`edit`](CompiledCircuit::edit) or
    /// for a *different* circuit: a worker can hold one long-lived arena
    /// and point it at whichever cached circuit the next job needs.  Runs
    /// reset every row they read, so results are bit-identical to a fresh
    /// [`new_state`](CompiledCircuit::new_state) arena.
    pub fn adapt_state(&self, state: &mut SimState) {
        state.reshape(
            self.pins.len(),
            self.netlist.gate_count(),
            self.netlist.net_count(),
        );
    }

    /// Mutates the circuit's netlist through an [`EditSession`] and applies
    /// the resulting [`EditLog`] incrementally — the one-call ECO loop:
    ///
    /// ```
    /// use halotis_netlist::{generators, technology, CellKind};
    /// use halotis_sim::CompiledCircuit;
    ///
    /// let netlist = generators::c17();
    /// let library = technology::cmos06();
    /// let mut circuit = CompiledCircuit::compile(&netlist, &library)?;
    /// let target = circuit.netlist().gates()[0].id();
    /// let log = circuit.edit(|session| session.swap_cell_kind(target, CellKind::Nor2))?;
    /// assert!(!log.is_empty());
    /// # Ok::<(), halotis_sim::SimulationError>(())
    /// ```
    ///
    /// The first edit clones the borrowed netlist into owned storage
    /// (copy-on-write); later edits mutate that copy directly.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::Netlist`] when the closure's mutation is
    ///   rejected.  The session is dropped without applying anything, but
    ///   mutations the closure already performed *before* the failing call
    ///   are lost too — on error, treat the circuit as stale and recompile.
    /// * The conditions of [`apply_edits`](CompiledCircuit::apply_edits).
    pub fn edit(
        &mut self,
        f: impl FnOnce(&mut EditSession<'_>) -> Result<(), NetlistError>,
    ) -> Result<EditLog, SimulationError> {
        let mut session = self.netlist.to_mut().begin_edit();
        f(&mut session)?;
        let log = session.finish();
        self.apply_edits(&log)?;
        Ok(log)
    }

    /// Incrementally recompiles after the circuit's netlist was mutated by
    /// an edit session, rebuilding only the dirty fanin/fanout cones the
    /// [`EditLog`] names: per-gate classes, kinds and outputs, per-pin
    /// thresholds, timing and pre-bound arcs, per-net loads and fanout
    /// windows, and the levelization.  Untouched rows are not rewritten.
    /// The dirty rows are derived by the same routine
    /// [`compile`](CompiledCircuit::compile) runs over every row, so
    /// simulation output after the patch is bit-identical to a from-scratch
    /// compile of the mutated netlist.
    ///
    /// The netlist held by `self` must already carry exactly the mutations
    /// `log` describes (which [`edit`](CompiledCircuit::edit) guarantees).
    /// Existing [`SimState`] arenas need an
    /// [`adapt_state`](CompiledCircuit::adapt_state) call before their next
    /// run.
    ///
    /// # Errors
    ///
    /// [`SimulationError::Library`] when an edited gate uses a cell or pin
    /// the library does not characterise.  The tables are left partially
    /// patched in that case — recompile from scratch before further use.
    pub fn apply_edits(&mut self, log: &EditLog) -> Result<(), SimulationError> {
        // --- phase 1: replay the shape ops ---------------------------------
        // Mirrors the id renumbering the edit session performed so every
        // table is indexable in the final id space; appended rows hold
        // placeholders that phase 2 overwrites (appended gates and their
        // nets are always in the dirty sets).
        for op in log.ops() {
            match op {
                EditOp::GateAppended { pin_count } => {
                    // The pin count is set before the sizing step: a later
                    // `GateRemoved` in the same log frees the block by it.
                    self.pins.allocate_gate(*pin_count as usize);
                    self.gate_pin_counts.push(*pin_count);
                    self.grow_rows(self.gate_pin_counts.len(), self.net_loads.len() + 1);
                }
                EditOp::GateRemoved {
                    gate_index,
                    net_index,
                } => {
                    let g = *gate_index as usize;
                    let n = *net_index as usize;
                    self.pins
                        .free_gate(GateId::from_usize(g), self.gate_pin_counts[g] as usize);
                    self.gate_classes.swap_remove(g);
                    self.gate_kinds.swap_remove(g);
                    self.gate_pin_counts.swap_remove(g);
                    self.gate_outputs.swap_remove(g);
                    self.net_loads.swap_remove(n);
                    self.fanout_start.swap_remove(n);
                    self.fanout_len.swap_remove(n);
                    self.fanout_cap.swap_remove(n);
                    // Rows naming the moved gate/net by the old id (pin_gate,
                    // gate_outputs, fanout windows) are rebuilt in phase 2:
                    // the session marked everything the move touched dirty.
                }
            }
        }

        // --- phase 2: rebuild the dirty cones ------------------------------
        self.refresh(
            log.dirty_nets().iter().copied(),
            log.dirty_gates().iter().copied(),
        )?;
        self.levels.update(&self.netlist, log)?;
        Ok(())
    }

    /// Grows the gate rows to `gates`, the net rows to `nets` (each new net
    /// with an empty fanout window) and the pin rows to the pin map's arena,
    /// filling new rows with placeholders that [`refresh`](Self::refresh)
    /// derives before any run reads them.
    fn grow_rows(&mut self, gates: usize, nets: usize) {
        let arena = self.pins.len();
        self.pin_thresholds.resize(arena, Voltage::ZERO);
        self.pin_timing.resize(arena, PLACEHOLDER_TIMING);
        self.pin_bound.resize(
            arena,
            [BoundArc::bind(&PLACEHOLDER_TIMING.rise, self.vdd, Capacitance::ZERO); 2],
        );
        self.pin_gate.resize(arena, 0);
        self.gate_classes.resize(gates, CellClass::default());
        self.gate_kinds.resize(gates, CellKind::Inv);
        self.gate_pin_counts.resize(gates, 0);
        self.gate_outputs.resize(gates, NetId::new(0));
        self.net_loads.resize(nets, Capacitance::ZERO);
        self.fanout_start.resize(nets, 0);
        self.fanout_len.resize(nets, 0);
        self.fanout_cap.resize(nets, 0);
    }

    /// Appends `rows` placeholder rows to the fanout columns and returns the
    /// first one's index.
    fn grow_fanout(&mut self, rows: usize) -> u32 {
        let start = self.fanout_pins.len();
        let grown = start + rows;
        self.fanout_pins
            .resize(grown, PinRef::new(GateId::new(0), 0));
        self.fanout_dense.resize(grown, 0);
        self.fanout_progress.resize(grown, [NEVER_CROSSED; 2]);
        u32::try_from(start).expect("fanout rows fit u32")
    }

    /// Derives the rows of `nets` and `gates` from the netlist: the one
    /// definition of every table row, run over the whole circuit by
    /// [`compile`](Self::compile) and over the dirty cones by
    /// [`apply_edits`](Self::apply_edits).  Every named row must exist
    /// (placeholders included), and `gates` must include the driver of
    /// every net in `nets` whose load changed: a gate's bound arcs fold in
    /// its output load.
    fn refresh(
        &mut self,
        nets: impl Iterator<Item = NetId> + Clone,
        gates: impl Iterator<Item = GateId> + Clone,
    ) -> Result<(), SimulationError> {
        let netlist: &Netlist = &self.netlist;
        // (a) per-net switched capacitance — before pass (c), which folds
        // these loads into the pre-bound arcs.
        for net in nets.clone() {
            self.net_loads[net.index()] = netlist.net_load(net, self.library)?;
        }
        // (b) per-gate rows and their pin blocks.
        for gate in gates.clone() {
            let g = gate.index();
            let gate_ref = netlist.gate(gate);
            let kind = gate_ref.kind();
            self.gate_kinds[g] = kind;
            self.gate_classes[g] = kind.class();
            self.gate_pin_counts[g] = gate_ref.inputs().len() as u32;
            self.gate_outputs[g] = gate_ref.output();
            let block = self.pins.gate_offset(gate);
            for input in 0..gate_ref.inputs().len() {
                let pin = PinRef::new(gate, input as u32);
                let dense = block + input;
                self.pin_gate[dense] = u32::try_from(g).expect("gate count fits u32");
                let fraction = netlist.input_threshold_fraction(pin, self.library)?;
                self.pin_thresholds[dense] = self.vdd.fraction(fraction);
                self.pin_timing[dense] = self.library.pin(kind, input)?.timing;
            }
        }
        // (c) the pins' pre-bound arcs, with the loads of (a) folded in.  A
        // pass of its own: fused into (b)'s loop, the same binding made a
        // compile of the corpus circuits about 8% slower.
        for gate in gates {
            let load = self.gate_load(gate);
            let block = self.pins.gate_offset(gate);
            for dense in block..block + self.gate_pin_counts[gate.index()] as usize {
                let timing = &self.pin_timing[dense];
                self.pin_bound[dense] = [
                    BoundArc::bind(&timing.rise, self.vdd, load),
                    BoundArc::bind(&timing.fall, self.vdd, load),
                ];
            }
        }
        // (d) per-net fanout windows — after the gate pass so the crossing
        // progress reads derived thresholds.  In-place rewrite while the
        // window fits; relocate to the end of the arena with pow2 headroom
        // when it does not (the old rows become dead).
        for net in nets {
            let n = net.index();
            let rows =
                u32::try_from(self.netlist.net(net).loads().len()).expect("fanout rows fit u32");
            if rows > self.fanout_cap[n] {
                let cap = rows.next_power_of_two().max(2);
                self.fanout_start[n] = self.grow_fanout(cap as usize);
                self.fanout_cap[n] = cap;
            }
            self.fanout_len[n] = rows;
            let start = self.fanout_start[n] as usize;
            for (row, &pin) in self.netlist.net(net).loads().iter().enumerate() {
                let dense = self.pins.index(pin);
                self.fanout_pins[start + row] = pin;
                self.fanout_dense[start + row] = u32::try_from(dense).expect("pin count fits u32");
                self.fanout_progress[start + row] =
                    crossing_progress(self.pin_thresholds[dense], self.vdd);
            }
        }
        Ok(())
    }

    /// Runs one simulation with a throwaway state arena.
    ///
    /// Convenience for one-off runs; multi-run workloads should allocate the
    /// arena once via [`new_state`](CompiledCircuit::new_state) and call
    /// [`run_with`](CompiledCircuit::run_with).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_with`](CompiledCircuit::run_with).
    pub fn run<S: StimulusSource + ?Sized>(
        &self,
        stimulus: &S,
        config: &SimulationConfig,
    ) -> Result<SimulationResult, SimulationError> {
        let mut state = self.new_state();
        self.run_with(&mut state, stimulus, config)
    }

    /// Runs one simulation, reusing the caller's state arena and recording
    /// full waveforms.
    ///
    /// This is [`run_observed`](CompiledCircuit::run_observed) with a
    /// [`WaveformRecorder`], packaged as a [`SimulationResult`].  The arena
    /// is reset on entry, so the produced waveforms and statistics are
    /// bit-identical to a run with a freshly allocated state.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::UndrivenPrimaryInput`] if the stimulus does not
    ///   cover every primary input,
    /// * [`SimulationError::EventBudgetExhausted`] if the configured event
    ///   budget is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `state` was created for a differently sized circuit.
    pub fn run_with<S: StimulusSource + ?Sized>(
        &self,
        state: &mut SimState,
        stimulus: &S,
        config: &SimulationConfig,
    ) -> Result<SimulationResult, SimulationError> {
        let started = Instant::now();
        let mut recorder = WaveformRecorder::new();
        let stats = self.run_observed(state, stimulus, config, &mut recorder)?;
        let output_names = self
            .netlist
            .primary_outputs()
            .iter()
            .map(|&net| self.netlist.net(net).name().to_string())
            .collect();
        Ok(SimulationResult::new(
            config.model.clone(),
            self.vdd,
            recorder.into_trace(&self.netlist),
            output_names,
            stats,
            started.elapsed(),
        ))
    }

    /// Runs one simulation for its statistics only — no waveform recording,
    /// no per-net allocation (the null observer `()` under the hood).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_with`](CompiledCircuit::run_with).
    pub fn run_stats<S: StimulusSource + ?Sized>(
        &self,
        state: &mut SimState,
        stimulus: &S,
        config: &SimulationConfig,
    ) -> Result<SimulationStats, SimulationError> {
        self.run_observed(state, stimulus, config, &mut ())
    }

    /// Runs one simulation, streaming activity into `observer` (the paper's
    /// Fig. 4 loop, observation decoupled from execution).
    ///
    /// The engine pushes every emitted transition, filtered event and gate
    /// evaluation to the [`SimObserver`]; what (if anything) is retained is
    /// the observer's choice.  See [`observer`](crate::observer) for the
    /// shipped implementations.
    ///
    /// The stimulus is any [`StimulusSource`]: a [`Stimulus`], or a source
    /// that generates each input's transitions on demand.  A
    /// [`StimulusFeed`] walks it twice and stores nothing per transition: a
    /// set-up pass walks every primary input's transitions in order,
    /// streaming each to the observer and applying the Fig. 4 rule to the
    /// events it causes, which are numbered before every gate event and
    /// counted as scheduled and pending; a second pass feeds the surviving
    /// events to the queue one window ahead of the main loop's clock.
    /// Results, statistics and the observer's stream are exactly those of
    /// scheduling the whole stimulus up front.  With a `time_limit`, the
    /// set-up pass still reports every stimulus transition, including
    /// those past the limit.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::UndrivenPrimaryInput`] if the stimulus does not
    ///   cover every primary input,
    /// * [`SimulationError::EventBudgetExhausted`] if the configured event
    ///   budget is exceeded.  The observer's `finish` is *not* called on
    ///   error paths.
    ///
    /// # Panics
    ///
    /// Panics if `state` was created for a differently sized circuit.
    pub fn run_observed<S: StimulusSource + ?Sized, O: SimObserver + ?Sized>(
        &self,
        state: &mut SimState,
        stimulus: &S,
        config: &SimulationConfig,
        observer: &mut O,
    ) -> Result<SimulationStats, SimulationError> {
        let netlist: &Netlist = &self.netlist;
        // Devirtualise the built-in models per gate: `DelayModel::kind_for`
        // guarantees numerical identity with the named built-in for that
        // gate's cell class, so the hot loop can evaluate the pre-bound arc
        // directly (inlined, no vtable) — including through composites like
        // `PerCellOverride` whose members are built-ins.  Gates that resolve
        // to `None` keep dynamic dispatch.
        let model: &dyn DelayModel = config.model.as_dyn();
        state.gate_model_kinds.clear();
        state
            .gate_model_kinds
            .extend(self.gate_classes.iter().map(|&class| model.kind_for(class)));
        state.check_capacity(self.pins.len(), netlist.gate_count(), netlist.net_count());

        // --- initial state --------------------------------------------------
        let inputs = netlist.primary_inputs();
        let mut assignments = Vec::with_capacity(inputs.len());
        for (index, &input) in inputs.iter().enumerate() {
            let name = netlist.net(input).name();
            let Some(level) = stimulus.initial(index, name) else {
                return Err(SimulationError::UndrivenPrimaryInput {
                    net: name.to_string(),
                });
            };
            assignments.push((input, level));
        }
        let initial_levels = eval::evaluate_with_order(netlist, &self.levels, &assignments);
        state.reset(netlist, &self.pins, &initial_levels);
        observer.begin(self, &initial_levels);

        // --- stimulus events ------------------------------------------------
        // Counted at set-up, numbered before every gate event, and fed to
        // the queue one window ahead of the main loop's clock.
        let pins = inputs
            .iter()
            .map(|input| self.fanout_len[input.index()] as usize)
            .sum();
        let mut feed = StimulusFeed::with_capacity(inputs.len(), pins);
        for (index, &input) in inputs.iter().enumerate() {
            let name = netlist.net(input).name();
            feed.add_input(
                &mut state.queue,
                observer,
                input,
                self.feed_pins(input.index()),
                stimulus.transitions(index, name),
                stimulus.transitions(index, name),
            );
        }
        let mut stats = SimulationStats {
            output_transitions: feed.transitions(),
            ..SimulationStats::default()
        };

        // --- main loop (paper Fig. 4) ---------------------------------------
        // Every lookup below walks the flat compiled tables by dense pin /
        // gate index; the netlist's gate objects are never touched here.
        while let Some((dense, event)) = feed.pop(&mut state.queue) {
            if let Some(limit) = config.time_limit {
                if event.time > limit {
                    break;
                }
            }
            stats.events_processed += 1;
            if stats.events_processed > config.max_events {
                return Err(SimulationError::EventBudgetExhausted {
                    budget: config.max_events,
                });
            }

            let gate_index = self.pin_gate[dense] as usize;
            let was = state.pin_levels[dense];
            state.pin_levels[dense] = event.new_level;
            let block = self.pins.gate_offset(GateId::from_usize(gate_index));
            let count = self.gate_pin_counts[gate_index] as usize;
            let kind = self.gate_kinds[gate_index];
            let new_output = if kind.is_sequential() {
                // Registers compute the next stored state from the stored
                // output plus the pin transition (edge detection needs the
                // pre-event level); `output_target` *is* the stored state.
                kind.next_state(
                    &state.pin_levels[block..block + count],
                    state.output_target[gate_index],
                    dense - block,
                    was,
                )
            } else {
                kind.evaluate(&state.pin_levels[block..block + count])
            };
            if new_output == state.output_target[gate_index] {
                continue;
            }
            let Some(edge) = ramp::edge_toward(state.output_target[gate_index], new_output) else {
                state.output_target[gate_index] = new_output;
                continue;
            };

            let previous_start = state.last_output_start[gate_index];
            let previous = (previous_start != NO_PREVIOUS_RAMP).then_some(previous_start);
            let elapsed = previous.map(|previous| {
                let delta = event.time - previous;
                if delta.is_negative() {
                    TimeDelta::ZERO
                } else {
                    delta
                }
            });
            let outcome = match state.gate_model_kinds[gate_index] {
                // Built-in models evaluate the pre-bound arc: no vtable, and
                // the load/supply terms were folded in at compile time
                // (bit-identical to the context path, see `BoundArc`).
                Some(kind) => {
                    let edge_index = match edge {
                        Edge::Rise => 0,
                        Edge::Fall => 1,
                    };
                    self.pin_bound[dense][edge_index].evaluate(kind, event.input_slew, elapsed)
                }
                None => {
                    let arc = self.pin_timing[dense].for_edge(edge);
                    let ctx = DelayContext {
                        vdd: self.vdd,
                        load: self.gate_load(GateId::from_usize(gate_index)),
                        input_slew: event.input_slew,
                        time_since_last_output: elapsed,
                        cell_class: self.gate_classes[gate_index],
                    };
                    model.evaluate(arc, &ctx)
                }
            };
            observer.on_gate_evaluated(GateId::from_usize(gate_index), &event, &outcome);
            if outcome.is_degraded() {
                stats.degraded_transitions += 1;
            }
            if outcome.is_fully_collapsed() {
                stats.collapsed_transitions += 1;
            }

            let start = ramp::ramp_start(event.time, outcome.delay, outcome.output_slew, previous);
            let transition = Transition::new(start, outcome.output_slew, edge);
            let output_net = self.gate_outputs[gate_index];
            observer.on_transition(output_net, &transition);
            stats.output_transitions += 1;
            state.last_output_start[gate_index] = transition.start();
            state.output_target[gate_index] = new_output;

            self.schedule_fanouts(state, observer, output_net.index(), &transition, new_output);
        }

        stats.events_scheduled = state.queue.scheduled();
        stats.events_filtered = state.queue.filtered();
        stats.queue_high_water = state.queue.high_water();
        observer.finish(&stats);
        Ok(stats)
    }

    /// Runs the same stimulus under both delay models through one shared
    /// state arena and returns `(ddm, cdm)` — the comparison the paper's
    /// Table 1 makes, without compiling or allocating twice.
    ///
    /// # Errors
    ///
    /// Propagates the first error of either run.
    pub fn run_both_models(
        &self,
        stimulus: &Stimulus,
        base: &SimulationConfig,
    ) -> Result<(SimulationResult, SimulationResult), SimulationError> {
        let mut state = self.new_state();
        let ddm_config = base.clone().model(DelayModelKind::Degradation);
        let cdm_config = base.clone().model(DelayModelKind::Conventional);
        Ok((
            self.run_with(&mut state, stimulus, &ddm_config)?,
            self.run_with(&mut state, stimulus, &cdm_config)?,
        ))
    }

    /// The fanout inputs of primary input net `net_index` whose thresholds
    /// its ramps cross, as the [`StimulusFeed`] sees them.
    fn feed_pins(&self, net_index: usize) -> impl Iterator<Item = FeedPin> + '_ {
        let window = self.fanout_start[net_index] as usize;
        (window..window + self.fanout_len[net_index] as usize)
            .filter(|&row| self.fanout_progress[row][0] >= 0.0)
            .map(|row| FeedPin {
                dense: self.fanout_dense[row] as usize,
                pin: self.fanout_pins[row],
                progress: self.fanout_progress[row],
            })
    }

    /// Schedules the events one gate output transition generates: one per
    /// fanout input whose threshold the ramp crosses, each at its own
    /// precomputed crossing progress (paper Fig. 3).
    #[inline]
    fn schedule_fanouts<O: SimObserver + ?Sized>(
        &self,
        state: &mut SimState,
        observer: &mut O,
        net_index: usize,
        transition: &Transition,
        target: LogicLevel,
    ) {
        let edge_index = match transition.edge() {
            Edge::Rise => 0,
            Edge::Fall => 1,
        };
        let start = transition.start();
        let slew = transition.slew();
        let window = self.fanout_start[net_index] as usize;
        for row in window..window + self.fanout_len[net_index] as usize {
            let progress = self.fanout_progress[row][edge_index];
            if progress >= 0.0 {
                let crossing = start + slew.scale(progress);
                let pin = self.fanout_pins[row];
                let dense = self.fanout_dense[row] as usize;
                let event = Event::new(crossing, pin, target, slew);
                if state.queue.schedule(dense, event) == ScheduleOutcome::CancelledPrevious {
                    observer.on_event_filtered(pin, crossing);
                }
            }
        }
    }

    #[cfg(test)]
    fn net_fanout_rows(&self, net_index: usize) -> std::ops::Range<usize> {
        let start = self.fanout_start[net_index] as usize;
        start..start + self.fanout_len[net_index] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::{LogicLevel, Time};
    use halotis_netlist::{generators, technology};

    fn chain_stimulus(library: &Library) -> Stimulus {
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(6.0), LogicLevel::Low);
        stimulus
    }

    /// Checks every row of the circuit's tables against its netlist: each
    /// net's load and fanout window (the net's loads in declaration order,
    /// with dense indices and crossing progress), and each gate's row and
    /// pin block.
    fn assert_tables_match_netlist(circuit: &CompiledCircuit<'_>) {
        let netlist = circuit.netlist();
        let library = circuit.library();
        let vdd = circuit.vdd();
        let ramp = Transition::new(Time::from_ns(1.0), TimeDelta::from_ps(400.0), Edge::Rise);
        assert_eq!(circuit.net_loads().len(), netlist.net_count());
        for net in netlist.nets() {
            let n = net.id().index();
            assert_eq!(
                circuit.net_loads[n],
                netlist.net_load(net.id(), library).unwrap()
            );
            let rows = circuit.net_fanout_rows(n);
            assert_eq!(rows.len(), net.loads().len(), "net {}", net.name());
            assert!(rows.len() <= circuit.fanout_cap[n] as usize);
            for (row, &pin) in rows.zip(net.loads()) {
                let dense = circuit.pins().index(pin);
                assert_eq!(circuit.fanout_pins[row], pin);
                assert_eq!(circuit.fanout_dense[row] as usize, dense);
                let threshold = circuit.pin_thresholds[dense];
                assert_eq!(
                    circuit.fanout_progress[row],
                    crossing_progress(threshold, vdd)
                );
                // The precomputed progress reproduces the on-the-fly
                // crossing computation bit-exactly.
                assert_eq!(
                    ramp.crossing_time(threshold, vdd),
                    (circuit.fanout_progress[row][0] >= 0.0)
                        .then(|| ramp.start() + ramp.slew().scale(circuit.fanout_progress[row][0])),
                );
            }
        }
        for gate in netlist.gates() {
            let g = gate.id().index();
            assert_eq!(circuit.gate_kinds[g], gate.kind());
            assert_eq!(circuit.gate_classes[g], gate.kind().class());
            assert_eq!(circuit.gate_pin_counts[g] as usize, gate.inputs().len());
            assert_eq!(circuit.gate_outputs[g], gate.output());
            let load = circuit.gate_load(gate.id());
            for input in 0..gate.inputs().len() {
                let pin = PinRef::new(gate.id(), input as u32);
                let dense = circuit.pins().index(pin);
                assert_eq!(circuit.pin_gate[dense] as usize, g);
                let fraction = netlist.input_threshold_fraction(pin, library).unwrap();
                assert_eq!(circuit.pin_thresholds[dense], vdd.fraction(fraction));
                let timing = library.pin(gate.kind(), input).unwrap().timing;
                assert_eq!(circuit.pin_timing[dense], timing);
                // `BoundArc` has no `PartialEq`; its `Debug` prints every
                // field, floats as their shortest round-trip form.
                assert_eq!(
                    format!("{:?}", circuit.pin_bound[dense]),
                    format!(
                        "{:?}",
                        [
                            BoundArc::bind(&timing.rise, vdd, load),
                            BoundArc::bind(&timing.fall, vdd, load),
                        ]
                    ),
                );
            }
        }
    }

    #[test]
    fn fanout_tables_cover_every_load_in_declaration_order() {
        let library = technology::cmos06();
        for entry in halotis_corpus::standard_corpus() {
            let circuit = CompiledCircuit::compile(&entry.netlist, &library).unwrap();
            assert_tables_match_netlist(&circuit);
            // A fresh compile packs the windows at their exact lengths, in
            // net order: window `n + 1` starts where window `n` ends.
            let mut end = 0;
            for n in 0..entry.netlist.net_count() {
                assert_eq!(circuit.fanout_start[n], end, "{}: net {n}", entry.name);
                assert_eq!(circuit.fanout_cap[n], circuit.fanout_len[n]);
                end += circuit.fanout_len[n];
            }
            assert_eq!(circuit.fanout_pins.len(), end as usize);
            assert_eq!(circuit.vdd(), library.vdd());
            assert_eq!(circuit.netlist().name(), entry.netlist.name());
            assert_eq!(circuit.library().name(), library.name());
        }
    }

    #[test]
    fn edited_fanout_tables_cover_every_load_in_declaration_order() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let mut circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let packed_rows = circuit.fanout_pins.len() as u32;
        let id = |name: &str| netlist.net_id(name).unwrap();
        let gate = |name: &str| netlist.gate_id(name).unwrap();
        let i1 = id("i1");
        assert_eq!(circuit.fanout_cap[i1.index()], 1);
        circuit
            .edit(|session| {
                // The inserted inverter and two rewired pins give `i1`
                // four loads, which outgrow its packed one-row window.
                session.insert_gate(CellKind::Inv, "eco", &[i1], "eco_out")?;
                session.rewire_input(gate("g22"), 0, i1)?;
                session.rewire_input(gate("g23"), 1, i1)?;
                // `g10` now drives nothing.  Removing it takes its `i1` pin
                // with it and moves the appended gate and net into its slots.
                session.remove_gate(gate("g10")).map(|_| ())
            })
            .unwrap();
        assert_tables_match_netlist(&circuit);
        let edited = circuit.netlist();
        assert_eq!(edited.gate_id("eco"), Some(GateId::new(0)));
        assert_eq!(edited.gate_id("g10"), None);
        assert_eq!(edited.net(i1).loads().len(), 3);
        assert_eq!(circuit.fanout_cap[i1.index()], 4);
        assert!(circuit.fanout_start[i1.index()] >= packed_rows);
    }

    #[test]
    fn reused_state_reproduces_a_fresh_run_exactly() {
        let netlist = generators::multiplier(3, 3);
        let ports = generators::MultiplierPorts::new(3, 3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
            stimulus.set_initial(*bit, LogicLevel::Low);
        }
        stimulus.drive_bus_value(&ports.a_refs(), 0x5, Time::from_ns(1.0));
        stimulus.drive_bus_value(&ports.b_refs(), 0x6, Time::from_ns(1.0));

        let fresh = circuit.run(&stimulus, &SimulationConfig::ddm()).unwrap();
        let mut state = circuit.new_state();
        // Dirty the arena with an unrelated run, then repeat the stimulus.
        circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::cdm())
            .unwrap();
        let reused = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        assert_eq!(fresh.stats(), reused.stats());
        for net in netlist.nets() {
            assert_eq!(
                fresh.waveform(net.name()),
                reused.waveform(net.name()),
                "waveform mismatch on {}",
                net.name()
            );
        }
    }

    #[test]
    fn run_both_models_shares_one_arena() {
        let netlist = generators::inverter_chain(6);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let (ddm, cdm) = circuit
            .run_both_models(&chain_stimulus(&library), &SimulationConfig::default())
            .unwrap();
        assert_eq!(ddm.model_kind(), Some(DelayModelKind::Degradation));
        assert_eq!(cdm.model_kind(), Some(DelayModelKind::Conventional));
        assert!(ddm.stats().events_processed > 0);
    }

    #[test]
    fn adapted_state_hops_circuits_and_reproduces_fresh_runs() {
        // One long-lived arena serves circuits of different shapes — the
        // worker-pool reuse pattern.  Bigger→smaller→bigger hops must all
        // produce results bit-identical to fresh arenas.
        let small = generators::inverter_chain(2);
        let big = generators::c17();
        let library = technology::cmos06();
        let small_circuit = CompiledCircuit::compile(&small, &library).unwrap();
        let big_circuit = CompiledCircuit::compile(&big, &library).unwrap();

        let mut big_stimulus = Stimulus::new(library.default_input_slew());
        for &input in big.primary_inputs() {
            big_stimulus.set_initial(big.net(input).name(), LogicLevel::Low);
            big_stimulus.drive(big.net(input).name(), Time::from_ns(1.0), LogicLevel::High);
        }
        let chain = chain_stimulus(&library);

        let fresh_big = big_circuit
            .run(&big_stimulus, &SimulationConfig::ddm())
            .unwrap();
        let fresh_small = small_circuit.run(&chain, &SimulationConfig::ddm()).unwrap();

        let mut arena = big_circuit.new_state();
        big_circuit
            .run_with(&mut arena, &big_stimulus, &SimulationConfig::cdm())
            .unwrap();
        // Shrink onto the small circuit mid-flight, then grow back.
        small_circuit.adapt_state(&mut arena);
        let hopped_small = small_circuit
            .run_with(&mut arena, &chain, &SimulationConfig::ddm())
            .unwrap();
        big_circuit.adapt_state(&mut arena);
        let hopped_big = big_circuit
            .run_with(&mut arena, &big_stimulus, &SimulationConfig::ddm())
            .unwrap();

        assert_eq!(fresh_small.stats(), hopped_small.stats());
        assert_eq!(fresh_big.stats(), hopped_big.stats());
        for net in big.nets() {
            assert_eq!(
                fresh_big.waveform(net.name()),
                hopped_big.waveform(net.name()),
                "waveform mismatch on {} after arena hops",
                net.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "SimState sized for")]
    fn mismatched_state_is_rejected() {
        let small = generators::inverter_chain(2);
        let big = generators::inverter_chain(5);
        let library = technology::cmos06();
        let small_circuit = CompiledCircuit::compile(&small, &library).unwrap();
        let big_circuit = CompiledCircuit::compile(&big, &library).unwrap();
        let mut state = small_circuit.new_state();
        let _ = big_circuit.run_with(
            &mut state,
            &chain_stimulus(&library),
            &SimulationConfig::ddm(),
        );
    }

    #[test]
    fn undriven_input_is_reported() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let err = circuit
            .run(
                &Stimulus::new(library.default_input_slew()),
                &SimulationConfig::ddm(),
            )
            .unwrap_err();
        assert!(matches!(err, SimulationError::UndrivenPrimaryInput { .. }));
    }
}
