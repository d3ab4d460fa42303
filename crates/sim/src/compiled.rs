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
//! the engine only chases one level of indirection.  The circuit also keeps
//! its netlist's levelization, patched in place by edits: run
//! initialisation evaluates in that order, and the static-timing pass
//! ([`sta`](crate::sta)) walks it to bound every net's arrival.
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

/// Zeroed timing arc used to fill freshly allocated pin rows during edit
/// replay, before the dirty-cone rebuild overwrites them with library data.
/// Never evaluated: a row carrying it belongs to a gate in the dirty set.
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

    /// The shared compile body: builds every flat table from the borrowed
    /// view, then moves the `Cow` into the finished circuit.
    fn compile_cow(
        source: Cow<'a, Netlist>,
        library: &'a Library,
    ) -> Result<Self, SimulationError> {
        let netlist: &Netlist = source.as_ref();
        let vdd = library.vdd();
        let pins = PinMap::new(netlist);

        let mut pin_thresholds: Vec<Voltage> = vec![Voltage::ZERO; pins.len()];
        let mut pin_timing: Vec<PinTiming> = Vec::with_capacity(pins.len());
        for gate in netlist.gates() {
            for input in 0..gate.inputs().len() {
                let pin = PinRef::new(gate.id(), input as u32);
                let dense = pins.index(pin);
                let fraction = netlist.input_threshold_fraction(pin, library)?;
                pin_thresholds[dense] = vdd.fraction(fraction);
                pin_timing.push(library.pin(gate.kind(), input)?.timing);
            }
        }

        let net_loads: Vec<Capacitance> = netlist
            .nets()
            .iter()
            .map(|net| netlist.net_load(net.id(), library))
            .collect::<Result<_, _>>()?;
        let gate_classes: Vec<CellClass> = netlist
            .gates()
            .iter()
            .map(|gate| gate.kind().class())
            .collect();

        let mut fanout_start = Vec::with_capacity(netlist.net_count());
        let mut fanout_len = Vec::with_capacity(netlist.net_count());
        let mut fanout_cap = Vec::with_capacity(netlist.net_count());
        let mut fanout_pins = Vec::new();
        let mut fanout_dense = Vec::new();
        let mut fanout_progress = Vec::new();
        for net in netlist.nets() {
            fanout_start.push(u32::try_from(fanout_pins.len()).expect("fanout rows fit u32"));
            let rows = u32::try_from(net.loads().len()).expect("fanout rows fit u32");
            fanout_len.push(rows);
            fanout_cap.push(rows);
            for &pin in net.loads() {
                let dense = pins.index(pin);
                fanout_pins.push(pin);
                fanout_dense.push(u32::try_from(dense).expect("pin count fits u32"));
                fanout_progress.push(crossing_progress(pin_thresholds[dense], vdd));
            }
        }

        let mut pin_gate = vec![0u32; pins.len()];
        let mut gate_kinds = Vec::with_capacity(netlist.gate_count());
        let mut gate_pin_counts = Vec::with_capacity(netlist.gate_count());
        let mut gate_outputs = Vec::with_capacity(netlist.gate_count());
        for gate in netlist.gates() {
            let block = pins.gate_offset(gate.id());
            for slot in &mut pin_gate[block..block + gate.inputs().len()] {
                *slot = u32::try_from(gate.id().index()).expect("gate count fits u32");
            }
            gate_kinds.push(gate.kind());
            gate_pin_counts.push(gate.inputs().len() as u32);
            gate_outputs.push(gate.output());
        }

        let pin_bound: Vec<[BoundArc; 2]> = (0..pins.len())
            .map(|dense| {
                let load = net_loads[gate_outputs[pin_gate[dense] as usize].index()];
                let timing = &pin_timing[dense];
                [
                    BoundArc::bind(&timing.rise, vdd, load),
                    BoundArc::bind(&timing.fall, vdd, load),
                ]
            })
            .collect();

        let levels = levelize::levelize(netlist)?;
        Ok(CompiledCircuit {
            levels,
            netlist: source,
            library,
            vdd,
            pins,
            pin_thresholds,
            pin_timing,
            gate_classes,
            net_loads,
            fanout_start,
            fanout_len,
            fanout_cap,
            fanout_pins,
            fanout_dense,
            fanout_progress,
            pin_gate,
            pin_bound,
            gate_kinds,
            gate_pin_counts,
            gate_outputs,
        })
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
    /// windows, and the levelization.  Untouched rows are not rewritten, and
    /// simulation output after the patch is bit-identical to a from-scratch
    /// [`compile`](CompiledCircuit::compile) of the mutated netlist.
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
                    let pin_count = *pin_count as usize;
                    self.pins.allocate_gate(pin_count);
                    let arena = self.pins.len();
                    self.pin_thresholds.resize(arena, Voltage::ZERO);
                    self.pin_timing.resize(arena, PLACEHOLDER_TIMING);
                    self.pin_bound.resize(
                        arena,
                        [BoundArc::bind(&PLACEHOLDER_TIMING.rise, self.vdd, Capacitance::ZERO); 2],
                    );
                    self.pin_gate.resize(arena, 0);
                    self.gate_classes.push(CellClass::default());
                    self.gate_kinds.push(CellKind::Inv);
                    self.gate_pin_counts.push(pin_count as u32);
                    self.gate_outputs.push(NetId::new(0));
                    self.net_loads.push(Capacitance::ZERO);
                    self.fanout_start.push(0);
                    self.fanout_len.push(0);
                    self.fanout_cap.push(0);
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
        let netlist: &Netlist = &self.netlist;
        // (a) per-net switched capacitance — before the gate pass, which
        // folds these loads into the pre-bound arcs.
        for &net in log.dirty_nets() {
            self.net_loads[net.index()] = netlist.net_load(net, self.library)?;
        }
        // (b) per-gate rows and their pin blocks.
        for &gate in log.dirty_gates() {
            let g = gate.index();
            let gate_ref = netlist.gate(gate);
            let kind = gate_ref.kind();
            self.gate_kinds[g] = kind;
            self.gate_classes[g] = kind.class();
            self.gate_pin_counts[g] = gate_ref.inputs().len() as u32;
            self.gate_outputs[g] = gate_ref.output();
            let load = self.net_loads[gate_ref.output().index()];
            let block = self.pins.gate_offset(gate);
            for input in 0..gate_ref.inputs().len() {
                let pin = PinRef::new(gate, input as u32);
                let dense = block + input;
                self.pin_gate[dense] = u32::try_from(g).expect("gate count fits u32");
                let fraction = netlist.input_threshold_fraction(pin, self.library)?;
                self.pin_thresholds[dense] = self.vdd.fraction(fraction);
                self.pin_timing[dense] = self.library.pin(kind, input)?.timing;
                self.pin_bound[dense] = [
                    BoundArc::bind(&self.pin_timing[dense].rise, self.vdd, load),
                    BoundArc::bind(&self.pin_timing[dense].fall, self.vdd, load),
                ];
            }
        }
        // (c) per-net fanout windows — after the gate pass so the crossing
        // progress reads rebuilt thresholds.  In-place rewrite while the
        // window fits; relocate to the end of the arena with pow2 headroom
        // when it does not (the old rows become dead).
        for &net in log.dirty_nets() {
            let n = net.index();
            let loads = netlist.net(net).loads();
            let rows = u32::try_from(loads.len()).expect("fanout rows fit u32");
            if rows > self.fanout_cap[n] {
                let cap = rows.next_power_of_two().max(2);
                self.fanout_start[n] =
                    u32::try_from(self.fanout_pins.len()).expect("fanout rows fit u32");
                self.fanout_cap[n] = cap;
                let grown = self.fanout_pins.len() + cap as usize;
                self.fanout_pins
                    .resize(grown, PinRef::new(GateId::new(0), 0));
                self.fanout_dense.resize(grown, 0);
                self.fanout_progress.resize(grown, [NEVER_CROSSED; 2]);
            }
            self.fanout_len[n] = rows;
            let start = self.fanout_start[n] as usize;
            for (row, &pin) in loads.iter().enumerate() {
                let dense = self.pins.index(pin);
                self.fanout_pins[start + row] = pin;
                self.fanout_dense[start + row] = u32::try_from(dense).expect("pin count fits u32");
                self.fanout_progress[start + row] =
                    crossing_progress(self.pin_thresholds[dense], self.vdd);
            }
        }
        // (d) incremental re-levelization of the affected cones.
        self.levels.update(netlist, log)?;
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

    #[test]
    fn fanout_tables_cover_every_load_in_declaration_order() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        for net in netlist.nets() {
            let rows = circuit.net_fanout_rows(net.id().index());
            assert_eq!(rows.len(), net.loads().len());
            for (row, &pin) in rows.zip(net.loads()) {
                assert_eq!(circuit.fanout_pins[row], pin);
                assert_eq!(
                    circuit.fanout_dense[row] as usize,
                    circuit.pins().index(pin)
                );
                let threshold = circuit.pin_thresholds[circuit.pins().index(pin)];
                assert_eq!(
                    circuit.fanout_progress[row],
                    crossing_progress(threshold, circuit.vdd())
                );
                // The precomputed progress reproduces the on-the-fly
                // crossing computation bit-exactly.
                let ramp = Transition::new(
                    halotis_core::Time::from_ns(1.0),
                    TimeDelta::from_ps(400.0),
                    Edge::Rise,
                );
                assert_eq!(
                    ramp.crossing_time(threshold, circuit.vdd()),
                    (circuit.fanout_progress[row][0] >= 0.0)
                        .then(|| ramp.start() + ramp.slew().scale(circuit.fanout_progress[row][0])),
                );
            }
        }
        assert_eq!(circuit.net_loads().len(), netlist.net_count());
        assert_eq!(circuit.vdd(), library.vdd());
        assert_eq!(circuit.netlist().name(), netlist.name());
        assert_eq!(circuit.library().name(), library.name());
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
