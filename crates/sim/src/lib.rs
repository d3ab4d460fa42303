//! The HALOTIS event-driven logic-timing simulation kernel.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! simulator built around the distinction between **transitions** (linear
//! voltage ramps on nets) and **events** (the instants those ramps cross the
//! individual threshold voltage of each fanout gate input), combined with
//! the Inertial and Degradation Delay Model (IDDM).
//!
//! The pieces map directly onto the paper's sections:
//!
//! * [`queue`] — the event queue with the per-input insert/cancel rule of
//!   Fig. 4 (an event arriving *before* the pending previous event on the
//!   same input deletes it: that is where runt pulses die, per input),
//! * [`compiled`] / [`state`] — the compile-once/run-many core: a
//!   [`CompiledCircuit`] holds every static table in flat arrays, a
//!   [`SimState`] arena holds the per-run mutable state and is reset (not
//!   reallocated) between runs,
//! * [`observer`] — the streaming [`SimObserver`] contract the engine
//!   drives: the engine executes, observers decide what to retain
//!   ([`WaveformRecorder`], [`ActivityCounter`], [`VcdStreamer`],
//!   [`PowerAccumulator`]),
//! * [`engine`] — the single-shot [`Simulator`] front end over the compiled
//!   core, executing the simulation algorithm of Fig. 4: pop event, evaluate
//!   the gate through the configured
//!   [`DelayModel`], emit the output transition,
//!   generate one event per fanout input threshold (Fig. 3),
//! * [`batch`] — the [`BatchRunner`], executing many `(stimulus, config)`
//!   scenarios across scoped threads sharing one [`CompiledCircuit`],
//! * [`classical`] — a conventional single-threshold, inertial-delay
//!   event-driven simulator, the baseline whose wrong behaviour Fig. 1
//!   demonstrates,
//! * [`ramp`] — output-ramp shaping rules shared by both engines,
//! * [`stats`] / [`result`] — event counts, filtered-event counts and
//!   switching activity (Table 1) plus the recorded waveforms (Figs. 6–7).
//!
//! # Which API should I use?
//!
//! | Workload | Call | Produces |
//! |---|---|---|
//! | Stimuli one at a time on a compiled circuit, reusing one [`SimState`] | [`CompiledCircuit::run_observed`] | whatever the [`SimObserver`] keeps |
//! | Many scenarios across threads | [`BatchRunner::run_observed`] | [`ObservedReport`] of observers |
//!
//! The rest are convenience wrappers over these two with a
//! [`WaveformRecorder`] or no observer: [`Simulator::run`],
//! [`CompiledCircuit::run_with`], [`CompiledCircuit::run_stats`], the
//! `run_both_models` pair and [`BatchRunner::run`].
//!
//! The delay model is part of the [`SimulationConfig`]
//! (`config.model(...)`), never of the call: every call above runs under the
//! built-in DDM/CDM kinds, a
//! [`PerCellOverride`](halotis_delay::PerCellOverride) mix, or any custom
//! [`DelayModel`] implementation alike.
//!
//! # Quick start
//!
//! ```
//! use halotis_core::{LogicLevel, Time};
//! use halotis_delay::DelayModelKind;
//! use halotis_netlist::{generators, technology};
//! use halotis_sim::{SimulationConfig, Simulator};
//! use halotis_waveform::Stimulus;
//!
//! // Three inversions: a rising input edge produces a falling output edge.
//! let netlist = generators::inverter_chain(3);
//! let library = technology::cmos06();
//! let mut stimulus = Stimulus::new(library.default_input_slew());
//! stimulus.set_initial("in", LogicLevel::Low);
//! stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
//!
//! let simulator = Simulator::new(&netlist, &library);
//! let result = simulator.run(&stimulus, &SimulationConfig::ddm())?;
//! assert!(result.stats().events_processed > 0);
//! let out = result.ideal_waveform("out").expect("output net exists");
//! assert_eq!(out.final_level(), LogicLevel::Low);
//! # Ok::<(), halotis_sim::SimulationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod classical;
pub mod compiled;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod observer;
pub mod pins;
pub mod power;
pub mod queue;
pub mod ramp;
pub mod result;
pub mod sta;
pub mod state;
pub mod stats;
pub mod wheel;

pub use batch::{
    BatchReport, BatchRunner, BatchSummary, ObservedOutcome, ObservedReport, Scenario,
    ScenarioOutcome,
};
pub use compiled::CompiledCircuit;
pub use config::SimulationConfig;
pub use engine::Simulator;
pub use error::SimulationError;
pub use event::Event;
pub use observer::{ActivityCounter, PowerAccumulator, SimObserver, VcdStreamer, WaveformRecorder};
pub use result::SimulationResult;
pub use state::SimState;
pub use stats::SimulationStats;

// The model vocabulary a configuration needs, re-exported so downstream code
// can plug in models without importing `halotis_delay` directly.
pub use halotis_delay::{DelayModel, DelayModelHandle, DelayModelKind};
