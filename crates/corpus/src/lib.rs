//! The HALOTIS benchmark corpus: deterministic workloads, golden
//! statistics, and the substrate of the CI perf/correctness gates.
//!
//! The paper's central claim is that the degradation delay model changes
//! event counts, glitch counts and power *on real circuit workloads* — so
//! the repo needs more than a handful of hand-picked experiments.  This
//! crate pins down a seeded, reproducible corpus:
//!
//! * [`entry`] — [`CorpusEntry`] (circuit × stimulus suite) and
//!   [`standard_corpus`]: array and Wallace-tree multipliers,
//!   ripple/carry-skip/Kogge-Stone adders, parity trees, layered random
//!   logic, and the ISCAS-85 circuits c17, c432 and c880 (the latter two
//!   parsed from committed netlist files); every stimulus runs under the
//!   three [`ModelColumn`]s — DDM, CDM and the [`mixed_model`] per-cell
//!   override — whose [`ModelColumn::config`] the daemon's `simulate` uses
//!   too,
//! * [`stimuli`] — [`StimulusSuite`]: seeded random vector sequences,
//!   exhaustive small-input sweeps, and single-input-toggle glitch probes,
//! * [`observer`] — [`GlitchProfile`] (glitch pulses on the half-swing
//!   projection) and [`WallClockProbe`] (per-scenario timing), and the
//!   [`ScenarioObserver`] bundle — the engine's
//!   [`PowerAccumulator`](halotis_sim::PowerAccumulator) plus
//!   [`GlitchProfile`] — that the corpus runner and the daemon both run on
//!   every scenario,
//! * [`runner`] — [`CorpusRunner`]: every entry compiled once and swept
//!   through [`BatchRunner::run_observed`](halotis_sim::BatchRunner) under
//!   all three model columns, with zero waveform retention,
//! * [`stats`] — [`CorpusStats`]: the canonical JSON document
//!   (`CORPUS_stats.json`) whose non-timing fields are bit-exact
//!   reproducible — the contract of the `corpus-golden` CI gate — written
//!   with the JSON string and float writers the daemon's responses use.
//!
//! # Example
//!
//! ```
//! use halotis_corpus::{standard_corpus, CorpusRunner};
//!
//! let corpus = standard_corpus();
//! let report = CorpusRunner::new().with_threads(2).run(&corpus)?;
//! assert!(report.stats.scenario_count() >= 100);
//! assert!(report.stats.totals().events_processed > 0);
//!
//! // The golden document: strip timing and the rendering is bit-exact
//! // reproducible, run after run, thread count notwithstanding.
//! let mut stats = report.stats;
//! stats.strip_timing();
//! let json = stats.to_json();
//! assert!(json.starts_with("{\n  \"schema\": \"halotis-corpus-v1\""));
//! # Ok::<(), halotis_corpus::CorpusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod observer;
pub mod runner;
pub mod stats;
pub mod stimuli;

pub use entry::{mixed_model, standard_corpus, CorpusEntry, ModelColumn};
pub use observer::{GlitchProfile, ScenarioObserver, WallClockProbe};
pub use runner::{CorpusError, CorpusReport, CorpusRunner, EntryTiming, NetHotspot};
pub use stats::{CorpusStats, EntryRecord, ScenarioRecord, SCHEMA};
pub use stimuli::StimulusSuite;
