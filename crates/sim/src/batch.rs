//! Parallel batch execution of many scenarios over one compiled circuit.
//!
//! Multi-run workloads — the Table 1/2 sweeps, the pulse-width scan,
//! Monte-Carlo stimulus sets — all share one shape: a fixed circuit, many
//! `(stimulus, config)` pairs.  [`BatchRunner`] executes such a sweep on
//! the calling thread plus `threads − 1` `std::thread::scope` helpers that
//! share one immutable [`CompiledCircuit`]; each worker runs every scenario
//! it picks up in a single [`SimState`] arena.  The arenas outlive the
//! batch: the runner keeps them in a pool, and each worker of a later batch
//! takes one back and points it at that batch's circuit
//! ([`WorkerArena::adopt`]).  A runner reused across batches therefore
//! allocates an arena only the first time a worker needs one, and each
//! pooled arena keeps the largest capacity a worker has needed until the
//! runner is dropped.
//!
//! Results are deterministic: scenarios are independent and an adopted
//! arena reproduces a fresh one bit for bit, so the outcome vector is
//! identical whatever the thread count and whatever ran before — only
//! wall-clock time changes.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use halotis_waveform::Stimulus;

use crate::compiled::CompiledCircuit;
use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::feed::StimulusSource;
use crate::observer::SimObserver;
use crate::result::SimulationResult;
use crate::state::{SimState, WorkerArena};
use crate::stats::SimulationStats;

/// One unit of batch work: a stimulus plus the configuration to run it
/// under, with a label for reporting.  The stimulus is a [`Stimulus`] by
/// default, or any other [`StimulusSource`].
#[derive(Clone, Debug)]
pub struct Scenario<S = Stimulus> {
    /// Human-readable scenario label (e.g. `"fig6/ddm"` or `"width=300ps"`).
    pub label: String,
    /// The stimulus to apply.
    pub stimulus: S,
    /// The simulation configuration (delay model, limits).
    pub config: SimulationConfig,
}

impl<S> Scenario<S> {
    /// Creates a scenario.
    pub fn new(label: impl Into<String>, stimulus: S, config: SimulationConfig) -> Self {
        Scenario {
            label: label.into(),
            stimulus,
            config,
        }
    }
}

impl<S: Clone> Scenario<S> {
    /// The canonical DDM/CDM scenario pair for one stimulus: element 0 runs
    /// the degradation model (label `<label>/ddm`), element 1 the
    /// conventional model (label `<label>/cdm`), both deriving their other
    /// settings from `base`.
    ///
    /// Sweeps that compare the two models submit these pairs and read the
    /// report back in `chunks(2)` — keeping the pairing order defined here,
    /// in one place.
    pub fn both_models(
        label: impl AsRef<str>,
        stimulus: S,
        base: SimulationConfig,
    ) -> [Scenario<S>; 2] {
        let ddm = base
            .clone()
            .model(halotis_delay::DelayModelKind::Degradation);
        let cdm = base.model(halotis_delay::DelayModelKind::Conventional);
        [
            Scenario::new(format!("{}/ddm", label.as_ref()), stimulus.clone(), ddm),
            Scenario::new(format!("{}/cdm", label.as_ref()), stimulus, cdm),
        ]
    }
}

/// The outcome of one scenario within a batch.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario label, copied from the input.
    pub label: String,
    /// The simulation result, or the error that aborted this scenario.
    /// One failing scenario does not abort the rest of the batch.
    pub result: Result<SimulationResult, SimulationError>,
}

/// The outcome of one scenario of an observed batch run
/// ([`BatchRunner::run_observed`]): the populated per-scenario observer plus
/// the run statistics (or the error that aborted the scenario).
#[derive(Debug)]
pub struct ObservedOutcome<O> {
    /// The scenario label, copied from the input.
    pub label: String,
    /// The run statistics, or the error that aborted this scenario.  One
    /// failing scenario does not abort the rest of the batch.
    pub stats: Result<SimulationStats, SimulationError>,
    /// The observer that watched this scenario, carrying whatever it chose
    /// to retain.  On error it holds whatever was observed before the abort.
    pub observer: O,
}

/// Everything a batch run produces: per-scenario outcomes in submission
/// order plus aggregate statistics, generic over the outcome type
/// ([`ScenarioOutcome`] for [`BatchRunner::run`], [`ObservedOutcome`] for
/// [`BatchRunner::run_observed`]).
#[derive(Clone, Debug)]
pub struct BatchSummary<T> {
    outcomes: Vec<T>,
    totals: SimulationStats,
    succeeded: usize,
    wall_time: Duration,
    threads: usize,
}

/// The report of a full-result batch run ([`BatchRunner::run`]).
pub type BatchReport = BatchSummary<ScenarioOutcome>;

/// The report of an observed batch run ([`BatchRunner::run_observed`]).
pub type ObservedReport<O> = BatchSummary<ObservedOutcome<O>>;

impl<T> BatchSummary<T> {
    /// Per-scenario outcomes, in the order the scenarios were submitted.
    pub fn outcomes(&self) -> &[T] {
        &self.outcomes
    }

    /// Statistics summed over every successful scenario.
    pub fn totals(&self) -> &SimulationStats {
        &self.totals
    }

    /// Number of scenarios in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when the batch contained no scenarios.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of scenarios that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.succeeded
    }

    /// Number of scenarios that failed.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.succeeded
    }

    /// Wall-clock time of the whole batch, including scheduling overhead.
    pub fn wall_time(&self) -> Duration {
        self.wall_time
    }

    /// Number of worker threads the batch actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl BatchSummary<ScenarioOutcome> {
    /// The successful results, in submission order.
    pub fn results(&self) -> impl Iterator<Item = &SimulationResult> {
        self.outcomes
            .iter()
            .filter_map(|outcome| outcome.result.as_ref().ok())
    }
}

impl<O> BatchSummary<ObservedOutcome<O>> {
    /// The observers of the successful scenarios, in submission order.
    pub fn observers(&self) -> impl Iterator<Item = &O> {
        self.outcomes
            .iter()
            .filter(|outcome| outcome.stats.is_ok())
            .map(|outcome| &outcome.observer)
    }
}

/// Executes many scenarios against one [`CompiledCircuit`], in parallel.
///
/// The runner owns its workers' arenas and keeps them from batch to batch
/// (see the [module docs](self)), so a sweep over many circuits should
/// reuse one runner rather than build one per batch.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{BatchRunner, CompiledCircuit, Scenario, SimulationConfig};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::inverter_chain(4);
/// let library = technology::cmos06();
/// let circuit = CompiledCircuit::compile(&netlist, &library)?;
///
/// let scenarios: Vec<Scenario> = (1..=8)
///     .map(|i| {
///         let mut stimulus = Stimulus::new(library.default_input_slew());
///         stimulus.set_initial("in", LogicLevel::Low);
///         stimulus.drive("in", Time::from_ns(i as f64), LogicLevel::High);
///         Scenario::new(format!("edge@{i}ns"), stimulus, SimulationConfig::ddm())
///     })
///     .collect();
///
/// let report = BatchRunner::new().run(&circuit, &scenarios);
/// assert_eq!(report.len(), 8);
/// assert_eq!(report.failed(), 0);
/// assert!(report.totals().events_processed > 0);
/// # Ok::<(), halotis_sim::SimulationError>(())
/// ```
pub struct BatchRunner {
    threads: NonZeroUsize,
    /// Arenas kept between batches: each worker of a batch takes one and
    /// puts it back when the cursor runs dry.
    arenas: Mutex<Vec<WorkerArena>>,
}

impl BatchRunner {
    /// A runner using every hardware thread the platform reports (at least
    /// one).
    pub fn new() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// A runner with an explicit worker count; `0` is clamped to `1`.
    pub fn with_threads(threads: usize) -> Self {
        BatchRunner {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to at least 1"),
            arenas: Mutex::default(),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Runs every scenario through a per-scenario [`SimObserver`], collecting
    /// the observers (and run statistics) in submission order.
    ///
    /// This is the no-waveform batch path: nothing is recorded beyond what
    /// each observer keeps.  `make_observer` is called once per scenario
    /// (with its index and the scenario) on the worker thread about to run
    /// it; the populated observer is handed back in the report.
    ///
    /// # Example: glitch statistics for thousands of stimuli, no waveforms
    ///
    /// ```
    /// use halotis_core::{LogicLevel, Time};
    /// use halotis_netlist::{generators, technology};
    /// use halotis_sim::{ActivityCounter, BatchRunner, CompiledCircuit, Scenario, SimulationConfig};
    /// use halotis_waveform::Stimulus;
    ///
    /// let netlist = generators::inverter_chain(4);
    /// let library = technology::cmos06();
    /// let circuit = CompiledCircuit::compile(&netlist, &library)?;
    /// let scenarios: Vec<Scenario> = (1..=16)
    ///     .map(|i| {
    ///         let mut stimulus = Stimulus::new(library.default_input_slew());
    ///         stimulus.set_initial("in", LogicLevel::Low);
    ///         stimulus.drive("in", Time::from_ns(i as f64), LogicLevel::High);
    ///         Scenario::new(format!("edge@{i}ns"), stimulus, SimulationConfig::ddm())
    ///     })
    ///     .collect();
    ///
    /// let report = BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| ActivityCounter::new());
    /// assert_eq!(report.len(), 16);
    /// let out = netlist.net_id("out").unwrap();
    /// for outcome in report.outcomes() {
    ///     assert!(outcome.stats.is_ok());
    ///     assert_eq!(outcome.observer.transitions(out), 1);
    /// }
    /// # Ok::<(), halotis_sim::SimulationError>(())
    /// ```
    pub fn run_observed<S, O, F>(
        &self,
        circuit: &CompiledCircuit<'_>,
        scenarios: &[Scenario<S>],
        make_observer: F,
    ) -> ObservedReport<O>
    where
        S: StimulusSource + Sync,
        O: SimObserver + Send,
        F: Fn(usize, &Scenario<S>) -> O + Sync,
    {
        self.execute(
            circuit,
            scenarios,
            |state, index, scenario| {
                let mut observer = make_observer(index, scenario);
                let stats = circuit.run_observed(
                    state,
                    &scenario.stimulus,
                    &scenario.config,
                    &mut observer,
                );
                ObservedOutcome {
                    label: scenario.label.clone(),
                    stats,
                    observer,
                }
            },
            |outcome| outcome.stats.as_ref().ok(),
        )
    }

    /// Runs every scenario and collects outcomes in submission order.
    ///
    /// Workers pull scenarios from a shared cursor, so an expensive scenario
    /// does not serialise the rest of the sweep behind it.  Each worker
    /// runs every scenario it executes in one pooled [`SimState`] arena.
    /// Failures are recorded per scenario and never abort the batch.
    pub fn run(&self, circuit: &CompiledCircuit<'_>, scenarios: &[Scenario]) -> BatchReport {
        self.execute(
            circuit,
            scenarios,
            |state, _, scenario| ScenarioOutcome {
                label: scenario.label.clone(),
                result: circuit.run_with(state, &scenario.stimulus, &scenario.config),
            },
            |outcome| outcome.result.as_ref().ok().map(SimulationResult::stats),
        )
    }

    /// The work-stealing driver shared by [`run`](BatchRunner::run) and
    /// [`run_observed`](BatchRunner::run_observed).  The calling thread is
    /// worker 0 and spawns `threads − 1` scoped helpers.  Each worker takes
    /// an arena from the runner's pool (a fresh one if the pool is empty),
    /// adopts it for `circuit`, pulls scenario indices from an atomic
    /// cursor until it runs dry, puts the arena back and returns its
    /// `(index, outcome)` pairs, which the caller sorts into submission
    /// order after the join.  `stats_of` extracts the per-scenario
    /// statistics (or `None` for a failed scenario) for the aggregates.
    fn execute<S, T, F, G>(
        &self,
        circuit: &CompiledCircuit<'_>,
        scenarios: &[Scenario<S>],
        job: F,
        stats_of: G,
    ) -> BatchSummary<T>
    where
        S: Sync,
        T: Send,
        F: Fn(&mut SimState, usize, &Scenario<S>) -> T + Sync,
        G: Fn(&T) -> Option<&SimulationStats>,
    {
        let started = Instant::now();
        let threads = self.threads.get().min(scenarios.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut arena = self
                .arenas
                .lock()
                .expect(POOL_LOCK)
                .pop()
                .unwrap_or_default();
            let state = arena.adopt(circuit);
            let mut done = Vec::new();
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = scenarios.get(index) else {
                    break;
                };
                done.push((index, job(state, index, scenario)));
            }
            self.arenas.lock().expect(POOL_LOCK).push(arena);
            done
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(theirs) => done.extend(theirs),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        let outcomes: Vec<T> = done.into_iter().map(|(_, outcome)| outcome).collect();

        let mut totals = SimulationStats::default();
        let mut succeeded = 0;
        for outcome in &outcomes {
            if let Some(stats) = stats_of(outcome) {
                totals.merge(stats);
                succeeded += 1;
            }
        }
        BatchSummary {
            outcomes,
            totals,
            succeeded,
            wall_time: started.elapsed(),
            threads,
        }
    }
}

/// Why locking the arena pool cannot fail: it is held only to push or pop.
const POOL_LOCK: &str = "no thread panics while holding the arena pool";

impl fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchRunner")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::{LogicLevel, Time};
    use halotis_netlist::{generators, technology};

    fn chain_scenarios(library: &halotis_netlist::Library, count: usize) -> Vec<Scenario> {
        (0..count)
            .map(|i| {
                let mut stimulus = Stimulus::new(library.default_input_slew());
                stimulus.set_initial("in", LogicLevel::Low);
                stimulus.drive("in", Time::from_ns(1.0 + 0.25 * i as f64), LogicLevel::High);
                Scenario::new(format!("s{i}"), stimulus, SimulationConfig::ddm())
            })
            .collect()
    }

    #[test]
    fn outcomes_preserve_submission_order_and_labels() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let scenarios = chain_scenarios(&library, 7);
        let report = BatchRunner::with_threads(3).run(&circuit, &scenarios);
        assert_eq!(report.len(), 7);
        assert!(!report.is_empty());
        assert_eq!(report.failed(), 0);
        assert_eq!(report.succeeded(), 7);
        assert_eq!(report.threads(), 3);
        for (index, outcome) in report.outcomes().iter().enumerate() {
            assert_eq!(outcome.label, format!("s{index}"));
        }
        assert_eq!(report.results().count(), 7);
    }

    #[test]
    fn parallel_results_match_sequential_results() {
        let netlist = generators::multiplier(3, 3);
        let ports = generators::MultiplierPorts::new(3, 3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let scenarios: Vec<Scenario> = (0u64..12)
            .map(|i| {
                let mut stimulus = Stimulus::new(library.default_input_slew());
                for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
                    stimulus.set_initial(*bit, LogicLevel::Low);
                }
                stimulus.drive_bus_value(&ports.a_refs(), i % 8, Time::from_ns(1.0));
                stimulus.drive_bus_value(&ports.b_refs(), (i * 3) % 8, Time::from_ns(1.0));
                Scenario::new(format!("{i}"), stimulus, SimulationConfig::ddm())
            })
            .collect();
        let sequential = BatchRunner::with_threads(1).run(&circuit, &scenarios);
        let parallel = BatchRunner::with_threads(4).run(&circuit, &scenarios);
        assert_eq!(sequential.totals(), parallel.totals());
        for (a, b) in sequential.outcomes().iter().zip(parallel.outcomes()) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.stats(), b.stats());
            for (name, waveform) in a.waveforms().iter() {
                assert_eq!(Some(waveform), b.waveform(name));
            }
        }
    }

    #[test]
    fn a_reused_runner_matches_fresh_arenas_across_circuits() {
        // One runner's pooled arenas serve a large circuit, then a small
        // one, then the large one again; every outcome must equal a run on
        // a fresh `new_state` arena, and the pool never holds more arenas
        // than the runner has workers (fewer when a helper started after
        // another worker had already put its arena back).
        let library = technology::cmos06();
        let large = generators::multiplier(4, 4);
        let ports = generators::MultiplierPorts::new(4, 4);
        let large_circuit = CompiledCircuit::compile(&large, &library).unwrap();
        let large_scenarios: Vec<Scenario> = (0u64..6)
            .map(|i| {
                let mut stimulus = Stimulus::new(library.default_input_slew());
                for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
                    stimulus.set_initial(*bit, LogicLevel::Low);
                }
                for step in 0..12u64 {
                    let at = Time::from_ns(1.0 + 1.5 * step as f64);
                    stimulus.drive_bus_value(&ports.a_refs(), (i * 7 + step * 5) % 16, at);
                    stimulus.drive_bus_value(&ports.b_refs(), (i * 3 + step * 11) % 16, at);
                }
                let config = if i % 2 == 0 {
                    SimulationConfig::ddm()
                } else {
                    SimulationConfig::cdm()
                };
                Scenario::new(format!("{i}"), stimulus, config)
            })
            .collect();
        let small = generators::inverter_chain(2);
        let small_circuit = CompiledCircuit::compile(&small, &library).unwrap();
        let small_scenarios = chain_scenarios(&library, 5);
        let batches = [
            (&large_circuit, &large_scenarios),
            (&small_circuit, &small_scenarios),
            (&large_circuit, &large_scenarios),
        ];
        for threads in 1..=3 {
            let runner = BatchRunner::with_threads(threads);
            for (circuit, scenarios) in batches {
                let report = runner.run(circuit, scenarios);
                assert_eq!(report.threads(), threads);
                let pooled = runner.arenas.lock().unwrap().len();
                assert!((1..=threads).contains(&pooled), "{pooled} arenas pooled");
                for (scenario, outcome) in scenarios.iter().zip(report.outcomes()) {
                    let pooled = outcome.result.as_ref().unwrap();
                    let fresh = circuit.run(&scenario.stimulus, &scenario.config).unwrap();
                    let context = format!("{threads} threads, scenario {}", outcome.label);
                    assert_eq!(pooled.stats(), fresh.stats(), "{context}");
                    for (name, waveform) in fresh.waveforms().iter() {
                        assert_eq!(pooled.waveform(name), Some(waveform), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_failing_scenario_does_not_abort_the_batch() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut scenarios = chain_scenarios(&library, 3);
        // An empty stimulus leaves the primary input undriven.
        scenarios.insert(
            1,
            Scenario::new(
                "broken",
                Stimulus::new(library.default_input_slew()),
                SimulationConfig::ddm(),
            ),
        );
        let report = BatchRunner::with_threads(2).run(&circuit, &scenarios);
        assert_eq!(report.len(), 4);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.succeeded(), 3);
        assert!(matches!(
            report.outcomes()[1].result,
            Err(SimulationError::UndrivenPrimaryInput { .. })
        ));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let netlist = generators::inverter_chain(1);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let report = BatchRunner::new().run(&circuit, &[]);
        assert!(report.is_empty());
        assert_eq!(report.totals(), &SimulationStats::default());
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(BatchRunner::with_threads(0).threads(), 1);
        assert!(BatchRunner::default().threads() >= 1);
    }
}
