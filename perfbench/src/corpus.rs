//! The `corpus_batch` workload: back-to-back passes over the standard
//! corpus in process, one entry at a time in a seeded order.
//!
//! Untraced passes call the shipped [`CorpusRunner`].  Traced passes make
//! the runner's public calls one by one — compile, scenario expansion and
//! the observed batch — with a span around each and one span per scenario
//! from a wrapping observer.

use std::time::{Duration, Instant};

use halotis_core::{LogicLevel, NetId, PinRef, Time};
use halotis_corpus::{
    CorpusEntry, CorpusRunner, CorpusStats, EntryRecord, GlitchProfile, ScenarioRecord,
    WallClockProbe,
};
use halotis_netlist::technology;
use halotis_sim::observer::SimObserver;
use halotis_sim::{
    ActivityCounter, BatchRunner, CompiledCircuit, Event, PowerAccumulator, SimulationError,
    SimulationStats,
};
use halotis_waveform::Transition;

use crate::golden::{Expected, Golden};
use crate::trace::Trace;
use crate::util::{median, us, us_since, Rng};
use crate::RunData;

/// Wraps an observer and timestamps its run's `begin` and `finish`.
pub struct Timed<O> {
    pub inner: O,
    pub begin: Option<Instant>,
    pub end: Option<Instant>,
}

impl<O> Timed<O> {
    pub fn new(inner: O) -> Self {
        Timed {
            inner,
            begin: None,
            end: None,
        }
    }
}

impl<O: SimObserver> SimObserver for Timed<O> {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.begin = Some(Instant::now());
        self.inner.begin(circuit, initial_levels);
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        self.inner.on_transition(net, transition);
    }

    fn on_event_filtered(&mut self, pin: PinRef, at: Time) {
        self.inner.on_event_filtered(pin, at);
    }

    fn on_gate_evaluated(
        &mut self,
        gate: halotis_core::GateId,
        event: &Event,
        outcome: &halotis_delay::DelayOutcome,
    ) {
        self.inner.on_gate_evaluated(gate, event, outcome);
    }

    fn finish(&mut self, stats: &SimulationStats) {
        self.inner.finish(stats);
        self.end = Some(Instant::now());
    }
}

/// The corpus runner's per-scenario observer bundle.
type Bundle = (
    (ActivityCounter, PowerAccumulator),
    (GlitchProfile, WallClockProbe),
);

fn bundle() -> Bundle {
    (
        (ActivityCounter::new(), PowerAccumulator::new()),
        (GlitchProfile::new(), WallClockProbe::new()),
    )
}

/// Compares one pass against the golden: the rendered document must equal
/// it byte for byte, and every scenario row must match.  Returns the number
/// of failed scenarios.
fn check_pass(records: Vec<Option<EntryRecord>>, golden: &Golden, scenarios: u64) -> u64 {
    if records.iter().any(Option::is_none) {
        return scenarios;
    }
    let mut stats = CorpusStats {
        entries: records.into_iter().flatten().collect(),
    };
    let mismatched = stats
        .entries
        .iter()
        .flat_map(|entry| &entry.scenarios)
        .filter(|record| golden.rows.get(&record.label) != Some(&Expected::from_record(record)))
        .count() as u64;
    stats.strip_timing();
    let document_differs = stats.to_json() != golden.text;
    mismatched.max(u64::from(document_differs))
}

/// Counts of one pass: events processed, filtered, scheduled, queue
/// high-water.
fn pass_counts(records: &[Option<EntryRecord>]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for record in records.iter().flatten().flat_map(|entry| &entry.scenarios) {
        counts[0] += record.stats.events_processed as u64;
        counts[1] += record.stats.events_filtered as u64;
        counts[2] += record.stats.events_scheduled as u64;
        counts[3] = counts[3].max(record.stats.queue_high_water as u64);
    }
    counts
}

/// Sets up (several times, timing each) and runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    corrupt: Option<&str>,
    threads: usize,
) -> RunData {
    let mut data = RunData::default();
    let mut setup = None;
    for _ in 0..5 {
        let started = Instant::now();
        let corpus = halotis_corpus::standard_corpus();
        let text = std::fs::read_to_string("CORPUS_stats.json").expect("CORPUS_stats.json exists");
        let golden = Golden::parse(text).expect("the committed golden parses");
        data.setup_s.push(started.elapsed().as_secs_f64());
        setup = Some((corpus, golden));
    }
    let (corpus, mut golden) = setup.expect("set up at least once");
    if let Some(label) = corrupt {
        golden.corrupt(label);
    }
    let library = technology::cmos06();
    let runner = CorpusRunner::new().with_threads(threads);
    let batch = BatchRunner::with_threads(threads);
    let scenario_count = golden.rows.len() as u64;
    let mut rng = Rng::new(seed).fork(1);
    let mut trace = Trace::new(Instant::now());
    let (mut compile_sums, mut expand_sums, mut batch_sums) = (Vec::new(), Vec::new(), Vec::new());

    let started = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        let order = rng.permutation(corpus.len());
        // Traced runs cycle through three kinds of pass: the shipped
        // runner (the end-to-end reference), the same public calls made one
        // by one with spans, and those calls without spans (the reference
        // for the tracing overhead).
        let kind = if traced { pass % 3 } else { 0 };
        let mut records: Vec<Option<EntryRecord>> = vec![None; corpus.len()];
        let mut entry_us = vec![0.0; corpus.len()];
        let pass_started = Instant::now();
        if kind == 1 {
            let pass_span = trace.record("pass", 0, pass, pass_started, pass_started);
            let mut sums = [0.0; 3];
            for &index in &order {
                let entry = &corpus[index];
                let t0 = Instant::now();
                let Ok(circuit) = CompiledCircuit::compile(&entry.netlist, &library) else {
                    continue;
                };
                let t1 = Instant::now();
                let scenarios = entry.scenarios(&library);
                let t2 = Instant::now();
                let report = batch.run_observed(&circuit, &scenarios, |_, _| Timed::new(bundle()));
                let t3 = Instant::now();
                let entry_span = trace.record("entry", pass_span, pass, t0, t3);
                trace.record("compile", entry_span, pass, t0, t1);
                trace.record("scenarios", entry_span, pass, t1, t2);
                let batch_span = trace.record("batch", entry_span, pass, t2, t3);
                sums[0] += us(t1 - t0);
                sums[1] += us(t2 - t1);
                sums[2] += us(t3 - t2);
                for outcome in report.outcomes() {
                    if let (Some(begin), Some(end)) = (outcome.observer.begin, outcome.observer.end)
                    {
                        trace.record("scenario", batch_span, pass, begin, end);
                    }
                }
                records[index] = entry_record(
                    entry,
                    &scenarios,
                    report
                        .outcomes()
                        .iter()
                        .map(|o| (&o.stats, &o.observer.inner)),
                    report.wall_time(),
                );
            }
            let pass_end = Instant::now();
            trace.close(pass_span, pass_end);
            data.pass_traced_ms.push(us(pass_end - pass_started) / 1e3);
            compile_sums.push(sums[0]);
            expand_sums.push(sums[1]);
            batch_sums.push(sums[2]);
        } else if kind == 2 {
            for &index in &order {
                let entry = &corpus[index];
                let Ok(circuit) = CompiledCircuit::compile(&entry.netlist, &library) else {
                    continue;
                };
                let scenarios = entry.scenarios(&library);
                let report = batch.run_observed(&circuit, &scenarios, |_, _| bundle());
                records[index] = entry_record(
                    entry,
                    &scenarios,
                    report.outcomes().iter().map(|o| (&o.stats, &o.observer)),
                    report.wall_time(),
                );
            }
            data.pass_manual_ms.push(us_since(pass_started) / 1e3);
        } else {
            for &index in &order {
                let t0 = Instant::now();
                let report = runner.run(std::slice::from_ref(&corpus[index]));
                entry_us[index] = us_since(t0);
                if let Ok(mut report) = report {
                    records[index] = report.stats.entries.pop();
                }
            }
            let pass_us = us_since(pass_started);
            data.pass_ms.push(pass_us / 1e3);
            data.busy_s += pass_us / 1e6;
            for (index, record) in records.iter().enumerate() {
                let Some(record) = record else { continue };
                let batch_us = record.wall_time_ns.unwrap_or(0) as f64 / 1e3;
                data.load_us.push(entry_us[index] - batch_us);
                for model in ["DDM", "CDM", "MIX"] {
                    let column: Vec<&ScenarioRecord> = record
                        .scenarios
                        .iter()
                        .filter(|s| s.model == model)
                        .collect();
                    data.simulate_us.push(
                        column
                            .iter()
                            .map(|s| s.wall_time_ns.unwrap_or(0) as f64 / 1e3)
                            .sum(),
                    );
                    if pass == 0 {
                        let events: u64 =
                            column.iter().map(|s| s.stats.events_processed as u64).sum();
                        data.columns
                            .push((model_index(model), column.len(), events));
                    }
                }
                data.events += record
                    .scenarios
                    .iter()
                    .map(|s| s.stats.events_processed as u64)
                    .sum::<u64>();
                data.ok_ops += record.scenarios.len() as u64;
            }
        }
        if data.counts == [0; 4] {
            data.counts = pass_counts(&records);
        }
        data.attempted += scenario_count;
        data.failed += check_pass(records, &golden, scenario_count);
        pass += 1;
    }
    data.peak_rss_mb = crate::util::peak_rss_mb(None);
    if traced {
        data.pass_layers = vec![
            (
                "sim.compiled.compile (CompiledCircuit::compile)",
                median(&compile_sums),
            ),
            (
                "corpus.entry.scenarios (CorpusEntry::scenarios)",
                median(&expand_sums),
            ),
            (
                "sim.batch.run_observed (BatchRunner::run_observed)",
                median(&batch_sums),
            ),
        ];
        data.traces.push(trace);
    }
    data
}

fn model_index(label: &str) -> usize {
    match label {
        "DDM" => 0,
        "CDM" => 1,
        _ => 2,
    }
}

/// Builds the entry record of one batch exactly as the corpus runner does.
fn entry_record<'a>(
    entry: &CorpusEntry,
    scenarios: &[halotis_sim::Scenario],
    outcomes: impl Iterator<Item = (&'a Result<SimulationStats, SimulationError>, &'a Bundle)>,
    wall_time: Duration,
) -> Option<EntryRecord> {
    let mut records = Vec::with_capacity(scenarios.len());
    for (scenario, (stats, observer)) in scenarios.iter().zip(outcomes) {
        let stats = stats.as_ref().ok()?;
        let ((_, power), (glitches, clock)) = observer;
        records.push(ScenarioRecord {
            label: scenario.label.clone(),
            model: scenario.config.model.label().to_string(),
            stats: *stats,
            events_per_cycle: entry
                .suite
                .cycles()
                .map(|cycles| stats.events_processed as f64 / cycles as f64),
            glitch_pulses: glitches.total_glitches(),
            energy_joules: power.total_joules(),
            wall_time_ns: clock.elapsed().map(|elapsed| elapsed.as_nanos()),
        });
    }
    Some(EntryRecord {
        name: entry.name.clone(),
        circuit: entry.netlist.name().to_string(),
        gates: entry.netlist.gate_count(),
        nets: entry.netlist.net_count(),
        suite: entry.suite.label(),
        scenarios: records,
        wall_time_ns: Some(wall_time.as_nanos()),
    })
}
