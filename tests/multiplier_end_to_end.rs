//! End-to-end checks on the paper's evaluation vehicle: the 4×4 array
//! multiplier simulated with every engine in the workspace.

use halotis::analog::{AnalogConfig, AnalogSimulator};
use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::experiments::{
    figures67, multiplier_fixture, multiplier_stimulus, pulse_width, sequence_label, table1,
    MultiplierFixture, SEQUENCE_FIG6, SEQUENCE_FIG7,
};
use halotis::netlist::eval;
use halotis::sim::{classical, SimulationConfig, Simulator};

fn final_product(fixture: &MultiplierFixture, level_of: impl Fn(&str) -> LogicLevel) -> u64 {
    let mut product = 0u64;
    for (bit, name) in fixture.ports.s.iter().enumerate() {
        if level_of(name) == LogicLevel::High {
            product |= 1 << bit;
        }
    }
    product
}

#[test]
fn all_engines_settle_to_the_functional_product() {
    let fixture = multiplier_fixture();
    let pairs = [(0x3u64, 0x9u64), (0xC, 0xB), (0x6, 0x7)];
    let stimulus = multiplier_stimulus(&fixture.ports, &pairs);
    let expected = pairs.last().unwrap().0 * pairs.last().unwrap().1;

    let simulator = Simulator::new(&fixture.netlist, &fixture.library);
    let (ddm, cdm) = simulator
        .run_both_models(&stimulus, &SimulationConfig::default())
        .unwrap();
    assert_eq!(
        final_product(&fixture, |n| ddm.ideal_waveform(n).unwrap().final_level()),
        expected
    );
    assert_eq!(
        final_product(&fixture, |n| cdm.ideal_waveform(n).unwrap().final_level()),
        expected
    );

    let classical_result = classical::run(
        &fixture.netlist,
        &fixture.library,
        &stimulus,
        &SimulationConfig::cdm(),
    )
    .unwrap();
    assert_eq!(
        final_product(&fixture, |n| classical_result
            .ideal_waveform(n)
            .unwrap()
            .final_level()),
        expected
    );

    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(TimeDelta::from_ps(4.0))
                .with_end_time(Time::from_ns(20.0)),
        )
        .unwrap();
    assert_eq!(
        final_product(&fixture, |n| analog
            .ideal_waveform(n)
            .unwrap()
            .final_level()),
        expected
    );

    // The timing engines also agree with the zero-delay functional model.
    let mut assignment = Vec::new();
    for (position, name) in fixture.ports.a.iter().enumerate() {
        let net = fixture.netlist.net_id(name).unwrap();
        assignment.push((
            net,
            LogicLevel::from_bool((pairs[2].0 >> position) & 1 == 1),
        ));
    }
    for (position, name) in fixture.ports.b.iter().enumerate() {
        let net = fixture.netlist.net_id(name).unwrap();
        assignment.push((
            net,
            LogicLevel::from_bool((pairs[2].1 >> position) & 1 == 1),
        ));
    }
    let outputs: Vec<_> = fixture
        .ports
        .s
        .iter()
        .map(|n| fixture.netlist.net_id(n).unwrap())
        .collect();
    assert_eq!(
        eval::evaluate_bus(&fixture.netlist, &assignment, &outputs),
        Some(expected)
    );
}

/// The paper's numbers for one sequence, as `reproduce` prints them.
struct PaperNumbers {
    pairs: &'static [(u64, u64)],
    /// Table 1: scheduled events of DDM and CDM, then filtered events of
    /// DDM and CDM.
    events: [usize; 4],
    /// Figs. 6 and 7: output edges of the electrical reference, DDM and
    /// CDM.
    edges: [usize; 3],
}

const PAPER_NUMBERS: [PaperNumbers; 2] = [
    PaperNumbers {
        pairs: SEQUENCE_FIG6,
        events: [426, 585, 30, 19],
        edges: [34, 38, 74],
    },
    PaperNumbers {
        pairs: SEQUENCE_FIG7,
        events: [752, 924, 64, 36],
        edges: [56, 68, 112],
    },
];

#[test]
fn cdm_overestimates_activity_on_both_paper_sequences() {
    let fixture = multiplier_fixture();
    let simulator = Simulator::new(&fixture.netlist, &fixture.library);
    for numbers in PAPER_NUMBERS {
        let stimulus = multiplier_stimulus(&fixture.ports, numbers.pairs);
        let (ddm, cdm) = simulator
            .run_both_models(&stimulus, &SimulationConfig::default())
            .unwrap();
        let counted = [
            ddm.stats().events_scheduled,
            cdm.stats().events_scheduled,
            ddm.stats().events_filtered,
            cdm.stats().events_filtered,
        ];
        assert_eq!(counted, numbers.events);
        assert_eq!(
            [ddm.output_edge_count(), cdm.output_edge_count()],
            [numbers.edges[1], numbers.edges[2]]
        );
        // Final values are identical: the delay model changes timing, not
        // function.
        for name in &fixture.ports.s {
            assert_eq!(
                ddm.ideal_waveform(name).unwrap().final_level(),
                cdm.ideal_waveform(name).unwrap().final_level(),
                "mismatch on {name}"
            );
        }
    }
}

#[test]
fn ddm_tracks_the_analog_reference_better_than_cdm() {
    use halotis::waveform::compare::compare_traces;
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let simulator = Simulator::new(&fixture.netlist, &fixture.library);
    let (ddm, cdm) = simulator
        .run_both_models(&stimulus, &SimulationConfig::default())
        .unwrap();
    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(TimeDelta::from_ps(4.0))
                .with_end_time(Time::from_ns(25.0)),
        )
        .unwrap();
    let reference = analog.output_trace();
    let ddm_cmp = compare_traces(&reference, &ddm.output_trace(), TimeDelta::from_ns(1.0));
    let cdm_cmp = compare_traces(&reference, &cdm.output_trace(), TimeDelta::from_ns(1.0));
    assert!(ddm_cmp.final_levels_agree);
    // The DDM edge count stays closer to the reference than the CDM one.
    let ddm_excess = (ddm_cmp.test_edges as i64 - ddm_cmp.reference_edges as i64).abs();
    let cdm_excess = (cdm_cmp.test_edges as i64 - cdm_cmp.reference_edges as i64).abs();
    assert!(
        ddm_excess <= cdm_excess,
        "DDM excess {ddm_excess} vs CDM excess {cdm_excess}"
    );
}

#[test]
fn simulation_is_deterministic() {
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG7);
    let simulator = Simulator::new(&fixture.netlist, &fixture.library);
    let first = simulator.run(&stimulus, &SimulationConfig::ddm()).unwrap();
    let second = simulator.run(&stimulus, &SimulationConfig::ddm()).unwrap();
    assert_eq!(first.stats(), second.stats());
    for name in first.output_names() {
        assert_eq!(
            first.ideal_waveform(name).unwrap().changes(),
            second.ideal_waveform(name).unwrap().changes()
        );
    }
}

/// What `reproduce table1 fig6 fig7 pulsewidth` prints, CPU times aside:
/// a change that moves one of the paper's numbers fails here.
#[test]
fn the_reproduction_prints_the_pinned_numbers() {
    let rows = table1::table1();
    assert_eq!(rows.len(), PAPER_NUMBERS.len());
    for (row, numbers) in rows.iter().zip(PAPER_NUMBERS) {
        assert_eq!(row.sequence, sequence_label(numbers.pairs));
        let counted = [
            row.ddm.events_scheduled,
            row.cdm.events_scheduled,
            row.ddm.events_filtered,
            row.cdm.events_filtered,
        ];
        assert_eq!(counted, numbers.events, "{}", row.sequence);
    }

    for (figure, numbers) in [figures67::figure6(), figures67::figure7()]
        .iter()
        .zip(PAPER_NUMBERS)
    {
        let (ddm, cdm) = (figure.ddm_vs_analog(), figure.cdm_vs_analog());
        assert_eq!(ddm.reference_edges, cdm.reference_edges);
        assert_eq!(
            [ddm.reference_edges, ddm.test_edges, cdm.test_edges],
            numbers.edges,
            "{}",
            figure.label
        );
    }

    // Output pulse width per input width (ps, rounded as printed; `None`
    // is a filtered pulse): analog reference, DDM, CDM.
    type SweepRow = (i64, Option<i64>, Option<i64>, Option<i64>);
    const SWEEP: [SweepRow; 20] = [
        (100, None, None, Some(109)),
        (200, None, None, Some(209)),
        (300, None, None, Some(309)),
        (400, None, None, Some(409)),
        (500, None, Some(284), Some(509)),
        (600, Some(342), Some(502), Some(609)),
        (700, Some(540), Some(652), Some(709)),
        (800, Some(690), Some(777), Some(809)),
        (900, Some(826), Some(891), Some(909)),
        (1000, Some(943), Some(999), Some(1009)),
        (1100, Some(1056), Some(1103), Some(1109)),
        (1200, Some(1168), Some(1205), Some(1209)),
        (1300, Some(1268), Some(1307), Some(1309)),
        (1400, Some(1373), Some(1408), Some(1409)),
        (1500, Some(1479), Some(1508), Some(1509)),
        (1600, Some(1579), Some(1608), Some(1609)),
        (1700, Some(1679), Some(1709), Some(1709)),
        (1800, Some(1780), Some(1809), Some(1809)),
        (1900, Some(1880), Some(1909), Some(1909)),
        (2000, Some(1984), Some(2009), Some(2009)),
    ];
    let ps = |width: Option<TimeDelta>| width.map(|width| width.as_ps().round() as i64);
    let sweep = pulse_width::default_sweep();
    let printed: Vec<_> = sweep
        .points
        .iter()
        .map(|point| {
            (
                point.input_width.as_ps().round() as i64,
                ps(point.analog_output),
                ps(point.ddm_output),
                ps(point.cdm_output),
            )
        })
        .collect();
    assert_eq!(printed, SWEEP);
}
