//! Value-change-dump (VCD) export.
//!
//! Writes [`IdealWaveform`] traces in the standard
//! IEEE 1364 VCD text format so simulation results can be inspected in any
//! waveform viewer (GTKWave, Surfer, ...).

use std::io::{self, Write};

use halotis_core::{LogicLevel, Time};

use crate::digital::IdealWaveform;
use crate::trace::Trace;

/// Timescale declared in the VCD header.  Femtoseconds keep full resolution.
const TIMESCALE: &str = "1 fs";

fn identifier(index: usize) -> String {
    // VCD identifiers are short printable-ASCII strings; base-94 encode.
    let mut n = index;
    let mut id = String::new();
    loop {
        id.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    id
}

fn level_char(level: LogicLevel) -> char {
    level.as_char()
}

/// Writes a VCD document for `trace` under the module name `scope`.
///
/// # Errors
///
/// Propagates any I/O error of the underlying writer.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_waveform::{vcd, IdealWaveform, Trace};
///
/// let mut trace = Trace::new();
/// trace.insert(
///     "s0",
///     IdealWaveform::from_changes(LogicLevel::Low, vec![(Time::from_ns(1.0), LogicLevel::High)]),
/// );
/// let mut out = Vec::new();
/// vcd::write(&mut out, "multiplier", &trace)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("$var wire 1"));
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write<W: Write>(mut out: W, scope: &str, trace: &Trace<IdealWaveform>) -> io::Result<()> {
    writeln!(out, "$date HALOTIS simulation $end")?;
    writeln!(out, "$version halotis-waveform $end")?;
    writeln!(out, "$timescale {TIMESCALE} $end")?;
    writeln!(out, "$scope module {scope} $end")?;
    let ids: Vec<String> = (0..trace.len()).map(identifier).collect();
    for ((name, _), id) in trace.iter().zip(&ids) {
        writeln!(out, "$var wire 1 {id} {name} $end")?;
    }
    writeln!(out, "$upscope $end")?;
    writeln!(out, "$enddefinitions $end")?;

    writeln!(out, "#0")?;
    writeln!(out, "$dumpvars")?;
    for ((_, waveform), id) in trace.iter().zip(&ids) {
        writeln!(out, "{}{id}", level_char(waveform.initial()))?;
    }
    writeln!(out, "$end")?;

    // Merge all change points in time order.
    let mut events: Vec<(Time, usize, LogicLevel)> = Vec::new();
    for (index, (_, waveform)) in trace.iter().enumerate() {
        for &(t, level) in waveform.changes() {
            events.push((t, index, level));
        }
    }
    events.sort_by_key(|&(t, index, _)| (t, index));

    let mut current_time = None;
    for (t, index, level) in events {
        if current_time != Some(t) {
            writeln!(out, "#{}", t.as_fs().max(0))?;
            current_time = Some(t);
        }
        writeln!(out, "{}{}", level_char(level), ids[index])?;
    }
    Ok(())
}

/// Renders the VCD document into a `String` (convenience wrapper over
/// [`write()`]).
pub fn to_string(scope: &str, trace: &Trace<IdealWaveform>) -> String {
    let mut buffer = Vec::new();
    write(&mut buffer, scope, trace).expect("writing to a Vec cannot fail");
    String::from_utf8(buffer).expect("VCD output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace<IdealWaveform> {
        let mut trace = Trace::new();
        trace.insert(
            "a",
            IdealWaveform::from_changes(
                LogicLevel::Low,
                vec![
                    (Time::from_ns(1.0), LogicLevel::High),
                    (Time::from_ns(2.0), LogicLevel::Low),
                ],
            ),
        );
        trace.insert(
            "b",
            IdealWaveform::from_changes(
                LogicLevel::Unknown,
                vec![(Time::from_ns(1.5), LogicLevel::High)],
            ),
        );
        trace
    }

    #[test]
    fn header_declares_all_signals() {
        let text = to_string("top", &sample_trace());
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$var wire 1 \" b $end"));
        assert!(text.contains("$timescale 1 fs $end"));
    }

    #[test]
    fn initial_values_are_dumped() {
        let text = to_string("top", &sample_trace());
        assert!(text.contains("$dumpvars"));
        assert!(text.contains("0!"));
        assert!(text.contains("x\""));
    }

    #[test]
    fn changes_appear_in_time_order() {
        let text = to_string("top", &sample_trace());
        let t1 = text.find("#1000000").expect("1 ns timestamp");
        let t15 = text.find("#1500000").expect("1.5 ns timestamp");
        let t2 = text.find("#2000000").expect("2 ns timestamp");
        assert!(t1 < t15 && t15 < t2);
    }

    #[test]
    fn identifiers_are_unique_for_many_signals() {
        let ids: Vec<String> = (0..200).map(identifier).collect();
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn empty_trace_still_produces_valid_header() {
        let trace: Trace<IdealWaveform> = Trace::new();
        let text = to_string("empty", &trace);
        assert!(text.contains("$enddefinitions $end"));
    }
}
