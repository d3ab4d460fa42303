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

/// Incremental VCD emission: header once, then time-ordered value changes.
///
/// [`write()`] needs the whole trace up front; a writer that streams
/// results instead declares the signal set once and pushes
/// `(time, signal, level)` changes as they become final.  Changes must arrive in non-decreasing time order — the VCD format
/// has no way to rewind a timestamp ([`change`](StreamWriter::change)
/// enforces it).
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_waveform::vcd::StreamWriter;
///
/// let mut out = Vec::new();
/// let mut vcd = StreamWriter::new(&mut out, "top", &[("a", LogicLevel::Low)])?;
/// vcd.change(Time::from_ns(1.0), 0, LogicLevel::High)?;
/// vcd.change(Time::from_ns(2.0), 0, LogicLevel::Low)?;
/// drop(vcd);
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("$var wire 1 ! a $end"));
/// assert!(text.contains("#1000000"));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    out: W,
    ids: Vec<String>,
    current_time: Option<Time>,
}

impl<W: Write> StreamWriter<W> {
    /// Writes the VCD header for `signals` (name, initial level) under the
    /// module name `scope` and returns the writer ready for changes.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error of the underlying writer.
    pub fn new(mut out: W, scope: &str, signals: &[(&str, LogicLevel)]) -> io::Result<Self> {
        writeln!(out, "$date HALOTIS simulation $end")?;
        writeln!(out, "$version halotis-waveform $end")?;
        writeln!(out, "$timescale {TIMESCALE} $end")?;
        writeln!(out, "$scope module {scope} $end")?;
        let ids: Vec<String> = (0..signals.len()).map(identifier).collect();
        for (index, (name, _)) in signals.iter().enumerate() {
            writeln!(out, "$var wire 1 {} {} $end", ids[index], name)?;
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;

        writeln!(out, "#0")?;
        writeln!(out, "$dumpvars")?;
        for (index, (_, initial)) in signals.iter().enumerate() {
            writeln!(out, "{}{}", level_char(*initial), ids[index])?;
        }
        writeln!(out, "$end")?;
        Ok(StreamWriter {
            out,
            ids,
            current_time: None,
        })
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.ids.len()
    }

    /// Records one value change of signal `signal` (its index in the
    /// `signals` slice passed to [`new`](StreamWriter::new)) at `time`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics when `signal` is out of range or `time` precedes an already
    /// emitted timestamp (VCD documents are strictly forward in time).
    pub fn change(&mut self, time: Time, signal: usize, level: LogicLevel) -> io::Result<()> {
        if self.current_time != Some(time) {
            assert!(
                self.current_time.is_none_or(|current| time > current),
                "VCD timestamps must be non-decreasing: {time} after {}",
                self.current_time.expect("checked: current time exists"),
            );
            writeln!(self.out, "#{}", time.as_fs().max(0))?;
            self.current_time = Some(time);
        }
        writeln!(self.out, "{}{}", level_char(level), self.ids[signal])?;
        Ok(())
    }

    /// Consumes the writer, returning the underlying output.
    pub fn into_inner(self) -> W {
        self.out
    }
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
pub fn write<W: Write>(out: W, scope: &str, trace: &Trace<IdealWaveform>) -> io::Result<()> {
    let signals: Vec<(&str, LogicLevel)> = trace
        .iter()
        .map(|(name, waveform)| (name, waveform.initial()))
        .collect();
    let mut writer = StreamWriter::new(out, scope, &signals)?;

    // Merge all change points in time order.
    let mut events: Vec<(Time, usize, LogicLevel)> = Vec::new();
    for (index, (_, waveform)) in trace.iter().enumerate() {
        for &(t, level) in waveform.changes() {
            events.push((t, index, level));
        }
    }
    events.sort_by_key(|&(t, index, _)| (t, index));

    for (t, index, level) in events {
        writer.change(t, index, level)?;
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
