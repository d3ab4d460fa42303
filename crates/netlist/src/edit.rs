//! In-place netlist mutation — the ECO (engineering change order) API.
//!
//! A [`Netlist`] is normally immutable once built; edit-heavy workloads
//! ("swap this gate, re-run these stimuli") would otherwise pay a full
//! rebuild per change.  [`Netlist::begin_edit`] opens an [`EditSession`]
//! whose operations mutate the netlist in place while recording a compact
//! [`EditLog`] — which gates and nets now carry stale derived data — so a
//! compiled simulator can re-derive only the affected cones instead of
//! recompiling the whole circuit.
//!
//! Every operation either applies completely or returns an error leaving the
//! netlist untouched, and the structural invariants the builder enforces
//! (single driver per net, matching arities, no combinational loops, no
//! floating nets) are preserved: the cheap preconditions are checked per
//! operation in every build, and the full invariant sweep runs in
//! [`finish`](EditSession::finish) under `debug_assertions`.
//!
//! # Example
//!
//! ```
//! use halotis_netlist::{generators, CellKind};
//!
//! let mut netlist = generators::c17();
//! let g = netlist.gates()[0].id();
//! let mut edit = netlist.begin_edit();
//! edit.swap_cell_kind(g, CellKind::Nor2).unwrap();
//! let log = edit.finish();
//! assert!(log.dirty_gates().contains(&g));
//! ```

use std::collections::{HashMap, HashSet};

use halotis_core::{GateId, NetId, PinRef};

use crate::cell::CellKind;
use crate::netlist::{Net, NetDriver, Netlist, NetlistError};

/// One structural shape change recorded by an [`EditSession`].
///
/// The ops are the *replay script* for derived-data holders (compiled
/// simulator tables, levelizations): replayed in order they reproduce every
/// index renumbering the session performed, after which the
/// [`dirty_gates`](EditLog::dirty_gates) / [`dirty_nets`](EditLog::dirty_nets)
/// sets (expressed in the final id space) say which rows must be re-derived
/// from the mutated netlist.  Operations that change no index layout
/// (kind swaps, rewires) appear only through the dirty sets, and
/// [`expose_net`](EditSession::expose_net) /
/// [`unexpose_net`](EditSession::unexpose_net) not at all: the primary-output
/// list lives only in the netlist, and holders read it from there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// A gate and its freshly created output net were appended at the end of
    /// their respective index spaces.
    GateAppended {
        /// Input-pin count of the appended gate.
        pin_count: u32,
    },
    /// The gate at `gate_index` and the net at `net_index` (its output) were
    /// removed by `swap_remove`: the then-last gate/net moved into the hole.
    GateRemoved {
        /// Index the removed gate held (and the moved gate now holds).
        gate_index: u32,
        /// Index the removed net held (and the moved net now holds).
        net_index: u32,
    },
}

/// The record of one edit session: the structural replay script plus the
/// sets of gates and nets whose derived data (loads, thresholds, timing
/// arcs, fanout tables, levels) is stale.  Ids are in the netlist's final
/// (post-session) id space, sorted and deduplicated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EditLog {
    ops: Vec<EditOp>,
    dirty_gates: Vec<GateId>,
    dirty_nets: Vec<NetId>,
    edits: usize,
}

impl EditLog {
    /// The structural shape changes, in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Gates whose derived per-gate/per-pin data must be re-derived, sorted.
    pub fn dirty_gates(&self) -> &[GateId] {
        &self.dirty_gates
    }

    /// Nets whose derived per-net data (load, fanout rows) must be
    /// re-derived, sorted.
    pub fn dirty_nets(&self) -> &[NetId] {
        &self.dirty_nets
    }

    /// Number of successful mutation calls the session performed.
    pub fn edits(&self) -> usize {
        self.edits
    }

    /// `true` when the session performed no successful mutation.
    pub fn is_empty(&self) -> bool {
        self.edits == 0
    }
}

/// An open mutation session on a [`Netlist`] (see [`Netlist::begin_edit`]).
///
/// | Operation | Effect |
/// |---|---|
/// | [`insert_gate`](Self::insert_gate) | append a gate driving a fresh net |
/// | [`remove_gate`](Self::remove_gate) | delete a fanout-free gate and its output net |
/// | [`swap_cell_kind`](Self::swap_cell_kind) | retype a gate (same arity) |
/// | [`rewire_input`](Self::rewire_input) | reconnect one input pin to another net |
/// | [`expose_net`](Self::expose_net) | mark a net as a primary output |
/// | [`unexpose_net`](Self::unexpose_net) | clear a net's primary-output mark |
///
/// Dropping the session without calling [`finish`](Self::finish) leaves the
/// netlist mutated but discards the log — derived structures can then only
/// recover via a full rebuild, so callers that hold compiled state should
/// always `finish`.
#[derive(Debug)]
pub struct EditSession<'a> {
    netlist: &'a mut Netlist,
    log: EditLog,
}

impl<'a> EditSession<'a> {
    pub(crate) fn new(netlist: &'a mut Netlist) -> Self {
        EditSession {
            netlist,
            log: EditLog::default(),
        }
    }

    /// The netlist under edit, for read-only inspection mid-session.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    fn touch_gate(&mut self, gate: GateId) {
        self.log.dirty_gates.push(gate);
    }

    fn touch_net(&mut self, net: NetId) {
        self.log.dirty_nets.push(net);
    }

    /// Dirties a net *and* its driving gate: whenever a net's fanout pin set
    /// changes, the driver's output load — and with it its pre-bound timing
    /// arcs — changes too.
    fn touch_net_and_driver(&mut self, net: NetId) {
        self.log.dirty_nets.push(net);
        if let NetDriver::Gate(driver) = self.netlist.nets[net.index()].driver {
            self.log.dirty_gates.push(driver);
        }
    }

    /// Appends a new gate whose output drives a freshly created net called
    /// `output_name`, and returns `(gate id, output net id)`.  Existing ids
    /// are unaffected.  The new net starts without loads; connect consumers
    /// with [`rewire_input`](Self::rewire_input) or expose it with
    /// [`expose_net`](Self::expose_net).
    ///
    /// # Errors
    ///
    /// [`NetlistError::ArityMismatch`] when `inputs` does not match the
    /// cell's input count, [`NetlistError::DuplicateGate`] when a gate is
    /// already called `name`, [`NetlistError::DuplicateNet`] when
    /// `output_name` is already taken.
    ///
    /// # Panics
    ///
    /// Panics if any input net id is out of range for this netlist.
    pub fn insert_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output_name: impl Into<String>,
    ) -> Result<(GateId, NetId), NetlistError> {
        let name = name.into();
        let output_name = output_name.into();
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::ArityMismatch {
                gate: name,
                kind,
                provided: inputs.len(),
            });
        }
        if self.netlist.gates.iter().any(|gate| gate.name == name) {
            return Err(NetlistError::DuplicateGate { name });
        }
        if self.netlist.net_id(&output_name).is_some() {
            return Err(NetlistError::DuplicateNet { name: output_name });
        }
        for &input in inputs {
            assert!(
                input.index() < self.netlist.nets.len(),
                "insert_gate: input net {input} out of range"
            );
        }

        let gate = GateId::from_usize(self.netlist.gates.len());
        let output = NetId::from_usize(self.netlist.nets.len());
        self.netlist.nets.push(Net {
            id: output,
            name: output_name,
            driver: NetDriver::Gate(gate),
            loads: Vec::new(),
            is_primary_output: false,
        });
        for (index, &input) in inputs.iter().enumerate() {
            self.netlist.nets[input.index()]
                .loads
                .push(PinRef::new(gate, index as u32));
        }
        self.netlist.gates.push(crate::netlist::Gate {
            id: gate,
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
            threshold_overrides: None,
        });

        self.log.ops.push(EditOp::GateAppended {
            pin_count: inputs.len() as u32,
        });
        self.touch_gate(gate);
        self.touch_net(output);
        for &input in inputs {
            self.touch_net_and_driver(input);
        }
        self.log.edits += 1;
        Ok((gate, output))
    }

    /// Removes a gate together with its output net.  The output net must be
    /// fanout-free and not a primary output (detach consumers first with
    /// [`rewire_input`](Self::rewire_input)).
    ///
    /// Removal renumbers by `swap_remove`: the last gate takes the removed
    /// gate's id and the last net the removed net's id.  Ids obtained before
    /// this call may therefore be stale afterwards; the returned pair
    /// `(moved_gate, moved_net)` names the gate/net that now occupies the
    /// freed id (`None` when the removed one was last).
    ///
    /// # Errors
    ///
    /// [`NetlistError::GateInUse`] when the output net has loads or is a
    /// primary output.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn remove_gate(
        &mut self,
        gate: GateId,
    ) -> Result<(Option<GateId>, Option<NetId>), NetlistError> {
        let g = gate.index();
        assert!(
            g < self.netlist.gates.len(),
            "remove_gate: {gate} out of range"
        );
        let output = self.netlist.gates[g].output;
        {
            let out_net = &self.netlist.nets[output.index()];
            if !out_net.loads.is_empty() || out_net.is_primary_output {
                return Err(NetlistError::GateInUse {
                    gate: self.netlist.gates[g].name.clone(),
                });
            }
        }

        let inputs = self.netlist.gates[g].inputs.clone();

        // Detach the gate's input pins; the input nets (and their drivers)
        // lose fanout load.
        for &input in &inputs {
            self.netlist.nets[input.index()]
                .loads
                .retain(|pin| pin.gate() != gate);
            self.touch_net_and_driver(input);
        }

        // Remove the output net, moving the then-last net into its slot.
        self.netlist.nets.swap_remove(output.index());
        let old_last_net = NetId::from_usize(self.netlist.nets.len());
        let moved_net = (output != old_last_net).then_some(output);
        if moved_net.is_some() {
            self.renumber_net(old_last_net, output);
        }

        // Remove the gate itself, moving the then-last gate into its slot.
        self.netlist.gates.swap_remove(g);
        let old_last_gate = GateId::from_usize(self.netlist.gates.len());
        let moved_gate = (gate != old_last_gate).then_some(gate);
        if moved_gate.is_some() {
            self.renumber_gate(old_last_gate, gate);
        }

        // Remap the ids already recorded in the dirty sets into the new id
        // space: references to the removed gate/net vanish, references to
        // the moved ones follow the move.
        self.log
            .dirty_gates
            .retain(|&g| g != gate || moved_gate.is_some());
        for slot in &mut self.log.dirty_gates {
            if *slot == old_last_gate {
                *slot = gate;
            }
        }
        self.log
            .dirty_nets
            .retain(|&n| n != output || moved_net.is_some());
        for slot in &mut self.log.dirty_nets {
            if *slot == old_last_net {
                *slot = output;
            }
        }

        self.log.ops.push(EditOp::GateRemoved {
            gate_index: gate.index() as u32,
            net_index: output.index() as u32,
        });
        self.log.edits += 1;
        Ok((moved_gate, moved_net))
    }

    /// Rewrites every reference to net `from` (the old last net) as `to`,
    /// after `nets.swap_remove(to)` moved it.  The dirty marks for the moved
    /// net's relocation are recorded here too.
    fn renumber_net(&mut self, from: NetId, to: NetId) {
        let netlist = &mut *self.netlist;
        let moved = &mut netlist.nets[to.index()];
        moved.id = to;
        let moved_loads = moved.loads.clone();
        let moved_driver = moved.driver;
        for list in [&mut netlist.primary_inputs, &mut netlist.primary_outputs] {
            for slot in list.iter_mut() {
                if *slot == from {
                    *slot = to;
                }
            }
        }
        // Gates reading the moved net: their input lists name it by id.
        for pin in &moved_loads {
            let slot = &mut netlist.gates[pin.gate().index()].inputs[pin.input_index()];
            debug_assert_eq!(*slot, from);
            *slot = to;
        }
        // The gate driving the moved net stores it as its output; that
        // gate's derived output-net reference is stale too.
        if let NetDriver::Gate(driver) = moved_driver {
            netlist.gates[driver.index()].output = to;
            self.touch_gate(driver);
        }
        self.touch_net(to);
    }

    /// Rewrites every reference to gate `from` (the old last gate) as `to`,
    /// after `gates.swap_remove(to)` moved it.
    fn renumber_gate(&mut self, from: GateId, to: GateId) {
        let netlist = &mut *self.netlist;
        let moved = &mut netlist.gates[to.index()];
        moved.id = to;
        let moved_inputs = moved.inputs.clone();
        let moved_output = moved.output;
        // The moved gate's pins appear in its input nets' load lists under
        // the old id.
        for (index, &input) in moved_inputs.iter().enumerate() {
            let old_pin = PinRef::new(from, index as u32);
            for pin in &mut netlist.nets[input.index()].loads {
                if *pin == old_pin {
                    *pin = PinRef::new(to, index as u32);
                }
            }
        }
        // The fanout rows of those nets embed the stale pin references.
        for &input in &moved_inputs {
            self.touch_net(input);
        }
        self.netlist.nets[moved_output.index()].driver = NetDriver::Gate(to);
        self.touch_gate(to);
    }

    /// Replaces a gate's cell kind with another of the same arity.  Any
    /// per-instance threshold overrides are kept (their length still
    /// matches).
    ///
    /// # Errors
    ///
    /// [`NetlistError::ArityMismatch`] when `kind` has a different input
    /// count than the gate's current cell,
    /// [`NetlistError::CombinationalLoop`] when a register whose output feeds
    /// back into its own inputs would become combinational.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn swap_cell_kind(&mut self, gate: GateId, kind: CellKind) -> Result<(), NetlistError> {
        let g = gate.index();
        assert!(
            g < self.netlist.gates.len(),
            "swap_cell_kind: {gate} out of range"
        );
        let current = &self.netlist.gates[g];
        if kind.input_count() != current.inputs.len() {
            return Err(NetlistError::ArityMismatch {
                gate: current.name.clone(),
                kind,
                provided: current.inputs.len(),
            });
        }
        if current.kind == kind {
            return Ok(());
        }
        // Register feedback is legal (see `rewire_input`) until the register
        // stops breaking the path.
        if current.kind.is_sequential()
            && !kind.is_sequential()
            && current
                .inputs
                .iter()
                .any(|&input| self.reaches(current.output, input))
        {
            return Err(NetlistError::CombinationalLoop {
                gate: current.name.clone(),
            });
        }
        let inputs = current.inputs.clone();
        self.netlist.gates[g].kind = kind;
        // The gate's own thresholds/timing change, and its input pins'
        // capacitances change the load (and pre-bound arcs) of every net
        // feeding it.
        self.touch_gate(gate);
        for &input in &inputs {
            self.touch_net_and_driver(input);
        }
        self.log.edits += 1;
        Ok(())
    }

    /// Reconnects input pin `input` of `gate` from its current net to `net`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalLoop`] when `net` lies in the gate's
    /// *combinational* transitive fanout cone (the rewire would close a
    /// register-free cycle).  Paths through sequential cells do not count:
    /// feeding a register's fanout — including its own output — back into
    /// its D pin is ordinary sequential feedback and succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `gate`, `input` or `net` is out of range.
    pub fn rewire_input(
        &mut self,
        gate: GateId,
        input: usize,
        net: NetId,
    ) -> Result<(), NetlistError> {
        let g = gate.index();
        assert!(
            g < self.netlist.gates.len(),
            "rewire_input: {gate} out of range"
        );
        assert!(
            input < self.netlist.gates[g].inputs.len(),
            "rewire_input: pin {input} out of range for {gate}"
        );
        assert!(
            net.index() < self.netlist.nets.len(),
            "rewire_input: net {net} out of range"
        );
        let old = self.netlist.gates[g].inputs[input];
        if old == net {
            return Ok(());
        }
        // A register's inputs never start a combinational path, so wiring
        // its own fanout (even its own output) back in is legal feedback.
        if !self.netlist.gates[g].kind.is_sequential()
            && self.reaches(self.netlist.gates[g].output, net)
        {
            return Err(NetlistError::CombinationalLoop {
                gate: self.netlist.gates[g].name.clone(),
            });
        }

        let pin = PinRef::new(gate, input as u32);
        let old_loads = &mut self.netlist.nets[old.index()].loads;
        let position = old_loads
            .iter()
            .position(|&p| p == pin)
            .expect("load lists mirror gate inputs");
        old_loads.remove(position);
        self.netlist.nets[net.index()].loads.push(pin);
        self.netlist.gates[g].inputs[input] = net;

        self.touch_net_and_driver(old);
        self.touch_net_and_driver(net);
        // The pin's threshold/timing are unchanged, but marking the gate is
        // cheap and keeps the invariant "every touched cone is rebuilt"
        // simple.
        self.touch_gate(gate);
        self.log.edits += 1;
        Ok(())
    }

    /// `true` when net `target` is *combinationally* reachable downstream
    /// from net `start` — the cone walk behind the rewire cycle check,
    /// bounded by the fanout cone instead of the whole netlist.  The walk
    /// stops at sequential gates: a path through a register is not a
    /// combinational cycle, so rewiring register feedback stays legal.
    fn reaches(&self, start: NetId, target: NetId) -> bool {
        if start == target {
            return true;
        }
        let mut visited = vec![false; self.netlist.gates.len()];
        let mut stack: Vec<NetId> = vec![start];
        while let Some(net) = stack.pop() {
            for pin in &self.netlist.nets[net.index()].loads {
                let gate = pin.gate().index();
                if visited[gate] {
                    continue;
                }
                visited[gate] = true;
                if self.netlist.gates[gate].kind.is_sequential() {
                    continue;
                }
                let output = self.netlist.gates[gate].output;
                if output == target {
                    return true;
                }
                stack.push(output);
            }
        }
        false
    }

    /// Marks `net` as an (additional) primary output.  Idempotent.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ExposedPrimaryInput`] when `net` is a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn expose_net(&mut self, net: NetId) -> Result<(), NetlistError> {
        assert!(
            net.index() < self.netlist.nets.len(),
            "expose_net: {net} out of range"
        );
        let slot = &self.netlist.nets[net.index()];
        if slot.is_primary_input() {
            return Err(NetlistError::ExposedPrimaryInput {
                net: slot.name.clone(),
            });
        }
        if slot.is_primary_output {
            return Ok(());
        }
        self.netlist.nets[net.index()].is_primary_output = true;
        self.netlist.primary_outputs.push(net);
        self.log.edits += 1;
        Ok(())
    }

    /// Clears a net's primary-output marking — the inverse of
    /// [`expose_net`](Self::expose_net).  Idempotent: un-exposing a net that
    /// is not a primary output is a successful no-op.  Primary inputs are
    /// never primary outputs (the builder refuses such a netlist and
    /// `expose_net` will not make one), so they always take the no-op path.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn unexpose_net(&mut self, net: NetId) -> Result<(), NetlistError> {
        assert!(
            net.index() < self.netlist.nets.len(),
            "unexpose_net: {net} out of range"
        );
        if !self.netlist.nets[net.index()].is_primary_output {
            return Ok(());
        }
        let position = self
            .netlist
            .primary_outputs
            .iter()
            .position(|&slot| slot == net)
            .expect("primary-output flag and list are in sync");
        self.netlist.nets[net.index()].is_primary_output = false;
        // `remove` keeps the remaining outputs in declaration order.
        self.netlist.primary_outputs.remove(position);
        self.log.edits += 1;
        Ok(())
    }

    /// Closes the session and returns the edit log.  Under
    /// `debug_assertions` the full structural invariant sweep runs here —
    /// referential integrity, single drivers, no floating nets, and
    /// acyclicity (via a fresh levelization).
    pub fn finish(self) -> EditLog {
        #[cfg(debug_assertions)]
        check_invariants(self.netlist);
        let mut log = self.log;
        log.dirty_gates.sort_unstable();
        log.dirty_gates.dedup();
        log.dirty_nets.sort_unstable();
        log.dirty_nets.dedup();
        debug_assert!(log
            .dirty_gates
            .last()
            .is_none_or(|g| g.index() < self.netlist.gates.len()));
        debug_assert!(log
            .dirty_nets
            .last()
            .is_none_or(|n| n.index() < self.netlist.nets.len()));
        log
    }
}

/// Full structural validation of a netlist — the post-edit counterpart of
/// the checks [`NetlistBuilder::build`](crate::NetlistBuilder::build)
/// performs, plus referential-integrity checks the builder guarantees by
/// construction.  Panics on the first violation; intended for debug builds
/// and tests.
pub fn check_invariants(netlist: &Netlist) {
    for (index, net) in netlist.nets.iter().enumerate() {
        assert_eq!(
            net.id.index(),
            index,
            "net id/slot mismatch for {}",
            net.name
        );
        match net.driver {
            NetDriver::PrimaryInput => {
                assert!(
                    netlist.primary_inputs.contains(&net.id),
                    "primary input {} missing from input list",
                    net.name
                );
                assert!(
                    !net.is_primary_output,
                    "primary input {} is also a primary output",
                    net.name
                );
            }
            NetDriver::Gate(gate) => {
                assert!(
                    gate.index() < netlist.gates.len(),
                    "net {} driven by ghost gate",
                    net.name
                );
                assert_eq!(
                    netlist.gates[gate.index()].output,
                    net.id,
                    "driver of {} does not drive it back",
                    net.name
                );
            }
        }
        assert_eq!(
            net.is_primary_output,
            netlist.primary_outputs.contains(&net.id),
            "primary-output flag out of sync on {}",
            net.name
        );
        for pin in &net.loads {
            assert!(
                pin.gate().index() < netlist.gates.len(),
                "load pin on ghost gate"
            );
            assert_eq!(
                netlist.gates[pin.gate().index()].inputs[pin.input_index()],
                net.id,
                "load {} of {} does not read it back",
                pin,
                net.name
            );
        }
    }
    let mut expected_loads: HashMap<NetId, Vec<PinRef>> = HashMap::new();
    let mut gate_names = HashSet::new();
    for (index, gate) in netlist.gates.iter().enumerate() {
        assert_eq!(
            gate.id.index(),
            index,
            "gate id/slot mismatch for {}",
            gate.name
        );
        assert!(
            gate_names.insert(gate.name.as_str()),
            "duplicate gate name {}",
            gate.name
        );
        assert_eq!(
            gate.inputs.len(),
            gate.kind.input_count(),
            "arity mismatch on {}",
            gate.name
        );
        if let Some(overrides) = &gate.threshold_overrides {
            assert_eq!(
                overrides.len(),
                gate.inputs.len(),
                "override arity on {}",
                gate.name
            );
        }
        assert!(
            gate.output.index() < netlist.nets.len(),
            "ghost output on {}",
            gate.name
        );
        for (pin, &input) in gate.inputs.iter().enumerate() {
            assert!(
                input.index() < netlist.nets.len(),
                "ghost input on {}",
                gate.name
            );
            expected_loads
                .entry(input)
                .or_default()
                .push(PinRef::new(gate.id, pin as u32));
        }
    }
    for net in &netlist.nets {
        let mut expected = expected_loads.remove(&net.id).unwrap_or_default();
        let mut actual = net.loads.clone();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(actual, expected, "load list out of sync on {}", net.name);
    }
    // Acyclicity — also exercises levelizability.
    assert!(
        crate::levelize::levelize(netlist).is_ok(),
        "combinational loop after edit session"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::technology;

    fn c17() -> Netlist {
        generators::c17()
    }

    #[test]
    fn swap_cell_kind_marks_gate_and_fanin_cone() {
        let mut netlist = c17();
        let g = netlist.gates()[2].id(); // g16 reads i2 and n11
        let inputs: Vec<NetId> = netlist.gate(g).inputs().to_vec();
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(g, CellKind::Nor2).unwrap();
        let log = edit.finish();
        assert_eq!(netlist.gate(g).kind(), CellKind::Nor2);
        assert!(log.dirty_gates().contains(&g));
        for input in inputs {
            assert!(log.dirty_nets().contains(&input));
        }
        assert_eq!(log.edits(), 1);
    }

    #[test]
    fn swap_to_same_kind_is_a_no_op() {
        let mut netlist = c17();
        let g = netlist.gates()[0].id();
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(g, CellKind::Nand2).unwrap();
        let log = edit.finish();
        assert!(log.is_empty());
    }

    #[test]
    fn swap_arity_mismatch_is_rejected() {
        let mut netlist = c17();
        let g = netlist.gates()[0].id();
        let mut edit = netlist.begin_edit();
        let err = edit.swap_cell_kind(g, CellKind::Inv).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
        assert!(edit.finish().is_empty());
    }

    #[test]
    fn insert_gate_appends_gate_and_net() {
        let mut netlist = c17();
        let gates_before = netlist.gate_count();
        let nets_before = netlist.net_count();
        let i1 = netlist.net_id("i1").unwrap();
        let i2 = netlist.net_id("i2").unwrap();
        let mut edit = netlist.begin_edit();
        let (gate, output) = edit
            .insert_gate(CellKind::Xor2, "gx", &[i1, i2], "xnet")
            .unwrap();
        edit.expose_net(output).unwrap();
        let log = edit.finish();
        assert_eq!(gate.index(), gates_before);
        assert_eq!(output.index(), nets_before);
        assert_eq!(netlist.gate_count(), gates_before + 1);
        assert_eq!(netlist.net_id("xnet"), Some(output));
        assert!(netlist.net(output).is_primary_output());
        assert!(log.dirty_gates().contains(&gate));
        assert!(log.dirty_nets().contains(&i1));
        // Exposing the new net records no op: outputs live in the netlist.
        assert_eq!(log.ops(), &[EditOp::GateAppended { pin_count: 2 }]);
    }

    #[test]
    fn insert_gate_duplicate_output_name_is_rejected() {
        let mut netlist = c17();
        let i1 = netlist.net_id("i1").unwrap();
        let mut edit = netlist.begin_edit();
        let err = edit
            .insert_gate(CellKind::Inv, "gi", &[i1], "n10")
            .unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateNet { .. }));
    }

    #[test]
    fn insert_gate_duplicate_gate_name_is_rejected() {
        let mut netlist = c17();
        let before = netlist.clone();
        let taken = netlist.gates()[0].name().to_string();
        let i1 = netlist.net_id("i1").unwrap();
        let mut edit = netlist.begin_edit();
        let err = edit
            .insert_gate(CellKind::Inv, taken.as_str(), &[i1], "fresh")
            .unwrap_err();
        assert_eq!(err, NetlistError::DuplicateGate { name: taken });
        assert!(edit.finish().is_empty());
        assert_eq!(netlist, before);
    }

    #[test]
    fn remove_gate_requires_fanout_free_output() {
        let mut netlist = c17();
        // n11 feeds g16 and g19 — its driver cannot go.
        let n11 = netlist.net_id("n11").unwrap();
        let NetDriver::Gate(driver) = netlist.net(n11).driver() else {
            panic!("n11 is gate-driven");
        };
        let mut edit = netlist.begin_edit();
        let err = edit.remove_gate(driver).unwrap_err();
        assert!(matches!(err, NetlistError::GateInUse { .. }));
        // Primary outputs are protected the same way.
        let o22 = netlist.net_id("o22").unwrap();
        let NetDriver::Gate(out_driver) = netlist.net(o22).driver() else {
            panic!("o22 is gate-driven");
        };
        let mut edit = netlist.begin_edit();
        let err = edit.remove_gate(out_driver).unwrap_err();
        assert!(matches!(err, NetlistError::GateInUse { .. }));
    }

    #[test]
    fn insert_then_remove_round_trips_the_structure() {
        let reference = c17();
        let mut netlist = c17();
        let i1 = netlist.net_id("i1").unwrap();
        let i2 = netlist.net_id("i2").unwrap();
        let mut edit = netlist.begin_edit();
        let (gate, _) = edit
            .insert_gate(CellKind::And2, "tmp", &[i1, i2], "tmpnet")
            .unwrap();
        edit.remove_gate(gate).unwrap();
        let log = edit.finish();
        assert_eq!(netlist, reference);
        assert_eq!(log.edits(), 2);
    }

    #[test]
    fn remove_gate_renumbers_the_moved_gate_consistently() {
        // Remove a middle gate of a larger circuit and check full integrity.
        let mut netlist = generators::random_logic(6, 40, 0xBEEF);
        // Find a removable gate (fanout-free, non-output) that is NOT last,
        // so the swap_remove path is exercised.
        let candidate = netlist
            .gates()
            .iter()
            .find(|gate| {
                let net = netlist.net(gate.output());
                net.loads().is_empty()
                    && !net.is_primary_output()
                    && gate.id().index() + 1 != netlist.gate_count()
            })
            .map(|gate| gate.id());
        let Some(candidate) = candidate else {
            // Expose nothing to remove? Make one: append then remove another.
            return;
        };
        let mut edit = netlist.begin_edit();
        let (moved_gate, _moved_net) = edit.remove_gate(candidate).unwrap();
        assert_eq!(moved_gate, Some(candidate));
        let log = edit.finish();
        check_invariants(&netlist);
        assert!(log.dirty_gates().contains(&candidate));
    }

    #[test]
    fn rewire_input_moves_the_load() {
        let mut netlist = c17();
        let g16 = netlist
            .gates()
            .iter()
            .find(|gate| gate.name() == "g16")
            .unwrap()
            .id();
        let i1 = netlist.net_id("i1").unwrap();
        let i2 = netlist.net_id("i2").unwrap();
        let mut edit = netlist.begin_edit();
        edit.rewire_input(g16, 0, i1).unwrap();
        let log = edit.finish();
        assert_eq!(netlist.gate(g16).inputs()[0], i1);
        assert!(netlist.net(i1).loads().contains(&PinRef::new(g16, 0)));
        assert!(!netlist
            .net(i2)
            .loads()
            .iter()
            .any(|p| p.gate() == g16 && p.input() == 0));
        assert!(log.dirty_nets().contains(&i1));
        assert!(log.dirty_nets().contains(&i2));
        check_invariants(&netlist);
    }

    #[test]
    fn rewire_detects_cycles() {
        let mut netlist = c17();
        // g10 drives n10 which feeds g22 (output o22).  Feeding o22 back
        // into g10 closes a loop.
        let g10 = netlist
            .gates()
            .iter()
            .find(|gate| gate.name() == "g10")
            .unwrap()
            .id();
        let o22 = netlist.net_id("o22").unwrap();
        let mut edit = netlist.begin_edit();
        let err = edit.rewire_input(g10, 0, o22).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
        // Self-loop: a gate reading its own output.
        let n10 = netlist.net_id("n10").unwrap();
        let mut edit = netlist.begin_edit();
        let err = edit.rewire_input(g10, 0, n10).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn swapping_a_fed_back_register_to_logic_is_rejected() {
        let mut netlist = c17();
        let i1 = netlist.net_id("i1").unwrap();
        let i2 = netlist.net_id("i2").unwrap();
        let mut edit = netlist.begin_edit();
        let (ff, q) = edit
            .insert_gate(CellKind::Dff, "ff", &[i1, i2], "q")
            .unwrap();
        let (_, qn) = edit.insert_gate(CellKind::Inv, "qinv", &[q], "qn").unwrap();
        // Feedback through the register is legal…
        edit.rewire_input(ff, 0, qn).unwrap();
        // …but making the register combinational would close the loop.
        let err = edit.swap_cell_kind(ff, CellKind::Nand2).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
        edit.swap_cell_kind(ff, CellKind::LatchD).unwrap();
        edit.finish();
        check_invariants(&netlist);
    }

    #[test]
    fn rewire_to_same_net_is_a_no_op() {
        let mut netlist = c17();
        let g = netlist.gates()[0].id();
        let current = netlist.gate(g).inputs()[0];
        let mut edit = netlist.begin_edit();
        edit.rewire_input(g, 0, current).unwrap();
        assert!(edit.finish().is_empty());
    }

    #[test]
    fn expose_net_is_idempotent_and_rejects_inputs() {
        let mut netlist = c17();
        let n10 = netlist.net_id("n10").unwrap();
        let i1 = netlist.net_id("i1").unwrap();
        let outputs_before = netlist.primary_outputs().len();
        let mut edit = netlist.begin_edit();
        edit.expose_net(n10).unwrap();
        edit.expose_net(n10).unwrap();
        let err = edit.expose_net(i1).unwrap_err();
        assert!(matches!(err, NetlistError::ExposedPrimaryInput { .. }));
        let log = edit.finish();
        assert_eq!(netlist.primary_outputs().len(), outputs_before + 1);
        assert_eq!(log.edits(), 1);
    }

    #[test]
    fn dirty_sets_are_sorted_and_deduplicated() {
        let mut netlist = c17();
        let a = netlist.gates()[0].id();
        let b = netlist.gates()[3].id();
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(b, CellKind::And2).unwrap();
        edit.swap_cell_kind(a, CellKind::Or2).unwrap();
        edit.swap_cell_kind(a, CellKind::Nor2).unwrap();
        let log = edit.finish();
        let mut sorted = log.dirty_gates().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(log.dirty_gates(), &sorted[..]);
    }

    #[test]
    fn edited_netlist_still_evaluates() {
        use halotis_core::LogicLevel;
        let mut netlist = c17();
        let g16 = netlist
            .gates()
            .iter()
            .find(|gate| gate.name() == "g16")
            .unwrap()
            .id();
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(g16, CellKind::And2).unwrap();
        edit.finish();
        let assignments: Vec<(NetId, LogicLevel)> = netlist
            .primary_inputs()
            .iter()
            .map(|&net| (net, LogicLevel::High))
            .collect();
        let levels = crate::eval::evaluate(&netlist, &assignments);
        assert_eq!(levels.len(), netlist.net_count());
        // And the library still characterises everything we swapped in.
        let library = technology::cmos06();
        for gate in netlist.gates() {
            for pin in 0..gate.inputs().len() {
                library.pin(gate.kind(), pin).unwrap();
            }
        }
    }
}
