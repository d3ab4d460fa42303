//! Dense indexing of gate input pins.
//!
//! The HALOTIS queue keeps per-input state (the pending-event slot of
//! Fig. 4), so it needs a dense `0..pin_count` index for every
//! [`PinRef`] of the netlist.  [`PinMap`] provides that mapping via a prefix
//! sum over the gates' input counts.

use halotis_core::{GateId, PinRef};
use halotis_netlist::Netlist;

/// Dense pin indexing for one netlist.
///
/// # Example
///
/// ```
/// use halotis_core::PinRef;
/// use halotis_netlist::generators;
/// use halotis_sim::pins::PinMap;
///
/// let netlist = generators::c17();
/// let pins = PinMap::new(&netlist);
/// assert_eq!(pins.len(), 12); // six 2-input NAND gates
/// let first_gate = netlist.gates()[0].id();
/// assert_eq!(pins.index(PinRef::new(first_gate, 0)), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinMap {
    offsets: Vec<usize>,
    total: usize,
    /// Pin blocks freed by gate removal, as `(offset, count)` — reused by
    /// later allocations of the exact same size.  The arena never shrinks:
    /// dense indices of surviving pins stay stable across edits, which is
    /// what lets the compiled tables patch rows in place.
    free: Vec<(usize, usize)>,
}

impl PinMap {
    /// Builds the pin map of a netlist: one block per gate, in gate order.
    pub fn new(netlist: &Netlist) -> Self {
        let mut pins = PinMap {
            offsets: Vec::with_capacity(netlist.gate_count()),
            total: 0,
            free: Vec::new(),
        };
        for gate in netlist.gates() {
            pins.allocate_gate(gate.inputs().len());
        }
        pins
    }

    /// The pin arena size: every dense index is `< len()`.  After edits this
    /// may exceed the live pin count — freed blocks stay in the arena as
    /// holes awaiting reuse.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Assigns a pin block to a gate appended at the end of the gate id
    /// space, reusing a freed block of the exact size when one exists, and
    /// returns the block's first dense index.
    pub(crate) fn allocate_gate(&mut self, pin_count: usize) -> usize {
        let offset = match self.free.iter().position(|&(_, count)| count == pin_count) {
            Some(slot) => self.free.swap_remove(slot).0,
            None => {
                let offset = self.total;
                self.total += pin_count;
                offset
            }
        };
        self.offsets.push(offset);
        offset
    }

    /// Releases a gate's pin block (the block becomes a reusable hole) and
    /// mirrors the netlist's `swap_remove` renumbering: the last gate's
    /// offset entry moves into the freed slot.
    pub(crate) fn free_gate(&mut self, gate: GateId, pin_count: usize) {
        let offset = self.offsets[gate.index()];
        if pin_count > 0 {
            self.free.push((offset, pin_count));
        }
        self.offsets.swap_remove(gate.index());
    }

    /// `true` when the netlist has no gate input pins.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The dense index of a pin.
    pub fn index(&self, pin: PinRef) -> usize {
        self.offsets[pin.gate().index()] + pin.input_index()
    }

    /// The first dense index of a gate's pins (its pin block start).
    pub fn gate_offset(&self, gate: GateId) -> usize {
        self.offsets[gate.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_netlist::generators;

    #[test]
    fn indices_are_dense_and_unique() {
        let netlist = generators::multiplier(3, 3);
        let pins = PinMap::new(&netlist);
        let mut seen = vec![false; pins.len()];
        for gate in netlist.gates() {
            for input in 0..gate.inputs().len() {
                let index = pins.index(PinRef::new(gate.id(), input as u32));
                assert!(!seen[index], "index {index} assigned twice");
                seen[index] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn allocator_reuses_freed_blocks_of_matching_size() {
        let netlist = generators::c17();
        let mut pins = PinMap::new(&netlist);
        let arena = pins.len();
        let last = GateId::from_usize(netlist.gate_count() - 1);
        let freed_offset = pins.gate_offset(last);
        pins.free_gate(last, 2);
        // A same-size allocation reuses the hole; the arena does not grow.
        let offset = pins.allocate_gate(2);
        assert_eq!(offset, freed_offset);
        assert_eq!(pins.len(), arena);
        // A different-size allocation appends instead.
        let three = pins.allocate_gate(3);
        assert_eq!(three, arena);
        assert_eq!(pins.len(), arena + 3);
    }

    #[test]
    fn free_gate_follows_swap_remove_renumbering() {
        let netlist = generators::c17();
        let mut pins = PinMap::new(&netlist);
        let first = netlist.gates()[0].id();
        let last = netlist.gates()[netlist.gate_count() - 1].id();
        let last_offset = pins.gate_offset(last);
        pins.free_gate(first, 2);
        // The old last gate now answers under the freed gate's id.
        assert_eq!(pins.gate_offset(first), last_offset);
    }

    #[test]
    fn gate_offsets_are_prefix_sums() {
        let netlist = generators::c17();
        let pins = PinMap::new(&netlist);
        let mut expected = 0;
        for gate in netlist.gates() {
            assert_eq!(pins.gate_offset(gate.id()), expected);
            expected += gate.inputs().len();
        }
        assert_eq!(pins.len(), expected);
        assert!(!pins.is_empty());
    }
}
