//! Topological levelization of a netlist.
//!
//! Level 0 gates depend only on primary inputs (or register outputs); level
//! `n` gates depend on at least one gate of level `n - 1`.  Levelization
//! gives the evaluation order used by the zero-delay functional checker and
//! bounds the logic depth reported in circuit statistics.
//!
//! Sequential cells break the dependency graph: a register is always a level
//! source (its output at any instant is stored state, not a function of its
//! inputs), so feedback *through* a register levelizes cleanly.  Only purely
//! combinational cycles are errors, and they are reported as
//! [`NetlistError::CombinationalLoop`] instead of panicking or looping
//! forever.
//!
//! [`levelize`] is one Kahn pass over the gates and their fanout pins.  The
//! same pass is the loop check of
//! [`NetlistBuilder::build`](crate::NetlistBuilder::build), so the builder
//! and the compiler sort the gate graph one way.

use halotis_core::GateId;

use crate::netlist::{NetDriver, Netlist, NetlistError};

/// The levelization result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Levelization {
    levels: Vec<Vec<GateId>>,
    gate_level: Vec<usize>,
}

impl Levelization {
    /// The gates of each level, level 0 first.
    pub fn levels(&self) -> &[Vec<GateId>] {
        &self.levels
    }

    /// The level of one gate.
    pub fn level_of(&self, gate: GateId) -> usize {
        self.gate_level[gate.index()]
    }

    /// The logic depth (number of levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// All gates in a valid topological evaluation order.
    pub fn topological_order(&self) -> impl Iterator<Item = GateId> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// Incrementally re-levelizes after an edit session, visiting only the
    /// affected cones instead of the whole netlist.
    ///
    /// The log's structural ops are replayed first so the id space matches
    /// the mutated netlist, then a worklist fixpoint of
    /// `level(g) = max(level of gate-driven fanin) + 1` runs outward from
    /// the dirty gates (sequential gates are pinned to level 0 and their
    /// outputs contribute nothing, exactly as in a fresh pass).  The result
    /// is identical to a fresh [`levelize`] of the mutated netlist —
    /// including within-level ordering, which both paths keep ascending by
    /// gate id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the edits introduced a
    /// register-free cycle: a computed level exceeding the gate count (the
    /// acyclic maximum) or a gate left unresolved once the worklist drains
    /// both prove one.  The edit API rejects cycle-forming rewires up front,
    /// so this is a defence-in-depth bound that replaces the former
    /// may-loop-forever-in-release behaviour.  On error the levelization is
    /// left inconsistent and must be rebuilt from scratch.
    pub fn update(
        &mut self,
        netlist: &Netlist,
        log: &crate::edit::EditLog,
    ) -> Result<(), NetlistError> {
        use crate::edit::EditOp;

        // Phase 1: replay the shape ops so gate ids line up again.  An
        // appended gate enters at the unresolved sentinel level; a removal
        // mirrors the session's `swap_remove` renumbering.
        for op in log.ops() {
            match op {
                EditOp::GateAppended { .. } => self.gate_level.push(usize::MAX),
                EditOp::GateRemoved { gate_index, .. } => {
                    let removed = *gate_index as usize;
                    let removed_level = self.gate_level[removed];
                    if removed_level != usize::MAX {
                        remove_sorted(&mut self.levels[removed_level], GateId::from_usize(removed));
                    }
                    self.gate_level.swap_remove(removed);
                    let old_last = self.gate_level.len();
                    if removed != old_last {
                        let moved_level = self.gate_level[removed];
                        if moved_level != usize::MAX {
                            let list = &mut self.levels[moved_level];
                            remove_sorted(list, GateId::from_usize(old_last));
                            insert_sorted(list, GateId::from_usize(removed));
                        }
                    }
                }
            }
        }

        // Phase 2: chaotic iteration from the dirty set.  A gate whose
        // driver is still unresolved is skipped — it is re-enqueued when
        // that driver resolves (resolution is always a level change).
        // The immediate fanout of every dirty gate is seeded too: a kind
        // swap across the sequential boundary changes how the gate's output
        // counts for its readers (register outputs are sources) without
        // necessarily changing the gate's own level, so waiting for a level
        // change would leave the fanout stale.
        let mut queue: Vec<GateId> = Vec::new();
        let mut queued = vec![false; netlist.gate_count()];
        for &gate in log.dirty_gates() {
            if !queued[gate.index()] {
                queued[gate.index()] = true;
                queue.push(gate);
            }
            for pin in netlist.net(netlist.gate(gate).output()).loads() {
                let fanout = pin.gate();
                if !queued[fanout.index()] {
                    queued[fanout.index()] = true;
                    queue.push(fanout);
                }
            }
        }
        while let Some(gate) = queue.pop() {
            queued[gate.index()] = false;
            let mut level = 0usize;
            let mut unresolved = false;
            if !netlist.gate(gate).kind().is_sequential() {
                for &input in netlist.gate(gate).inputs() {
                    if let NetDriver::Gate(driver) = netlist.net(input).driver() {
                        if netlist.gate(driver).kind().is_sequential() {
                            continue;
                        }
                        match self.gate_level[driver.index()] {
                            usize::MAX => {
                                unresolved = true;
                                break;
                            }
                            driver_level => level = level.max(driver_level + 1),
                        }
                    }
                }
            }
            if unresolved {
                continue;
            }
            if level >= netlist.gate_count() {
                // An acyclic graph cannot be deeper than its gate count:
                // a level past that bound proves the worklist is chasing a
                // combinational cycle.
                return Err(NetlistError::CombinationalLoop {
                    gate: netlist.gate(gate).name().to_string(),
                });
            }
            let old = self.gate_level[gate.index()];
            if old == level {
                continue;
            }
            if old != usize::MAX {
                remove_sorted(&mut self.levels[old], gate);
            }
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, Vec::new);
            }
            insert_sorted(&mut self.levels[level], gate);
            self.gate_level[gate.index()] = level;
            for pin in netlist.net(netlist.gate(gate).output()).loads() {
                let fanout = pin.gate();
                if !queued[fanout.index()] {
                    queued[fanout.index()] = true;
                    queue.push(fanout);
                }
            }
        }

        // Emptied levels can only occur at the tail: removals require a
        // fanout-free output, and rewires re-fill intermediate levels via
        // the worklist.
        while self.levels.last().is_some_and(|level| level.is_empty()) {
            self.levels.pop();
        }
        if let Some(stuck) = self
            .gate_level
            .iter()
            .position(|&level| level == usize::MAX)
        {
            // A gate the worklist could never resolve is waiting on itself
            // through a register-free cycle among the inserted gates.
            return Err(NetlistError::CombinationalLoop {
                gate: netlist.gate(GateId::from_usize(stuck)).name().to_string(),
            });
        }
        Ok(())
    }
}

/// Removes `gate` from an ascending-sorted level list.
fn remove_sorted(list: &mut Vec<GateId>, gate: GateId) {
    let index = list
        .binary_search(&gate)
        .expect("gate missing from its level list");
    list.remove(index);
}

/// Inserts `gate` into an ascending-sorted level list.
fn insert_sorted(list: &mut Vec<GateId>, gate: GateId) {
    let index = list
        .binary_search(&gate)
        .expect_err("gate already present in level list");
    list.insert(index, gate);
}

/// Levelizes a netlist.
///
/// Sequential gates (see [`CellKind::is_sequential`]) are level sources:
/// they sit at level 0 and their outputs satisfy a reader's readiness just
/// like a primary input, so register feedback loops levelize cleanly.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] (naming the lowest-indexed
/// gate the cycle leaves without a level) if the netlist contains a
/// register-free cycle.  [`NetlistBuilder`] runs this same pass, so every
/// built netlist levelizes; on a netlist mutated in place it is the checked
/// backstop.
///
/// [`NetlistBuilder`]: crate::NetlistBuilder
/// [`CellKind::is_sequential`]: crate::CellKind::is_sequential
///
/// # Example
///
/// ```
/// use halotis_netlist::{levelize, generators};
///
/// let chain = generators::inverter_chain(4);
/// let levels = levelize::levelize(&chain).expect("chains are acyclic");
/// assert_eq!(levels.depth(), 4);
/// ```
pub fn levelize(netlist: &Netlist) -> Result<Levelization, NetlistError> {
    let gate_level = gate_levels(netlist)?;
    let depth = gate_level.iter().max().map_or(0, |&level| level + 1);
    let mut sizes = vec![0usize; depth];
    for &level in &gate_level {
        sizes[level] += 1;
    }
    let mut levels: Vec<Vec<GateId>> = sizes.into_iter().map(Vec::with_capacity).collect();
    // Bucketing in id order keeps every level ascending by gate id.
    for (index, &level) in gate_level.iter().enumerate() {
        levels[level].push(GateId::from_usize(index));
    }
    Ok(Levelization { levels, gate_level })
}

/// Each gate's level, from one Kahn pass: a combinational gate waits on
/// every input pin another combinational gate drives, and takes one more
/// than the highest level among those drivers.  Registers wait on nothing
/// and release nothing, so they sit at level 0 and count as sources.
///
/// # Errors
///
/// [`NetlistError::CombinationalLoop`] naming the lowest-indexed gate left
/// waiting: one on a register-free cycle or behind one.
pub(crate) fn gate_levels(netlist: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let gates = netlist.gates();
    let is_register = |gate: GateId| gates[gate.index()].kind().is_sequential();
    let mut waiting: Vec<usize> = gates
        .iter()
        .map(|gate| {
            if gate.kind().is_sequential() {
                return 0;
            }
            gate.inputs()
                .iter()
                .filter(|&&net| match netlist.net(net).driver() {
                    NetDriver::Gate(driver) => !is_register(driver),
                    NetDriver::PrimaryInput => false,
                })
                .count()
        })
        .collect();
    let mut ready: Vec<GateId> = (0..gates.len())
        .filter(|&index| waiting[index] == 0)
        .map(GateId::from_usize)
        .collect();
    let mut gate_level = vec![0usize; gates.len()];
    let mut resolved = 0usize;
    while let Some(gate) = ready.pop() {
        resolved += 1;
        if is_register(gate) {
            continue;
        }
        let next = gate_level[gate.index()] + 1;
        for pin in netlist.net(gates[gate.index()].output()).loads() {
            let reader = pin.gate();
            if is_register(reader) {
                continue;
            }
            let r = reader.index();
            gate_level[r] = gate_level[r].max(next);
            waiting[r] -= 1;
            if waiting[r] == 0 {
                ready.push(reader);
            }
        }
    }
    if resolved != gates.len() {
        let culprit = waiting
            .iter()
            .position(|&count| count > 0)
            .expect("an unresolved gate still waits");
        return Err(NetlistError::CombinationalLoop {
            gate: gates[culprit].name().to_string(),
        });
    }
    Ok(gate_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::NetlistBuilder;

    fn diamond() -> Netlist {
        // a -> inv g1 -> x ; a -> inv g2 -> y ; (x, y) -> nand g3 -> out
        let mut builder = NetlistBuilder::new("diamond");
        let a = builder.add_input("a");
        let x = builder.add_net("x");
        let y = builder.add_net("y");
        let out = builder.add_net("out");
        builder.add_gate(CellKind::Inv, "g1", &[a], x).unwrap();
        builder.add_gate(CellKind::Inv, "g2", &[a], y).unwrap();
        builder
            .add_gate(CellKind::Nand2, "g3", &[x, y], out)
            .unwrap();
        builder.mark_output(out);
        builder.build().unwrap()
    }

    #[test]
    fn diamond_has_two_levels() {
        let netlist = diamond();
        let levels = levelize(&netlist).unwrap();
        assert_eq!(levels.depth(), 2);
        assert_eq!(levels.levels()[0].len(), 2);
        assert_eq!(levels.levels()[1].len(), 1);
        let g3 = netlist
            .gates()
            .iter()
            .find(|g| g.name() == "g3")
            .unwrap()
            .id();
        assert_eq!(levels.level_of(g3), 1);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let netlist = diamond();
        let levels = levelize(&netlist).unwrap();
        let order: Vec<GateId> = levels.topological_order().collect();
        assert_eq!(order.len(), netlist.gate_count());
        let position = |id: GateId| order.iter().position(|&g| g == id).unwrap();
        for gate in netlist.gates() {
            for &input in gate.inputs() {
                if let NetDriver::Gate(driver) = netlist.net(input).driver() {
                    assert!(position(driver) < position(gate.id()));
                }
            }
        }
    }

    #[test]
    fn incremental_update_matches_fresh_levelize() {
        let mut netlist = crate::generators::c17();
        let mut levels = levelize(&netlist).unwrap();

        // Insert a gate reading a mid-cone net, expose it, rewire, remove.
        let n11 = netlist.net_id("n11").unwrap();
        let i1 = netlist.net_id("i1").unwrap();
        let mut edit = netlist.begin_edit();
        let (gate, output) = edit
            .insert_gate(CellKind::Nand2, "extra", &[n11, i1], "extra_out")
            .unwrap();
        edit.expose_net(output).unwrap();
        let log = edit.finish();
        levels.update(&netlist, &log).unwrap();
        assert_eq!(levels, levelize(&netlist).unwrap());
        assert!(
            levels.level_of(gate) > 0,
            "grafted gate reads a gate-driven net"
        );

        // Rewiring the new gate fully onto primary inputs drops its level.
        let i2 = netlist.net_id("i2").unwrap();
        let mut edit = netlist.begin_edit();
        edit.rewire_input(gate, 0, i2).unwrap();
        let log = edit.finish();
        levels.update(&netlist, &log).unwrap();
        assert_eq!(levels, levelize(&netlist).unwrap());
        assert_eq!(levels.level_of(gate), 0);

        // Removal renumbers via swap_remove; update must follow.
        let mut netlist2 = netlist.clone();
        let mut edit = netlist2.begin_edit();
        // Cannot remove a primary output directly: first un-expose is not
        // supported, so remove a different fanout-free gate if one exists;
        // otherwise insert-and-remove to exercise the path.
        let (tmp, _) = edit
            .insert_gate(CellKind::Inv, "tmp", &[i1], "tmp_out")
            .unwrap();
        edit.remove_gate(tmp).unwrap();
        let log = edit.finish();
        let mut levels2 = levels.clone();
        levels2.update(&netlist2, &log).unwrap();
        assert_eq!(levels2, levelize(&netlist2).unwrap());
    }

    #[test]
    fn incremental_update_handles_random_edit_bursts() {
        let mut netlist = crate::generators::random_logic(8, 60, 0x5EED);
        let mut levels = levelize(&netlist).unwrap();
        let kinds = [CellKind::Nand2, CellKind::Nor2, CellKind::Xor2];
        for (round, kind) in kinds.into_iter().enumerate() {
            let mut edit = netlist.begin_edit();
            // Swap the kind of every fourth two-input gate.
            let targets: Vec<GateId> = edit
                .netlist()
                .gates()
                .iter()
                .filter(|gate| gate.inputs().len() == 2 && gate.id().index() % 4 == round)
                .map(|gate| gate.id())
                .collect();
            for target in targets {
                edit.swap_cell_kind(target, kind).unwrap();
            }
            // And graft a fresh gate deep into the cone.
            let feed = edit.netlist().gates()[round * 3].output();
            let pi = edit.netlist().primary_inputs()[round];
            edit.insert_gate(
                kind,
                format!("graft{round}"),
                &[feed, pi],
                format!("graft{round}_out"),
            )
            .unwrap();
            let log = edit.finish();
            levels.update(&netlist, &log).unwrap();
            assert_eq!(levels, levelize(&netlist).unwrap(), "round {round}");
        }
    }

    #[test]
    fn single_gate_circuit_has_depth_one() {
        let mut builder = NetlistBuilder::new("single");
        let a = builder.add_input("a");
        let y = builder.add_net("y");
        builder.add_gate(CellKind::Inv, "g", &[a], y).unwrap();
        builder.mark_output(y);
        let levels = levelize(&builder.build().unwrap()).unwrap();
        assert_eq!(levels.depth(), 1);
    }

    /// A DFF whose D input is fed from logic computed off its own Q output:
    /// the canonical sequential feedback loop (a toggle register).
    fn toggle_register() -> Netlist {
        let mut builder = NetlistBuilder::new("toggle");
        let ck = builder.add_input("ck");
        let q = builder.add_net("q");
        let nq = builder.add_net("nq");
        builder.add_gate(CellKind::Inv, "inv", &[q], nq).unwrap();
        builder.add_gate(CellKind::Dff, "ff", &[nq, ck], q).unwrap();
        builder.mark_output(q);
        builder.build().unwrap()
    }

    #[test]
    fn register_feedback_levelizes_with_the_register_as_source() {
        let netlist = toggle_register();
        let levels = levelize(&netlist).unwrap();
        let gate = |name: &str| {
            netlist
                .gates()
                .iter()
                .find(|g| g.name() == name)
                .unwrap()
                .id()
        };
        assert_eq!(levels.level_of(gate("ff")), 0);
        // The inverter reads the register's output, which counts as a
        // source, so it also sits at level 0.
        assert_eq!(levels.level_of(gate("inv")), 0);
        assert_eq!(levels.depth(), 1);
    }

    #[test]
    fn logic_behind_a_register_still_stacks_levels() {
        // ck, d -> dff -> q ; q -> inv -> a ; (a, q) -> nand -> out
        let mut builder = NetlistBuilder::new("behind");
        let ck = builder.add_input("ck");
        let d = builder.add_input("d");
        let q = builder.add_net("q");
        let a = builder.add_net("a");
        let out = builder.add_net("out");
        builder.add_gate(CellKind::Dff, "ff", &[d, ck], q).unwrap();
        builder.add_gate(CellKind::Inv, "g1", &[q], a).unwrap();
        builder
            .add_gate(CellKind::Nand2, "g2", &[a, q], out)
            .unwrap();
        builder.mark_output(out);
        let netlist = builder.build().unwrap();
        let levels = levelize(&netlist).unwrap();
        let gate = |name: &str| {
            netlist
                .gates()
                .iter()
                .find(|g| g.name() == name)
                .unwrap()
                .id()
        };
        assert_eq!(levels.level_of(gate("ff")), 0);
        assert_eq!(levels.level_of(gate("g1")), 0);
        assert_eq!(levels.level_of(gate("g2")), 1);
    }

    /// A kind swap across the sequential boundary can leave the swapped
    /// gate's own level unchanged while still changing its *readers'*
    /// levels (register outputs are sources).  The incremental pass must
    /// recompute the fanout even though no level on the dirty gate moved.
    #[test]
    fn incremental_update_follows_kind_swaps_across_the_sequential_boundary() {
        // a, b -> nand g1 -> x ; x -> inv g2 -> y
        let mut builder = NetlistBuilder::new("swap");
        let a = builder.add_input("a");
        let b = builder.add_input("b");
        let x = builder.add_net("x");
        let y = builder.add_net("y");
        builder.add_gate(CellKind::Nand2, "g1", &[a, b], x).unwrap();
        builder.add_gate(CellKind::Inv, "g2", &[x], y).unwrap();
        builder.mark_output(y);
        let mut netlist = builder.build().unwrap();
        let mut levels = levelize(&netlist).unwrap();
        let g1 = netlist.gates()[0].id();
        let g2 = netlist.gates()[1].id();
        assert_eq!((levels.level_of(g1), levels.level_of(g2)), (0, 1));

        // nand -> latch: g1 stays at level 0, but g2's driver is now a
        // register output, so g2 drops to level 0 as well.
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(g1, CellKind::LatchD).unwrap();
        let log = edit.finish();
        levels.update(&netlist, &log).unwrap();
        assert_eq!(levels, levelize(&netlist).unwrap());
        assert_eq!(levels.level_of(g2), 0);

        // And back: g2 must climb again.
        let mut edit = netlist.begin_edit();
        edit.swap_cell_kind(g1, CellKind::And2).unwrap();
        let log = edit.finish();
        levels.update(&netlist, &log).unwrap();
        assert_eq!(levels, levelize(&netlist).unwrap());
        assert_eq!(levels.level_of(g2), 1);
    }

    #[test]
    fn incremental_update_follows_sequential_inserts() {
        let mut netlist = toggle_register();
        let mut levels = levelize(&netlist).unwrap();
        let q = netlist.net_id("q").unwrap();
        let ck = netlist.net_id("ck").unwrap();
        let mut edit = netlist.begin_edit();
        let (_, shadow_q) = edit
            .insert_gate(CellKind::LatchD, "shadow", &[q, ck], "shadow_q")
            .unwrap();
        edit.expose_net(shadow_q).unwrap();
        let log = edit.finish();
        levels.update(&netlist, &log).unwrap();
        assert_eq!(levels, levelize(&netlist).unwrap());
    }
}
