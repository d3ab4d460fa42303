//! The circuit graph: gates, nets and their connectivity.
//!
//! A [`Netlist`] is a flat, index-addressed combinational circuit.  Nets are
//! driven either by a primary input or by exactly one gate output, and fan
//! out to any number of gate input pins ([`PinRef`]).  The structure mirrors
//! the paper's Fig. 2 class diagram: the netlist owns the gates and their
//! input pins, and the simulator attaches transitions to nets and events to
//! pins.
//!
//! Netlists are created through [`NetlistBuilder`], which checks structural
//! well-formedness (single driver per net, correct gate arity, no
//! combinational loops, no primary input doubling as an output) before
//! releasing the immutable [`Netlist`].  The loop check is the
//! [`levelize`](crate::levelize) pass: one Kahn sort over gates and pins
//! serves the builder and the compiler.
//!
//! Each net's name is stored once, in its [`Net`].  The builder keys a
//! name map by those strings while it builds and moves each key into its
//! net in [`build`](NetlistBuilder::build); a finished netlist looks a net
//! up by name with a scan ([`Netlist::net_id`]), as it does a gate.

use std::collections::{HashMap, HashSet};
use std::fmt;

use halotis_core::{Capacitance, GateId, NetId, PinRef};

use crate::cell::CellKind;
use crate::library::{Library, LibraryError};

/// What drives a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDriver {
    /// The net is a primary input of the circuit.
    PrimaryInput,
    /// The net is driven by the output of this gate.
    Gate(GateId),
}

/// One gate instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub(crate) id: GateId,
    pub(crate) name: String,
    pub(crate) kind: CellKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
    pub(crate) threshold_overrides: Option<Vec<f64>>,
}

impl Gate {
    /// The gate's identifier.
    pub fn id(&self) -> GateId {
        self.id
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The nets connected to the input pins, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by the gate output.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Per-pin input-threshold overrides (fractions of `Vdd`), if any.
    ///
    /// Overrides let a specific *instance* deviate from the library
    /// characterisation — the mechanism used to build the paper's Fig. 1
    /// circuit, where two inverters on the same net have different `VT`.
    pub fn threshold_overrides(&self) -> Option<&[f64]> {
        self.threshold_overrides.as_deref()
    }
}

/// One net (signal).
#[derive(Clone, Debug, PartialEq)]
pub struct Net {
    pub(crate) id: NetId,
    pub(crate) name: String,
    pub(crate) driver: NetDriver,
    pub(crate) loads: Vec<PinRef>,
    pub(crate) is_primary_output: bool,
}

impl Net {
    /// The net's identifier.
    pub fn id(&self) -> NetId {
        self.id
    }

    /// The net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What drives the net.
    pub fn driver(&self) -> NetDriver {
        self.driver
    }

    /// The gate input pins this net fans out to.
    pub fn loads(&self) -> &[PinRef] {
        &self.loads
    }

    /// `true` when the net is a primary output of the circuit.
    pub fn is_primary_output(&self) -> bool {
        self.is_primary_output
    }

    /// `true` when the net is a primary input of the circuit.
    pub fn is_primary_input(&self) -> bool {
        matches!(self.driver, NetDriver::PrimaryInput)
    }
}

/// Returns `true` when the driver of `net` is a primary input — convenient
/// for distinguishing stimulus transitions from gate activity (e.g. when
/// attributing switching counts in tests and reports).
///
/// # Example
///
/// ```
/// use halotis_netlist::{generators, is_primary_input_net};
///
/// let netlist = generators::inverter_chain(2);
/// assert!(is_primary_input_net(&netlist, netlist.net_id("in").unwrap()));
/// assert!(!is_primary_input_net(&netlist, netlist.net_id("out").unwrap()));
/// ```
pub fn is_primary_input_net(netlist: &Netlist, net: NetId) -> bool {
    netlist.net(net).is_primary_input()
}

/// Errors detected while constructing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// Two nets were declared with the same name.
    DuplicateNet {
        /// The clashing name.
        name: String,
    },
    /// Two gate instances were given the same name.
    DuplicateGate {
        /// The clashing name.
        name: String,
    },
    /// A gate was connected with the wrong number of inputs.
    ArityMismatch {
        /// The gate instance name.
        gate: String,
        /// The cell kind.
        kind: CellKind,
        /// Inputs supplied.
        provided: usize,
    },
    /// A net already has a driver and a second one was connected.
    MultipleDrivers {
        /// The net name.
        net: String,
    },
    /// A net has loads (or is a primary output) but nothing drives it.
    UndrivenNet {
        /// The net name.
        net: String,
    },
    /// The circuit contains a combinational feedback loop.
    CombinationalLoop {
        /// The name of one gate on the loop.
        gate: String,
    },
    /// A per-instance threshold override list has the wrong length.
    ThresholdOverrideArity {
        /// The gate instance name.
        gate: String,
        /// Overrides supplied.
        provided: usize,
        /// Inputs of the cell.
        required: usize,
    },
    /// A gate whose output net still has loads (or is a primary output)
    /// cannot be removed — it would leave floating fanin pins.
    GateInUse {
        /// The gate instance name.
        gate: String,
    },
    /// A primary input cannot double as a primary output (the structural
    /// text format has no representation for a pass-through port).
    ExposedPrimaryInput {
        /// The net name.
        net: String,
    },
    /// A per-instance threshold override is not strictly inside `(0, 1)`:
    /// the pin would never see an event.
    ThresholdOutOfRange {
        /// The gate instance name.
        gate: String,
        /// The pin index.
        pin: usize,
        /// The offending fraction, as written by `f64`'s `Display`.
        fraction: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNet { name } => write!(f, "duplicate net name: {name}"),
            NetlistError::DuplicateGate { name } => write!(f, "duplicate gate name: {name}"),
            NetlistError::ArityMismatch {
                gate,
                kind,
                provided,
            } => write!(
                f,
                "gate {gate}: cell {kind} expects {} inputs, got {provided}",
                kind.input_count()
            ),
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net {net} is driven more than once")
            }
            NetlistError::UndrivenNet { net } => write!(f, "net {net} has no driver"),
            NetlistError::CombinationalLoop { gate } => {
                write!(f, "combinational loop through gate {gate}")
            }
            NetlistError::ThresholdOverrideArity {
                gate,
                provided,
                required,
            } => write!(
                f,
                "gate {gate}: {provided} threshold overrides for {required} inputs"
            ),
            NetlistError::GateInUse { gate } => {
                write!(f, "gate {gate} still drives fanout or a primary output")
            }
            NetlistError::ExposedPrimaryInput { net } => {
                write!(f, "primary input {net} cannot be exposed as an output")
            }
            NetlistError::ThresholdOutOfRange {
                gate,
                pin,
                fraction,
            } => write!(
                f,
                "gate {gate} pin {pin}: threshold override {fraction} outside (0, 1)"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}

/// An immutable, validated combinational circuit.
///
/// # Example
///
/// ```
/// use halotis_netlist::{CellKind, NetlistBuilder};
///
/// let mut builder = NetlistBuilder::new("half_adder");
/// let a = builder.add_input("a");
/// let b = builder.add_input("b");
/// let sum = builder.add_net("sum");
/// let carry = builder.add_net("carry");
/// builder.add_gate(CellKind::Xor2, "gx", &[a, b], sum)?;
/// builder.add_gate(CellKind::And2, "ga", &[a, b], carry)?;
/// builder.mark_output(sum);
/// builder.mark_output(carry);
/// let netlist = builder.build()?;
/// assert_eq!(netlist.gate_count(), 2);
/// assert_eq!(netlist.primary_inputs().len(), 2);
/// # Ok::<(), halotis_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) nets: Vec<Net>,
    pub(crate) primary_inputs: Vec<NetId>,
    pub(crate) primary_outputs: Vec<NetId>,
}

impl Netlist {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// All gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All nets, indexed by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a net by name, scanning the nets in id order.
    pub fn net_id(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .find(|net| net.name == name)
            .map(|net| net.id)
    }

    /// The primary-input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// The primary-output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The net connected to a gate input pin.
    pub fn pin_net(&self, pin: PinRef) -> NetId {
        self.gate(pin.gate()).inputs()[pin.input_index()]
    }

    /// The capacitive load seen by the driver of `net`: the sum of the input
    /// capacitances of every fanout pin plus the library's per-net wire
    /// capacitance.
    ///
    /// # Errors
    ///
    /// Returns a [`LibraryError`] if a fanout cell is not characterised.
    pub fn net_load(&self, net: NetId, library: &Library) -> Result<Capacitance, LibraryError> {
        let mut total = library.wire_capacitance();
        for pin in self.net(net).loads() {
            let kind = self.gate(pin.gate()).kind();
            total += library.pin(kind, pin.input_index())?.input_capacitance;
        }
        Ok(total)
    }

    /// The input-threshold fraction of a gate input pin: the per-instance
    /// override when present, otherwise the library characterisation.
    ///
    /// # Errors
    ///
    /// Returns a [`LibraryError`] if the cell is not characterised.
    pub fn input_threshold_fraction(
        &self,
        pin: PinRef,
        library: &Library,
    ) -> Result<f64, LibraryError> {
        let gate = self.gate(pin.gate());
        if let Some(overrides) = gate.threshold_overrides() {
            if let Some(&fraction) = overrides.get(pin.input_index()) {
                return Ok(fraction);
            }
        }
        Ok(library
            .pin(gate.kind(), pin.input_index())?
            .threshold_fraction)
    }

    /// Opens an edit session on this netlist — the mutation API of the ECO
    /// loop.  See [`EditSession`](crate::edit::EditSession) for the available
    /// operations; [`finish`](crate::edit::EditSession::finish) returns the
    /// [`EditLog`](crate::edit::EditLog) that
    /// `CompiledCircuit::apply_edits` consumes to patch its tables
    /// incrementally.
    pub fn begin_edit(&mut self) -> crate::edit::EditSession<'_> {
        crate::edit::EditSession::new(self)
    }

    /// Gate count per cell kind, sorted by kind — the circuit statistics
    /// reported by the experiment harness.
    pub fn gate_histogram(&self) -> Vec<(CellKind, usize)> {
        let mut histogram: HashMap<CellKind, usize> = HashMap::new();
        for gate in &self.gates {
            *histogram.entry(gate.kind()).or_insert(0) += 1;
        }
        let mut counts: Vec<(CellKind, usize)> = histogram.into_iter().collect();
        counts.sort_by_key(|&(kind, _)| kind);
        counts
    }
}

/// The driver of a net no gate output has been connected to yet; `build`
/// rejects a net still carrying it.
const UNDRIVEN: NetDriver = NetDriver::Gate(GateId::new(u32::MAX));

/// Incremental netlist constructor.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    /// The nets, each with an empty name until [`build`](Self::build)
    /// moves in its key from `names`.
    nets: Vec<Net>,
    /// The only copy of every net name while building.
    names: HashMap<String, NetId>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
}

impl NetlistBuilder {
    /// Starts building a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0, 0)
    }

    /// Starts building a circuit with room for `nets` nets and `gates`
    /// gates, as a parser knows from its input.
    pub(crate) fn with_capacity(name: impl Into<String>, nets: usize, gates: usize) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::with_capacity(gates),
            nets: Vec::with_capacity(nets),
            names: HashMap::with_capacity(nets),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    fn new_net(&mut self, name: String, driver: NetDriver) -> NetId {
        let id = NetId::from_usize(self.nets.len());
        self.nets.push(Net {
            id,
            name: String::new(),
            driver,
            loads: Vec::new(),
            is_primary_output: false,
        });
        self.names.insert(name, id);
        id
    }

    /// Declares a primary input and returns its net.
    ///
    /// Declaring the same input name twice returns the existing net.  The
    /// name is copied only for a new net.
    pub fn add_input(&mut self, name: impl AsRef<str> + Into<String>) -> NetId {
        if let Some(&id) = self.names.get(name.as_ref()) {
            return id;
        }
        let id = self.new_net(name.into(), NetDriver::PrimaryInput);
        self.primary_inputs.push(id);
        id
    }

    /// Declares (or retrieves) an internal net by name.  The net has no
    /// driver until a gate output is connected to it; the name is copied
    /// only for a new net.
    pub fn add_net(&mut self, name: impl AsRef<str> + Into<String>) -> NetId {
        if let Some(&id) = self.names.get(name.as_ref()) {
            return id;
        }
        // Undriven nets are rejected in `build`.
        self.new_net(name.into(), UNDRIVEN)
    }

    /// Makes each named net a primary input, creating the nets that do not
    /// exist yet, and orders the primary inputs by net id.  Called before
    /// any gate is added, while every net is still undriven or an input, so
    /// nets a parser pre-declared keep their numbers and become inputs in
    /// that order, followed by the new ones in `names` order.
    pub(crate) fn declare_inputs(&mut self, names: &[&str]) {
        debug_assert!(self.gates.is_empty(), "inputs are declared before gates");
        for &name in names {
            let id = self.add_net(name);
            let net = &mut self.nets[id.index()];
            if net.driver == UNDRIVEN {
                net.driver = NetDriver::PrimaryInput;
                self.primary_inputs.push(id);
            }
        }
        self.primary_inputs.sort_unstable();
    }

    /// The name of a net under construction (a scan of the name map, for
    /// error reports).
    fn net_name(&self, net: NetId) -> String {
        self.names
            .iter()
            .find(|&(_, &id)| id == net)
            .map(|(name, _)| name.clone())
            .unwrap_or_default()
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        let slot = &mut self.nets[net.index()];
        if !slot.is_primary_output {
            slot.is_primary_output = true;
            self.primary_outputs.push(net);
        }
    }

    /// Adds a gate instance.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] when the number of inputs does
    /// not match the cell, or [`NetlistError::MultipleDrivers`] when the
    /// output net is already driven.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        self.add_gate_inner(kind, name.into(), inputs, output, None)
    }

    /// Adds a gate instance with per-pin input-threshold overrides
    /// (fractions of `Vdd`).
    ///
    /// # Errors
    ///
    /// As [`add_gate`](Self::add_gate), plus
    /// [`NetlistError::ThresholdOverrideArity`] when the override list length
    /// does not match the cell's input count and
    /// [`NetlistError::ThresholdOutOfRange`] for an override not strictly
    /// inside `(0, 1)` (NaN included).
    pub fn add_gate_with_thresholds(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
        thresholds: &[f64],
    ) -> Result<GateId, NetlistError> {
        let name = name.into();
        if thresholds.len() != kind.input_count() {
            return Err(NetlistError::ThresholdOverrideArity {
                gate: name,
                provided: thresholds.len(),
                required: kind.input_count(),
            });
        }
        if let Some((pin, fraction)) = thresholds
            .iter()
            .enumerate()
            .find(|(_, fraction)| !(**fraction > 0.0 && **fraction < 1.0))
        {
            return Err(NetlistError::ThresholdOutOfRange {
                gate: name,
                pin,
                fraction: fraction.to_string(),
            });
        }
        self.add_gate_inner(kind, name, inputs, output, Some(thresholds.to_vec()))
    }

    fn add_gate_inner(
        &mut self,
        kind: CellKind,
        name: String,
        inputs: &[NetId],
        output: NetId,
        thresholds: Option<Vec<f64>>,
    ) -> Result<GateId, NetlistError> {
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::ArityMismatch {
                gate: name,
                kind,
                provided: inputs.len(),
            });
        }
        if self.nets[output.index()].driver != UNDRIVEN {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_name(output),
            });
        }
        let id = GateId::from_usize(self.gates.len());
        self.nets[output.index()].driver = NetDriver::Gate(id);
        for (index, &input) in inputs.iter().enumerate() {
            self.nets[input.index()]
                .loads
                .push(PinRef::new(id, index as u32));
        }
        self.gates.push(Gate {
            id,
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
            threshold_overrides: thresholds,
        });
        Ok(id)
    }

    /// Finalises the netlist.
    ///
    /// # Errors
    ///
    /// Returns, checked in this order, [`NetlistError::DuplicateGate`] when
    /// two gates share an instance name, [`NetlistError::UndrivenNet`] for
    /// nets that are used but never driven,
    /// [`NetlistError::CombinationalLoop`] when the gate graph has a
    /// register-free cycle, and [`NetlistError::ExposedPrimaryInput`] when a
    /// primary input is also marked as a primary output.
    pub fn build(mut self) -> Result<Netlist, NetlistError> {
        for (name, id) in self.names {
            self.nets[id.index()].name = name;
        }
        let mut gate_names = HashSet::with_capacity(self.gates.len());
        if let Some(gate) = self
            .gates
            .iter()
            .find(|gate| !gate_names.insert(gate.name.as_str()))
        {
            return Err(NetlistError::DuplicateGate {
                name: gate.name.clone(),
            });
        }
        if let Some(net) = self.nets.iter().find(|net| net.driver == UNDRIVEN) {
            return Err(NetlistError::UndrivenNet {
                net: net.name.clone(),
            });
        }
        let netlist = Netlist {
            name: self.name,
            gates: self.gates,
            nets: self.nets,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
        };
        crate::levelize::gate_levels(&netlist)?;
        if let Some(&net) = netlist
            .primary_outputs
            .iter()
            .find(|&&net| netlist.net(net).is_primary_input())
        {
            return Err(NetlistError::ExposedPrimaryInput {
                net: netlist.net(net).name.clone(),
            });
        }
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology;

    fn half_adder() -> Netlist {
        let mut builder = NetlistBuilder::new("half_adder");
        let a = builder.add_input("a");
        let b = builder.add_input("b");
        let sum = builder.add_net("sum");
        let carry = builder.add_net("carry");
        builder
            .add_gate(CellKind::Xor2, "gx", &[a, b], sum)
            .unwrap();
        builder
            .add_gate(CellKind::And2, "ga", &[a, b], carry)
            .unwrap();
        builder.mark_output(sum);
        builder.mark_output(carry);
        builder.build().unwrap()
    }

    #[test]
    fn builder_produces_connected_netlist() {
        let netlist = half_adder();
        assert_eq!(netlist.name(), "half_adder");
        assert_eq!(netlist.gate_count(), 2);
        assert_eq!(netlist.net_count(), 4);
        assert_eq!(netlist.primary_inputs().len(), 2);
        assert_eq!(netlist.primary_outputs().len(), 2);
        let a = netlist.net_id("a").unwrap();
        assert!(netlist.net(a).is_primary_input());
        assert_eq!(netlist.net(a).loads().len(), 2);
        let sum = netlist.net_id("sum").unwrap();
        assert!(netlist.net(sum).is_primary_output());
        match netlist.net(sum).driver() {
            NetDriver::Gate(id) => assert_eq!(netlist.gate(id).name(), "gx"),
            other => panic!("unexpected driver {other:?}"),
        }
    }

    #[test]
    fn pin_net_maps_back_to_input() {
        let netlist = half_adder();
        let gx = netlist
            .gates()
            .iter()
            .find(|g| g.name() == "gx")
            .unwrap()
            .id();
        let pin = PinRef::new(gx, 1);
        assert_eq!(netlist.pin_net(pin), netlist.net_id("b").unwrap());
    }

    #[test]
    fn net_load_sums_fanout_capacitances() {
        let netlist = half_adder();
        let library = technology::cmos06();
        let a = netlist.net_id("a").unwrap();
        let load = netlist.net_load(a, &library).unwrap();
        let expected = library.wire_capacitance()
            + library.pin(CellKind::Xor2, 0).unwrap().input_capacitance
            + library.pin(CellKind::And2, 0).unwrap().input_capacitance;
        assert!((load.as_femtofarads() - expected.as_femtofarads()).abs() < 1e-9);
        // An output net with no fanout only sees the wire capacitance.
        let sum = netlist.net_id("sum").unwrap();
        assert_eq!(
            netlist.net_load(sum, &library).unwrap(),
            library.wire_capacitance()
        );
    }

    #[test]
    fn bad_threshold_override_is_refused() {
        for fraction in [2.0, -1.0, f64::NAN, f64::INFINITY, 0.0, 1.0] {
            let mut builder = NetlistBuilder::new("bad_vt");
            let a = builder.add_input("a");
            let y = builder.add_net("y");
            let err = builder
                .add_gate_with_thresholds(CellKind::Nand2, "g", &[a, a], y, &[0.5, fraction])
                .unwrap_err();
            assert_eq!(
                err,
                NetlistError::ThresholdOutOfRange {
                    gate: "g".to_string(),
                    pin: 1,
                    fraction: fraction.to_string(),
                }
            );
            assert!(err.to_string().contains("outside (0, 1)"), "{err}");
        }
    }

    #[test]
    fn threshold_overrides_take_precedence() {
        let mut builder = NetlistBuilder::new("override");
        let a = builder.add_input("a");
        let y = builder.add_net("y");
        let z = builder.add_net("z");
        builder
            .add_gate_with_thresholds(CellKind::Inv, "low_vt", &[a], y, &[0.3])
            .unwrap();
        builder.add_gate(CellKind::Inv, "plain", &[y], z).unwrap();
        builder.mark_output(z);
        let netlist = builder.build().unwrap();
        let library = technology::cmos06();
        let low_vt = netlist
            .gates()
            .iter()
            .find(|g| g.name() == "low_vt")
            .unwrap()
            .id();
        let plain = netlist
            .gates()
            .iter()
            .find(|g| g.name() == "plain")
            .unwrap()
            .id();
        assert_eq!(
            netlist
                .input_threshold_fraction(PinRef::new(low_vt, 0), &library)
                .unwrap(),
            0.3
        );
        let default = library.pin(CellKind::Inv, 0).unwrap().threshold_fraction;
        assert_eq!(
            netlist
                .input_threshold_fraction(PinRef::new(plain, 0), &library)
                .unwrap(),
            default
        );
    }

    #[test]
    fn arity_and_driver_errors() {
        let mut builder = NetlistBuilder::new("bad");
        let a = builder.add_input("a");
        let y = builder.add_net("y");
        let err = builder.add_gate(CellKind::Nand2, "g", &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
        builder.add_gate(CellKind::Inv, "g1", &[a], y).unwrap();
        let err = builder.add_gate(CellKind::Inv, "g2", &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
        let err = builder.add_gate(CellKind::Inv, "g3", &[y], a).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
        let scratch = builder.add_net("scratch");
        let err = builder
            .add_gate_with_thresholds(CellKind::Nand2, "g4", &[a, y], scratch, &[0.5])
            .unwrap_err();
        assert!(matches!(err, NetlistError::ThresholdOverrideArity { .. }));
    }

    #[test]
    fn undriven_net_is_rejected() {
        let mut builder = NetlistBuilder::new("undriven");
        let a = builder.add_input("a");
        let floating = builder.add_net("floating");
        let y = builder.add_net("y");
        builder
            .add_gate(CellKind::And2, "g", &[a, floating], y)
            .unwrap();
        builder.mark_output(y);
        let err = builder.build().unwrap_err();
        assert_eq!(
            err,
            NetlistError::UndrivenNet {
                net: "floating".to_string()
            }
        );
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut builder = NetlistBuilder::new("loop");
        let a = builder.add_input("a");
        let x = builder.add_net("x");
        let y = builder.add_net("y");
        builder.add_gate(CellKind::Nand2, "g1", &[a, y], x).unwrap();
        builder.add_gate(CellKind::Inv, "g2", &[x], y).unwrap();
        let err = builder.build().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn exposed_primary_input_is_refused_after_the_other_checks() {
        let exposed = |with_loop: bool| {
            let mut builder = NetlistBuilder::new("pass_through");
            let a = builder.add_input("a");
            let x = builder.add_net("x");
            let y = builder.add_net("y");
            let feedback = if with_loop { y } else { a };
            builder
                .add_gate(CellKind::Nand2, "g1", &[a, feedback], x)
                .unwrap();
            builder.add_gate(CellKind::Inv, "g2", &[x], y).unwrap();
            builder.mark_output(a);
            builder.mark_output(y);
            builder.build().unwrap_err()
        };
        assert_eq!(
            exposed(false),
            NetlistError::ExposedPrimaryInput {
                net: "a".to_string()
            }
        );
        assert_eq!(
            exposed(true),
            NetlistError::CombinationalLoop {
                gate: "g1".to_string()
            }
        );
    }

    #[test]
    fn duplicate_declarations_are_idempotent() {
        let mut builder = NetlistBuilder::new("dup");
        let a1 = builder.add_input("a");
        let a2 = builder.add_input("a");
        assert_eq!(a1, a2);
        let n1 = builder.add_net("n");
        let n2 = builder.add_net("n");
        assert_eq!(n1, n2);
        builder.add_gate(CellKind::Inv, "g", &[a1], n1).unwrap();
        builder.mark_output(n1);
        builder.mark_output(n1); // second call is a no-op
        let netlist = builder.build().unwrap();
        assert_eq!(netlist.primary_outputs().len(), 1);
    }

    #[test]
    fn histogram_counts_cell_kinds() {
        let netlist = half_adder();
        let histogram = netlist.gate_histogram();
        assert_eq!(histogram, vec![(CellKind::And2, 1), (CellKind::Xor2, 1)]);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let messages = [
            NetlistError::DuplicateNet { name: "n".into() }.to_string(),
            NetlistError::DuplicateGate { name: "g".into() }.to_string(),
            NetlistError::UndrivenNet { net: "x".into() }.to_string(),
            NetlistError::CombinationalLoop { gate: "g".into() }.to_string(),
            NetlistError::MultipleDrivers { net: "y".into() }.to_string(),
        ];
        assert!(messages[0].contains("duplicate net"));
        assert_eq!(messages[1], "duplicate gate name: g");
        assert!(messages[2].contains("no driver"));
        assert!(messages[3].contains("loop"));
        assert!(messages[4].contains("driven more than once"));
    }
}
