//! The pluggable delay-model contract of the simulation engines.
//!
//! [`model::evaluate`](crate::model::evaluate()) covers the paper's two fixed
//! configurations (HALOTIS-DDM and HALOTIS-CDM) behind the
//! [`DelayModelKind`] enum.  The [`DelayModel`] trait extracts that
//! gate-evaluation contract — propagation delay and output slew from the
//! input slew, the load and the elapsed-time degradation state carried by a
//! [`DelayContext`] — so the engines can run *any* model:
//!
//! * [`Degradation`] / [`Conventional`] — the built-in kinds as trait
//!   implementations, numerically identical to the enum paths,
//! * [`PerCellOverride`] — a composite mixing models per cell class
//!   (e.g. degradation everywhere except the XOR family),
//! * anything downstream code implements itself, without touching engine
//!   internals.
//!
//! [`DelayModelHandle`] is the cheaply cloneable, shareable form the
//! simulation configuration carries; `DelayModelKind` converts into it, so
//! enum-based call sites migrate mechanically
//! (`config.model = DelayModelKind::Degradation.into()`).
//!
//! # Example: a custom model through the same contract
//!
//! ```
//! use halotis_core::{Capacitance, TimeDelta, Voltage};
//! use halotis_delay::{
//!     model, Conventional, DelayContext, DelayModel, DelayModelHandle, DelayModelKind,
//!     DelayOutcome, EdgeTiming,
//! };
//!
//! /// A pessimistic model: conventional timing, delays padded by 10 %.
//! #[derive(Debug)]
//! struct Padded;
//!
//! impl DelayModel for Padded {
//!     fn label(&self) -> &str {
//!         "CDM+10%"
//!     }
//!     fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
//!         let mut out = Conventional.evaluate(arc, ctx);
//!         out.delay = out.delay.scale(1.1);
//!         out
//!     }
//! }
//!
//! let arc = EdgeTiming::example();
//! let ctx = DelayContext {
//!     vdd: Voltage::from_volts(5.0),
//!     load: Capacitance::from_femtofarads(15.0),
//!     input_slew: TimeDelta::from_ps(150.0),
//!     time_since_last_output: None,
//!     cell_class: Default::default(),
//! };
//! let handle = DelayModelHandle::new(Padded);
//! let padded = handle.evaluate(&arc, &ctx);
//! let plain = model::evaluate(&arc, DelayModelKind::Conventional, &ctx);
//! assert!(padded.delay > plain.delay);
//! assert_eq!(handle.kind(), None); // not one of the built-ins
//! ```

use std::fmt;
use std::sync::Arc;

use crate::coeffs::EdgeTiming;
use crate::model::{self, CellClass, DelayContext, DelayModelKind, DelayOutcome};

/// The gate-evaluation contract: one timing arc in, one timed output
/// transition out.
///
/// Implementations must be deterministic — the engines rely on identical
/// inputs producing identical outcomes for run-to-run reproducibility (the
/// batch runner re-executes scenarios on arbitrary worker threads).
pub trait DelayModel: fmt::Debug + Send + Sync {
    /// Short label used in reports and statistics (the built-ins use the
    /// paper's `"DDM"` / `"CDM"` terminology).
    fn label(&self) -> &str;

    /// Evaluates one timing arc under this model.
    fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome;

    /// The built-in [`DelayModelKind`] this model is numerically identical
    /// to, or `None` for custom and composite models.  Engines use this for
    /// reporting and to devirtualise the hot loop: returning `Some(kind)`
    /// promises that `model::evaluate(arc, kind, ctx)` produces bit-identical
    /// outcomes to [`DelayModel::evaluate`], and engines may then bypass the
    /// trait object entirely.
    fn kind(&self) -> Option<DelayModelKind> {
        None
    }

    /// The built-in kind this model is numerically identical to **for one
    /// cell class**, with the same bit-identity promise as
    /// [`kind`](DelayModel::kind).  Composite models whose per-class members
    /// are built-ins override this so engines can resolve every gate to a
    /// direct built-in call at compile time even when the composite as a
    /// whole has no single kind.
    fn kind_for(&self, class: CellClass) -> Option<DelayModelKind> {
        let _ = class;
        self.kind()
    }
}

/// The inertial and degradation delay model (HALOTIS-DDM) as a trait
/// implementation — identical numerics to
/// [`DelayModelKind::Degradation`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degradation;

impl DelayModel for Degradation {
    fn label(&self) -> &str {
        DelayModelKind::Degradation.label()
    }

    fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
        model::evaluate(arc, DelayModelKind::Degradation, ctx)
    }

    fn kind(&self) -> Option<DelayModelKind> {
        Some(DelayModelKind::Degradation)
    }
}

/// The conventional delay model (HALOTIS-CDM) as a trait implementation —
/// identical numerics to [`DelayModelKind::Conventional`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conventional;

impl DelayModel for Conventional {
    fn label(&self) -> &str {
        DelayModelKind::Conventional.label()
    }

    fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
        model::evaluate(arc, DelayModelKind::Conventional, ctx)
    }

    fn kind(&self) -> Option<DelayModelKind> {
        Some(DelayModelKind::Conventional)
    }
}

/// A composite model: a default [`DelayModel`] plus per-cell-class
/// overrides.
///
/// The paper fits degradation coefficients per cell; a library bring-up
/// often has them for only part of the cell set.  `PerCellOverride` expresses
/// the natural in-between: degradation where characterised, the conventional
/// model elsewhere — or any other per-cell mix.
///
/// # Example
///
/// The netlist layer supplies the cell classes
/// (`halotis_netlist::CellKind::class()`); here two raw tags stand in:
///
/// ```
/// use halotis_delay::{CellClass, Conventional, Degradation, DelayModel, PerCellOverride};
///
/// // Degradation everywhere except two cell classes.
/// let mixed = PerCellOverride::new(Degradation)
///     .with(CellClass(6), Conventional)
///     .with(CellClass(7), Conventional);
/// assert_eq!(mixed.label(), "DDM+overrides");
/// assert!(mixed.kind().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct PerCellOverride {
    label: String,
    default: DelayModelHandle,
    overrides: Vec<(CellClass, DelayModelHandle)>,
}

impl PerCellOverride {
    /// A composite applying `default` to every cell class (until overrides
    /// are added with [`with`](PerCellOverride::with)).
    pub fn new(default: impl Into<DelayModelHandle>) -> Self {
        let default = default.into();
        PerCellOverride {
            label: format!("{}+overrides", default.label()),
            default,
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces) the model applied to one cell class.
    pub fn with(mut self, class: CellClass, model: impl Into<DelayModelHandle>) -> Self {
        let model = model.into();
        match self.overrides.iter_mut().find(|(c, _)| *c == class) {
            Some(slot) => slot.1 = model,
            None => self.overrides.push((class, model)),
        }
        self
    }

    /// Replaces the report label (defaults to `"<default>+overrides"`).
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The model the composite applies to `class`.
    pub fn model_for(&self, class: CellClass) -> &DelayModelHandle {
        self.overrides
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, m)| m)
            .unwrap_or(&self.default)
    }
}

impl DelayModel for PerCellOverride {
    fn label(&self) -> &str {
        &self.label
    }

    fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
        self.model_for(ctx.cell_class).evaluate(arc, ctx)
    }

    fn kind_for(&self, class: CellClass) -> Option<DelayModelKind> {
        self.model_for(class).kind()
    }
}

/// A cheaply cloneable, shareable handle to a [`DelayModel`].
///
/// This is the form the simulation configuration carries: cloning is an
/// atomic reference-count bump, so scenario sweeps duplicate configurations
/// freely without duplicating model state, and one composite model can be
/// shared by every worker of a batch run.
///
/// Equality is conservative: two handles compare equal when they share the
/// same instance (clones of one handle) or both report the same built-in
/// [`kind`](DelayModelHandle::kind).  Distinct instances of custom or
/// composite models never compare equal — the trait cannot see their
/// parameters, and two differently configured models sharing a label must
/// not be treated as the same configuration.
#[derive(Clone)]
pub struct DelayModelHandle(Arc<dyn DelayModel>);

impl DelayModelHandle {
    /// Wraps a model implementation.
    pub fn new(model: impl DelayModel + 'static) -> Self {
        DelayModelHandle(Arc::new(model))
    }

    /// The model's report label.
    pub fn label(&self) -> &str {
        self.0.label()
    }

    /// The built-in kind the model corresponds to, when exact.
    pub fn kind(&self) -> Option<DelayModelKind> {
        self.0.kind()
    }

    /// Evaluates one timing arc (see [`DelayModel::evaluate`]).
    pub fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
        self.0.evaluate(arc, ctx)
    }

    /// Borrows the underlying trait object.
    pub fn as_dyn(&self) -> &dyn DelayModel {
        &*self.0
    }
}

impl fmt::Debug for DelayModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DelayModelHandle")
            .field(&self.label())
            .finish()
    }
}

impl fmt::Display for DelayModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Default for DelayModelHandle {
    /// The paper's default configuration: the degradation model.
    fn default() -> Self {
        DelayModelKind::default().into()
    }
}

impl PartialEq for DelayModelHandle {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        match (self.kind(), other.kind()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialEq<DelayModelKind> for DelayModelHandle {
    fn eq(&self, other: &DelayModelKind) -> bool {
        self.kind() == Some(*other)
    }
}

impl From<DelayModelKind> for DelayModelHandle {
    fn from(kind: DelayModelKind) -> Self {
        match kind {
            DelayModelKind::Degradation => DelayModelHandle::new(Degradation),
            DelayModelKind::Conventional => DelayModelHandle::new(Conventional),
        }
    }
}

impl From<Arc<dyn DelayModel>> for DelayModelHandle {
    fn from(model: Arc<dyn DelayModel>) -> Self {
        DelayModelHandle(model)
    }
}

impl From<Degradation> for DelayModelHandle {
    fn from(model: Degradation) -> Self {
        DelayModelHandle::new(model)
    }
}

impl From<Conventional> for DelayModelHandle {
    fn from(model: Conventional) -> Self {
        DelayModelHandle::new(model)
    }
}

impl From<PerCellOverride> for DelayModelHandle {
    fn from(model: PerCellOverride) -> Self {
        DelayModelHandle::new(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::{Capacitance, TimeDelta, Voltage};
    use proptest::prelude::*;

    fn ctx(class: CellClass, elapsed_ps: Option<f64>) -> DelayContext {
        DelayContext {
            vdd: Voltage::from_volts(5.0),
            load: Capacitance::from_femtofarads(20.0),
            input_slew: TimeDelta::from_ps(150.0),
            time_since_last_output: elapsed_ps.map(TimeDelta::from_ps),
            cell_class: class,
        }
    }

    #[test]
    fn builtin_impls_mirror_the_enum_paths() {
        let arc = EdgeTiming::example();
        for elapsed in [None, Some(5.0), Some(50.0), Some(1e5)] {
            let ctx = ctx(CellClass::UNSPECIFIED, elapsed);
            assert_eq!(
                Degradation.evaluate(&arc, &ctx),
                model::evaluate(&arc, DelayModelKind::Degradation, &ctx)
            );
            assert_eq!(
                Conventional.evaluate(&arc, &ctx),
                model::evaluate(&arc, DelayModelKind::Conventional, &ctx)
            );
        }
        assert_eq!(Degradation.label(), "DDM");
        assert_eq!(Conventional.label(), "CDM");
        assert_eq!(Degradation.kind(), Some(DelayModelKind::Degradation));
        assert_eq!(Conventional.kind(), Some(DelayModelKind::Conventional));
    }

    #[test]
    fn per_cell_override_dispatches_on_the_cell_class() {
        let arc = EdgeTiming::example();
        let mixed = PerCellOverride::new(Degradation).with(CellClass(3), Conventional);
        let busy_default = ctx(CellClass(0), Some(20.0));
        let busy_override = ctx(CellClass(3), Some(20.0));
        assert_eq!(
            mixed.evaluate(&arc, &busy_default),
            Degradation.evaluate(&arc, &busy_default)
        );
        assert_eq!(
            mixed.evaluate(&arc, &busy_override),
            Conventional.evaluate(&arc, &busy_override)
        );
        // The two really differ for a recently active gate.
        assert_ne!(
            mixed.evaluate(&arc, &busy_default).delay,
            mixed.evaluate(&arc, &busy_override).delay
        );
        assert_eq!(mixed.label(), "DDM+overrides");
        assert_eq!(mixed.kind(), None);
    }

    #[test]
    fn per_cell_override_replaces_and_labels() {
        let mixed = PerCellOverride::new(Conventional)
            .with(CellClass(1), Degradation)
            .with(CellClass(1), Conventional)
            .labelled("custom-mix");
        assert_eq!(
            mixed.model_for(CellClass(1)).kind(),
            Some(DelayModelKind::Conventional)
        );
        assert_eq!(
            mixed.model_for(CellClass(9)).kind(),
            Some(DelayModelKind::Conventional)
        );
        assert_eq!(mixed.label(), "custom-mix");
    }

    #[test]
    fn handle_equality_is_by_kind_or_identity() {
        let a: DelayModelHandle = DelayModelKind::Degradation.into();
        let b = DelayModelHandle::new(Degradation);
        let c: DelayModelHandle = DelayModelKind::Conventional.into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, DelayModelKind::Degradation);
        assert_ne!(a, DelayModelKind::Conventional);
        let custom = DelayModelHandle::new(PerCellOverride::new(Degradation));
        assert_eq!(custom.clone(), custom);
        assert_ne!(custom, a);
        // Distinct custom instances never compare equal, even with the same
        // label: the handle cannot see their parameters.
        let same_label = DelayModelHandle::new(PerCellOverride::new(Degradation));
        assert_eq!(custom.label(), same_label.label());
        assert_ne!(custom, same_label);
        assert_eq!(DelayModelHandle::default(), DelayModelKind::Degradation);
        assert_eq!(format!("{custom}"), "DDM+overrides");
        assert!(format!("{custom:?}").contains("DDM+overrides"));
    }

    proptest! {
        #[test]
        fn prop_trait_and_enum_paths_are_bit_identical(
            elapsed in 0.0f64..1e5,
            load in 1.0f64..200.0,
            slew in 10.0f64..800.0,
        ) {
            let arc = EdgeTiming::example();
            let ctx = DelayContext {
                vdd: Voltage::from_volts(5.0),
                load: Capacitance::from_femtofarads(load),
                input_slew: TimeDelta::from_ps(slew),
                time_since_last_output: Some(TimeDelta::from_ps(elapsed)),
                cell_class: CellClass::default(),
            };
            for kind in DelayModelKind::both() {
                let handle: DelayModelHandle = kind.into();
                prop_assert_eq!(handle.evaluate(&arc, &ctx), model::evaluate(&arc, kind, &ctx));
            }
        }
    }
}
