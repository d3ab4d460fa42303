//! Simulation configuration.

use halotis_core::Time;
use halotis_delay::{DelayModelHandle, DelayModelKind};

/// Knobs controlling one simulation run.
///
/// The configuration is built combinator-style: start from a preset
/// ([`ddm`](SimulationConfig::ddm), [`cdm`](SimulationConfig::cdm) or
/// [`default`](SimulationConfig::default)) and chain `with_*` /
/// [`model`](SimulationConfig::model) calls.  Cloning is cheap — the delay
/// model is held behind a shared [`DelayModelHandle`].
///
/// # Example
///
/// ```
/// use halotis_delay::{Conventional, DelayModelHandle, DelayModelKind, PerCellOverride};
/// use halotis_sim::SimulationConfig;
///
/// let config = SimulationConfig::ddm();
/// assert_eq!(config.model, DelayModelKind::Degradation);
///
/// let cdm = SimulationConfig::cdm();
/// assert_eq!(cdm.model, DelayModelKind::Conventional);
///
/// // Any `DelayModel` implementation plugs in through the same knob.
/// let mixed = SimulationConfig::default()
///     .model(DelayModelHandle::new(PerCellOverride::new(Conventional)));
/// assert_eq!(mixed.model.label(), "CDM+overrides");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationConfig {
    /// The delay model the engine applies to every gate evaluation.  The
    /// paper's HALOTIS-DDM / HALOTIS-CDM configurations are the two built-in
    /// handles; any [`DelayModel`](halotis_delay::DelayModel) implementation
    /// can be plugged in.
    pub model: DelayModelHandle,
    /// Hard stop: no event later than this instant is processed.  `None`
    /// lets the simulation run until the event queue drains.
    pub time_limit: Option<Time>,
    /// Safety valve against runaway event storms (e.g. a mis-characterised
    /// library producing zero-delay oscillation).  The run fails with
    /// [`SimulationError::EventBudgetExhausted`] when exceeded.
    ///
    /// [`SimulationError::EventBudgetExhausted`]: crate::SimulationError::EventBudgetExhausted
    pub max_events: usize,
}

impl SimulationConfig {
    /// Configuration using the degradation delay model (HALOTIS-DDM).
    pub fn ddm() -> Self {
        Self::default().model(DelayModelKind::Degradation)
    }

    /// Configuration using the conventional delay model (HALOTIS-CDM).
    pub fn cdm() -> Self {
        Self::default().model(DelayModelKind::Conventional)
    }

    /// Replaces the delay model.
    ///
    /// Accepts anything convertible into a [`DelayModelHandle`]: a
    /// [`DelayModelKind`], the built-in model structs, a composite, or a
    /// handle wrapping a custom implementation.
    pub fn model(mut self, model: impl Into<DelayModelHandle>) -> Self {
        self.model = model.into();
        self
    }

    /// Replaces the event budget.
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Replaces the time limit.
    pub fn with_time_limit(mut self, limit: Time) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            model: DelayModelHandle::default(),
            time_limit: None,
            max_events: 10_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_delay::{Conventional, Degradation, DelayModelHandle};

    #[test]
    fn presets_select_the_right_model() {
        assert_eq!(SimulationConfig::ddm().model, DelayModelKind::Degradation);
        assert_eq!(SimulationConfig::cdm().model, DelayModelKind::Conventional);
        assert_eq!(
            SimulationConfig::default().model,
            DelayModelKind::Degradation
        );
    }

    #[test]
    fn model_combinator_accepts_kinds_structs_and_handles() {
        let from_kind = SimulationConfig::default().model(DelayModelKind::Conventional);
        let from_struct = SimulationConfig::default().model(Conventional);
        let from_handle = SimulationConfig::default().model(DelayModelHandle::new(Conventional));
        assert_eq!(from_kind, from_struct);
        assert_eq!(from_struct, from_handle);
        assert_ne!(from_kind, SimulationConfig::default().model(Degradation));
    }

    #[test]
    fn builder_style_updates() {
        let config = SimulationConfig::ddm()
            .with_max_events(100)
            .with_time_limit(Time::from_ns(50.0));
        assert_eq!(config.max_events, 100);
        assert_eq!(config.time_limit, Some(Time::from_ns(50.0)));
        // Combinators preserve the model.
        assert_eq!(config.model, DelayModelKind::Degradation);
    }
}
