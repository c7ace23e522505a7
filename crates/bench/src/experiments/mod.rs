//! Experiment implementations, grouped by the paper's sections.

pub mod adversity;
pub mod combine;
pub mod learning;
pub mod maintenance;
pub mod megasweep;
pub mod pool_lifecycle;
pub mod serve;
pub mod straggler;
pub mod tables;
pub mod trace;

/// Look up a catalog scenario by name. The error is the user-facing
/// message, with the hint that lists the valid names.
pub(crate) fn find_scenario(
    name: &str,
) -> Result<&'static clamshell_scenarios::ScenarioDef, String> {
    clamshell_scenarios::find(name)
        .ok_or_else(|| format!("unknown scenario: {name}; try --scenario list"))
}
