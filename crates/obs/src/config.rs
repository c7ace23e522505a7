//! The observability switch carried on `RunConfig`.

/// Default flight-recorder capacity: large enough to hold every event of
/// a `--quick` scenario run, small enough that an enabled long run stays
/// bounded-memory (older events are dropped and counted, not lost
/// silently).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Observability configuration. `Default` is fully disabled: the runner
/// allocates no observer, records nothing, and — critically for the
/// reproducibility contract — draws zero extra RNG values, so enabling
/// or disabling observability can never perturb a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch for the registry + flight recorder.
    pub enabled: bool,
    /// Bounded capacity of the flight-recorder ring buffer.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: false, ring_capacity: DEFAULT_RING_CAPACITY }
    }
}

impl ObsConfig {
    /// Enabled with the default ring capacity.
    pub fn on() -> Self {
        ObsConfig { enabled: true, ..ObsConfig::default() }
    }

    /// Enabled with an explicit ring capacity.
    pub fn with_ring(ring_capacity: usize) -> Self {
        ObsConfig { enabled: true, ring_capacity }
    }

    pub fn validate(&self) {
        if self.enabled {
            assert!(self.ring_capacity >= 1, "obs ring capacity must be >= 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.ring_capacity, DEFAULT_RING_CAPACITY);
        cfg.validate();
    }

    #[test]
    fn on_enables_with_default_ring() {
        let cfg = ObsConfig::on();
        assert!(cfg.enabled);
        assert_eq!(cfg.ring_capacity, DEFAULT_RING_CAPACITY);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_ring_rejected_when_enabled() {
        ObsConfig::with_ring(0).validate();
    }
}
