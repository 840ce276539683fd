//! The area-power library: one technology node and one wire model.

use crate::{switch_area, switch_energy_per_bit, SwitchConfig, Technology, WireModel};

/// A per-technology area-power library — the paper's "area-power
/// libraries for various switch configurations for different technology
/// parameters". Each query evaluates the closed-form model for the
/// configuration it is given; nothing is stored between queries.
///
/// # Examples
///
/// ```
/// use sunmap_power::{switch_area, AreaPowerLibrary, SwitchConfig, Technology};
///
/// let lib = AreaPowerLibrary::new(Technology::um_0_10());
/// let cfg = SwitchConfig::symmetric(4);
/// assert_eq!(lib.area(cfg), switch_area(cfg, Technology::um_0_10()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AreaPowerLibrary {
    tech: Technology,
    wire: WireModel,
}

impl AreaPowerLibrary {
    /// Creates a library for the given technology with the default wire
    /// model.
    pub fn new(tech: Technology) -> Self {
        Self::with_wire_model(tech, WireModel::default())
    }

    /// Creates a library with an explicit wire model.
    pub fn with_wire_model(tech: Technology, wire: WireModel) -> Self {
        AreaPowerLibrary { tech, wire }
    }

    /// The library's technology node.
    pub fn technology(&self) -> Technology {
        self.tech
    }

    /// The library's wire model.
    pub fn wire_model(&self) -> WireModel {
        self.wire
    }

    /// Area of a switch configuration in mm².
    pub fn area(&self, cfg: SwitchConfig) -> f64 {
        switch_area(cfg, self.tech)
    }

    /// Bit-traversal energy of a switch configuration in joules.
    pub fn energy_per_bit(&self, cfg: SwitchConfig) -> f64 {
        switch_energy_per_bit(cfg, self.tech)
    }

    /// Power of a switch carrying `traffic_mbs` MB/s, in mW.
    pub fn switch_power(&self, cfg: SwitchConfig, traffic_mbs: f64) -> f64 {
        crate::switch_power(cfg, self.tech, traffic_mbs)
    }

    /// Power of a link of `length_mm` carrying `traffic_mbs` MB/s, in mW.
    pub fn link_power(&self, traffic_mbs: f64, length_mm: f64) -> f64 {
        crate::link_power(self.wire, self.tech, traffic_mbs, length_mm)
    }
}

/// Switch power (mW) from a precomputed bit-traversal energy: the one
/// switch-power formula. [`switch_power`](crate::switch_power) and
/// [`AreaPowerLibrary::switch_power`] evaluate it, and callers that
/// cache `energy_per_bit` (the mapping engine's fast path) call it
/// directly, so none can drift from another.
pub fn switch_power_from_energy(energy_per_bit: f64, traffic_mbs: f64) -> f64 {
    energy_per_bit * traffic_mbs * 8.0e6 * 1.0e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_power_matches_free_function() {
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let cfg = SwitchConfig::symmetric(5);
        let via_lib = lib.switch_power(cfg, 750.0);
        let direct = crate::switch_power(cfg, Technology::um_0_10(), 750.0);
        assert_eq!(via_lib, direct);
    }

    #[test]
    fn link_power_uses_configured_wire_model() {
        let hot_wire = WireModel {
            cap_per_mm: 0.8e-12,
            activity: 0.5,
        };
        let cold = AreaPowerLibrary::new(Technology::um_0_10());
        let hot = AreaPowerLibrary::with_wire_model(Technology::um_0_10(), hot_wire);
        assert!(hot.link_power(100.0, 1.0) > cold.link_power(100.0, 1.0));
    }
}
