//! Area and power models for SUNMAP (paper §5).
//!
//! The paper develops analytical area models for ×pipes-style switches
//! (crossbar + buffers + control logic + pipeline registers), bit-energy
//! models in the style of the ORION tool, and link power from the wiring
//! parameters of Ho, Mai & Horowitz ("The Future of Wires"). This crate
//! re-implements those three model families with constants calibrated to
//! 0.1 µm technology so that the paper's *relative* results hold:
//! switch power dominates link power, and both area and energy grow
//! superlinearly with switch port count.
//!
//! * [`SwitchConfig`] describes one switch instance (ports, flit width,
//!   buffering, pipelining).
//! * [`switch_area`] / [`switch_energy_per_bit`] are the analytical
//!   models.
//! * [`WireModel`] gives per-millimetre link energy.
//! * [`AreaPowerLibrary`] bundles a technology node with a wire model
//!   and evaluates the models per configuration, playing the role of
//!   the paper's pre-generated "area-power libraries for various switch
//!   configurations".
//!
//! # Examples
//!
//! ```
//! use sunmap_power::{AreaPowerLibrary, SwitchConfig, Technology};
//!
//! let lib = AreaPowerLibrary::new(Technology::um_0_10());
//! let five_by_five = SwitchConfig::symmetric(5);
//! let four_by_four = SwitchConfig::symmetric(4);
//! // Bigger switches cost more area and more energy per bit.
//! assert!(lib.area(five_by_five) > lib.area(four_by_four));
//! assert!(lib.energy_per_bit(five_by_five) > lib.energy_per_bit(four_by_four));
//! ```

mod library;
mod switch;
mod wire;

pub use library::{switch_power_from_energy, AreaPowerLibrary};
pub use switch::{switch_area, switch_energy_per_bit, switch_power, SwitchConfig};
pub use wire::{link_power, WireModel};

/// Process technology parameters. The paper's experiments assume 0.1 µm
/// technology; other nodes scale area quadratically and energy roughly
/// linearly with feature size (at constant voltage) times `V²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Feature size in micrometres.
    pub feature_um: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Operating frequency in MHz (used for leakage-free dynamic-power
    /// conversions where a clock is needed).
    pub frequency_mhz: f64,
}

impl Technology {
    /// The paper's 0.1 µm operating point.
    pub fn um_0_10() -> Self {
        Technology {
            feature_um: 0.10,
            voltage: 1.2,
            frequency_mhz: 1000.0,
        }
    }

    /// A 0.18 µm operating point (the ORION reference node), for
    /// technology-scaling studies.
    pub fn um_0_18() -> Self {
        Technology {
            feature_um: 0.18,
            voltage: 1.8,
            frequency_mhz: 500.0,
        }
    }

    /// Linear feature-size scale factor relative to the calibration node
    /// (0.1 µm).
    pub fn length_scale(&self) -> f64 {
        self.feature_um / 0.10
    }

    /// Area scale factor relative to the calibration node.
    pub fn area_scale(&self) -> f64 {
        self.length_scale() * self.length_scale()
    }

    /// Dynamic-energy scale factor relative to the calibration node:
    /// capacitance scales with feature size, energy with `C·V²`.
    pub fn energy_scale(&self) -> f64 {
        self.length_scale() * (self.voltage / 1.2) * (self.voltage / 1.2)
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::um_0_10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_node() {
        let t = Technology::default();
        assert_eq!(t.feature_um, 0.10);
        assert_eq!(t.area_scale(), 1.0);
        assert_eq!(t.energy_scale(), 1.0);
    }

    #[test]
    fn coarser_node_scales_up() {
        let t = Technology::um_0_18();
        assert!(t.area_scale() > 3.0 && t.area_scale() < 3.5);
        assert!(t.energy_scale() > 1.0);
    }
}
