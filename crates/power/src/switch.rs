//! Analytical switch area and bit-energy models.

use crate::Technology;

/// Configuration of one ×pipes-style switch instance.
///
/// The paper's models "take into account the nuances of individual
/// switch configurations ... (like accounting for pipeline registers,
/// cross points, etc.)" — the knobs here are the ones those nuances
/// depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchConfig {
    /// Number of input ports (network plus local/core ports).
    pub in_ports: usize,
    /// Number of output ports.
    pub out_ports: usize,
    /// Flit width in bits.
    pub flit_width: u32,
    /// Input-buffer depth in flits.
    pub buffer_depth: u32,
    /// Output pipeline register stages.
    pub pipeline_stages: u32,
}

impl SwitchConfig {
    /// A `p x p` switch with the default 32-bit flits, 4-flit input
    /// buffers and one output pipeline stage (the ×pipes defaults).
    pub fn symmetric(p: usize) -> Self {
        SwitchConfig {
            in_ports: p,
            out_ports: p,
            flit_width: 32,
            buffer_depth: 4,
            pipeline_stages: 1,
        }
    }

    /// An `in x out` switch with the default datapath parameters.
    pub fn new(in_ports: usize, out_ports: usize) -> Self {
        SwitchConfig {
            in_ports,
            out_ports,
            flit_width: 32,
            buffer_depth: 4,
            pipeline_stages: 1,
        }
    }
}

// Calibration constants at 0.1 µm. Units: mm² per bit-equivalent of the
// respective structure. Chosen so that a 5x5, 32-bit, 4-flit-deep switch
// comes out near 0.74 mm² and a 4x4 near 0.54 mm², matching the
// magnitudes the paper's VOPD totals imply.
const AREA_CROSSPOINT: f64 = 4.0e-4; // per crossbar bit-crosspoint
const AREA_BUFFER_BIT: f64 = 4.0e-4; // per buffer storage bit
const AREA_LOGIC_BIT: f64 = 3.0e-4; // control/arbitration per port-bit
const AREA_PIPE_BIT: f64 = 4.0e-4; // pipeline register per bit-stage

// Bit-energy constants at 0.1 µm, joules per bit. The port-linear term
// models buffer read/write plus arbitration; the port-product term
// models crossbar traversal capacitance.
const ENERGY_PORT_LINEAR: f64 = 0.40e-12; // per (in+out) port
const ENERGY_CROSSBAR: f64 = 0.135e-12; // per in*out product unit
const ENERGY_BUFFER_DEPTH: f64 = 0.02e-12; // per flit of buffer depth

/// Area of a switch in mm²: crossbar cross-points, input buffers,
/// control logic and pipeline registers (paper §5).
///
/// # Examples
///
/// ```
/// use sunmap_power::{switch_area, SwitchConfig, Technology};
///
/// let t = Technology::um_0_10();
/// let a55 = switch_area(SwitchConfig::symmetric(5), t);
/// assert!(a55 > 0.6 && a55 < 0.9, "5x5 area {a55} out of range");
/// ```
pub fn switch_area(cfg: SwitchConfig, tech: Technology) -> f64 {
    let w = cfg.flit_width as f64;
    let crossbar = AREA_CROSSPOINT * cfg.in_ports as f64 * cfg.out_ports as f64 * w;
    let buffers = AREA_BUFFER_BIT * cfg.in_ports as f64 * cfg.buffer_depth as f64 * w;
    let logic = AREA_LOGIC_BIT * (cfg.in_ports + cfg.out_ports) as f64 * w;
    let pipes = AREA_PIPE_BIT * cfg.pipeline_stages as f64 * cfg.out_ports as f64 * w;
    (crossbar + buffers + logic + pipes) * tech.area_scale()
}

/// Energy to move one bit through a switch (buffer write + read,
/// arbitration, crossbar traversal), in joules — the ORION-style
/// bit-energy model.
pub fn switch_energy_per_bit(cfg: SwitchConfig, tech: Technology) -> f64 {
    let ports = (cfg.in_ports + cfg.out_ports) as f64;
    let product = (cfg.in_ports * cfg.out_ports) as f64;
    let e = ENERGY_PORT_LINEAR * ports
        + ENERGY_CROSSBAR * product
        + ENERGY_BUFFER_DEPTH * cfg.buffer_depth as f64;
    e * tech.energy_scale()
}

/// Average power of a switch carrying `traffic_mbs` MB/s of aggregate
/// throughput, in milliwatts.
///
/// # Examples
///
/// ```
/// use sunmap_power::{switch_power, SwitchConfig, Technology};
///
/// let t = Technology::um_0_10();
/// let p = switch_power(SwitchConfig::symmetric(5), t, 1000.0);
/// assert!(p > 0.0);
/// // Power is linear in traffic.
/// assert!((switch_power(SwitchConfig::symmetric(5), t, 2000.0) - 2.0 * p).abs() < 1e-9);
/// ```
pub fn switch_power(cfg: SwitchConfig, tech: Technology, traffic_mbs: f64) -> f64 {
    crate::switch_power_from_energy(switch_energy_per_bit(cfg, tech), traffic_mbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_monotone_in_every_knob() {
        let t = Technology::um_0_10();
        let base = SwitchConfig::symmetric(4);
        let a = switch_area(base, t);
        assert!(
            switch_area(
                SwitchConfig {
                    in_ports: 5,
                    ..base
                },
                t
            ) > a
        );
        assert!(
            switch_area(
                SwitchConfig {
                    out_ports: 5,
                    ..base
                },
                t
            ) > a
        );
        assert!(
            switch_area(
                SwitchConfig {
                    flit_width: 64,
                    ..base
                },
                t
            ) > a
        );
        assert!(
            switch_area(
                SwitchConfig {
                    buffer_depth: 8,
                    ..base
                },
                t
            ) > a
        );
        assert!(
            switch_area(
                SwitchConfig {
                    pipeline_stages: 2,
                    ..base
                },
                t
            ) > a
        );
    }

    #[test]
    fn energy_grows_superlinearly_with_ports() {
        let t = Technology::um_0_10();
        let e4 = switch_energy_per_bit(SwitchConfig::symmetric(4), t);
        let e8 = switch_energy_per_bit(SwitchConfig::symmetric(8), t);
        // Doubling ports more than doubles the per-bit energy
        // (crossbar term is quadratic).
        assert!(e8 > 2.0 * e4);
    }

    #[test]
    fn calibration_magnitudes() {
        let t = Technology::um_0_10();
        // A 5x5 32-bit switch: mid-to-high single-digit pJ/bit at 0.1 µm.
        let e = switch_energy_per_bit(SwitchConfig::symmetric(5), t);
        assert!(e > 2.0e-12 && e < 12.0e-12, "e = {e}");
        let a = switch_area(SwitchConfig::symmetric(5), t);
        assert!(a > 0.3 && a < 1.5, "a = {a}");
    }

    #[test]
    fn technology_scaling_applies() {
        let fine = Technology::um_0_10();
        let coarse = Technology::um_0_18();
        let cfg = SwitchConfig::symmetric(5);
        assert!(switch_area(cfg, coarse) > 3.0 * switch_area(cfg, fine));
        assert!(switch_energy_per_bit(cfg, coarse) > switch_energy_per_bit(cfg, fine));
    }

    #[test]
    fn power_is_zero_for_idle_switch() {
        let t = Technology::um_0_10();
        assert_eq!(switch_power(SwitchConfig::symmetric(5), t, 0.0), 0.0);
    }

    #[test]
    fn asymmetric_configs_supported() {
        let t = Technology::um_0_10();
        let c = SwitchConfig::new(4, 3);
        assert!(switch_area(c, t) > 0.0);
        assert!(switch_area(c, t) < switch_area(SwitchConfig::new(4, 4), t));
    }
}
