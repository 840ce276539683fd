//! Objectives, constraints and the evaluated cost report.

/// Design objective driving the mapping search (paper §4.1: "the
/// mapping algorithms can have many different objectives ... an input
/// parameter to SUNMAP").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimise average communication delay (traffic-weighted switch
    /// hops).
    #[default]
    MinDelay,
    /// Minimise design area.
    MinArea,
    /// Minimise design power dissipation.
    MinPower,
    /// Minimise the maximum link load — i.e. the smallest link
    /// bandwidth the design would require. Used for the paper's Fig. 9a
    /// study of routing functions; bandwidth feasibility is not
    /// enforced under this objective (the answer *is* the required
    /// bandwidth).
    MinBandwidth,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Objective::MinDelay => "min-delay",
            Objective::MinArea => "min-area",
            Objective::MinPower => "min-power",
            Objective::MinBandwidth => "min-bandwidth",
        };
        f.write_str(s)
    }
}

/// Feasibility constraints of the mapping (paper §4.1: bandwidth and
/// area constraints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum allowed design area in mm², if any.
    pub max_area_mm2: Option<f64>,
    /// Minimum permissible chip aspect ratio (width/height).
    pub min_chip_aspect: f64,
    /// Maximum permissible chip aspect ratio.
    pub max_chip_aspect: f64,
    /// Whether link bandwidth limits are enforced. The paper's
    /// network-processor study (§6.2) produces mappings "by relaxing
    /// the bandwidth constraints"; set this to `false` to do the same.
    pub enforce_bandwidth: bool,
    /// Packing utilisation assumed when converting summed block area
    /// into design area (our grid floorplanner does not perform the
    /// LP's final compaction).
    pub utilization: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            max_area_mm2: None,
            min_chip_aspect: 0.25,
            max_chip_aspect: 4.0,
            enforce_bandwidth: true,
            utilization: 0.95,
        }
    }
}

impl Constraints {
    /// Constraints with a maximum design area.
    pub fn with_max_area(max_area_mm2: f64) -> Self {
        Constraints {
            max_area_mm2: Some(max_area_mm2),
            ..Constraints::default()
        }
    }

    /// Constraints with bandwidth checking disabled (the paper's
    /// "relaxed" mode for simulation-driven studies).
    pub fn relaxed_bandwidth() -> Self {
        Constraints {
            enforce_bandwidth: false,
            ..Constraints::default()
        }
    }
}

/// Every metric the paper reports for a mapping, produced by
/// [`crate::evaluate`] (Fig. 5 steps 7–8).
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Traffic-weighted average switch traversals per byte — the
    /// "avg hops" of paper Figs. 3d, 6a, 7b. Adjacent-switch
    /// communication counts 2 (source plus destination switch).
    pub avg_hops: f64,
    /// Unweighted mean hops over commodities.
    pub mean_hops: f64,
    /// Design area in mm² (cores + switches at the configured
    /// utilisation).
    pub design_area: f64,
    /// Floorplan bounding-box area in mm².
    pub floorplan_area: f64,
    /// Sum of switch block areas in mm².
    pub switch_area: f64,
    /// Total power in mW (switches + links).
    pub power_mw: f64,
    /// Switch share of power in mW.
    pub switch_power_mw: f64,
    /// Link share of power in mW.
    pub link_power_mw: f64,
    /// Largest per-link traffic in MB/s — the minimum link bandwidth
    /// this mapping requires.
    pub max_link_load: f64,
    /// Mean floorplanned length of loaded links in mm.
    pub avg_link_length_mm: f64,
    /// Chip aspect ratio from the floorplanner.
    pub chip_aspect: f64,
    /// Whether every link load is within its capacity (always reported,
    /// even when not enforced).
    pub bandwidth_ok: bool,
    /// Whether area and aspect constraints hold.
    pub area_ok: bool,
    /// Whether bandwidth feasibility participates in
    /// [`CostReport::feasible`] (copied from the constraints used).
    pub bandwidth_enforced: bool,
    /// Number of switches in the topology.
    pub switch_count: usize,
    /// Number of physical channels (network + core attach).
    pub link_count: usize,
}

impl CostReport {
    /// Whether this mapping satisfies the enforced constraints
    /// (paper Fig. 5 step 8 gate) and every metric is finite. A demand
    /// or core area near `f64::MAX` parses, but the cost sums over it
    /// overflow; a report that cannot state its cost is not a design.
    pub fn feasible(&self) -> bool {
        let metrics = [
            self.avg_hops,
            self.mean_hops,
            self.design_area,
            self.floorplan_area,
            self.switch_area,
            self.power_mw,
            self.switch_power_mw,
            self.link_power_mw,
            self.max_link_load,
            self.avg_link_length_mm,
            self.chip_aspect,
        ];
        (self.bandwidth_ok || !self.bandwidth_enforced)
            && self.area_ok
            && metrics.iter().all(|m| m.is_finite())
    }

    /// Scalar cost under an objective; lower is better. Infeasible
    /// mappings still get finite costs — the mapper ranks feasibility
    /// first, then cost.
    pub fn cost(&self, objective: Objective) -> f64 {
        match objective {
            Objective::MinDelay => self.avg_hops,
            Objective::MinArea => self.design_area,
            Objective::MinPower => self.power_mw,
            Objective::MinBandwidth => self.max_link_load,
        }
    }

    /// Ranking key used by the mapper: feasible mappings sort before
    /// infeasible ones. Among feasible mappings the objective cost
    /// decides (worst link load breaking ties); among infeasible ones
    /// the *violation* (max link load) decides, so the swap search
    /// climbs towards feasibility before optimising anything else.
    pub fn rank(&self, objective: Objective) -> (bool, f64, f64) {
        if self.feasible() {
            (false, self.cost(objective), self.max_link_load)
        } else {
            (true, self.max_link_load, self.cost(objective))
        }
    }

    /// Whether `self` ranks strictly better than `other` under
    /// `objective`.
    pub fn better_than(&self, other: &CostReport, objective: Objective) -> bool {
        let (a_inf, a_cost, a_load) = self.rank(objective);
        let (b_inf, b_cost, b_load) = other.rank(objective);
        (a_inf, a_cost, a_load) < (b_inf, b_cost, b_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CostReport {
        CostReport {
            avg_hops: 2.25,
            mean_hops: 2.1,
            design_area: 57.9,
            floorplan_area: 60.0,
            switch_area: 6.2,
            power_mw: 372.0,
            switch_power_mw: 330.0,
            link_power_mw: 42.0,
            max_link_load: 450.0,
            avg_link_length_mm: 2.2,
            chip_aspect: 1.5,
            bandwidth_ok: true,
            area_ok: true,
            bandwidth_enforced: true,
            switch_count: 12,
            link_count: 29,
        }
    }

    #[test]
    fn cost_selects_metric() {
        let r = report();
        assert_eq!(r.cost(Objective::MinDelay), 2.25);
        assert_eq!(r.cost(Objective::MinArea), 57.9);
        assert_eq!(r.cost(Objective::MinPower), 372.0);
        assert_eq!(r.cost(Objective::MinBandwidth), 450.0);
    }

    #[test]
    fn feasibility_gate() {
        let mut r = report();
        assert!(r.feasible());
        r.bandwidth_ok = false;
        assert!(!r.feasible());
        r.bandwidth_enforced = false;
        assert!(r.feasible(), "relaxed bandwidth ignores overload");
        r.area_ok = false;
        assert!(!r.feasible(), "area violations always matter");
        // A metric that overflowed (or is NaN) makes any report
        // infeasible, whatever the constraints say.
        for overflow in [f64::INFINITY, f64::NAN] {
            for metric in 0..11 {
                let mut r = report();
                r.bandwidth_enforced = false;
                *[
                    &mut r.avg_hops,
                    &mut r.mean_hops,
                    &mut r.design_area,
                    &mut r.floorplan_area,
                    &mut r.switch_area,
                    &mut r.power_mw,
                    &mut r.switch_power_mw,
                    &mut r.link_power_mw,
                    &mut r.max_link_load,
                    &mut r.avg_link_length_mm,
                    &mut r.chip_aspect,
                ][metric] = overflow;
                assert!(!r.feasible(), "metric {metric} = {overflow}");
            }
        }
    }

    #[test]
    fn feasible_always_beats_infeasible() {
        let good = report();
        let mut bad = report();
        bad.bandwidth_ok = false;
        bad.avg_hops = 1.0; // better cost, but infeasible
        assert!(good.better_than(&bad, Objective::MinDelay));
        assert!(!bad.better_than(&good, Objective::MinDelay));
    }

    #[test]
    fn lower_cost_wins_between_feasibles() {
        let a = report();
        let mut b = report();
        b.power_mw = 300.0;
        assert!(b.better_than(&a, Objective::MinPower));
        assert!(!a.better_than(&b, Objective::MinPower));
        assert!(!a.better_than(&a.clone(), Objective::MinPower));
    }

    #[test]
    fn default_constraints_are_permissive() {
        let c = Constraints::default();
        assert!(c.max_area_mm2.is_none());
        assert!(c.enforce_bandwidth);
        let r = Constraints::relaxed_bandwidth();
        assert!(!r.enforce_bandwidth);
        let a = Constraints::with_max_area(70.0);
        assert_eq!(a.max_area_mm2, Some(70.0));
    }
}
