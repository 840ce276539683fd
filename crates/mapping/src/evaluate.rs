//! Mapping evaluation: routing, load accumulation, floorplanning and
//! cost-report generation (paper Fig. 5 steps 2–8).
//!
//! This is the *reference* evaluator: a from-scratch, allocation-happy
//! implementation that serves as the oracle the cached fast path
//! ([`crate::EvalEngine`]) is tested against. The mapper's inner search
//! loop uses the fast path; the reference evaluates the initial
//! placement and re-materialises the winning candidate.

use crate::routing::BANDWIDTH_TOLERANCE;
use crate::{
    layout_blocks, route_commodity, Constraints, CostReport, LayoutBlocks, MappingError, Placement,
    RoutingFunction,
};
use sunmap_floorplan::Floorplan;
use sunmap_power::{AreaPowerLibrary, SwitchConfig};
use sunmap_topology::{NodeId, NodeKind, TopologyGraph};
use sunmap_traffic::{Commodity, CoreGraph};

/// One routed commodity: the flow `d_k` with the paths carrying it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCommodity {
    /// The core-graph flow.
    pub commodity: Commodity,
    /// Mapped source vertex `map(v_i)`.
    pub src_node: NodeId,
    /// Mapped destination vertex.
    pub dst_node: NodeId,
    /// `(vertex path, traffic fraction)` pairs; fractions sum to 1.
    pub paths: Vec<(Vec<NodeId>, f64)>,
    /// Fraction-weighted switch traversals of this commodity.
    pub hops: f64,
}

/// A fully evaluated mapping: routes, loads, floorplan and the metric
/// report.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The evaluated core→vertex assignment.
    pub placement: Placement,
    /// The routing function used.
    pub routing: RoutingFunction,
    /// Routed commodities in decreasing-bandwidth order.
    pub routes: Vec<RoutedCommodity>,
    /// Traffic per directed edge (MB/s), indexed by edge id.
    pub link_loads: Vec<f64>,
    /// Blocks and their grid slots.
    pub layout: LayoutBlocks,
    /// The solved floorplan.
    pub floorplan: Floorplan,
    /// The paper's metrics for this mapping.
    pub report: CostReport,
}

fn switch_hops(g: &TopologyGraph, path: &[NodeId]) -> usize {
    path.iter()
        .filter(|n| g.node_kind(**n) == NodeKind::Switch)
        .count()
}

/// Evaluates `placement` of `app` on `g` under `routing`: routes every
/// commodity in decreasing bandwidth order on its quadrant graph while
/// accumulating link loads, floorplans the result, computes area and
/// power through `lib`, and checks the constraints.
///
/// # Errors
///
/// * [`MappingError::Unroutable`] if a commodity has no route.
/// * [`MappingError::Floorplan`] if the layout cannot be floorplanned.
///
/// # Examples
///
/// ```
/// use sunmap_mapping::{evaluate, Constraints, Placement, RoutingFunction};
/// use sunmap_power::{AreaPowerLibrary, Technology};
/// use sunmap_topology::builders;
/// use sunmap_traffic::benchmarks;
///
/// let mesh = builders::mesh(3, 4, 500.0)?;
/// let vopd = benchmarks::vopd();
/// let placement = Placement::new(mesh.mappable_nodes()[..12].to_vec(), &mesh)?;
/// let lib = AreaPowerLibrary::new(Technology::um_0_10());
/// let eval = evaluate(
///     &mesh,
///     &vopd,
///     placement,
///     RoutingFunction::MinPath,
///     &lib,
///     &Constraints::default(),
/// )?;
/// assert_eq!(eval.routes.len(), 14);
/// assert!(eval.report.avg_hops >= 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: Placement,
    routing: RoutingFunction,
    lib: &AreaPowerLibrary,
    constraints: &Constraints,
) -> Result<Evaluation, MappingError> {
    let mut link_loads = vec![0.0f64; g.edge_count()];
    // Node-indexed accumulator: deterministic by construction (no map
    // iteration order involved in any float summation below).
    let mut switch_traffic = vec![0.0f64; g.node_count()];
    let mut routes = Vec::with_capacity(app.edge_count());

    // Fig. 5 steps 2-6: route commodities in decreasing-cost order,
    // incrementing edge weights as we go.
    for commodity in app.commodities() {
        let src_node = placement.node_of(commodity.src);
        let dst_node = placement.node_of(commodity.dst);
        let paths = route_commodity(
            g,
            src_node,
            dst_node,
            routing,
            &link_loads,
            commodity.bandwidth,
        )
        .ok_or(MappingError::Unroutable {
            src: commodity.src.index(),
            dst: commodity.dst.index(),
        })?;
        let mut hops = 0.0;
        for (path, fraction) in &paths {
            let flow = commodity.bandwidth * fraction;
            hops += *fraction * switch_hops(g, path) as f64;
            for w in path.windows(2) {
                let e = g
                    .find_edge(w[0], w[1])
                    .expect("routed paths follow topology edges");
                link_loads[e.index()] += flow;
            }
            for n in path {
                if g.node_kind(*n) == NodeKind::Switch {
                    switch_traffic[n.index()] += flow;
                }
            }
        }
        routes.push(RoutedCommodity {
            commodity,
            src_node,
            dst_node,
            paths,
            hops,
        });
    }

    // Fig. 5 step 7: floorplan and area-power estimates, accumulated in
    // node order (switch_radices iterates switches ascending).
    let mut switch_areas = vec![0.0f64; g.node_count()];
    let mut switch_configs = vec![SwitchConfig::new(0, 0); g.node_count()];
    let mut switch_area = 0.0f64;
    for (s, inp, outp) in g.switch_radices() {
        let cfg = SwitchConfig::new(inp, outp);
        let area = lib.area(cfg);
        switch_configs[s.index()] = cfg;
        switch_areas[s.index()] = area;
        switch_area += area;
    }
    let layout = layout_blocks(g, app, &placement, &switch_areas);
    let fp_timer = crate::timing::floorplan_start();
    let floorplan = layout.placement.floorplan()?;
    crate::timing::floorplan_finish(fp_timer);
    let design_area = (switch_area + app.total_core_area()) / constraints.utilization;

    let mut switch_power_mw = 0.0;
    for s in g.switches() {
        // Every accumulated flow is strictly positive, so a zero entry
        // means "no commodity crossed this switch" — such switches draw
        // no dynamic power in the paper's model.
        let traffic = switch_traffic[s.index()];
        if traffic > 0.0 {
            switch_power_mw += lib.switch_power(switch_configs[s.index()], traffic);
        }
    }

    let mut link_power_mw = 0.0;
    let mut length_sum = 0.0;
    let mut loaded_links = 0usize;
    for (eid, edge) in g.edges() {
        let load = link_loads[eid.index()];
        // Link power counts switch-to-switch network channels only, for
        // every topology alike: core/NI attach stubs are intra-tile
        // wires an order of magnitude shorter and are excluded so that
        // direct and indirect topologies are compared consistently.
        if load <= 0.0 || !edge.is_network_link() {
            continue;
        }
        let (Some(a), Some(b)) = (
            layout.block_of_node(&placement, edge.src),
            layout.block_of_node(&placement, edge.dst),
        ) else {
            continue;
        };
        let length = floorplan.link_length(a, b);
        link_power_mw += lib.link_power(load, length);
        length_sum += length;
        loaded_links += 1;
    }

    // Fig. 5 step 8: feasibility and cost.
    let bandwidth_ok = g.edges().all(|(eid, edge)| {
        !edge.is_network_link() || link_loads[eid.index()] <= edge.capacity * BANDWIDTH_TOLERANCE
    });
    let chip_aspect = floorplan.chip_aspect();
    let area_ok = constraints
        .max_area_mm2
        .is_none_or(|max| design_area <= max)
        && chip_aspect >= constraints.min_chip_aspect
        && chip_aspect <= constraints.max_chip_aspect;

    let total_bw: f64 = routes.iter().map(|r| r.commodity.bandwidth).sum();
    let avg_hops = if total_bw > 0.0 {
        routes
            .iter()
            .map(|r| r.commodity.bandwidth * r.hops)
            .sum::<f64>()
            / total_bw
    } else {
        0.0
    };
    let mean_hops = if routes.is_empty() {
        0.0
    } else {
        routes.iter().map(|r| r.hops).sum::<f64>() / routes.len() as f64
    };
    let max_link_load = g
        .edges()
        .filter(|(_, e)| e.is_network_link())
        .map(|(eid, _)| link_loads[eid.index()])
        .fold(0.0, f64::max);

    let report = CostReport {
        avg_hops,
        mean_hops,
        design_area,
        floorplan_area: floorplan.chip_area(),
        switch_area,
        power_mw: switch_power_mw + link_power_mw,
        switch_power_mw,
        link_power_mw,
        max_link_load,
        avg_link_length_mm: if loaded_links > 0 {
            length_sum / loaded_links as f64
        } else {
            0.0
        },
        chip_aspect,
        bandwidth_ok,
        area_ok,
        bandwidth_enforced: constraints.enforce_bandwidth,
        switch_count: g.switch_count(),
        link_count: g.network_channel_count() + g.attach_channel_count(),
    };

    Ok(Evaluation {
        placement,
        routing,
        routes,
        link_loads,
        layout,
        floorplan,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_power::Technology;
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    fn eval_mesh_vopd(routing: RoutingFunction) -> Evaluation {
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let placement = Placement::new(g.mappable_nodes()[..12].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        evaluate(&g, &app, placement, routing, &lib, &Constraints::default()).unwrap()
    }

    #[test]
    fn flow_conservation_per_commodity() {
        let eval = eval_mesh_vopd(RoutingFunction::SplitMinPaths);
        for r in &eval.routes {
            let frac: f64 = r.paths.iter().map(|(_, f)| f).sum();
            assert!((frac - 1.0).abs() < 1e-9);
            for (p, _) in &r.paths {
                assert_eq!(p.first(), Some(&r.src_node));
                assert_eq!(p.last(), Some(&r.dst_node));
            }
        }
    }

    #[test]
    fn link_loads_equal_sum_of_path_fractions() {
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let eval = eval_mesh_vopd(RoutingFunction::SplitAllPaths);
        let mut expected = vec![0.0f64; g.edge_count()];
        for r in &eval.routes {
            for (p, f) in &r.paths {
                for w in p.windows(2) {
                    let e = g.find_edge(w[0], w[1]).unwrap();
                    expected[e.index()] += r.commodity.bandwidth * f;
                }
            }
        }
        for (a, b) in eval.link_loads.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn adjacent_cores_cost_two_hops() {
        // Paper §6.1: "the least possible hop delay (that of adjacent
        // nodes) itself is two".
        let eval = eval_mesh_vopd(RoutingFunction::MinPath);
        for r in &eval.routes {
            assert!(r.hops >= 2.0, "hops {} below the direct minimum", r.hops);
        }
        assert!(eval.report.avg_hops >= 2.0);
    }

    #[test]
    fn split_routing_never_raises_max_load() {
        let mp = eval_mesh_vopd(RoutingFunction::MinPath);
        let sa = eval_mesh_vopd(RoutingFunction::SplitAllPaths);
        assert!(
            sa.report.max_link_load <= mp.report.max_link_load + 1e-6,
            "SA {} > MP {}",
            sa.report.max_link_load,
            mp.report.max_link_load
        );
    }

    #[test]
    fn power_and_area_are_positive_and_decomposed() {
        let eval = eval_mesh_vopd(RoutingFunction::MinPath);
        let r = &eval.report;
        assert!(r.switch_area > 0.0);
        assert!(r.design_area > r.switch_area);
        assert!(r.switch_power_mw > 0.0);
        assert!(r.link_power_mw > 0.0);
        assert!((r.power_mw - r.switch_power_mw - r.link_power_mw).abs() < 1e-9);
        // The paper's observation: switch power dominates link power.
        assert!(r.switch_power_mw > r.link_power_mw);
    }

    #[test]
    fn butterfly_evaluation_has_constant_hops() {
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        let app = benchmarks::vopd();
        let placement = Placement::new(g.mappable_nodes()[..12].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let eval = evaluate(
            &g,
            &app,
            placement,
            RoutingFunction::MinPath,
            &lib,
            &Constraints::default(),
        )
        .unwrap();
        // Every butterfly route crosses exactly the two switch stages.
        assert!((eval.report.avg_hops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_bandwidth_is_reported_not_hidden() {
        let g = builders::mesh(3, 4, 100.0).unwrap(); // tiny links
        let app = benchmarks::vopd();
        let placement = Placement::new(g.mappable_nodes()[..12].to_vec(), &g).unwrap();
        let lib = AreaPowerLibrary::new(Technology::um_0_10());
        let eval = evaluate(
            &g,
            &app,
            placement,
            RoutingFunction::MinPath,
            &lib,
            &Constraints::default(),
        )
        .unwrap();
        assert!(!eval.report.bandwidth_ok);
        assert!(!eval.report.feasible());
        assert!(eval.report.max_link_load > 100.0);
    }
}
