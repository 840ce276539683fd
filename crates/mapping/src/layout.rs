//! Relative-placement generation: where cores and switches sit on the
//! floorplan grid for each topology family.
//!
//! The paper's floorplanner consumes "the relative positions of the
//! cores and switches" implied by the mapping (§5). This module derives
//! those positions:
//!
//! * **mesh / torus** — the natural tile grid, each tile holding a core
//!   block and its switch block side by side;
//! * **hypercube** — switches arranged on a `2^(n/2) x 2^(n-n/2)` grid
//!   by splitting the binary label, then tiled like a mesh;
//! * **Clos / butterfly** — switch stages form middle columns with the
//!   core blocks in columns flanking them, which is what makes indirect
//!   links longer than direct ones (the paper measured ~1.5x for the
//!   butterfly).

use crate::Placement;
use sunmap_floorplan::{BlockId, BlockSpec, RelativePlacement};
use sunmap_topology::{NodeCoords, NodeId, TopologyGraph, TopologyKind};
use sunmap_traffic::{CoreGraph, CoreId};

/// The relative placement plus lookup tables from topology vertices and
/// cores to their floorplan blocks. Both tables are flat vectors (node-
/// and core-indexed) rather than maps: the evaluation hot loop probes
/// them for every loaded link of every candidate placement.
#[derive(Debug, Clone)]
pub struct LayoutBlocks {
    /// Blocks on the floorplan grid.
    pub placement: RelativePlacement,
    /// Node-indexed switch blocks (`None` for non-switch vertices).
    pub switch_block: Vec<Option<BlockId>>,
    /// Core-indexed blocks (`None` for unplaced cores).
    pub core_block: Vec<Option<BlockId>>,
}

impl LayoutBlocks {
    /// The floorplan block of the vertex a core or port occupies: for a
    /// mapped core its core block, for a bare switch its switch block.
    pub fn block_of_node(&self, p: &Placement, node: NodeId) -> Option<BlockId> {
        if let Some(core) = p.core_at(node) {
            return self.core_block[core.index()];
        }
        self.switch_block[node.index()]
    }

    /// Number of switch blocks placed.
    pub fn switch_block_count(&self) -> usize {
        self.switch_block.iter().flatten().count()
    }

    /// Number of core blocks placed.
    pub fn core_block_count(&self) -> usize {
        self.core_block.iter().flatten().count()
    }
}

/// Builds the relative placement for `placement` of `app` onto `g`,
/// with per-switch block areas in `switch_areas` (mm², from the area
/// library), indexed by node id.
///
/// This runs once for every candidate that reaches its floorplan, so it
/// builds no strings: blocks carry only geometry, and
/// [`LayoutBlocks::switch_block`] / [`LayoutBlocks::core_block`] are
/// the way back from a vertex or core to its block. The reference
/// [`crate::evaluate`] and the engine share it and the one solver.
///
/// # Panics
///
/// Panics if `switch_areas` is shorter than the graph's node count —
/// callers size every switch via
/// [`sunmap_topology::TopologyGraph::switch_radices`].
pub fn layout_blocks(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: &Placement,
    switch_areas: &[f64],
) -> LayoutBlocks {
    match g.kind() {
        TopologyKind::Mesh { .. } | TopologyKind::Torus { .. } | TopologyKind::Octagon => {
            // Octagon switches carry perimeter grid coordinates, so the
            // tile layout applies unchanged.
            direct_layout(g, app, placement, switch_areas, grid_slot_of_grid)
        }
        TopologyKind::Hypercube { dim } => {
            let half = dim / 2;
            direct_layout(
                g,
                app,
                placement,
                switch_areas,
                move |coords| match coords {
                    NodeCoords::Hyper { label } => (
                        (label >> half) as usize,
                        (label & ((1 << half) - 1)) as usize,
                    ),
                    other => panic!("expected hypercube coords, found {other}"),
                },
            )
        }
        TopologyKind::Clos { .. } | TopologyKind::Butterfly { .. } | TopologyKind::Star { .. } => {
            indirect_layout(g, app, placement, switch_areas)
        }
        TopologyKind::Custom { .. } => custom_layout(g, app, placement, switch_areas),
    }
}

fn grid_slot_of_grid(coords: NodeCoords) -> (usize, usize) {
    match coords {
        NodeCoords::Grid { row, col } => (row, col),
        other => panic!("expected grid coords, found {other}"),
    }
}

fn direct_layout(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: &Placement,
    switch_areas: &[f64],
    slot: impl Fn(NodeCoords) -> (usize, usize),
) -> LayoutBlocks {
    let mut rp = RelativePlacement::new();
    let mut switch_block = vec![None; g.node_count()];
    let mut core_block = vec![None; app.core_count()];
    for s in g.switches() {
        let (row, col) = slot(g.coords(s));
        let area = switch_areas[s.index()];
        let id = rp.add_block(BlockSpec::soft(area), row, 2 * col + 1);
        switch_block[s.index()] = Some(id);
        if let Some(core) = placement.core_at(s) {
            let spec = core_spec(app, core);
            let cid = rp.add_block(spec, row, 2 * col);
            core_block[core.index()] = Some(cid);
        }
    }
    LayoutBlocks {
        placement: rp,
        switch_block,
        core_block,
    }
}

fn core_spec(app: &CoreGraph, core: CoreId) -> BlockSpec {
    let c = app.core(core);
    if c.soft {
        BlockSpec::soft(c.area)
    } else {
        BlockSpec::hard(c.area)
    }
}

fn indirect_layout(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: &Placement,
    switch_areas: &[f64],
) -> LayoutBlocks {
    let ports = g.core_ports().count();
    let stages = 1 + g
        .switches()
        .filter_map(|s| match g.coords(s) {
            NodeCoords::Stage { stage, .. } => Some(stage),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut stage_size = vec![0usize; stages];
    for s in g.switches() {
        if let NodeCoords::Stage { stage, .. } = g.coords(s) {
            stage_size[stage] += 1;
        }
    }
    let max_stage = stage_size.iter().copied().max().unwrap_or(1);
    // Layout rows: enough for the tallest stage and a near-square core
    // arrangement.
    let rows = ((ports as f64).sqrt().ceil() as usize)
        .max(max_stage)
        .max(1);
    let core_cols = ports.div_ceil(rows);
    let left_cols = core_cols.div_ceil(2);

    let mut rp = RelativePlacement::new();
    let mut switch_block = vec![None; g.node_count()];
    let mut core_block = vec![None; app.core_count()];

    // Core ports flank the switch stages: left columns, then stages,
    // then right columns.
    for port in g.core_ports() {
        let Some(core) = placement.core_at(port) else {
            continue;
        };
        let NodeCoords::Port { index } = g.coords(port) else {
            continue;
        };
        let core_col = index / rows;
        let row = index % rows;
        let col = if core_col < left_cols {
            core_col
        } else {
            core_col + stages
        };
        let id = rp.add_block(core_spec(app, core), row, col);
        core_block[core.index()] = Some(id);
    }
    for s in g.switches() {
        let NodeCoords::Stage { stage, index } = g.coords(s) else {
            continue;
        };
        let col = left_cols + stage;
        let row = index * rows / stage_size[stage];
        let id = rp.add_block(BlockSpec::soft(switch_areas[s.index()]), row, col);
        switch_block[s.index()] = Some(id);
    }
    LayoutBlocks {
        placement: rp,
        switch_block,
        core_block,
    }
}

/// Layout for user-defined heterogeneous topologies: switches sit on
/// their builder-declared grid slots; each switch's mapped cores stack
/// in the column to its left. Rows are expanded by the largest port
/// count so stacked cores never collide with neighbouring tiles.
///
/// The declared rows and columns are ranked among those in use before
/// they are scaled, so a slot anywhere in `usize` cannot overflow, and
/// the floorplan (which reads only their order) stays the same.
fn custom_layout(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: &Placement,
    switch_areas: &[f64],
) -> LayoutBlocks {
    let mut ports_of: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
    for port in g.core_ports() {
        if let Ok(sw) = g.ingress_switch(port) {
            ports_of[sw.index()].push(port);
        }
    }
    let expand = ports_of.iter().map(Vec::len).max().unwrap_or(1).max(1);
    let (mut rows, mut cols): (Vec<usize>, Vec<usize>) = g
        .switches()
        .filter_map(|s| match g.coords(s) {
            NodeCoords::Grid { row, col } => Some((row, col)),
            _ => None,
        })
        .unzip();
    for declared in [&mut rows, &mut cols] {
        declared.sort_unstable();
        declared.dedup();
    }
    let rank = |declared: &[usize], x: usize| {
        declared
            .binary_search(&x)
            .expect("every declared slot was ranked")
    };

    let mut rp = RelativePlacement::new();
    let mut switch_block = vec![None; g.node_count()];
    let mut core_block = vec![None; app.core_count()];
    for s in g.switches() {
        let NodeCoords::Grid { row, col } = g.coords(s) else {
            continue;
        };
        let (row, col) = (rank(&rows, row), rank(&cols, col));
        let id = rp.add_block(
            BlockSpec::soft(switch_areas[s.index()]),
            row * expand,
            2 * col + 1,
        );
        switch_block[s.index()] = Some(id);
        let mut stacked = 0usize;
        for port in &ports_of[s.index()] {
            let Some(core) = placement.core_at(*port) else {
                continue;
            };
            let cid = rp.add_block(core_spec(app, core), row * expand + stacked, 2 * col);
            core_block[core.index()] = Some(cid);
            stacked += 1;
        }
    }
    LayoutBlocks {
        placement: rp,
        switch_block,
        core_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapper, MapperConfig, Objective, RoutingFunction};
    use sunmap_power::{switch_area, SwitchConfig, Technology};
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    fn areas(g: &TopologyGraph) -> Vec<f64> {
        let mut areas = vec![0.0; g.node_count()];
        for (s, i, o) in g.switch_radices() {
            areas[s.index()] = switch_area(SwitchConfig::new(i, o), Technology::um_0_10());
        }
        areas
    }

    fn identity_placement(g: &TopologyGraph, n: usize) -> Placement {
        Placement::new(g.mappable_nodes()[..n].to_vec(), g).unwrap()
    }

    #[test]
    fn mesh_layout_places_every_switch_and_core() {
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 12);
        assert_eq!(lb.core_block_count(), 12);
        assert_eq!(lb.placement.block_count(), 24);
        lb.placement.floorplan().expect("mesh layout floorplans");
    }

    #[test]
    fn partial_mapping_leaves_empty_tiles() {
        let g = builders::mesh(4, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 16);
        assert_eq!(lb.core_block_count(), 12);
    }

    #[test]
    fn butterfly_layout_floorplans_without_collisions() {
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 8);
        assert_eq!(lb.core_block_count(), 12);
        let fp = lb
            .placement
            .floorplan()
            .expect("butterfly layout floorplans");
        assert!(fp.chip_aspect() > 0.2 && fp.chip_aspect() < 5.0);
    }

    #[test]
    fn clos_layout_floorplans() {
        let g = builders::clos(4, 4, 4, 500.0).unwrap();
        let app = benchmarks::network_processor(100.0);
        let p = identity_placement(&g, 16);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 12);
        lb.placement.floorplan().expect("clos layout floorplans");
    }

    #[test]
    fn hypercube_layout_floorplans() {
        let g = builders::hypercube(4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 16);
        lb.placement
            .floorplan()
            .expect("hypercube layout floorplans");
    }

    /// A custom switch may sit at any declared grid slot: a far one
    /// maps to the report of an adjacent one, because the layout ranks
    /// the declared rows and columns before scaling them and the
    /// floorplan never allocates by coordinate.
    #[test]
    fn far_custom_slots_map_like_adjacent_ones() {
        let report = |far: usize| {
            let mut b = sunmap_topology::CustomTopologyBuilder::new("far");
            let near = b.add_switch_at(0, 0);
            let far = b.add_switch_at(far, far);
            b.add_link(near, far, 1000.0).unwrap();
            for sw in [near, near, near, far, far, far] {
                b.add_port(sw).unwrap();
            }
            let g = b.build().unwrap();
            let app = benchmarks::dsp_filter();
            let config = MapperConfig::new(RoutingFunction::MinPath, Objective::MinDelay);
            format!("{:?}", Mapper::new(&g, &app, config).run())
        };
        let adjacent = report(1);
        assert_eq!(report(1 << 40), adjacent);
        assert_eq!(report(usize::MAX), adjacent);
    }

    #[test]
    fn block_of_node_prefers_core_block() {
        let g = builders::mesh(2, 2, 500.0).unwrap();
        let app = benchmarks::dsp_filter();
        let p = identity_placement(&g, 4);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        let node = g.mappable_nodes()[0];
        let core = p.core_at(node).unwrap();
        assert_eq!(lb.block_of_node(&p, node), lb.core_block[core.index()]);
    }
}
