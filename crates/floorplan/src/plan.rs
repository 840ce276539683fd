//! The longest-path constraint-graph solve and the resulting plan.

use crate::{BlockId, FloorplanError, RelativePlacement};

/// A block with its solved geometry. Like [`crate::BlockSpec`] it has
/// no name: its [`BlockId`] is its identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedBlock {
    /// The block's id in the originating placement.
    pub id: BlockId,
    /// Lower-left x coordinate (mm).
    pub x: f64,
    /// Lower-left y coordinate (mm).
    pub y: f64,
    /// Width (mm).
    pub width: f64,
    /// Height (mm).
    pub height: f64,
}

impl PlacedBlock {
    /// Geometric centre of the block.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Block area (mm²).
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Width/height ratio.
    pub fn aspect(&self) -> f64 {
        self.width / self.height
    }

    /// Whether two placed blocks overlap (strictly, touching edges are
    /// allowed).
    pub fn overlaps(&self, other: &PlacedBlock) -> bool {
        let eps = 1e-9;
        self.x + self.width > other.x + eps
            && other.x + other.width > self.x + eps
            && self.y + self.height > other.y + eps
            && other.y + other.height > self.y + eps
    }
}

/// A solved floorplan: exact block positions and chip extents.
///
/// Produced by [`RelativePlacement::floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<PlacedBlock>,
    chip_width: f64,
    chip_height: f64,
}

impl Floorplan {
    /// All placed blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[PlacedBlock] {
        &self.blocks
    }

    /// The placed geometry of one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn block(&self, id: BlockId) -> &PlacedBlock {
        &self.blocks[id.index()]
    }

    /// Chip bounding-box width (mm).
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// Chip bounding-box height (mm).
    pub fn chip_height(&self) -> f64 {
        self.chip_height
    }

    /// Chip bounding-box area (mm²) — the "design area" the paper
    /// reports.
    pub fn chip_area(&self) -> f64 {
        self.chip_width * self.chip_height
    }

    /// Chip aspect ratio (width/height), used for the paper's
    /// "aspect ratios of the design ... within permissible ranges"
    /// feasibility check.
    pub fn chip_aspect(&self) -> f64 {
        self.chip_width / self.chip_height
    }

    /// Manhattan distance between the centres of two blocks: the wire
    /// length estimate for a link connecting them (mm).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn link_length(&self, a: BlockId, b: BlockId) -> f64 {
        let (ax, ay) = self.block(a).center();
        let (bx, by) = self.block(b).center();
        (ax - bx).abs() + (ay - by).abs()
    }

    /// Sum of block areas divided by chip area: the packing utilisation
    /// in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        let used: f64 = self.blocks.iter().map(PlacedBlock::area).sum();
        used / self.chip_area()
    }
}

pub(crate) fn solve(rp: &RelativePlacement) -> Result<Floorplan, FloorplanError> {
    let blocks = rp.blocks();
    let positions = rp.positions();
    if blocks.is_empty() {
        return Err(FloorplanError::Empty);
    }
    for (i, b) in blocks.iter().enumerate() {
        if !(b.area.is_finite() && b.area > 0.0) {
            return Err(FloorplanError::InvalidArea {
                block: BlockId(i),
                area: b.area,
            });
        }
        if !(b.min_aspect.is_finite()
            && b.max_aspect.is_finite()
            && b.min_aspect > 0.0
            && b.min_aspect <= b.max_aspect)
        {
            return Err(FloorplanError::InvalidAspect { block: BlockId(i) });
        }
    }

    // Only the order of the occupied rows and columns matters: an empty
    // row or column would add exactly 0.0 to the prefix sums below. So
    // every block gets the rank of its row and of its column among the
    // occupied ones, and nothing is sized by a raw coordinate.
    let n = blocks.len();
    let mut sorted = Vec::with_capacity(n);
    let (col_of, cols) = rank(positions.iter().map(|p| p.1), &mut sorted);
    let (row_of, rows) = rank(positions.iter().map(|p| p.0), &mut sorted);
    // `sorted` now lists the blocks row by row, lowest id first: a block
    // whose column an earlier block of its row holds collides with it.
    let mut last_row = vec![usize::MAX; cols];
    let mut collision = None::<usize>;
    for &(_, i) in &sorted {
        let (r, c) = (row_of[i], col_of[i]);
        if last_row[c] == r {
            collision = Some(collision.map_or(i, |first| first.min(i)));
        }
        last_row[c] = r;
    }
    if let Some(i) = collision {
        let (row, col) = positions[i];
        return Err(FloorplanError::SlotCollision { row, col });
    }

    // Initial square shapes.
    let mut heights: Vec<f64> = blocks.iter().map(|b| b.area.sqrt()).collect();
    // width/height must stay in [min_aspect, max_aspect]: height in
    // [sqrt(area/max), sqrt(area/min)].
    let height_range: Vec<(f64, f64)> = blocks
        .iter()
        .map(|b| {
            (
                (b.area / b.max_aspect).sqrt(),
                (b.area / b.min_aspect).sqrt(),
            )
        })
        .collect();

    // Two sizing passes: stretch each soft block to its row height
    // (within its aspect range) and recompute the row heights; its
    // width, which shrinks, follows from its final height.
    let mut row_h = vec![0.0f64; rows];
    for _ in 0..2 {
        row_h.fill(0.0);
        for (i, &r) in row_of.iter().enumerate() {
            row_h[r] = row_h[r].max(heights[i]);
        }
        for (i, (h_min, h_max)) in height_range.iter().enumerate() {
            heights[i] = row_h[row_of[i]].clamp(*h_min, *h_max);
        }
    }
    let widths: Vec<f64> = blocks
        .iter()
        .zip(&heights)
        .map(|(b, h)| b.area / h)
        .collect();

    // Constraint-graph longest path: on a grid this is column widths /
    // row heights as running maxima.
    let mut col_w = vec![0.0f64; cols];
    row_h.fill(0.0);
    for i in 0..n {
        col_w[col_of[i]] = col_w[col_of[i]].max(widths[i]);
        row_h[row_of[i]] = row_h[row_of[i]].max(heights[i]);
    }
    let mut col_x = vec![0.0f64; cols + 1];
    for c in 0..cols {
        col_x[c + 1] = col_x[c] + col_w[c];
    }
    let mut row_y = vec![0.0f64; rows + 1];
    for r in 0..rows {
        row_y[r + 1] = row_y[r] + row_h[r];
    }

    let placed = (0..n)
        .map(|i| {
            let (r, c) = (row_of[i], col_of[i]);
            // Centre the block in its slot.
            let x = col_x[c] + (col_w[c] - widths[i]) / 2.0;
            let y = row_y[r] + (row_h[r] - heights[i]) / 2.0;
            PlacedBlock {
                id: BlockId(i),
                x,
                y,
                width: widths[i],
                height: heights[i],
            }
        })
        .collect();

    Ok(Floorplan {
        blocks: placed,
        chip_width: col_x[cols],
        chip_height: row_y[rows],
    })
}

/// Ranks each block's key among the distinct keys: returns every
/// block's rank and the number of distinct keys, and leaves `sorted`
/// holding the `(key, block)` pairs in ascending order.
fn rank(
    keys: impl Iterator<Item = usize>,
    sorted: &mut Vec<(usize, usize)>,
) -> (Vec<usize>, usize) {
    sorted.clear();
    sorted.extend(keys.enumerate().map(|(i, key)| (key, i)));
    sorted.sort_unstable();
    let mut rank_of = vec![0usize; sorted.len()];
    let mut distinct = 0;
    for (k, &(key, i)) in sorted.iter().enumerate() {
        if k > 0 && sorted[k - 1].0 != key {
            distinct += 1;
        }
        rank_of[i] = distinct;
    }
    (rank_of, distinct + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockSpec;

    fn grid_plan(specs: &[(f64, usize, usize)]) -> Floorplan {
        let mut rp = RelativePlacement::new();
        for &(area, r, c) in specs {
            rp.add_block(BlockSpec::soft(area), r, c);
        }
        rp.floorplan().unwrap()
    }

    #[test]
    fn no_two_blocks_overlap() {
        let plan = grid_plan(&[(4.0, 0, 0), (9.0, 0, 1), (1.0, 1, 0), (16.0, 1, 1)]);
        let blocks = plan.blocks();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert!(
                    !blocks[i].overlaps(&blocks[j]),
                    "{} overlaps {}",
                    blocks[i].id,
                    blocks[j].id
                );
            }
        }
    }

    #[test]
    fn chip_contains_all_blocks() {
        let plan = grid_plan(&[(4.0, 0, 0), (25.0, 1, 2), (2.0, 2, 1)]);
        for b in plan.blocks() {
            assert!(b.x >= -1e-9 && b.y >= -1e-9);
            assert!(b.x + b.width <= plan.chip_width() + 1e-9);
            assert!(b.y + b.height <= plan.chip_height() + 1e-9);
        }
    }

    #[test]
    fn areas_preserved_by_resizing() {
        let plan = grid_plan(&[(4.0, 0, 0), (9.0, 0, 1), (2.5, 1, 0)]);
        for (b, area) in plan.blocks().iter().zip([4.0, 9.0, 2.5]) {
            assert!((b.area() - area).abs() < 1e-9, "{} area drifted", b.id);
        }
    }

    #[test]
    fn aspect_bounds_respected() {
        let mut rp = RelativePlacement::new();
        rp.add_block(BlockSpec::with_aspect(4.0, 0.25, 0.5), 0, 0);
        rp.add_block(BlockSpec::hard(100.0), 0, 1);
        let plan = rp.floorplan().unwrap();
        let tall = plan.block(BlockId(0));
        assert!(tall.aspect() <= 0.5 + 1e-9);
        assert!(tall.aspect() >= 0.25 - 1e-9);
        let sq = plan.block(BlockId(1));
        assert!((sq.aspect() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_block_is_the_chip() {
        let plan = grid_plan(&[(6.25, 0, 0)]);
        assert!((plan.chip_area() - 6.25).abs() < 1e-9);
        assert!((plan.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_length_is_manhattan_between_centers() {
        let plan = grid_plan(&[(4.0, 0, 0), (4.0, 0, 1), (4.0, 1, 0)]);
        // Side-by-side 2x2 squares: centres 2 mm apart.
        assert!((plan.link_length(BlockId(0), BlockId(1)) - 2.0).abs() < 1e-9);
        assert!((plan.link_length(BlockId(0), BlockId(2)) - 2.0).abs() < 1e-9);
        // Diagonal: 2 + 2 Manhattan.
        assert!((plan.link_length(BlockId(1), BlockId(2)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_grids_are_allowed() {
        // Slots may be empty; geometry must remain consistent.
        let plan = grid_plan(&[(1.0, 0, 0), (1.0, 3, 5)]);
        assert!(plan.chip_width() > 0.0 && plan.chip_height() > 0.0);
        assert!(plan.utilization() <= 1.0);
    }

    #[test]
    fn coordinates_at_the_ends_of_usize_solve() {
        // Far slots rank like near ones: no allocation follows the raw
        // coordinates, and the plan is the (0,0)/(1,1) one bit for bit.
        let far = grid_plan(&[(1.0, 0, 0), (4.0, usize::MAX, usize::MAX)]);
        let near = grid_plan(&[(1.0, 0, 0), (4.0, 1, 1)]);
        assert_eq!(far, near);
        assert_eq!(far.chip_width(), 3.0);
        assert_eq!(far.chip_height(), 3.0);
    }

    #[test]
    fn utilization_in_unit_interval() {
        let plan = grid_plan(&[(3.0, 0, 0), (5.0, 1, 1), (7.0, 2, 2)]);
        assert!(plan.utilization() > 0.0 && plan.utilization() <= 1.0);
    }
}
