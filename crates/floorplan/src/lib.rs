//! Constraint-graph floorplanner for SUNMAP (paper §5).
//!
//! The paper reduces floorplanning to the easy half of the general
//! problem: for a mapping under evaluation "the relative positions of
//! the cores and switches are known. Thus the floorplanning problem is
//! reduced to the one of finding the exact positions and sizes (for
//! soft blocks)". The paper solves this with a simple LP floorplanner
//! from the literature; with relative positions fixed on a grid, that
//! LP's optimum is the longest path through the horizontal/vertical
//! constraint graphs — which this crate computes exactly.
//!
//! Inputs are a [`RelativePlacement`]: blocks (cores and switches, each
//! with an area and an aspect-ratio range for soft blocks) assigned to
//! integer grid slots. Outputs are a [`Floorplan`] with exact positions
//! and sizes, from which the mapping engine reads chip area, aspect
//! ratio and link lengths.
//!
//! # Examples
//!
//! ```
//! use sunmap_floorplan::{BlockSpec, RelativePlacement};
//!
//! let mut rp = RelativePlacement::new();
//! let a = rp.add_block(BlockSpec::soft("cpu", 4.0), 0, 0);
//! let b = rp.add_block(BlockSpec::soft("mem", 9.0), 0, 1);
//! let plan = rp.floorplan()?;
//! assert!(plan.chip_area() >= 13.0);
//! assert!(plan.link_length(a, b) > 0.0);
//! # Ok::<(), sunmap_floorplan::FloorplanError>(())
//! ```

mod plan;

pub use plan::{Floorplan, PlacedBlock};

/// Identifier of a block inside a [`RelativePlacement`] / [`Floorplan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// Raw index of the block.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Geometry specification of one block (a core or a switch).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Display name.
    pub name: String,
    /// Block area in mm².
    pub area: f64,
    /// Minimum permissible width/height ratio.
    pub min_aspect: f64,
    /// Maximum permissible width/height ratio.
    pub max_aspect: f64,
}

impl BlockSpec {
    /// A soft block: the floorplanner may reshape it within the default
    /// permissible aspect range `[1/3, 3]` of typical physical-design
    /// practice.
    pub fn soft(name: impl Into<String>, area: f64) -> Self {
        BlockSpec {
            name: name.into(),
            area,
            min_aspect: 1.0 / 3.0,
            max_aspect: 3.0,
        }
    }

    /// A hard block: fixed square shape.
    pub fn hard(name: impl Into<String>, area: f64) -> Self {
        BlockSpec {
            name: name.into(),
            area,
            min_aspect: 1.0,
            max_aspect: 1.0,
        }
    }

    /// A soft block with explicit aspect bounds.
    pub fn with_aspect(name: impl Into<String>, area: f64, min: f64, max: f64) -> Self {
        BlockSpec {
            name: name.into(),
            area,
            min_aspect: min,
            max_aspect: max,
        }
    }
}

/// Errors from floorplanning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FloorplanError {
    /// A block has non-positive or non-finite area.
    InvalidArea {
        /// Offending block name.
        name: String,
        /// Offending area value.
        area: f64,
    },
    /// A block has an empty or invalid aspect range.
    InvalidAspect {
        /// Offending block name.
        name: String,
    },
    /// Two blocks were assigned the same grid slot.
    SlotCollision {
        /// Grid row of the collision.
        row: usize,
        /// Grid column of the collision.
        col: usize,
    },
    /// The placement contains no blocks.
    Empty,
}

impl std::fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloorplanError::InvalidArea { name, area } => {
                write!(f, "block {name} has invalid area {area}")
            }
            FloorplanError::InvalidAspect { name } => {
                write!(f, "block {name} has an invalid aspect-ratio range")
            }
            FloorplanError::SlotCollision { row, col } => {
                write!(f, "two blocks occupy grid slot ({row}, {col})")
            }
            FloorplanError::Empty => write!(f, "placement contains no blocks"),
        }
    }
}

impl std::error::Error for FloorplanError {}

/// Blocks assigned to integer grid slots — the "relative positions" the
/// paper's mapping hands to the floorplanner.
#[derive(Debug, Clone, Default)]
pub struct RelativePlacement {
    blocks: Vec<BlockSpec>,
    positions: Vec<(usize, usize)>,
}

impl RelativePlacement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        RelativePlacement::default()
    }

    /// Adds a block at grid slot `(row, col)` and returns its id.
    pub fn add_block(&mut self, spec: BlockSpec, row: usize, col: usize) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(spec);
        self.positions.push((row, col));
        id
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The spec of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn block(&self, id: BlockId) -> &BlockSpec {
        &self.blocks[id.index()]
    }

    /// The grid slot of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn position(&self, id: BlockId) -> (usize, usize) {
        self.positions[id.index()]
    }

    /// Solves for exact positions and sizes.
    ///
    /// Soft blocks start square and are then stretched vertically to
    /// their row height (within their aspect range), which narrows them
    /// and compacts the chip — a one-step version of the LP resizing.
    ///
    /// # Errors
    ///
    /// Returns an error for empty placements, slot collisions, invalid
    /// areas or empty aspect ranges.
    pub fn floorplan(&self) -> Result<Floorplan, FloorplanError> {
        plan::solve(self)
    }

    pub(crate) fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    pub(crate) fn positions(&self) -> &[(usize, usize)] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_spec_constructors() {
        let s = BlockSpec::soft("a", 4.0);
        assert!(s.min_aspect < 1.0 && s.max_aspect > 1.0);
        let h = BlockSpec::hard("b", 4.0);
        assert_eq!((h.min_aspect, h.max_aspect), (1.0, 1.0));
        let w = BlockSpec::with_aspect("c", 4.0, 0.5, 2.0);
        assert_eq!((w.min_aspect, w.max_aspect), (0.5, 2.0));
    }

    #[test]
    fn slot_collision_detected() {
        let mut rp = RelativePlacement::new();
        rp.add_block(BlockSpec::soft("a", 1.0), 0, 0);
        rp.add_block(BlockSpec::soft("b", 1.0), 0, 0);
        assert_eq!(
            rp.floorplan().unwrap_err(),
            FloorplanError::SlotCollision { row: 0, col: 0 }
        );
    }

    #[test]
    fn empty_placement_rejected() {
        assert_eq!(
            RelativePlacement::new().floorplan().unwrap_err(),
            FloorplanError::Empty
        );
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut rp = RelativePlacement::new();
        rp.add_block(BlockSpec::soft("bad", -1.0), 0, 0);
        assert!(matches!(
            rp.floorplan().unwrap_err(),
            FloorplanError::InvalidArea { .. }
        ));
        let mut rp = RelativePlacement::new();
        rp.add_block(BlockSpec::with_aspect("bad", 1.0, 2.0, 0.5), 0, 0);
        assert!(matches!(
            rp.floorplan().unwrap_err(),
            FloorplanError::InvalidAspect { .. }
        ));
    }
}
