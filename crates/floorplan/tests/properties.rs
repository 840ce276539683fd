//! Property tests for the floorplanner: geometric invariants that must
//! hold for *any* relative placement, not just the hand-picked grids of
//! `geometry.rs`.
//!
//! * no two placed blocks overlap;
//! * the chip bounding box contains at least the summed block area
//!   (equivalently, utilisation never exceeds 1);
//! * link lengths are symmetric;
//! * every soft block's solved aspect ratio stays within its declared
//!   `[min_aspect, max_aspect]` range, and its area is preserved;
//! * spreading the occupied rows and columns apart leaves every
//!   coordinate and the chip extents bit-identical (empty rows and
//!   columns are free).

use proptest::collection::vec;
use proptest::prelude::*;

use sunmap_floorplan::{BlockId, BlockSpec, Floorplan, RelativePlacement};

/// One generated block: area, aspect-range seed, hard/soft flag and an
/// occupancy flag (so grids come out sparse as well as dense).
type BlockGen = (f64, f64, f64, bool, bool);

/// Builds a placement on a `rows x cols` grid from per-slot generation
/// data; slot `i` sits at `(i / cols, i % cols)`. Returns `None` when
/// every occupancy flag came out false (the empty placement is a
/// documented error, tested separately).
fn build(cols: usize, slots: &[BlockGen]) -> Option<RelativePlacement> {
    let mut rp = RelativePlacement::new();
    let mut any = false;
    for (i, &(area, min_seed, spread, hard, occupied)) in slots.iter().enumerate() {
        if !occupied {
            continue;
        }
        any = true;
        let spec = if hard {
            BlockSpec::hard(area)
        } else {
            // min in [0.2, 1.0), max = min * spread with spread >= 1,
            // so the range is always non-empty.
            BlockSpec::with_aspect(area, min_seed, min_seed * spread)
        };
        rp.add_block(spec, i / cols, i % cols);
    }
    any.then_some(rp)
}

fn solved_ids(plan: &Floorplan) -> Vec<BlockId> {
    plan.blocks().iter().map(|b| b.id).collect()
}

proptest! {
    #[test]
    fn no_two_placed_blocks_overlap(
        cols in 1usize..6,
        slots in vec(
            (0.01f64..80.0, 0.2f64..1.0, 1.0f64..4.0, (0usize..4).prop_map(|h| h == 0),
             (0usize..4).prop_map(|o| o > 0)),
            1..30,
        ),
    ) {
        let Some(rp) = build(cols, &slots) else { return Ok(()) };
        let plan = rp.floorplan().expect("valid placements always solve");
        let blocks = plan.blocks();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                prop_assert!(
                    !blocks[i].overlaps(&blocks[j]),
                    "{} overlaps {}",
                    blocks[i].id,
                    blocks[j].id
                );
            }
        }
    }

    #[test]
    fn chip_area_covers_the_summed_block_area(
        cols in 1usize..6,
        slots in vec(
            (0.01f64..80.0, 0.2f64..1.0, 1.0f64..4.0, (0usize..4).prop_map(|h| h == 0),
             (0usize..4).prop_map(|o| o > 0)),
            1..30,
        ),
    ) {
        let Some(rp) = build(cols, &slots) else { return Ok(()) };
        let plan = rp.floorplan().expect("valid placements always solve");
        let block_area: f64 = plan.blocks().iter().map(|b| b.area()).sum();
        prop_assert!(
            plan.chip_area() >= block_area - 1e-9,
            "chip {} < blocks {}",
            plan.chip_area(),
            block_area
        );
        prop_assert!(plan.utilization() <= 1.0 + 1e-9);
        // The chip is exactly the constraint-graph extents: its area is
        // also bounded by (sum of column widths) x (sum of row heights),
        // which both exist and are positive.
        prop_assert!(plan.chip_width() > 0.0 && plan.chip_height() > 0.0);
    }

    #[test]
    fn link_length_is_symmetric(
        cols in 1usize..6,
        slots in vec(
            (0.01f64..80.0, 0.2f64..1.0, 1.0f64..4.0, (0usize..4).prop_map(|h| h == 0),
             (0usize..4).prop_map(|o| o > 0)),
            1..30,
        ),
    ) {
        let Some(rp) = build(cols, &slots) else { return Ok(()) };
        let plan = rp.floorplan().expect("valid placements always solve");
        let ids = solved_ids(&plan);
        for &a in &ids {
            prop_assert_eq!(plan.link_length(a, a), 0.0);
            for &b in &ids {
                let ab = plan.link_length(a, b);
                let ba = plan.link_length(b, a);
                prop_assert!(
                    (ab - ba).abs() < 1e-12,
                    "link_length({:?},{:?}) = {} but reverse = {}",
                    a, b, ab, ba
                );
            }
        }
    }

    #[test]
    fn soft_block_aspects_stay_in_their_declared_range(
        cols in 1usize..6,
        slots in vec(
            (0.01f64..80.0, 0.2f64..1.0, 1.0f64..4.0, (0usize..4).prop_map(|h| h == 0),
             (0usize..4).prop_map(|o| o > 0)),
            1..30,
        ),
    ) {
        let Some(rp) = build(cols, &slots) else { return Ok(()) };
        let plan = rp.floorplan().expect("valid placements always solve");
        for placed in plan.blocks() {
            let spec = rp.block(placed.id);
            prop_assert!(
                placed.aspect() >= spec.min_aspect - 1e-9
                    && placed.aspect() <= spec.max_aspect + 1e-9,
                "{}: aspect {} outside [{}, {}]",
                placed.id,
                placed.aspect(),
                spec.min_aspect,
                spec.max_aspect
            );
            prop_assert!(
                (placed.area() - spec.area).abs() < 1e-9 * spec.area.max(1.0),
                "{}: area drifted from {} to {}",
                placed.id,
                spec.area,
                placed.area()
            );
        }
    }

    #[test]
    fn spreading_rows_and_columns_apart_keeps_every_bit(
        cols in 1usize..6,
        slots in vec(
            (0.01f64..80.0, 0.2f64..1.0, 1.0f64..4.0, (0usize..4).prop_map(|h| h == 0),
             (0usize..4).prop_map(|o| o > 0)),
            1..30,
        ),
        row_gaps in vec(0usize..1_000_000, 6),
        col_gaps in vec(0usize..1_000_000, 6),
        far in (0usize..4).prop_map(|f| f == 0),
    ) {
        let Some(rp) = build(cols, &slots) else { return Ok(()) };
        // Row r moves to r + (gaps before it), so the order of the rows
        // and columns, and which blocks share one, stay the same; `far`
        // also pushes the last row and column to the end of usize.
        let spread = |gaps: &[usize], i: usize, last: usize| {
            if far && i == last && i > 0 {
                usize::MAX
            } else {
                i + gaps.iter().cycle().take(i).sum::<usize>()
            }
        };
        let ids: Vec<BlockId> = (0..rp.block_count()).map(BlockId).collect();
        let last_row = ids.iter().map(|&id| rp.position(id).0).max().unwrap_or(0);
        let last_col = ids.iter().map(|&id| rp.position(id).1).max().unwrap_or(0);
        let mut spread_rp = RelativePlacement::new();
        for &id in &ids {
            let (r, c) = rp.position(id);
            spread_rp.add_block(
                *rp.block(id),
                spread(&row_gaps, r, last_row),
                spread(&col_gaps, c, last_col),
            );
        }
        let plan = rp.floorplan().expect("valid placements always solve");
        let spread_plan = spread_rp.floorplan().expect("spread placements solve too");
        let bits = |p: &Floorplan| {
            let mut v = vec![p.chip_width().to_bits(), p.chip_height().to_bits()];
            for b in p.blocks() {
                v.extend([b.x, b.y, b.width, b.height].map(f64::to_bits));
            }
            v
        };
        prop_assert_eq!(bits(&plan), bits(&spread_plan));
    }
}
