//! Geometric stress tests for the floorplanner.

use sunmap_floorplan::{BlockId, BlockSpec, FloorplanError, RelativePlacement};

fn assert_sound(plan: &sunmap_floorplan::Floorplan) {
    let blocks = plan.blocks();
    for (i, a) in blocks.iter().enumerate() {
        assert!(a.x >= -1e-9 && a.y >= -1e-9, "{} out of chip", a.id);
        assert!(a.x + a.width <= plan.chip_width() + 1e-9);
        assert!(a.y + a.height <= plan.chip_height() + 1e-9);
        for b in &blocks[i + 1..] {
            assert!(!a.overlaps(b), "{} overlaps {}", a.id, b.id);
        }
    }
}

#[test]
fn wildly_heterogeneous_areas() {
    let mut rp = RelativePlacement::new();
    let areas = [0.01, 100.0, 0.5, 25.0, 1.0, 64.0, 0.1, 9.0, 4.0];
    for (i, area) in areas.iter().enumerate() {
        rp.add_block(BlockSpec::soft(*area), i / 3, i % 3);
    }
    let plan = rp.floorplan().unwrap();
    assert_sound(&plan);
    for (i, area) in areas.iter().enumerate() {
        let b = plan.block(BlockId(i));
        assert!((b.area() - area).abs() < 1e-9, "{} area drifted", b.id);
    }
}

#[test]
fn a_single_row_becomes_a_strip() {
    let mut rp = RelativePlacement::new();
    for c in 0..6 {
        rp.add_block(BlockSpec::soft(4.0), 0, c);
    }
    let plan = rp.floorplan().unwrap();
    assert_sound(&plan);
    assert!(plan.chip_width() > plan.chip_height());
    // Equal-area soft blocks in one row pack perfectly.
    assert!(plan.utilization() > 0.99);
}

#[test]
fn hard_blocks_stay_square_among_soft_neighbours() {
    let mut rp = RelativePlacement::new();
    rp.add_block(BlockSpec::hard(9.0), 0, 0);
    rp.add_block(BlockSpec::soft(2.0), 0, 1);
    rp.add_block(BlockSpec::soft(2.0), 1, 0);
    let plan = rp.floorplan().unwrap();
    assert_sound(&plan);
    let rom = plan.block(BlockId(0));
    assert!((rom.aspect() - 1.0).abs() < 1e-9);
    assert!((rom.width - 3.0).abs() < 1e-9);
}

#[test]
fn tiny_areas_do_not_degenerate() {
    let mut rp = RelativePlacement::new();
    rp.add_block(BlockSpec::soft(1e-6), 0, 0);
    rp.add_block(BlockSpec::soft(1e3), 0, 1);
    let plan = rp.floorplan().unwrap();
    assert_sound(&plan);
    assert!(plan.block(BlockId(0)).width > 0.0);
    assert!(plan.chip_area() >= 1e3);
}

#[test]
fn link_length_is_symmetric_and_triangleish() {
    let mut rp = RelativePlacement::new();
    let ids: Vec<BlockId> = (0..9)
        .map(|i| rp.add_block(BlockSpec::soft(2.0 + i as f64), i / 3, i % 3))
        .collect();
    let plan = rp.floorplan().unwrap();
    for &a in &ids {
        assert_eq!(plan.link_length(a, a), 0.0);
        for &b in &ids {
            assert!((plan.link_length(a, b) - plan.link_length(b, a)).abs() < 1e-12);
            for &c in &ids {
                // Manhattan distance triangle inequality.
                assert!(
                    plan.link_length(a, c)
                        <= plan.link_length(a, b) + plan.link_length(b, c) + 1e-9
                );
            }
        }
    }
}

#[test]
fn collision_reports_the_exact_slot() {
    let mut rp = RelativePlacement::new();
    rp.add_block(BlockSpec::soft(1.0), 2, 5);
    rp.add_block(BlockSpec::soft(1.0), 2, 5);
    match rp.floorplan() {
        Err(FloorplanError::SlotCollision { row: 2, col: 5 }) => {}
        other => panic!("expected collision at (2,5), got {other:?}"),
    }

    // Two distinct collisions: (7, 1) is taken again by b3, (0, 4) by
    // b4. The reported slot is that of the first block, in block order,
    // whose slot an earlier block holds (b3), although (0, 4) sorts
    // first by row.
    let mut rp = RelativePlacement::new();
    for (row, col) in [(0, 4), (7, 1), (3, 3), (7, 1), (0, 4)] {
        rp.add_block(BlockSpec::soft(1.0), row, col);
    }
    assert_eq!(
        rp.floorplan().unwrap_err(),
        FloorplanError::SlotCollision { row: 7, col: 1 }
    );
}

#[test]
fn utilization_degrades_gracefully_with_sparsity() {
    // A diagonal placement wastes most of the chip; utilisation must
    // reflect that without violating geometry.
    let mut rp = RelativePlacement::new();
    for i in 0..4 {
        rp.add_block(BlockSpec::soft(4.0), i, i);
    }
    let plan = rp.floorplan().unwrap();
    assert_sound(&plan);
    assert!(plan.utilization() < 0.5);
    assert!(plan.utilization() > 0.2);
}
