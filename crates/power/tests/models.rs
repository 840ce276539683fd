//! Model-consistency tests for the area/power libraries.

use sunmap_power::{
    link_power, switch_area, switch_energy_per_bit, switch_power, AreaPowerLibrary, SwitchConfig,
    Technology, WireModel,
};

#[test]
fn paper_magnitudes_hold_at_0_1_um() {
    let t = Technology::um_0_10();
    // A 3x4 mesh's worth of switches (paper VOPD) lands in single-digit
    // mm² — small next to ~50 mm² of cores, as Fig. 3d implies.
    let mut total = 0.0;
    for p in [3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5usize] {
        total += switch_area(SwitchConfig::symmetric(p), t);
    }
    assert!(total > 3.0 && total < 12.0, "mesh switch area {total}");
    // VOPD-scale traffic through 2.25 hops of such switches: hundreds
    // of mW (paper: 372 mW for the mesh).
    let per_switch = switch_power(SwitchConfig::symmetric(4), t, 3838.0);
    let design = per_switch * 2.25;
    assert!(design > 100.0 && design < 1000.0, "power {design}");
}

#[test]
fn energy_decomposition_is_additive_in_buffer_depth() {
    let t = Technology::um_0_10();
    let base = SwitchConfig::symmetric(4);
    let deeper = SwitchConfig {
        buffer_depth: 8,
        ..base
    };
    let delta = switch_energy_per_bit(deeper, t) - switch_energy_per_bit(base, t);
    let delta2 = switch_energy_per_bit(
        SwitchConfig {
            buffer_depth: 12,
            ..base
        },
        t,
    ) - switch_energy_per_bit(deeper, t);
    assert!((delta - delta2).abs() < 1e-18, "buffer term must be linear");
}

#[test]
fn area_is_linear_in_flit_width() {
    let t = Technology::um_0_10();
    let w32 = switch_area(SwitchConfig::symmetric(5), t);
    let w64 = switch_area(
        SwitchConfig {
            flit_width: 64,
            ..SwitchConfig::symmetric(5)
        },
        t,
    );
    assert!((w64 / w32 - 2.0).abs() < 1e-9);
}

#[test]
fn library_is_consistent_with_free_functions_across_configs() {
    let t = Technology::um_0_18();
    let lib = AreaPowerLibrary::new(t);
    for p in 2..=8 {
        for (inp, outp) in [(p, p), (p, p + 1), (p + 1, p)] {
            let cfg = SwitchConfig::new(inp, outp);
            assert_eq!(lib.area(cfg), switch_area(cfg, t));
            assert_eq!(lib.energy_per_bit(cfg), switch_energy_per_bit(cfg, t));
        }
    }
}

#[test]
fn wire_energy_ordering_vs_switch_sizes() {
    // Even a 10 mm wire costs less per bit than two 5x5 switch
    // traversals — the §6.1 argument that longer butterfly links are a
    // good trade for one fewer hop.
    let t = Technology::um_0_10();
    let wire10mm = WireModel::um_0_10().energy_per_bit_mm(t) * 10.0;
    let two_switches = 2.0 * switch_energy_per_bit(SwitchConfig::symmetric(5), t);
    assert!(wire10mm < two_switches);
}

#[test]
fn link_power_zero_for_zero_length_or_traffic() {
    let t = Technology::um_0_10();
    let w = WireModel::um_0_10();
    assert_eq!(link_power(w, t, 0.0, 5.0), 0.0);
    assert_eq!(link_power(w, t, 500.0, 0.0), 0.0);
}

#[test]
fn technology_presets_are_internally_consistent() {
    let fine = Technology::um_0_10();
    let coarse = Technology::um_0_18();
    assert!(coarse.length_scale() > fine.length_scale());
    assert!((fine.length_scale() - 1.0).abs() < 1e-12);
    assert!((coarse.length_scale() - 1.8).abs() < 1e-12);
    // Area scales quadratically with feature size.
    assert!((coarse.area_scale() - 1.8 * 1.8).abs() < 1e-9);
}
