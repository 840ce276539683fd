//! Ablation studies for the mapper's main design choices.
//!
//! 1. **Quadrant graphs** (paper §4.1: "large computational time
//!    savings ... as the number of nodes in a quadrant graph is much
//!    smaller than the total NoC nodes"): Dijkstra restricted to the
//!    quadrant vs the full graph, on an 8x8 mesh.
//! 2. **Pair-wise swap refinement** (Fig. 5 steps 9-10): mapping
//!    quality with 0 vs 4 improvement passes.
//! 3. **Greedy seeding** (Fig. 5 step 1): the greedy initial mapping vs
//!    a naive identity placement, measured by the delay cost before any
//!    swapping.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sunmap::mapping::{evaluate, Constraints, Placement};
use sunmap::power::{AreaPowerLibrary, Technology};
use sunmap::topology::{builders, paths, quadrant};
use sunmap::traffic::benchmarks;
use sunmap::{Mapper, MapperConfig, Objective, RoutingFunction};

fn print_swap_and_seed_ablations() {
    let vopd = benchmarks::vopd();
    let mesh = builders::mesh(3, 4, 500.0).unwrap();

    println!("== Ablation: pair-wise swap passes (VOPD on mesh, min-delay) ==");
    for passes in [0usize, 1, 4] {
        let cfg = MapperConfig {
            max_swap_passes: passes,
            ..MapperConfig::new(RoutingFunction::MinPath, Objective::MinDelay)
        };
        let m = Mapper::new(&mesh, &vopd, cfg).run().expect("feasible");
        println!(
            "  passes={passes}: avg hops {:.3}, power {:.1} mW, {} candidates evaluated",
            m.report().avg_hops,
            m.report().power_mw,
            m.evaluated_candidates()
        );
    }

    println!("\n== Ablation: greedy seed vs identity placement (no swaps) ==");
    let cfg_no_swaps = MapperConfig {
        max_swap_passes: 0,
        ..MapperConfig::default()
    };
    let greedy = Mapper::new(&mesh, &vopd, cfg_no_swaps)
        .run()
        .expect("feasible");
    let identity = Placement::new(mesh.mappable_nodes()[..12].to_vec(), &mesh).unwrap();
    let mut lib = AreaPowerLibrary::new(Technology::um_0_10());
    let naive = evaluate(
        &mesh,
        &vopd,
        identity,
        RoutingFunction::MinPath,
        &mut lib,
        &Constraints::default(),
    )
    .expect("identity placement evaluates");
    println!(
        "  greedy seed: avg hops {:.3}; identity: avg hops {:.3}",
        greedy.report().avg_hops,
        naive.report.avg_hops
    );
}

fn bench(c: &mut Criterion) {
    print_swap_and_seed_ablations();

    // Quadrant-graph computational-savings ablation on a larger mesh,
    // where the effect is most visible.
    let mesh = builders::mesh(8, 8, 500.0).unwrap();
    let pairs: Vec<_> = {
        let nodes = mesh.mappable_nodes().to_vec();
        (0..nodes.len())
            .flat_map(|i| {
                let nodes = nodes.clone();
                (0..nodes.len())
                    .filter(move |j| i != *j)
                    .map(move |j| (nodes[i], nodes[j]))
            })
            .step_by(13)
            .collect()
    };
    println!(
        "\n== Ablation: quadrant vs full-graph Dijkstra (8x8 mesh, {} pairs) ==",
        pairs.len()
    );

    let mut group = c.benchmark_group("quadrant_ablation");
    group.sample_size(20);
    group.bench_function("dijkstra_on_quadrant", |b| {
        b.iter(|| {
            for &(s, d) in &pairs {
                let q = quadrant::quadrant_set(&mesh, s, d);
                black_box(paths::dijkstra(&mesh, s, d, Some(&q), |_| 1.0));
            }
        })
    });
    group.bench_function("dijkstra_on_full_graph", |b| {
        b.iter(|| {
            for &(s, d) in &pairs {
                black_box(paths::dijkstra(&mesh, s, d, None, |_| 1.0));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
