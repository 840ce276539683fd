//! # SUNMAP: automatic NoC topology selection and generation
//!
//! A Rust reproduction of *"SUNMAP: A Tool for Automatic Topology
//! Selection and Generation for NoCs"* (Murali & De Micheli, DAC 2004).
//!
//! Given an application *core graph* (cores plus directed bandwidth
//! demands), SUNMAP:
//!
//! 1. **maps** the cores onto every topology in a library — mesh,
//!    torus, hypercube, 3-stage Clos, k-ary n-fly butterfly — under a
//!    chosen routing function and design objective, checking bandwidth
//!    and area constraints with a built-in floorplanner and 0.1 µm
//!    area–power libraries (phase 1);
//! 2. **selects** the best topology among the feasible mappings
//!    (phase 2);
//! 3. **generates** the network components of the chosen NoC as
//!    SystemC-style soft macros (phase 3).
//!
//! # Quickstart
//!
//! ```
//! use sunmap::{Objective, RoutingFunction, Sunmap};
//! use sunmap::traffic::benchmarks;
//!
//! // The paper's VOPD benchmark: 12 cores, 500 MB/s links.
//! let tool = Sunmap::builder(benchmarks::vopd())
//!     .link_capacity(500.0)
//!     .routing(RoutingFunction::MinPath)
//!     .objective(Objective::MinPower)
//!     .build();
//! let exploration = tool.explore()?;
//! let best = exploration.best_candidate().expect("VOPD maps feasibly");
//! // §6.1: the butterfly wins for VOPD.
//! assert_eq!(best.kind.name(), "Butterfly");
//! # Ok::<(), sunmap::SunmapError>(())
//! ```
//!
//! The subsystem crates are re-exported as modules: [`topology`],
//! [`traffic`], [`floorplan`], [`power`], [`mapping`], [`sim`] and
//! [`gen`]. Every surface runs phases 1–2 through one executor into one
//! [`Exploration`], which the text table, the JSON report, generation,
//! validation and probes render: [`Sunmap`] builds each route table in
//! turn, while [`request`] (one serializable [`ExploreRequest`], one
//! validate path) keeps them warm for [`batch`] grids sharded across
//! threads and for the [`serve`] daemon with its live [`metrics`]. The
//! [`frame`] module is the shared length-prefixed wire codec, and
//! [`shard`] scales a batch across fault-tolerant worker *processes*:
//! an IO-free coordinator/worker state-machine pair whose chaos
//! harness lives in [`shard_sim`].

pub mod batch;
mod flow;
pub mod frame;
mod json;
pub mod metrics;
mod pareto;
pub mod request;
pub mod schema;
pub mod serve;
pub mod shard;
pub mod shard_sim;
mod sweep;

pub use flow::{
    Exploration, GeneratedDesign, Sunmap, SunmapBuilder, SunmapError, TopologyCandidate,
    Validation, ValidationEntry,
};
pub use pareto::{pareto_front, ParetoPoint};
pub use sweep::{pareto_exploration, routing_bandwidth_sweep, RoutingSweepEntry};

/// Re-export of the floorplanner crate.
pub use sunmap_floorplan as floorplan;
/// Re-export of the component-generator crate.
pub use sunmap_gen as gen;
/// Re-export of the mapping-engine crate.
pub use sunmap_mapping as mapping;
/// Re-export of the area–power model crate.
pub use sunmap_power as power;
/// Re-export of the NoC simulator crate.
pub use sunmap_sim as sim;
/// Re-export of the topology library crate.
pub use sunmap_topology as topology;
/// Re-export of the traffic-model crate.
pub use sunmap_traffic as traffic;

pub use request::ExploreRequest;

// The names a typical user needs, at the crate root.
pub use sunmap_mapping::{
    Constraints, CostReport, Mapper, MapperConfig, Mapping, MappingError, Objective,
    RoutingFunction, SwapStrategy, TablePrep,
};
pub use sunmap_topology::{TopologyGraph, TopologyKind};
pub use sunmap_traffic::{AppSource, CoreGraph};
