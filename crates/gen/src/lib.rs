//! Network component generation for SUNMAP (paper phase 3).
//!
//! The paper's third phase hands the chosen topology and mapping to the
//! ×pipesCompiler, which instantiates SystemC soft macros for switches,
//! links and network interfaces and stitches them into a simulatable
//! design. This crate is the equivalent generator: it builds a
//! structural [`Netlist`] from a mapping and emits
//!
//! * SystemC-style C++ source files ([`emit_systemc`]) with one module
//!   per switch configuration, a network-interface module and a
//!   top-level that instantiates and binds everything, and
//! * a Graphviz view ([`emit_dot`]) of the generated network.
//!
//! The emitted SystemC is *structural documentation* of the design —
//! cycle-accurate simulation happens in `sunmap_sim` — but it follows
//! the ×pipes conventions (flit ports, credit signals, per-stage
//! pipelining parameters) closely enough to read like the real output.
//!
//! # Examples
//!
//! ```
//! use sunmap_gen::{build_netlist, emit_systemc};
//! use sunmap_mapping::{Mapper, MapperConfig};
//! use sunmap_topology::builders;
//! use sunmap_traffic::benchmarks;
//!
//! let mesh = builders::mesh(2, 3, 1000.0)?;
//! let dsp = benchmarks::dsp_filter();
//! let mapping = Mapper::new(&mesh, &dsp, MapperConfig::default()).run()?;
//! let netlist = build_netlist(&mesh, &dsp, mapping.placement());
//! let files = emit_systemc(&netlist, "dsp_design");
//! assert!(files.iter().any(|f| f.name == "top_dsp_design.cpp"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod netlist;
mod systemc;

pub use netlist::{build_netlist, Component, Connection, LinkKind, Netlist};
pub use systemc::{emit_dot, emit_systemc, SourceFile};
