//! Many-core mesh deployment: partition / place / route (ROADMAP item 3).
//!
//! The paper's TrueNorth re-implementation ([`crate::truenorth`]) models
//! one 256-neuron core, but a real neuromorphic deployment is a *mesh*
//! of such cores joined by an on-chip network, and the SNN-hardware
//! literature treats that network as the dominant scaling cost. This
//! module family is the compiler-plus-board-simulator pipeline for that
//! deployment, in three stages mirroring an FPGA/emulation flow:
//!
//! * [`partition`] — splits a trained [`nc_snn::SnnNetwork`] (or a
//!   folded MLP's logical units) into clusters of at most
//!   [`partition::MAX_CLUSTER_NEURONS`] neurons by greedy cut
//!   minimization over the synapse affinity graph.
//! * [`place`] — maps clusters onto a W×H grid of simulated cores,
//!   minimizing traffic-weighted Manhattan distance.
//! * [`route`] — the XY dimension-ordered routing fabric: static paths,
//!   per-hop accounting, and the dead-link / dead-router fault masks
//!   drawn per core through the `nc-faults` salted-stream convention.
//! * [`sim`] — the many-core event simulator. On a healthy fabric it is
//!   **bit-exact** versus the single-core reference event loop —
//!   spike-for-spike and potential-for-potential — for every coding
//!   scheme; under fabric faults it degrades deterministically.
//!
//! The cost model folds into the existing `nc-hw` area/energy anchors:
//! per-core synaptic SRAM ([`crate::sram`]), the 1.5 kµm² LIF neuron
//! circuit and the 0.35 mm² router share used by [`crate::truenorth`],
//! plus a per-hop link energy constant below.

pub mod partition;
pub mod place;
pub mod route;
pub mod sim;

pub use partition::{partition_snn, Partition, MAX_CLUSTER_NEURONS};
pub use place::{place_greedy, Grid, Placement};
pub use route::{Fabric, PORTS_PER_ROUTER};
pub use sim::{MeshCost, MeshPresentation, MeshSnn};

/// Energy of one spike packet traversing one router-to-router hop
/// (link + router stage), pJ. 65 nm NoC surveys put a flit-hop in the
/// low single-digit pJ range; the value is chosen at that scale and,
/// like every constant here, matters only relatively (energy *vs grid
/// size* at fixed technology).
pub const HOP_ENERGY_PJ: f64 = 2.3;

/// Energy of one LIF membrane update, pJ — the same per-update figure
/// the TrueNorth core model charges ([`crate::truenorth`]).
pub const NEURON_UPDATE_PJ: f64 = 0.9;

/// Router + AER encode/decode area per core, µm² — the router share the
/// TrueNorth core model carries.
pub const ROUTER_AREA_UM2: f64 = 0.35e6;

/// Area of one LIF neuron circuit, µm² — the TrueNorth core figure.
pub const NEURON_AREA_UM2: f64 = 1500.0;

/// Link cycles available inside one biological tick: the mesh runs at a
/// 1 MHz physical clock against 1 ms ticks (the TrueNorth clocking
/// argument), so a link can move at most 1000 packets per tick. A
/// per-tick link load beyond this misses the delivery deadline.
pub const LINK_CYCLES_PER_TICK: u64 = 1000;
