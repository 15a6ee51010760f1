//! # nc-hw
//!
//! The hardware cost model and datapath simulators for the paper's
//! accelerator study (§4). The paper implemented every circuit at the RTL
//! level, synthesized it with Synopsys Design Compiler on the TSMC 65 nm
//! GPlus high-VT library, placed-and-routed it with IC Compiler, and
//! measured power with VCS + PrimeTime PX. None of that toolchain (nor
//! the NDA'd standard-cell library) is available here, so — per the
//! substitution rule in `DESIGN.md` §5 — this crate replaces the flow
//! with an *analytical cost model anchored to the paper's published
//! numbers*:
//!
//! * [`tech`] — the 65 nm operator library: per-operator area, the
//!   design-level clock-period anchors, and interpolation helpers. Every
//!   constant is traceable to a specific table of the paper.
//! * [`sram`] — the synaptic SRAM bank model of Table 6 (128-bit banks,
//!   area/energy linear in depth, bank-count rules derived from the
//!   bandwidth each folded design needs).
//! * [`expanded`] — spatially expanded designs (Table 4: every logical
//!   neuron/synapse gets hardware) and the small-scale layouts (Table 5).
//! * [`folded`] — spatially folded designs (Table 7: `ni`-input hardware
//!   neurons time-shared across the logical network).
//! * [`online`] — the SNN+STDP online-learning core (Table 9, Figure 12).
//! * [`truenorth`] — the re-implemented TrueNorth-like core (§5).
//! * [`gpu`] — the CUBLAS-sgemv GPU reference model (Table 8).
//! * [`ablation`] — design-choice ablations (spike-count width, SRAM
//!   bank width, max-tree fan-in).
//! * [`power`] — clock/datapath/SRAM power decomposition (the Table 5
//!   clock-share observation).
//! * [`scaling`] — the large-scale projection behind the paper's closing
//!   "SNNs win at very large spatially-expanded scale" observation.
//! * [`sim`] — cycle-level functional simulators of the folded datapaths,
//!   validated against the model-level implementations in `nc-mlp` /
//!   `nc-snn` (the same role the paper's RTL-vs-C++ validation plays).
//! * [`mesh`] — the many-core mesh deployment pipeline: partition /
//!   place / route plus a bit-exact distributed event simulator with
//!   dead-link / dead-router fault injection.
//! * [`report`] — the common area/delay/energy/cycles report type.
//!
//! # Examples
//!
//! ```
//! use nc_hw::folded::{FoldedMlp, FoldedSnnWot};
//! use nc_hw::report::HwReport;
//!
//! // The paper's MNIST networks at ni = 16 (Table 7).
//! let mlp = FoldedMlp::new(&[784, 100, 10], 16);
//! let snn = FoldedSnnWot::new(784, 300, 16);
//! let mlp_report: HwReport = mlp.report();
//! let snn_report: HwReport = snn.report();
//! // Folded MLP is ~2.6x smaller than folded SNNwot (paper: 2.57x).
//! let ratio = snn_report.total_area_mm2 / mlp_report.total_area_mm2;
//! assert!(ratio > 2.0 && ratio < 3.2, "ratio {ratio}");
//! ```

pub mod ablation;
pub mod expanded;
pub mod folded;
pub mod gpu;
pub mod mesh;
pub mod online;
pub mod power;
pub mod report;
pub mod scaling;
pub mod sim;
pub mod sram;
pub mod tech;
pub mod truenorth;

pub use report::HwReport;
