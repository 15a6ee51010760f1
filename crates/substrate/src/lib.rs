//! # nc-substrate
//!
//! Numeric substrate shared by every other `neurocmp` crate. It mirrors,
//! in software, the low-level hardware building blocks that the paper's
//! accelerators are made of:
//!
//! * [`fixed`] — the audited saturating conversions that narrow a value
//!   onto an 8-bit datapath register (weights, activations, potentials).
//! * [`rng`] — the hardware random number generators: a 31-bit LFSR with
//!   primitive polynomial `x^31 + x^3 + 1` and the central-limit-theorem
//!   Gaussian generator built from four LFSRs (paper §4.2.2), plus a
//!   Poisson-interval sampler used by the software model (paper §3.1).
//! * [`interp`] — 16-point piecewise-linear interpolation, the mechanism
//!   the hardware uses for both the sigmoid (`f(x) = a_i·x + b_i`, paper
//!   §4.2.1) and the exponential leak of the LIF neuron (paper §4.4).
//! * [`kernel`] — the shared hot-path kernels: blocked integer GEMM with
//!   i64 adder-tree semantics, the fixed-point activation table, the
//!   scratch that keeps inference allocation-free, and the float BP
//!   kernel that skips zero inputs.
//! * [`stats`] — small statistics helpers used by tests and the experiment
//!   harness (running mean and variance, confusion matrix).
//! * [`check`] — the seeded-loop property-test harness the invariant
//!   tests are written against (std-only, deterministic replay).
//!
//! # Examples
//!
//! ```
//! use nc_substrate::fixed::sat_u8_from_i32;
//! use nc_substrate::rng::Lfsr31;
//! use nc_substrate::interp::PiecewiseLinear;
//!
//! // Saturating 8-bit weight update as in the STDP datapath.
//! assert_eq!(sat_u8_from_i32(250 + 10), 255);
//!
//! // Hardware uniform random source.
//! let mut lfsr = Lfsr31::new(0x1234_5678);
//! let _bits = lfsr.next_u31();
//!
//! // 16-segment sigmoid, exactly what the MLP accelerator stores in SRAM.
//! let sigmoid = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
//! let y = sigmoid.eval(0.0);
//! assert!((y - 0.5).abs() < 1e-2);
//! ```

pub mod check;
pub mod fixed;
pub mod interp;
pub mod kernel;
pub mod rng;
pub mod stats;

pub use interp::PiecewiseLinear;
pub use kernel::{FixedActLut, Scratch};
pub use rng::{noise_seed, GaussianClt, Lfsr31, PoissonInterval, SplitMix64};
