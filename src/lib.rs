//! # neurocmp
//!
//! A Rust reproduction of **"Neuromorphic Accelerators: A Comparison
//! Between Neuroscience and Machine-Learning Approaches"** (Du,
//! Ben-Dayan Rubin, Chen, He, Chen, Zhang, Wu, Temam — MICRO-48, 2015).
//!
//! The paper asks which family of hardware neural-network accelerator an
//! embedded-system designer should build: a machine-learning-style MLP
//! trained with back-propagation, or a neuroscience-style spiking network
//! (LIF neurons) trained with STDP. This crate re-exports the whole
//! reproduction stack:
//!
//! * [`substrate`] — fixed-point arithmetic, hardware RNGs (LFSR-31 and
//!   the four-LFSR CLT Gaussian generator), piecewise-linear function
//!   tables.
//! * [`dataset`] — deterministic synthetic stand-ins for MNIST, MPEG-7
//!   and the Spoken Arabic Digits (see `DESIGN.md` §5 for the
//!   substitution rationale).
//! * [`mlp`] — the MLP + BP model and its 8-bit quantized hardware path.
//! * [`snn`] — the event-driven LIF + STDP network with homeostasis,
//!   self-labeling, four input coding schemes, the SNNwot simplified
//!   variant and the SNN+BP diagnostic hybrid.
//! * [`hw`] — the 65 nm cost model (expanded/folded designs, SRAM banks,
//!   online-learning overhead, TrueNorth-like core, GPU reference) and
//!   cycle-level datapath simulators.
//! * [`core`] — the experiment framework that regenerates every table
//!   and figure of the paper.
//! * [`serve`] — the in-process batched inference service: trained-model
//!   snapshots, a deterministic admission-queue coalescer, and a seeded
//!   closed-loop load generator.
//!
//! # Quick start
//!
//! ```
//! use neurocmp::dataset::{digits::DigitsSpec, Difficulty, Model};
//! use neurocmp::mlp::{Activation, Mlp, TrainConfig, Trainer};
//! use neurocmp::hw::folded::FoldedMlp;
//!
//! // 1. Data: a small synthetic-digit task.
//! let (train, test) = DigitsSpec {
//!     train: 200, test: 50, seed: 1, difficulty: Difficulty::default(),
//! }.generate();
//!
//! // 2. Model: the paper's MLP, scaled down.
//! let mut mlp = Mlp::new(&[784, 16, 10], Activation::sigmoid(), 42).unwrap();
//! Trainer::new(TrainConfig { epochs: 5, ..Default::default() }).fit(&mut mlp, &train);
//! let accuracy = mlp.evaluate(&test).accuracy();
//! assert!(accuracy > 0.2);
//!
//! // 3. Hardware: what would the folded accelerator cost?
//! let report = FoldedMlp::new(&[784, 16, 10], 8).report();
//! assert!(report.total_area_mm2 > 0.0);
//! ```
//!
//! See the `examples/` directory for full scenarios and `crates/bench`
//! for the per-table/per-figure regeneration binaries.

pub use nc_core as core;
pub use nc_dataset as dataset;
pub use nc_hw as hw;
pub use nc_mlp as mlp;
pub use nc_serve as serve;
pub use nc_snn as snn;
pub use nc_substrate as substrate;
