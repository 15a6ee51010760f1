//! # nc-mlp
//!
//! The machine-learning side of the paper's comparison: a Multi-Layer
//! Perceptron trained with Back-Propagation (paper §2.1), together with
//! the hardware-faithful 8-bit quantized inference path used by the
//! accelerator cost study (paper §4.2.1).
//!
//! The crate provides:
//!
//! * [`activation`] — the parameterized sigmoid family `f_a(x) =
//!   1/(1+e^{-a·x})` and the `[0/1]` step function used by the
//!   sigmoid→step bridging experiment (paper §3.2, Figures 5–6), plus the
//!   16-point piecewise-linear sigmoid the silicon evaluates.
//! * [`network`] — the MLP itself: dense layers, feed-forward inference.
//! * [`trainer`] — stochastic back-propagation exactly as the paper
//!   states it: `w(t+1) = w(t) + η·δ(t)·y(t)` with the output/hidden
//!   gradient expressions of §2.1.
//! * [`quant`] — fixed-point inference (configurable-width weights,
//!   8-bit activations and the LUT sigmoid), the datapath that the
//!   `nc-hw` cost model prices.
//! * [`explore`] — the §3.1 hyper-parameter random search and the §4.2.3
//!   weight-precision sweep.
//! * [`model`] — the [`Model`](nc_dataset::model::Model) implementations
//!   for both networks; every model scores through the trait's one
//!   batched path, which produces the shared confusion matrix.
//!
//! # Examples
//!
//! ```
//! use nc_dataset::model::Model;
//! use nc_dataset::{digits::DigitsSpec, Difficulty};
//! use nc_mlp::activation::Activation;
//! use nc_mlp::network::Mlp;
//! use nc_mlp::trainer::{Trainer, TrainConfig};
//!
//! let (train, test) = DigitsSpec {
//!     train: 200, test: 50, seed: 1, difficulty: Difficulty::default(),
//! }.generate();
//!
//! let mut mlp = Mlp::new(&[28 * 28, 20, 10], Activation::sigmoid(), 42).unwrap();
//! let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
//! Trainer::new(cfg).fit(&mut mlp, &train);
//! let acc = mlp.evaluate(&test).accuracy();
//! assert!(acc > 0.15); // well above 10% chance even with 3 epochs
//! ```

pub mod activation;
pub mod explore;
pub mod model;
pub mod network;
pub mod quant;
pub mod trainer;

pub use activation::Activation;
pub use network::{Mlp, MlpError};
pub use quant::QuantizedMlp;
pub use trainer::{TrainConfig, Trainer};
