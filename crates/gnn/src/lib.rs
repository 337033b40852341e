//! GNN models for the I-GCN reproduction.
//!
//! The paper evaluates three models — GCN, GraphSage and GIN — whose
//! forward propagation all reduce to Equation 1, `X' = σ(Ã X W)`, with
//! different normalisations of `Ã`. This crate provides:
//!
//! * [`model::GnnModel`] — layer configurations for the three models in
//!   both the "algo" setting (hidden widths from the original algorithm
//!   papers) and the "Hy" setting (HyGCN's 128 hidden channels);
//! * [`weights::ModelWeights`] — deterministic Glorot-initialised weights;
//! * [`mod@reference`] — a plain software forward pass used as ground truth for
//!   the islandized execution;
//! * [`workload`] — exact operation/traffic accounting per layer, the input
//!   to every latency model and to the Figure 10 overall-pruning numbers.

pub mod model;
pub mod reference;
pub mod weights;
pub mod workload;

pub use model::{Activation, GnnKind, GnnModel, LayerConfig, ModelConfig};
pub use reference::{reference_forward, reference_forward_layers};
pub use weights::ModelWeights;
pub use workload::{LayerWorkload, ModelWorkload};
