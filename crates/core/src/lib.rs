//! # ppcs-core
//!
//! The protocols of *"Privacy-preserving Data Classification and
//! Similarity Evaluation for Distributed Systems"* (Jia, Guo, Jin,
//! Fang — ICDCS 2016):
//!
//! * **Private classification** (Section IV): a [`Trainer`] serves its
//!   SVM decision function through oblivious multivariate polynomial
//!   evaluation; a [`Client`] learns only the class of each private
//!   sample. A nonlinear kernel is served as a polynomial in the
//!   sample's coordinates ([`expansion`]); the client hides those
//!   coordinates, whatever the kernel.
//! * **Private similarity evaluation** (Section V): two trainers
//!   compute the bounded-hyperplane triangle-area metric
//!   `T² = ¼(L⁴+L₀⁴)(sin²θ+sin²θ₀)` without revealing either model
//!   ([`similarity_request`] / [`similarity_respond`]).
//! * **Privacy experiments** (Section VI-A): the collusion attacks the
//!   amplifier randomization defeats ([`privacy`]).
//!
//! Classification batches run through per-session OMPE state (mask and
//! cover-polynomial storage set up once, one OT base-phase commitment
//! per batch) with all point clouds coalesced into a single framed
//! write, and can be spread across independent transport lanes with
//! [`Client::classify_batch_parallel`] against one [`TrainerServer`],
//! which serves every lane (and every TCP connection) from one reactor
//! thread.
//!
//! Every role is implemented **sans-I/O**: the `*_io` twins
//! ([`Trainer::serve_io`], [`Client::classify_batch_values_io`],
//! [`similarity_respond_io`], …) run over a
//! [`ppcs_transport::FrameIo`] mailbox and never touch a transport; the
//! blocking entry points wrap them in a
//! [`ppcs_transport::ProtocolEngine`] pumped by
//! [`ppcs_transport::drive_blocking`]. [`Trainer::serve_engine`] /
//! [`Client::classify_engine`] package a role with an owned seeded RNG
//! so sessions can be driven over any backend, recorded to a
//! [`ppcs_transport::Transcript`], and replayed deterministically.
//!
//! Every protocol computes over the 256-bit prime field: models and
//! samples are fixed-point encoded into it
//! ([`ppcs_math::FixedFpAlgebra`]), the one setting in which the OMPE
//! masks hide their payload; plain-float evaluations such as
//! `SvmModel::predict` and [`similarity_plain`] are the oracles the
//! private results are checked against. Every protocol is generic over
//! the OT engine ([`ppcs_ot::NaorPinkasOt`] / [`ppcs_ot::TrustedSimOt`]).
//!
//! See the crate examples in `examples/` for end-to-end scenarios
//! (e-commerce trend testing, hospital diagnosis, partner matching).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod config;
mod error;
pub mod expansion;
mod fleet;
mod multiclass;
mod precompute;
pub mod privacy;
mod server;
mod similarity;

pub use classify::{ClassifySpec, Client, Trainer, WarmSessionCache, MAX_BATCH_SAMPLES};
pub use config::ProtocolConfig;
pub use error::PpcsError;
pub use expansion::{expand_model, BasisKind, ExpandedDecision};
pub use fleet::{
    BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker, Connector, FleetClient,
    FleetClock, FleetConfig, ManualClock, SystemClock,
};
pub use multiclass::{MultiClassClient, MultiClassMode, MultiClassTrainer};
pub use precompute::PrecomputePool;
pub use server::{ServeSummary, ServerConfig, SessionSupervisor, TrainerServer};
pub use similarity::{
    boundary_points_decision, boundary_points_linear, centroid, cos2_between, direction_input,
    similarity_plain, similarity_plain_geometry, similarity_request, similarity_request_geometry,
    similarity_request_geometry_io, similarity_request_io, similarity_respond,
    similarity_respond_geometry, similarity_respond_geometry_io,
    similarity_respond_geometry_offline_io, similarity_respond_io, triangle_area_squared,
    ModelGeometry, SimilarityConfig, SimilarityResponderOffline,
};
