//! # ppcs-ot
//!
//! Oblivious transfer, the cryptographic workhorse of the ppcs protocols
//! (Section III-B of the paper): 1-out-of-2, 1-out-of-N, and k-out-of-N
//! transfers, all over in-tree primitives.
//!
//! Three interchangeable engines implement the [`ObliviousTransfer`] trait:
//!
//! * [`NaorPinkasOt`] — real public-key OT: Naor–Pinkas 1-out-of-N
//!   (their Protocol 3.1) once per opened position, over the RFC 3526
//!   MODP-2048 group (a 768-bit group is available for tests);
//! * [`IknpOt`] — the same k-of-N functionality by the classic reduction
//!   to 1-out-of-2 transfers, run over the IKNP OT *extension*: `κ = 128`
//!   base OTs amortized across the whole batch, the engine of choice for
//!   selection-heavy sessions;
//! * [`TrustedSimOt`] — an ideal-functionality stand-in that lets the
//!   benchmark harness sweep paper-scale workloads (32k-sample datasets)
//!   without paying thousands of modular exponentiations per sample. It
//!   is clearly labeled and never used where OT security is the claim
//!   under test.
//!
//! ## Sans-I/O roles
//!
//! Every protocol here is transport-free role logic over a
//! [`FrameIo`](ppcs_transport::FrameIo) mailbox: the `*_io` functions.
//! No `Endpoint` appears in this crate; a caller wraps a role in a
//! [`ProtocolEngine`](ppcs_transport::ProtocolEngine) and hands it to
//! whichever driver it runs (blocking, reactor, in-memory pair,
//! transcript replay). An engine is a name plus an [`OtSelect`] value
//! (from [`ObliviousTransfer::select`]); role code that must stay generic
//! over the engine calls the [`ot_send_list_io`] / [`ot_receive_list_io`]
//! dispatchers (or their one-transfer forms [`ot_send_io`] /
//! [`ot_receive_io`]). The Naor–Pinkas building blocks
//! ([`commit_c_io`] / [`receive_c_io`], [`ot12_send_io`] /
//! [`ot12_receive_io`] and their precommitted forms, [`otkn_send_io`] /
//! [`otkn_receive_io`] — 1-out-of-N is its `k = 1`) are exported for the
//! protocol-level tests and the benchmark's layer ladder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod base;
mod error;
mod ext;
mod kn;
mod knx;
mod offline;

pub use api::{
    ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_receive_list_io, ot_send_io,
    ot_send_list_io, NaorPinkasOt, ObliviousTransfer, OtBatchState, OtSelect, TrustedSimOt,
};
pub use base::{
    commit_c_io, ot12_receive_io, ot12_receive_precommitted_io, ot12_send_io,
    ot12_send_precommitted_io, receive_c_io, ReceiverCommitment, SenderCommitment,
};
pub use error::OtError;
pub use kn::{otkn_receive_io, otkn_send_io};
pub use knx::IknpOt;
pub use offline::{ot_begin_send_precomputed_io, select_fingerprint, OtOfflineCommitment};
