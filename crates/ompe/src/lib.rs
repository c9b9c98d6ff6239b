//! # ppcs-ompe
//!
//! Oblivious Multivariate Polynomial Evaluation (Tassa, Jarrous,
//! Ben-Ya'akov — J. Math. Cryptol. 2013), the protocol every ppcs scheme
//! is built on (Section III-C of the ICDCS'16 paper).
//!
//! The **sender** holds a secret `r`-variate polynomial `P` of public
//! total degree ≤ `degree_bound`; the **receiver** holds a private input
//! vector `α ∈ Aʳ`. After the protocol the receiver knows `P(α)` and
//! nothing else about `P`; the sender learns nothing about `α`.
//!
//! Construction: the receiver hides each `α_i` as the constant term of a
//! random degree-`σ` polynomial `S_i`, submits `N = n·m` evaluation
//! points of which only `n = σ·degree_bound + 1` are genuine covers
//! `(x, S(x))` — the abscissae are the public points `x = 1, …, N`, so
//! only the `y` travel — and the sender answers with `Q(x, y) = M(x) + P(y)` where
//! `M` is a random masking polynomial with `M(0) = 0`. An n-out-of-N
//! oblivious transfer delivers the cover values; Lagrange interpolation
//! at zero strips the mask: `R(0) = M(0) + P(S(0)) = P(α)`.
//!
//! The protocol computes over the 256-bit prime field
//! ([`FixedFpAlgebra`](ppcs_math::FixedFpAlgebra)): the masks hide their
//! payload only over a finite field. It is generic over the
//! [`ObliviousTransfer`](ppcs_ot::ObliviousTransfer) engine, which it
//! sees as an [`OtSelect`](ppcs_ot::OtSelect).
//!
//! Both roles are sans-I/O: async functions over a
//! [`FrameIo`](ppcs_transport::FrameIo) mailbox that never see a
//! transport. The caller wraps a role in a
//! [`ProtocolEngine`](ppcs_transport::ProtocolEngine) and runs it under
//! any driver — the blocking `drive_blocking` over a connection, the
//! reactor, or, as below, the two engines pumped against each other.
//!
//! ## Example
//!
//! ```
//! use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
//! use ppcs_ompe::{ompe_receive_io, ompe_send_io, OmpeParams};
//! use ppcs_ot::{ObliviousTransfer, TrustedSimOt};
//! use ppcs_transport::{run_engine_pair, ProtocolEngine};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let alg = &FixedFpAlgebra::new(16);
//! // Sender's secret: P(y1, y2) = 2·y1 - 3·y2 + 0.5, inputs at scale 1.
//! let weights = [alg.encode(2.0, 1), alg.encode(-3.0, 1)];
//! let secret = &MvPolynomial::affine(alg, &weights, alg.encode(0.5, 2));
//! let alpha = &[alg.encode(1.0, 1), alg.encode(2.0, 1)];
//! let params = &OmpeParams::new(1, 4, 3).unwrap();
//! let sel = TrustedSimOt.select();
//!
//! let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
//! let mut sender = ProtocolEngine::new(|io| async move {
//!     ompe_send_io(alg, &io, sel, &mut rng_s, secret, params).await
//! });
//! let mut receiver = ProtocolEngine::new(|io| async move {
//!     ompe_receive_io(alg, &io, sel, &mut rng_r, alpha, params).await
//! });
//! let (send_res, value) = run_engine_pair(&mut sender, &mut receiver).unwrap();
//! send_res.unwrap();
//! assert_eq!(alg.decode(&value.unwrap(), 2), 2.0 - 6.0 + 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod offline;
mod protocol;
mod session;

pub use error::OmpeError;
pub use offline::{
    ompe_receive_batch_offline_io, ompe_send_batch_offline_io, ompe_send_offline_io,
    params_fingerprint, BlindRound, OmpeReceiverOffline, OmpeSenderOffline,
};
pub use protocol::{ompe_receive_io, ompe_send_io, OmpeParams};
pub use session::{
    ompe_receive_batch_io, ompe_send_batch_io, OmpeReceiverSession, OmpeSenderSession,
    PreparedRound,
};
