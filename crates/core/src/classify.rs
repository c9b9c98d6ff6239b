//! Privacy-preserving data classification (Section IV of the paper).
//!
//! Roles: the **trainer** (Alice) holds a trained SVM; the **client**
//! (Bob) holds unlabeled samples. After a session the client knows only
//! the predicted class of each sample — the sign of an
//! amplifier-randomized decision value — and the trainer has learned
//! nothing about the samples.
//!
//! Linear models run OMPE directly on the decision function
//! `d(t) = wᵀt + b` (§IV-A). Nonlinear models are first rewritten as a
//! degree-`p` polynomial in the coordinates of `t` (§IV-B, see
//! [`expansion`](crate::expansion)) and served the same way: the client
//! hides the `n` coordinates of `t̃` — never the monomials — and the
//! trainer evaluates the polynomial on each submitted `n`-vector, so the
//! composite polynomial has degree `p·q` and `p·q + 1` positions are
//! opened, as in the paper. Every model, linear included, is one
//! [`DensePoly`] behind one code path.
//!
//! **Fixed point.** Inputs sit at scale 1. A degree-`j` coefficient of a
//! degree-`p` model is encoded at scale `COEFF_SCALE + (p − j)`, the bias
//! at `p + COEFF_SCALE`, so every term of the evaluated polynomial — and
//! the value the client decodes — sits at scale `p + COEFF_SCALE` (2 for
//! a linear model). [`Trainer::new`] refuses a degree the field cannot
//! hold at that scale.
//!
//! A **fresh amplifier `r_a` is drawn per classification**: Section VI-A
//! shows that reusing one would let a colluding client reconstruct the
//! hyperplane from `n + 1` exact distance values (the tangent attack of
//! Fig. 6, implemented in [`privacy`](crate::privacy)).

use std::collections::HashMap;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::task::Poll;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppcs_math::{expanded_dimension, Algebra, DensePoly, FixedFpAlgebra, Fp256, PolyEval};
use ppcs_ompe::{
    ompe_receive_batch_io, ompe_receive_batch_offline_io, ompe_receive_io, ompe_send_batch_io,
    ompe_send_batch_offline_io, ompe_send_io, ompe_send_offline_io, params_fingerprint, OmpeError,
    OmpeParams, OmpeReceiverOffline, OmpeSenderOffline,
};
use ppcs_ot::{ObliviousTransfer, OtError, OtSelect};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_telemetry::Phase;
use ppcs_transport::{drive_blocking, Encodable, FrameIo, Lane, ProtocolEngine, TransportError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::config::ProtocolConfig;
use crate::error::PpcsError;
use crate::expansion::{expand_model, BasisKind, ExpandedDecision};

pub(crate) const KIND_CLS_HELLO: u16 = 0x0500;
pub(crate) const KIND_CLS_SPEC: u16 = 0x0501;
/// Opens a **warm** session: `[num_samples, spec_hash, epoch]`. A repeat
/// client presents the hash of the spec it cached from an earlier
/// session so the trainer can skip re-announcing it, and sends its first
/// flight right behind it. Sent again, it opens the flight a client
/// re-sends after a changed spec.
pub(crate) const KIND_CLS_WARM_HELLO: u16 = 0x0503;
/// The trainer's warm-session reply: `[1, epoch]` confirms the cached
/// spec is still current; `[0, epoch, spec…]` re-announces the full
/// spec.
pub(crate) const KIND_CLS_TICKET: u16 = 0x0504;

/// The transport failure at the root of a classification error, if any —
/// however deep it sits (direct, under OMPE, or under OMPE's OT layer).
/// Transport failures are transient and make a lane worth retrying;
/// everything else is deterministic and would just fail again.
pub(crate) fn transport_cause(e: &PpcsError) -> Option<&TransportError> {
    match e {
        PpcsError::Transport(te) => Some(te),
        PpcsError::Ompe(OmpeError::Transport(te)) => Some(te),
        PpcsError::Ompe(OmpeError::Ot(OtError::Transport(te))) => Some(te),
        _ => None,
    }
}

/// Fixed-point scale power of a top-degree coefficient (see the module
/// docs). One is what the linear protocol has always used, so its wire
/// bytes stay as they were; it rounds each coefficient to `2^-frac_bits`
/// exactly as the monomial-basis path did (which rounded each monomial
/// too), and on the 2 600-coefficient german.numer model the decoded
/// value stays within 2.8e-4 of `SvmModel::decision`. A second scale
/// power would leave only the inputs' own rounding (5.4e-5 there) but
/// costs `frac_bits` bits of the degree the field can carry.
const COEFF_SCALE: u32 = 1;

/// Bits reserved for the magnitude of the decision value itself, above
/// its scale and the amplifier: `|d(t)| < 2^32`.
const MAGNITUDE_BITS: u32 = 32;

/// Upper bound on the per-session batch size a trainer accepts from the
/// client's HELLO. The trainer allocates one amplified secret per
/// requested sample before serving anything, so an unchecked peer-chosen
/// count is an allocation vector.
pub const MAX_BATCH_SAMPLES: u64 = 4096;

/// Upper bound on the sample dimensionality a wire-decoded spec may
/// declare.
pub(crate) const MAX_SPEC_DIM: usize = 4096;

/// The public session header describing the protocol instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifySpec {
    /// Raw sample dimensionality `n` — the arity of the OMPE input.
    pub dim: usize,
    /// The monomial basis of the trainer's polynomial (`None`: a linear
    /// model). Its degree is `ompe.degree_bound`, which is all the
    /// client takes from it: the scale its result decodes at.
    pub basis: Option<BasisKind>,
    /// OMPE parameters (degree bound, masking degree, decoy factor).
    pub ompe: OmpeParams,
}

impl ClassifySpec {
    /// Fixed-point scale power of the decision value both sides decode
    /// at.
    fn output_scale(&self) -> u32 {
        self.ompe.degree_bound as u32 + COEFF_SCALE
    }

    /// A short commitment to the wire form of this spec, used by warm
    /// sessions to skip the spec exchange when the cached copy is still
    /// current. Not collision-resistant against adversaries — a stale
    /// match only costs one re-announcement, never correctness.
    pub(crate) fn wire_hash(&self) -> u64 {
        let mut acc = 0xC1A5_51F7_5EC0_0001u64;
        for field in self.encode_wire() {
            acc = mix64(acc ^ field);
        }
        acc
    }

    pub(crate) fn encode_wire(&self) -> Vec<u64> {
        let (tag, degree) = match self.basis {
            None => (0u64, 0u64),
            Some(BasisKind::Homogeneous { degree }) => (1, degree as u64),
            Some(BasisKind::UpTo { degree }) => (2, degree as u64),
        };
        vec![
            self.dim as u64,
            tag,
            degree,
            self.ompe.degree_bound as u64,
            self.ompe.sigma as u64,
            self.ompe.decoy_factor as u64,
        ]
    }

    pub(crate) fn decode_wire(fields: &[u64]) -> Result<Self, PpcsError> {
        let [dim, tag, degree, bound, sigma, decoy] = fields else {
            return Err(PpcsError::Protocol("malformed classify spec".into()));
        };
        // The spec arrives from the peer: every field is bounds-checked
        // before any sizing computation depends on it.
        let dim = usize::try_from(*dim)
            .ok()
            .filter(|d| (1..=MAX_SPEC_DIM).contains(d))
            .ok_or_else(|| {
                PpcsError::Protocol(format!(
                    "spec dimensionality {dim} outside [1, {MAX_SPEC_DIM}]"
                ))
            })?;
        let degree = u32::try_from(*degree)
            .map_err(|_| PpcsError::Protocol(format!("spec degree {degree} exceeds u32")))?;
        let basis = match tag {
            0 => None,
            1 => Some(BasisKind::Homogeneous { degree }),
            2 => Some(BasisKind::UpTo { degree }),
            _ => return Err(PpcsError::Protocol(format!("unknown basis kind {tag}"))),
        };
        // The degree is stated twice on the wire; the client decodes its
        // result at the scale the OMPE bound implies, so the two must
        // agree.
        if basis.map_or(1, |b| *b.degrees().end() as u64) != *bound {
            return Err(PpcsError::Protocol(format!(
                "spec basis {basis:?} disagrees with OMPE degree bound {bound}"
            )));
        }
        let ompe = OmpeParams::new(*bound as usize, *sigma as usize, *decoy as usize)?;
        Ok(Self { dim, basis, ompe })
    }
}

/// The trainer role: owns the (encoded, unamplified) secret decision
/// polynomial and serves classification sessions.
///
/// # Examples
///
/// See [`Client`] for a full two-party example.
pub struct Trainer<A: Algebra> {
    alg: A,
    cfg: ProtocolConfig,
    base: DensePoly,
    spec: ClassifySpec,
    /// The serving process's incarnation, advertised in the cold `SPEC`,
    /// the warm `TICKET`, and `KIND_HEALTH` replies. A restarted trainer
    /// bumps it so clients holding cached specs from the previous
    /// incarnation fall back to a cold start.
    epoch: u64,
}

/// `r_a · P(y)`: one sample's amplified secret as a view of the trainer's
/// one polynomial — a product per submitted point, where a scaled copy
/// costs a product (and 32 bytes) per coefficient. `M(x) + r_a·P(y)` is
/// the same field element either way.
struct Amplified<'a> {
    base: &'a DensePoly,
    amplifier: Fp256,
}

impl<A: Algebra> PolyEval<A> for Amplified<'_> {
    fn num_vars(&self) -> usize {
        self.base.num_vars()
    }
    fn total_degree(&self) -> usize {
        self.base.total_degree()
    }
    fn eval(&self, alg: &A, y: &[Fp256]) -> Fp256 {
        alg.mul(&self.amplifier, &self.base.eval(alg, y))
    }
}

impl<A: Algebra> Trainer<A> {
    /// Prepares a trained model for private serving: expands nonlinear
    /// kernels into polynomial form and fixed-point-encodes the
    /// coefficients.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Config`] on an invalid configuration or a model
    /// degree the field cannot hold (the message names the
    /// largest `frac_bits` that can), [`PpcsError::Expansion`] if the
    /// kernel cannot be expanded within the configured cap.
    pub fn new(alg: A, model: &SvmModel, cfg: ProtocolConfig) -> Result<Self, PpcsError> {
        cfg.validate()?;
        match model.kernel() {
            Kernel::Linear => {
                let w = model
                    .linear_weights()
                    .ok_or_else(|| PpcsError::Expansion("a linear model without weights".into()))?;
                Self::build(alg, cfg, model.dim(), None, &w, model.bias())
            }
            _ => Self::from_expanded(alg, &expand_model(model, &cfg)?, cfg),
        }
    }

    /// Prepares an already-expanded decision function for private
    /// serving — the entry point for classifier families that are
    /// natively polynomial, such as Gaussian Naive Bayes
    /// ([`ExpandedDecision::from_quadratic_diag`]).
    ///
    /// # Errors
    ///
    /// [`PpcsError::Config`] as for [`Trainer::new`];
    /// [`PpcsError::Expansion`] if `expanded` does not hold one
    /// coefficient per monomial of its basis.
    pub fn from_expanded(
        alg: A,
        expanded: &ExpandedDecision,
        cfg: ProtocolConfig,
    ) -> Result<Self, PpcsError> {
        cfg.validate()?;
        let ExpandedDecision {
            dim,
            basis,
            coeffs,
            bias,
        } = expanded;
        if *dim == 0 || basis.len(*dim) != Some(coeffs.len() as u64) {
            return Err(PpcsError::Expansion(format!(
                "{} coefficients do not fill {basis:?} over {dim} variables",
                coeffs.len()
            )));
        }
        Self::build(alg, cfg, *dim, Some(*basis), coeffs, *bias)
    }

    /// The one construction path: `coeffs` lists the monomials of
    /// `basis` (`None`: the `dim` linear weights) in canonical order.
    fn build(
        alg: A,
        cfg: ProtocolConfig,
        dim: usize,
        basis: Option<BasisKind>,
        coeffs: &[f64],
        bias: f64,
    ) -> Result<Self, PpcsError> {
        let degrees = basis.map_or(1..=1, |b| b.degrees());
        let degree = *degrees.end();
        // A degree-`degree` product of scale-1 inputs under a top
        // coefficient sits at `scale`; the field must hold that, the
        // amplifier and the value's own magnitude.
        let scale = degree + COEFF_SCALE;
        let frac_bits = alg.fixed_point_bits();
        let field = FixedFpAlgebra::BALANCED_BITS;
        let budget =
            (field - cfg.amplifier_bits - MAGNITUDE_BITS).min(FixedFpAlgebra::MAX_SCALE_BITS);
        if scale.saturating_mul(frac_bits) > budget {
            return Err(PpcsError::Config(format!(
                "a degree-{degree} model decodes at scale power {scale}: {scale}·{frac_bits} \
                 scale bits + {} amplifier bits + {MAGNITUDE_BITS} magnitude bits exceed the \
                 field's {field}; the largest frac_bits that fits is {}",
                cfg.amplifier_bits,
                budget / scale
            )));
        }
        let spec = ClassifySpec {
            dim,
            basis,
            ompe: OmpeParams::new(degree as usize, cfg.sigma, cfg.decoy_factor)?,
        };
        // Lower-degree terms are lifted to the common output scale by
        // their coefficients' scale, not by extra products.
        let refuse = |j: u32, k: usize, w: f64, limit: String| {
            PpcsError::Config(format!(
                "degree-{j} coefficient {k} is {w}: it must be finite{limit}"
            ))
        };
        let wide = |j: u32, k: usize, w: f64| {
            let lift = COEFF_SCALE + degree - j;
            alg.try_encode(w, lift)
                .ok_or_else(|| refuse(j, k, w, format!(" and encodable at scale power {lift}")))
        };
        let mut rest = coeffs;
        let mut lower = Vec::new();
        for j in 1..degree {
            let len = if degrees.contains(&j) {
                expanded_dimension(dim, j).ok_or_else(|| {
                    PpcsError::Expansion(format!("the degree-{j} block over {dim} variables"))
                })? as usize
            } else {
                0
            };
            let (block, tail) = rest.split_at(len);
            rest = tail;
            let block = block.iter().enumerate().map(|(k, w)| wide(j, k, *w));
            lower.push(block.collect::<Result<_, _>>()?);
        }
        // The top block is multiplied as machine integers, so each of its
        // coefficients must fit one: |w| < 2^(63 − frac_bits·COEFF_SCALE),
        // at least 2^43 — far above the `MAGNITUDE_BITS` the capacity
        // rule above assumes.
        let top = rest.iter().enumerate().map(|(k, w)| {
            alg.encode_coeff(*w, COEFF_SCALE).ok_or_else(|| {
                let limit = format!(" and below 2^{} in magnitude", 63 - frac_bits * COEFF_SCALE);
                refuse(degree, k, *w, limit)
            })
        });
        let top = top.collect::<Result<_, _>>()?;
        let base = DensePoly::new(dim, lower, top, wide(0, 0, bias)?);
        Ok(Self {
            alg,
            cfg,
            base,
            spec,
            epoch: 0,
        })
    }

    /// The public session header.
    pub fn spec(&self) -> ClassifySpec {
        self.spec
    }

    /// Stamps this trainer with a serving epoch — its process
    /// incarnation. A supervisor restarting a crashed trainer should
    /// hand the replacement a strictly larger epoch: clients detect the
    /// bump in the `SPEC`/`TICKET` handshake (and in `KIND_HEALTH`
    /// replies) and discard warm state from the dead incarnation.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The serving epoch this trainer advertises (0 unless set with
    /// [`Trainer::with_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The algebra this trainer encodes with.
    pub(crate) fn alg(&self) -> &A {
        &self.alg
    }

    /// Draws one session's worth of input-independent sender material —
    /// the OT base-phase commitment plus `rounds` masking polynomials —
    /// off the critical path. Feed the pack to
    /// [`Trainer::serve_session_engine`] (or a
    /// [`PrecomputePool`](crate::PrecomputePool)) and the online phase
    /// skips every input-independent draw.
    pub fn precompute_material(
        &self,
        sel: OtSelect,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> OmpeSenderOffline {
        OmpeSenderOffline::precompute(&self.alg, sel, &self.spec.ompe, rounds, rng)
    }

    /// Serves a single OMPE round with an explicit amplifier element —
    /// the building block the multi-class session composes (shared or
    /// fresh amplifiers across the per-class rounds of one sample).
    /// With `material`, the round consumes the precomputed pack instead
    /// of drawing its offline half inline; the wire traffic is the same
    /// either way, so the peer never needs to know.
    ///
    /// # Errors
    ///
    /// Transport, OT, and OMPE failures.
    pub(crate) async fn serve_one_with_amplifier_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        amplifier: Fp256,
        material: Option<OmpeSenderOffline>,
    ) -> Result<(), PpcsError> {
        let secret = Amplified {
            base: &self.base,
            amplifier,
        };
        match material {
            Some(pack) => {
                ompe_send_offline_io(&self.alg, io, sel, rng, &secret, &self.spec.ompe, pack)
                    .await?
            }
            None => ompe_send_io(&self.alg, io, sel, rng, &secret, &self.spec.ompe).await?,
        }
        Ok(())
    }

    /// Serves one classification session (a batch of samples announced by
    /// the client). Returns the number of samples served.
    ///
    /// The whole batch runs through one OMPE sender session: the
    /// masking-polynomial storage and the OT base-phase commitment are
    /// set up once, and the client's point clouds arrive in a single
    /// coalesced frame. Each sample still gets a **fresh amplifier**
    /// (Level-2 privacy; see the module docs).
    ///
    /// # Errors
    ///
    /// Transport, OT, and OMPE failures.
    pub fn serve<L: Lane + ?Sized>(
        &self,
        ep: &L,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
    ) -> Result<usize, PpcsError> {
        let sel = ot.select();
        let mut engine =
            ProtocolEngine::new(|io| async move { self.serve_io(&io, sel, rng).await });
        drive_blocking(ep, &mut engine)
    }

    /// Sans-I/O twin of [`Trainer::serve`]: the trainer role over a
    /// [`FrameIo`] mailbox, frame-for-frame and draw-for-draw identical
    /// to the blocking entry point.
    ///
    /// # Errors
    ///
    /// Transport, OT, and OMPE failures.
    pub async fn serve_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
    ) -> Result<usize, PpcsError> {
        self.serve_session_io(io, sel, rng, false, None).await
    }

    /// The session-unified trainer role: serves one batch session that
    /// opened **cold** (`HELLO`/`SPEC` exchange) or **warm**
    /// (`WARM_HELLO`/`TICKET`, the client already holds the spec), with
    /// the input-independent sender material optionally supplied by a
    /// precompute pool instead of drawn inline. Returns the number of
    /// samples served.
    ///
    /// `serve_session_io(io, sel, rng, false, None)` is exactly
    /// [`Trainer::serve_io`]; every combination produces the same OMPE
    /// traffic, so cold/warm and offline/inline pair freely with any
    /// client.
    ///
    /// # Errors
    ///
    /// Transport, OT, and OMPE failures.
    pub async fn serve_session_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        warm: bool,
        material: Option<OmpeSenderOffline>,
    ) -> Result<usize, PpcsError> {
        let _span = ppcs_telemetry::span(Phase::Classify);
        let num_samples: u64 = if warm {
            let [n, spec_hash, client_epoch] =
                decode_warm_hello(io.recv_msg(KIND_CLS_WARM_HELLO).await?)?;
            check_batch_cap(n)?;
            // The client's first flight follows its hello unasked, and
            // the ticket is the first frame it reads: send it before
            // evaluating anything. A stale epoch forces the
            // re-announcement even when the spec hash still matches: the
            // client must learn it is talking to a fresh incarnation
            // whose warm state (pool material) does not include it. The
            // early flight is served all the same.
            let hash = self.spec.wire_hash();
            let current = spec_hash == hash && client_epoch == self.epoch;
            let mut ticket = vec![u64::from(current), self.epoch];
            if !current {
                ticket.extend(self.spec.encode_wire());
            }
            io.send_msg(KIND_CLS_TICKET, &Words(ticket))?;
            if spec_hash != hash {
                // The early flight was built from a spec this trainer
                // no longer serves: drop it. The client re-sends under
                // the re-announced spec, opening with a hello that
                // names it, so that hello is where the stale flight
                // ends.
                let resent = loop {
                    let frame = io.recv().await?;
                    if frame.kind == KIND_CLS_WARM_HELLO {
                        break frame.decode_as(KIND_CLS_WARM_HELLO)?;
                    }
                };
                if decode_warm_hello(resent)? != [n, hash, self.epoch] {
                    return Err(PpcsError::Protocol(
                        "re-sent flight does not follow the re-announced spec".into(),
                    ));
                }
            }
            n
        } else {
            let n: u64 = io.recv_msg(KIND_CLS_HELLO).await?;
            check_batch_cap(n)?;
            let mut fields = self.spec.encode_wire();
            fields.push(self.epoch);
            io.send_msg(KIND_CLS_SPEC, &Words(fields))?;
            n
        };
        let secrets: Vec<Amplified<'_>> = (0..num_samples)
            .map(|_| Amplified {
                base: &self.base,
                amplifier: self.alg.encode_int(self.cfg.draw_amplifier(rng)),
            })
            .collect();
        match material {
            Some(pack) => {
                ompe_send_batch_offline_io(&self.alg, io, sel, rng, &secrets, &self.spec.ompe, pack)
                    .await?
            }
            None => ompe_send_batch_io(&self.alg, io, sel, rng, &secrets, &self.spec.ompe).await?,
        }
        Ok(num_samples as usize)
    }

    /// Packages the trainer role as a self-contained [`ProtocolEngine`]
    /// owning its RNG (seeded from `seed`), so a session can be driven,
    /// recorded, and re-created bit-identically for transcript replay.
    pub fn serve_engine(&self, sel: OtSelect, seed: u64) -> ProtocolEngine<'_, usize, PpcsError> {
        self.serve_session_engine(sel, seed, false, None)
    }

    /// [`Trainer::serve_engine`] with the session-unified knobs: `warm`
    /// selects the `WARM_HELLO` handshake, `material` feeds the session
    /// precomputed sender material (from
    /// [`Trainer::precompute_material`] or a
    /// [`PrecomputePool`](crate::PrecomputePool)).
    pub fn serve_session_engine(
        &self,
        sel: OtSelect,
        seed: u64,
        warm: bool,
        material: Option<OmpeSenderOffline>,
    ) -> ProtocolEngine<'_, usize, PpcsError> {
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(seed);
            self.serve_session_io(&io, sel, &mut rng, warm, material)
                .await
        })
    }
}

/// The client role: classifies private samples against a remote trainer.
///
/// # Examples
///
/// ```
/// use ppcs_core::{Client, ProtocolConfig, Trainer};
/// use ppcs_math::FixedFpAlgebra;
/// use ppcs_ot::TrustedSimOt;
/// use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
/// use ppcs_transport::run_pair;
/// use rand::SeedableRng;
///
/// // Alice trains on her private data.
/// let mut ds = Dataset::new(1);
/// for i in 0..20 {
///     let v = i as f64 / 10.0 - 1.0;
///     ds.push(vec![v], if v < 0.0 { Label::Negative } else { Label::Positive });
/// }
/// let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
///
/// let cfg = ProtocolConfig::default();
/// let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)?;
/// let client = Client::new(FixedFpAlgebra::new(16), cfg);
///
/// let samples = vec![vec![0.9], vec![-0.7]];
/// let (served, labels) = run_pair(
///     move |ep| {
///         let mut rng = rand::rngs::StdRng::seed_from_u64(1);
///         trainer.serve(&ep, &TrustedSimOt, &mut rng)
///     },
///     move |ep| {
///         let mut rng = rand::rngs::StdRng::seed_from_u64(2);
///         client.classify_batch(&ep, &TrustedSimOt, &mut rng, &samples)
///     },
/// );
/// assert_eq!(served?, 2);
/// assert_eq!(labels?, vec![Label::Positive, Label::Negative]);
/// # Ok::<(), ppcs_core::PpcsError>(())
/// ```
pub struct Client<A: Algebra> {
    alg: A,
    cfg: ProtocolConfig,
}

impl<A: Algebra> Client<A> {
    /// Creates a client.
    pub fn new(alg: A, cfg: ProtocolConfig) -> Self {
        Self { alg, cfg }
    }

    /// Classifies a batch of samples in one session. Returns one label
    /// per sample, in order.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Protocol`] if the trainer's announced spec disagrees
    /// with the samples' dimensionality or this client's configuration,
    /// plus transport/OMPE failures.
    pub fn classify_batch<L: Lane + ?Sized>(
        &self,
        ep: &L,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Label>, PpcsError> {
        Ok(self
            .classify_batch_values(ep, ot, rng, samples)?
            .into_iter()
            .map(|(label, _)| label)
            .collect())
    }

    /// Runs a single private classification round against a known spec —
    /// the building block the multi-class session composes.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Protocol`] on a dimensionality mismatch, plus
    /// transport/OMPE failures.
    pub(crate) async fn classify_one_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        sample: &[f64],
        spec: &ClassifySpec,
    ) -> Result<(Label, f64), PpcsError> {
        let alpha = self.encode_input(sample, spec)?;
        let value = ompe_receive_io(&self.alg, io, sel, rng, &alpha, &spec.ompe).await?;
        let decoded = self.alg.decode(&value, spec.output_scale());
        Ok((Label::from_sign(decoded), decoded))
    }

    /// Like [`Client::classify_batch`], but also returns the randomized
    /// decision value `r_a·d(t̃)` each label was derived from.
    ///
    /// This is exactly what a client *actually learns* per query; the
    /// privacy experiments ([`crate::privacy`]) pool these values to play
    /// the colluding-coalition attacks of Figs. 5–6.
    ///
    /// # Errors
    ///
    /// Same as [`Client::classify_batch`].
    pub fn classify_batch_values<L: Lane + ?Sized>(
        &self,
        ep: &L,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
    ) -> Result<Vec<(Label, f64)>, PpcsError> {
        let sel = ot.select();
        let mut engine = ProtocolEngine::new(|io| async move {
            self.classify_batch_values_io(&io, sel, rng, samples).await
        });
        drive_blocking(ep, &mut engine)
    }

    /// Sans-I/O twin of [`Client::classify_batch_values`]: the client
    /// role over a [`FrameIo`] mailbox.
    ///
    /// # Errors
    ///
    /// Same as [`Client::classify_batch_values`].
    pub async fn classify_batch_values_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
    ) -> Result<Vec<(Label, f64)>, PpcsError> {
        self.classify_session_io(io, sel, rng, samples, None, None)
            .await
    }

    /// The session-unified client role: one batch session that opens
    /// **cold** (spec exchange) or **warm** (`warm = Some((cache,
    /// peer))` and the cache holds `peer`'s spec — the hello carries the
    /// cached spec's hash and the first flight follows it without
    /// waiting for the ticket), optionally consuming precomputed
    /// receiver-side material so the online phase skips the point-cloud
    /// construction.
    ///
    /// An empty cache entry falls back to the cold handshake and
    /// populates the cache; mismatched or exhausted `offline` material
    /// falls back to inline construction. Neither fallback changes the
    /// wire traffic's shape beyond the handshake kind, so any client
    /// mode pairs with any trainer mode.
    ///
    /// # Errors
    ///
    /// Same as [`Client::classify_batch_values`], plus
    /// [`PpcsError::Protocol`] on a malformed warm-session ticket.
    pub async fn classify_session_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
        warm: Option<(&WarmSessionCache, u64)>,
        offline: Option<&mut OmpeReceiverOffline>,
    ) -> Result<Vec<(Label, f64)>, PpcsError> {
        let _span = ppcs_telemetry::span(Phase::Classify);
        let cached = warm.and_then(|(cache, peer)| Some((cache, peer, cache.get(peer)?)));
        let (spec, values) = match cached {
            Some(entry) => {
                self.warm_session_io(io, sel, rng, samples, entry, offline)
                    .await?
            }
            None => {
                // No cache, or first contact with this peer: the cold
                // handshake, remembering the spec for the next session.
                let (spec, epoch) = self.cold_handshake_io(io, samples.len()).await?;
                if let Some((cache, peer)) = warm {
                    cache.insert(peer, spec, epoch);
                }
                let values = self
                    .receive_values_io(io, sel, rng, samples, &spec, offline)
                    .await?;
                (spec, values)
            }
        };
        Ok(values
            .iter()
            .map(|value| {
                let decoded = self.alg.decode(value, spec.output_scale());
                (Label::from_sign(decoded), decoded)
            })
            .collect())
    }

    /// The warm session: the hello, its own frame, then, without
    /// waiting for the ticket, the first flight built from the cached
    /// spec, coalesced into one frame. The ticket is the first frame
    /// read. If it re-announces a spec other than the cached one, the
    /// trainer has dropped the early flight, and it is re-sent under the
    /// new spec — fresh cover positions and covers — opened by a hello naming
    /// that spec: one round trip more. An epoch-only re-announcement
    /// re-keys the cache and keeps the early flight. Returns the spec the
    /// session ran under and the decision values.
    async fn warm_session_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
        (cache, peer, (cached, cached_epoch)): (&WarmSessionCache, u64, (ClassifySpec, u64)),
        mut offline: Option<&mut OmpeReceiverOffline>,
    ) -> Result<(ClassifySpec, Vec<Fp256>), PpcsError> {
        let hello = |spec: &ClassifySpec, epoch: u64| {
            Words(vec![samples.len() as u64, spec.wire_hash(), epoch])
        };
        io.send_msg(KIND_CLS_WARM_HELLO, &hello(&cached, cached_epoch))?;
        let ticket = async {
            let Words(ticket) = io.recv_msg(KIND_CLS_TICKET).await?;
            // `[1, epoch]` confirms the cached spec; `[0, epoch, spec…]`
            // re-announces it: a moved spec, or a trainer restarted
            // under a fresh epoch.
            match ticket.split_first() {
                Some((&1, &[epoch])) => Ok((cached, epoch)),
                Some((&0, [epoch, fields @ ..])) => {
                    let spec = ClassifySpec::decode_wire(fields)?;
                    self.check_spec(&spec)?;
                    Ok((spec, *epoch))
                }
                _ => Err(PpcsError::Protocol("malformed warm-session ticket".into())),
            }
        };
        let early = async {
            io.hold();
            self.receive_values_io(io, sel, &mut *rng, samples, &cached, offline.as_deref_mut())
                .await
        };
        let same_spec = |(spec, _): &(ClassifySpec, u64)| spec.wire_hash() == cached.wire_hash();
        let ((spec, epoch), early) = lead_then(ticket, early, same_spec).await?;
        if (spec, epoch) != (cached, cached_epoch) {
            cache.insert(peer, spec, epoch);
        }
        if let Some(values) = early {
            return Ok((spec, values?));
        }
        io.hold();
        io.send_msg(KIND_CLS_WARM_HELLO, &hello(&spec, epoch))?;
        let values = self
            .receive_values_io(io, sel, rng, samples, &spec, offline)
            .await?;
        Ok((spec, values))
    }

    /// Encodes every sample's OMPE input under `spec` and runs the batch
    /// through one receiver session: cover-polynomial storage and the OT
    /// base phase are reused, and all point clouds leave in one coalesced
    /// frame. Returns the decision values, in order.
    async fn receive_values_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
        spec: &ClassifySpec,
        offline: Option<&mut OmpeReceiverOffline>,
    ) -> Result<Vec<Fp256>, PpcsError> {
        let alphas: Vec<Vec<Fp256>> = samples
            .iter()
            .map(|sample| self.encode_input(sample, spec))
            .collect::<Result<_, _>>()?;
        Ok(match offline {
            Some(pack)
                if pack.fingerprint() == params_fingerprint(sel, &spec.ompe)
                    && pack.dim() == spec.dim =>
            {
                ompe_receive_batch_offline_io(&self.alg, io, sel, rng, &alphas, &spec.ompe, pack)
                    .await?
            }
            // Material drawn for a different configuration (or none at
            // all): build the point clouds inline.
            _ => ompe_receive_batch_io(&self.alg, io, sel, rng, &alphas, &spec.ompe).await?,
        })
    }

    /// The cold session opening: announce the batch size, receive and
    /// validate the trainer's spec (and its serving epoch, appended as
    /// the final `SPEC` field).
    async fn cold_handshake_io(
        &self,
        io: &FrameIo,
        num_samples: usize,
    ) -> Result<(ClassifySpec, u64), PpcsError> {
        io.send_msg(KIND_CLS_HELLO, &(num_samples as u64))?;
        let Words(fields) = io.recv_msg(KIND_CLS_SPEC).await?;
        let [spec_fields @ .., epoch] = &fields[..] else {
            return Err(PpcsError::Protocol("malformed classify spec".into()));
        };
        let spec = ClassifySpec::decode_wire(spec_fields)?;
        self.check_spec(&spec)?;
        Ok((spec, *epoch))
    }

    /// Rejects a trainer-announced spec that disagrees with this
    /// client's configured privacy parameters.
    fn check_spec(&self, spec: &ClassifySpec) -> Result<(), PpcsError> {
        if spec.ompe.sigma != self.cfg.sigma || spec.ompe.decoy_factor != self.cfg.decoy_factor {
            return Err(PpcsError::Protocol(format!(
                "trainer announced sigma={} decoys={}, client configured sigma={} decoys={}",
                spec.ompe.sigma, spec.ompe.decoy_factor, self.cfg.sigma, self.cfg.decoy_factor
            )));
        }
        Ok(())
    }

    /// Draws input-independent receiver material — `rounds` blinded
    /// point clouds, one consumed per sample — against a known `spec`:
    /// the client half of the offline/online split.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Ompe`] if the spec's input dimension is zero.
    pub fn precompute_material(
        &self,
        sel: OtSelect,
        spec: &ClassifySpec,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Result<OmpeReceiverOffline, PpcsError> {
        Ok(OmpeReceiverOffline::precompute(
            &self.alg, sel, &spec.ompe, spec.dim, rounds, rng,
        )?)
    }

    /// Packages the client role as a self-contained [`ProtocolEngine`]
    /// owning its RNG (seeded from `seed`) — the replay-friendly
    /// counterpart of [`Trainer::serve_engine`].
    pub fn classify_engine<'a>(
        &'a self,
        sel: OtSelect,
        seed: u64,
        samples: &'a [Vec<f64>],
    ) -> ProtocolEngine<'a, Vec<(Label, f64)>, PpcsError> {
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(seed);
            self.classify_batch_values_io(&io, sel, &mut rng, samples)
                .await
        })
    }

    /// [`Client::classify_engine`] for a repeat client: the session
    /// opens warm against `cache`'s entry for `peer` (cold and
    /// cache-filling on first contact) and optionally consumes
    /// precomputed receiver material.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_warm_engine<'a>(
        &'a self,
        sel: OtSelect,
        seed: u64,
        samples: &'a [Vec<f64>],
        cache: &'a WarmSessionCache,
        peer: u64,
        offline: Option<&'a mut OmpeReceiverOffline>,
    ) -> ProtocolEngine<'a, Vec<(Label, f64)>, PpcsError> {
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(seed);
            self.classify_session_io(&io, sel, &mut rng, samples, Some((cache, peer)), offline)
                .await
        })
    }

    /// Blocking counterpart of [`Client::classify_warm_engine`]:
    /// classifies a batch over a warm (or first-contact cold) session
    /// keyed by `peer` in `cache`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::classify_batch_values`].
    #[allow(clippy::too_many_arguments)]
    pub fn classify_batch_values_warm<L: Lane + ?Sized>(
        &self,
        ep: &L,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
        cache: &WarmSessionCache,
        peer: u64,
    ) -> Result<Vec<(Label, f64)>, PpcsError> {
        let sel = ot.select();
        let mut engine = ProtocolEngine::new(|io| async move {
            self.classify_session_io(&io, sel, rng, samples, Some((cache, peer)), None)
                .await
        });
        drive_blocking(ep, &mut engine)
    }

    /// Validates a sample against the announced spec and encodes its
    /// coordinates — the OMPE input vector — at scale 1.
    fn encode_input(&self, sample: &[f64], spec: &ClassifySpec) -> Result<Vec<Fp256>, PpcsError> {
        if sample.len() != spec.dim {
            return Err(PpcsError::Protocol(format!(
                "sample has {} features, trainer expects {}",
                sample.len(),
                spec.dim
            )));
        }
        let encode = |(i, v): (usize, &f64)| {
            self.alg.try_encode(*v, 1).ok_or_else(|| {
                PpcsError::Protocol(format!("sample coordinate {i} is {v}: not encodable"))
            })
        };
        sample.iter().enumerate().map(encode).collect()
    }

    /// Classifies a batch across several lanes concurrently, one session
    /// per lane on its own thread, against a trainer serving every lane
    /// ([`TrainerServer::serve`](crate::TrainerServer::serve)).
    ///
    /// Samples are sharded into contiguous, near-equal chunks (lane `i`
    /// takes chunk `i`) and the per-chunk labels are reassembled in the
    /// original order, so the result is exactly what
    /// [`Client::classify_batch`] over one lane would return for the
    /// same model. Per-lane randomness is derived from `seed`.
    ///
    /// A lane failing on a **transport** error degrades gracefully: the
    /// chunk is retried once on its own lane, then requeued onto the
    /// surviving lanes — one bad connection costs latency, not the
    /// batch. Deterministic (protocol/codec) failures propagate
    /// immediately, since replaying the same bytes would fail the same
    /// way.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Protocol`] if `lanes` is empty, any deterministic
    /// lane error, or the first transport error once every lane is dead.
    pub fn classify_batch_parallel<L: Lane>(
        &self,
        lanes: &[L],
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Label>, PpcsError> {
        if lanes.is_empty() {
            return Err(PpcsError::Protocol(
                "classify_batch_parallel needs at least one lane".into(),
            ));
        }
        let chunks = shard_evenly(samples, lanes.len());
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter()
                .zip(&chunks)
                .enumerate()
                .map(|(i, (ep, chunk))| {
                    scope.spawn(move || {
                        self.classify_chunk(ep, ot, seed.wrapping_add(i as u64), chunk)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect::<Vec<_>>()
        });

        let mut lane_ok = vec![true; lanes.len()];
        for (i, r) in results.iter().enumerate() {
            match r {
                // Deterministic failure: retrying cannot help.
                Err(e) if transport_cause(e).is_none() => return Err(e.clone()),
                Err(_) => lane_ok[i] = false,
                Ok(_) => {}
            }
        }

        // Requeue failed chunks onto surviving lanes, sequentially: the
        // latency of a rescue matters less than completing the batch.
        // A chunk no lane can rescue fails the batch with its first
        // transport error, which the lowest failed chunk carries.
        let mut first_err: Option<PpcsError> = None;
        let mut labels = Vec::with_capacity(samples.len());
        for (i, r) in results.into_iter().enumerate() {
            let chunk_labels = match r {
                Ok(chunk_labels) => chunk_labels,
                Err(e) => {
                    let err = first_err.take().unwrap_or(e);
                    match self.rescue_chunk(lanes, &mut lane_ok, ot, seed, i, chunks[i])? {
                        Some(chunk_labels) => {
                            first_err = Some(err);
                            chunk_labels
                        }
                        None => return Err(err),
                    }
                }
            };
            labels.extend(chunk_labels);
        }
        Ok(labels)
    }

    /// Retries chunk `i` on each surviving lane in turn; a lane that
    /// fails it on a transport error is marked dead. `None` once every
    /// lane is dead; a deterministic failure is returned as it is.
    fn rescue_chunk<L: Lane>(
        &self,
        lanes: &[L],
        lane_ok: &mut [bool],
        ot: &dyn ObliviousTransfer,
        seed: u64,
        i: usize,
        chunk: &[Vec<f64>],
    ) -> Result<Option<Vec<Label>>, PpcsError> {
        for (ep, ok) in lanes.iter().zip(lane_ok.iter_mut()) {
            if !*ok {
                continue;
            }
            // Fresh deterministic randomness for the requeued attempt,
            // domain-separated from the phase-1 streams.
            let mut rng =
                StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            match self.classify_batch(ep, ot, &mut rng, chunk) {
                Ok(labels) => return Ok(Some(labels)),
                Err(e) if transport_cause(&e).is_none() => return Err(e),
                Err(_) => *ok = false,
            }
        }
        Ok(None)
    }

    /// One lane's phase-1 work: classify the chunk, with a single
    /// same-lane retry when the failure is transport-rooted (the trainer
    /// lane resyncs on the retry's `HELLO`).
    fn classify_chunk<L: Lane + ?Sized>(
        &self,
        ep: &L,
        ot: &dyn ObliviousTransfer,
        seed: u64,
        chunk: &[Vec<f64>],
    ) -> Result<Vec<Label>, PpcsError> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.classify_batch(ep, ot, &mut rng, chunk) {
            Err(e) if transport_cause(&e).is_some() => {
                std::thread::sleep(Duration::from_millis(10));
                self.classify_batch(ep, ot, &mut rng, chunk)
            }
            r => r,
        }
    }
}

/// A client-side cache of per-peer session specs, keyed by an opaque
/// peer identifier the caller chooses (an address hash, a connection
/// slot — anything stable across sessions with the same trainer).
///
/// A repeat client holding a cached spec opens its next session
/// **warm**: the `HELLO`/`SPEC` exchange gives way to a `WARM_HELLO`
/// that the session's first flight follows unasked, and a `TICKET`
/// that confirms the hash. The cache is
/// internally synchronized, so one instance can back every lane of a
/// parallel client.
///
/// Each entry remembers the trainer's serving **epoch** alongside the
/// spec: a trainer restart bumps the epoch, the next warm hello
/// presents the stale one, and the trainer re-announces — so a cached
/// ticket can never silently resume into a fresh incarnation.
#[derive(Debug, Default)]
pub struct WarmSessionCache {
    inner: Mutex<HashMap<u64, (ClassifySpec, u64)>>,
}

impl WarmSessionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the map. No code panics while holding this lock, so a
    /// poisoned one still holds a consistent map.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, (ClassifySpec, u64)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached `(spec, epoch)` for `peer`, if any.
    pub fn get(&self, peer: u64) -> Option<(ClassifySpec, u64)> {
        self.lock().get(&peer).copied()
    }

    /// Caches (or replaces) the spec and serving epoch for `peer`.
    pub fn insert(&self, peer: u64, spec: ClassifySpec, epoch: u64) {
        self.lock().insert(peer, (spec, epoch));
    }

    /// Forgets the cached spec for `peer` (e.g. after observing a fresh
    /// serving epoch in a health probe: the entry would only buy a
    /// re-announce round).
    pub fn remove(&self, peer: u64) {
        self.lock().remove(&peer);
    }

    /// How many peers have a cached spec.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no specs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every cached spec.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

/// Splits `samples` into `lanes` contiguous chunks whose lengths differ
/// by at most one (the first `len % lanes` chunks get the extra sample).
pub(crate) fn shard_evenly(samples: &[Vec<f64>], lanes: usize) -> Vec<&[Vec<f64>]> {
    let base = samples.len() / lanes;
    let extra = samples.len() % lanes;
    let mut chunks = Vec::with_capacity(lanes);
    let mut start = 0;
    for i in 0..lanes {
        let len = base + usize::from(i < extra);
        chunks.push(&samples[start..start + len]);
        start += len;
    }
    chunks
}

/// The batch size is peer-chosen and sizes the secrets allocation: cap
/// it before reserving anything.
fn check_batch_cap(num_samples: u64) -> Result<(), PpcsError> {
    if num_samples > MAX_BATCH_SAMPLES {
        return Err(PpcsError::Protocol(format!(
            "client requested {num_samples} samples, per-session cap is {MAX_BATCH_SAMPLES}"
        )));
    }
    Ok(())
}

/// SplitMix64 finalizer — the same avalanche the OMPE offline-material
/// fingerprint uses, re-stated here so `core` does not depend on a
/// non-public helper of `ppcs-ompe`.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A control frame's body: little-endian `u64` words that fill the
/// payload, with no length prefix. It must be the whole body, since
/// decoding consumes the rest of the payload.
pub(crate) struct Words(pub(crate) Vec<u64>);

impl Encodable for Words {
    fn encode(&self, out: &mut BytesMut) {
        for w in &self.0 {
            out.put_u64_le(*w);
        }
    }

    fn decode(input: &mut Bytes) -> Result<Self, TransportError> {
        let (words, []) = input.as_chunks::<8>() else {
            return Err(TransportError::Decode(format!(
                "a {}-byte body is not a whole number of 8-byte words",
                input.len()
            )));
        };
        let words = words.iter().map(|w| u64::from_le_bytes(*w)).collect();
        input.advance(input.remaining());
        Ok(Self(words))
    }
}

/// A warm hello's `[num_samples, spec_hash, epoch]`.
fn decode_warm_hello(Words(words): Words) -> Result<[u64; 3], PpcsError> {
    <[u64; 3]>::try_from(words).map_err(|_| PpcsError::Protocol("malformed warm hello".into()))
}

/// Runs `lead` and `flight` on one task, always polling `lead` first so
/// that it takes the first inbound frame. Once `lead` has resolved,
/// `keep` decides whether `flight` runs to its end or is dropped
/// unfinished; `flight`'s own result, an error included, counts only
/// when it is kept.
async fn lead_then<T, U, E>(
    lead: impl Future<Output = Result<T, E>>,
    flight: impl Future<Output = U>,
    keep: impl Fn(&T) -> bool,
) -> Result<(T, Option<U>), E> {
    let (mut lead, mut flight) = (pin!(lead), pin!(flight));
    let (mut led, mut flown) = (None, None);
    poll_fn(|cx| {
        if led.is_none() {
            if let Poll::Ready(t) = lead.as_mut().poll(cx) {
                let t = t?;
                if !keep(&t) {
                    return Poll::Ready(Ok((t, None)));
                }
                led = Some(t);
            }
        }
        if flown.is_none() {
            if let Poll::Ready(u) = flight.as_mut().poll(cx) {
                flown = Some(u);
            }
        }
        match (led.take(), flown.take()) {
            (Some(t), Some(u)) => Poll::Ready(Ok((t, Some(u)))),
            (t, u) => {
                (led, flown) = (t, u);
                Poll::Pending
            }
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_math::FixedFpAlgebra;
    use ppcs_ot::{NaorPinkasOt, TrustedSimOt};
    use ppcs_svm::{Dataset, SmoParams};
    use ppcs_transport::{run_pair, Endpoint, Frame};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_data(dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for k in 0..n {
            let positive = k % 2 == 0;
            let c = if positive { 0.5 } else { -0.5 };
            ds.push(
                (0..dim).map(|_| c + rng.gen_range(-0.45..0.45)).collect(),
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        ds
    }

    fn run_batch(
        model: &SvmModel,
        cfg: ProtocolConfig,
        samples: Vec<Vec<f64>>,
        ot: &'static dyn ObliviousTransfer,
        seed: u64,
    ) -> Vec<Label> {
        let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let (_, labels) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed);
                trainer.serve(&ep, ot, &mut rng).unwrap()
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed + 1);
                client.classify_batch(&ep, ot, &mut rng, &samples).unwrap()
            },
        );
        labels
    }

    static SIM: TrustedSimOt = TrustedSimOt;

    #[test]
    fn linear_private_matches_plain_f64() {
        let ds = blob_data(4, 80, 1);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, ProtocolConfig::default(), samples.clone(), &SIM, 10);
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, model.predict(sample));
        }
    }

    #[test]
    fn linear_private_matches_plain_fixed_point() {
        let ds = blob_data(3, 60, 2);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..20).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, ProtocolConfig::default(), samples.clone(), &SIM, 20);
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, model.predict(sample));
        }
    }

    #[test]
    fn polynomial_private_matches_plain() {
        let ds = blob_data(4, 80, 3);
        let model = SvmModel::train(&ds, Kernel::paper_polynomial(4), &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..30).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, ProtocolConfig::default(), samples.clone(), &SIM, 30);
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, model.predict(sample));
        }
    }

    #[test]
    fn inhomogeneous_polynomial_roundtrip() {
        let ds = blob_data(3, 60, 4);
        let model = SvmModel::train(
            &ds,
            Kernel::Polynomial {
                a0: 0.5,
                b0: 1.0,
                degree: 2,
            },
            &SmoParams::default(),
        );
        let samples: Vec<Vec<f64>> = (0..20).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, ProtocolConfig::default(), samples.clone(), &SIM, 40);
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, model.predict(sample));
        }
    }

    #[test]
    fn rbf_private_matches_truncated_expansion() {
        let ds = blob_data(3, 50, 5);
        let model = SvmModel::train(&ds, Kernel::Rbf { gamma: 0.4 }, &SmoParams::default());
        let cfg = ProtocolConfig {
            taylor_order: 4,
            ..ProtocolConfig::default()
        };
        let samples: Vec<Vec<f64>> = (0..15).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, cfg, samples.clone(), &SIM, 50);
        // The private result equals the sign of the *truncated* expansion.
        let expanded = expand_model(&model, &cfg).unwrap();
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, Label::from_sign(expanded.eval(sample)));
        }
    }

    #[test]
    fn works_over_cryptographic_ot() {
        use std::sync::OnceLock;
        static NP: OnceLock<NaorPinkasOt> = OnceLock::new();
        let ot: &'static dyn ObliviousTransfer = NP.get_or_init(NaorPinkasOt::fast_insecure);
        let ds = blob_data(2, 40, 6);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..4).map(|i| ds.features(i).to_vec()).collect();
        let labels = run_batch(&model, ProtocolConfig::default(), samples.clone(), ot, 60);
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, model.predict(sample));
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let ds = blob_data(3, 40, 7);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let cfg = ProtocolConfig::default();
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let (_, res) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                let _ = trainer.serve(&ep, &SIM, &mut rng);
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client.classify_batch(&ep, &SIM, &mut rng, &[vec![1.0, 2.0]])
            },
        );
        assert!(matches!(res.unwrap_err(), PpcsError::Protocol(_)));
    }

    #[test]
    fn unencodable_coordinate_is_rejected() {
        let ds = blob_data(2, 40, 7);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let cfg = ProtocolConfig::default();
        for bad in [f64::NAN, f64::INFINITY, 1e40] {
            let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).unwrap();
            let client = Client::new(FixedFpAlgebra::new(16), cfg);
            let (_, res) = run_pair(
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let _ = trainer.serve(&ep, &SIM, &mut rng);
                },
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(2);
                    client.classify_batch(&ep, &SIM, &mut rng, &[vec![0.5, bad]])
                },
            );
            let err = res.unwrap_err();
            assert!(
                matches!(&err, PpcsError::Protocol(msg) if msg.contains("coordinate 1")),
                "{err}"
            );
        }
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let ds = blob_data(2, 40, 8);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let trainer =
            Trainer::new(FixedFpAlgebra::new(16), &model, ProtocolConfig::default()).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
        let (_, res) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                let _ = trainer.serve(&ep, &SIM, &mut rng);
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client.classify_batch(&ep, &SIM, &mut rng, &[vec![0.0, 0.0]])
            },
        );
        assert!(matches!(res.unwrap_err(), PpcsError::Protocol(_)));
    }

    #[test]
    fn control_bodies_are_bare_words_and_a_partial_word_is_refused() {
        let words = Frame::encode(KIND_CLS_SPEC, &Words(vec![3, u64::MAX]));
        assert_eq!(words.payload.len(), 16, "no length prefix");
        let Words(back) = words.decode_as(KIND_CLS_SPEC).unwrap();
        assert_eq!(back, [3, u64::MAX]);
        // A fake trainer answers the hello with a spec cut mid-word.
        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::default());
        let (_, res) = run_pair(
            |ep| {
                assert_eq!(ep.recv().unwrap().kind, KIND_CLS_HELLO);
                let cut = words.payload.slice(..13);
                ep.send(Frame {
                    kind: KIND_CLS_SPEC,
                    payload: cut,
                })
                .unwrap();
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client.classify_batch(&ep, &SIM, &mut rng, &[vec![0.0, 0.0]])
            },
        );
        assert_eq!(
            res.unwrap_err(),
            PpcsError::Transport(TransportError::Decode(
                "frame kind 0x0501: a 13-byte body is not a whole number of 8-byte words".into()
            ))
        );
    }

    #[test]
    fn parallel_lanes_match_sequential_labels() {
        use ppcs_transport::duplex_pool;
        let ds = blob_data(3, 80, 21);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let cfg = ProtocolConfig::default();
        let samples: Vec<Vec<f64>> = (0..33).map(|i| ds.features(i).to_vec()).collect();

        let sequential = run_batch(&model, cfg, samples.clone(), &SIM, 90);

        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).unwrap();
        let server = crate::TrainerServer::new(&trainer, crate::ServerConfig::default());
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        for lanes in [1usize, 2, 4] {
            let (trainer_eps, client_eps) = duplex_pool(lanes);
            let (served, labels) = std::thread::scope(|scope| {
                let t = scope.spawn(|| {
                    let summary = server.serve(trainer_eps, &SIM, 91).unwrap();
                    summary.served_samples
                });
                let c = scope.spawn(|| {
                    // Dropping the lanes on return ends the trainer's loop.
                    let client_eps = client_eps;
                    client
                        .classify_batch_parallel(&client_eps, &SIM, 92, &samples)
                        .unwrap()
                });
                (t.join().unwrap(), c.join().unwrap())
            });
            assert_eq!(served, samples.len());
            assert_eq!(labels, sequential, "lanes={lanes}");
        }
    }

    #[test]
    fn parallel_rejects_empty_lane_set() {
        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::default());
        let err = client
            .classify_batch_parallel::<Endpoint>(&[], &SIM, 0, &[vec![0.0]])
            .unwrap_err();
        assert!(matches!(err, PpcsError::Protocol(_)));
    }

    #[test]
    fn shard_evenly_covers_all_samples_in_order() {
        let samples: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        for lanes in 1..=6 {
            let chunks = shard_evenly(&samples, lanes);
            assert_eq!(chunks.len(), lanes);
            let flat: Vec<Vec<f64>> = chunks.iter().flat_map(|c| c.to_vec()).collect();
            assert_eq!(flat, samples, "lanes={lanes}");
            let max = chunks.iter().map(|c| c.len()).max().unwrap();
            let min = chunks.iter().map(|c| c.len()).min().unwrap();
            assert!(max - min <= 1, "lanes={lanes}: uneven shards");
        }
    }

    #[test]
    fn spec_wire_roundtrip() {
        for spec in [
            ClassifySpec {
                dim: 5,
                basis: None,
                ompe: OmpeParams::new(1, 3, 2).unwrap(),
            },
            ClassifySpec {
                dim: 8,
                basis: Some(BasisKind::Homogeneous { degree: 3 }),
                ompe: OmpeParams::new(3, 3, 2).unwrap(),
            },
            ClassifySpec {
                dim: 4,
                basis: Some(BasisKind::UpTo { degree: 6 }),
                ompe: OmpeParams::new(6, 2, 1).unwrap(),
            },
        ] {
            let wire = spec.encode_wire();
            assert_eq!(ClassifySpec::decode_wire(&wire).unwrap(), spec);
        }
    }

    #[test]
    fn served_polynomial_is_the_expanded_decision() {
        // The trainer's `DensePoly` and `BasisKind::features` (the
        // oracle behind `ExpandedDecision::eval`) must enumerate the
        // monomials in the same order, and the per-degree scale lift
        // must land every term at the output scale.
        let mut rng = StdRng::seed_from_u64(33);
        let cfg = ProtocolConfig::default();
        let fixed = FixedFpAlgebra::new(16);
        for dim in 1..=4usize {
            for degree in 1..=4u32 {
                for basis in [
                    BasisKind::Homogeneous { degree },
                    BasisKind::UpTo { degree },
                ] {
                    let len = basis.len(dim).unwrap() as usize;
                    let expanded = ExpandedDecision {
                        dim,
                        basis,
                        coeffs: (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                        bias: rng.gen_range(-1.0..1.0),
                    };
                    let t: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let want = expanded.eval(&t);

                    let field = Trainer::from_expanded(fixed, &expanded, cfg).unwrap();
                    let y: Vec<_> = t.iter().map(|v| fixed.encode(*v, 1)).collect();
                    let got = fixed.decode(&field.base.eval(&fixed, &y), field.spec.output_scale());
                    assert!(
                        (got - want).abs() < 2e-3,
                        "{basis:?}/{dim}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_expansions_are_typed_errors() {
        let short = ExpandedDecision {
            dim: 3,
            basis: BasisKind::UpTo { degree: 2 },
            coeffs: vec![0.5; 8],
            bias: 0.0,
        };
        let cfg = ProtocolConfig::default();
        assert!(matches!(
            Trainer::from_expanded(FixedFpAlgebra::new(16), &short, cfg),
            Err(PpcsError::Expansion(_))
        ));
        let no_vars = ExpandedDecision {
            dim: 0,
            coeffs: Vec::new(),
            ..short
        };
        assert!(matches!(
            Trainer::from_expanded(FixedFpAlgebra::new(16), &no_vars, cfg),
            Err(PpcsError::Expansion(_))
        ));
    }

    #[test]
    fn unencodable_coefficients_are_typed_errors() {
        let cfg = ProtocolConfig::default();
        let fixed = FixedFpAlgebra::new(16);
        // 0.5 + y₀ + y₁ + y₀² + y₀y₁ + y₁², one value replaced at a time.
        let model = |at: usize, w: f64| {
            let mut all = [1.0; 6];
            all[at] = w;
            ExpandedDecision {
                dim: 2,
                basis: BasisKind::UpTo { degree: 2 },
                coeffs: all[..5].to_vec(),
                bias: 0.5 * all[5],
            }
        };
        // The top block holds 63-bit integers at 16 fractional bits.
        let top_limit = 2f64.powi(47);
        for (at, w, named) in [
            (1, f64::NAN, "degree-1 coefficient 1 is NaN"),
            (0, 1e40, "degree-1 coefficient 0 is 1000"),
            (3, f64::NEG_INFINITY, "degree-2 coefficient 1 is -inf"),
            (4, top_limit, "below 2^47"),
            (4, -top_limit, "degree-2 coefficient 2"),
            (5, f64::INFINITY, "degree-0 coefficient 0 is inf"),
        ] {
            match Trainer::from_expanded(fixed, &model(at, w), cfg) {
                Err(PpcsError::Config(msg)) => assert!(msg.contains(named), "{msg}"),
                other => panic!("{named}: {:?}", other.map(|_| ())),
            }
        }
        assert!(matches!(
            Trainer::from_expanded(fixed, &model(4, f64::NAN), cfg),
            Err(PpcsError::Config(_))
        ));
        // Just inside the limit is served, and exactly.
        let w = top_limit - 1.0;
        let trainer = Trainer::from_expanded(fixed, &model(4, w), cfg).unwrap();
        let y = [fixed.encode(0.25, 1), fixed.encode(-2.0, 1)];
        let got = fixed.decode(&trainer.base.eval(&fixed, &y), 3);
        assert_eq!(got, 0.5 + 0.25 - 2.0 + 0.0625 - 0.5 + 4.0 * w);
    }

    #[test]
    fn spec_with_inconsistent_degrees_is_refused() {
        // basis degree 3 under an OMPE bound of 2.
        let err = ClassifySpec::decode_wire(&[4, 1, 3, 2, 3, 2]).unwrap_err();
        assert!(matches!(err, PpcsError::Protocol(_)), "{err}");
        assert!(ClassifySpec::decode_wire(&[4, 0, 0, 2, 3, 2]).is_err());
    }

    #[test]
    fn naive_bayes_private_matches_plain() {
        use ppcs_svm::GaussianNb;
        let ds = blob_data(3, 80, 12);
        let nb = GaussianNb::train(&ds);
        let form = nb.to_quadratic_form();
        let expanded =
            ExpandedDecision::from_quadratic_diag(&form.quadratic, &form.linear, form.bias);
        // The expansion must agree with the model before going private.
        for i in 0..10 {
            let t = ds.features(i);
            assert!((expanded.eval(t) - nb.decision(t)).abs() < 1e-9);
        }
        let cfg = ProtocolConfig::default();
        let trainer = Trainer::from_expanded(FixedFpAlgebra::new(16), &expanded, cfg).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let samples: Vec<Vec<f64>> = (0..25).map(|i| ds.features(i).to_vec()).collect();
        let samples2 = samples.clone();
        let (_, labels) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(80);
                trainer.serve(&ep, &SIM, &mut rng).unwrap()
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(81);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples2)
                    .unwrap()
            },
        );
        for (sample, got) in samples.iter().zip(&labels) {
            assert_eq!(*got, nb.predict(sample));
        }
    }

    #[test]
    fn warm_opening_flight_depends_on_who_speaks_first() {
        use ppcs_transport::run_engine_pair;
        let ds = blob_data(3, 40, 13);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let cfg = ProtocolConfig::default();
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let samples: Vec<Vec<f64>> = (0..2).map(|i| ds.features(i).to_vec()).collect();
        let cache = WarmSessionCache::new();
        cache.insert(0, trainer.spec(), trainer.epoch());
        let np = NaorPinkasOt::fast_insecure();
        // Before any trainer frame: under the ideal OT the hello and one
        // flight of clouds and query; under Naor–Pinkas, whose receiver
        // first reads the sender's commitment, the hello alone.
        for (sel, flight) in [(SIM.select(), 3), (np.select(), 0)] {
            let mut engine = client.classify_warm_engine(sel, 1, &samples, &cache, 0, None);
            let opening: Vec<Vec<u16>> = std::iter::from_fn(|| engine.poll_output())
                .map(|out| out.frames().iter().map(|f| f.kind).collect())
                .collect();
            assert_eq!(opening[0], [KIND_CLS_WARM_HELLO]);
            let flights: Vec<usize> = opening[1..].iter().map(Vec::len).collect();
            assert_eq!(flights, [flight][..usize::from(flight > 0)]);

            let mut serve = trainer.serve_session_engine(sel, 2, true, None);
            let mut classify = client.classify_warm_engine(sel, 3, &samples, &cache, 0, None);
            let (served, labels) = run_engine_pair(&mut serve, &mut classify).unwrap();
            assert_eq!(served.unwrap(), samples.len());
            for ((label, _), sample) in labels.unwrap().iter().zip(&samples) {
                assert_eq!(*label, model.predict(sample));
            }
        }
    }

    #[test]
    fn a_poisoned_warm_cache_still_serves_warm_sessions() {
        use ppcs_transport::run_engine_pair;
        let ds = blob_data(3, 40, 17);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let cfg = ProtocolConfig::default();
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).unwrap();
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let samples: Vec<Vec<f64>> = (0..3).map(|i| ds.features(i).to_vec()).collect();
        let cache = std::sync::Arc::new(WarmSessionCache::new());
        let holder = cache.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("poison the warm cache lock");
        });
        assert!(poisoner.join().is_err());
        assert!(cache.inner.is_poisoned());

        cache.insert(7, trainer.spec(), trainer.epoch());
        cache.insert(8, trainer.spec(), trainer.epoch());
        cache.remove(8);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7), Some((trainer.spec(), trainer.epoch())));
        // The warm session reads the poisoned cache and keeps it.
        let mut serve = trainer.serve_session_engine(SIM.select(), 2, true, None);
        let mut classify = client.classify_warm_engine(SIM.select(), 3, &samples, &cache, 7, None);
        let (served, labels) = run_engine_pair(&mut serve, &mut classify).unwrap();
        assert_eq!(served.unwrap(), samples.len());
        for ((label, _), sample) in labels.unwrap().iter().zip(&samples) {
            assert_eq!(*label, model.predict(sample));
        }
        assert_eq!(cache.get(7), Some((trainer.spec(), trainer.epoch())));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn functional_mode_agrees_with_full_mode() {
        let ds = blob_data(3, 60, 9);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..25).map(|i| ds.features(i).to_vec()).collect();
        let full = run_batch(&model, ProtocolConfig::default(), samples.clone(), &SIM, 70);
        let functional = run_batch(&model, ProtocolConfig::functional(), samples, &SIM, 71);
        assert_eq!(full, functional);
    }
}
