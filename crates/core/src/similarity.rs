//! Privacy-preserving data similarity evaluation (Section V).
//!
//! Two trainers compare their models without revealing them. The metric
//! combines direction and position of the *bounded* decision hyperplanes:
//! an isosceles triangle with legs `L` (centroid distance) and vertex
//! angle `θ` (hyperplane included angle), measured by its squared area
//!
//! ```text
//! T² = ¼ (L⁴ + L₀⁴)(sin²θ + sin²θ₀)
//! ```
//!
//! with public floor constants `L₀, θ₀` that keep the two degenerate
//! cases (parallel planes vs coincident centroids) distinguishable from
//! each other.
//!
//! The private computation (§V-B) runs three OMPE rounds: Bob first
//! obtains the amplified cross terms `x₁ = r_am·(m_A·m_B)` and
//! `x₂ = r_aw·(w_A·w_B) + r_b`, then evaluates Alice's two-variate
//! degree-4 polynomial `T²(x₁, x₂)` whose constants fold in the
//! amplifier inverses. Bob contributes `|m_B|²`, `|w_B|²` in the clear —
//! inseparable aggregates that reveal neither vector.
//!
//! The three rounds are rounds of one OMPE session, under one OT
//! commitment that Alice sends first. Rounds 1 and 2 are independent, so
//! they run as one exchange: Bob's hello, both point clouds and both
//! transfers' queries in one flight, both transfers' answers in one
//! frame back. Round 3 is a second exchange of one flight each way. Bob
//! draws all three rounds up front as [`BlindRound`]s, whose clouds sit
//! at the public abscissae `1..=N` and whose Lagrange-at-zero weights
//! cost no field inversion; Alice inverts once, for her amplifiers.
//! Masks, cover positions, covers and amplifiers stay fresh per round.
//!
//! Note: the paper prints `d₂ = r_aw⁻¹`; because `x₂ − (−d₃)` is squared
//! inside the polynomial, the inverse must be applied twice for the
//! identity to hold, so this implementation uses `d₂ = r_aw⁻²`
//! (documented erratum, see DESIGN.md §3.4).

use std::collections::HashMap;

use ppcs_math::{Algebra, DenseAffine, Fp256, MvPolynomial};
use ppcs_ompe::{
    BlindRound, OmpeParams, OmpeReceiverSession, OmpeSenderOffline, OmpeSenderSession,
};
use ppcs_ot::{ObliviousTransfer, OtSelect};
use ppcs_svm::{Kernel, SvmModel};
use ppcs_telemetry::Phase;
use ppcs_transport::{drive_blocking, Endpoint, FrameIo, ProtocolEngine};
use rand::RngCore;

use crate::classify::Words;
use crate::config::ProtocolConfig;
use crate::error::PpcsError;
use crate::expansion::BasisKind;

const KIND_SIM_HELLO: u16 = 0x0600;

/// Input scale (1) ⇒ cross terms x₁/x₂ at scale 2 ⇒ A-part at 4,
/// B-part at 8, product at 12.
const CROSS_SCALE: u32 = 2;
const OUTPUT_SCALE: u32 = 12;
/// Total degree of the area polynomial `T²(x₁, x₂)`.
const AREA_DEGREE: usize = 4;

/// Configuration of a similarity evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimilarityConfig {
    /// The bounded data-space interval `[α, β]` per dimension.
    pub bounds: (f64, f64),
    /// Distance floor `L₀` (public).
    pub l0: f64,
    /// Angle floor `θ₀` in degrees (public, `≪ 90°`).
    pub theta0_deg: f64,
    /// Shared protocol parameters.
    pub protocol: ProtocolConfig,
    /// Grid resolution for nonlinear boundary tracing.
    pub boundary_grid: usize,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        Self {
            bounds: (-1.0, 1.0),
            l0: 0.05,
            theta0_deg: 2.0,
            protocol: ProtocolConfig::default(),
            boundary_grid: 64,
        }
    }
}

impl SimilarityConfig {
    fn sin2_theta0(&self) -> f64 {
        self.theta0_deg.to_radians().sin().powi(2)
    }

    fn ompe_linear(&self) -> Result<OmpeParams, PpcsError> {
        Ok(OmpeParams::new(
            1,
            self.protocol.sigma,
            self.protocol.decoy_factor,
        )?)
    }

    fn ompe_area(&self) -> Result<OmpeParams, PpcsError> {
        Ok(OmpeParams::new(
            AREA_DEGREE,
            self.protocol.sigma,
            self.protocol.decoy_factor,
        )?)
    }
}

// ---------------------------------------------------------------------
// Geometry: boundary points, centroids, the plain (non-private) metric.
// ---------------------------------------------------------------------

/// The largest dimension the boundary enumeration takes.
const MAX_BOUNDARY_DIM: usize = 24;

/// Two boundary points closer than this in every coordinate are one.
const SAME_POINT: f64 = 1e-7;

/// All boundary points of the hyperplane `wᵀt + b = 0` inside the box
/// `[α, β]ⁿ`, via the paper's Eq. (5): for each dimension as the free
/// variable, solve against every corner assignment of the others and
/// keep the in-range solutions.
///
/// # Panics
///
/// Panics if `w` is empty or `n > 24` (the `n·2^{n−1}` edge enumeration
/// is exponential by construction — the paper's similarity experiments
/// stay at `n ≤ 8`).
pub fn boundary_points_linear(w: &[f64], b: f64, bounds: (f64, f64)) -> Vec<Vec<f64>> {
    let mut points = Vec::new();
    for_each_boundary_point_linear(w, b, bounds, |t| points.push(t.to_vec()));
    points
}

/// The low corner bits whose right-hand sides one table holds: 2¹²
/// `f64`, 32 KiB, where a table for all of `n = 24` would be 64 MiB.
const RHS_TABLE_BITS: usize = 12;

/// [`boundary_points_linear`]'s enumeration, handing each kept point to
/// `keep` in order instead of collecting it.
///
/// The right-hand side of the corner `mask` is `−b − Σ w_i·c_i` over the
/// non-free coordinates in bit order. Its partial sums over the low bits
/// are a table built a bit at a time — entry `m` of the next level is
/// entry `m mod 2^bit` minus `w_i·α` or `w_i·β` — so each corner costs
/// the same subtractions in the same order as the per-corner loop,
/// without repeating the shared prefixes. Bits past the table are
/// subtracted per corner, still in bit order.
fn for_each_boundary_point_linear(w: &[f64], b: f64, bounds: (f64, f64), keep: impl FnMut(&[f64])) {
    let n = w.len();
    let mut set = BoundarySet::new(n, bounds, keep);
    let (alpha, beta) = bounds;
    let corner = [alpha, beta];
    let mut t = vec![0.0; n];
    let mut others = Vec::with_capacity(n - 1);
    let low_bits = (n - 1).min(RHS_TABLE_BITS);
    let mut rhs = vec![0.0; 1 << low_bits];
    for free in (0..n).filter(|&free| w[free] != 0.0) {
        others.clear();
        others.extend((0..n).filter(|&i| i != free));
        let (low, high) = others.split_at(low_bits);
        rhs[0] = -b;
        for (bit, &i) in low.iter().enumerate() {
            let (at_alpha, at_beta) = (w[i] * alpha, w[i] * beta);
            let (lower, upper) = rhs[..2 << bit].split_at_mut(1 << bit);
            for (r, up) in lower.iter_mut().zip(upper) {
                *up = *r - at_beta;
                *r -= at_alpha;
            }
        }
        for high_mask in 0..1usize << high.len() {
            for (low_mask, &low_rhs) in rhs.iter().enumerate() {
                let mut r = low_rhs;
                for (bit, &i) in high.iter().enumerate() {
                    r -= w[i] * corner[high_mask >> bit & 1];
                }
                let u = r / w[free];
                if u >= alpha && u <= beta {
                    let mask = high_mask << low_bits | low_mask;
                    for (bit, &i) in others.iter().enumerate() {
                        t[i] = corner[mask >> bit & 1];
                    }
                    t[free] = u;
                    set.start_edge();
                    set.push(&t, free);
                }
            }
        }
    }
}

/// Boundary points as a set, in the order they were found: a plane
/// through a box corner is found once per incident edge, and keeping the
/// duplicates would skew the centroid by floating-point luck.
///
/// A new point found on the edge with free coordinate `i` can only
/// duplicate a kept point `q` that is
/// * from the same edge (same free coordinate and mask, kept since the
///   enumeration last called [`start_edge`](Self::start_edge)), or
/// * *near-vertex* — its free coordinate within [`SAME_POINT`] of `α` or
///   `β` — and then so is the new point. If `q`'s free coordinate is
///   `j ≠ i`, the new point's `t_j` is a corner value and `q`'s `t_i` is
///   one too, so each free coordinate sits near a corner. If it is `i`
///   under another mask, the two differ by `β − α` in some corner
///   coordinate, so the box is narrower than `SAME_POINT` and every
///   point counts as near-vertex (`narrow`: whatever the rounding of a
///   grid node).
///
/// The set therefore holds only those two kinds of point, flat, and
/// hands every kept point to `keep`. [`push`](Self::push) compares with
/// the same float expression as an all-pairs check, so it keeps what
/// that keeps.
///
/// Every coordinate of a near-vertex point lies within [`SAME_POINT`] of
/// `α` or `β`, so the point sits at a vertex: bit `i` set when `t_i` is
/// nearer `β` (see [`vertex`](Self::vertex)). In a box at least
/// [`BUCKET_WIDTH`] wide, two near-vertex points at different vertices
/// differ by more than `β − α − 2·SAME_POINT` in some coordinate and are
/// never duplicates, so the near-vertex points are kept per vertex and a
/// new one is compared only with those at its own. A plane through many
/// vertices then costs one comparison per point found at a vertex, not
/// one per point kept. A narrower box keeps them all at vertex 0.
struct BoundarySet<K> {
    corner: [f64; 2],
    narrow: bool,
    bucketed: bool,
    dim: usize,
    edge: Vec<f64>,
    near_vertex: HashMap<u32, Vec<f64>>,
    keep: K,
}

/// The narrowest box whose near-vertex points are kept per vertex: above
/// `3·SAME_POINT`, with a margin for rounding.
const BUCKET_WIDTH: f64 = 4.0 * SAME_POINT;

impl<K: FnMut(&[f64])> BoundarySet<K> {
    fn new(dim: usize, (alpha, beta): (f64, f64), keep: K) -> Self {
        assert!(dim >= 1, "need at least one dimension");
        assert!(
            dim <= MAX_BOUNDARY_DIM,
            "corner enumeration is 2^(n-1); {dim} dims is too many"
        );
        Self {
            corner: [alpha, beta],
            narrow: close(alpha, beta),
            bucketed: (beta - alpha).abs() >= BUCKET_WIDTH,
            dim,
            edge: Vec::new(),
            near_vertex: HashMap::new(),
            keep,
        }
    }

    /// Starts a new box edge: the previous edge's points can no longer
    /// be duplicated unless they are near-vertex.
    fn start_edge(&mut self) {
        self.edge.clear();
    }

    /// Keeps `t` (free coordinate `free`) unless it duplicates a kept
    /// point.
    fn push(&mut self, t: &[f64], free: usize) {
        let [alpha, beta] = self.corner;
        let near = self.narrow || close(t[free], alpha) || close(t[free], beta);
        let same = |q: &[f64]| {
            #[cfg(test)]
            tests::COMPARISONS.set(tests::COMPARISONS.get() + 1);
            t.iter().zip(q).all(|(&a, &b)| close(a, b))
        };
        let vertex = if near { self.vertex(t) } else { 0 };
        let duplicate = self.edge.chunks_exact(self.dim).any(same)
            || near
                && (self.near_vertex.get(&vertex))
                    .is_some_and(|kept| kept.chunks_exact(self.dim).any(same));
        if !duplicate {
            if near {
                self.near_vertex
                    .entry(vertex)
                    .or_default()
                    .extend_from_slice(t);
            }
            self.edge.extend_from_slice(t);
            (self.keep)(t);
        }
    }

    /// The vertex a near-vertex point sits at, as a bit mask: bit `i`
    /// set when `t_i` lies nearer `β` than `α`. Always 0 in a box
    /// narrower than [`BUCKET_WIDTH`].
    fn vertex(&self, t: &[f64]) -> u32 {
        if !self.bucketed {
            return 0;
        }
        let [alpha, beta] = self.corner;
        t.iter().enumerate().fold(0, |mask, (i, &v)| {
            mask | u32::from((v - alpha).abs() > (v - beta).abs()) << i
        })
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < SAME_POINT
}

/// Boundary points of a general decision surface `d(t) = 0` inside the
/// box, found by scanning each box edge for sign changes of `d` and
/// bisecting (the nonlinear analog of Eq. 5).
///
/// # Panics
///
/// Same dimensional limits as [`boundary_points_linear`].
pub fn boundary_points_decision(
    decision: &dyn Fn(&[f64]) -> f64,
    dim: usize,
    bounds: (f64, f64),
    grid: usize,
) -> Vec<Vec<f64>> {
    let mut points = Vec::new();
    for_each_boundary_point_decision(decision, dim, bounds, grid, |t| points.push(t.to_vec()));
    points
}

/// [`boundary_points_decision`]'s enumeration, handing each kept point
/// to `keep` in order instead of collecting it.
fn for_each_boundary_point_decision(
    decision: &dyn Fn(&[f64]) -> f64,
    dim: usize,
    bounds: (f64, f64),
    grid: usize,
    keep: impl FnMut(&[f64]),
) {
    let mut set = BoundarySet::new(dim, bounds, keep);
    let (alpha, beta) = bounds;
    let grid = grid.max(2);
    let mut t = vec![0.0; dim];
    let mut others = Vec::with_capacity(dim - 1);
    for free in 0..dim {
        others.clear();
        others.extend((0..dim).filter(|&i| i != free));
        for mask in 0..1usize << others.len() {
            for (bit, &i) in others.iter().enumerate() {
                t[i] = set.corner[mask >> bit & 1];
            }
            set.start_edge();
            let eval_at = |u: f64, t: &mut Vec<f64>| {
                t[free] = u;
                decision(t)
            };
            let mut prev_u = alpha;
            let mut prev_v = eval_at(prev_u, &mut t);
            for g in 1..=grid {
                let u = alpha + (beta - alpha) * g as f64 / grid as f64;
                let v = eval_at(u, &mut t);
                if prev_v == 0.0 {
                    t[free] = prev_u;
                    set.push(&t, free);
                } else if prev_v * v < 0.0 {
                    // Bisect the bracketing interval.
                    let (mut lo, mut hi) = (prev_u, u);
                    let (mut flo, _) = (prev_v, v);
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        let fmid = eval_at(mid, &mut t);
                        if flo * fmid <= 0.0 {
                            hi = mid;
                        } else {
                            lo = mid;
                            flo = fmid;
                        }
                    }
                    t[free] = 0.5 * (lo + hi);
                    set.push(&t, free);
                }
                prev_u = u;
                prev_v = v;
            }
            // A zero sitting exactly on the far endpoint has no following
            // node to report it; handle it here.
            if prev_v == 0.0 {
                t[free] = prev_u;
                set.push(&t, free);
            }
        }
    }
}

/// The running sum of a point stream: [`centroid`] without the list.
struct CentroidSum {
    acc: Vec<f64>,
    count: usize,
}

impl CentroidSum {
    fn new(dim: usize) -> Self {
        Self {
            acc: vec![0.0; dim],
            count: 0,
        }
    }

    fn add(&mut self, p: &[f64]) {
        for (a, v) in self.acc.iter_mut().zip(p) {
            *a += v;
        }
        self.count += 1;
    }

    /// The mean of the points added, or `None` if there were none.
    fn finish(mut self) -> Option<Vec<f64>> {
        if self.count == 0 {
            return None;
        }
        for a in &mut self.acc {
            *a /= self.count as f64;
        }
        Some(self.acc)
    }
}

/// The centroid of a point set, or `None` if empty (plane misses the
/// box).
pub fn centroid(points: &[Vec<f64>]) -> Option<Vec<f64>> {
    let mut sum = CentroidSum::new(points.first()?.len());
    for p in points {
        sum.add(p);
    }
    sum.finish()
}

/// `centroid(&boundary_points_linear(w, b, bounds))`, bit for bit,
/// summed as the points are found.
fn boundary_centroid_linear(w: &[f64], b: f64, bounds: (f64, f64)) -> Option<Vec<f64>> {
    let mut sum = CentroidSum::new(w.len());
    for_each_boundary_point_linear(w, b, bounds, |t| sum.add(t));
    sum.finish()
}

/// `centroid(&boundary_points_decision(..))`, bit for bit, summed as the
/// points are found.
fn boundary_centroid_decision(
    decision: &dyn Fn(&[f64]) -> f64,
    dim: usize,
    bounds: (f64, f64),
    grid: usize,
) -> Option<Vec<f64>> {
    let mut sum = CentroidSum::new(dim);
    for_each_boundary_point_decision(decision, dim, bounds, grid, |t| sum.add(t));
    sum.finish()
}

/// `cos²θ` between two normal vectors.
pub fn cos2_between(v: &[f64], w: &[f64]) -> f64 {
    let num = ppcs_svm::dot(v, w).powi(2);
    let den = ppcs_svm::dot(v, v) * ppcs_svm::dot(w, w);
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The squared triangle-area metric of Eq. (4)/(6), computed in the
/// clear.
pub fn triangle_area_squared(l2: f64, cos2: f64, l0: f64, sin2_theta0: f64) -> f64 {
    0.25 * (l2 * l2 + l0.powi(4)) * ((1.0 - cos2) + sin2_theta0)
}

/// The geometric summary of one model that similarity runs on: the
/// bounded-plane centroid `m` and the direction vector `w`.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelGeometry {
    /// Centroid of the bounded decision surface.
    pub centroid: Vec<f64>,
    /// Direction: linear weights, or (nonlinear) the expanded coefficient
    /// vector standing in for the feature-space normal.
    pub direction: Vec<f64>,
    /// `|m|²` in the appropriate space (`K(m, m)` for kernels).
    pub m_norm2: f64,
    /// `|w|²` (`K(w, w)` for kernels).
    pub w_norm2: f64,
    /// `true` if the geometry lives in the expanded monomial space.
    expanded: Option<BasisKind>,
}

impl ModelGeometry {
    /// Extracts the geometry from a trained model.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Expansion`] if the model has no dimension or more than
    /// 24 (the boundary enumeration visits `n·2^{n−1}` box edges), the
    /// surface misses the bounded box (no boundary points) or the kernel
    /// is unsupported for similarity (only linear and homogeneous
    /// polynomial kernels are implemented, matching §V-B/§V-C).
    #[allow(clippy::redundant_guards)] // float literal patterns are a hard error
    pub fn from_model(model: &SvmModel, cfg: &SimilarityConfig) -> Result<Self, PpcsError> {
        let dim = model.dim();
        if !(1..=MAX_BOUNDARY_DIM).contains(&dim) {
            return Err(PpcsError::Expansion(format!(
                "the boundary enumeration visits n·2^(n−1) box edges and takes \
                 1 ≤ n ≤ {MAX_BOUNDARY_DIM}; the model has n = {dim}"
            )));
        }
        match model.kernel() {
            Kernel::Linear => {
                let w = model
                    .linear_weights()
                    .ok_or_else(|| PpcsError::Expansion("a linear model without weights".into()))?;
                let m =
                    boundary_centroid_linear(&w, model.bias(), cfg.bounds).ok_or_else(|| {
                        PpcsError::Expansion(
                            "decision hyperplane does not intersect the bounded box".into(),
                        )
                    })?;
                let m_norm2 = ppcs_svm::dot(&m, &m);
                let w_norm2 = ppcs_svm::dot(&w, &w);
                Ok(Self {
                    centroid: m,
                    direction: w,
                    m_norm2,
                    w_norm2,
                    expanded: None,
                })
            }
            Kernel::Polynomial { a0, b0, degree } if b0 == 0.0 => {
                let decision = |t: &[f64]| model.decision(t);
                let m = boundary_centroid_decision(&decision, dim, cfg.bounds, cfg.boundary_grid)
                    .ok_or_else(|| {
                    PpcsError::Expansion(
                        "decision surface does not intersect the bounded box".into(),
                    )
                })?;
                let basis = BasisKind::Homogeneous { degree };
                // Feature-space image of the centroid and of the normal:
                // φ(m) has coordinates √mult·τ(m); working with plain τ and
                // multiplicity-weighted partner vectors keeps all inner
                // products equal to the kernel values (see protocol notes).
                let kernel = model.kernel();
                let m_norm2 = kernel.eval(&m, &m);
                // K(w, w) = Σ_su c_s c_u K(x_s, x_u).
                let svs = model.support_vectors();
                let cs = model.coefficients();
                let mut w_norm2 = 0.0;
                for (xs, &cs_i) in svs.iter().zip(cs) {
                    for (xu, &cu) in svs.iter().zip(cs) {
                        w_norm2 += cs_i * cu * kernel.eval(xs, xu);
                    }
                }
                // Direction in expanded space: the homogeneous expansion
                // coefficients of Σ_s c_s (a0 xᵀ·)^p, multiplicity-weighted
                // so that direction · τ(y) = K(w, y).
                let expansion = crate::expansion::expand_model(
                    model,
                    &ProtocolConfig {
                        max_expanded_terms: cfg.protocol.max_expanded_terms,
                        ..cfg.protocol
                    },
                )?;
                let _ = a0;
                Ok(Self {
                    centroid: m,
                    direction: expansion.coeffs,
                    m_norm2,
                    w_norm2,
                    expanded: Some(basis),
                })
            }
            other => Err(PpcsError::Expansion(format!(
                "similarity evaluation supports linear and homogeneous polynomial \
                 kernels, got {other:?}"
            ))),
        }
    }

    /// The cross inner product `m_A · m_B` (or `K(m_A, m_B)`), given the
    /// peer's centroid.
    fn cross_m(&self, other_centroid: &[f64], kernel: Kernel) -> f64 {
        match self.expanded {
            None => ppcs_svm::dot(&self.centroid, other_centroid),
            Some(_) => kernel.eval(&self.centroid, other_centroid),
        }
    }
}

/// Plain (non-private) similarity: both models in one place — the
/// baseline of Table II and Fig. 10.
///
/// # Errors
///
/// Propagates geometry extraction failures; also fails if the models
/// disagree in kernel or dimensionality.
pub fn similarity_plain(
    model_a: &SvmModel,
    model_b: &SvmModel,
    cfg: &SimilarityConfig,
) -> Result<f64, PpcsError> {
    if model_a.kernel() != model_b.kernel() || model_a.dim() != model_b.dim() {
        return Err(PpcsError::Config(
            "similarity requires models with matching kernel and dimensionality".into(),
        ));
    }
    let ga = ModelGeometry::from_model(model_a, cfg)?;
    let gb = ModelGeometry::from_model(model_b, cfg)?;
    Ok(similarity_plain_geometry(
        &ga,
        &gb,
        model_a.kernel(),
        &direction_input(&gb, model_b)?,
        cfg,
    ))
}

/// The plain metric given precomputed geometries — the quantity whose
/// per-evaluation cost Fig. 10's "ordinary" curve measures.
pub fn similarity_plain_geometry(
    ga: &ModelGeometry,
    gb: &ModelGeometry,
    kernel: Kernel,
    gb_direction_input: &[f64],
    cfg: &SimilarityConfig,
) -> f64 {
    let cross_m = ga.cross_m(&gb.centroid, kernel);
    let cross_w = ppcs_svm::dot(&ga.direction, gb_direction_input);
    let l2 = ga.m_norm2 + gb.m_norm2 - 2.0 * cross_m;
    let cos2 = cross_w * cross_w / (ga.w_norm2 * gb.w_norm2);
    let t2 = triangle_area_squared(l2, cos2, cfg.l0, cfg.sin2_theta0());
    t2.max(0.0).sqrt()
}

/// Bob's OMPE-2 input vector: his raw direction for linear models, or
/// the aggregated support-vector monomials `Z = Σ_u c_u τ(x_u)` for
/// kernels (so that Alice's expansion coefficients dot with it to give
/// `K(w_A, w_B)`).
///
/// # Errors
///
/// [`PpcsError::Expansion`] if `g` is a kernel geometry that did not
/// come from `model`: its basis over `model`'s dimension does not have
/// one monomial per coefficient of `g`'s direction.
pub fn direction_input(g: &ModelGeometry, model: &SvmModel) -> Result<Vec<f64>, PpcsError> {
    let Some(basis) = g.expanded else {
        return Ok(g.direction.clone());
    };
    // `from_model` expanded `g`'s direction over this basis, one
    // coefficient per monomial of its model's dimension.
    if basis.len(model.dim()) != Some(g.direction.len() as u64) {
        return Err(PpcsError::Expansion(format!(
            "a geometry with {} expanded coefficients is not from this {}-dimensional model",
            g.direction.len(),
            model.dim()
        )));
    }
    let mut z = vec![0.0; g.direction.len()];
    for (sv, &c) in model.support_vectors().iter().zip(model.coefficients()) {
        for (zi, f) in z.iter_mut().zip(basis.features(sv)) {
            *zi += c * f;
        }
    }
    Ok(z)
}

/// Bob's OMPE-1 input: his centroid (linear) or its monomial features.
fn centroid_input(g: &ModelGeometry, dim: usize) -> Vec<f64> {
    match g.expanded {
        None => g.centroid.clone(),
        Some(basis) => basis.features(&g.centroid[..dim]),
    }
}

/// Alice's OMPE-1 coefficient vector: her centroid (linear), or the
/// multiplicity- and `a₀^p`-weighted monomials of her centroid so that
/// `coeffs · τ(m_B) = K(m_A, m_B)` for the homogeneous kernel.
///
/// Both arguments are Alice's own; a geometry that disagrees with the
/// kernel is [`PpcsError::Config`].
fn centroid_coefficients(g: &ModelGeometry, kernel: Kernel) -> Result<Vec<f64>, PpcsError> {
    match (g.expanded, kernel) {
        (None, _) => Ok(g.centroid.clone()),
        (Some(BasisKind::Homogeneous { degree }), Kernel::Polynomial { a0, .. }) => {
            let scale = a0.powi(degree as i32);
            let mut out = Vec::new();
            crate::expansion::for_each_multiset(g.centroid.len(), degree, &mut |tuple| {
                let mult =
                    ppcs_math::multinomial_coeff(degree, &crate::expansion::multiplicities(tuple));
                let prod: f64 = tuple.iter().map(|&i| g.centroid[i as usize]).product();
                out.push(scale * mult * prod);
            });
            Ok(out)
        }
        (Some(basis), kernel) => Err(PpcsError::Config(format!(
            "a {basis:?} geometry does not fit a {kernel:?} kernel"
        ))),
    }
}

// ---------------------------------------------------------------------
// The private protocol.
// ---------------------------------------------------------------------

/// Alice's (responder) side of a private similarity evaluation.
///
/// # Errors
///
/// Geometry extraction, transport, and OMPE failures.
pub fn similarity_respond<A>(
    alg: &A,
    ep: &Endpoint,
    ot: &dyn ObliviousTransfer,
    rng: &mut dyn RngCore,
    model: &SvmModel,
    cfg: &SimilarityConfig,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    let geom = ModelGeometry::from_model(model, cfg)?;
    similarity_respond_geometry(alg, ep, ot, rng, &geom, model.kernel(), model.dim(), cfg)
}

/// Sans-I/O twin of [`similarity_respond`]: Alice's role over a
/// [`FrameIo`] mailbox.
///
/// # Errors
///
/// Same as [`similarity_respond`].
pub async fn similarity_respond_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    model: &SvmModel,
    cfg: &SimilarityConfig,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    let geom = ModelGeometry::from_model(model, cfg)?;
    similarity_respond_geometry_io(alg, io, sel, rng, &geom, model.kernel(), model.dim(), cfg).await
}

/// [`similarity_respond`] with a precomputed [`ModelGeometry`] — lets a
/// trainer reuse its boundary/centroid computation across sessions.
///
/// # Errors
///
/// Same as [`similarity_respond`].
#[allow(clippy::too_many_arguments)]
pub fn similarity_respond_geometry<A>(
    alg: &A,
    ep: &Endpoint,
    ot: &dyn ObliviousTransfer,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    kernel: Kernel,
    model_dim: usize,
    cfg: &SimilarityConfig,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    let sel = ot.select();
    let mut engine = ProtocolEngine::new(|io| async move {
        similarity_respond_geometry_io(alg, &io, sel, rng, geom, kernel, model_dim, cfg).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O twin of [`similarity_respond_geometry`].
///
/// # Errors
///
/// Same as [`similarity_respond_geometry`].
#[allow(clippy::too_many_arguments)]
pub async fn similarity_respond_geometry_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    kernel: Kernel,
    model_dim: usize,
    cfg: &SimilarityConfig,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    similarity_respond_session_io(alg, io, sel, rng, geom, kernel, model_dim, cfg, None).await
}

/// [`similarity_respond_geometry_io`] consuming precomputed offline
/// material, so the online phase spends nothing on mask refreshes or
/// OT base-phase setup. Pairs with any requester — see
/// [`SimilarityResponderOffline`].
///
/// # Errors
///
/// Same as [`similarity_respond_geometry`].
#[allow(clippy::too_many_arguments)]
pub async fn similarity_respond_geometry_offline_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    kernel: Kernel,
    model_dim: usize,
    cfg: &SimilarityConfig,
    offline: SimilarityResponderOffline,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    similarity_respond_session_io(
        alg,
        io,
        sel,
        rng,
        geom,
        kernel,
        model_dim,
        cfg,
        Some(offline),
    )
    .await
}

#[allow(clippy::too_many_arguments)]
async fn similarity_respond_session_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    kernel: Kernel,
    model_dim: usize,
    cfg: &SimilarityConfig,
    offline: Option<SimilarityResponderOffline>,
) -> Result<(), PpcsError>
where
    A: Algebra,
{
    let _span = ppcs_telemetry::span(Phase::Similarity);
    cfg.protocol.validate()?;
    // The commitment goes out before anything arrives: Bob's first
    // flight carries his queries, which need it.
    let linear = cfg.ompe_linear()?;
    let mut session = match offline {
        Some(o) => OmpeSenderSession::new_precomputed_io(io, sel, linear, o.pack)?,
        None => OmpeSenderSession::new_io(io, sel, rng, linear).await?,
    };

    // Round 0: Bob's inseparable aggregates arrive in the clear.
    let (dim, mb_norm2, wb_norm2) = decode_hello(io.recv_msg(KIND_SIM_HELLO).await?)?;
    if dim != model_dim {
        return Err(PpcsError::Protocol(format!(
            "peer evaluates {dim}-dimensional models, ours is {model_dim}-dimensional"
        )));
    }

    // Rounds 1 and 2, one exchange: x₁ = r_am · (m_A · m_B) and
    // x₂ = r_aw · (w_A · w_B) + r_b.
    let amplified = |inputs: &[f64], r: i64| -> Vec<Fp256> {
        inputs
            .iter()
            .map(|v| alg.mul(&alg.encode(*v, 1), &alg.encode_int(r)))
            .collect()
    };
    let ram = cfg.protocol.draw_amplifier(rng);
    let raw = cfg.protocol.draw_amplifier(rng);
    let rb = cfg.protocol.draw_amplifier(rng);
    let rb_enc = alg.encode(rb as f64, CROSS_SCALE);
    let secret1 = DenseAffine::new(
        amplified(&centroid_coefficients(geom, kernel)?, ram),
        alg.zero(),
    );
    let secret2 = DenseAffine::new(amplified(&geom.direction, raw), rb_enc);
    session
        .send_rounds_io(alg, io, sel, rng, &[&secret1, &secret2])
        .await?;

    // Round 3: the two-variate degree-4 area polynomial.
    let area_poly = build_area_polynomial(
        alg,
        geom.m_norm2 + mb_norm2,
        cfg.l0,
        1.0 / (geom.w_norm2 * wb_norm2),
        1.0 + cfg.sin2_theta0(),
        ram,
        raw,
        &rb_enc,
    )?;
    session.set_degree_bound(AREA_DEGREE)?;
    session.send_round_io(alg, io, sel, rng, &area_poly).await?;
    Ok(())
}

/// Input-independent offline material for one responder session: the
/// OT commitment all three rounds run under and a masking polynomial
/// per round (two linear cross-term rounds, then the degree-4 area
/// round), drawn before Bob's inputs — or Bob himself — exist.
///
/// The offline responder produces byte-compatible traffic, so it pairs
/// with any requester; a requester never knows (or cares) whether the
/// responder precomputed.
pub struct SimilarityResponderOffline {
    pack: OmpeSenderOffline,
}

impl SimilarityResponderOffline {
    /// Precomputes the session's sender material under `cfg`.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Config`] or [`PpcsError::Ompe`] if `cfg`'s protocol
    /// parameters are invalid.
    pub fn precompute(
        alg: &impl Algebra,
        sel: OtSelect,
        cfg: &SimilarityConfig,
        rng: &mut dyn RngCore,
    ) -> Result<Self, PpcsError> {
        cfg.protocol.validate()?;
        let pack = OmpeSenderOffline::precompute(alg, sel, &cfg.ompe_linear()?, 2, rng);
        Ok(Self {
            pack: pack.with_masks(alg, &cfg.ompe_area()?, 1, rng),
        })
    }
}

/// Bob's (requester) side; returns the similarity value `T`.
///
/// # Errors
///
/// Geometry extraction, transport, and OMPE failures.
pub fn similarity_request<A>(
    alg: &A,
    ep: &Endpoint,
    ot: &dyn ObliviousTransfer,
    rng: &mut dyn RngCore,
    model: &SvmModel,
    cfg: &SimilarityConfig,
) -> Result<f64, PpcsError>
where
    A: Algebra,
{
    let geom = ModelGeometry::from_model(model, cfg)?;
    let direction_input = direction_input(&geom, model)?;
    similarity_request_geometry(alg, ep, ot, rng, &geom, &direction_input, model.dim(), cfg)
}

/// Sans-I/O twin of [`similarity_request`]: Bob's role over a
/// [`FrameIo`] mailbox.
///
/// # Errors
///
/// Same as [`similarity_request`].
pub async fn similarity_request_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    model: &SvmModel,
    cfg: &SimilarityConfig,
) -> Result<f64, PpcsError>
where
    A: Algebra,
{
    let geom = ModelGeometry::from_model(model, cfg)?;
    let direction_input = direction_input(&geom, model)?;
    similarity_request_geometry_io(alg, io, sel, rng, &geom, &direction_input, model.dim(), cfg)
        .await
}

/// [`similarity_request`] with a precomputed [`ModelGeometry`] and
/// direction input (`w_B` for linear models, `Z = Σ c_u τ(x_u)` for
/// kernels).
///
/// # Errors
///
/// Same as [`similarity_request`].
#[allow(clippy::too_many_arguments)]
pub fn similarity_request_geometry<A>(
    alg: &A,
    ep: &Endpoint,
    ot: &dyn ObliviousTransfer,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    direction_input: &[f64],
    model_dim: usize,
    cfg: &SimilarityConfig,
) -> Result<f64, PpcsError>
where
    A: Algebra,
{
    let sel = ot.select();
    let mut engine = ProtocolEngine::new(|io| async move {
        similarity_request_geometry_io(alg, &io, sel, rng, geom, direction_input, model_dim, cfg)
            .await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O twin of [`similarity_request_geometry`].
///
/// # Errors
///
/// Same as [`similarity_request_geometry`].
#[allow(clippy::too_many_arguments)]
pub async fn similarity_request_geometry_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    geom: &ModelGeometry,
    direction_input: &[f64],
    model_dim: usize,
    cfg: &SimilarityConfig,
) -> Result<f64, PpcsError>
where
    A: Algebra,
{
    let _span = ppcs_telemetry::span(Phase::Similarity);
    cfg.protocol.validate()?;
    let (linear, area) = (cfg.ompe_linear()?, cfg.ompe_area()?);
    let session = OmpeReceiverSession::new_io(io, sel, linear).await?;

    // All three rounds up front, with their retrieval weights; round 3
    // is bound once x₁ and x₂ are known.
    let mb_inputs: Vec<Fp256> = centroid_input(geom, model_dim)
        .iter()
        .map(|v| alg.encode(*v, 1))
        .collect();
    let wb_inputs: Vec<Fp256> = direction_input.iter().map(|v| alg.encode(*v, 1)).collect();
    let [round1, round2, round3] = {
        let _span = ppcs_telemetry::span(Phase::OmpePointCloud);
        [
            BlindRound::draw(alg, &linear, mb_inputs.len(), rng)?,
            BlindRound::draw(alg, &linear, wb_inputs.len(), rng)?,
            BlindRound::draw(alg, &area, 2, rng)?,
        ]
    };

    // Rounds 1 and 2: hello, both clouds and both queries in one flight.
    let cross = [round1.bind(alg, &mb_inputs)?, round2.bind(alg, &wb_inputs)?];
    io.hold();
    io.send_msg(
        KIND_SIM_HELLO,
        &Words(vec![
            model_dim as u64,
            geom.m_norm2.to_bits(),
            geom.w_norm2.to_bits(),
        ]),
    )?;
    for round in &cross {
        io.send(round.frame())?;
    }
    let x = session.finish_rounds_io(alg, io, sel, rng, &cross).await?;

    // Round 3: feed the raw (still-encoded) cross terms back in. The
    // evaluation yields 4·T² (see `build_area_polynomial` on why the ¼
    // stays out of the field); apply the public prefactor on the reals.
    let area_round = [round3.bind(alg, &x)?];
    io.hold();
    io.send(area_round[0].frame())?;
    let values = session
        .finish_rounds_io(alg, io, sel, rng, &area_round)
        .await?;
    let &[t2_elem] = &values[..] else {
        return Err(PpcsError::Protocol(
            "the area round returned no value".into(),
        ));
    };
    let t2 = 0.25 * alg.decode(&t2_elem, OUTPUT_SCALE);
    Ok(t2.max(0.0).sqrt())
}

/// Builds Alice's round-3 secret
/// `4T²(x₁,x₂) = [(c₁−2d₁x₁)² + c₂][c₄ − c₃d₂(d₃+x₂)²]`
/// with the fixed-point scale layout documented at the top of this file.
///
/// `c₁` and `c₃` fold in Bob's hello, so a constant the field cannot
/// encode is [`PpcsError::Protocol`], not a panic.
#[allow(clippy::too_many_arguments)]
fn build_area_polynomial<A: Algebra>(
    alg: &A,
    c1_real: f64,
    l0: f64,
    c3_real: f64,
    c4_real: f64,
    ram: i64,
    raw: i64,
    rb_enc: &Fp256,
) -> Result<MvPolynomial<A>, PpcsError> {
    // Amplifiers are drawn from [2, 2^bits), so both are invertible.
    let inv = alg
        .batch_inv(&[alg.encode_int(ram), alg.encode_int(raw)])
        .ok_or_else(|| PpcsError::Config("an amplifier is zero in the field".into()))?;
    let (d1, raw_inv) = (&inv[0], &inv[1]);
    let d2 = alg.mul(raw_inv, raw_inv);
    let d3 = alg.neg(rb_enc); // scale 2

    let encode = |name: &str, x: f64, scale: u32| {
        alg.try_encode(x, scale).ok_or_else(|| {
            PpcsError::Protocol(format!(
                "area-polynomial constant {name} is outside what the field encodes"
            ))
        })
    };
    let c1 = encode("c₁ = |m_A|² + |m_B|²", c1_real, 2)?;
    let c2 = encode("c₂ = L₀⁴", l0.powi(4), 4)?;
    let c3 = encode("c₃ = 1/(|w_A|²·|w_B|²)", c3_real, 4)?;
    let c4 = encode("c₄ = 1 + sin²θ₀", c4_real, 8)?;

    let two = alg.encode_int(2);
    let four = alg.encode_int(4);

    // A-part: a₀ + a₁x₁ + a₂x₁², uniform scale 4.
    let a0 = alg.add(&alg.mul(&c1, &c1), &c2);
    let a1 = alg.neg(&alg.mul(&four, &alg.mul(&c1, d1)));
    let a2 = alg.mul(&four, &alg.mul(d1, d1));

    // B-part: b₀ + b₁x₂ + b₂x₂², uniform scale 8.
    let c3d2 = alg.mul(&c3, &d2);
    let b0 = alg.sub(&c4, &alg.mul(&c3d2, &alg.mul(&d3, &d3)));
    let b1 = alg.neg(&alg.mul(&two, &alg.mul(&c3d2, &d3)));
    let b2 = alg.neg(&c3d2);

    // The public ¼ prefactor is deliberately NOT folded in here. Over the
    // prime field, multiplying by inv(4) only reproduces a real quarter
    // when the integer fixed-point product A·B happens to be ≡ 0 (mod 4);
    // for the other residues the result lands near r·(p+1)/4 — garbage
    // after decoding. The requester applies the (public) ¼ on the decoded
    // real value instead, which is exact.
    let a_coeffs = [a0, a1, a2];
    let b_coeffs = [b0, b1, b2];
    let mut terms = Vec::with_capacity(9);
    for (i, ai) in a_coeffs.iter().enumerate() {
        for (j, bj) in b_coeffs.iter().enumerate() {
            let coeff = alg.mul(ai, bj);
            terms.push((coeff, vec![i as u32, j as u32]));
        }
    }
    Ok(MvPolynomial::from_terms(2, terms))
}

/// Bob's `(n, |m_B|², |w_B|²)`. A squared norm is finite and not
/// negative, and `|w_B|² = 0` is a plane with no direction — it would
/// put `1/(|w_A|²·|w_B|²)` into the area polynomial.
fn decode_hello(Words(words): Words) -> Result<(usize, f64, f64), PpcsError> {
    let [dim, m, w] = words[..] else {
        return Err(PpcsError::Protocol("malformed similarity hello".into()));
    };
    let dim = dim as usize;
    let (m, w) = (f64::from_bits(m), f64::from_bits(w));
    if !(m.is_finite() && w.is_finite() && m >= 0.0 && w > 0.0) {
        return Err(PpcsError::Protocol(
            "similarity hello needs finite |m_B|² ≥ 0 and |w_B|² > 0".into(),
        ));
    }
    Ok((dim, m, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_math::FixedFpAlgebra;
    use ppcs_ot::TrustedSimOt;
    use ppcs_svm::{Dataset, Label, SmoParams};
    use ppcs_transport::run_pair;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    static SIM_OT: TrustedSimOt = TrustedSimOt;

    thread_local! {
        /// Points `BoundarySet::push` has compared on this thread.
        pub(super) static COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn train_rotated(dim: usize, angle_deg: f64, seed: u64, kernel: Kernel) -> SvmModel {
        // Boundary through the origin rotated by `angle_deg` in the
        // (0,1)-plane.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let theta = angle_deg.to_radians();
        let (c, s) = (theta.cos(), theta.sin());
        while ds.len() < 160 {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let score = c * x[0] + s * x[1];
            if score.abs() < 0.1 {
                continue;
            }
            ds.push(x, Label::from_sign(score));
        }
        SvmModel::train(
            &ds,
            kernel,
            &SmoParams {
                c: 10.0,
                ..SmoParams::default()
            },
        )
    }

    #[test]
    fn boundary_points_of_axis_plane() {
        // Plane t₁ = 0 in 2-D, box [-1,1]²: boundary points are
        // (0, ±1) plus, sweeping t₂ free, none from w₂ = 0.
        let pts = boundary_points_linear(&[1.0, 0.0], 0.0, (-1.0, 1.0));
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p[0], 0.0);
            assert_eq!(p[1].abs(), 1.0);
        }
        let m = centroid(&pts).unwrap();
        assert_eq!(m, vec![0.0, 0.0]);
    }

    // The parent's enumerations, verbatim: every candidate point in its
    // own allocation, then an all-pairs duplicate check. The oracle the
    // linear-time code must equal bit for bit.

    fn dedupe_points(points: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(points.len());
        for p in points {
            let duplicate = out
                .iter()
                .any(|q| p.iter().zip(q).all(|(a, b)| (a - b).abs() < 1e-7));
            if !duplicate {
                out.push(p);
            }
        }
        out
    }

    fn oracle_linear(w: &[f64], b: f64, bounds: (f64, f64)) -> Vec<Vec<f64>> {
        dedupe_points(oracle_linear_candidates(w, b, bounds))
    }

    fn oracle_linear_candidates(w: &[f64], b: f64, bounds: (f64, f64)) -> Vec<Vec<f64>> {
        let n = w.len();
        let (alpha, beta) = bounds;
        let mut points = Vec::new();
        for free in 0..n {
            if w[free] == 0.0 {
                continue;
            }
            let others: Vec<usize> = (0..n).filter(|&i| i != free).collect();
            for mask in 0u64..(1u64 << others.len()) {
                let mut t = vec![0.0; n];
                let mut rhs = -b;
                for (bit, &i) in others.iter().enumerate() {
                    let v = if mask >> bit & 1 == 1 { beta } else { alpha };
                    t[i] = v;
                    rhs -= w[i] * v;
                }
                let u = rhs / w[free];
                if u >= alpha && u <= beta {
                    t[free] = u;
                    points.push(t);
                }
            }
        }
        points
    }

    fn oracle_decision(
        decision: &dyn Fn(&[f64]) -> f64,
        dim: usize,
        bounds: (f64, f64),
        grid: usize,
    ) -> Vec<Vec<f64>> {
        let (alpha, beta) = bounds;
        let grid = grid.max(2);
        let mut points = Vec::new();
        for free in 0..dim {
            let others: Vec<usize> = (0..dim).filter(|&i| i != free).collect();
            for mask in 0u64..(1u64 << others.len()) {
                let mut t = vec![0.0; dim];
                for (bit, &i) in others.iter().enumerate() {
                    t[i] = if mask >> bit & 1 == 1 { beta } else { alpha };
                }
                let eval_at = |u: f64, t: &mut Vec<f64>| {
                    t[free] = u;
                    decision(t)
                };
                let mut prev_u = alpha;
                let mut prev_v = eval_at(prev_u, &mut t);
                for g in 1..=grid {
                    let u = alpha + (beta - alpha) * g as f64 / grid as f64;
                    let v = eval_at(u, &mut t);
                    if prev_v == 0.0 {
                        t[free] = prev_u;
                        points.push(t.clone());
                    } else if prev_v * v < 0.0 {
                        let (mut lo, mut hi) = (prev_u, u);
                        let mut flo = prev_v;
                        for _ in 0..60 {
                            let mid = 0.5 * (lo + hi);
                            let fmid = eval_at(mid, &mut t);
                            if flo * fmid <= 0.0 {
                                hi = mid;
                            } else {
                                lo = mid;
                                flo = fmid;
                            }
                        }
                        t[free] = 0.5 * (lo + hi);
                        points.push(t.clone());
                    }
                    prev_u = u;
                    prev_v = v;
                }
                if prev_v == 0.0 {
                    t[free] = prev_u;
                    points.push(t.clone());
                }
            }
        }
        dedupe_points(points)
    }

    fn bits(points: &[Vec<f64>]) -> Vec<Vec<u64>> {
        points
            .iter()
            .map(|p| p.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn centroid_bits(c: Option<Vec<f64>>) -> Option<Vec<u64>> {
        c.map(|c| c.iter().map(|v| v.to_bits()).collect())
    }

    /// The boxes the oracle comparison sweeps: the default one, an
    /// asymmetric one, and one narrower than the duplicate tolerance.
    const BOXES: [(f64, f64); 3] = [(-1.0, 1.0), (-0.5, 2.0), (0.3, 0.3 + 5e-8)];

    /// Planes `(w, b)` in `dim` dimensions meeting the box: through a
    /// random interior point, through a random vertex with quarter-step
    /// weights (so corners and grid nodes are hit exactly), with every
    /// other weight zero, and a face `t₀ = β`.
    fn planes(dim: usize, (alpha, beta): (f64, f64), rng: &mut StdRng) -> Vec<(Vec<f64>, f64)> {
        let through = |w: &[f64], p: &[f64]| -ppcs_svm::dot(w, p);
        let mut out = Vec::new();
        for k in 0..if dim <= 6 { 4 } else { 2 } {
            let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(alpha..=beta)).collect();
            let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            out.push((w.clone(), through(&w, &p)));
            let zeroed: Vec<f64> = (0..dim)
                .map(|i| if (i + k) % 2 == 0 { 0.0 } else { w[i] })
                .collect();
            out.push((zeroed.clone(), through(&zeroed, &p)));
            let vertex: Vec<f64> = (0..dim)
                .map(|_| if rng.gen() { beta } else { alpha })
                .collect();
            let quarters: Vec<f64> = (0..dim)
                .map(|_| f64::from(rng.gen_range(-4i32..=4)) / 4.0)
                .collect();
            out.push((quarters.clone(), through(&quarters, &vertex)));
        }
        let mut face = vec![0.0; dim];
        face[0] = 1.0;
        out.push((face, -beta));
        out
    }

    #[test]
    fn linear_enumeration_equals_the_all_pairs_oracle() {
        let mut rng = StdRng::seed_from_u64(70);
        for dim in 1..=10 {
            for bounds in BOXES {
                for (w, b) in planes(dim, bounds, &mut rng) {
                    let want = oracle_linear(&w, b, bounds);
                    assert_eq!(
                        bits(&boundary_points_linear(&w, b, bounds)),
                        bits(&want),
                        "w = {w:?}, b = {b}, box {bounds:?}"
                    );
                    assert_eq!(
                        centroid_bits(boundary_centroid_linear(&w, b, bounds)),
                        centroid_bits(centroid(&want)),
                        "w = {w:?}, b = {b}, box {bounds:?}"
                    );
                }
            }
        }
    }

    /// `kept` is an ordered subsequence of `candidates`, bit for bit, and
    /// every candidate left out duplicates a kept point found before it.
    fn assert_kept_in_order(kept: &[Vec<f64>], candidates: &[Vec<f64>]) {
        let same_bits = |p: &[f64], q: &[f64]| {
            p.iter()
                .map(|v| v.to_bits())
                .eq(q.iter().map(|v| v.to_bits()))
        };
        let close = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(a, b)| (a - b).abs() < 1e-7);
        let mut next = 0;
        for c in candidates {
            if next < kept.len() && same_bits(c, &kept[next]) {
                next += 1;
            } else {
                assert!(
                    kept[..next].iter().any(|q| close(c, q)),
                    "candidate {c:?} is neither kept nor a duplicate"
                );
            }
        }
        assert_eq!(next, kept.len(), "a kept point is no candidate");
    }

    #[test]
    fn capped_rhs_table_keeps_the_per_corner_points() {
        // At n = 13 the corner masks fill the right-hand-side table; at
        // n = 15 two bits are left over, subtracted per corner in bit
        // order. The all-pairs oracle is quadratic
        // in the points, so these sizes check the kept points against its
        // candidates, and the streamed centroid against the list's. (A
        // quarter-step plane through a vertex keeps thousands of
        // near-vertex points here, each compared with all before it: the
        // smaller sizes cover that case against the oracle.)
        let mut rng = StdRng::seed_from_u64(72);
        for dim in [13, 15] {
            for bounds in BOXES {
                let (alpha, beta) = bounds;
                let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(alpha..=beta)).collect();
                let vertex: Vec<f64> = (0..dim)
                    .map(|_| if rng.gen() { beta } else { alpha })
                    .collect();
                let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let zeroed: Vec<f64> = (0..dim)
                    .map(|i| if i % 3 == 0 { 0.0 } else { w[i] })
                    .collect();
                for (w, through) in [(&w, &p), (&zeroed, &p), (&w, &vertex)] {
                    let b = -ppcs_svm::dot(w, through);
                    let kept = boundary_points_linear(w, b, bounds);
                    let candidates = oracle_linear_candidates(w, b, bounds);
                    assert_kept_in_order(&kept, &candidates);
                    assert_eq!(
                        centroid_bits(boundary_centroid_linear(w, b, bounds)),
                        centroid_bits(centroid(&kept)),
                        "w = {w:?}, b = {b}, box {bounds:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn near_vertex_dedupe_compares_within_one_vertex() {
        // The plane Σ t_i = −8 at n = 14 passes through the C(14, 3) = 364
        // vertices with three coordinates at β, and meets the box nowhere
        // else; each vertex is found once per incident edge. A point found
        // at a vertex is compared only with those kept at the same vertex:
        // about one comparison per point found, where comparing with every
        // kept near-vertex point takes 929 656. The kept points are still
        // the all-pairs oracle's, bit for bit.
        let dim = 14;
        let bounds = (-1.0, 1.0);
        let w = vec![1.0; dim];
        let mut vertex = vec![-1.0; dim];
        vertex[..3].fill(1.0);
        let b = -ppcs_svm::dot(&w, &vertex);

        COMPARISONS.set(0);
        let kept = boundary_points_linear(&w, b, bounds);
        let compared = COMPARISONS.get();
        let candidates = oracle_linear_candidates(&w, b, bounds);
        assert_eq!(bits(&kept), bits(&dedupe_points(candidates.clone())));
        assert_eq!((kept.len(), candidates.len()), (364, 14 * 364));
        assert!(
            compared < candidates.len(),
            "{compared} comparisons for {} points found",
            candidates.len()
        );
    }

    #[test]
    fn decision_enumeration_equals_the_all_pairs_oracle() {
        let mut rng = StdRng::seed_from_u64(71);
        // Grid 8 on [-1, 1] puts a node on every multiple of ¼, where
        // the quarter-step planes have exact zeros.
        let grid = 8;
        for dim in 1..=10 {
            for bounds in BOXES {
                let mut surfaces = planes(dim, bounds, &mut rng);
                if dim > 6 {
                    // A face makes every node of every edge in it a
                    // point; the quadratic oracle is too slow for that.
                    surfaces.pop();
                }
                for (w, b) in surfaces {
                    let linear = |t: &[f64]| ppcs_svm::dot(&w, t) + b;
                    let quadric = |t: &[f64]| {
                        t.iter().zip(&w).map(|(ti, wi)| wi * ti * ti).sum::<f64>() + b * b - 0.25
                    };
                    for decision in [&linear as &dyn Fn(&[f64]) -> f64, &quadric] {
                        let want = oracle_decision(decision, dim, bounds, grid);
                        assert_eq!(
                            bits(&boundary_points_decision(decision, dim, bounds, grid)),
                            bits(&want),
                            "w = {w:?}, b = {b}, box {bounds:?}"
                        );
                        assert_eq!(
                            centroid_bits(boundary_centroid_decision(decision, dim, bounds, grid)),
                            centroid_bits(centroid(&want)),
                            "w = {w:?}, b = {b}, box {bounds:?}"
                        );
                    }
                }
            }
        }
        // A zero exactly on a grid node (u = ¼ is node 5 of 8).
        let node = |t: &[f64]| t[0] - 0.25;
        let pts = boundary_points_decision(&node, 3, (-1.0, 1.0), grid);
        assert_eq!(
            bits(&pts),
            bits(&oracle_decision(&node, 3, (-1.0, 1.0), grid))
        );
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p[0] == 0.25));
        // Two roots 2e-8 apart straddling that node: one edge, one point.
        let straddle = |t: &[f64]| (t[0] - 0.25).powi(2) - 1e-16;
        let pts = boundary_points_decision(&straddle, 3, (-1.0, 1.0), grid);
        assert_eq!(
            bits(&pts),
            bits(&oracle_decision(&straddle, 3, (-1.0, 1.0), grid))
        );
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn a_kernel_geometry_from_another_model_is_a_typed_error() {
        let cfg = SimilarityConfig::default();
        let kernel = Kernel::Polynomial {
            a0: 1.0,
            b0: 0.0,
            degree: 2,
        };
        let two = train_rotated(2, 15.0, 4, kernel);
        let three = train_rotated(3, 15.0, 4, kernel);
        let g = ModelGeometry::from_model(&two, &cfg).unwrap();
        assert_eq!(direction_input(&g, &two).unwrap().len(), g.direction.len());
        assert!(matches!(
            direction_input(&g, &three),
            Err(PpcsError::Expansion(_))
        ));
    }

    #[test]
    fn oversized_models_are_typed_errors() {
        let cfg = SimilarityConfig::default();
        for (dim, kernel) in [
            (0, Kernel::Linear),
            (25, Kernel::Linear),
            (
                25,
                Kernel::Polynomial {
                    a0: 1.0,
                    b0: 0.0,
                    degree: 2,
                },
            ),
        ] {
            let svs: Vec<Vec<f64>> = (0..dim.min(1)).map(|_| vec![0.5; dim]).collect();
            let coeffs = vec![1.0; svs.len()];
            let model = SvmModel::from_parts(kernel, svs, coeffs, 0.1);
            match ModelGeometry::from_model(&model, &cfg) {
                Err(PpcsError::Expansion(msg)) => {
                    assert!(msg.contains(&format!("n = {dim}")), "{msg}");
                    assert!(msg.contains("n·2^(n−1)"), "{msg}");
                }
                other => panic!("{dim} dims gave {other:?}"),
            }
        }
    }

    /// Alice's result against an honest Bob whose geometry is overwritten
    /// with the aggregates `(|m_B|², |w_B|²)` his hello then carries.
    fn respond_to_hello(m_norm2: f64, w_norm2: f64) -> Result<(), PpcsError> {
        let cfg = SimilarityConfig::default();
        let alg = FixedFpAlgebra::new(16);
        let ma = train_rotated(2, 15.0, 4, Kernel::Linear);
        let mb = train_rotated(2, 60.0, 5, Kernel::Linear);
        let mut gb = ModelGeometry::from_model(&mb, &cfg).unwrap();
        let direction = direction_input(&gb, &mb).unwrap();
        gb.m_norm2 = m_norm2;
        gb.w_norm2 = w_norm2;
        let (res_a, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(50);
                similarity_respond(&alg, &ep, &SIM_OT, &mut rng, &ma, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(51);
                let _ = similarity_request_geometry(
                    &alg, &ep, &SIM_OT, &mut rng, &gb, &direction, 2, &cfg,
                );
            },
        );
        res_a
    }

    #[test]
    fn crafted_hello_norms_are_typed_errors() {
        // The first five panicked the responder in `encode`; the last two
        // were accepted.
        for (m, w) in [
            (1.0, 0.0),
            (1.0, f64::NAN),
            (1.0, 1e-300),
            (1e300, 1.0),
            (f64::INFINITY, 1.0),
            (1.0, -1.0),
            (-1.0, 1.0),
        ] {
            let res = respond_to_hello(m, w);
            assert!(
                matches!(res, Err(PpcsError::Protocol(_))),
                "|m_B|² = {m}, |w_B|² = {w} gave {res:?}"
            );
        }
        respond_to_hello(0.5, 1.0).expect("an honest hello");
    }

    #[test]
    fn boundary_points_match_decision_scan_for_linear() {
        let w = [0.7, -0.4, 0.2];
        let b = 0.1;
        let exact = boundary_points_linear(&w, b, (-1.0, 1.0));
        let decision = |t: &[f64]| ppcs_svm::dot(&w, t) + b;
        let scanned = boundary_points_decision(&decision, 3, (-1.0, 1.0), 64);
        // Same centroid from both constructions.
        let me = centroid(&exact).unwrap();
        let ms = centroid(&scanned).unwrap();
        for (a, b) in me.iter().zip(&ms) {
            assert!((a - b).abs() < 1e-6, "{me:?} vs {ms:?}");
        }
    }

    #[test]
    fn plane_outside_box_has_no_boundary() {
        let pts = boundary_points_linear(&[1.0, 1.0], 10.0, (-1.0, 1.0));
        assert!(pts.is_empty());
        assert!(centroid(&pts).is_none());
    }

    #[test]
    fn identical_models_have_floor_similarity() {
        let cfg = SimilarityConfig::default();
        let m = train_rotated(2, 30.0, 1, Kernel::Linear);
        let t = similarity_plain(&m, &m, &cfg).unwrap();
        // T_min = ½·L₀²·sinθ₀ at coincident planes... as T² form:
        let t_min = triangle_area_squared(0.0, 1.0, cfg.l0, cfg.sin2_theta0()).sqrt();
        assert!((t - t_min).abs() < 1e-9, "{t} vs floor {t_min}");
    }

    #[test]
    fn similarity_grows_with_angle() {
        let cfg = SimilarityConfig::default();
        let base = train_rotated(2, 0.0, 2, Kernel::Linear);
        let mut prev = similarity_plain(&base, &base, &cfg).unwrap();
        for angle in [10.0, 25.0, 45.0, 80.0] {
            let other = train_rotated(2, angle, 3, Kernel::Linear);
            let t = similarity_plain(&base, &other, &cfg).unwrap();
            assert!(
                t > prev - 1e-6,
                "T should grow with angle: {t} after {prev} at {angle}°"
            );
            prev = t;
        }
    }

    #[test]
    fn private_similarity_matches_plain_f64() {
        let cfg = SimilarityConfig::default();
        let ma = train_rotated(2, 15.0, 4, Kernel::Linear);
        let mb = train_rotated(2, 60.0, 5, Kernel::Linear);
        let want = similarity_plain(&ma, &mb, &cfg).unwrap();

        let ma2 = ma.clone();
        let mb2 = mb.clone();
        let (res_a, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(10);
                similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &ma2, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(11);
                similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &mb2, &cfg)
                    .unwrap()
            },
        );
        res_a.unwrap();
        assert!(
            (got - want).abs() < 5e-3 * want,
            "private {got} vs plain {want}"
        );
    }

    #[test]
    fn private_similarity_matches_plain_fixed_point() {
        let cfg = SimilarityConfig {
            protocol: ProtocolConfig {
                amplifier_bits: 12,
                ..ProtocolConfig::default()
            },
            ..SimilarityConfig::default()
        };
        let ma = train_rotated(3, 20.0, 6, Kernel::Linear);
        let mb = train_rotated(3, 70.0, 7, Kernel::Linear);
        let want = similarity_plain(&ma, &mb, &cfg).unwrap();

        let alg = FixedFpAlgebra::new(16);
        let ma2 = ma.clone();
        let mb2 = mb.clone();
        let alg2 = alg;
        let (res_a, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(20);
                similarity_respond(&alg, &ep, &SIM_OT, &mut rng, &ma2, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(21);
                similarity_request(&alg2, &ep, &SIM_OT, &mut rng, &mb2, &cfg).unwrap()
            },
        );
        res_a.unwrap();
        assert!(
            (got - want).abs() < 0.02 * want.max(0.1),
            "private {got} vs plain {want}"
        );
    }

    #[test]
    fn nonlinear_similarity_plain_and_private_agree() {
        let cfg = SimilarityConfig::default();
        let kernel = Kernel::Polynomial {
            a0: 0.5,
            b0: 0.0,
            degree: 3,
        };
        let ma = train_rotated(2, 10.0, 8, kernel);
        let mb = train_rotated(2, 55.0, 9, kernel);
        let want = similarity_plain(&ma, &mb, &cfg).unwrap();
        let (res_a, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(30);
                similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &ma, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(31);
                similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &mb, &cfg)
                    .unwrap()
            },
        );
        res_a.unwrap();
        assert!(
            (got - want).abs() < 5e-3 * want,
            "private {got} vs plain {want}"
        );
    }

    #[test]
    fn dimension_mismatch_detected() {
        let cfg = SimilarityConfig::default();
        let ma = train_rotated(2, 10.0, 12, Kernel::Linear);
        let mb = train_rotated(3, 10.0, 13, Kernel::Linear);
        let (res_a, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(40);
                similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &ma, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(41);
                let _ =
                    similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &mb, &cfg);
            },
        );
        assert!(matches!(res_a.unwrap_err(), PpcsError::Protocol(_)));
    }

    #[test]
    fn geometry_and_kernel_that_disagree_are_a_typed_error() {
        // A polynomial geometry handed in with the linear kernel: the
        // responder's own mistake, refused instead of panicking.
        let cfg = SimilarityConfig::default();
        let kernel = Kernel::Polynomial {
            a0: 0.5,
            b0: 0.0,
            degree: 3,
        };
        let geom = ModelGeometry::from_model(&train_rotated(2, 10.0, 8, kernel), &cfg).unwrap();
        let mb = train_rotated(2, 55.0, 9, kernel);
        let alg = FixedFpAlgebra::new(16);
        let (res_a, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(60);
                similarity_respond_geometry(
                    &alg,
                    &ep,
                    &SIM_OT,
                    &mut rng,
                    &geom,
                    Kernel::Linear,
                    2,
                    &cfg,
                )
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(61);
                let _ = similarity_request(&alg, &ep, &SIM_OT, &mut rng, &mb, &cfg);
            },
        );
        assert!(matches!(res_a, Err(PpcsError::Config(_))), "{res_a:?}");
    }

    #[test]
    fn rbf_kernel_is_rejected_for_similarity() {
        let cfg = SimilarityConfig::default();
        let m = train_rotated(2, 10.0, 14, Kernel::Rbf { gamma: 0.5 });
        assert!(matches!(
            ModelGeometry::from_model(&m, &cfg),
            Err(PpcsError::Expansion(_))
        ));
    }

    #[test]
    fn area_metric_distinguishes_degenerate_cases() {
        let cfg = SimilarityConfig::default();
        let s20 = cfg.sin2_theta0();
        // Parallel planes at distance L: T² = ¼(L⁴+L₀⁴)·sin²θ₀ > floor.
        let parallel = triangle_area_squared(0.5, 1.0, cfg.l0, s20);
        // Coincident centroids, crossed at θ: floor on the L part only.
        let crossed = triangle_area_squared(0.0, 0.5, cfg.l0, s20);
        let floor = triangle_area_squared(0.0, 1.0, cfg.l0, s20);
        assert!(parallel > floor);
        assert!(crossed > floor);
        assert_ne!(parallel, crossed);
    }
}
