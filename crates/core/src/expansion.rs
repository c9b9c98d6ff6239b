//! Expansion of SVM decision functions into polynomial form
//! (Section IV-B of the paper).
//!
//! The nonlinear protocol rests on rewriting the kernel decision function
//! `d(t) = Σ_s c_s K(x_s, t) + b` as a polynomial of total degree `p` in
//! the coordinates of `t` — one coefficient per monomial
//! `τ_j = Π_i t_i^{k_i}`:
//!
//! * a homogeneous polynomial kernel `(a₀ xᵀt)^p` expands exactly over
//!   the `C(n+p-1, p)` degree-`p` monomials (multinomial theorem);
//! * an inhomogeneous polynomial kernel `(a₀ xᵀt + b₀)^p` expands over
//!   all monomials of degree `1..=p` (binomial × multinomial);
//! * RBF and sigmoid kernels expand approximately via Taylor truncation
//!   (the paper's "use a large number p to approximate the infinity").
//!
//! The coefficient vector is the trainer's secret and never leaves it:
//! [`Trainer`](crate::Trainer) evaluates the polynomial on the `n`-vectors
//! the client submits, so the client needs the public `(dim, degree)` pair
//! only to know the scale of its result. [`BasisKind`] fixes the canonical
//! monomial order the coefficients are listed in — the order
//! `ppcs_math::DensePoly` reads them in — and [`BasisKind::features`] /
//! [`ExpandedDecision::eval`] evaluate the same polynomial term by term:
//! the in-the-clear oracle the private path is tested against, and the
//! feature map of the nonlinear similarity protocol.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use ppcs_svm::{Kernel, SvmModel};

use crate::config::ProtocolConfig;
use crate::error::PpcsError;

/// Which monomial basis an expanded model lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BasisKind {
    /// All monomials of total degree exactly `degree` (homogeneous
    /// kernels).
    Homogeneous {
        /// The common total degree.
        degree: u32,
    },
    /// All monomials of total degree `1..=degree` (the constant monomial
    /// is folded into the model bias).
    UpTo {
        /// The maximum total degree.
        degree: u32,
    },
}

impl BasisKind {
    /// The total degrees the basis holds monomials of.
    pub fn degrees(&self) -> RangeInclusive<u32> {
        match *self {
            BasisKind::Homogeneous { degree } => degree..=degree,
            BasisKind::UpTo { degree } => 1..=degree,
        }
    }

    /// The number of monomials in the basis for `dim` variables, or
    /// `None` on overflow.
    pub fn len(&self, dim: usize) -> Option<u64> {
        match *self {
            BasisKind::Homogeneous { degree } => ppcs_math::expanded_dimension(dim, degree),
            BasisKind::UpTo { degree } => {
                // C(n+d, d) − 1 (all degrees 0..=d minus the constant).
                ppcs_math::binomial((dim as u64).checked_add(degree as u64)?, degree as u64)
                    .map(|c| c - 1)
            }
        }
    }

    /// Enumerates the basis in its canonical order, calling `f` with each
    /// monomial as a sorted (non-decreasing) tuple of variable indices.
    pub fn for_each(&self, dim: usize, mut f: impl FnMut(&[u32])) {
        for d in self.degrees() {
            for_each_multiset(dim, d, &mut f);
        }
    }

    /// Maps a sample `t` to its monomial features `τ`, aligned with the
    /// canonical enumeration.
    pub fn features(&self, t: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.for_each(t.len(), |tuple| {
            out.push(tuple.iter().map(|&i| t[i as usize]).product());
        });
        out
    }
}

/// Enumerates all non-decreasing index tuples of length `degree` over
/// `0..dim` (monomials of total degree exactly `degree`), in
/// lexicographic order.
pub fn for_each_multiset(dim: usize, degree: u32, f: &mut impl FnMut(&[u32])) {
    assert!(dim > 0, "need at least one variable");
    assert!(degree > 0, "degree-zero monomials are folded into the bias");
    let mut tuple = vec![0u32; degree as usize];
    loop {
        f(&tuple);
        // Advance to the next non-decreasing tuple.
        let mut pos = tuple.len();
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            if (tuple[pos] as usize) < dim - 1 {
                tuple[pos] += 1;
                let v = tuple[pos];
                for slot in tuple.iter_mut().skip(pos + 1) {
                    *slot = v;
                }
                break;
            }
        }
    }
}

/// The multiplicity profile of a sorted tuple (run lengths).
pub(crate) fn multiplicities(tuple: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tuple.len() {
        let mut j = i;
        while j + 1 < tuple.len() && tuple[j + 1] == tuple[i] {
            j += 1;
        }
        out.push((j - i + 1) as u32);
        i = j + 1;
    }
    out
}

/// An SVM decision function rewritten as a polynomial in `t`, stored as
/// a linear form over its monomials: `d(t) = coeffs · τ(t) + bias`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpandedDecision {
    /// Input dimensionality `n`.
    pub dim: usize,
    /// The monomial basis.
    pub basis: BasisKind,
    /// One coefficient per basis monomial, in canonical order.
    pub coeffs: Vec<f64>,
    /// The constant term.
    pub bias: f64,
}

impl ExpandedDecision {
    /// Builds an expanded decision from a diagonal quadratic form
    /// `Σ qᵢtᵢ² + Σ lᵢtᵢ + b` — the polynomial shape of a Gaussian
    /// Naive Bayes log-likelihood ratio — over the canonical `UpTo(2)`
    /// basis.
    ///
    /// # Panics
    ///
    /// Panics if `quadratic` and `linear` differ in length or are empty.
    pub fn from_quadratic_diag(quadratic: &[f64], linear: &[f64], bias: f64) -> Self {
        assert_eq!(
            quadratic.len(),
            linear.len(),
            "quadratic and linear parts must share dimensionality"
        );
        assert!(!linear.is_empty(), "need at least one dimension");
        let dim = linear.len();
        let basis = BasisKind::UpTo { degree: 2 };
        let mut coeffs = Vec::with_capacity(basis.len(dim).expect("small basis") as usize);
        basis.for_each(dim, |tuple| {
            coeffs.push(match tuple {
                [i] => linear[*i as usize],
                [i, j] if i == j => quadratic[*i as usize],
                _ => 0.0,
            });
        });
        Self {
            dim,
            basis,
            coeffs,
            bias,
        }
    }

    /// Evaluates the expanded decision function directly (used by tests
    /// and by the plain—non-private—protocol baseline).
    pub fn eval(&self, t: &[f64]) -> f64 {
        let tau = self.basis.features(t);
        self.bias + ppcs_svm::dot(&self.coeffs, &tau)
    }

    /// The monomial features of `t` in this basis.
    pub fn features(&self, t: &[f64]) -> Vec<f64> {
        self.basis.features(t)
    }
}

/// Expands a trained model into [`ExpandedDecision`] form.
///
/// # Errors
///
/// * [`PpcsError::Expansion`] for a linear kernel (no expansion needed —
///   the caller should use the weights directly), an expansion exceeding
///   `cfg.max_expanded_terms`, or unsupported kernel parameters.
pub fn expand_model(model: &SvmModel, cfg: &ProtocolConfig) -> Result<ExpandedDecision, PpcsError> {
    match model.kernel() {
        Kernel::Linear => Err(PpcsError::Expansion(
            "linear models need no monomial expansion".into(),
        )),
        Kernel::Polynomial { a0, b0, degree } => {
            if degree == 0 {
                return Err(PpcsError::Expansion(
                    "polynomial kernel degree must be ≥ 1".into(),
                ));
            }
            if b0 == 0.0 {
                expand_homogeneous(model, a0, degree, cfg)
            } else {
                expand_inhomogeneous(model, a0, b0, degree, cfg)
            }
        }
        Kernel::Rbf { gamma } => expand_rbf(model, gamma, cfg),
        Kernel::Sigmoid { a0, c0 } => expand_sigmoid(model, a0, c0, cfg),
    }
}

fn check_basis_size(
    basis: BasisKind,
    dim: usize,
    cfg: &ProtocolConfig,
) -> Result<usize, PpcsError> {
    let len = basis
        .len(dim)
        .ok_or_else(|| PpcsError::Expansion("monomial basis size overflows u64".into()))?;
    if len > cfg.max_expanded_terms as u64 {
        return Err(PpcsError::Expansion(format!(
            "expansion needs {len} monomials, cap is {} — reduce the dimension, \
             kernel degree, or raise max_expanded_terms",
            cfg.max_expanded_terms
        )));
    }
    Ok(len as usize)
}

/// Homogeneous kernel `(a₀ xᵀt)^p`: coefficient of monomial `m` (with
/// multiplicities `k`) is `a₀^p · multinom(p; k) · Σ_s c_s Π x_{s,i}^{k_i}`.
fn expand_homogeneous(
    model: &SvmModel,
    a0: f64,
    p: u32,
    cfg: &ProtocolConfig,
) -> Result<ExpandedDecision, PpcsError> {
    let dim = model.dim();
    let basis = BasisKind::Homogeneous { degree: p };
    let len = check_basis_size(basis, dim, cfg)?;
    let scale = a0.powi(p as i32);
    let svs = model.support_vectors();
    let cs = model.coefficients();

    let mut coeffs = Vec::with_capacity(len);
    for_each_multiset(dim, p, &mut |tuple| {
        let mult = ppcs_math::multinomial_coeff(p, &multiplicities(tuple));
        let mut acc = 0.0;
        for (sv, &c) in svs.iter().zip(cs) {
            let mut prod = c;
            for &i in tuple {
                prod *= sv[i as usize];
            }
            acc += prod;
        }
        coeffs.push(scale * mult * acc);
    });
    Ok(ExpandedDecision {
        dim,
        basis,
        coeffs,
        bias: model.bias(),
    })
}

/// Inhomogeneous kernel `(a₀ xᵀt + b₀)^p = Σ_j C(p,j) b₀^{p-j} (a₀ xᵀt)^j`:
/// per-degree homogeneous expansions accumulated over the `UpTo` basis.
fn expand_inhomogeneous(
    model: &SvmModel,
    a0: f64,
    b0: f64,
    p: u32,
    cfg: &ProtocolConfig,
) -> Result<ExpandedDecision, PpcsError> {
    let dim = model.dim();
    let basis = BasisKind::UpTo { degree: p };
    let len = check_basis_size(basis, dim, cfg)?;
    let svs = model.support_vectors();
    let cs = model.coefficients();

    let mut coeffs = Vec::with_capacity(len);
    for j in 1..=p {
        let binom =
            ppcs_math::binomial(p as u64, j as u64).expect("small binomial cannot overflow") as f64;
        let scale = binom * b0.powi((p - j) as i32) * a0.powi(j as i32);
        for_each_multiset(dim, j, &mut |tuple| {
            let mult = ppcs_math::multinomial_coeff(j, &multiplicities(tuple));
            let mut acc = 0.0;
            for (sv, &c) in svs.iter().zip(cs) {
                let mut prod = c;
                for &i in tuple {
                    prod *= sv[i as usize];
                }
                acc += prod;
            }
            coeffs.push(scale * mult * acc);
        });
    }
    // Degree-0 term: Σ_s c_s b₀^p.
    let const_term: f64 = cs.iter().sum::<f64>() * b0.powi(p as i32);
    Ok(ExpandedDecision {
        dim,
        basis,
        coeffs,
        bias: model.bias() + const_term,
    })
}

/// A small sparse real polynomial keyed by dense exponent vectors — the
/// scratch representation for Taylor expansions (low-dimensional models
/// only; the basis cap guards it).
#[derive(Clone, Debug, Default)]
struct RealPoly {
    terms: HashMap<Vec<u32>, f64>,
}

impl RealPoly {
    fn constant(dim: usize, v: f64) -> Self {
        let mut terms = HashMap::new();
        terms.insert(vec![0; dim], v);
        Self { terms }
    }

    fn add_term(&mut self, exps: Vec<u32>, coeff: f64) {
        *self.terms.entry(exps).or_insert(0.0) += coeff;
    }

    fn add_scaled(&mut self, other: &RealPoly, k: f64) {
        for (e, c) in &other.terms {
            *self.terms.entry(e.clone()).or_insert(0.0) += c * k;
        }
    }

    fn mul(&self, other: &RealPoly) -> RealPoly {
        let mut out = RealPoly::default();
        for (ea, ca) in &self.terms {
            for (eb, cb) in &other.terms {
                let e: Vec<u32> = ea.iter().zip(eb).map(|(a, b)| a + b).collect();
                out.add_term(e, ca * cb);
            }
        }
        out
    }

    /// Drops terms above `max_degree` (Taylor truncation boundary) and
    /// negligible coefficients.
    fn truncate(&mut self, max_degree: u32) {
        self.terms
            .retain(|e, c| e.iter().sum::<u32>() <= max_degree && c.abs() > 1e-300);
    }
}

/// Projects a scratch polynomial onto the canonical `UpTo(degree)` basis.
fn project_to_basis(
    dim: usize,
    degree: u32,
    poly: &RealPoly,
    cfg: &ProtocolConfig,
) -> Result<ExpandedDecision, PpcsError> {
    let basis = BasisKind::UpTo { degree };
    let len = check_basis_size(basis, dim, cfg)?;
    // Index of each exponent vector in the canonical order.
    let mut index: HashMap<Vec<u32>, usize> = HashMap::with_capacity(len);
    let mut pos = 0usize;
    basis.for_each(dim, |tuple| {
        let mut exps = vec![0u32; dim];
        for &i in tuple {
            exps[i as usize] += 1;
        }
        index.insert(exps, pos);
        pos += 1;
    });

    let mut coeffs = vec![0.0f64; len];
    let mut bias = 0.0;
    for (exps, &c) in &poly.terms {
        let total: u32 = exps.iter().sum();
        if total == 0 {
            bias += c;
        } else if let Some(&i) = index.get(exps) {
            coeffs[i] += c;
        } else {
            return Err(PpcsError::Expansion(format!(
                "internal: term of degree {total} exceeds basis degree {degree}"
            )));
        }
    }
    Ok(ExpandedDecision {
        dim,
        basis,
        coeffs,
        bias,
    })
}

/// RBF expansion: `K(x,t) = e^{-γ‖x‖²} · e^{u}` with
/// `u = 2γ xᵀt − γ‖t‖²` (a degree-2 polynomial in `t`), Taylor-truncated
/// at `cfg.taylor_order` terms, yielding total degree `2·taylor_order`.
fn expand_rbf(
    model: &SvmModel,
    gamma: f64,
    cfg: &ProtocolConfig,
) -> Result<ExpandedDecision, PpcsError> {
    let dim = model.dim();
    let order = cfg.taylor_order;
    let max_degree = 2 * order;
    // Check size up front so we fail before the scratch work.
    check_basis_size(BasisKind::UpTo { degree: max_degree }, dim, cfg)?;

    let mut acc = RealPoly::default();
    for (sv, &c) in model.support_vectors().iter().zip(model.coefficients()) {
        let norm2: f64 = sv.iter().map(|v| v * v).sum();
        let front = c * (-gamma * norm2).exp();

        // u = 2γ Σ x_i t_i − γ Σ t_i².
        let mut u = RealPoly::default();
        for (i, &xi) in sv.iter().enumerate() {
            let mut e = vec![0u32; dim];
            e[i] = 1;
            u.add_term(e, 2.0 * gamma * xi);
            let mut e2 = vec![0u32; dim];
            e2[i] = 2;
            u.add_term(e2, -gamma);
        }

        // e^u ≈ Σ_{k=0}^{order} u^k / k!.
        let mut power = RealPoly::constant(dim, 1.0);
        let mut factorial = 1.0;
        acc.add_scaled(&power, front);
        for k in 1..=order {
            power = power.mul(&u);
            power.truncate(max_degree);
            factorial *= k as f64;
            acc.add_scaled(&power, front / factorial);
        }
    }
    let mut result = project_to_basis(dim, max_degree, &acc, cfg)?;
    result.bias += model.bias();
    Ok(result)
}

/// Taylor coefficients of `tanh(u)` for odd powers `1, 3, 5, 7, 9`.
const TANH_COEFFS: [(u32, f64); 5] = [
    (1, 1.0),
    (3, -1.0 / 3.0),
    (5, 2.0 / 15.0),
    (7, -17.0 / 315.0),
    (9, 62.0 / 2835.0),
];

/// Sigmoid expansion: `tanh(a₀ xᵀt + c₀)` with `u` of degree 1 in `t`,
/// truncated at the largest odd power ≤ `cfg.taylor_order`.
fn expand_sigmoid(
    model: &SvmModel,
    a0: f64,
    c0: f64,
    cfg: &ProtocolConfig,
) -> Result<ExpandedDecision, PpcsError> {
    let dim = model.dim();
    let order = if cfg.taylor_order.is_multiple_of(2) {
        cfg.taylor_order - 1
    } else {
        cfg.taylor_order
    }
    .max(1);
    check_basis_size(BasisKind::UpTo { degree: order }, dim, cfg)?;

    let mut acc = RealPoly::default();
    for (sv, &c) in model.support_vectors().iter().zip(model.coefficients()) {
        // u = a₀ Σ x_i t_i + c₀.
        let mut u = RealPoly::constant(dim, c0);
        for (i, &xi) in sv.iter().enumerate() {
            let mut e = vec![0u32; dim];
            e[i] = 1;
            u.add_term(e, a0 * xi);
        }

        let mut power = RealPoly::constant(dim, 1.0);
        let mut current_power = 0u32;
        for &(k, tk) in TANH_COEFFS.iter().filter(|(k, _)| *k <= order) {
            while current_power < k {
                power = power.mul(&u);
                power.truncate(order);
                current_power += 1;
            }
            acc.add_scaled(&power, c * tk);
        }
    }
    let mut result = project_to_basis(dim, order, &acc, cfg)?;
    result.bias += model.bias();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_svm::{Dataset, Label, SmoParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_model(kernel: Kernel, dim: usize, seed: u64) -> SvmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for k in 0..60 {
            let positive = k % 2 == 0;
            let c = if positive { 0.6 } else { -0.6 };
            ds.push(
                (0..dim).map(|_| c + rng.gen_range(-0.4..0.4)).collect(),
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        SvmModel::train(&ds, kernel, &SmoParams::default())
    }

    fn assert_expansion_matches(model: &SvmModel, tol: f64, cfg: &ProtocolConfig, seed: u64) {
        let expanded = expand_model(model, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let t: Vec<f64> = (0..model.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let direct = model.decision(&t);
            let via_expansion = expanded.eval(&t);
            assert!(
                (direct - via_expansion).abs() < tol,
                "direct {direct} vs expanded {via_expansion}"
            );
        }
    }

    #[test]
    fn multiset_enumeration_is_complete_and_ordered() {
        let mut seen = Vec::new();
        for_each_multiset(3, 2, &mut |t| seen.push(t.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 1],
                vec![1, 2],
                vec![2, 2]
            ]
        );
        assert_eq!(
            seen.len() as u64,
            BasisKind::Homogeneous { degree: 2 }.len(3).unwrap()
        );
    }

    #[test]
    fn upto_basis_counts() {
        // UpTo(2) over 3 vars: 3 linear + 6 quadratic = 9 = C(5,2) − 1.
        assert_eq!(BasisKind::UpTo { degree: 2 }.len(3), Some(9));
        let mut count = 0;
        BasisKind::UpTo { degree: 2 }.for_each(3, |_| count += 1);
        assert_eq!(count, 9);
    }

    #[test]
    fn features_align_with_enumeration() {
        let basis = BasisKind::Homogeneous { degree: 2 };
        let t = [2.0, 3.0, 5.0];
        // Order: 00, 01, 02, 11, 12, 22.
        assert_eq!(basis.features(&t), vec![4.0, 6.0, 10.0, 9.0, 15.0, 25.0]);
    }

    #[test]
    fn homogeneous_expansion_is_exact() {
        let model = toy_model(
            Kernel::Polynomial {
                a0: 0.5,
                b0: 0.0,
                degree: 3,
            },
            4,
            1,
        );
        assert_expansion_matches(&model, 1e-9, &ProtocolConfig::default(), 100);
    }

    #[test]
    fn inhomogeneous_expansion_is_exact() {
        let model = toy_model(
            Kernel::Polynomial {
                a0: 0.7,
                b0: 1.3,
                degree: 3,
            },
            3,
            2,
        );
        assert_expansion_matches(&model, 1e-9, &ProtocolConfig::default(), 101);
    }

    #[test]
    fn rbf_expansion_approximates() {
        let model = toy_model(Kernel::Rbf { gamma: 0.3 }, 3, 3);
        let cfg = ProtocolConfig {
            taylor_order: 6,
            ..ProtocolConfig::default()
        };
        // Taylor truncation: approximate agreement only.
        assert_expansion_matches(&model, 0.05, &cfg, 102);
    }

    #[test]
    fn rbf_taylor_error_shrinks_with_order() {
        let model = toy_model(Kernel::Rbf { gamma: 0.4 }, 2, 4);
        let mut rng = StdRng::seed_from_u64(103);
        let samples: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..2).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut prev_err = f64::INFINITY;
        for order in [1u32, 3, 5] {
            let cfg = ProtocolConfig {
                taylor_order: order,
                ..ProtocolConfig::default()
            };
            let expanded = expand_model(&model, &cfg).unwrap();
            let err: f64 = samples
                .iter()
                .map(|t| (model.decision(t) - expanded.eval(t)).abs())
                .fold(0.0, f64::max);
            assert!(
                err < prev_err + 1e-12,
                "order {order}: error {err} should not exceed previous {prev_err}"
            );
            prev_err = err;
        }
        assert!(prev_err < 0.05, "order-5 truncation should be close");
    }

    #[test]
    fn sigmoid_expansion_approximates() {
        let model = toy_model(Kernel::Sigmoid { a0: 0.3, c0: 0.1 }, 3, 5);
        let cfg = ProtocolConfig {
            taylor_order: 7,
            ..ProtocolConfig::default()
        };
        assert_expansion_matches(&model, 0.05, &cfg, 104);
    }

    #[test]
    fn linear_kernel_is_rejected() {
        let model = toy_model(Kernel::Linear, 3, 6);
        assert!(matches!(
            expand_model(&model, &ProtocolConfig::default()),
            Err(PpcsError::Expansion(_))
        ));
    }

    #[test]
    fn expansion_cap_is_enforced() {
        let model = toy_model(Kernel::paper_polynomial(6), 6, 7);
        let cfg = ProtocolConfig {
            max_expanded_terms: 10,
            ..ProtocolConfig::default()
        };
        let err = expand_model(&model, &cfg).unwrap_err();
        assert!(matches!(err, PpcsError::Expansion(_)));
    }

    #[test]
    fn multiplicities_are_run_lengths() {
        assert_eq!(multiplicities(&[0, 0, 0]), vec![3]);
        assert_eq!(multiplicities(&[0, 1, 1]), vec![1, 2]);
        assert_eq!(multiplicities(&[0, 1, 2]), vec![1, 1, 1]);
    }
}
