//! Protocol configuration shared by both parties.

use crate::error::PpcsError;

/// Security and sizing knobs of the private protocols.
///
/// Both parties must agree on a configuration out of band (it is public
/// protocol metadata, not a secret).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// Degree `q` of the client's input-masking polynomials. The paper's
    /// security parameter: reconstruction of a hidden input requires
    /// `p·q + 1` correlated values from one (never-reused) masking
    /// polynomial.
    pub sigma: usize,
    /// Decoy multiplier `k`: the client submits `M = m·k` points of which
    /// only `m` are genuine. `1` disables decoys (functional-benchmark
    /// mode paired with the ideal OT).
    pub decoy_factor: usize,
    /// Bit width of the random integer amplifiers `r_a`, `r_am`, `r_aw`.
    pub amplifier_bits: u32,
    /// Hard cap on the number of coefficients (one per monomial) of an
    /// expanded nonlinear model.
    pub max_expanded_terms: usize,
    /// Truncation order for Taylor-expanded kernels (RBF, sigmoid).
    pub taylor_order: u32,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            sigma: 3,
            decoy_factor: 2,
            amplifier_bits: 16,
            max_expanded_terms: 2_000_000,
            taylor_order: 3,
        }
    }
}

impl ProtocolConfig {
    /// A configuration for large functional sweeps: no decoys, minimal
    /// masking degree. Pair it with
    /// [`TrustedSimOt`](ppcs_ot::TrustedSimOt); results are bit-identical
    /// to the full protocol's, only the hiding layers an ideal adversary
    /// would see are thinned.
    pub fn functional() -> Self {
        Self {
            sigma: 1,
            decoy_factor: 1,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`PpcsError::Config`] on zero-valued or oversized parameters.
    pub fn validate(&self) -> Result<(), PpcsError> {
        if self.sigma == 0 {
            return Err(PpcsError::Config("sigma must be ≥ 1".into()));
        }
        if self.decoy_factor == 0 {
            return Err(PpcsError::Config("decoy_factor must be ≥ 1".into()));
        }
        if self.amplifier_bits == 0 || self.amplifier_bits > 40 {
            return Err(PpcsError::Config("amplifier_bits must be in 1..=40".into()));
        }
        if self.max_expanded_terms == 0 {
            return Err(PpcsError::Config("max_expanded_terms must be ≥ 1".into()));
        }
        if self.taylor_order == 0 || self.taylor_order > 9 {
            return Err(PpcsError::Config("taylor_order must be in 1..=9".into()));
        }
        Ok(())
    }

    /// Draws a random positive integer amplifier in `[2, 2^amplifier_bits)`.
    pub fn draw_amplifier(&self, rng: &mut dyn rand::RngCore) -> i64 {
        use rand::Rng;
        rng.gen_range(2..(1i64 << self.amplifier_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_valid() {
        ProtocolConfig::default().validate().unwrap();
        ProtocolConfig::functional().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for cfg in [
            ProtocolConfig {
                sigma: 0,
                ..Default::default()
            },
            ProtocolConfig {
                decoy_factor: 0,
                ..Default::default()
            },
            ProtocolConfig {
                amplifier_bits: 0,
                ..Default::default()
            },
            ProtocolConfig {
                amplifier_bits: 64,
                ..Default::default()
            },
            ProtocolConfig {
                max_expanded_terms: 0,
                ..Default::default()
            },
            ProtocolConfig {
                taylor_order: 0,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn amplifiers_are_positive_and_bounded() {
        let cfg = ProtocolConfig {
            amplifier_bits: 8,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let a = cfg.draw_amplifier(&mut rng);
            assert!((2..256).contains(&a));
        }
    }
}
