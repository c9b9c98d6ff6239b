//! # ppcs-crypto
//!
//! The cryptographic primitives behind the ppcs oblivious-transfer stack,
//! implemented in-tree so that the entire trusted surface of the
//! reproduction is visible in this repository:
//!
//! * [`Sha256`] — FIPS 180-4 hash (NIST known-answer tested);
//! * [`hmac_sha256`] / [`hkdf`] — RFC 2104 / RFC 5869 key derivation;
//! * [`ChaCha20`] — RFC 8439 stream cipher for OT payload encryption;
//! * [`DhGroup`] — RFC 3526 MODP-2048 (and a fast 768-bit test group)
//!   with modular exponentiation via `num-bigint`.
//!
//! ## Example: derive a pad from a DH shared secret
//!
//! ```
//! use ppcs_crypto::{ChaCha20, DhGroup};
//! use rand::SeedableRng;
//!
//! let group = DhGroup::modp_768();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let a = group.random_exponent(&mut rng);
//! let b = group.random_exponent(&mut rng);
//! let shared = group.exp(&group.power_g(&a), &b);
//!
//! let key = group.derive_key(&shared, b"session-1/msg-0");
//! let mut payload = b"secret polynomial point".to_vec();
//! ChaCha20::new(&key, &[0u8; 12], 0).apply(&mut payload);
//! assert_ne!(&payload, b"secret polynomial point");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chacha20;
mod group;
mod hmac;
mod sha256;

pub use chacha20::ChaCha20;
pub use group::{DhGroup, FixedBase};
pub use hmac::{hkdf, hkdf_expand, hkdf_extract, hmac_sha256};
pub use sha256::Sha256;
