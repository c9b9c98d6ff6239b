//! Private one-vs-rest multi-class classification — an extension of the
//! paper's binary protocol (its related work \[15\] targets multi-class
//! SVM outsourcing; the OMPE machinery composes naturally).
//!
//! ## The amplifier subtlety
//!
//! The binary protocol hides the decision value behind a fresh positive
//! amplifier `r_a` per query — sign-preserving, magnitude-destroying.
//! One-vs-rest prediction, however, needs the **argmax** across class
//! decision values, and values amplified by *different* `r_a` are not
//! comparable. Two modes are offered:
//!
//! * [`MultiClassMode::SignOnly`] — each class model is queried
//!   independently (fresh amplifier each, exactly the paper's hiding
//!   level). The prediction is decided only when exactly one class says
//!   "positive"; overlapping or empty regions return `None`.
//! * [`MultiClassMode::SharedAmplifier`] — the trainer reuses one
//!   amplifier across the per-class evaluations *of a single sample*
//!   (still fresh across samples). Values become mutually comparable, so
//!   argmax works exactly like the plain classifier, at the cost of
//!   revealing the *ratios* of the class decision values for that sample
//!   (but still neither their scale nor the models).

use std::cmp::Ordering;
use std::collections::VecDeque;

use ppcs_math::Algebra;
use ppcs_ompe::OmpeSenderOffline;
use ppcs_ot::{ObliviousTransfer, OtSelect};
use ppcs_svm::MultiClassModel;
use ppcs_transport::{drive_blocking, Endpoint, FrameIo, ProtocolEngine};
use rand::RngCore;

use crate::classify::{ClassifySpec, Client, Trainer};
use crate::config::ProtocolConfig;
use crate::error::PpcsError;

const KIND_MC_HELLO: u16 = 0x0700;
const KIND_MC_SPEC: u16 = 0x0701;

/// How per-class decision values are randomized (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiClassMode {
    /// Fresh amplifier per class query; prediction only on unambiguous
    /// sign patterns.
    SignOnly,
    /// One amplifier per sample shared across class queries; full argmax
    /// prediction.
    SharedAmplifier,
}

impl MultiClassMode {
    fn wire(self) -> u64 {
        match self {
            MultiClassMode::SignOnly => 0,
            MultiClassMode::SharedAmplifier => 1,
        }
    }

    fn from_wire(v: u64) -> Result<Self, PpcsError> {
        match v {
            0 => Ok(MultiClassMode::SignOnly),
            1 => Ok(MultiClassMode::SharedAmplifier),
            other => Err(PpcsError::Protocol(format!(
                "unknown multiclass mode {other}"
            ))),
        }
    }
}

/// Trainer role for private multi-class classification.
pub struct MultiClassTrainer<A: Algebra> {
    class_ids: Vec<u32>,
    trainers: Vec<Trainer<A>>,
    mode: MultiClassMode,
    alg: A,
    cfg: ProtocolConfig,
}

impl<A: Algebra> MultiClassTrainer<A> {
    /// Prepares a multi-class model for private serving.
    ///
    /// # Errors
    ///
    /// Propagates per-class [`Trainer::new`] failures.
    pub fn new(
        alg: A,
        model: &MultiClassModel,
        cfg: ProtocolConfig,
        mode: MultiClassMode,
    ) -> Result<Self, PpcsError> {
        let trainers = model
            .binary_models()
            .iter()
            .map(|m| Trainer::new(alg.clone(), m, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            class_ids: model.class_ids().to_vec(),
            trainers,
            mode,
            alg,
            cfg,
        })
    }

    /// Serves one multi-class session; returns samples served.
    ///
    /// # Errors
    ///
    /// Transport and OMPE failures.
    pub fn serve(
        &self,
        ep: &Endpoint,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
    ) -> Result<usize, PpcsError> {
        let sel = ot.select();
        let mut engine =
            ProtocolEngine::new(|io| async move { self.serve_io(&io, sel, rng).await });
        drive_blocking(ep, &mut engine)
    }

    /// Sans-I/O twin of [`MultiClassTrainer::serve`].
    ///
    /// # Errors
    ///
    /// Same as [`MultiClassTrainer::serve`].
    pub async fn serve_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
    ) -> Result<usize, PpcsError> {
        self.serve_session_io(io, sel, rng, None).await
    }

    /// [`MultiClassTrainer::serve_io`] consuming precomputed offline
    /// material: each per-class round pops one pack from `packs` (see
    /// [`MultiClassTrainer::precompute_packs`]); when the queue runs dry
    /// the remaining rounds draw their offline halves inline. Either way
    /// the wire traffic is identical, so any client pairs with it.
    ///
    /// # Errors
    ///
    /// Same as [`MultiClassTrainer::serve_io`].
    pub async fn serve_offline_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        packs: &mut VecDeque<OmpeSenderOffline>,
    ) -> Result<usize, PpcsError> {
        self.serve_session_io(io, sel, rng, Some(packs)).await
    }

    /// Draws `rounds` single-round offline packs for this trainer's
    /// shared per-class spec, ready to feed
    /// [`MultiClassTrainer::serve_offline_io`]. One pack is consumed per
    /// class round, so a session over `s` samples and `c` classes wants
    /// `s·c` of them.
    pub fn precompute_packs(
        &self,
        sel: OtSelect,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> VecDeque<OmpeSenderOffline> {
        (0..rounds)
            .map(|_| self.trainers[0].precompute_material(sel, 1, rng))
            .collect()
    }

    async fn serve_session_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        mut packs: Option<&mut VecDeque<OmpeSenderOffline>>,
    ) -> Result<usize, PpcsError> {
        let num_samples: u64 = io.recv_msg(KIND_MC_HELLO).await?;
        // Peer-chosen batch size bounds the per-class serving work below.
        if num_samples > crate::classify::MAX_BATCH_SAMPLES {
            return Err(PpcsError::Protocol(format!(
                "client requested {num_samples} samples, per-session cap is {}",
                crate::classify::MAX_BATCH_SAMPLES
            )));
        }
        let mut header: Vec<u8> = Vec::new();
        header.extend_from_slice(&(self.class_ids.len() as u64).to_le_bytes());
        header.extend_from_slice(&self.mode.wire().to_le_bytes());
        for &c in &self.class_ids {
            header.extend_from_slice(&u64::from(c).to_le_bytes());
        }
        // All one-vs-rest models share kernel and dimensionality, so one
        // spec covers every class round.
        for field in self.trainers[0].spec().encode_wire() {
            header.extend_from_slice(&field.to_le_bytes());
        }
        io.send_msg(KIND_MC_SPEC, &header)?;

        for sample_idx in 0..num_samples {
            let shared = match self.mode {
                MultiClassMode::SharedAmplifier => Some(self.cfg.draw_amplifier(rng)),
                MultiClassMode::SignOnly => None,
            };
            for trainer in &self.trainers {
                let ra = match shared {
                    Some(ra) => ra,
                    None => self.cfg.draw_amplifier(rng),
                };
                let material = packs.as_mut().and_then(|q| q.pop_front());
                trainer
                    .serve_one_with_amplifier_io(io, sel, rng, self.alg.encode_int(ra), material)
                    .await?;
            }
            let _ = sample_idx;
        }
        Ok(num_samples as usize)
    }
}

/// Client role for private multi-class classification.
pub struct MultiClassClient<A: Algebra> {
    client: Client<A>,
    alg: A,
}

impl<A: Algebra> MultiClassClient<A> {
    /// Creates a client.
    pub fn new(alg: A, cfg: ProtocolConfig) -> Self {
        Self {
            client: Client::new(alg.clone(), cfg),
            alg,
        }
    }

    /// Classifies private samples; per sample, returns `Some(class)` or
    /// `None` when the session ran in [`MultiClassMode::SignOnly`] and
    /// the sign pattern was ambiguous.
    ///
    /// # Errors
    ///
    /// Transport, protocol, and OMPE failures.
    pub fn classify_batch(
        &self,
        ep: &Endpoint,
        ot: &dyn ObliviousTransfer,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Option<u32>>, PpcsError> {
        let sel = ot.select();
        let mut engine = ProtocolEngine::new(|io| async move {
            self.classify_batch_io(&io, sel, rng, samples).await
        });
        drive_blocking(ep, &mut engine)
    }

    /// Sans-I/O twin of [`MultiClassClient::classify_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`MultiClassClient::classify_batch`].
    pub async fn classify_batch_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Option<u32>>, PpcsError> {
        io.send_msg(KIND_MC_HELLO, &(samples.len() as u64))?;
        let header: Vec<u8> = io.recv_msg(KIND_MC_SPEC).await?;
        let (words, []) = header.as_chunks::<8>() else {
            return Err(PpcsError::Protocol("malformed multiclass header".into()));
        };
        let fields: Vec<u64> = words.iter().map(|&w| u64::from_le_bytes(w)).collect();
        // Header layout: count | mode | class ids | 6 spec fields.
        let [count, mode, rest @ ..] = &fields[..] else {
            return Err(PpcsError::Protocol("malformed multiclass header".into()));
        };
        let mode = MultiClassMode::from_wire(*mode)?;
        let Some((ids, spec_fields)) = rest
            .len()
            .checked_sub(6)
            .filter(|&n| n as u64 == *count)
            .map(|n| rest.split_at(n))
        else {
            return Err(PpcsError::Protocol(
                "multiclass header shape mismatch".into(),
            ));
        };
        let num_classes = ids.len();
        let class_ids: Vec<u32> = ids.iter().map(|&c| c as u32).collect();
        let spec = ClassifySpec::decode_wire(spec_fields)?;

        let mut out = Vec::with_capacity(samples.len());
        for sample in samples {
            let mut values = Vec::with_capacity(num_classes);
            for _class in 0..num_classes {
                let (_, value) = self
                    .client
                    .classify_one_io(io, sel, rng, sample, &spec)
                    .await?;
                values.push(value);
            }
            out.push(decide(&class_ids, &values, mode));
        }
        let _ = &self.alg;
        Ok(out)
    }
}

/// Decision rule per mode (see module docs).
fn decide(class_ids: &[u32], values: &[f64], mode: MultiClassMode) -> Option<u32> {
    match mode {
        MultiClassMode::SharedAmplifier => {
            // Never NaN: `FixedFpAlgebra::decode` divides a finite
            // integer image by 2^scale, which is at least 1 (or ∞, giving
            // ±0), so the fallback is unreachable.
            let best = values
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))?;
            Some(class_ids[best.0])
        }
        MultiClassMode::SignOnly => {
            let positives: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| **v > 0.0)
                .map(|(i, _)| i)
                .collect();
            match positives.as_slice() {
                [only] => Some(class_ids[*only]),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_math::FixedFpAlgebra;
    use ppcs_ot::TrustedSimOt;
    use ppcs_svm::{Kernel, MultiDataset, SmoParams};
    use ppcs_transport::run_pair;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    static SIM: TrustedSimOt = TrustedSimOt;

    fn three_blobs(n: usize, seed: u64) -> MultiDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(-0.7, -0.7), (0.7, -0.5), (0.0, 0.8)];
        let mut ds = MultiDataset::new(2);
        for k in 0..n {
            let class = (k % 3) as u32;
            let (cx, cy) = centers[class as usize];
            ds.push(
                vec![
                    cx + rng.gen_range(-0.25..0.25),
                    cy + rng.gen_range(-0.25..0.25),
                ],
                class,
            );
        }
        ds
    }

    fn run_session(
        model: &MultiClassModel,
        mode: MultiClassMode,
        samples: Vec<Vec<f64>>,
        seed: u64,
    ) -> Vec<Option<u32>> {
        let cfg = ProtocolConfig::default();
        let alg = FixedFpAlgebra::new(16);
        let trainer = MultiClassTrainer::new(alg, model, cfg, mode).expect("trainer");
        let client = MultiClassClient::new(alg, cfg);
        let (_, labels) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed);
                trainer.serve(&ep, &SIM, &mut rng).expect("serve")
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed + 1);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples)
                    .expect("classify")
            },
        );
        labels
    }

    #[test]
    fn shared_amplifier_matches_plain_argmax() {
        let ds = three_blobs(150, 1);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..30).map(|i| ds.features(i).to_vec()).collect();
        let got = run_session(&model, MultiClassMode::SharedAmplifier, samples.clone(), 10);
        for (sample, label) in samples.iter().zip(&got) {
            assert_eq!(*label, Some(model.predict(sample)));
        }
    }

    #[test]
    fn sign_only_agrees_when_unambiguous() {
        let ds = three_blobs(150, 2);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let samples: Vec<Vec<f64>> = (0..30).map(|i| ds.features(i).to_vec()).collect();
        let got = run_session(&model, MultiClassMode::SignOnly, samples.clone(), 20);
        let mut decided = 0;
        for (sample, label) in samples.iter().zip(&got) {
            if let Some(class) = label {
                decided += 1;
                // An unambiguous sign pattern must match the plain
                // argmax (the positive model dominates).
                assert_eq!(*class, model.predict(sample));
            }
        }
        assert!(
            decided > samples.len() / 2,
            "well-separated blobs should mostly be unambiguous: {decided}/{}",
            samples.len()
        );
    }

    #[test]
    fn sign_only_reports_ambiguity_between_blobs() {
        let ds = three_blobs(150, 3);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        // A point far outside every blob: likely zero or multiple
        // positives over many randomized runs — must never panic.
        let far = vec![vec![-0.95, 0.95]];
        let _ = run_session(&model, MultiClassMode::SignOnly, far, 30);
    }

    #[test]
    fn crafted_headers_are_typed_errors() {
        // A class count past the words sent (u64::MAX overflowed the
        // shape arithmetic), too few words, a ragged length.
        let spec = [2u64, 0, 1, 4, 40, 2];
        let words = |head: &[u64]| -> Vec<u8> {
            head.iter()
                .chain(&spec)
                .flat_map(|w| w.to_le_bytes())
                .collect()
        };
        for header in [
            words(&[u64::MAX, 1, 5]),
            words(&[2, 1, 5]),
            words(&[]).split_off(40),
            words(&[1, 1, 5])[..71].to_vec(),
        ] {
            let client = MultiClassClient::new(FixedFpAlgebra::new(16), ProtocolConfig::default());
            let (_, res) = run_pair(
                move |ep| {
                    let _: u64 = ep.recv_msg(KIND_MC_HELLO).expect("hello");
                    ep.send_msg(KIND_MC_SPEC, &header).expect("header");
                },
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(1);
                    client.classify_batch(&ep, &SIM, &mut rng, &[vec![0.0, 0.0]])
                },
            );
            assert!(matches!(res, Err(PpcsError::Protocol(_))), "{res:?}");
        }
    }

    #[test]
    fn mode_wire_roundtrip() {
        for mode in [MultiClassMode::SignOnly, MultiClassMode::SharedAmplifier] {
            assert_eq!(MultiClassMode::from_wire(mode.wire()).unwrap(), mode);
        }
        assert!(MultiClassMode::from_wire(9).is_err());
    }

    #[test]
    fn decide_rules() {
        let ids = [5u32, 6, 7];
        assert_eq!(
            decide(&ids, &[-1.0, 3.0, 2.0], MultiClassMode::SharedAmplifier),
            Some(6)
        );
        assert_eq!(
            decide(&ids, &[-1.0, 3.0, -2.0], MultiClassMode::SignOnly),
            Some(6)
        );
        assert_eq!(
            decide(&ids, &[1.0, 3.0, -2.0], MultiClassMode::SignOnly),
            None
        );
        assert_eq!(
            decide(&ids, &[-1.0, -3.0, -2.0], MultiClassMode::SignOnly),
            None
        );
    }
}
