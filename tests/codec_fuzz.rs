//! Property fuzz of the wire codec and frame plumbing: arbitrary,
//! truncated, bit-flipped, and length-prefix-mutated inputs must never
//! panic, never allocate unboundedly, and always surface as structured
//! [`TransportError`] values — the no-panic half of the resilience
//! trichotomy, checked at the decoding layer directly.

use bytes::{Bytes, BytesMut};
use ppcs_core::{Client, ProtocolConfig};
use ppcs_math::{FixedFpAlgebra, Fp256, PolyEval, MODULUS};
use ppcs_ompe::{ompe_send_io, OmpeError, OmpeParams};
use ppcs_ot::{
    ot_begin_send_io, ot_receive_list_io, ot_send_list_io, IknpOt, NaorPinkasOt, ObliviousTransfer,
    OtBatchState, TrustedSimOt,
};
use ppcs_transport::{
    decode_seq, encode_seq, Encodable, Frame, ProtocolEngine, Transcript, TransportError,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(kind, payload)| {
        Frame {
            kind,
            payload: Bytes::from(payload),
        }
    })
}

/// A frame of one of the OT's transfer-list kinds — commitment, keys,
/// tables, extension table, simulator indices or messages — carrying
/// byte soup or the layout of a list's tables: one `k ‖ N ‖ len` header
/// per transfer, each followed by the body it implies or one byte off it.
fn arb_ot_list_frame() -> impl Strategy<Value = Frame> {
    let kinds = proptest::sample::select(vec![0x0100u16, 0x0201, 0x0202, 0x0290, 0x0300, 0x0301]);
    let headers = proptest::collection::vec((0u64..4, 0u64..30, 0u64..40, 0usize..3), 0..3);
    let soup = proptest::collection::vec(any::<u8>(), 0..64);
    (kinds, any::<bool>(), headers, soup).prop_map(|(kind, list, headers, soup)| {
        if !list {
            return Frame {
                kind,
                payload: Bytes::from(soup),
            };
        }
        let mut body = Vec::new();
        for (k, n, len, off) in headers {
            body.extend([k, n, len].iter().flat_map(|v| v.to_le_bytes()));
            let implied = (k * (16 + n * len)) as usize;
            let tables = [implied, implied + 1, implied.saturating_sub(1)][off];
            body.resize(body.len() + tables, 0);
        }
        Frame::encode(kind, &body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup through every decoder entry point: the only
    /// acceptable outcomes are a value or a structured error.
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&mut Bytes::copy_from_slice(&bytes));
        let _ = Transcript::from_bytes(&bytes);
        let _ = decode_seq::<u64>(&mut Bytes::copy_from_slice(&bytes));
        let _ = decode_seq::<f64>(&mut Bytes::copy_from_slice(&bytes));
        let _ = decode_seq::<Frame>(&mut Bytes::copy_from_slice(&bytes));
        let _ = decode_seq::<Fp256>(&mut Bytes::copy_from_slice(&bytes));
        let _ = decode_seq::<Vec<u8>>(&mut Bytes::copy_from_slice(&bytes));
    }

    /// Every strict truncation of a valid frame encoding is rejected
    /// with a decode error — never accepted, never a panic.
    #[test]
    fn truncated_frames_error_cleanly(frame in arb_frame()) {
        let mut out = BytesMut::new();
        frame.encode(&mut out);
        let encoded = out.freeze();
        for cut in 0..encoded.len() {
            let mut input = encoded.slice(0..cut);
            prop_assert!(
                matches!(Frame::decode(&mut input), Err(TransportError::Decode(_))),
                "prefix of {cut}/{} bytes must fail to decode",
                encoded.len()
            );
        }
    }

    /// A single bit flip anywhere in a valid frame encoding either
    /// decodes to some (different or identical) frame or errors — it
    /// never panics and never over-reads.
    #[test]
    fn bit_flipped_frames_decode_totally(frame in arb_frame(), flip in any::<proptest::sample::Index>()) {
        let mut out = BytesMut::new();
        frame.encode(&mut out);
        let mut bytes = out.to_vec();
        let bit = flip.index(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut input = Bytes::from(bytes);
        if let Ok(decoded) = Frame::decode(&mut input) {
            // A successful decode must have consumed a consistent
            // payload; its re-encoding is well-formed by construction.
            let mut re = BytesMut::new();
            decoded.encode(&mut re);
            prop_assert!(re.len() >= Frame::HEADER_LEN + 4);
        }
    }

    /// Mutated length prefixes far beyond the actual input size are
    /// rejected up front instead of driving a huge allocation.
    #[test]
    fn huge_length_prefixes_error_without_allocating(
        kind in any::<u16>(),
        len in (1u64 << 32)..u64::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = BytesMut::new();
        kind.encode(&mut bytes);
        len.encode(&mut bytes);
        bytes.extend_from_slice(&tail);
        let mut input = bytes.freeze();
        prop_assert!(matches!(
            Frame::decode(&mut input),
            Err(TransportError::Decode(_))
        ));

        let mut seq = BytesMut::new();
        len.encode(&mut seq);
        seq.extend_from_slice(&tail);
        let mut input = seq.freeze();
        prop_assert!(decode_seq::<u64>(&mut input).is_err());
    }

    /// Valid sequences round-trip; every strict truncation of the
    /// encoding errors.
    #[test]
    fn sequences_round_trip_and_truncations_fail(values in proptest::collection::vec(any::<u64>(), 0..16)) {
        let mut out = BytesMut::new();
        encode_seq(&values, &mut out);
        let encoded = out.freeze();
        let mut input = encoded.clone();
        prop_assert_eq!(decode_seq::<u64>(&mut input).unwrap(), values);
        for cut in 0..encoded.len() {
            let mut input = encoded.slice(0..cut);
            prop_assert!(decode_seq::<u64>(&mut input).is_err());
        }
    }

    /// Field-element decoding is total over all 2^256 encodings: values
    /// below the modulus round-trip exactly, everything else is
    /// rejected as non-canonical (no silent reduction).
    #[test]
    fn fp256_decoding_is_total_and_canonical(raw in proptest::collection::vec(any::<u8>(), 32)) {
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&raw);
        match Fp256::from_bytes_canonical(&bytes) {
            Some(v) => prop_assert_eq!(v.to_bytes(), bytes, "canonical values round-trip"),
            None => {
                let mut input = Bytes::copy_from_slice(&bytes);
                prop_assert!(
                    matches!(Fp256::decode(&mut input), Err(TransportError::Decode(_))),
                    "wire decode must agree that the encoding is non-canonical"
                );
            }
        }
        // Reduction-based parsing always yields a canonical value, and
        // that value always survives the strict wire path.
        let reduced = Fp256::from_bytes(&bytes);
        prop_assert_eq!(Fp256::from_bytes_canonical(&reduced.to_bytes()), Some(reduced));
    }

    /// Feeding arbitrary frames straight into a protocol engine never
    /// panics: the engine either keeps waiting or terminates with a
    /// structured protocol error — it can never "succeed" against
    /// garbage input.
    #[test]
    fn classify_engine_survives_arbitrary_frames(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        seed in any::<u64>(),
    ) {
        let cfg = ProtocolConfig::functional();
        let client = Client::new(ppcs_math::FixedFpAlgebra::new(16), cfg);
        let samples = vec![vec![0.5, -1.0]];
        let sel = TrustedSimOt.select();
        let mut eng = client.classify_engine(sel, seed, &samples);
        for frame in frames {
            while eng.poll_output().is_some() {}
            if eng.is_done() {
                break;
            }
            eng.handle_input(frame);
        }
        while eng.poll_output().is_some() {}
        if eng.is_done() {
            let result = eng.take_result().expect("done engine has a result");
            prop_assert!(result.is_err(), "garbage frames must not classify anything");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Either role of a list of two transfers (2-of-8 and 1-of-4), on
    /// every engine, fed arbitrary frames of the OT's kinds: never a
    /// panic, and never opened messages for the receiver.
    #[test]
    fn ot_list_roles_survive_arbitrary_frames(
        frames in proptest::collection::vec(arb_ot_list_frame(), 1..4),
        engine in 0usize..3,
        sender_role in any::<bool>(),
    ) {
        let sel = [
            NaorPinkasOt::fast_insecure().select(),
            IknpOt::fast_insecure().select(),
            TrustedSimOt.select(),
        ][engine];
        let (eight, four): (Vec<Vec<u8>>, Vec<Vec<u8>>) = (
            (0..8u8).map(|i| vec![i; 4]).collect(),
            (0..4u8).map(|i| vec![i; 4]).collect(),
        );
        let sent: &[(&[Vec<u8>], usize)] = &[(&eight, 2), (&four, 1)];
        let asked: &[(usize, &[usize])] = &[(8, &[7, 0]), (4, &[2])];
        // The Naor–Pinkas receiver reads tables only under a valid
        // commitment: give it an honest one first.
        let mut frames = frames;
        if engine == 0 && !sender_role {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let mut committer =
                ProtocolEngine::new(|io| async move { ot_begin_send_io(sel, &io, &mut rng).await });
            let commitment = committer.poll_output().expect("the commitment frame");
            frames.insert(0, commitment.frames()[0].clone());
        }
        let state = OtBatchState::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut eng = ProtocolEngine::new(|io| async move {
            match sender_role {
                true => ot_send_list_io(sel, &state, &io, &mut rng, sent).await.map(|()| Vec::new()),
                false => ot_receive_list_io(sel, &state, &io, &mut rng, asked).await,
            }
        });
        for frame in frames {
            while eng.poll_output().is_some() {}
            if eng.is_done() {
                break;
            }
            eng.handle_input(frame);
        }
        while eng.poll_output().is_some() {}
        if let Some(result) = eng.take_result() {
            prop_assert!(sender_role || result.is_err(), "garbage frames must not open a message");
        }
    }
}

/// A secret an OMPE sender must never evaluate: every cloud it is shown
/// is malformed and must be refused first.
struct Untouchable;

impl PolyEval<FixedFpAlgebra> for Untouchable {
    fn num_vars(&self) -> usize {
        2
    }
    fn total_degree(&self) -> usize {
        1
    }
    fn eval(&self, _: &FixedFpAlgebra, _: &[Fp256]) -> Fp256 {
        panic!("the sender evaluated its secret on a malformed cloud");
    }
}

/// The ways a point cloud for `N = 6` points of two coordinates — 12
/// elements, 384 bytes — can be malformed.
#[derive(Clone, Copy, Debug)]
enum BadCloud {
    /// Whole elements missing from the end.
    Truncated,
    /// One byte past the last element.
    ByteExtra,
    /// Cut inside an element.
    PartialElement,
    /// One element's 32 bytes encode a value in `[p, p + 1000)`.
    ElementAtOrAboveP,
    /// The old layout: the abscissae `1..=6` and the coordinates, as two
    /// length-prefixed sequences.
    OldTwoSequences,
}

fn arb_bad_cloud() -> impl Strategy<Value = (BadCloud, Vec<u8>)> {
    let kinds = proptest::sample::select(vec![
        BadCloud::Truncated,
        BadCloud::ByteExtra,
        BadCloud::PartialElement,
        BadCloud::ElementAtOrAboveP,
        BadCloud::OldTwoSequences,
    ]);
    (kinds, any::<u64>()).prop_map(|(kind, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ys: Vec<Fp256> = (0..12).map(|_| Fp256::random(&mut rng)).collect();
        let mut honest = BytesMut::new();
        for y in &ys {
            y.encode(&mut honest);
        }
        let mut bytes = honest.to_vec();
        match kind {
            BadCloud::Truncated => bytes.truncate(32 * rng.gen_range(0..12)),
            BadCloud::ByteExtra => bytes.push(rng.gen()),
            BadCloud::PartialElement => {
                bytes.truncate(32 * rng.gen_range(0..12) + rng.gen_range(1..32))
            }
            BadCloud::ElementAtOrAboveP => {
                let mut limbs = MODULUS;
                limbs[0] += rng.gen_range(0..1000);
                let at = 32 * rng.gen_range(0..12);
                for (i, limb) in limbs.iter().enumerate() {
                    bytes[at + 8 * i..at + 8 * (i + 1)].copy_from_slice(&limb.to_le_bytes());
                }
            }
            BadCloud::OldTwoSequences => {
                let mut old = BytesMut::new();
                let xs: Vec<Fp256> = (1..=6).map(Fp256::from_u64).collect();
                encode_seq(&xs, &mut old);
                encode_seq(&ys, &mut old);
                bytes = old.to_vec();
            }
        }
        (kind, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An OMPE sender shown a malformed point cloud stops with a typed
    /// error — the wrong length as a protocol violation, an element at
    /// or above `p` as a decode error — before it evaluates its secret,
    /// and sends nothing: no answer, no transfer.
    #[test]
    fn malformed_point_clouds_are_refused_before_any_answer((kind, bytes) in arb_bad_cloud()) {
        let alg = &FixedFpAlgebra::new(16);
        let params = &OmpeParams::new(1, 2, 2).expect("params");
        let sel = TrustedSimOt.select();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut sender = ProtocolEngine::new(|io| async move {
            ompe_send_io(alg, &io, sel, &mut rng, &Untouchable, params).await
        });
        prop_assert!(sender.poll_output().is_none(), "the sender speaks second");
        sender.handle_input(Frame { kind: 0x0400, payload: Bytes::from(bytes) });
        prop_assert!(sender.poll_output().is_none(), "{kind:?}: an answer left");
        let result = sender.take_result();
        let refused = match kind {
            BadCloud::ElementAtOrAboveP => matches!(
                result,
                Some(Err(OmpeError::Transport(TransportError::Decode(_))))
            ),
            _ => matches!(result, Some(Err(OmpeError::Protocol(ref m))) if m.contains("point cloud of")),
        };
        prop_assert!(refused, "{kind:?}: {result:?}");
    }
}
