//! Golden transcripts: SHA-256 of the recorded frames of seeded
//! sessions. All three digests were last re-pinned, once, by a change to
//! the protocol itself. The sender's `r` is a 256-bit draw instead of a
//! full-length one, which shifts every later draw from its RNG — the
//! IKNP digest moved for that alone, its 1-out-of-2 base phase being
//! otherwise frame for frame what it was. And the constants of a
//! 1-out-of-N transfer are the powers `C_i = C^i` of the commitment's
//! `C` instead of a frame of random elements, so a Naor–Pinkas transfer
//! is two frames — the receiver's `k` keys `PK_0`, then `k` tables
//! `R ‖ E_0 … E_{N−1}` — behind the unchanged commitment frame
//! `(C, g^r)`. What the receiver sends did not change meaning:
//! `C_σ · g^(p−1−x)` is the group element `C_σ / g^x` was
//! (`base::tests::commitment_identities_hold_on_random_elements`). Any
//! change *under* the protocol — a new exponentiation kernel, a
//! fixed-base table or its shape, another way to invert — must still
//! leave every frame, and so all three digests, as they are; a change to
//! the protocol, to the order or width of RNG draws or to the codec has
//! to re-pin them and say so here.
//!
//! The NP-768 classification digest was re-pinned once more, alone, by
//! a change to classification's schedule: every round of a batch goes
//! through one transfer list. The client's point clouds and its keys
//! for every round leave in one coalesced flight, and one tables frame
//! answers them all, so the sender draws all its masks before its one
//! transfer instead of a mask and a transfer per round. The frames
//! after the commitment changed; what each one means did not. The two
//! 4-of-8 digests, which pin a transfer in a session of its own, did
//! not move.
//!
//! The fourth digest pins a similarity session over the field and an
//! ideal OT, so it moves only with §V's protocol or with the geometry
//! both parties derive before it: the hello carries `|m|²` and `|w|²` bit
//! for bit. The geometry itself is pinned beside it, as computed on the
//! commit before the boundary enumeration went linear-time, and must not
//! move. The session digest was re-pinned once, by a change to the
//! protocol's schedule: its three rounds are rounds of one OMPE session
//! under one OT state, rounds 1 and 2 share one transfer list, and the
//! requester's first flight is the hello, both point clouds and both
//! transfers' queries coalesced. Both parties draw in a new order — the
//! requester all three rounds up front, the responder its three
//! amplifiers before any mask — so every frame after the hello changed,
//! and the flights did too: four frames instead of ten, 8 318 bytes
//! instead of 8 324. The values Bob learns did not change meaning, and
//! `T` still meets the plain metric. Under Naor–Pinkas the same session
//! is five frames with one commitment, counted by kind below.
//!
//! The two digests whose sessions carry point clouds — NP-768
//! classification and the field similarity session — were re-pinned
//! once more, together, by a change to the codec alone: a point-cloud
//! frame (kind 0x0400) holds its two sequences, abscissae then input
//! vectors, straight in its payload instead of inside a length-prefixed
//! byte string. Each cloud is 8 bytes shorter, so a similarity
//! evaluation, which sends three, takes 8 294 bytes where it took 8 318;
//! no draw, value or frame count changed, and the two 4-of-8 digests,
//! which carry no cloud, did not move.

use ppcs_core::{
    similarity_plain, similarity_request, similarity_request_io, similarity_respond, Client,
    ModelGeometry, ProtocolConfig, SimilarityConfig, Trainer,
};
use ppcs_crypto::Sha256;
use ppcs_datasets::diabetes_subsets;
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{
    ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_send_io, IknpOt, NaorPinkasOt,
    ObliviousTransfer, OtError, OtSelect, TrustedSimOt,
};
use ppcs_svm::{Kernel, Label, SmoParams, SvmModel};
use ppcs_tests::blob_dataset;
use ppcs_transport::{duplex, Driver, Endpoint, ProtocolEngine, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Drives `engine` against `run_peer` on a second thread and returns its
/// result with the hex SHA-256 of everything it sent and received.
fn recorded<'a, T, E: From<TransportError>>(
    engine: ProtocolEngine<'a, T, E>,
    run_peer: impl FnOnce(Endpoint) + Send,
) -> (Result<T, E>, String) {
    let (res, transcript) = ppcs_tests::recorded(engine, run_peer);
    (res, hex(&Sha256::digest(&transcript.to_bytes())))
}

#[test]
fn np768_classification_session_is_pinned() {
    let ds = blob_dataset(4, 60, 7);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let samples: Vec<Vec<f64>> = (0..2).map(|i| ds.features(i).to_vec()).collect();
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let sel = NaorPinkasOt::fast_insecure().select();

    let (labels, digest) = recorded(client.classify_engine(sel, 12, &samples), |ep| {
        let mut engine = trainer.serve_engine(sel, 11);
        let served = Driver::new().drive(&ep, &mut engine).expect("serve");
        assert_eq!(served, samples.len());
    });
    let labels: Vec<Label> = labels.expect("classify").iter().map(|(l, _)| *l).collect();
    let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
    assert_eq!(labels, expected);
    assert_eq!(
        digest, "012296d869b19b294f639658bced74d2a3a92ee4932784237214bccd19f1958d",
        "the NP-768 classification transcript changed"
    );
}

/// A seeded 4-of-8 transfer of 32-byte messages in a session of its own,
/// as its receiver records it.
fn four_of_eight(sel: OtSelect) -> String {
    let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 32]).collect();
    let indices = [0usize, 3, 5, 6];

    let receiver = ProtocolEngine::new(|io| async move {
        let mut rng = StdRng::seed_from_u64(22);
        let state = ot_begin_receive_io(sel, &io).await?;
        ot_receive_io(sel, &state, &io, &mut rng, 8, &indices).await
    });
    let (got, digest): (Result<_, OtError>, _) = recorded(receiver, |ep| {
        let mut rng = StdRng::seed_from_u64(21);
        let messages = &messages;
        let mut sender = ProtocolEngine::new(|io| async move {
            let state = ot_begin_send_io(sel, &io, &mut rng).await?;
            ot_send_io(sel, &state, &io, &mut rng, messages, indices.len()).await
        });
        Driver::new().drive(&ep, &mut sender).expect("send");
    });
    let want: Vec<Vec<u8>> = indices.iter().map(|&i| messages[i].clone()).collect();
    assert_eq!(got.expect("receive"), want);
    digest
}

#[test]
fn np2048_four_of_eight_transfer_is_pinned() {
    assert_eq!(
        four_of_eight(NaorPinkasOt::new().select()),
        "16d090e1d6a16614e4a3cb3c9c0cf3a5d7aa6cb5e0c5f72dc4dc9da1f5013cee",
        "the MODP-2048 4-of-8 transfer transcript changed"
    );
}

#[test]
fn iknp768_four_of_eight_transfer_is_pinned() {
    assert_eq!(
        four_of_eight(IknpOt::fast_insecure().select()),
        "f116a5f21ebaa879552e93666872d492e5f248982dbf2bff95cfbe23f8f68628",
        "the IKNP-768 4-of-8 transfer transcript changed"
    );
}

/// The `similarity_fp256` benchmark's two models
/// (`benchmark/src/inputs.rs`): linear SVMs on Table II's diabetes
/// subsets S1 and S2.
fn diabetes_models() -> (SvmModel, SvmModel) {
    let subsets = diabetes_subsets(42);
    let params = SmoParams {
        c: 8.0,
        ..SmoParams::default()
    };
    (
        SvmModel::train(&subsets[0], Kernel::Linear, &params),
        SvmModel::train(&subsets[1], Kernel::Linear, &params),
    )
}

#[test]
fn diabetes_model_geometry_is_pinned() {
    let (a, b) = diabetes_models();
    let cfg = SimilarityConfig::default();
    let mut bytes = Vec::new();
    for model in [&a, &b] {
        let g = ModelGeometry::from_model(model, &cfg).expect("geometry");
        for v in g.centroid.iter().chain(&g.direction) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&g.m_norm2.to_le_bytes());
        bytes.extend_from_slice(&g.w_norm2.to_le_bytes());
    }
    assert_eq!(
        hex(&Sha256::digest(&bytes)),
        "782484fa283203fad432d4458e7af1827cebe65904d3306485ddb4b096b95fa0",
        "the diabetes models' similarity geometry changed"
    );
}

#[test]
fn fp256_similarity_session_is_pinned() {
    let (a, b) = diabetes_models();
    let cfg = SimilarityConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let sel = TrustedSimOt::new().select();
    let requester = ProtocolEngine::new(|io| {
        let (alg, b, cfg) = (&alg, &b, &cfg);
        async move {
            let mut rng = StdRng::seed_from_u64(32);
            similarity_request_io(alg, &io, sel, &mut rng, b, cfg).await
        }
    });
    let (t, digest) = recorded(requester, |ep| {
        let mut rng = StdRng::seed_from_u64(31);
        similarity_respond(&alg, &ep, &TrustedSimOt::new(), &mut rng, &a, &cfg).expect("respond");
    });
    let want = similarity_plain(&a, &b, &cfg).expect("plain");
    let got = t.expect("request");
    assert!(
        (got - want).abs() < 5e-3 * want,
        "private {got} vs plain {want}"
    );
    assert_eq!(
        digest, "487f5f4fa67722563df3f3e6cbd96b6831f65658cbea2e5c253a90d1451b92cb",
        "the field similarity transcript changed"
    );
}

#[test]
fn np768_similarity_session_is_one_commitment() {
    // The three rounds run under the commitment the responder sends
    // first; the requester's two flights are coalesced batches and each
    // is answered by one tables frame: five frames where single-shot
    // rounds took thirteen and three commitments.
    let (a, b) = diabetes_models();
    let cfg = SimilarityConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let ot = NaorPinkasOt::fast_insecure();
    let (ep, peer_ep) = duplex();
    let t = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(41);
            similarity_respond(&alg, &peer_ep, &ot, &mut rng, &a, &cfg).expect("respond");
        });
        let mut rng = StdRng::seed_from_u64(42);
        similarity_request(&alg, &ep, &ot, &mut rng, &b, &cfg).expect("request")
    });
    let want = similarity_plain(&a, &b, &cfg).expect("plain");
    assert!(
        (t - want).abs() < 5e-3 * want,
        "private {t} vs plain {want}"
    );
    let stats = ep.stats();
    let by_kind: Vec<(u16, u64, u64)> = stats
        .by_kind
        .iter()
        .map(|k| (k.kind, k.frames_sent, k.frames_received))
        .collect();
    assert_eq!(
        by_kind,
        [(0x00FF, 2, 0), (0x0100, 0, 1), (0x0202, 0, 2)],
        "coalesced flights, one commitment, two tables frames"
    );
    assert!(stats.frames_sent + stats.frames_received <= 7);
}

#[test]
fn np768_classified_sample_is_three_ot_frames() {
    // One commitment per session and two frames — one round trip — per
    // transfer list, none of them the retired constants kind 0x0200: a
    // schedule regression fails here, not only in the benchmark's
    // `frames_per_result`. The keys frame rides in the client's one
    // coalesced flight, behind the point cloud.
    let ep = classified_batch(NaorPinkasOt::fast_insecure().select(), 1);
    assert_eq!(client_frames_by_kind(&ep), NP_CLIENT_FRAMES);
}

/// `(kind, frames the client sent, frames it received)` of a
/// Naor–Pinkas classification session of any size: the flight (0x00FF)
/// of clouds ‖ keys, the commitment, the tables, the hello and the
/// spec.
const NP_CLIENT_FRAMES: [(u16, u64, u64); 5] = [
    (0x00FF, 1, 0),
    (0x0100, 0, 1),
    (0x0202, 0, 1),
    (0x0500, 1, 0),
    (0x0501, 0, 1),
];

/// `(kind, frames sent, frames received)` of every wire frame kind
/// `ep` moved; a coalesced flight counts once, as kind 0x00FF.
fn client_frames_by_kind(ep: &Endpoint) -> Vec<(u16, u64, u64)> {
    ep.stats()
        .by_kind
        .iter()
        .map(|k| (k.kind, k.frames_sent, k.frames_received))
        .collect()
}

/// Classifies `b` samples over `sel` between a trainer and a client on
/// two threads; returns the client's endpoint after checking every
/// label against the plain model.
fn classified_batch(sel: OtSelect, b: usize) -> Endpoint {
    let ds = blob_dataset(4, 60, 7);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let samples: Vec<Vec<f64>> = (0..b).map(|i| ds.features(i).to_vec()).collect();
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let (ep, peer_ep) = duplex();
    let labels = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut engine = trainer.serve_engine(sel, 11);
            Driver::new().drive(&peer_ep, &mut engine).expect("serve");
        });
        let mut engine = client.classify_engine(sel, 12, &samples);
        Driver::new().drive(&ep, &mut engine).expect("classify")
    });
    let labels: Vec<Label> = labels.iter().map(|(l, _)| *l).collect();
    let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
    assert_eq!(labels, expected);
    ep
}

#[test]
fn classification_batch_is_one_transfer_list() {
    // Every round of a batch goes through one transfer list: the
    // client's clouds and its one query leave in one flight, and one
    // answer comes back, whatever the batch size. Under Naor–Pinkas
    // that is one commitment, one flight and one tables frame; under
    // IKNP one base phase of κ = 128 1-out-of-2 transfers (the
    // commitment rides in the flight, then 128 PK0 frames in and 128
    // payloads out), one U matrix out and one extension payload in.
    for b in [1, 4] {
        let ep = classified_batch(NaorPinkasOt::fast_insecure().select(), b);
        assert_eq!(
            client_frames_by_kind(&ep),
            NP_CLIENT_FRAMES,
            "NP-768, {b} samples"
        );

        let ep = classified_batch(IknpOt::fast_insecure().select(), b);
        let base_ot: Vec<(u16, u64, u64)> = client_frames_by_kind(&ep)
            .into_iter()
            .filter(|&(kind, _, _)| kind < 0x0290)
            .collect();
        assert_eq!(
            base_ot,
            [
                (0x00FF, 1, 0),
                (0x0101, 0, 128),
                (0x0102, 128, 0),
                (0x0280, 1, 0),
                (0x0281, 0, 1)
            ],
            "IKNP-768, {b} samples"
        );
    }
}
