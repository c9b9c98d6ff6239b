//! Golden transcripts: SHA-256 of the recorded frames of two seeded
//! Naor–Pinkas sessions. They were last re-pinned by a change to the
//! protocol itself: the commitment frame now carries `(C, g^r)` and is
//! drawn as `c` then `r`, every base OT of a commitment shares that `r`,
//! and the payload frame carries a 16-byte per-transfer string in place
//! of a `g^r` of its own. Any change *under* the protocol — a new
//! exponentiation kernel, a fixed-base table or its shape, another
//! inversion — must still leave every frame, and so these digests, as
//! they are; a change to the protocol, to the order of RNG draws or to
//! the codec has to re-pin them and say so here.

use ppcs_core::{Client, ProtocolConfig, Trainer};
use ppcs_crypto::Sha256;
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{
    ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_send_io, NaorPinkasOt,
    ObliviousTransfer, OtError,
};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_tests::blob_dataset;
use ppcs_transport::{duplex, Driver, Endpoint, ProtocolEngine, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives `engine` against `run_peer` on a second thread and returns its
/// result with the hex SHA-256 of everything it sent and received.
fn recorded<'a, T, E: From<TransportError>>(
    mut engine: ProtocolEngine<'a, T, E>,
    run_peer: impl FnOnce(Endpoint) + Send,
) -> (Result<T, E>, String) {
    let (ep, peer_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(move || run_peer(peer_ep));
        let mut driver = Driver::new().with_recording();
        let res = driver.drive(&ep, &mut engine);
        let transcript = driver.take_transcript().expect("recording enabled");
        let digest = Sha256::digest(&transcript.to_bytes());
        (res, digest.iter().map(|b| format!("{b:02x}")).collect())
    })
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
        digest, "f84fc2cfae8b9f32b2ba3f3babc76888350970cc3f843ece8a30b26b4647d64e",
        "the NP-768 classification transcript changed"
    );
}

#[test]
fn np2048_four_of_eight_transfer_is_pinned() {
    let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 32]).collect();
    let indices = [0usize, 3, 5, 6];
    let sel = NaorPinkasOt::new().select();

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
    assert_eq!(
        digest, "53030297be1690c52dde3653412aab4f6d067e006ff17f9ed8dd786ac5dec724",
        "the MODP-2048 4-of-8 transfer transcript changed"
    );
}
