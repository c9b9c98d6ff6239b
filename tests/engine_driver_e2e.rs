//! End-to-end tests for the sans-I/O protocol engines: every protocol
//! (base OT, k/N OT, OMPE batch, linear/poly/RBF classification,
//! similarity) driven through [`Driver`] over both a duplex socket pair and
//! real TCP loopback, asserting outputs identical to a blocking run —
//! each party on its own thread under `drive_blocking`, through the
//! product's blocking entry points where it has them — plus transcript
//! record/replay of a full classification session.

use ppcs_core::{
    similarity_request, similarity_request_io, similarity_respond, similarity_respond_io, Client,
    ProtocolConfig, SimilarityConfig, Trainer,
};
use ppcs_crypto::DhGroup;
use ppcs_math::{Algebra, DenseAffine, FixedFpAlgebra, Fp256};
use ppcs_ompe::{ompe_receive_batch_io, ompe_send_batch_io, OmpeParams};
use ppcs_ot::{
    ot12_receive_io, ot12_send_io, ot_begin_receive_io, ot_begin_send_io, ot_receive_io,
    ot_send_io, IknpOt, NaorPinkasOt, ObliviousTransfer, OtBatchState, TrustedSimOt,
};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_tests::{blob_dataset, rotated_model, with_deadline};
use ppcs_transport::{
    drive_blocking, replay, run_pair, tcp_accept, tcp_connect, Driver, Endpoint, ProtocolEngine,
    Transcript,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

/// Runs two closures against the two ends of a real TCP loopback
/// connection — the socket analogue of [`run_pair`].
fn tcp_pair<FA, FB, RA, RB>(a: FA, b: FB) -> (RA, RB)
where
    FA: FnOnce(Endpoint) -> RA + Send,
    FB: FnOnce(Endpoint) -> RB + Send,
    RA: Send,
    RB: Send,
{
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let ha = scope.spawn(move || a(tcp_accept(&listener).expect("accept")));
        let hb = scope.spawn(move || b(tcp_connect(addr).expect("connect")));
        (ha.join().expect("side a"), hb.join().expect("side b"))
    })
}

/// Runs two closures over a duplex socket pair AND over TCP loopback,
/// asserting both transports produce the same pair of results.
fn both_transports<FA, FB, RA, RB>(a: FA, b: FB) -> (RA, RB)
where
    FA: Fn(Endpoint) -> RA + Send + Sync,
    FB: Fn(Endpoint) -> RB + Send + Sync,
    RA: Send + PartialEq + std::fmt::Debug,
    RB: Send + PartialEq + std::fmt::Debug,
{
    let in_memory = run_pair(&a, &b);
    let over_tcp = tcp_pair(&a, &b);
    assert_eq!(in_memory, over_tcp, "socket-pair and TCP results diverge");
    in_memory
}

#[test]
fn base_ot_engine_over_driver_matches_blocking() {
    with_deadline("base_ot_engine_over_driver_matches_blocking", 20, || {
        let group = DhGroup::modp_768();
        let (m0, m1) = (b"message zero".to_vec(), b"message one!".to_vec());

        let blocking = run_pair(
            |ep| {
                let (m0, m1) = (&m0, &m1);
                let mut rng = StdRng::seed_from_u64(100);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ot12_send_io(group, &io, &mut rng, m0, m1, 7).await
                });
                drive_blocking(&ep, &mut eng)
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(101);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ot12_receive_io(group, &io, &mut rng, true, 7).await
                });
                drive_blocking(&ep, &mut eng).expect("receive")
            },
        );
        blocking.0.expect("send");
        assert_eq!(blocking.1, m1);

        let (sent, got) = both_transports(
            |ep| {
                let (m0, m1) = (&m0, &m1);
                let mut rng = StdRng::seed_from_u64(100);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ot12_send_io(group, &io, &mut rng, m0, m1, 7).await
                });
                Driver::new().drive(&ep, &mut eng)
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(101);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ot12_receive_io(group, &io, &mut rng, true, 7).await
                });
                Driver::new().drive(&ep, &mut eng)
            },
        );
        sent.expect("engine send");
        assert_eq!(got.expect("engine receive"), blocking.1);
    });
}

#[test]
fn kn_ot_engines_over_driver_match_blocking() {
    with_deadline("kn_ot_engines_over_driver_match_blocking", 20, || {
        let messages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 12]).collect();
        let indices = [1usize, 4];
        let engines: [&'static dyn ObliviousTransfer; 3] = [
            &TrustedSimOt,
            {
                use std::sync::OnceLock;
                static NP: OnceLock<NaorPinkasOt> = OnceLock::new();
                NP.get_or_init(NaorPinkasOt::fast_insecure)
            },
            {
                use std::sync::OnceLock;
                static IK: OnceLock<IknpOt> = OnceLock::new();
                IK.get_or_init(IknpOt::fast_insecure)
            },
        ];
        for ot in engines {
            let sel = ot.select();
            // A single-shot transfer: no shared batch state.
            let no_batch = &OtBatchState::default();
            let blocking = run_pair(
                |ep| {
                    let (messages, mut rng) = (&messages, StdRng::seed_from_u64(7));
                    let mut eng = ProtocolEngine::new(|io| async move {
                        ot_send_io(sel, no_batch, &io, &mut rng, messages, indices.len()).await
                    });
                    drive_blocking(&ep, &mut eng)
                },
                |ep| {
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut eng = ProtocolEngine::new(|io| async move {
                        ot_receive_io(sel, no_batch, &io, &mut rng, 6, &indices).await
                    });
                    drive_blocking(&ep, &mut eng).expect("receive")
                },
            );
            blocking.0.expect("blocking send");
            assert_eq!(blocking.1[0], messages[1], "{}", ot.name());

            let (sent, got) = both_transports(
                |ep| {
                    let messages = &messages;
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut eng = ProtocolEngine::new(|io| async move {
                        let state = ot_begin_send_io(sel, &io, &mut rng).await?;
                        ot_send_io(sel, &state, &io, &mut rng, messages, indices.len()).await
                    });
                    Driver::new().drive(&ep, &mut eng)
                },
                |ep| {
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut eng = ProtocolEngine::new(|io| async move {
                        let state = ot_begin_receive_io(sel, &io).await?;
                        ot_receive_io(sel, &state, &io, &mut rng, 6, &indices).await
                    });
                    Driver::new().drive(&ep, &mut eng)
                },
            );
            sent.expect("engine send");
            assert_eq!(got.expect("engine receive"), blocking.1, "{}", ot.name());
        }
    });
}

#[test]
fn ompe_batch_engines_over_driver_match_blocking() {
    with_deadline("ompe_batch_engines_over_driver_match_blocking", 20, || {
        let alg = FixedFpAlgebra::new(16);
        let params = OmpeParams::new(1, 3, 2).expect("params");
        let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
        let affine = |w: &[f64], b: f64| DenseAffine::new(enc(w), alg.encode(b, 2));
        let secrets: Vec<DenseAffine<FixedFpAlgebra>> = vec![
            affine(&[2.0, -3.0], 0.5),
            affine(&[0.25, 1.5], -1.0),
            affine(&[-4.0, 0.0], 2.0),
        ];
        let alphas: Vec<Vec<Fp256>> = vec![enc(&[1.0, 2.0]), enc(&[-0.5, 0.25]), enc(&[3.0, -1.0])];

        let sel = SIM.select();
        let blocking = run_pair(
            |ep| {
                let (alg, secrets) = (&alg, &secrets);
                let mut rng = StdRng::seed_from_u64(31);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, &params).await
                });
                drive_blocking(&ep, &mut eng)
            },
            |ep| {
                let (alg, alphas) = (&alg, &alphas);
                let mut rng = StdRng::seed_from_u64(32);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, &params).await
                });
                drive_blocking(&ep, &mut eng).expect("receive")
            },
        );
        blocking.0.expect("blocking send");

        let (sent, got) = both_transports(
            |ep| {
                let (alg, secrets) = (&alg, &secrets);
                let mut rng = StdRng::seed_from_u64(31);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, &params).await
                });
                Driver::new().drive(&ep, &mut eng)
            },
            |ep| {
                let (alg, alphas) = (&alg, &alphas);
                let mut rng = StdRng::seed_from_u64(32);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, &params).await
                });
                Driver::new().drive(&ep, &mut eng)
            },
        );
        sent.expect("engine send");
        assert_eq!(got.expect("engine receive"), blocking.1);
    });
}

/// Blocking classification baseline: serve / classify_batch over
/// a duplex socket pair, exactly as before the engine refactor.
fn blocking_labels(
    model: &SvmModel,
    cfg: ProtocolConfig,
    samples: &[Vec<f64>],
    seed: u64,
) -> Vec<Label> {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = samples.to_vec();
    let (served, labels) = run_pair(
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
    assert_eq!(served, labels.len());
    labels
}

#[test]
fn classification_engines_over_driver_match_blocking_for_all_kernels() {
    with_deadline(
        "classification_engines_over_driver_match_blocking_for_all_kernels",
        20,
        || {
            let cases: [(Kernel, ProtocolConfig); 3] = [
                (Kernel::Linear, ProtocolConfig::default()),
                (Kernel::paper_polynomial(4), ProtocolConfig::default()),
                (
                    Kernel::Rbf { gamma: 0.4 },
                    ProtocolConfig {
                        taylor_order: 4,
                        ..ProtocolConfig::default()
                    },
                ),
            ];
            for (case_idx, (kernel, cfg)) in cases.into_iter().enumerate() {
                let seed = 200 + 10 * case_idx as u64;
                let ds = blob_dataset(4, 60, seed);
                let model = SvmModel::train(&ds, kernel, &Default::default());
                let samples: Vec<Vec<f64>> = (0..8).map(|i| ds.features(i).to_vec()).collect();
                let expected = blocking_labels(&model, cfg, &samples, seed);

                let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
                let client = Client::new(FixedFpAlgebra::new(16), cfg);
                let sel = SIM.select();
                let (served, values) = both_transports(
                    |ep| {
                        let mut eng = trainer.serve_engine(sel, seed);
                        Driver::new().drive(&ep, &mut eng)
                    },
                    |ep| {
                        let mut eng = client.classify_engine(sel, seed + 1, &samples);
                        Driver::new().drive(&ep, &mut eng)
                    },
                );
                assert_eq!(served.expect("engine serve"), samples.len());
                let labels: Vec<Label> = values
                    .expect("engine classify")
                    .into_iter()
                    .map(|(label, _)| label)
                    .collect();
                assert_eq!(labels, expected, "kernel case {case_idx}");
            }
        },
    );
}

#[test]
fn similarity_engines_over_driver_match_blocking() {
    with_deadline("similarity_engines_over_driver_match_blocking", 20, || {
        let cfg = SimilarityConfig::default();
        let model_a = rotated_model(2, 15.0, 50, Kernel::Linear);
        let model_b = rotated_model(2, 60.0, 51, Kernel::Linear);

        let expected = {
            let (ma, mb) = (model_a.clone(), model_b.clone());
            let (res, t) = run_pair(
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(60);
                    similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM, &mut rng, &ma, &cfg)
                },
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(61);
                    similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM, &mut rng, &mb, &cfg)
                        .expect("request")
                },
            );
            res.expect("respond");
            t
        };

        let sel = SIM.select();
        let (res, t) = both_transports(
            |ep| {
                let model_a = &model_a;
                let mut rng = StdRng::seed_from_u64(60);
                let mut eng = ProtocolEngine::new(|io| async move {
                    similarity_respond_io(
                        &FixedFpAlgebra::new(16),
                        &io,
                        sel,
                        &mut rng,
                        model_a,
                        &cfg,
                    )
                    .await
                });
                Driver::new().drive(&ep, &mut eng)
            },
            |ep| {
                let model_b = &model_b;
                let mut rng = StdRng::seed_from_u64(61);
                let mut eng = ProtocolEngine::new(|io| async move {
                    similarity_request_io(
                        &FixedFpAlgebra::new(16),
                        &io,
                        sel,
                        &mut rng,
                        model_b,
                        &cfg,
                    )
                    .await
                });
                Driver::new().drive(&ep, &mut eng)
            },
        );
        res.expect("engine respond");
        let got = t.expect("engine request");
        assert!(
            (got - expected).abs() < f64::EPSILON,
            "engine similarity {got} vs blocking {expected}"
        );
    });
}

#[test]
fn recorded_classification_session_replays_to_same_labels() {
    with_deadline(
        "recorded_classification_session_replays_to_same_labels",
        20,
        || {
            let cfg = ProtocolConfig::default();
            let ds = blob_dataset(3, 60, 77);
            let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
            let samples: Vec<Vec<f64>> = (0..10).map(|i| ds.features(i).to_vec()).collect();
            let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
            let client = Client::new(FixedFpAlgebra::new(16), cfg);
            let sel = SIM.select();

            // Live session over a duplex, recording the client's side.
            let (ep_t, ep_c) = ppcs_transport::duplex();
            let (served, (values, transcript)) = std::thread::scope(|scope| {
                let t = scope.spawn(|| {
                    let mut eng = trainer.serve_engine(sel, 88);
                    drive_blocking(&ep_t, &mut eng).expect("serve")
                });
                let c = scope.spawn(|| {
                    let mut driver = Driver::new().with_recording();
                    let mut eng = client.classify_engine(sel, 89, &samples);
                    let values = driver.drive(&ep_c, &mut eng).expect("classify");
                    (values, driver.take_transcript().expect("recording enabled"))
                });
                (t.join().expect("trainer"), c.join().expect("client"))
            });
            assert_eq!(served, samples.len());
            let live_labels: Vec<Label> = values.iter().map(|(label, _)| *label).collect();

            // Round-trip the transcript through bytes, then re-drive a fresh
            // client engine from the recording alone — no trainer present.
            let restored =
                Transcript::from_bytes(&transcript.to_bytes()).expect("transcript bytes");
            assert_eq!(restored, transcript);
            let mut fresh = client.classify_engine(sel, 89, &samples);
            let replayed = replay(&restored, &mut fresh).expect("replay");
            let replayed_labels: Vec<Label> = replayed.iter().map(|(label, _)| *label).collect();
            assert_eq!(replayed_labels, live_labels);
            assert_eq!(replayed, values);
        },
    );
}

#[test]
fn protocol_crates_are_sans_io() {
    // `ppcs-ot` and `ppcs-ompe` export roles over a `FrameIo` and nothing
    // that drives one: outside their tests, no code line names a
    // connection, a driver or a thread pair. A blocking caller builds a
    // `ProtocolEngine` from a role and pumps it itself.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates");
    for krate in ["ot", "ompe"] {
        let dir = format!("{root}/{krate}/src");
        for entry in std::fs::read_dir(&dir).expect("crate sources") {
            let path = entry.expect("source entry").path();
            let source = std::fs::read_to_string(&path).expect("source file");
            let code = source.split("#[cfg(test)]").next().unwrap_or_default();
            for (n, line) in code.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for name in ["Endpoint", "Lane", "Driver", "drive_blocking", "run_pair"] {
                    assert!(
                        !line.contains(name),
                        "{}:{}: `{name}` in {line:?}",
                        path.display(),
                        n + 1
                    );
                }
            }
        }
    }
}
