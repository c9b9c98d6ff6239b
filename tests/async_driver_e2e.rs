//! Transcript-equality suite for the epoll-based
//! [`AsyncDriver`]: every protocol family (base OT, k/N OT, OMPE batch,
//! classification, similarity) driven through the reactor must produce
//! **byte-identical transcripts** and equal results to the blocking
//! [`Driver`] oracle, including under seeded chaos schedules in the
//! link ([`faulty_pair`]). (`TrainerServer`'s admission, budget and drain behavior
//! runs on the same reactor and is covered by `adversarial_e2e`.) The
//! `#[ignore]`d stress test at the bottom multiplexes ≥1000 concurrent
//! TCP classification sessions through one reactor thread (run by the
//! CI `async-stress` job).

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ppcs_core::{
    similarity_request, similarity_request_io, similarity_respond, Client, ProtocolConfig,
    ServerConfig, SimilarityConfig, Trainer, TrainerServer,
};
use ppcs_crypto::DhGroup;
use ppcs_math::{Algebra, DenseAffine, FixedFpAlgebra, Fp256};
use ppcs_ompe::{ompe_receive_batch_io, ompe_send_batch_io, OmpeParams};
use ppcs_ot::{
    ot12_receive_io, ot12_send_io, ot_begin_receive_io, ot_begin_send_io, ot_receive_io,
    ot_send_io, IknpOt, NaorPinkasOt, ObliviousTransfer, TrustedSimOt,
};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_tests::{blob_dataset, rotated_model, with_deadline};
use ppcs_transport::{
    duplex, faulty_pair, AsyncDriver, DriveOptions, Driver, Endpoint, FaultSchedule,
    ProtocolEngine, SessionLimits, TransportError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

/// Drives the engine built by `mk_engine` twice against identical peers
/// — once under the blocking [`Driver`], once through an [`AsyncDriver`]
/// reactor — and asserts the recorded transcripts are byte-identical
/// before returning both results for family-specific comparison.
fn async_vs_blocking<'a, T, E>(
    label: &str,
    mk_engine: impl Fn() -> ProtocolEngine<'a, T, E>,
    run_peer: impl Fn(Endpoint) + Send + Sync,
) -> (T, T)
where
    T: Debug + 'a,
    E: Debug + From<TransportError> + 'a,
{
    // Blocking oracle, recording the local side.
    let (ep_b, peer_b) = duplex();
    let (blocking_res, blocking_tr) = std::thread::scope(|scope| {
        let peer = &run_peer;
        scope.spawn(move || peer(peer_b));
        let mut driver = Driver::new().with_recording();
        let mut eng = mk_engine();
        let res = driver.drive(&ep_b, &mut eng);
        (res, driver.take_transcript().expect("recording enabled"))
    });

    // The same session through the reactor.
    let (ep_a, peer_a) = duplex();
    let (async_res, async_tr) = std::thread::scope(|scope| {
        let peer = &run_peer;
        scope.spawn(move || peer(peer_a));
        let mut adrv: AsyncDriver<'_, T, E> = AsyncDriver::new();
        let id = adrv.add_endpoint(ep_a).expect("socket pair");
        adrv.attach_engine(id, mk_engine(), DriveOptions::new().with_recording());
        let mut done = adrv.drive_all();
        assert_eq!(done.len(), 1, "{label}: exactly one session");
        let (got_id, res, tr) = done.pop().expect("one result");
        assert_eq!(got_id, id, "{label}: result for the attached session");
        (res, tr.expect("recording enabled"))
    });

    assert_eq!(
        async_tr, blocking_tr,
        "{label}: async and blocking transcripts diverge"
    );
    assert_eq!(
        async_tr.to_bytes(),
        blocking_tr.to_bytes(),
        "{label}: transcript byte encodings diverge"
    );
    (
        blocking_res.expect("blocking side"),
        async_res.expect("async side"),
    )
}

#[test]
fn base_ot_transcripts_are_byte_identical() {
    with_deadline("base_ot_transcripts_are_byte_identical", 20, || {
        let group = DhGroup::modp_768();
        let (m0, m1) = (b"message zero".to_vec(), b"message one!".to_vec());

        let (blocking, asynced) = async_vs_blocking(
            "base-ot",
            || {
                ProtocolEngine::new(|io| async move {
                    let mut rng = StdRng::seed_from_u64(101);
                    ot12_receive_io(group, &io, &mut rng, true, 7).await
                })
            },
            |ep| {
                let (m0, m1) = (&m0, &m1);
                let mut rng = StdRng::seed_from_u64(100);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ot12_send_io(group, &io, &mut rng, m0, m1, 7).await
                });
                Driver::new().drive(&ep, &mut eng).expect("send");
            },
        );
        assert_eq!(blocking, b"message one!".to_vec());
        assert_eq!(asynced, blocking);
    });
}

#[test]
fn kn_ot_transcripts_are_byte_identical_for_every_engine() {
    with_deadline(
        "kn_ot_transcripts_are_byte_identical_for_every_engine",
        20,
        || {
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
                let messages = &messages;
                let (blocking, asynced) = async_vs_blocking(
                    ot.name(),
                    || {
                        ProtocolEngine::new(move |io| async move {
                            let mut rng = StdRng::seed_from_u64(8);
                            let state = ot_begin_receive_io(sel, &io).await?;
                            ot_receive_io(sel, &state, &io, &mut rng, 6, &indices).await
                        })
                    },
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(7);
                        let mut eng = ProtocolEngine::new(|io| async move {
                            let state = ot_begin_send_io(sel, &io, &mut rng).await?;
                            ot_send_io(sel, &state, &io, &mut rng, messages, indices.len()).await
                        });
                        Driver::new().drive(&ep, &mut eng).expect("send");
                    },
                );
                assert_eq!(blocking[0], messages[1], "{}", ot.name());
                assert_eq!(asynced, blocking, "{}", ot.name());
            }
        },
    );
}

#[test]
fn ompe_batch_transcripts_are_byte_identical() {
    with_deadline("ompe_batch_transcripts_are_byte_identical", 20, || {
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

        let (blocking, asynced) = async_vs_blocking(
            "ompe-batch",
            || {
                let (alg, alphas) = (&alg, &alphas);
                ProtocolEngine::new(move |io| async move {
                    let mut rng = StdRng::seed_from_u64(32);
                    ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, &params).await
                })
            },
            |ep| {
                let (alg, secrets) = (&alg, &secrets);
                let mut rng = StdRng::seed_from_u64(31);
                let mut eng = ProtocolEngine::new(|io| async move {
                    ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, &params).await
                });
                Driver::new().drive(&ep, &mut eng).expect("send");
            },
        );
        assert_eq!(asynced, blocking);
    });
}

#[test]
fn classification_transcripts_are_byte_identical_for_all_kernels() {
    with_deadline(
        "classification_transcripts_are_byte_identical_for_all_kernels",
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
                let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
                let client = Client::new(FixedFpAlgebra::new(16), cfg);
                let sel = SIM.select();

                let (blocking, asynced) = async_vs_blocking(
                    "classification",
                    || client.classify_engine(sel, seed + 1, &samples),
                    |ep| {
                        let mut eng = trainer.serve_engine(sel, seed);
                        let served = Driver::new().drive(&ep, &mut eng).expect("serve");
                        assert_eq!(served, samples.len());
                    },
                );
                let blocking_labels: Vec<Label> = blocking.iter().map(|(l, _)| *l).collect();
                let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
                assert_eq!(blocking_labels, expected, "kernel case {case_idx}");
                assert_eq!(asynced, blocking, "kernel case {case_idx}: labels/scores");
            }
        },
    );
}

#[test]
fn similarity_transcripts_are_byte_identical() {
    with_deadline("similarity_transcripts_are_byte_identical", 20, || {
        let cfg = SimilarityConfig::default();
        let model_a = rotated_model(2, 15.0, 50, Kernel::Linear);
        let model_b = rotated_model(2, 60.0, 51, Kernel::Linear);
        let sel = SIM.select();

        let expected = {
            let (ma, mb) = (model_a.clone(), model_b.clone());
            let (res, t) = ppcs_transport::run_pair(
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

        let (blocking, asynced) = async_vs_blocking(
            "similarity",
            || {
                let model_b = &model_b;
                ProtocolEngine::new(move |io| async move {
                    let mut rng = StdRng::seed_from_u64(61);
                    similarity_request_io(
                        &FixedFpAlgebra::new(16),
                        &io,
                        sel,
                        &mut rng,
                        model_b,
                        &cfg,
                    )
                    .await
                })
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(60);
                similarity_respond(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &SIM,
                    &mut rng,
                    &model_a,
                    &cfg,
                )
                .expect("respond");
            },
        );
        assert!((blocking - expected).abs() < f64::EPSILON);
        assert!(
            (asynced - blocking).abs() < f64::EPSILON,
            "async similarity {asynced} vs blocking {blocking}"
        );
    });
}

/// Both halves of a full classification session multiplexed in ONE
/// reactor on one thread — no helper threads at all — must agree with
/// the plaintext SVM baseline.
#[test]
fn both_session_halves_multiplex_in_one_reactor() {
    with_deadline("both_session_halves_multiplex_in_one_reactor", 20, || {
        let cfg = ProtocolConfig::default();
        let ds = blob_dataset(3, 60, 41);
        let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
        let samples: Vec<Vec<f64>> = (0..6).map(|i| ds.features(i).to_vec()).collect();
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let sel = SIM.select();

        let (ep_t, ep_c) = duplex();
        let mut adrv: AsyncDriver<'_, ClsOutcome, ppcs_core::PpcsError> = AsyncDriver::new();
        let trainer_id = adrv.add_endpoint(ep_t).expect("socket pair");
        let client_id = adrv.add_endpoint(ep_c).expect("socket pair");
        let (trainer, client, samples_ref) = (&trainer, &client, &samples);
        adrv.attach_engine(
            trainer_id,
            ProtocolEngine::new(move |io| async move {
                let mut rng = StdRng::seed_from_u64(88);
                trainer
                    .serve_io(&io, sel, &mut rng)
                    .await
                    .map(ClsOutcome::Served)
            }),
            DriveOptions::new(),
        );
        adrv.attach_engine(
            client_id,
            ProtocolEngine::new(move |io| async move {
                let mut rng = StdRng::seed_from_u64(89);
                client
                    .classify_batch_values_io(&io, sel, &mut rng, samples_ref)
                    .await
                    .map(ClsOutcome::Labels)
            }),
            DriveOptions::new(),
        );
        let done = adrv.drive_all();
        assert_eq!(done.len(), 2);
        for (id, res, _) in done {
            match res.expect("session") {
                ClsOutcome::Served(n) => {
                    assert_eq!(id, trainer_id);
                    assert_eq!(n, samples.len());
                }
                ClsOutcome::Labels(values) => {
                    assert_eq!(id, client_id);
                    let labels: Vec<Label> = values.iter().map(|(l, _)| *l).collect();
                    let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
                    assert_eq!(labels, expected);
                }
            }
        }
    });
}

/// A single result type so one `AsyncDriver` can multiplex trainer and
/// client engines of different output types.
#[derive(Debug)]
enum ClsOutcome {
    Served(usize),
    Labels(Vec<(Label, f64)>),
}

mod proptest_transcripts {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Full classification sessions are expensive; a handful of
        // random (seed, batch size) points is plenty on top of the
        // deterministic per-kernel cases above.
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn classification_transcripts_match_for_random_sessions(
            seed in 0u64..10_000,
            n_samples in 1usize..5,
        ) {
            let cfg = ProtocolConfig::functional();
            let ds = blob_dataset(3, 40, seed);
            let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
            let samples: Vec<Vec<f64>> =
                (0..n_samples).map(|i| ds.features(i).to_vec()).collect();
            let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
            let client = Client::new(FixedFpAlgebra::new(16), cfg);
            let sel = SIM.select();

            let (blocking, asynced) = async_vs_blocking(
                "proptest-classification",
                || client.classify_engine(sel, seed ^ 0xA5A5, &samples),
                |ep| {
                    let mut eng = trainer.serve_engine(sel, seed);
                    let served = Driver::new().drive(&ep, &mut eng).expect("serve");
                    assert_eq!(served, samples.len());
                },
            );
            prop_assert_eq!(asynced, blocking);
        }
    }
}

/// Chaos branch: seeded link fault schedules replayed through the
/// reactor obey the same trichotomy as the blocking chaos sweep — any
/// completed session carries the clean-run labels, lossless schedules
/// must complete, and nothing hangs or panics.
#[test]
fn seeded_fault_schedules_replay_through_the_reactor() {
    with_deadline(
        "seeded_fault_schedules_replay_through_the_reactor",
        20,
        || {
            const CHAOS_DEADLINE: Duration = Duration::from_millis(200);
            let cfg = ProtocolConfig::functional();
            let ds = blob_dataset(3, 40, 17);
            let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
            let samples: Vec<Vec<f64>> = (0..2).map(|i| ds.features(i).to_vec()).collect();
            let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
            let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
            let sel = SIM.select();

            let mut completed = 0u32;
            for seed in 0..24u64 {
                let schedule = FaultSchedule::seeded(seed);
                let (server_lane, client_lane) = if seed.is_multiple_of(2) {
                    faulty_pair(schedule.clone(), FaultSchedule::none())
                } else {
                    faulty_pair(FaultSchedule::none(), schedule.clone())
                };
                client_lane.set_recv_timeout(Some(CHAOS_DEADLINE));

                let (server_res, client_res) = std::thread::scope(|scope| {
                    let samples = &samples;
                    let hc = scope.spawn(move || {
                        let client = Client::new(FixedFpAlgebra::new(16), cfg);
                        let mut rng = StdRng::seed_from_u64(900 + seed);
                        let r = client.classify_batch(&client_lane, &SIM, &mut rng, samples);
                        drop(client_lane);
                        r
                    });
                    // The trainer side runs through the reactor, with the chaos
                    // schedule injecting in the link on the way in/out. The
                    // per-receive deadline comes from the reactor's deadlines.
                    let mut adrv: AsyncDriver<'_, usize, ppcs_core::PpcsError> = AsyncDriver::new();
                    let id = adrv.add_endpoint(server_lane).expect("socket pair");
                    adrv.attach_engine(
                        id,
                        trainer.serve_engine(sel, seed),
                        DriveOptions::new().with_timeout(CHAOS_DEADLINE),
                    );
                    let mut done = adrv.drive_all();
                    let (_, res, _) = done.pop().expect("one session");
                    drop(adrv);
                    (res, hc.join().expect("client must not panic"))
                });

                if let Ok(served) = &server_res {
                    assert_eq!(*served, samples.len(), "seed {seed}: wrong served count");
                }
                if let Ok(labels) = &client_res {
                    assert_eq!(labels, &expected, "seed {seed}: wrong labels under chaos");
                }
                if schedule.is_lossless() {
                    assert!(
                        server_res.is_ok() && client_res.is_ok(),
                        "seed {seed}: lossless schedule ({schedule:?}) must complete, \
                     got server={server_res:?} client={client_res:?}"
                    );
                }
                if server_res.is_ok() && client_res.is_ok() {
                    completed += 1;
                }
            }
            println!("chaos-through-reactor: {completed}/24 sessions completed cleanly");
        },
    );
}

/// The headline scale claim: ≥1000 concurrent TCP classification
/// sessions multiplexed through ONE server reactor thread (and one
/// client reactor thread), every label correct, every session
/// accounted. Run by the CI `async-stress` job:
/// `cargo test --release -p ppcs-tests --test async_driver_e2e -- --ignored`.
#[test]
#[ignore = "1000-session stress run; exercised by the CI async-stress job"]
fn thousand_concurrent_tcp_sessions_on_one_reactor_thread() {
    with_deadline(
        "thousand_concurrent_tcp_sessions_on_one_reactor_thread",
        600,
        || {
            const SESSIONS: usize = 1000;
            let cfg = ProtocolConfig::functional();
            let ds = blob_dataset(3, 60, 17);
            let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
            let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
            let client = Client::new(FixedFpAlgebra::new(16), cfg);
            let sel = SIM.select();

            let config = ServerConfig {
                max_sessions: 2 * SESSIONS,
                limits: SessionLimits::unlimited()
                    .with_deadline(Duration::from_secs(120))
                    .with_max_frames(1 << 16)
                    .with_max_wire_bytes(64 << 20),
                idle_timeout: Duration::from_secs(120),
                drain_deadline: Duration::from_millis(500),
                ..ServerConfig::default()
            };
            let registry = ppcs_telemetry::MetricsRegistry::new(1000, "trainer-server");
            let recorder = ppcs_telemetry::FlightRecorder::new(4096);
            let scrape_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind metrics");
            let scrape_addr = scrape_listener.local_addr().expect("metrics addr");
            let server = TrainerServer::new(&trainer, config)
                .with_metrics(registry.clone())
                .with_flight_recorder(recorder.clone())
                .with_metrics_endpoint(scrape_listener);
            let supervisor = server.supervisor();
            let peak_watch = server.supervisor();

            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");

            let sample = vec![0.4f64, 0.4, 0.4];
            let stop_watch = AtomicBool::new(false);
            let (summary, peak_active, mid_run_scrape) = std::thread::scope(|scope| {
                let server_thread = scope.spawn(|| {
                    server
                        .serve_async_tcp(listener, &SIM, 4242)
                        .expect("reactor")
                });
                let stop = &stop_watch;
                let watcher = scope.spawn(move || {
                    // Track the peak concurrency, and scrape /metrics once the
                    // fleet is at scale — live, from the reactor thread that is
                    // multiplexing all thousand sessions.
                    let mut peak = 0usize;
                    let mut scrape = None;
                    while !stop.load(Ordering::Acquire) {
                        peak = peak.max(peak_watch.active());
                        if scrape.is_none() && peak >= SESSIONS / 2 {
                            scrape = Some(ppcs_tests::http_get(scrape_addr, "/metrics"));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (peak, scrape)
                });

                // The whole client fleet runs in one reactor of its own: every
                // engine is attached before the first poll, so all SESSIONS
                // sessions are in flight together.
                let mut cdrv: AsyncDriver<'_, Vec<(Label, f64)>, ppcs_core::PpcsError> =
                    AsyncDriver::new();
                let samples = std::slice::from_ref(&sample);
                for i in 0..SESSIONS {
                    let stream = std::net::TcpStream::connect(addr).expect("connect");
                    let id = cdrv.add_tcp(stream).expect("register");
                    cdrv.attach_engine(
                        id,
                        client.classify_engine(sel, 5000 + i as u64, samples),
                        DriveOptions::new().with_timeout(Duration::from_secs(120)),
                    );
                }
                let done = cdrv.drive_all();
                assert_eq!(done.len(), SESSIONS);
                let expected = model.predict(&sample);
                for (id, res, _) in done {
                    let values = res.unwrap_or_else(|e| panic!("session {id} failed: {e:?}"));
                    assert_eq!(values[0].0, expected, "session {id}: wrong label");
                }
                drop(cdrv); // closes every client socket
                supervisor.drain();
                stop.store(true, Ordering::Release);
                let (peak, scrape) = watcher.join().expect("watcher");
                (server_thread.join().expect("server thread"), peak, scrape)
            });

            assert_eq!(summary.sessions_admitted, SESSIONS as u64);
            assert_eq!(summary.served_samples, SESSIONS);
            assert_eq!(summary.sessions_shed, 0);
            assert_eq!(summary.budget_exceeded, 0);
            assert_eq!(summary.malformed_rejected, 0);
            // All engines are attached client-side before the first poll, so the
            // fleets progress in lockstep: the server must have held (nearly)
            // every session open at once.
            assert!(
                peak_active >= SESSIONS / 2,
                "expected ≥{} concurrent sessions on the reactor, saw peak {peak_active}",
                SESSIONS / 2
            );
            println!("peak concurrent sessions on one reactor thread: {peak_active}");

            let report = registry.report();
            assert_eq!(report.sessions_admitted, SESSIONS as u64);
            assert!(report.reactor_wakeups > 0, "reactor counters must flow");
            assert!(
                report
                    .reactor_health
                    .iter()
                    .any(|h| h.name == "loop_lag_ns" && h.count > 0),
                "reactor health histograms must flow under load"
            );

            // The mid-run scrape happened while ≥500 sessions were in flight on
            // the very thread that rendered it.
            let scrape = mid_run_scrape.expect("scraped /metrics at peak concurrency");
            assert!(
                scrape.starts_with("HTTP/1.0 200 OK\r\n"),
                "mid-run scrape status: {scrape:?}"
            );
            assert!(
                scrape.contains("ppcs_sessions_admitted_total"),
                "mid-run scrape carries the serving counters"
            );
            assert!(
                scrape.contains("ppcs_conn_info{"),
                "mid-run scrape carries the live session table"
            );

            // Flight-recorder post-mortem: every admission is on the tape (the
            // ring holds 4096 events, enough for the full run), and the CI job
            // uploads the dump as an artifact.
            let admissions = recorder
                .snapshot()
                .iter()
                .filter(|e| e.kind == ppcs_telemetry::FlightEventKind::Admitted)
                .count() as u64;
            assert!(
                admissions + recorder.dropped() >= SESSIONS as u64,
                "every admission must have hit the flight-recorder tape \
             (saw {admissions}, dropped {})",
                recorder.dropped()
            );
            if let Ok(path) = std::env::var("PPCS_SERVER_REPORT") {
                std::fs::write(&path, report.to_json()).expect("write server report artifact");
                println!("server report written to {path}");
            }
        },
    );
}
