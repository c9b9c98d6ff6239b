//! Offline/online phase-split equivalence: every protocol family run
//! with precomputed (input-independent) material must produce exactly
//! the results of its monolithic twin — same OT outputs, same OMPE
//! evaluations, same labels, same similarity metric — because the two
//! paths emit identical wire traffic. Also covers the serving-side
//! [`PrecomputePool`] (hit, miss, graceful fallback) and the
//! warm-session handshake riding [`WarmSessionCache`].

use std::collections::VecDeque;

use ppcs_core::{
    similarity_plain, similarity_request, similarity_respond_geometry_offline_io, Client,
    ModelGeometry, MultiClassClient, MultiClassMode, MultiClassTrainer, ProtocolConfig,
    ServerConfig, SimilarityConfig, SimilarityResponderOffline, Trainer, TrainerServer,
    WarmSessionCache,
};
use ppcs_math::{Algebra, FixedFpAlgebra, Fp256, MvPolynomial};
use ppcs_ompe::{
    ompe_receive_batch_offline_io, ompe_send_batch_offline_io, OmpeParams, OmpeReceiverOffline,
    OmpeSenderOffline,
};
use ppcs_ot::{
    ot_begin_receive_io, ot_begin_send_io, ot_begin_send_precomputed_io, ot_receive_io, ot_send_io,
    NaorPinkasOt, ObliviousTransfer, OtOfflineCommitment, TrustedSimOt,
};
use ppcs_svm::{Kernel, MultiClassModel, MultiDataset, SmoParams, SvmModel};
use ppcs_telemetry::MetricsRegistry;
use ppcs_tests::{blob_dataset, random_samples, rotated_model};
use ppcs_transport::{
    drive_blocking, duplex_pool, run_engine_pair, run_pair, Frame, ProtocolEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SIM: TrustedSimOt = TrustedSimOt;

/// Client-side session-close marker (crate-private in ppcs-core).
const CLS_FIN: u16 = 0x0502;

fn classification_fixture() -> (
    SvmModel,
    Trainer<FixedFpAlgebra>,
    Client<FixedFpAlgebra>,
    Vec<Vec<f64>>,
) {
    let ds = blob_dataset(3, 80, 301);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 6, 302);
    (model, trainer, client, samples)
}

/// The precomputed Naor–Pinkas sender commitment pairs with a plain
/// monolithic receiver and transfers exactly what the inline base phase
/// would: the offline path only moves *when* the exponentiation
/// happens, never what crosses the wire.
#[test]
fn ot_precomputed_sender_matches_monolithic() {
    let ot = NaorPinkasOt::fast_insecure();
    let sel = ot.select();
    let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i ^ 0x5A; 24]).collect();

    let run = |precomputed: bool| {
        let msgs = msgs.clone();
        let mut sender = ProtocolEngine::new(|io| async move {
            let mut rng = StdRng::seed_from_u64(40);
            let state = if precomputed {
                let offline = OtOfflineCommitment::precompute(sel, &mut rng);
                ot_begin_send_precomputed_io(sel, &io, &offline)?
            } else {
                ot_begin_send_io(sel, &io, &mut rng).await?
            };
            ot_send_io(sel, &state, &io, &mut rng, &msgs, 1).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            let mut rng = StdRng::seed_from_u64(41);
            let state = ot_begin_receive_io(sel, &io).await?;
            ot_receive_io(sel, &state, &io, &mut rng, 4, &[2]).await
        });
        let (s, r) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
        s.expect("sender");
        r.expect("receiver")
    };

    let monolithic = run(false);
    let offline = run(true);
    assert_eq!(monolithic, vec![msgs[2].clone()]);
    assert_eq!(offline, monolithic);
}

/// A whole OMPE batch with *both* sides running on precomputed material
/// (sender mask/cover packs, receiver Lagrange bases) still evaluates
/// the secret polynomials exactly.
#[test]
fn ompe_batch_offline_both_sides_evaluates_correctly() {
    let alg = FixedFpAlgebra::new(16);
    let sel = SIM.select();
    let params = OmpeParams::new(1, 4, 3).expect("params");
    let mut rng = StdRng::seed_from_u64(45);
    let coeffs: Vec<(Vec<f64>, f64)> = (0..3)
        .map(|_| {
            (
                (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    let alphas: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let want: Vec<f64> = coeffs
        .iter()
        .zip(&alphas)
        .map(|((w, b), a)| w.iter().zip(a).map(|(wi, ai)| wi * ai).sum::<f64>() + b)
        .collect();

    let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
    let secrets: Vec<MvPolynomial<FixedFpAlgebra>> = coeffs
        .iter()
        .map(|(w, b)| MvPolynomial::affine(&alg, &enc(w), alg.encode(*b, 2)))
        .collect();
    let alphas: Vec<Vec<Fp256>> = alphas.iter().map(|a| enc(a)).collect();
    let exact: Vec<Fp256> = secrets
        .iter()
        .zip(&alphas)
        .map(|(p, a)| p.eval(&alg, a))
        .collect();
    let sender_pack = OmpeSenderOffline::precompute(&alg, sel, &params, secrets.len(), &mut rng);
    let mut receiver_pack =
        OmpeReceiverOffline::precompute(&alg, sel, &params, 3, alphas.len(), &mut rng)
            .expect("receiver offline");

    let secrets_ref = &secrets;
    let alphas_ref = &alphas;
    let receiver_pack = &mut receiver_pack;
    let mut sender = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(46);
        ompe_send_batch_offline_io(
            &FixedFpAlgebra::new(16),
            &io,
            sel,
            &mut rng,
            secrets_ref,
            &params,
            sender_pack,
        )
        .await
    });
    let mut receiver = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(47);
        ompe_receive_batch_offline_io(
            &FixedFpAlgebra::new(16),
            &io,
            sel,
            &mut rng,
            alphas_ref,
            &params,
            receiver_pack,
        )
        .await
    });
    let (s, r) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
    s.expect("sender");
    let got = r.expect("receiver");
    assert_eq!(got, exact);
    for (g, w) in got.iter().zip(&want) {
        let g = alg.decode(g, 2);
        assert!((g - w).abs() < 1e-3, "got {g}, want {w}");
    }
}

/// Classification with trainer-side sender packs and client-side
/// receiver bases produces the labels of the monolithic session (and of
/// the plaintext model).
#[test]
fn classification_offline_material_matches_monolithic_labels() {
    let (model, trainer, client, samples) = classification_fixture();
    let sel = SIM.select();

    let mut serve = trainer.serve_engine(sel, 50);
    let mut classify = client.classify_engine(sel, 51, &samples);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    let expected = labels.expect("classify");

    let mut rng = StdRng::seed_from_u64(52);
    let material = trainer.precompute_material(sel, samples.len(), &mut rng);
    let mut offline = client
        .precompute_material(sel, &trainer.spec(), samples.len(), &mut rng)
        .expect("client offline");
    let mut serve = trainer.serve_session_engine(sel, 50, false, Some(material));
    let client_ref = &client;
    let samples_ref = &samples;
    let offline_ref = &mut offline;
    let mut classify = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(51);
        client_ref
            .classify_session_io(&io, sel, &mut rng, samples_ref, None, Some(offline_ref))
            .await
    });
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    let got = labels.expect("classify");

    for (((l, _), (e, _)), sample) in got.iter().zip(&expected).zip(&samples) {
        assert_eq!(l, e, "offline and monolithic labels must agree");
        assert_eq!(*l, model.predict(sample));
    }
}

/// Client offline material precomputed under a *different* spec is
/// silently left unused (fingerprints disagree) and the session falls
/// back to the monolithic receiver path — a mismatch costs latency,
/// never correctness.
#[test]
fn client_offline_config_mismatch_falls_back_monolithic() {
    let (model, trainer, client, samples) = classification_fixture();
    let sel = SIM.select();

    let other = rotated_model(5, 30.0, 303, Kernel::Linear);
    let other_trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &other,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    let mut rng = StdRng::seed_from_u64(53);
    let mut mismatched = client
        .precompute_material(sel, &other_trainer.spec(), samples.len(), &mut rng)
        .expect("client offline");

    let mut serve = trainer.serve_engine(sel, 54);
    let client_ref = &client;
    let samples_ref = &samples;
    let mismatched_ref = &mut mismatched;
    let mut classify = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(55);
        client_ref
            .classify_session_io(&io, sel, &mut rng, samples_ref, None, Some(mismatched_ref))
            .await
    });
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
}

/// A warm session against a cache primed with the trainer's spec skips
/// the spec exchange entirely and classifies correctly.
#[test]
fn warm_session_skips_spec_exchange() {
    let (model, trainer, client, samples) = classification_fixture();
    let sel = SIM.select();

    let cache = WarmSessionCache::new();
    cache.insert(7, trainer.spec(), trainer.epoch());
    let mut serve = trainer.serve_session_engine(sel, 60, true, None);
    let mut classify = client.classify_warm_engine(sel, 61, &samples, &cache, 7, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
}

/// A warm hello carrying a stale spec hash gets the trainer's current
/// spec re-announced in the ticket: the client adopts it, refreshes its
/// cache, and re-sends its first flight in the same session — here the
/// cached spec's dimension does not even fit the samples, so the early
/// flight never left.
#[test]
fn warm_session_with_stale_spec_adopts_reannounced_spec() {
    let (model, trainer, client, samples) = classification_fixture();
    let sel = SIM.select();

    let stale = rotated_model(5, 30.0, 304, Kernel::Linear);
    let stale_trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &stale,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    let cache = WarmSessionCache::new();
    cache.insert(7, stale_trainer.spec(), stale_trainer.epoch());

    let mut serve = trainer.serve_session_engine(sel, 62, true, None);
    let mut classify = client.classify_warm_engine(sel, 63, &samples, &cache, 7, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
    assert_eq!(
        cache.get(7),
        Some((trainer.spec(), trainer.epoch())),
        "the cache must adopt the re-announced spec"
    );
}

/// First contact through the warm API runs the cold handshake and
/// primes the cache, so the *next* session to the same peer goes warm.
#[test]
fn warm_cache_fills_on_first_contact() {
    let (model, trainer, client, samples) = classification_fixture();
    let sel = SIM.select();

    let cache = WarmSessionCache::new();
    assert!(cache.is_empty());
    // Cold first contact: the server speaks the plain HELLO/SPEC
    // handshake (warm = false) and the client-side cache fills.
    let mut serve = trainer.serve_session_engine(sel, 64, false, None);
    let mut classify = client.classify_warm_engine(sel, 65, &samples, &cache, 9, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    labels.expect("classify");
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.get(9), Some((trainer.spec(), trainer.epoch())));

    // Second session: warm on both ends, same labels.
    let mut serve = trainer.serve_session_engine(sel, 66, true, None);
    let mut classify = client.classify_warm_engine(sel, 67, &samples, &cache, 9, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
}

/// A server restart bumps the serving epoch. The next warm hello from a
/// client that cached the previous generation carries the stale epoch,
/// so the trainer re-announces its (unchanged) spec in the ticket and
/// the client's cache adopts the fresh epoch — no operator intervention,
/// no wrong labels.
#[test]
fn server_restart_epoch_bump_reannounces_to_stale_warm_clients() {
    let (model, _, client, samples) = classification_fixture();
    let cfg = ProtocolConfig::functional();
    let gen1 = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)
        .expect("trainer")
        .with_epoch(1);
    let gen2 = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)
        .expect("trainer")
        .with_epoch(2);
    let sel = SIM.select();

    // First contact against generation 1 primes the cache.
    let cache = WarmSessionCache::new();
    let mut serve = gen1.serve_session_engine(sel, 70, false, None);
    let mut classify = client.classify_warm_engine(sel, 71, &samples, &cache, 11, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    labels.expect("classify");
    assert_eq!(cache.get(11), Some((gen1.spec(), 1)));

    // The process restarts: same model, fresh epoch. The warm hello's
    // epoch is now stale, forcing a re-announce inside the ticket.
    let mut serve = gen2.serve_session_engine(sel, 72, true, None);
    let mut classify = client.classify_warm_engine(sel, 73, &samples, &cache, 11, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
    assert_eq!(
        cache.get(11),
        Some((gen2.spec(), 2)),
        "the cache must adopt the restarted trainer's epoch"
    );
}

/// The fleet's probe-driven invalidation path: a health probe observing
/// a fresh serving epoch evicts the warm entry, so the next session runs
/// the cold handshake against the restarted trainer and re-primes the
/// cache with the new generation.
#[test]
fn stale_entry_removal_forces_cold_fallback_and_reprime() {
    let (model, _, client, samples) = classification_fixture();
    let cfg = ProtocolConfig::functional();
    let gen1 = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)
        .expect("trainer")
        .with_epoch(1);
    let gen2 = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)
        .expect("trainer")
        .with_epoch(2);
    let sel = SIM.select();

    let cache = WarmSessionCache::new();
    cache.insert(12, gen1.spec(), gen1.epoch());

    // A health probe against the restarted replica reports epoch 2;
    // the client drops its generation-1 entry rather than spend a warm
    // hello that can only come back stale.
    cache.remove(12);
    assert_eq!(cache.get(12), None);

    // Cold fallback: the next session speaks the full handshake and
    // reprimes the cache with the new generation.
    let mut serve = gen2.serve_session_engine(sel, 74, false, None);
    let mut classify = client.classify_warm_engine(sel, 75, &samples, &cache, 12, None);
    let (served, labels) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    assert_eq!(served.expect("serve"), samples.len());
    for ((l, _), sample) in labels.expect("classify").iter().zip(&samples) {
        assert_eq!(*l, model.predict(sample));
    }
    assert_eq!(cache.get(12), Some((gen2.spec(), 2)));
}

/// Two clients sharing one cache race to first contact with the same
/// trainer: both find the cache cold, both run the full handshake, and
/// the cache converges to a single consistent entry — the race costs a
/// redundant spec exchange, never correctness.
#[test]
fn first_contact_race_converges_to_one_cache_entry() {
    let (model, trainer, _, _) = classification_fixture();
    let trainer = trainer.with_epoch(3);
    let server = TrainerServer::new(&trainer, ServerConfig::default());
    let (server_lanes, client_lanes) = duplex_pool(2);
    let samples = random_samples(3, 2, 309);
    let cache = WarmSessionCache::new();

    let summary = std::thread::scope(|scope| {
        let samples = &samples;
        let model = &model;
        let cache = &cache;
        let clients: Vec<_> = client_lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                scope.spawn(move || {
                    let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
                    let mut rng = StdRng::seed_from_u64(310 + i as u64);
                    let labels = client
                        .classify_batch_values_warm(lane, &SIM, &mut rng, samples, cache, 13)
                        .expect("session");
                    for ((l, _), sample) in labels.iter().zip(samples) {
                        assert_eq!(*l, model.predict(sample));
                    }
                    lane.send(Frame::encode(CLS_FIN, &0u64)).expect("fin");
                })
            })
            .collect();
        let summary = server.serve(server_lanes, &SIM, 311).expect("reactor");
        for c in clients {
            c.join().expect("client thread");
        }
        summary
    });

    assert_eq!(summary.sessions_admitted, 2);
    assert_eq!(summary.served_samples, 2 * samples.len());
    assert_eq!(
        cache.len(),
        1,
        "both racers write the same peer key; the cache must converge"
    );
    assert_eq!(cache.get(13), Some((trainer.spec(), 3)));
}

/// The serving runtime's precompute pool: sessions beyond the pool's
/// depth fall back to monolithic serving (correct answers either way),
/// and the metrics see the hits and the misses.
#[test]
fn server_pool_hits_then_falls_back_gracefully() {
    let (model, trainer, _, _) = classification_fixture();
    let registry = MetricsRegistry::new(1, "trainer");
    let config = ServerConfig {
        precompute_capacity: 1,
        precompute_masks: 8,
        ..ServerConfig::default()
    };
    let server = TrainerServer::new(&trainer, config).with_metrics(registry.clone());
    let (server_lanes, client_lanes) = duplex_pool(1);
    let samples = random_samples(3, 2, 305);
    let cache = WarmSessionCache::new();

    let summary = std::thread::scope(|scope| {
        let samples = &samples;
        let model = &model;
        let cache = &cache;
        scope.spawn(move || {
            let lane = &client_lanes[0];
            let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
            let mut rng = StdRng::seed_from_u64(306);
            for session in 0..3u64 {
                // Session 1 drains the pre-filled pack; later sessions
                // race the idle refill and may hit or miss — every one
                // must classify correctly regardless.
                let labels = client
                    .classify_batch_values_warm(lane, &SIM, &mut rng, samples, cache, 1)
                    .unwrap_or_else(|e| panic!("session {session}: {e}"));
                for ((l, _), sample) in labels.iter().zip(samples) {
                    assert_eq!(*l, model.predict(sample));
                }
            }
            lane.send(Frame::encode(CLS_FIN, &0u64)).expect("fin");
            drop(client_lanes);
        });
        server.serve(server_lanes, &SIM, 307).expect("reactor")
    });

    assert_eq!(summary.sessions_admitted, 3);
    assert_eq!(summary.served_samples, 3 * samples.len());
    assert_eq!(cache.len(), 1, "one cold handshake, then warm sessions");
    let report = registry.report();
    assert!(report.pool_filled >= 1, "the pool pre-fills one pack");
    assert!(report.pool_hits >= 1, "the first session must hit");
    assert_eq!(
        report.pool_hits + report.pool_misses,
        3,
        "every admitted session either hits or misses the pool"
    );
}

/// Multi-class: per-class rounds drawing from a precomputed pack queue
/// return the classes of the monolithic session; a queue that runs dry
/// mid-session degrades to inline serving for the remaining rounds.
#[test]
fn multiclass_offline_packs_match_monolithic() {
    let mut rng = StdRng::seed_from_u64(330);
    let centers = [(-0.7, -0.7), (0.7, -0.5), (0.0, 0.8)];
    let mut ds = MultiDataset::new(2);
    for k in 0..120 {
        let class = (k % 3) as u32;
        let (cx, cy) = centers[class as usize];
        ds.push(
            vec![cx + rng.gen_range(-0.2..0.2), cy + rng.gen_range(-0.2..0.2)],
            class,
        );
    }
    let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples: Vec<Vec<f64>> = (0..9).map(|i| ds.features(i).to_vec()).collect();
    let cfg = ProtocolConfig::functional();
    let trainer = MultiClassTrainer::new(
        FixedFpAlgebra::new(16),
        &model,
        cfg,
        MultiClassMode::SharedAmplifier,
    )
    .expect("trainer");
    let client = MultiClassClient::new(FixedFpAlgebra::new(16), cfg);
    let sel = SIM.select();

    // Only half the rounds are precomputed: the tail of the session
    // exercises the dry-queue inline fallback inside one session.
    let mut packs: VecDeque<OmpeSenderOffline> =
        trainer.precompute_packs(sel, samples.len() * 3 / 2, &mut rng);
    let trainer_ref = &trainer;
    let client_ref = &client;
    let samples_ref = &samples;
    let packs_ref = &mut packs;
    let mut serve = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(331);
        trainer_ref
            .serve_offline_io(&io, sel, &mut rng, packs_ref)
            .await
    });
    let mut classify = ProtocolEngine::new(move |io| async move {
        let mut rng = StdRng::seed_from_u64(332);
        client_ref
            .classify_batch_io(&io, sel, &mut rng, samples_ref)
            .await
    });
    let (served, got) = run_engine_pair(&mut serve, &mut classify).expect("pump");
    drop(serve);
    assert_eq!(served.expect("serve"), samples.len());
    for (sample, label) in samples.iter().zip(&got.expect("classify")) {
        assert_eq!(*label, Some(model.predict(sample)));
    }
    assert!(packs.is_empty(), "the session must consume every pack");
}

/// Similarity: the responder running entirely on precomputed material
/// yields the same triangle metric as the plain (non-private)
/// computation, against an ordinary monolithic requester.
#[test]
fn similarity_responder_offline_matches_plain_metric() {
    let ma = rotated_model(3, 25.0, 340, Kernel::Linear);
    let mb = rotated_model(3, 65.0, 341, Kernel::Linear);
    let cfg = SimilarityConfig::default();
    let want = similarity_plain(&ma, &mb, &cfg).expect("plain");

    let sel = SIM.select();
    let mut rng = StdRng::seed_from_u64(342);
    let offline =
        SimilarityResponderOffline::precompute(&FixedFpAlgebra::new(16), sel, &cfg, &mut rng)
            .expect("offline");
    let geom = ModelGeometry::from_model(&ma, &cfg).expect("geometry");
    let kernel = ma.kernel();
    let dim = ma.dim();

    let (res, got) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(343);
            let mut eng = ProtocolEngine::new(|io| async move {
                similarity_respond_geometry_offline_io(
                    &FixedFpAlgebra::new(16),
                    &io,
                    sel,
                    &mut rng,
                    &geom,
                    kernel,
                    dim,
                    &cfg,
                    offline,
                )
                .await
            });
            drive_blocking(&ep, &mut eng)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(344);
            similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM, &mut rng, &mb, &cfg)
                .expect("request")
        },
    );
    res.expect("responder");
    assert!(
        (got - want).abs() < 1e-6 * want.abs().max(1.0),
        "offline responder metric {got} must match plain {want}"
    );
}
