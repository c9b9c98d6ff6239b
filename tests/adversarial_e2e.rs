//! Adversarial serving suite: a [`TrainerServer`] facing deliberately
//! malicious peers — oversized length prefixes, wrong-round frames,
//! slow-loris stalls, and floods past capacity — must keep answering
//! every honest client correctly (labels equal to the plaintext SVM
//! baseline) while each hostile session terminates with a structured,
//! counted outcome inside its budget. Never a panic, never a hang,
//! never an unbounded allocation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ppcs_core::{Client, PpcsError, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_math::{FixedFpAlgebra, Fp256};
use ppcs_ompe::OmpeError;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_telemetry::MetricsRegistry;
use ppcs_tests::{blob_dataset, random_samples};
use ppcs_transport::{
    busy_retry_after, duplex, encode_seq, probe_health, run_pair, tcp_connect, Endpoint, Frame,
    SessionLimits, TransportError, KIND_BUSY,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wire values of the classification session kinds. `ppcs-core` keeps
/// the constants private on purpose: a hostile peer forges frames by
/// raw value, exactly as these tests do.
const CLS_HELLO: u16 = 0x0500;
const CLS_SPEC: u16 = 0x0501;
const OMPE_POINTS: u16 = 0x0400;

fn fixture() -> (SvmModel, Trainer<FixedFpAlgebra>) {
    let ds = blob_dataset(3, 80, 17);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    (model, trainer)
}

/// A tight-but-fair budget: honest single-sample sessions finish well
/// inside it, hostile stalls are cut quickly.
fn tight_config() -> ServerConfig {
    ServerConfig {
        max_sessions: 4,
        limits: SessionLimits::unlimited()
            .with_deadline(Duration::from_millis(500))
            .with_max_frames(1 << 14)
            .with_max_wire_bytes(32 << 20),
        idle_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    }
}

/// `n` independent duplex pairs (server side, client side). Unlike
/// `duplex_pool`, each pair has its own recv deadline, so per-lane
/// timeouts cannot interfere across clients.
fn lanes(n: usize) -> (Vec<Endpoint>, Vec<Endpoint>) {
    (0..n).map(|_| duplex()).unzip()
}

fn classify_honest(lane: &Endpoint, samples: &[Vec<f64>], seed: u64) -> Vec<Label> {
    let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
    let mut rng = StdRng::seed_from_u64(seed);
    client
        .classify_batch(lane, &TrustedSimOt, &mut rng, samples)
        .expect("honest session must succeed")
}

/// A HELLO claiming `u64::MAX` samples is refused by the per-session
/// batch cap before any allocation, the outcome is counted as
/// malformed, and the very same lane then serves an honest session.
#[test]
fn oversized_hello_is_rejected_and_the_lane_recovers() {
    let (model, trainer) = fixture();
    let server = TrainerServer::new(&trainer, tight_config());
    let (server_lanes, client_lanes) = lanes(1);
    let samples = random_samples(3, 2, 18);

    let summary = std::thread::scope(|scope| {
        let samples = &samples;
        let model = &model;
        scope.spawn(move || {
            let lane = &client_lanes[0];
            lane.send(Frame::encode(CLS_HELLO, &u64::MAX)).unwrap();
            let labels = classify_honest(lane, samples, 7);
            for (got, sample) in labels.iter().zip(samples) {
                assert_eq!(*got, model.predict(sample));
            }
            drop(client_lanes);
        });
        server
            .serve(&server_lanes, &TrustedSimOt, 1)
            .expect("reactor")
    });

    assert_eq!(summary.sessions_admitted, 2, "hostile + honest HELLO");
    assert_eq!(summary.malformed_rejected, 1);
    assert_eq!(summary.served_samples, samples.len());
    assert_eq!(summary.sessions_shed, 0);
}

/// Frames out of protocol order (a SPEC before any HELLO, an unknown
/// kind) are counted and skipped without poisoning the lane.
#[test]
fn wrong_round_frames_are_counted_and_skipped() {
    let (model, trainer) = fixture();
    let server = TrainerServer::new(&trainer, tight_config());
    let (server_lanes, client_lanes) = lanes(1);
    let samples = random_samples(3, 1, 19);

    let summary = std::thread::scope(|scope| {
        let samples = &samples;
        let model = &model;
        scope.spawn(move || {
            let lane = &client_lanes[0];
            // Wrong round: a SPEC with no session open.
            lane.send(Frame::encode(CLS_SPEC, &0u64)).unwrap();
            // A kind no protocol in the workspace speaks at all.
            lane.send(Frame {
                kind: 0x0BAD,
                payload: Bytes::copy_from_slice(b"noise"),
            })
            .unwrap();
            let labels = classify_honest(lane, samples, 8);
            assert_eq!(labels[0], model.predict(&samples[0]));
            drop(client_lanes);
        });
        server
            .serve(&server_lanes, &TrustedSimOt, 2)
            .expect("reactor")
    });

    assert_eq!(summary.malformed_rejected, 2);
    assert_eq!(summary.sessions_admitted, 1);
    assert_eq!(summary.served_samples, 1);
}

/// Mid-session garbage — a SPEC whose payload is a bare `u64::MAX`
/// length prefix — terminates only that session, as a structured
/// decode/protocol error, and the server keeps serving.
#[test]
fn garbage_spec_kills_only_its_own_session() {
    let (model, trainer) = fixture();
    let server = TrainerServer::new(&trainer, tight_config());
    let (server_lanes, client_lanes) = lanes(2);
    let samples = random_samples(3, 2, 20);

    let summary = std::thread::scope(|scope| {
        let samples = &samples;
        let model = &model;
        let mut client_iter = client_lanes.into_iter();
        let hostile = client_iter.next().unwrap();
        let honest = client_iter.next().unwrap();
        scope.spawn(move || {
            hostile.send(Frame::encode(CLS_HELLO, &2u64)).unwrap();
            hostile.send(Frame::encode(CLS_SPEC, &u64::MAX)).unwrap();
            // Stay connected while the server digests the garbage (a
            // vanishing peer reads as a plain disconnect instead):
            // drain whatever the trainer managed to send, then leave.
            hostile.set_recv_timeout(Some(Duration::from_millis(300)));
            while hostile.recv().is_ok() {}
            drop(hostile);
        });
        scope.spawn(move || {
            let labels = classify_honest(&honest, samples, 9);
            for (got, sample) in labels.iter().zip(samples) {
                assert_eq!(*got, model.predict(sample));
            }
            drop(honest);
        });
        server
            .serve(&server_lanes, &TrustedSimOt, 3)
            .expect("reactor")
    });

    assert_eq!(summary.malformed_rejected, 1);
    assert_eq!(summary.sessions_admitted, 2);
    assert_eq!(summary.served_samples, samples.len());
}

/// A point cloud with a zero abscissa asks the trainer for
/// `M(0) + r_a·d(y) = r_a·d(y)` — the mask vanishes — at a `y` the
/// peer picked in the clear. The trainer refuses the cloud as a typed
/// protocol error before it evaluates or transfers anything.
#[test]
fn zero_abscissa_cloud_is_refused_before_any_answer() {
    let (_, trainer) = fixture();
    let (served, ()) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(12);
            trainer.serve(&ep, &TrustedSimOt, &mut rng)
        },
        move |ep| {
            ep.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            assert_eq!(ep.recv().expect("spec").kind, CLS_SPEC);
            // The functional fixture takes N = 2 points of 3 coordinates.
            let mut cloud = BytesMut::new();
            encode_seq(&[Fp256::ZERO, Fp256::from_u64(3)], &mut cloud);
            encode_seq(&[Fp256::ONE; 6], &mut cloud);
            ep.send(Frame {
                kind: OMPE_POINTS,
                payload: cloud.freeze(),
            })
            .unwrap();
            // Stay connected while the trainer rules, so that a hang-up
            // cannot be what ends its session.
            ep.set_recv_timeout(Some(Duration::from_millis(300)));
            while ep.recv().is_ok() {}
        },
    );
    assert!(
        matches!(&served, Err(PpcsError::Ompe(OmpeError::Protocol(m))) if m.contains("abscissa")),
        "{served:?}"
    );
}

/// A slow-loris peer (HELLO, then silence on an open lane) is cut by
/// the wall-clock budget and the server frees itself long before the
/// peer lets go of the connection.
#[test]
fn slow_loris_is_cut_inside_its_deadline() {
    let (_, trainer) = fixture();
    let server = TrainerServer::new(&trainer, tight_config());
    let (server_lanes, client_lanes) = lanes(1);
    let done = AtomicBool::new(false);

    let started = Instant::now();
    let summary = std::thread::scope(|scope| {
        let done = &done;
        scope.spawn(move || {
            client_lanes[0]
                .send(Frame::encode(CLS_HELLO, &1u64))
                .unwrap();
            // Hold the lane open, sending nothing, until the server has
            // already given up on us.
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(client_lanes);
        });
        let summary = server
            .serve(&server_lanes, &TrustedSimOt, 4)
            .expect("reactor");
        done.store(true, Ordering::Release);
        summary
    });

    assert_eq!(summary.budget_exceeded, 1);
    assert_eq!(summary.sessions_admitted, 1);
    assert_eq!(summary.served_samples, 0);
    // Deadline (500ms) + idle timeout (500ms) + slack: the stalled peer
    // never dictated the server's lifetime.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server must free itself without waiting for the peer"
    );
}

/// Flooding past capacity: with every slot deterministically occupied
/// by stalling holders, further arrivals are shed with an explicit
/// `KIND_BUSY` frame — observable both as the raw frame and as the
/// typed `Busy` error out of a full client stack.
#[test]
fn flood_beyond_capacity_is_shed_with_busy() {
    let (_, trainer) = fixture();
    let config = ServerConfig {
        max_sessions: 2,
        limits: SessionLimits::unlimited().with_deadline(Duration::from_secs(10)),
        idle_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = TrainerServer::new(&trainer, config);
    let supervisor = server.supervisor();
    let (server_lanes, client_lanes) = lanes(4);
    let release = AtomicBool::new(false);

    let summary = std::thread::scope(|scope| {
        let release = &release;
        let mut client_iter = client_lanes.into_iter();
        // Two holders: open a session each, then stall to pin both
        // capacity slots for as long as the flood needs.
        for lane in client_iter.by_ref().take(2) {
            scope.spawn(move || {
                lane.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                drop(lane);
            });
        }
        let raw_lane = client_iter.next().unwrap();
        let typed_lane = client_iter.next().unwrap();

        let coordinator = scope.spawn(move || {
            let wait_start = Instant::now();
            while supervisor.active() < 2 {
                assert!(
                    wait_start.elapsed() < Duration::from_secs(5),
                    "holders must be admitted promptly"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            // Every slot is now pinned: both floods are deterministic.
            raw_lane.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            raw_lane.set_recv_timeout(Some(Duration::from_secs(5)));
            let reply = raw_lane.recv().expect("an explicit reject, not silence");
            assert_eq!(reply.kind, KIND_BUSY, "shed must be a KIND_BUSY frame");
            drop(raw_lane);

            let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
            let mut rng = StdRng::seed_from_u64(11);
            let err = client
                .classify_batch(&typed_lane, &TrustedSimOt, &mut rng, &[vec![0.1, 0.2, 0.3]])
                .expect_err("a shed session must surface as an error");
            assert!(
                format!("{err}").contains("capacity"),
                "expected the typed Busy error, got: {err}"
            );
            drop(typed_lane);
            release.store(true, Ordering::Release);
        });

        let summary = server
            .serve(&server_lanes, &TrustedSimOt, 5)
            .expect("reactor");
        coordinator.join().expect("coordinator");
        summary
    });

    assert_eq!(summary.sessions_admitted, 2, "exactly the holders");
    assert_eq!(summary.sessions_shed, 2, "both flood arrivals rejected");
    assert_eq!(summary.served_samples, 0);
}

/// A shed reply carries the server's configured retry-after hint all
/// the way out: as wire payload on the raw `KIND_BUSY` frame, and as
/// the typed `Busy { retry_after_ms }` error through a full client stack.
#[test]
fn shed_reply_hint_travels_wire_to_typed_error() {
    let (_, trainer) = fixture();
    let hint = Duration::from_millis(75);
    let config = ServerConfig {
        max_sessions: 1,
        retry_after: Some(hint),
        limits: SessionLimits::unlimited().with_deadline(Duration::from_secs(10)),
        idle_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = TrainerServer::new(&trainer, config);
    let supervisor = server.supervisor();
    let (server_lanes, client_lanes) = lanes(3);
    let release = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let release = &release;
        let mut client_iter = client_lanes.into_iter();
        let holder = client_iter.next().unwrap();
        scope.spawn(move || {
            holder.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(holder);
        });
        let raw_lane = client_iter.next().unwrap();
        let typed_lane = client_iter.next().unwrap();

        let coordinator = scope.spawn(move || {
            let wait_start = Instant::now();
            while supervisor.active() < 1 {
                assert!(
                    wait_start.elapsed() < Duration::from_secs(5),
                    "the holder must be admitted promptly"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            // The wire level: the shed frame's payload is the hint.
            raw_lane.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            raw_lane.set_recv_timeout(Some(Duration::from_secs(5)));
            let reply = raw_lane.recv().expect("an explicit reject, not silence");
            assert_eq!(reply.kind, KIND_BUSY);
            assert_eq!(
                busy_retry_after(&reply.payload),
                Some(hint.as_millis() as u64),
                "the shed frame must carry the configured hint"
            );
            drop(raw_lane);

            // The typed level: a full client stack surfaces the hint.
            let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
            let mut rng = StdRng::seed_from_u64(11);
            let err = client
                .classify_batch(&typed_lane, &TrustedSimOt, &mut rng, &[vec![0.1, 0.2, 0.3]])
                .expect_err("a shed session must surface as an error");
            let msg = format!("{err}");
            assert!(
                msg.contains("retry after 75ms"),
                "expected the hinted Busy error, got: {msg}"
            );
            drop(typed_lane);

            release.store(true, Ordering::Release);
        });

        server
            .serve(&server_lanes, &TrustedSimOt, 5)
            .expect("reactor");
        coordinator.join().expect("coordinator");
    });
}

/// The headline guarantee: honest clients interleaved with hostile
/// peers all receive exactly the plaintext SVM labels, and every
/// hostile session is accounted for.
#[test]
fn honest_clients_are_correct_amid_hostile_peers() {
    let (model, trainer) = fixture();
    let config = ServerConfig {
        max_sessions: 8,
        ..tight_config()
    };
    let server = TrainerServer::new(&trainer, config);
    let (server_lanes, client_lanes) = lanes(5);
    let sample_sets: Vec<Vec<Vec<f64>>> = (0..3).map(|i| random_samples(3, 2, 30 + i)).collect();

    let summary = std::thread::scope(|scope| {
        let model = &model;
        let sample_sets = &sample_sets;
        let mut client_iter = client_lanes.into_iter();
        for (i, lane) in client_iter.by_ref().take(3).enumerate() {
            scope.spawn(move || {
                let labels = classify_honest(&lane, &sample_sets[i], 40 + i as u64);
                for (got, sample) in labels.iter().zip(&sample_sets[i]) {
                    assert_eq!(
                        *got,
                        model.predict(sample),
                        "honest client {i} must match the plaintext baseline"
                    );
                }
                drop(lane);
            });
        }
        let wrong_round = client_iter.next().unwrap();
        scope.spawn(move || {
            wrong_round.send(Frame::encode(CLS_SPEC, &7u64)).unwrap();
            drop(wrong_round);
        });
        let oversized = client_iter.next().unwrap();
        scope.spawn(move || {
            oversized
                .send(Frame::encode(CLS_HELLO, &(u64::MAX / 2)))
                .unwrap();
            drop(oversized);
        });
        server
            .serve(&server_lanes, &TrustedSimOt, 6)
            .expect("reactor")
    });

    assert_eq!(summary.served_samples, 6, "all honest samples answered");
    assert_eq!(summary.sessions_admitted, 4, "3 honest + 1 oversized HELLO");
    assert_eq!(summary.malformed_rejected, 2);
    assert_eq!(summary.sessions_shed, 0);
}

/// Graceful drain: admission stops immediately (late arrivals get
/// `KIND_BUSY`), in-flight stragglers are cut when the grace period
/// lapses, and `serve` returns without waiting on any peer.
#[test]
fn drain_stops_admission_and_cuts_stragglers() {
    let (_, trainer) = fixture();
    let config = ServerConfig {
        max_sessions: 4,
        limits: SessionLimits::unlimited().with_deadline(Duration::from_secs(30)),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = TrainerServer::new(&trainer, config);
    let supervisor = server.supervisor();
    let observer = server.supervisor();
    let (server_lanes, client_lanes) = lanes(2);
    let release = AtomicBool::new(false);

    let started = Instant::now();
    let summary = std::thread::scope(|scope| {
        let release = &release;
        let mut client_iter = client_lanes.into_iter();
        let holder = client_iter.next().unwrap();
        let late = client_iter.next().unwrap();
        scope.spawn(move || {
            holder.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(holder);
        });
        scope.spawn(move || {
            let wait_start = Instant::now();
            while supervisor.active() < 1 {
                assert!(wait_start.elapsed() < Duration::from_secs(5));
                std::thread::sleep(Duration::from_millis(5));
            }
            supervisor.drain();
            // Admission is closed from this instant on.
            late.send(Frame::encode(CLS_HELLO, &1u64)).unwrap();
            late.set_recv_timeout(Some(Duration::from_secs(5)));
            let reply = late.recv().expect("a draining server still answers");
            assert_eq!(reply.kind, KIND_BUSY);
            drop(late);
        });
        let summary = server
            .serve(&server_lanes, &TrustedSimOt, 7)
            .expect("reactor");
        release.store(true, Ordering::Release);
        summary
    });

    assert!(observer.cut(), "the grace period must have lapsed");
    assert_eq!(summary.sessions_admitted, 1);
    assert_eq!(summary.sessions_shed, 1, "the late arrival");
    assert_eq!(
        summary.budget_exceeded, 1,
        "the straggler was cut, not abandoned"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain must not wait for the stalled peer"
    );
}

/// The CI flood: 64 concurrent clients against 8 slots. Every arrival
/// is either served correctly or shed with the typed `Busy` error —
/// nothing hangs, and the client-side and server-side tallies agree
/// frame for frame. When `PPCS_SERVER_REPORT` is set, the server's
/// telemetry report lands there as a JSON artifact.
#[test]
fn flood_of_sixty_four_clients_is_fully_accounted() {
    const CLIENTS: usize = 64;
    let (model, trainer) = fixture();
    let config = ServerConfig {
        max_sessions: 8,
        limits: SessionLimits::unlimited()
            .with_deadline(Duration::from_secs(10))
            .with_max_frames(1 << 14)
            .with_max_wire_bytes(32 << 20),
        idle_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let registry = MetricsRegistry::new(64, "trainer-server");
    let server = TrainerServer::new(&trainer, config).with_metrics(registry.clone());
    let (server_lanes, client_lanes) = lanes(CLIENTS);

    let (summary, served, shed) = std::thread::scope(|scope| {
        let model = &model;
        let handles: Vec<_> = client_lanes
            .into_iter()
            .enumerate()
            .map(|(i, lane)| {
                scope.spawn(move || {
                    let sample = vec![0.4 + (i as f64) * 0.001, 0.4, 0.4];
                    let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
                    let mut rng = StdRng::seed_from_u64(100 + i as u64);
                    let outcome = client.classify_batch(
                        &lane,
                        &TrustedSimOt,
                        &mut rng,
                        std::slice::from_ref(&sample),
                    );
                    drop(lane);
                    match outcome {
                        Ok(labels) => {
                            assert_eq!(labels[0], model.predict(&sample));
                            true
                        }
                        Err(e) => {
                            assert!(
                                format!("{e}").contains("capacity"),
                                "the only acceptable failure is a shed: {e}"
                            );
                            false
                        }
                    }
                })
            })
            .collect();
        let summary = server
            .serve(&server_lanes, &TrustedSimOt, 8)
            .expect("reactor");
        let mut served = 0u64;
        let mut shed = 0u64;
        for h in handles {
            if h.join().expect("client thread must not panic") {
                served += 1;
            } else {
                shed += 1;
            }
        }
        (summary, served, shed)
    });

    assert_eq!(served + shed, CLIENTS as u64, "every client got an answer");
    assert_eq!(summary.sessions_admitted, served);
    assert_eq!(summary.sessions_shed, shed);
    assert_eq!(summary.served_samples as u64, served);
    assert_eq!(summary.budget_exceeded, 0);
    assert_eq!(summary.malformed_rejected, 0);

    let report = registry.report();
    assert_eq!(report.sessions_admitted, summary.sessions_admitted);
    assert_eq!(report.sessions_shed, summary.sessions_shed);
    if let Ok(path) = std::env::var("PPCS_SERVER_REPORT") {
        std::fs::write(&path, report.to_json()).expect("write server report artifact");
        println!("server report written to {path}");
    }
}

/// A TCP peer that probes once and goes mute is reaped at the idle
/// timeout like one that never spoke: a `KIND_HEALTH` probe is answered
/// but must not keep an otherwise-idle connection alive — nor, by
/// consuming the reactor's one armed idle timer, keep it open forever.
#[test]
fn probing_then_mute_tcp_peer_is_reaped_at_the_idle_timeout() {
    let (_, trainer) = fixture();
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..tight_config()
    };
    let server = TrainerServer::new(&trainer, config);
    let supervisor = server.supervisor();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|scope| {
        let peers = scope.spawn(move || {
            let unprobed = tcp_connect(addr).expect("connect control");
            let probed = tcp_connect(addr).expect("connect probed");
            let status = probe_health(&probed, Duration::from_secs(5));
            // Both now say nothing. The server hanging up surfaces as
            // `Disconnected`; a connection still open after 800 ms —
            // five idle timeouts — as `Timeout`.
            let started = Instant::now();
            let ends = [&unprobed, &probed].map(|lane| {
                let left = Duration::from_millis(800).saturating_sub(started.elapsed());
                lane.set_recv_timeout(Some(left.max(Duration::from_millis(1))));
                lane.recv().expect_err("nothing is ever sent")
            });
            // Drain before judging, so a failure cannot strand the run.
            supervisor.drain();
            (status, ends)
        });
        let summary = server
            .serve_async_tcp(listener, &TrustedSimOt, 5)
            .expect("reactor");
        let (status, [unprobed, probed]) = peers.join().expect("peers");
        assert!(!status.expect("probe answered").draining);
        assert_eq!(unprobed, TransportError::Disconnected, "control reaped");
        assert_eq!(
            probed,
            TransportError::Disconnected,
            "the probed connection must be closed at the idle timeout too"
        );
        assert_eq!(summary.sessions_admitted, 0);
    });
}
