//! Chaos soak harness: seeded fault schedules (delay, stall, cut — the
//! faults a stream can have) on one side of a connection, swept over
//! every protocol family, asserting the resilience trichotomy — each
//! session either completes with the correct value, or both parties
//! terminate with a structured error. Never a hang, never a panic, never
//! a wrong answer. Every family also completes when one of its frames
//! arrives in two pieces, further apart than a budgeted blocking
//! session's wait slices.
//!
//! The same faults run on the client's side of a real TCP connection to
//! a reactor `TrainerServer`, whose side is a plain socket. Also
//! exercises graceful degradation of the parallel classification
//! pipeline when a lane dies. A session never outlives its lane; failing
//! over to another replica is `fleet_e2e`'s subject.

use std::fmt::Debug;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use ppcs_core::{
    similarity_request_io, similarity_respond_io, Client, PpcsError, ProtocolConfig, ServerConfig,
    SimilarityConfig, Trainer, TrainerServer,
};
use ppcs_crypto::DhGroup;
use ppcs_math::{Algebra, DenseAffine, FixedFpAlgebra, Fp256};
use ppcs_ompe::{ompe_receive_batch_io, ompe_send_batch_io, OmpeError, OmpeParams};
use ppcs_ot::{
    ot12_receive_io, ot12_send_io, ot_begin_receive_io, ot_begin_send_io, ot_receive_io,
    ot_send_io, ObliviousTransfer, OtError, TrustedSimOt,
};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_tests::{blob_dataset, random_samples, rotated_model, DrainOnUnwind};
use ppcs_transport::{
    drive_blocking, duplex_pool, faulty_link, faulty_pair, run_pair, tcp_accept, tcp_connect,
    AsyncDriver, DriveOptions, Driver, Endpoint, FaultKind, FaultSchedule, ProtocolEngine,
    SessionLimits, TransportError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

/// Per-session recv deadline under chaos: long enough for a healthy
/// session, short enough that a stalled one resolves quickly.
const CHAOS_DEADLINE: Duration = Duration::from_millis(200);

/// Seeds per family; five families make the sweep cover
/// `5 * SEEDS_PER_FAMILY = 220` distinct fault schedules.
const SEEDS_PER_FAMILY: u64 = 44;

fn err_string<E: Debug>(e: E) -> String {
    format!("{e:?}")
}

/// An endpoint pair whose link applies the seeded schedule to the sends
/// of the side picked by `seed % 2`; the other direction is clean.
fn chaos_lanes(seed: u64) -> (Endpoint, Endpoint, FaultSchedule) {
    let schedule = FaultSchedule::seeded(seed);
    let (a, b) = if seed.is_multiple_of(2) {
        faulty_pair(schedule.clone(), FaultSchedule::none())
    } else {
        faulty_pair(FaultSchedule::none(), schedule.clone())
    };
    a.set_recv_timeout(Some(CHAOS_DEADLINE));
    b.set_recv_timeout(Some(CHAOS_DEADLINE));
    (a, b, schedule)
}

/// Runs one session of a family over fault-free lanes to establish the
/// expected (correct) values for the sweep.
fn clean_run<RA, RB, FA, FB>(run_a: &FA, run_b: &FB) -> (RA, RB)
where
    FA: Fn(&Endpoint) -> Result<RA, String> + Sync,
    FB: Fn(&Endpoint) -> Result<RB, String> + Sync,
    RA: Send,
    RB: Send,
{
    let (la, lb) = faulty_pair(FaultSchedule::none(), FaultSchedule::none());
    la.set_recv_timeout(Some(Duration::from_secs(10)));
    lb.set_recv_timeout(Some(Duration::from_secs(10)));
    let (ra, rb) = std::thread::scope(|scope| {
        let ha = scope.spawn(move || run_a(&la));
        let hb = scope.spawn(move || run_b(&lb));
        (ha.join().expect("side A"), hb.join().expect("side B"))
    });
    (ra.expect("clean run side A"), rb.expect("clean run side B"))
}

/// The sweep core: for every seed in `base..base + count`, runs one
/// session of the family under that seed's fault schedule and asserts
/// the trichotomy. Joining both threads proves no hang or panic (every
/// receive is bounded by [`CHAOS_DEADLINE`]); any `Ok` must carry the
/// clean-run value; lossless schedules must complete on both sides.
/// Returns how many sessions completed and how many failed on both
/// sides, for [`assert_both_branches`].
fn chaos_sweep<RA, RB, FA, FB>(
    family: &str,
    base: u64,
    count: u64,
    expected_a: &RA,
    expected_b: &RB,
    run_a: FA,
    run_b: FB,
) -> (u64, u64)
where
    FA: Fn(&Endpoint) -> Result<RA, String> + Sync,
    FB: Fn(&Endpoint) -> Result<RB, String> + Sync,
    RA: PartialEq + Debug + Send,
    RB: PartialEq + Debug + Send,
{
    let (mut completed, mut both_failed) = (0u64, 0u64);
    for seed in base..base + count {
        let (la, lb, schedule) = chaos_lanes(seed);
        let (ra, rb) = std::thread::scope(|scope| {
            // Each thread owns its lane and drops it when the session
            // ends, so a failed party's peer sees a prompt disconnect
            // instead of waiting out its full deadline.
            let run_a = &run_a;
            let run_b = &run_b;
            let ha = scope.spawn(move || {
                let r = run_a(&la);
                drop(la);
                r
            });
            let hb = scope.spawn(move || {
                let r = run_b(&lb);
                drop(lb);
                r
            });
            (
                ha.join().expect("side A must not panic"),
                hb.join().expect("side B must not panic"),
            )
        });
        if let Ok(va) = &ra {
            assert_eq!(
                va, expected_a,
                "{family}: seed {seed} completed side A with a wrong value"
            );
        }
        if let Ok(vb) = &rb {
            assert_eq!(
                vb, expected_b,
                "{family}: seed {seed} completed side B with a wrong value"
            );
        }
        if schedule.is_lossless() {
            assert!(
                ra.is_ok() && rb.is_ok(),
                "{family}: lossless schedule (seed {seed}, {schedule:?}) must complete, \
                 got A={ra:?} B={rb:?}"
            );
        }
        if ra.is_ok() && rb.is_ok() {
            completed += 1;
        }
        if ra.is_err() && rb.is_err() {
            both_failed += 1;
        }
    }
    println!(
        "{family}: {completed}/{count} chaotic sessions completed cleanly, \
         {both_failed} failed on both sides"
    );
    (completed, both_failed)
}

/// A fixed-seed sweep must meet both branches of the trichotomy — at
/// least one session completes and at least one fails on both sides —
/// or it passes vacuously. (The randomized sweep draws its seeds afresh
/// in CI, where either count may legitimately be zero.)
fn assert_both_branches(family: &str, (completed, both_failed): (u64, u64)) {
    assert!(completed > 0, "{family}: no session completed");
    assert!(both_failed > 0, "{family}: no schedule failed both sides");
}

/// Two connected endpoints, over a socket pair or over TCP, whose link
/// applies `schedule` to what the first (`a_sends`) or the second sends.
fn split_lanes(over_tcp: bool, a_sends: bool, schedule: FaultSchedule) -> (Endpoint, Endpoint) {
    let (a, b) = match (over_tcp, a_sends) {
        (false, true) => return faulty_pair(schedule, FaultSchedule::none()),
        (false, false) => return faulty_pair(FaultSchedule::none(), schedule),
        (true, _) => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let a = tcp_connect(listener.local_addr().expect("addr")).expect("connect");
            (a, tcp_accept(&listener).expect("accept"))
        }
    };
    if a_sends {
        (faulty_link(a, schedule), b)
    } else {
        (a, faulty_link(b, schedule))
    }
}

/// A family's session must come out oracle-equal when one of its first
/// four wire frames, either way, arrives as its header and half its
/// payload and 30 ms later the rest: past the 20 ms slices in which role
/// A waits on a budgeted blocking driver, while role B runs on the
/// reactor. Over a socket pair and over TCP.
fn split_frames_arrive_whole<'e, A, EA, B, EB>(
    family: &str,
    expected_a: &A,
    expected_b: &B,
    make_a: &(impl Fn() -> ProtocolEngine<'e, A, EA> + Sync),
    make_b: &impl Fn() -> ProtocolEngine<'e, B, EB>,
) where
    A: PartialEq + Debug + Send,
    B: PartialEq + Debug,
    EA: Debug + Send + From<TransportError>,
    EB: Debug + From<TransportError>,
{
    for over_tcp in [false, true] {
        for seq in 0..4 {
            for a_sends in [true, false] {
                let schedule = FaultSchedule::single(seq, FaultKind::Split);
                let (a, b) = split_lanes(over_tcp, a_sends, schedule);
                let (ra, rb) = std::thread::scope(|scope| {
                    let blocking = scope.spawn(move || {
                        let limits =
                            SessionLimits::unlimited().with_deadline(Duration::from_secs(5));
                        Driver::new().with_limits(limits).drive(&a, &mut make_a())
                    });
                    let mut reactor = AsyncDriver::new();
                    let conn = reactor.add_endpoint(b).expect("adopt the lane");
                    let opts = DriveOptions::new().with_timeout(Duration::from_secs(5));
                    reactor.attach_engine(conn, make_b(), opts);
                    let (_, rb, _) = reactor.drive_all().pop().expect("one session");
                    // Keep the reactor turning until the blocking side has
                    // read everything it queued.
                    while !blocking.is_finished() {
                        reactor.poll(Duration::from_millis(1));
                    }
                    (blocking.join().expect("side A must not panic"), rb)
                });
                let case = format!(
                    "{family}: frame {seq} from side {} split, over {}",
                    if a_sends { "A" } else { "B" },
                    if over_tcp { "TCP" } else { "a socket pair" }
                );
                assert_eq!(ra.as_ref().ok(), Some(expected_a), "{case}: {ra:?}");
                assert_eq!(rb.as_ref().ok(), Some(expected_b), "{case}: {rb:?}");
            }
        }
    }
}

#[test]
fn chaos_base_ot_trichotomy() {
    let group = DhGroup::modp_768();
    let (m0, m1) = (b"message zero".to_vec(), b"message one!".to_vec());
    let send = || {
        let (m0, m1) = (&m0, &m1);
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(100);
            ot12_send_io(group, &io, &mut rng, m0, m1, 7).await
        })
    };
    let receive = || {
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(101);
            ot12_receive_io(group, &io, &mut rng, true, 7).await
        })
    };
    let run_a = |lane: &Endpoint| drive_blocking(lane, &mut send()).map_err(err_string);
    let run_b = |lane: &Endpoint| drive_blocking(lane, &mut receive()).map_err(err_string);
    let (ea, eb) = clean_run(&run_a, &run_b);
    assert_eq!(eb, m1);
    let outcomes = chaos_sweep("base_ot", 1000, SEEDS_PER_FAMILY, &ea, &eb, run_a, run_b);
    assert_both_branches("base_ot", outcomes);
    split_frames_arrive_whole("base_ot", &ea, &eb, &send, &receive);
}

/// A 1-out-of-2 ideal transfer is one frame each way, and a schedule's
/// faults fall below sequence 24: three transfers in turn under one
/// state give the faults frames to land on.
const KN_TRANSFERS: usize = 3;

#[test]
fn chaos_kn_ot_trichotomy() {
    let messages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 12]).collect();
    let indices = [1usize, 4];
    let sel = SIM.select();
    let send = || {
        let messages = &messages;
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(7);
            let state = ot_begin_send_io(sel, &io, &mut rng).await?;
            for _ in 0..KN_TRANSFERS {
                ot_send_io(sel, &state, &io, &mut rng, messages, indices.len()).await?;
            }
            Ok::<_, OtError>(())
        })
    };
    let receive = || {
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(8);
            let state = ot_begin_receive_io(sel, &io).await?;
            let mut got = Vec::with_capacity(KN_TRANSFERS);
            for _ in 0..KN_TRANSFERS {
                got.push(ot_receive_io(sel, &state, &io, &mut rng, 6, &indices).await?);
            }
            Ok::<_, OtError>(got)
        })
    };
    let run_a = |lane: &Endpoint| drive_blocking(lane, &mut send()).map_err(err_string);
    let run_b = |lane: &Endpoint| drive_blocking(lane, &mut receive()).map_err(err_string);
    let (ea, eb) = clean_run(&run_a, &run_b);
    assert!(eb.iter().all(|got| got[0] == messages[1]));
    let outcomes = chaos_sweep("kn_ot", 2000, SEEDS_PER_FAMILY, &ea, &eb, run_a, run_b);
    assert_both_branches("kn_ot", outcomes);
    split_frames_arrive_whole("kn_ot", &ea, &eb, &send, &receive);
}

#[test]
fn chaos_ompe_batch_trichotomy() {
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
    let send = || {
        let (alg, secrets) = (&alg, &secrets);
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(31);
            ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, &params).await
        })
    };
    let receive = || {
        let (alg, alphas) = (&alg, &alphas);
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(32);
            ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, &params).await
        })
    };
    let run_a = |lane: &Endpoint| drive_blocking(lane, &mut send()).map_err(err_string);
    let run_b = |lane: &Endpoint| drive_blocking(lane, &mut receive()).map_err(err_string);
    let (ea, eb) = clean_run(&run_a, &run_b);
    let outcomes = chaos_sweep("ompe_batch", 3000, SEEDS_PER_FAMILY, &ea, &eb, run_a, run_b);
    assert_both_branches("ompe_batch", outcomes);
    split_frames_arrive_whole("ompe_batch", &ea, &eb, &send, &receive);
}

#[test]
fn chaos_classification_trichotomy() {
    let ds = blob_dataset(3, 80, 21);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 4, 33);
    let sel = SIM.select();
    let serve = || trainer.serve_engine(sel, 40);
    let classify = || client.classify_engine(sel, 41, &samples);
    let run_a = |lane: &Endpoint| drive_blocking(lane, &mut serve()).map_err(err_string);
    let run_b = |lane: &Endpoint| drive_blocking(lane, &mut classify()).map_err(err_string);
    let (ea, eb) = clean_run(&run_a, &run_b);
    assert_eq!(ea, samples.len());
    let outcomes = chaos_sweep(
        "classification",
        4000,
        SEEDS_PER_FAMILY,
        &ea,
        &eb,
        run_a,
        run_b,
    );
    assert_both_branches("classification", outcomes);
    split_frames_arrive_whole("classification", &ea, &eb, &serve, &classify);
}

#[test]
fn chaos_similarity_trichotomy() {
    let cfg = SimilarityConfig::default();
    let model_a = rotated_model(2, 15.0, 4, Kernel::Linear);
    let model_b = rotated_model(2, 60.0, 5, Kernel::Linear);
    let sel = SIM.select();
    let respond = || {
        let (model_a, cfg) = (&model_a, &cfg);
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(60);
            similarity_respond_io(&FixedFpAlgebra::new(16), &io, sel, &mut rng, model_a, cfg).await
        })
    };
    let request = || {
        let (model_b, cfg) = (&model_b, &cfg);
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(61);
            similarity_request_io(&FixedFpAlgebra::new(16), &io, sel, &mut rng, model_b, cfg).await
        })
    };
    let run_a = |lane: &Endpoint| drive_blocking(lane, &mut respond()).map_err(err_string);
    let run_b = |lane: &Endpoint| drive_blocking(lane, &mut request()).map_err(err_string);
    let (ea, eb) = clean_run(&run_a, &run_b);
    let outcomes = chaos_sweep("similarity", 5000, SEEDS_PER_FAMILY, &ea, &eb, run_a, run_b);
    assert_both_branches("similarity", outcomes);
    split_frames_arrive_whole("similarity", &ea, &eb, &respond, &request);
}

/// A randomized lane of the sweep: the base seed comes from
/// `PPCS_CHAOS_SEED` (set by CI to a fresh value per run, printed here
/// so a failure is reproducible) and falls back to a fixed constant for
/// plain local runs.
#[test]
fn chaos_randomized_seed_sweep() {
    let base: u64 = std::env::var("PPCS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE);
    println!("chaos_randomized_seed_sweep: base seed = {base} (set PPCS_CHAOS_SEED to reproduce)");

    let ds = blob_dataset(3, 80, 55);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 3, 56);
    let sel = SIM.select();
    let run_a = |lane: &Endpoint| {
        let mut eng = trainer.serve_engine(sel, 57);
        drive_blocking(lane, &mut eng).map_err(err_string)
    };
    let run_b = |lane: &Endpoint| {
        let mut eng = client.classify_engine(sel, 58, &samples);
        drive_blocking(lane, &mut eng).map_err(err_string)
    };
    let (ea, eb) = clean_run(&run_a, &run_b);
    chaos_sweep("randomized", base, 16, &ea, &eb, run_a, run_b);
}

fn classification_fixture() -> (
    Trainer<FixedFpAlgebra>,
    Client<FixedFpAlgebra>,
    Vec<Vec<f64>>,
) {
    let ds = blob_dataset(3, 80, 91);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 5, 92);
    (trainer, client, samples)
}

/// Graceful degradation in the parallel pipeline: one of three client
/// lanes is dead from the first frame; its chunk must be requeued onto
/// the survivors and every sample still classified correctly.
#[test]
fn parallel_classification_degrades_around_a_dead_lane() {
    let ds = blob_dataset(3, 80, 61);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 6, 62);

    // Sequential baseline over one clean lane.
    let expected = {
        let trainer = &trainer;
        let client = &client;
        let samples = samples.clone();
        let (served, labels) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(63);
                trainer.serve(&ep, &SIM, &mut rng).expect("serve")
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(64);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples)
                    .expect("classify")
            },
        );
        assert_eq!(served, labels.len());
        labels
    };

    // The trainer's lanes are plain; the client's lane 1 is cut before
    // its very first frame.
    let (t_lanes, c_eps) = duplex_pool(3);
    let c_lanes: Vec<Endpoint> = c_eps
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let schedule = if i == 1 {
                FaultSchedule::single(0, FaultKind::Cut)
            } else {
                FaultSchedule::none()
            };
            faulty_link(ep, schedule)
        })
        .collect();
    c_lanes[0].set_recv_timeout(Some(Duration::from_secs(5)));

    let server = TrainerServer::new(&trainer, ServerConfig::default());
    let (summary, labels) = std::thread::scope(|scope| {
        let server = &server;
        let t = scope.spawn(move || server.serve(t_lanes, &SIM, 65));
        let client = &client;
        let samples = &samples;
        let c = scope.spawn(move || {
            let labels = client.classify_batch_parallel(&c_lanes, &SIM, 66, samples);
            // Dropping the lanes here disconnects the trainer's side so
            // its lane loops terminate promptly.
            drop(c_lanes);
            labels
        });
        let labels = c.join().expect("client");
        let summary = t.join().expect("trainer");
        (summary, labels)
    });

    assert_eq!(
        labels.expect("classification succeeds despite the dead lane"),
        expected
    );
    // Every sample was served by some surviving lane.
    assert_eq!(summary.expect("serve").served_samples, expected.len());
}

/// Chaos and session budgets together: with every driver also enforcing
/// a [`SessionLimits`] envelope, the resilience trichotomy must keep
/// holding under seeded fault schedules — and, critically, the budget
/// machinery must never false-positive: a lossless schedule still
/// completes (with the correct values) inside a generous budget.
#[test]
fn chaos_with_session_budgets_keeps_the_trichotomy() {
    let (trainer, client, samples) = classification_fixture();
    let sel = SIM.select();
    let budget = || {
        SessionLimits::unlimited()
            .with_deadline(Duration::from_secs(5))
            .with_max_frames(1 << 14)
            .with_max_wire_bytes(64 << 20)
    };
    let run_a = |lane: &Endpoint| {
        let mut eng = trainer.serve_engine(sel, 170);
        Driver::new()
            .with_limits(budget())
            .with_timeout(CHAOS_DEADLINE)
            .drive(lane, &mut eng)
            .map_err(err_string)
    };
    let run_b = |lane: &Endpoint| {
        let mut eng = client.classify_engine(sel, 171, &samples);
        Driver::new()
            .with_limits(budget())
            .with_timeout(CHAOS_DEADLINE)
            .drive(lane, &mut eng)
            .map_err(err_string)
    };
    let (ea, eb) = clean_run(&run_a, &run_b);
    assert_eq!(ea, samples.len());
    let outcomes = chaos_sweep("budgeted", 6000, 24, &ea, &eb, run_a, run_b);
    assert_both_branches("budgeted", outcomes);
}

/// The transport failure under a classification error, if any.
fn transport_cause(e: &PpcsError) -> Option<&TransportError> {
    match e {
        PpcsError::Transport(t)
        | PpcsError::Ompe(OmpeError::Transport(t))
        | PpcsError::Ompe(OmpeError::Ot(OtError::Transport(t))) => Some(t),
        _ => None,
    }
}

/// A server at capacity answers with `KIND_BUSY` from a plain lane; the
/// client behind a faulty link reads it like any other frame and gets
/// the typed `Busy` error.
#[test]
fn a_faulty_client_shed_at_capacity_gets_busy() {
    let (trainer, client, samples) = classification_fixture();
    let server = TrainerServer::new(
        &trainer,
        ServerConfig {
            max_sessions: 0,
            ..ServerConfig::default()
        },
    );
    let (t_lanes, mut c_eps) = duplex_pool(1);
    let lane = faulty_link(c_eps.remove(0), FaultSchedule::none());
    lane.set_recv_timeout(Some(Duration::from_secs(5)));
    let (summary, res) = std::thread::scope(|scope| {
        let server = &server;
        let t = scope.spawn(move || server.serve(t_lanes, &SIM, 3));
        let mut rng = StdRng::seed_from_u64(4);
        let res = client.classify_batch(&lane, &SIM, &mut rng, &samples);
        drop(lane);
        (t.join().expect("server thread"), res)
    });
    let err = res.expect_err("a shed session is an error");
    assert!(
        matches!(transport_cause(&err), Some(TransportError::Busy { .. })),
        "expected the typed Busy error, got {err:?}"
    );
    assert_eq!(summary.expect("serve").sessions_shed, 1);
}

/// A faulty link on the client's side of a real TCP connection, against
/// a reactor `TrainerServer` whose side is a plain socket. A delayed
/// session returns the oracle labels; a stall (the client's coalesced
/// flight, send 1, never leaves) ends in the client's deadline, and the
/// server's session ends too, counted, its permit released; a cut
/// fails the client with `Disconnected`.
#[test]
fn one_sided_faults_over_tcp_against_a_reactor_server() {
    let ds = blob_dataset(3, 80, 91);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 5, 92);
    let oracle: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();

    let server = TrainerServer::new(&trainer, ServerConfig::default());
    let sup = server.supervisor();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let _drain = DrainOnUnwind(vec![sup.clone()]);
        let reactor = scope.spawn(|| server.serve_async_tcp(listener, &SIM, 7).expect("reactor"));
        let run = |schedule: FaultSchedule, seed: u64| {
            let lane = faulty_link(tcp_connect(addr).expect("connect"), schedule);
            lane.set_recv_timeout(Some(CHAOS_DEADLINE));
            let mut rng = StdRng::seed_from_u64(seed);
            client.classify_batch(&lane, &SIM, &mut rng, &samples)
        };

        let delayed = FaultSchedule::single(0, FaultKind::Delay).with(1, FaultKind::Delay);
        assert_eq!(
            run(delayed, 1).expect("a delayed session completes"),
            oracle
        );

        let stalled = run(FaultSchedule::single(1, FaultKind::Stall), 2)
            .expect_err("a stalled session fails");
        assert_eq!(transport_cause(&stalled), Some(&TransportError::Timeout));

        let cut =
            run(FaultSchedule::single(1, FaultKind::Cut), 3).expect_err("a cut session fails");
        assert_eq!(transport_cause(&cut), Some(&TransportError::Disconnected));

        // Both failed sessions end on the server once their sockets close.
        let start = Instant::now();
        while sup.active() > 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the failed sessions must release their permits"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        sup.drain();
        let summary = reactor.join().expect("reactor thread");
        assert_eq!(summary.sessions_admitted, 3, "every session was admitted");
        assert_eq!(
            summary.served_samples,
            samples.len(),
            "only the delayed one served"
        );
        assert_eq!(summary.malformed_rejected, 0);
    });
}
