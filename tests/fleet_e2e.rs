//! Fleet resilience end-to-end: a [`FleetClient`] spread over three
//! replica trainers must complete every batch with **zero
//! client-visible errors** while replicas are killed, restarted, and
//! drained underneath it — and the labels must be byte-identical to
//! what a single healthy trainer would have produced.
//!
//! Kill schedules are deterministic: a replica "dies" through a faulty
//! link ([`faulty_link`]) whose seeded schedule cuts the connection, for
//! both sides at once, at a fixed client-send sequence number
//! (pre-handshake, mid-session) or through a connector that refuses to
//! dial.
//!
//! Every scope that starts a replica holds an [`OnUnwind`] guard: a
//! failed assertion drains the scope's replicas and empties its lane
//! banks, so the test fails instead of hanging on servers nothing
//! closes. One randomized run derives its
//! schedule from `PPCS_CHAOS_SEED` (logged, so any failure is
//! reproducible by exporting the printed seed).

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

use ppcs_core::{
    BreakerConfig, BreakerState, Client, Connector, FleetClient, FleetConfig, ManualClock,
    ProtocolConfig, ServeSummary, ServerConfig, SessionSupervisor, Trainer, TrainerServer,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, Label, SmoParams, SvmModel};
use ppcs_telemetry::{
    FlightRecorder, MetricsRegistry, DETAIL_BREAKER_CLOSED, DETAIL_BREAKER_HALF_OPEN,
    DETAIL_BREAKER_OPEN, DETAIL_FAILOVER,
};
use ppcs_tests::{blob_dataset, http_body, http_get, random_samples, DrainOnUnwind};
use ppcs_transport::{
    duplex, faulty_link, run_pair, tcp_connect, Endpoint, FaultKind, FaultSchedule, Frame, Lane,
    TrafficStats, TransportError, KIND_HEALTH,
};

static SIM: TrustedSimOt = TrustedSimOt;

fn trained() -> SvmModel {
    SvmModel::train(
        &blob_dataset(3, 80, 7),
        Kernel::Linear,
        &SmoParams::default(),
    )
}

/// What one healthy trainer returns for `samples` — the byte-level
/// label oracle every fleet run is compared against. Over the exact
/// field backend labels are seed-independent, so any fleet seed must
/// reproduce these exactly.
fn oracle_labels(model: &SvmModel, cfg: ProtocolConfig, samples: &[Vec<f64>]) -> Vec<Label> {
    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, model, cfg).expect("oracle trainer");
    let client = Client::new(alg, cfg);
    let samples = samples.to_vec();
    let (_, labels) = run_pair(
        move |ep| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            trainer.serve(&ep, &SIM, &mut rng).expect("oracle serve")
        },
        move |ep| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            client
                .classify_batch(&ep, &SIM, &mut rng, &samples)
                .expect("oracle classify")
        },
    );
    labels
}

use rand::SeedableRng;

/// Client halves of pre-dialed lanes, popped one per dial.
type Bank = Arc<Mutex<VecDeque<Endpoint>>>;

/// A bank of pre-dialed duplex lanes to one replica: the server half is
/// served by a `TrainerServer` on its own thread, the client half is
/// popped by the fleet connector — one lane per dial, like a fresh TCP
/// connect. An exhausted bank refuses the dial, i.e. the replica is
/// unreachable.
fn lane_bank(n: usize) -> (Vec<Endpoint>, Bank) {
    bank_of(n, |c| c)
}

/// A connector popping lanes from `bank`.
fn plain_connector(bank: Bank) -> Connector {
    Box::new(move || {
        bank.lock()
            .expect("bank lock")
            .pop_front()
            .map(|ep| Box::new(ep) as Box<dyn ppcs_transport::Lane>)
            .ok_or(TransportError::Disconnected)
    })
}

/// Like [`lane_bank`], but each lane's link dies per `schedule` applied
/// to the client's sends — the deterministic "kill" of the chaos runs,
/// which both halves see at once. Both halves are plain endpoints.
fn killed_lane_bank(n: usize, schedule: FaultSchedule) -> (Vec<Endpoint>, Bank) {
    bank_of(n, |c| faulty_link(c, schedule.clone()))
}

/// `n` duplex pairs: the server halves, and a bank of `client(half)`.
fn bank_of(n: usize, client: impl Fn(Endpoint) -> Endpoint) -> (Vec<Endpoint>, Bank) {
    let (server, clients): (Vec<_>, VecDeque<_>) = (0..n)
        .map(|_| {
            let (s, c) = duplex();
            (s, client(c))
        })
        .unzip();
    (server, Arc::new(Mutex::new(clients)))
}

/// Serves `lanes` with a default `TrainerServer` for `trainer` on a
/// thread of `scope`, and returns the server's supervisor for the
/// scope's [`OnUnwind`] guard.
fn serve_replica<'s, 'e>(
    scope: &'s Scope<'s, 'e>,
    trainer: &'e Trainer<FixedFpAlgebra>,
    lanes: Vec<Endpoint>,
) -> SessionSupervisor {
    let server = TrainerServer::new(trainer, ServerConfig::default());
    let supervisor = server.supervisor();
    scope.spawn(move || {
        server.serve(lanes, &SIM, 7).expect("reactor");
    });
    supervisor
}

/// Held inside a scope that starts replicas: when a failed assertion
/// unwinds through the scope, drains the replicas and empties the lane
/// banks, so the scope's join ends instead of waiting on servers whose
/// lanes nothing closes.
struct OnUnwind {
    banks: Vec<Bank>,
    _drain: DrainOnUnwind,
}

impl OnUnwind {
    fn new(replicas: Vec<SessionSupervisor>, banks: &[&Bank]) -> Self {
        Self {
            banks: banks.iter().map(|b| Arc::clone(b)).collect(),
            _drain: DrainOnUnwind(replicas),
        }
    }
}

impl Drop for OnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for bank in &self.banks {
                if let Ok(mut lanes) = bank.lock() {
                    lanes.clear();
                }
            }
        }
    }
}

fn fleet_config(threshold: u32, cooldown_ms: u64) -> FleetConfig {
    FleetConfig {
        breaker: BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms,
        },
        hedge_delay: None,
        deadline: Some(Duration::from_secs(30)),
        probe: true,
        probe_window: Duration::from_secs(5),
    }
}

/// The acceptance scenario: three replicas, replica 0 killed mid-batch
/// by a seeded cut schedule. `classify_batch_parallel` must complete
/// every sample with zero client-visible errors, the labels must match
/// the single-trainer oracle byte-for-byte, and the flight recorder
/// must show exactly one breaker-open and at least one failover.
#[test]
fn killed_replica_mid_batch_completes_against_the_oracle() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 12, 42);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    // The seeded kill schedule: replica 0's connection dies at
    // client-send sequence 2 — after the health probe (0) and the
    // session hello (1), i.e. mid-session, mid-batch.
    let (killed_server, killed_bank) =
        killed_lane_bank(4, FaultSchedule::single(2, FaultKind::Cut));
    let banks: Vec<_> = (0..2).map(|_| lane_bank(4)).collect();

    std::thread::scope(|scope| {
        let mut replicas = vec![serve_replica(scope, &trainer, killed_server)];
        let mut client_banks = Vec::new();
        for (server_lanes, client_bank) in banks {
            replicas.push(serve_replica(scope, &trainer, server_lanes));
            client_banks.push(client_bank);
        }
        let _unwind = OnUnwind::new(
            replicas,
            &[&killed_bank, &client_banks[0], &client_banks[1]],
        );

        let metrics = MetricsRegistry::new(1, "fleet-client");
        let recorder = FlightRecorder::new(256);
        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000))
            .with_metrics(metrics.clone())
            .with_flight_recorder(recorder.clone());
        fleet.add_replica(plain_connector(killed_bank.clone()));
        fleet.add_replica(plain_connector(client_banks[0].clone()));
        fleet.add_replica(plain_connector(client_banks[1].clone()));

        let got = fleet
            .classify_batch_parallel(&SIM, 99, &samples)
            .expect("the fleet absorbs the kill: zero client-visible errors");
        assert_eq!(got, want, "labels must match the single-trainer oracle");

        // Exactly one breaker-open (threshold 1, one dead replica) and
        // at least one failover (the dead replica's chunk was rescued).
        let events = recorder.snapshot();
        let opens = events
            .iter()
            .filter(|e| e.detail == DETAIL_BREAKER_OPEN)
            .count();
        let failovers = events
            .iter()
            .filter(|e| e.detail == DETAIL_FAILOVER)
            .count();
        assert_eq!(opens, 1, "exactly one breaker trips open");
        assert!(failovers >= 1, "the rescued chunk records a failover");
        assert_eq!(fleet.replica_state(0), BreakerState::Open);
        assert_eq!(fleet.replica_state(1), BreakerState::Closed);

        let report = metrics.report();
        assert_eq!(report.breaker_opens, 1);
        assert!(report.failovers >= 1);
        assert_eq!(report.hedges_fired, 0, "hedging disabled in this run");

        // Drop the fleet (and any unused bank lanes) so every server
        // lane closes and the serve threads can join.
        drop(fleet);
        killed_bank.lock().expect("bank lock").clear();
        for bank in &client_banks {
            bank.lock().expect("bank lock").clear();
        }
    });
}

/// A replica that is dead on arrival (the very first frame — the
/// health probe itself — never arrives: killed before any session or
/// pool fill) trips its breaker and the batch completes on survivors.
#[test]
fn replica_dead_at_first_contact_is_absorbed() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 7, 43);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let (server_lanes, client_bank) = lane_bank(4);

    std::thread::scope(|scope| {
        let replica = serve_replica(scope, &trainer, server_lanes);
        let _unwind = OnUnwind::new(vec![replica], &[&client_bank]);

        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000));
        // Replica 0 never answers anything: cut at send sequence 0 (no
        // server behind the bank either — the process is simply gone).
        let (dead_server, dead_bank) =
            killed_lane_bank(2, FaultSchedule::single(0, FaultKind::Cut));
        drop(dead_server);
        fleet.add_replica(plain_connector(dead_bank));
        fleet.add_replica(plain_connector(client_bank.clone()));

        let got = fleet
            .classify_batch(&SIM, 5, &samples)
            .expect("failover to the healthy replica");
        assert_eq!(got, want);
        assert_eq!(fleet.replica_state(0), BreakerState::Open);

        drop(fleet);
        client_bank.lock().expect("bank lock").clear();
    });
}

/// The full breaker lifecycle — closed → open → half-open → closed —
/// driven end-to-end through classify calls under a manual clock, so
/// every transition happens at an exact, asserted instant.
#[test]
fn breaker_cycle_is_deterministic_under_a_seeded_clock() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 44);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Arc::new(Trainer::new(alg, &model, cfg).expect("trainer"));
    let clock = Arc::new(ManualClock::new(0));
    let recorder = FlightRecorder::new(64);
    let dead = Arc::new(AtomicBool::new(true));

    // One replica whose connector refuses while `dead`, and serves a
    // fresh single-lane session thread per dial once healed.
    let connector: Connector = {
        let dead = dead.clone();
        let trainer = trainer.clone();
        Box::new(move || {
            if dead.load(Ordering::Acquire) {
                return Err(TransportError::Disconnected);
            }
            let (server_ep, client_ep) = duplex();
            let trainer = trainer.clone();
            std::thread::spawn(move || {
                TrainerServer::new(&trainer, ServerConfig::default())
                    .serve(vec![server_ep], &SIM, 3)
                    .expect("reactor");
            });
            Ok(Box::new(client_ep) as Box<dyn ppcs_transport::Lane>)
        })
    };

    let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 100))
        .with_clock(clock.clone())
        .with_flight_recorder(recorder.clone());
    fleet.add_replica(connector);

    // t=0: the dial fails, the breaker (threshold 1) trips open.
    fleet
        .classify_batch(&SIM, 5, &samples)
        .expect_err("dead replica");
    assert_eq!(fleet.replica_state(0), BreakerState::Open);

    // t=99: still inside the cooldown — rejected without dialing, even
    // though the replica has healed.
    dead.store(false, Ordering::Release);
    clock.set(99);
    fleet
        .classify_batch(&SIM, 5, &samples)
        .expect_err("cooldown still rejects dispatch");
    assert_eq!(fleet.replica_state(0), BreakerState::Open);

    // t=100: the cooldown elapsed — the half-open probe goes through
    // and its success closes the breaker.
    clock.set(100);
    let got = fleet
        .classify_batch(&SIM, 5, &samples)
        .expect("probe succeeds");
    assert_eq!(got, want);
    assert_eq!(fleet.replica_state(0), BreakerState::Closed);

    let details: Vec<u64> = recorder.snapshot().iter().map(|e| e.detail).collect();
    assert!(details.contains(&DETAIL_BREAKER_OPEN));
    assert!(details.contains(&DETAIL_BREAKER_HALF_OPEN));
    assert!(details.contains(&DETAIL_BREAKER_CLOSED));
}

/// Crash-restart recovery: the replica restarts with a fresh serving
/// epoch between two sessions. The fleet's health probe sees the new
/// epoch, discards its warm ticket, and the second session falls back
/// to a cold handshake — same labels, no stale ticket.
#[test]
fn restarted_replica_with_fresh_epoch_forces_cold_fallback() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 5, 45);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let before = Arc::new(
        Trainer::new(alg, &model, cfg)
            .expect("trainer")
            .with_epoch(5),
    );
    let after = Arc::new(
        Trainer::new(alg, &model, cfg)
            .expect("trainer")
            .with_epoch(6),
    );
    // 0 = first incarnation, 1 = restarted.
    let generation = Arc::new(AtomicU64::new(0));

    let connector: Connector = {
        let generation = generation.clone();
        let before = before.clone();
        let after = after.clone();
        Box::new(move || {
            let trainer = if generation.load(Ordering::Acquire) == 0 {
                before.clone()
            } else {
                after.clone()
            };
            let (server_ep, client_ep) = duplex();
            std::thread::spawn(move || {
                TrainerServer::new(&trainer, ServerConfig::default())
                    .serve(vec![server_ep], &SIM, 3)
                    .expect("reactor");
            });
            Ok(Box::new(client_ep) as Box<dyn ppcs_transport::Lane>)
        })
    };

    let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(3, 100));
    fleet.add_replica(connector);

    // Session 1 warms the cache against epoch 5.
    let got = fleet
        .classify_batch(&SIM, 5, &samples)
        .expect("first session");
    assert_eq!(got, want);
    assert_eq!(
        fleet.warm_cache().get(0).map(|(_, epoch)| epoch),
        Some(5),
        "the warm ticket remembers the first incarnation's epoch"
    );

    // The replica crashes and restarts with a bumped epoch.
    generation.store(1, Ordering::Release);

    // Session 2: the probe reports epoch 6, the stale ticket is
    // dropped, and the cold handshake completes with identical labels.
    let got = fleet
        .classify_batch(&SIM, 6, &samples)
        .expect("post-restart session");
    assert_eq!(got, want);
    assert_eq!(
        fleet.warm_cache().get(0).map(|(_, epoch)| epoch),
        Some(6),
        "the cache re-warmed against the new incarnation"
    );
    assert_eq!(fleet.replica_state(0), BreakerState::Closed);
}

/// A draining replica is routing information, not a fault: the fleet
/// skips it on the health probe's say-so, fails over to a healthy
/// replica, and the drained replica's breaker stays closed.
#[test]
fn draining_replica_is_skipped_without_breaker_penalty() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 6, 46);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let (drain_lanes, drain_bank) = lane_bank(2);
    let (serve_lanes, serve_bank) = lane_bank(2);

    let metrics = MetricsRegistry::new(2, "fleet-client");
    std::thread::scope(|scope| {
        let draining_server = TrainerServer::new(&trainer, ServerConfig::default());
        // Kill-mid-drain schedule: the drain begins before the client's
        // first dial, so its probe observes `draining` from the start.
        draining_server.supervisor().drain();
        let drained = draining_server.supervisor();
        scope.spawn(move || {
            draining_server
                .serve(drain_lanes, &SIM, 7)
                .expect("reactor");
        });
        let serving = serve_replica(scope, &trainer, serve_lanes);
        let _unwind = OnUnwind::new(vec![drained, serving], &[&drain_bank, &serve_bank]);

        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000))
            .with_metrics(metrics.clone());
        fleet.add_replica(plain_connector(drain_bank.clone()));
        fleet.add_replica(plain_connector(serve_bank.clone()));

        let got = fleet
            .classify_batch(&SIM, 5, &samples)
            .expect("failover around the draining replica");
        assert_eq!(got, want);
        assert_eq!(
            fleet.replica_state(0),
            BreakerState::Closed,
            "an orderly drain must not cost breaker state"
        );
        let report = metrics.report();
        assert_eq!(report.breaker_opens, 0);
        assert!(report.failovers >= 1, "the skip is still a failover");

        drop(fleet);
        drain_bank.lock().expect("bank lock").clear();
        serve_bank.lock().expect("bank lock").clear();
    });
}

/// The randomized chaos run: the kill point is derived from
/// `PPCS_CHAOS_SEED` (default 0xF1EE7) and logged, so any failure is
/// reproducible by exporting the printed seed. Whatever the schedule,
/// the trichotomy holds: the batch completes correctly on the
/// survivors.
#[test]
fn randomized_kill_schedule_still_completes_correctly() {
    let seed = std::env::var("PPCS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xF1EE7);
    eprintln!("fleet chaos seed: {seed} (rerun with PPCS_CHAOS_SEED={seed})");
    // Cut at the probe itself (0), the hello (1), or mid-session (2) —
    // all strictly before the session can complete.
    let cut_at = seed % 3;

    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 9, seed ^ 0xA5A5);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let (killed_server, killed_bank) =
        killed_lane_bank(4, FaultSchedule::single(cut_at, FaultKind::Cut));
    let banks: Vec<_> = (0..2).map(|_| lane_bank(4)).collect();

    std::thread::scope(|scope| {
        let mut replicas = vec![serve_replica(scope, &trainer, killed_server)];
        let mut client_banks = Vec::new();
        for (server_lanes, client_bank) in banks {
            replicas.push(serve_replica(scope, &trainer, server_lanes));
            client_banks.push(client_bank);
        }
        let _unwind = OnUnwind::new(
            replicas,
            &[&killed_bank, &client_banks[0], &client_banks[1]],
        );

        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000));
        fleet.add_replica(plain_connector(killed_bank.clone()));
        fleet.add_replica(plain_connector(client_banks[0].clone()));
        fleet.add_replica(plain_connector(client_banks[1].clone()));

        let got = fleet
            .classify_batch_parallel(&SIM, seed, &samples)
            .expect("the fleet absorbs any single-replica kill");
        assert_eq!(got, want);

        drop(fleet);
        killed_bank.lock().expect("bank lock").clear();
        for bank in &client_banks {
            bank.lock().expect("bank lock").clear();
        }
    });
}

/// The async-stress scenario: one of three replicas is killed at peak
/// concurrency — all three are serving chunks of the same parallel
/// batch when the cut lands — while a live `/metrics` endpoint on a
/// surviving replica's reactor is scraped mid-flight. The batch must
/// complete against the oracle, the scrape must answer during the
/// chaos, and the client's Prometheus rendering must carry the
/// breaker/failover counters.
#[test]
fn kill_at_peak_concurrency_with_live_metrics_scrape() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 18, 48);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    // Replica 0 dies mid-session once the batch is in full flight.
    let (killed_server, killed_bank) =
        killed_lane_bank(6, FaultSchedule::single(2, FaultKind::Cut));

    // Replicas 1 and 2 are real TCP reactors; replica 1 also exposes
    // the live `/metrics` scrape surface on its reactor thread. Its
    // registry is what the page carries when no connection is open at
    // the instant of the scrape: without one, a scrape that lands
    // between sessions, or after the batch, reads an empty page.
    let scrape_listener = TcpListener::bind("127.0.0.1:0").expect("bind scrape");
    let scrape_addr = scrape_listener.local_addr().expect("scrape addr");
    let server1 = TrainerServer::new(&trainer, ServerConfig::default())
        .with_metrics(MetricsRegistry::new(5, "replica-1"))
        .with_metrics_endpoint(scrape_listener);
    let watch = server1.supervisor();
    let sup1 = server1.supervisor();
    let listener1 = TcpListener::bind("127.0.0.1:0").expect("bind replica 1");
    let addr1 = listener1.local_addr().expect("replica 1 addr");
    let server2 = TrainerServer::new(&trainer, ServerConfig::default());
    let sup2 = server2.supervisor();
    let listener2 = TcpListener::bind("127.0.0.1:0").expect("bind replica 2");
    let addr2 = listener2.local_addr().expect("replica 2 addr");

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let killed = serve_replica(scope, &trainer, killed_server);
        let _unwind = OnUnwind::new(vec![killed, sup1.clone(), sup2.clone()], &[&killed_bank]);
        let t1 = scope.spawn(|| {
            server1
                .serve_async_tcp(listener1, &SIM, 7)
                .expect("replica 1 reactor")
        });
        let t2 = scope.spawn(|| {
            server2
                .serve_async_tcp(listener2, &SIM, 7)
                .expect("replica 2 reactor")
        });
        // The scraper waits for a live session on replica 1 — i.e. the
        // batch is genuinely concurrent — then hits /metrics while the
        // kill on replica 0 is in flight. If the batch outraces the
        // poll, the `done` flag releases it to scrape the aftermath.
        let scraper = {
            let done = done.clone();
            scope.spawn(move || {
                let start = std::time::Instant::now();
                while watch.active() == 0
                    && !done.load(Ordering::Acquire)
                    && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                http_get(scrape_addr, "/metrics")
            })
        };

        let metrics = MetricsRegistry::new(4, "fleet-client");
        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000))
            .with_metrics(metrics.clone());
        fleet.add_replica(plain_connector(killed_bank.clone()));
        fleet.add_replica(Box::new(move || {
            tcp_connect(addr1).map(|ep| Box::new(ep) as Box<dyn ppcs_transport::Lane>)
        }));
        fleet.add_replica(Box::new(move || {
            tcp_connect(addr2).map(|ep| Box::new(ep) as Box<dyn ppcs_transport::Lane>)
        }));

        let got = fleet
            .classify_batch_parallel(&SIM, 48, &samples)
            .expect("the kill at peak concurrency stays invisible to the caller");
        done.store(true, Ordering::Release);
        assert_eq!(got, want, "labels must match the single-trainer oracle");
        assert_eq!(fleet.replica_state(0), BreakerState::Open);

        let scrape = scraper.join().expect("scraper thread");
        assert!(
            scrape.starts_with("HTTP/1.0 200 OK\r\n"),
            "scrape must answer during the chaos: {scrape:?}"
        );
        assert!(
            http_body(&scrape).contains("ppcs_"),
            "scrape carries the metrics surface"
        );

        // The client side's own Prometheus rendering carries the fleet
        // counters promised on /metrics.
        let rendered = metrics.render_prometheus();
        for needle in [
            "ppcs_replica_state",
            "ppcs_breaker_opens_total",
            "ppcs_failovers_total",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
        let report = metrics.report();
        assert_eq!(report.breaker_opens, 1, "threshold 1, one dead replica");
        assert!(report.failovers >= 1, "the rescued chunk is a failover");

        drop(fleet);
        killed_bank.lock().expect("bank lock").clear();
        sup1.drain();
        sup2.drain();
        t1.join().expect("replica 1 thread");
        t2.join().expect("replica 2 thread");
    });
}

/// A half-open probe whose attempt ends in a busy shed (the replica
/// healed into a drain) must release the probe slot: the breaker
/// re-opens and admits a fresh probe once the replica is truly
/// healthy, instead of wedging half-open and leaving the replica
/// unroutable for the client's lifetime.
#[test]
fn busy_probe_releases_the_slot_instead_of_wedging_half_open() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 49);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Arc::new(Trainer::new(alg, &model, cfg).expect("trainer"));
    let clock = Arc::new(ManualClock::new(0));
    // Replica 0's lifecycle, advanced by the test: 0 = dead (dial
    // refused), 1 = draining (probe answers `draining`, session shed),
    // 2 = healthy.
    let mode = Arc::new(AtomicU64::new(0));

    let flaky: Connector = {
        let mode = mode.clone();
        let trainer = trainer.clone();
        Box::new(move || {
            if mode.load(Ordering::Acquire) == 0 {
                return Err(TransportError::Disconnected);
            }
            let draining = mode.load(Ordering::Acquire) == 1;
            let (server_ep, client_ep) = duplex();
            let trainer = trainer.clone();
            std::thread::spawn(move || {
                let server = TrainerServer::new(&trainer, ServerConfig::default());
                if draining {
                    server.supervisor().drain();
                }
                server.serve(vec![server_ep], &SIM, 3).expect("reactor");
            });
            Ok(Box::new(client_ep) as Box<dyn ppcs_transport::Lane>)
        })
    };
    let healthy: Connector = {
        let trainer = trainer.clone();
        Box::new(move || {
            let (server_ep, client_ep) = duplex();
            let trainer = trainer.clone();
            std::thread::spawn(move || {
                TrainerServer::new(&trainer, ServerConfig::default())
                    .serve(vec![server_ep], &SIM, 3)
                    .expect("reactor");
            });
            Ok(Box::new(client_ep) as Box<dyn ppcs_transport::Lane>)
        })
    };

    let mut fleet =
        FleetClient::new(Client::new(alg, cfg), fleet_config(1, 100)).with_clock(clock.clone());
    fleet.add_replica(flaky);
    fleet.add_replica(healthy);

    // t=0: replica 0 is dead; the batch fails over to replica 1 and
    // the dead replica's breaker trips open.
    let got = fleet.classify_batch(&SIM, 5, &samples).expect("failover");
    assert_eq!(got, want);
    assert_eq!(fleet.replica_state(0), BreakerState::Open);

    // t=100: the cooldown elapsed, and replica 0 is back up but
    // draining. The half-open probe is admitted, sees the drain, and
    // is shed busy — no breaker charge, and crucially the probe slot
    // is released: the breaker returns to open, not wedged half-open.
    mode.store(1, Ordering::Release);
    clock.set(100);
    let got = fleet
        .classify_batch(&SIM, 6, &samples)
        .expect("failover around the draining probe");
    assert_eq!(got, want);
    assert_eq!(
        fleet.replica_state(0),
        BreakerState::Open,
        "an unanswered probe must re-open, not wedge half-open"
    );

    // Replica 0 finishes its restart. The released slot admits a fresh
    // probe at the same instant (the cooldown origin never moved), and
    // its success closes the breaker: the replica is routable again.
    mode.store(2, Ordering::Release);
    let got = fleet
        .classify_batch(&SIM, 7, &samples)
        .expect("probe succeeds");
    assert_eq!(got, want);
    assert_eq!(
        fleet.replica_state(0),
        BreakerState::Closed,
        "the healed replica must not stay unroutable"
    );
}

/// With hedging configured, one genuine primary failure is charged to
/// the primary's breaker exactly once — not once inside the hedge
/// coordinator and again by the failover loop, which would trip
/// breakers at half their configured threshold.
#[test]
fn hedged_failure_is_charged_once_against_the_failing_replica() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 50);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let (lanes, serve_bank) = lane_bank(4);

    std::thread::scope(|scope| {
        let replica = serve_replica(scope, &trainer, lanes);
        let _unwind = OnUnwind::new(vec![replica], &[&serve_bank]);

        let config = FleetConfig {
            breaker: BreakerConfig {
                // Two strikes to open: a double-counted single failure
                // would trip the breaker after one classify call.
                failure_threshold: 2,
                cooldown_ms: 60_000,
            },
            hedge_delay: Some(Duration::from_millis(50)),
            deadline: Some(Duration::from_secs(30)),
            probe: true,
            probe_window: Duration::from_secs(5),
        };
        let mut fleet = FleetClient::new(Client::new(alg, cfg), config);
        // Replica 0 refuses every dial — each attempt is one genuine
        // failure, answered well inside the hedge delay.
        fleet.add_replica(Box::new(|| Err(TransportError::Disconnected)));
        fleet.add_replica(plain_connector(serve_bank.clone()));

        // One failure: at threshold 2 the breaker must still be
        // closed. Double-counting would open it here.
        let got = fleet.classify_batch(&SIM, 5, &samples).expect("failover");
        assert_eq!(got, want);
        assert_eq!(
            fleet.replica_state(0),
            BreakerState::Closed,
            "one failure charged once stays under a threshold of two"
        );

        // The second failure reaches the threshold and trips it open.
        let got = fleet.classify_batch(&SIM, 6, &samples).expect("failover");
        assert_eq!(got, want);
        assert_eq!(fleet.replica_state(0), BreakerState::Open);

        drop(fleet);
        serve_bank.lock().expect("bank lock").clear();
    });
}

/// Hedging: a replica that dials but never speaks (a mute lane, no
/// server behind it) stalls the primary attempt; after the hedge delay
/// the backup replica answers and the batch completes. The hedge fire
/// is counted.
#[test]
fn hedge_fires_past_a_mute_primary() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 47);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let (lanes, serve_bank) = lane_bank(2);

    let metrics = MetricsRegistry::new(3, "fleet-client");
    std::thread::scope(|scope| {
        let replica = serve_replica(scope, &trainer, lanes);

        // The mute primary: lanes exist (the dial succeeds) but the
        // server halves are parked unanswered, so the probe times out
        // only after its window — long after the hedge has fired.
        let (mute_server, mute_bank) = lane_bank(2);
        let _unwind = OnUnwind::new(vec![replica], &[&serve_bank, &mute_bank]);

        let config = FleetConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown_ms: 250,
            },
            hedge_delay: Some(Duration::from_millis(50)),
            deadline: Some(Duration::from_secs(30)),
            probe: true,
            probe_window: Duration::from_millis(200),
        };
        let mut fleet =
            FleetClient::new(Client::new(alg, cfg), config).with_metrics(metrics.clone());
        fleet.add_replica(plain_connector(mute_bank.clone()));
        fleet.add_replica(plain_connector(serve_bank.clone()));

        let got = fleet
            .classify_batch(&SIM, 5, &samples)
            .expect("the hedge wins past the mute primary");
        assert_eq!(got, want);
        assert!(metrics.report().hedges_fired >= 1, "the hedge was counted");

        drop(fleet);
        drop(mute_server);
        mute_bank.lock().expect("bank lock").clear();
        serve_bank.lock().expect("bank lock").clear();
    });
}

/// A client lane whose receives wait until `gate` opens: the session's
/// opening flight is already on the wire, and the test decides what
/// happens to the server side before the client reads a reply.
struct GatedLane {
    inner: Endpoint,
    gate: Arc<AtomicBool>,
}

impl Lane for GatedLane {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.inner.send(frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        self.inner.send_coalesced(frames)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        while !self.gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.recv()
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout)
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

/// Failover over real sockets: replica 0 is a TCP reactor that drains
/// with no grace period while the call's session is in flight on it, so
/// the client's TCP connection dies mid-session. The call must fail over
/// to replica 1, a second TCP reactor, and return the oracle's labels,
/// with the cut charged to replica 0's breaker exactly once: a threshold
/// of two stays closed after the call, and the next call's refused dial
/// (replica 0 has stopped listening) is the second charge that opens it.
#[test]
fn tcp_replica_cut_mid_session_fails_over_to_a_second_tcp_replica() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 6, 51);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let server0 = TrainerServer::new(
        &trainer,
        ServerConfig {
            drain_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let sup0 = server0.supervisor();
    let listener0 = TcpListener::bind("127.0.0.1:0").expect("bind replica 0");
    let addr0 = listener0.local_addr().expect("replica 0 addr");
    let server1 = TrainerServer::new(&trainer, ServerConfig::default());
    let sup1 = server1.supervisor();
    let listener1 = TcpListener::bind("127.0.0.1:0").expect("bind replica 1");
    let addr1 = listener1.local_addr().expect("replica 1 addr");
    let gate = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let _drain = DrainOnUnwind(vec![sup0.clone(), sup1.clone()]);
        let t0 = scope.spawn(|| {
            server0
                .serve_async_tcp(listener0, &SIM, 7)
                .expect("replica 0 reactor")
        });
        let t1 = scope.spawn(|| {
            server1
                .serve_async_tcp(listener1, &SIM, 7)
                .expect("replica 1 reactor")
        });
        // Once replica 0 has admitted the session, drain it: with no
        // grace period the session is cut and its connection closed.
        // The reactor returns when that connection is gone; only then
        // does the client read.
        let cutter = {
            let gate = gate.clone();
            scope.spawn(move || {
                let start = std::time::Instant::now();
                while sup0.active() < 1 && !sup0.draining() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "replica 0 must admit the session"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                sup0.drain();
                let summary = t0.join().expect("replica 0 thread");
                gate.store(true, Ordering::Release);
                summary
            })
        };

        let metrics = MetricsRegistry::new(6, "fleet-client");
        let config = FleetConfig {
            probe: false,
            ..fleet_config(2, 60_000)
        };
        let mut fleet =
            FleetClient::new(Client::new(alg, cfg), config).with_metrics(metrics.clone());
        fleet.add_replica(Box::new(move || {
            let inner = tcp_connect(addr0)?;
            let gate = gate.clone();
            Ok(Box::new(GatedLane { inner, gate }) as Box<dyn Lane>)
        }));
        fleet.add_replica(Box::new(move || {
            tcp_connect(addr1).map(|ep| Box::new(ep) as Box<dyn Lane>)
        }));

        let got = fleet
            .classify_batch(&SIM, 52, &samples)
            .expect("the cut connection fails over to replica 1");
        assert_eq!(got, want, "labels must match the single-trainer oracle");
        assert_eq!(metrics.report().failovers, 1);
        assert_eq!(
            fleet.replica_state(0),
            BreakerState::Closed,
            "one cut, charged once, stays under a threshold of two"
        );
        let summary = cutter.join().expect("cutter thread");
        assert_eq!(summary.sessions_admitted, 1);
        assert_eq!(summary.served_samples, 0, "the cut session served nothing");

        let got = fleet
            .classify_batch(&SIM, 53, &samples)
            .expect("replica 1 still serves");
        assert_eq!(got, want);
        assert_eq!(
            fleet.replica_state(0),
            BreakerState::Open,
            "the refused dial is the second charge"
        );
        assert_eq!(metrics.report().breaker_opens, 1);

        drop(fleet);
        sup1.drain();
        t1.join().expect("replica 1 thread");
    });
}

// Frame kinds a classification call moves (crate-private upstream).
const CLS_HELLO: u16 = 0x0500;
const CLS_SPEC: u16 = 0x0501;
const CLS_WARM_HELLO: u16 = 0x0503;
const CLS_TICKET: u16 = 0x0504;
const OMPE_POINTS: u16 = 0x0400;
const SIM_INDICES: u16 = 0x0300;
const SIM_MESSAGES: u16 = 0x0301;

/// One frame movement on a client lane: a plain frame sent (`'s'`), a
/// flight sent as one coalesced frame (`'f'`), or a frame received
/// (`'r'`), with the frames it carried.
type Wire = (char, Vec<Frame>);

/// A client lane that logs every frame it moves and, on drop, adds its
/// wire frame count to `frames`. When `start` is given, the first
/// receive sets it before reading: a server waiting on it only sees
/// what the client sent before its first read.
struct RecordingLane<L: Lane> {
    inner: L,
    log: Arc<Mutex<Vec<Wire>>>,
    frames: Arc<AtomicU64>,
    start: Option<Arc<AtomicBool>>,
}

impl<L: Lane> RecordingLane<L> {
    fn new(inner: L, log: &Arc<Mutex<Vec<Wire>>>, frames: &Arc<AtomicU64>) -> Self {
        Self {
            inner,
            log: log.clone(),
            frames: frames.clone(),
            start: None,
        }
    }

    /// Sets `start` on the first receive.
    fn starting(mut self, start: Arc<AtomicBool>) -> Self {
        self.start = Some(start);
        self
    }

    fn note(&self, what: char, frames: Vec<Frame>) {
        self.log.lock().expect("log lock").push((what, frames));
    }
}

impl<L: Lane> Lane for RecordingLane<L> {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.note('s', vec![frame.clone()]);
        self.inner.send(frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        self.note('f', frames.to_vec());
        self.inner.send_coalesced(frames)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        if let Some(start) = &self.start {
            start.store(true, Ordering::Release);
        }
        let frame = self.inner.recv()?;
        self.note('r', vec![frame.clone()]);
        Ok(frame)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout)
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

impl<L: Lane> Drop for RecordingLane<L> {
    fn drop(&mut self) {
        let stats = self.inner.stats();
        self.frames
            .fetch_add(stats.frames_sent + stats.frames_received, Ordering::Relaxed);
        // A lane dropped unread still releases a server waiting on it.
        if let Some(start) = &self.start {
            start.store(true, Ordering::Release);
        }
    }
}

/// The log as `(what, kinds)` pairs.
fn kinds(wire: &[Wire]) -> Vec<(char, Vec<u16>)> {
    wire.iter()
        .map(|(what, frames)| (*what, frames.iter().map(|f| f.kind).collect()))
        .collect()
}

/// Takes the log so far.
fn take_log(log: &Mutex<Vec<Wire>>) -> Vec<Wire> {
    std::mem::take(&mut *log.lock().expect("log lock"))
}

/// Takes the log so far as `(what, kinds)` pairs.
fn take_kinds(log: &Mutex<Vec<Wire>>) -> Vec<(char, Vec<u16>)> {
    kinds(&take_log(log))
}

/// The regression guard for the one-round-trip warm session, over real
/// sockets. A warm fleet call moves exactly six wire frames: the health
/// probe and its reply, the warm hello, one coalesced flight of point
/// clouds and OT query, the ticket and the OT answer. The client's
/// opening flight leaves before it reads any trainer frame. A
/// first-contact call keeps the cold handshake, then sends the same
/// coalesced flight: six frames too.
#[test]
fn warm_fleet_call_is_six_frames_over_tcp() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 1, 55);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
    let server = TrainerServer::new(&trainer, ServerConfig::default());
    let sup = server.supervisor();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    let addr = listener.local_addr().expect("replica addr");
    let log = Arc::new(Mutex::new(Vec::new()));
    let frames = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let _drain = DrainOnUnwind(vec![sup.clone()]);
        let reactor = scope.spawn(|| server.serve_async_tcp(listener, &SIM, 7).expect("reactor"));
        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(1, 60_000));
        let (log_c, frames_c) = (log.clone(), frames.clone());
        fleet.add_replica(Box::new(move || {
            let inner = tcp_connect(addr)?;
            Ok(Box::new(RecordingLane::new(inner, &log_c, &frames_c)) as Box<dyn Lane>)
        }));

        let got = fleet.classify_batch(&SIM, 56, &samples).expect("cold call");
        assert_eq!(got, want);
        assert_eq!(
            take_kinds(&log),
            [
                ('s', vec![KIND_HEALTH]),
                ('r', vec![KIND_HEALTH]),
                ('s', vec![CLS_HELLO]),
                ('r', vec![CLS_SPEC]),
                ('f', vec![OMPE_POINTS, SIM_INDICES]),
                ('r', vec![SIM_MESSAGES]),
            ],
            "first contact keeps the cold handshake"
        );
        assert_eq!(frames.swap(0, Ordering::Relaxed), 6);

        for seed in 57..60 {
            let got = fleet
                .classify_batch(&SIM, seed, &samples)
                .expect("warm call");
            assert_eq!(got, want);
            assert_eq!(
                take_kinds(&log),
                [
                    ('s', vec![KIND_HEALTH]),
                    ('r', vec![KIND_HEALTH]),
                    ('s', vec![CLS_WARM_HELLO]),
                    ('f', vec![OMPE_POINTS, SIM_INDICES]),
                    ('r', vec![CLS_TICKET]),
                    ('r', vec![SIM_MESSAGES]),
                ],
                "the opening flight leaves before the ticket is read"
            );
            assert_eq!(
                frames.swap(0, Ordering::Relaxed),
                6,
                "wire frames per warm call"
            );
        }

        drop(fleet);
        sup.drain();
        let summary = reactor.join().expect("reactor thread");
        assert_eq!(summary.sessions_admitted, 4, "one session per call");
        assert_eq!(summary.malformed_rejected, 0);
        assert_eq!(summary.sessions_shed, 0);
    });
}

/// A warm call's early flight: `n` point clouds and the OT query.
fn early_flight(n: usize) -> Vec<u16> {
    let mut kinds = vec![OMPE_POINTS; n];
    kinds.push(SIM_INDICES);
    kinds
}

/// The rest of a session after its early flight, whatever its sample
/// count: the answer to the one OT transfer list, whose query the
/// flight carried.
fn transfers() -> Vec<(char, Vec<u16>)> {
    vec![('r', vec![SIM_MESSAGES])]
}

/// Dials a fresh duplex lane to a one-lane server for `trainer` on
/// its own thread. The server starts once `start` is set (at once
/// without one), drains from its first turn when `drain`, and sends
/// its run's summary to `summaries` when the lane closes.
fn dial_one_lane_server(
    trainer: Arc<Trainer<FixedFpAlgebra>>,
    config: ServerConfig,
    drain: bool,
    start: Option<Arc<AtomicBool>>,
    summaries: mpsc::Sender<ServeSummary>,
) -> Endpoint {
    let (server_ep, client_ep) = duplex();
    std::thread::spawn(move || {
        while start.as_ref().is_some_and(|s| !s.load(Ordering::Acquire)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let server = TrainerServer::new(&trainer, config);
        if drain {
            server.supervisor().drain();
        }
        let summary = server.serve(vec![server_ep], &SIM, 3).expect("reactor");
        let _ = summaries.send(summary);
    });
    client_ep
}

/// The next run summary a replica reports.
fn next_summary(rx: &mpsc::Receiver<ServeSummary>) -> ServeSummary {
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the replica's run ends once its lane closes")
}

/// One replica that serves `before` until `restarted` is set and
/// `after` from then on, one fresh single-lane server per dial, with
/// every client lane recorded into `log`.
fn restarting_replica(
    before: Arc<Trainer<FixedFpAlgebra>>,
    after: Arc<Trainer<FixedFpAlgebra>>,
    restarted: &Arc<AtomicBool>,
    log: &Arc<Mutex<Vec<Wire>>>,
) -> (Connector, mpsc::Receiver<ServeSummary>) {
    let (tx, rx) = mpsc::channel();
    let (restarted, log) = (restarted.clone(), log.clone());
    let frames = Arc::new(AtomicU64::new(0));
    let connector: Connector = Box::new(move || {
        let trainer = if restarted.load(Ordering::Acquire) {
            after.clone()
        } else {
            before.clone()
        };
        let ep = dial_one_lane_server(trainer, ServerConfig::default(), false, None, tx.clone());
        Ok(Box::new(RecordingLane::new(ep, &log, &frames)) as Box<dyn Lane>)
    });
    (connector, rx)
}

/// A replica restarted under a fresh epoch with the same spec, reached
/// without a probe, so the warm hello carries the stale epoch. The
/// ticket re-announces the spec; the early flight is served as it is,
/// with no second flight, and the cache is re-keyed to the new epoch.
#[test]
fn epoch_only_restart_serves_the_early_flight_and_rekeys_the_cache() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 60);
    let want = oracle_labels(&model, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let trainer = |epoch| {
        Arc::new(
            Trainer::new(alg, &model, cfg)
                .expect("trainer")
                .with_epoch(epoch),
        )
    };
    let (before, after) = (trainer(5), trainer(6));
    let restarted = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (connector, summaries) = restarting_replica(before, after.clone(), &restarted, &log);

    let metrics = MetricsRegistry::new(7, "fleet-client");
    let config = FleetConfig {
        probe: false,
        ..fleet_config(1, 60_000)
    };
    let mut fleet = FleetClient::new(Client::new(alg, cfg), config).with_metrics(metrics.clone());
    fleet.add_replica(connector);

    assert_eq!(
        fleet
            .classify_batch(&SIM, 61, &samples)
            .expect("first call"),
        want
    );
    assert_eq!(fleet.warm_cache().get(0).map(|(_, epoch)| epoch), Some(5));
    take_log(&log);

    restarted.store(true, Ordering::Release);
    assert_eq!(
        fleet.classify_batch(&SIM, 62, &samples).expect("warm call"),
        want
    );
    let mut served = vec![
        ('s', vec![CLS_WARM_HELLO]),
        ('f', early_flight(samples.len())),
        ('r', vec![CLS_TICKET]),
    ];
    served.extend(transfers());
    assert_eq!(
        take_kinds(&log),
        served,
        "the early flight is served, not re-sent"
    );
    assert_eq!(fleet.warm_cache().get(0), Some((after.spec(), 6)));
    assert_eq!(fleet.replica_state(0), BreakerState::Closed);
    let report = metrics.report();
    assert_eq!((report.breaker_opens, report.failovers), (0, 0));

    drop(fleet);
    for _ in 0..2 {
        let summary = next_summary(&summaries);
        assert_eq!(summary.sessions_admitted, 1, "one session per call");
        assert_eq!(summary.served_samples, samples.len());
        assert_eq!(summary.malformed_rejected, 0);
    }
}

/// A replica restarted with another model over the same features: the
/// cached spec is stale. The trainer re-announces its spec and drops
/// the early flight; the client re-sends the flight under the new spec,
/// opened by a warm hello naming it and built from fresh point clouds,
/// and the same session serves it.
#[test]
fn changed_spec_drops_the_stale_flight_and_serves_the_resent_one() {
    let linear = trained();
    let poly = SvmModel::train(
        &blob_dataset(3, 80, 7),
        Kernel::paper_polynomial(2),
        &SmoParams::default(),
    );
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 3, 63);
    let want_before = oracle_labels(&linear, cfg, &samples);
    let want = oracle_labels(&poly, cfg, &samples);

    let alg = FixedFpAlgebra::new(16);
    let before = Arc::new(
        Trainer::new(alg, &linear, cfg)
            .expect("trainer")
            .with_epoch(5),
    );
    let after = Arc::new(
        Trainer::new(alg, &poly, cfg)
            .expect("trainer")
            .with_epoch(6),
    );
    assert_ne!(before.spec(), after.spec());
    let restarted = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (connector, summaries) = restarting_replica(before, after.clone(), &restarted, &log);

    let metrics = MetricsRegistry::new(8, "fleet-client");
    let config = FleetConfig {
        probe: false,
        ..fleet_config(1, 60_000)
    };
    let mut fleet = FleetClient::new(Client::new(alg, cfg), config).with_metrics(metrics.clone());
    fleet.add_replica(connector);

    let got = fleet
        .classify_batch(&SIM, 64, &samples)
        .expect("first call");
    assert_eq!(got, want_before);
    take_log(&log);

    restarted.store(true, Ordering::Release);
    let got = fleet
        .classify_batch(&SIM, 65, &samples)
        .expect("re-sent call");
    assert_eq!(got, want, "labels follow the re-announced model");
    let wire = take_log(&log);
    let mut resent = vec![CLS_WARM_HELLO];
    resent.extend(early_flight(samples.len()));
    let mut expected = vec![
        ('s', vec![CLS_WARM_HELLO]),
        ('f', early_flight(samples.len())),
        ('r', vec![CLS_TICKET]),
        ('f', resent),
    ];
    expected.extend(transfers());
    assert_eq!(
        kinds(&wire),
        expected,
        "one round trip more: the stale flight, the ticket, the re-sent flight"
    );
    let (stale, fresh) = (&wire[1].1[..samples.len()], &wire[3].1[1..=samples.len()]);
    for (old, new) in stale.iter().zip(fresh) {
        assert_ne!(old.payload, new.payload, "the re-sent clouds are fresh");
    }
    assert_eq!(fleet.warm_cache().get(0), Some((after.spec(), 6)));
    assert_eq!(fleet.replica_state(0), BreakerState::Closed);
    let report = metrics.report();
    assert_eq!((report.breaker_opens, report.failovers), (0, 0));

    drop(fleet);
    for _ in 0..2 {
        let summary = next_summary(&summaries);
        assert_eq!(summary.sessions_admitted, 1, "one session per call");
        assert_eq!(summary.served_samples, samples.len());
        assert_eq!(summary.malformed_rejected, 0);
    }
}

/// A warm call's hello and early flight reach a replica that sheds them
/// — draining, or at capacity — with no probe to warn the client. The
/// replica answers `KIND_BUSY` and closes the lane without reading the
/// flight as a session opening, and the call fails over with no breaker
/// charge.
#[test]
fn shed_early_flight_fails_over_without_a_charge() {
    let model = trained();
    let cfg = ProtocolConfig::default();
    let samples = random_samples(3, 4, 66);
    let want = oracle_labels(&model, cfg, &samples);
    let alg = FixedFpAlgebra::new(16);
    let trainer = Arc::new(Trainer::new(alg, &model, cfg).expect("trainer"));

    for drain in [true, false] {
        // Replica 0 serves its first dial; every later dial meets a
        // server that sheds — draining, or with no session slot — and
        // only starts once the client has sent its flight and reads.
        let shedding = ServerConfig {
            max_sessions: if drain { 64 } else { 0 },
            ..ServerConfig::default()
        };
        let (tx0, rx0) = mpsc::channel();
        let dials = AtomicU64::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let frames = Arc::new(AtomicU64::new(0));
        let replica0: Connector = {
            let (trainer, log, frames) = (trainer.clone(), log.clone(), frames.clone());
            Box::new(move || {
                if dials.fetch_add(1, Ordering::Relaxed) == 0 {
                    let config = ServerConfig::default();
                    let ep =
                        dial_one_lane_server(trainer.clone(), config, false, None, tx0.clone());
                    return Ok(Box::new(ep) as Box<dyn Lane>);
                }
                let start = Arc::new(AtomicBool::new(false));
                let ep = dial_one_lane_server(
                    trainer.clone(),
                    shedding.clone(),
                    drain,
                    Some(start.clone()),
                    tx0.clone(),
                );
                let lane = RecordingLane::new(ep, &log, &frames).starting(start);
                Ok(Box::new(lane) as Box<dyn Lane>)
            })
        };
        let (tx1, rx1) = mpsc::channel();
        let replica1: Connector = {
            let trainer = trainer.clone();
            Box::new(move || {
                let config = ServerConfig::default();
                let ep = dial_one_lane_server(trainer.clone(), config, false, None, tx1.clone());
                Ok(Box::new(ep) as Box<dyn Lane>)
            })
        };

        let metrics = MetricsRegistry::new(9, "fleet-client");
        let config = FleetConfig {
            probe: false,
            ..fleet_config(1, 60_000)
        };
        let mut fleet =
            FleetClient::new(Client::new(alg, cfg), config).with_metrics(metrics.clone());
        fleet.add_replica(replica0);
        fleet.add_replica(replica1);

        let got = fleet.classify_batch(&SIM, 67, &samples).expect("warm-up");
        assert_eq!(got, want);
        let got = fleet.classify_batch(&SIM, 68, &samples).expect("failover");
        assert_eq!(got, want, "drain={drain}");
        assert_eq!(
            take_kinds(&log),
            [
                ('s', vec![CLS_WARM_HELLO]),
                ('f', early_flight(samples.len())),
                ('r', vec![ppcs_transport::KIND_BUSY]),
            ],
            "drain={drain}: the early flight is shed with one busy frame"
        );
        assert_eq!(
            fleet.replica_state(0),
            BreakerState::Closed,
            "drain={drain}"
        );
        let report = metrics.report();
        assert_eq!(report.breaker_opens, 0, "drain={drain}");
        assert_eq!(report.failovers, 1, "drain={drain}");

        drop(fleet);
        // The two runs of replica 0 may end in either order.
        let mut runs = [next_summary(&rx0), next_summary(&rx0)];
        runs.sort_by_key(|run| run.sessions_shed);
        let [served, shed] = runs;
        assert_eq!((served.sessions_admitted, served.sessions_shed), (1, 0));
        assert_eq!(
            (
                shed.sessions_shed,
                shed.sessions_admitted,
                shed.malformed_rejected
            ),
            (1, 0, 0),
            "drain={drain}: shed once, nothing read as a malformed opening"
        );
        let rescue = next_summary(&rx1);
        assert_eq!(
            (rescue.sessions_admitted, rescue.malformed_rejected),
            (1, 0)
        );
    }
}
