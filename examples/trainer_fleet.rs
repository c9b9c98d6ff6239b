//! Trainer fleet: one client, three replica trainers, and a kill.
//!
//! A [`FleetClient`] spreads a classification batch across three
//! replicas of the same model. Mid-batch, replica 0's connection is cut
//! (a seeded chaos schedule standing in for a process kill): its
//! circuit breaker trips open, the orphaned chunk fails over to a
//! survivor, and the batch completes with zero client-visible errors —
//! every label identical to what the plain model predicts.
//!
//! Act two is crash-restart recovery: a replica comes back under a
//! fresh serving epoch. The fleet's health probe notices the bump,
//! drops its stale warm ticket, and the next session falls back to a
//! cold handshake — correct labels either way.
//!
//! Run with `cargo run -p ppcs-examples --bin trainer_fleet --release`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppcs_core::{
    BreakerConfig, Client, Connector, FleetClient, FleetConfig, ProtocolConfig, ServerConfig,
    Trainer, TrainerServer,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_telemetry::{
    FlightRecorder, MetricsRegistry, DETAIL_BREAKER_OPEN, DETAIL_FAILOVER, DETAIL_HEDGE_FIRED,
};
use ppcs_transport::{duplex, Endpoint, FaultKind, FaultSchedule, FaultyLane, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REPLICAS: usize = 3;
const SAMPLES: usize = 12;

fn train_model() -> SvmModel {
    let mut rng = StdRng::seed_from_u64(17);
    let mut ds = Dataset::new(3);
    for k in 0..240 {
        let up = k % 2 == 0;
        let c = if up { 0.7 } else { -0.7 };
        let x: Vec<f64> = (0..3).map(|_| c + rng.gen_range(-0.5..0.5)).collect();
        ds.push(x, if up { Label::Positive } else { Label::Negative });
    }
    SvmModel::train(&ds, Kernel::Linear, &SmoParams::default())
}

/// A bank of pre-dialed duplex lanes to one replica: the server halves
/// go to a `TrainerServer` thread, the client halves are popped one per
/// dial, like fresh TCP connects.
fn lane_bank(n: usize) -> (Vec<Endpoint>, Arc<Mutex<VecDeque<Endpoint>>>) {
    let mut server = Vec::with_capacity(n);
    let mut client = VecDeque::with_capacity(n);
    for _ in 0..n {
        let (s, c) = duplex();
        server.push(s);
        client.push_back(c);
    }
    (server, Arc::new(Mutex::new(client)))
}

fn connector(bank: Arc<Mutex<VecDeque<Endpoint>>>) -> Connector {
    Box::new(move || {
        bank.lock()
            .expect("bank lock")
            .pop_front()
            .map(|ep| Box::new(ep) as Box<dyn ppcs_transport::Lane>)
            .ok_or(TransportError::Disconnected)
    })
}

/// Like [`lane_bank`], but the client half of each pair is a
/// [`FaultyLane`] that dies per `schedule` — the instant cut standing in
/// for a process kill. The server half is a plain endpoint.
fn killed_lane_bank(
    n: usize,
    schedule: FaultSchedule,
) -> (Vec<Endpoint>, Arc<Mutex<VecDeque<FaultyLane>>>) {
    let mut server = Vec::with_capacity(n);
    let mut client = VecDeque::with_capacity(n);
    for _ in 0..n {
        let (s, c) = duplex();
        server.push(s);
        client.push_back(FaultyLane::new(c, schedule.clone()));
    }
    (server, Arc::new(Mutex::new(client)))
}

fn faulty_connector(bank: Arc<Mutex<VecDeque<FaultyLane>>>) -> Connector {
    Box::new(move || {
        bank.lock()
            .expect("bank lock")
            .pop_front()
            .map(|l| Box::new(l) as Box<dyn ppcs_transport::Lane>)
            .ok_or(TransportError::Disconnected)
    })
}

fn main() {
    let model = train_model();
    let cfg = ProtocolConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer setup");
    let mut rng = StdRng::seed_from_u64(900);
    let samples: Vec<Vec<f64>> = (0..SAMPLES)
        .map(|i| {
            let c = if i % 2 == 0 { 0.7 } else { -0.7 };
            (0..3).map(|_| c + rng.gen_range(-0.5..0.5)).collect()
        })
        .collect();

    // ---- Act one: a replica dies mid-batch. --------------------------
    println!("fleet of {REPLICAS} replicas; replica 0 will be killed mid-session");
    // The kill: replica 0's connection dies at client-send sequence 2 —
    // after the health probe and the session hello, i.e. mid-batch.
    let (killed_server, killed_bank) =
        killed_lane_bank(4, FaultSchedule::single(2, FaultKind::Cut));
    let banks: Vec<_> = (0..REPLICAS - 1).map(|_| lane_bank(4)).collect();

    let metrics = MetricsRegistry::new(1, "fleet-client");
    let recorder = FlightRecorder::new(256);

    std::thread::scope(|scope| {
        {
            let trainer = &trainer;
            scope.spawn(move || {
                TrainerServer::new(trainer, ServerConfig::default())
                    .serve(&killed_server, &SIM, 7)
                    .expect("reactor");
            });
        }
        let mut client_banks = Vec::new();
        for (server_lanes, client_bank) in banks {
            let trainer = &trainer;
            scope.spawn(move || {
                TrainerServer::new(trainer, ServerConfig::default())
                    .serve(&server_lanes, &SIM, 7)
                    .expect("reactor");
            });
            client_banks.push(client_bank);
        }

        let config = FleetConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_ms: 60_000,
            },
            ..FleetConfig::default()
        };
        let mut fleet = FleetClient::new(Client::new(alg, cfg), config)
            .with_metrics(metrics.clone())
            .with_flight_recorder(recorder.clone());
        fleet.add_replica(faulty_connector(killed_bank.clone()));
        fleet.add_replica(connector(client_banks[0].clone()));
        fleet.add_replica(connector(client_banks[1].clone()));

        let labels = fleet
            .classify_batch_parallel(&SIM, 99, &samples)
            .expect("the fleet absorbs the kill");
        let agreed = labels
            .iter()
            .zip(&samples)
            .filter(|(l, s)| **l == model.predict(s))
            .count();
        println!(
            "batch complete: {}/{SAMPLES} labels match the plain model",
            agreed
        );
        assert_eq!(agreed, SAMPLES, "fleet labels must match the plain model");

        println!(
            "replica states after the kill: {:?}",
            (0..REPLICAS)
                .map(|i| fleet.replica_state(i))
                .collect::<Vec<_>>()
        );

        drop(fleet);
        killed_bank.lock().expect("bank lock").clear();
        for bank in &client_banks {
            bank.lock().expect("bank lock").clear();
        }
    });

    let events = recorder.snapshot();
    let count = |detail: u64| events.iter().filter(|e| e.detail == detail).count();
    println!(
        "flight recorder: {} breaker-open, {} failover, {} hedge events",
        count(DETAIL_BREAKER_OPEN),
        count(DETAIL_FAILOVER),
        count(DETAIL_HEDGE_FIRED),
    );
    let report = metrics.report();
    println!(
        "metrics: breaker_opens={} failovers={} hedges_fired={}",
        report.breaker_opens, report.failovers, report.hedges_fired
    );
    assert_eq!(report.breaker_opens, 1, "exactly one breaker trips");
    assert!(report.failovers >= 1, "the orphaned chunk failed over");

    // The same counters as Prometheus text, as the /metrics endpoint
    // would serve them.
    for line in metrics.render_prometheus().lines() {
        if line.starts_with("ppcs_replica_state")
            || line.starts_with("ppcs_failovers_total")
            || line.starts_with("ppcs_breaker_opens_total")
        {
            println!("  {line}");
        }
    }

    // ---- Act two: crash-restart under a fresh serving epoch. ---------
    println!("\nreplica restarts with a bumped serving epoch");
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
    let generation = Arc::new(AtomicU64::new(0));
    let restart_connector: Connector = {
        let generation = generation.clone();
        let (before, after) = (before.clone(), after.clone());
        Box::new(move || {
            let trainer = if generation.load(Ordering::Acquire) == 0 {
                before.clone()
            } else {
                after.clone()
            };
            let (server_ep, client_ep) = duplex();
            std::thread::spawn(move || {
                TrainerServer::new(&trainer, ServerConfig::default())
                    .serve(&[server_ep], &SIM, 3)
                    .expect("reactor");
            });
            Ok(Box::new(client_ep) as Box<dyn ppcs_transport::Lane>)
        })
    };

    let mut fleet = FleetClient::new(Client::new(alg, cfg), FleetConfig::default());
    fleet.add_replica(restart_connector);

    fleet
        .classify_batch(&SIM, 5, &samples)
        .expect("first session");
    let epoch1 = fleet.warm_cache().get(0).map(|(_, e)| e);
    println!("warm ticket after session 1: epoch {epoch1:?}");

    generation.store(1, Ordering::Release); // the crash-restart
    fleet
        .classify_batch(&SIM, 6, &samples)
        .expect("post-restart session");
    let epoch2 = fleet.warm_cache().get(0).map(|(_, e)| e);
    println!("warm ticket after restart:   epoch {epoch2:?} (stale ticket dropped, cold fallback)");
    assert_eq!(epoch1, Some(5));
    assert_eq!(epoch2, Some(6));

    println!("\nparity check passed: the fleet survived a kill and a restart with correct labels throughout.");
}

static SIM: TrustedSimOt = TrustedSimOt;
