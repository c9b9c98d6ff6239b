//! Failover-latency measurement for the fleet resilience layer: the
//! same classification batch through three replica trainers under four
//! conditions — all healthy, one replica killed mid-session, one dead
//! on arrival, and a mute primary raced by a hedge — reporting per-run
//! p50/p95 so the cost of each recovery path is a number, not a claim.
//!
//! ```text
//! cargo run -p ppcs-bench --bin bench_fleet --release [iters]
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppcs_core::{
    BreakerConfig, Client, Connector, FleetClient, FleetConfig, ProtocolConfig, ServerConfig,
    Trainer, TrainerServer,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_transport::{
    duplex, Endpoint, FaultKind, FaultSchedule, FaultyLane, Lane, TransportError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REPLICAS: usize = 3;
const SAMPLES: usize = 12;

static SIM: TrustedSimOt = TrustedSimOt;

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
            .map(|ep| Box::new(ep) as Box<dyn Lane>)
            .ok_or(TransportError::Disconnected)
    })
}

/// Like [`lane_bank`], but the client half dies per `schedule`; the
/// server half is a plain endpoint.
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
            .map(|l| Box::new(l) as Box<dyn Lane>)
            .ok_or(TransportError::Disconnected)
    })
}

/// Which failure the run injects on replica 0.
#[derive(Clone, Copy)]
enum Condition {
    Healthy,
    /// The connection dies at client-send sequence 2 (mid-session).
    KilledMidSession,
    /// The connection dies at sequence 0 (the probe itself).
    DeadOnArrival,
    /// Replica 0 dials but never answers; the hedge races past it.
    MutePrimary,
}

fn fleet_config(cond: Condition) -> FleetConfig {
    FleetConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 60_000,
        },
        hedge_delay: match cond {
            Condition::MutePrimary => Some(Duration::from_millis(10)),
            _ => None,
        },
        probe_window: match cond {
            Condition::MutePrimary => Duration::from_millis(100),
            _ => Duration::from_secs(5),
        },
        ..FleetConfig::default()
    }
}

/// One timed run: fresh servers, fresh fleet, one parallel batch.
fn run_once(
    trainer: &Trainer<FixedFpAlgebra>,
    cfg: ProtocolConfig,
    samples: &[Vec<f64>],
    cond: Condition,
    seed: u64,
) -> f64 {
    // Replica 0's wiring depends on the condition; replicas 1..N are
    // always plain banks backed by live servers.
    let plain: Vec<_> = (0..REPLICAS - 1).map(|_| lane_bank(4)).collect();
    let killed = match cond {
        Condition::KilledMidSession => Some(killed_lane_bank(
            4,
            FaultSchedule::single(2, FaultKind::Cut),
        )),
        Condition::DeadOnArrival => Some(killed_lane_bank(
            4,
            FaultSchedule::single(0, FaultKind::Cut),
        )),
        _ => None,
    };
    let healthy_extra = matches!(cond, Condition::Healthy).then(|| lane_bank(4));
    let mute = matches!(cond, Condition::MutePrimary).then(|| lane_bank(4));

    std::thread::scope(|scope| {
        let mut client_banks = Vec::new();
        for (server_lanes, client_bank) in &plain {
            scope.spawn(move || {
                TrainerServer::new(trainer, ServerConfig::default())
                    .serve(server_lanes, &SIM, 7)
                    .expect("reactor");
            });
            client_banks.push(client_bank.clone());
        }
        if let Some((killed_server, _)) = &killed {
            scope.spawn(move || {
                TrainerServer::new(trainer, ServerConfig::default())
                    .serve(killed_server, &SIM, 7)
                    .expect("reactor");
            });
        }
        if let Some((server_lanes, client_bank)) = &healthy_extra {
            scope.spawn(move || {
                TrainerServer::new(trainer, ServerConfig::default())
                    .serve(server_lanes, &SIM, 7)
                    .expect("reactor");
            });
            client_banks.push(client_bank.clone());
        }

        let alg = FixedFpAlgebra::new(16);
        let mut fleet = FleetClient::new(Client::new(alg, cfg), fleet_config(cond));
        if let Some((_, killed_bank)) = &killed {
            fleet.add_replica(faulty_connector(killed_bank.clone()));
        }
        if let Some((_, mute_bank)) = &mute {
            // A dialable bank with no server behind it: the probe hangs
            // until its window while the hedge races past.
            fleet.add_replica(connector(mute_bank.clone()));
        }
        for bank in &client_banks {
            fleet.add_replica(connector(bank.clone()));
        }

        let start = Instant::now();
        let labels = match cond {
            // Hedging is a per-session race: measure the sequential path.
            Condition::MutePrimary => fleet.classify_batch(&SIM, seed, samples),
            _ => fleet.classify_batch_parallel(&SIM, seed, samples),
        }
        .expect("fleet batch");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(labels.len(), samples.len());

        drop(fleet);
        if let Some((_, killed_bank)) = &killed {
            killed_bank.lock().expect("bank lock").clear();
        }
        if let Some((_, mute_bank)) = &mute {
            mute_bank.lock().expect("bank lock").clear();
        }
        for bank in &client_banks {
            bank.lock().expect("bank lock").clear();
        }
        elapsed
    })
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let mut ds_rng = StdRng::seed_from_u64(7);
    let mut ds = ppcs_svm::Dataset::new(3);
    for k in 0..80 {
        let positive = k % 2 == 0;
        let c = if positive { 0.5 } else { -0.5 };
        ds.push(
            (0..3).map(|_| c + ds_rng.gen_range(-0.45..0.45)).collect(),
            if positive {
                ppcs_svm::Label::Positive
            } else {
                ppcs_svm::Label::Negative
            },
        );
    }
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let cfg = ProtocolConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, &model, cfg).expect("trainer setup");
    let mut rng = StdRng::seed_from_u64(900);
    let samples: Vec<Vec<f64>> = (0..SAMPLES)
        .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();

    let conditions: [(&str, Condition); 4] = [
        ("healthy (3/3 replicas)", Condition::Healthy),
        ("killed mid-session", Condition::KilledMidSession),
        ("dead on arrival", Condition::DeadOnArrival),
        ("mute primary, hedged", Condition::MutePrimary),
    ];

    println!(
        "{iters} iters x {SAMPLES}-sample batch, {REPLICAS} replicas, in-memory lanes, exact field"
    );
    println!("| condition | p50 (ms) | p95 (ms) | vs healthy p50 |");
    println!("|---|---:|---:|---:|");
    let mut healthy_p50 = None;
    for (name, cond) in conditions {
        // One warm-up run per condition before anything is timed.
        run_once(&trainer, cfg, &samples, cond, 1);
        let mut lat: Vec<f64> = (0..iters)
            .map(|i| run_once(&trainer, cfg, &samples, cond, 100 + i as u64))
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (p50, p95) = (quantile(&lat, 0.5), quantile(&lat, 0.95));
        let base = *healthy_p50.get_or_insert(p50);
        println!("| {name} | {p50:.3} | {p95:.3} | {:.2}x |", p50 / base);
    }
}
