//! Busy clinic: a trainer serving many patient terminals at once,
//! under load and abuse.
//!
//! A hospital's trainer exposes its diagnosis model through
//! [`TrainerServer`]: 12 terminals connect concurrently, but only 4
//! sessions may run at a time — the rest are shed with an explicit
//! `Busy` reject instead of queueing without bound. One terminal is
//! hostile (it opens a session and then stalls); the per-session
//! wall-clock budget cuts it loose so it never pins a slot. At the end
//! the server drains gracefully and reports the full tally.
//!
//! Run with `cargo run -p ppcs-examples --bin busy_clinic --release`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use ppcs_core::{Client, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::{duplex, Endpoint, Frame, SessionLimits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TERMINALS: usize = 12;
const HOSTILE: usize = 0; // terminal 0 opens a session, then stalls

fn train_model() -> SvmModel {
    let mut rng = StdRng::seed_from_u64(11);
    let mut ds = Dataset::new(4);
    for k in 0..240 {
        let healthy = k % 2 == 0;
        let c = if healthy { 0.6 } else { -0.6 };
        let x: Vec<f64> = (0..4).map(|_| c + rng.gen_range(-0.5..0.5)).collect();
        ds.push(
            x,
            if healthy {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    SvmModel::train(&ds, Kernel::Linear, &SmoParams::default())
}

fn main() {
    let model = train_model();
    let trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
    )
    .expect("trainer setup");

    let server = TrainerServer::new(
        &trainer,
        ServerConfig {
            max_sessions: 4,
            limits: SessionLimits::unlimited()
                .with_deadline(Duration::from_millis(400))
                .with_max_frames(1 << 14)
                .with_max_wire_bytes(16 << 20),
            idle_timeout: Duration::from_millis(400),
            drain_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );

    let supervisor = server.supervisor();
    let (server_lanes, client_lanes): (Vec<Endpoint>, Vec<Endpoint>) =
        (0..TERMINALS).map(|_| duplex()).unzip();

    println!(
        "clinic opens: {TERMINALS} terminals, {} concurrent sessions allowed",
        4
    );

    let agreed = AtomicUsize::new(0);
    let served_ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    let summary = std::thread::scope(|scope| {
        for (i, lane) in client_lanes.into_iter().enumerate() {
            let (model, done) = (&model, &done);
            let (agreed, served_ok, shed) = (&agreed, &served_ok, &shed);
            let supervisor = supervisor.clone();
            scope.spawn(move || {
                if i == HOSTILE {
                    // Opens a session, then goes silent on an open lane.
                    lane.send(Frame::encode(0x0500, &1u64)).expect("hello");
                    while !done.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    return;
                }
                // The stalling terminal grabs its slot first, so the
                // budget cut below is deterministic.
                while supervisor.active() == 0 && !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let mut rng = StdRng::seed_from_u64(500 + i as u64);
                let patient: Vec<f64> = {
                    let c = if i % 2 == 0 { 0.6 } else { -0.6 };
                    (0..4).map(|_| c + rng.gen_range(-0.5..0.5)).collect()
                };
                let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
                match client.classify_batch(
                    &lane,
                    &TrustedSimOt,
                    &mut rng,
                    std::slice::from_ref(&patient),
                ) {
                    Ok(labels) => {
                        served_ok.fetch_add(1, Ordering::Relaxed);
                        if labels[0] == model.predict(&patient) {
                            agreed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) => {
                        assert!(
                            format!("{e}").contains("capacity"),
                            "only a Busy shed is acceptable, got: {e}"
                        );
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let summary = server
            .serve(server_lanes, &TrustedSimOt, 2026)
            .expect("server reactor");
        done.store(true, Ordering::Release);
        summary
    });

    let (ok, agreed, shed) = (
        served_ok.load(Ordering::Relaxed),
        agreed.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
    );
    println!("terminals served:   {ok} (all {agreed} diagnoses match the plain model)");
    println!("terminals shed:     {shed} (explicit Busy, no silent queueing)");
    println!(
        "server tally:       {} admitted / {} shed / {} budget-cut / {} malformed",
        summary.sessions_admitted,
        summary.sessions_shed,
        summary.budget_exceeded,
        summary.malformed_rejected
    );

    assert_eq!(agreed, ok, "every served diagnosis must match");
    assert_eq!(summary.budget_exceeded, 1, "the stalling terminal was cut");
    assert_eq!(summary.sessions_shed as usize, shed);
    assert_eq!(summary.served_samples, ok);
    println!("parity check passed: served diagnoses equal the plain model; the stalled terminal was cut by its budget.");
}
