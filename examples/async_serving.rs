//! Async serving: one reactor thread multiplexing a whole fleet of TCP
//! classification sessions.
//!
//! `serve_async_tcp` runs admission control, session budgets, and
//! graceful drain on a single epoll reactor thread — the very loop
//! [`TrainerServer::serve`] runs over endpoints handed to it — and here 200
//! concurrent clients (each its own TCP connection) are served at
//! once, then the supervisor drains and the summary plus the reactor's
//! own telemetry counters are printed. The client fleet is multiplexed
//! too: one `AsyncDriver` on the main thread drives all 200 client
//! engines.
//!
//! Run with `cargo run -p ppcs-examples --bin async_serving --release`.

use std::time::Duration;

use ppcs_core::{Client, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{ObliviousTransfer, TrustedSimOt};
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_telemetry::MetricsRegistry;
use ppcs_transport::{AsyncDriver, DriveOptions, SessionLimits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FLEET: usize = 200;

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
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer setup");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let sel = TrustedSimOt.select();

    let registry = MetricsRegistry::new(1, "trainer-server");
    let server = TrainerServer::new(
        &trainer,
        ServerConfig {
            max_sessions: FLEET,
            limits: SessionLimits::unlimited()
                .with_deadline(Duration::from_secs(30))
                .with_max_frames(1 << 16)
                .with_max_wire_bytes(64 << 20),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .with_metrics(registry.clone());
    let supervisor = server.supervisor();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("trainer listening on {addr}, serving up to {FLEET} concurrent sessions");

    let sample = vec![0.55f64, 0.62, 0.58, 0.61];
    let samples = vec![sample.clone()];
    let expected = model.predict(&sample);

    let summary = std::thread::scope(|scope| {
        // ONE thread runs the entire server: accept loop, admission,
        // every session's protocol state machine, budgets, and drain.
        let server_thread = scope.spawn(|| {
            server
                .serve_async_tcp(listener, &TrustedSimOt, 42)
                .expect("server reactor")
        });

        // The client fleet is one reactor too: every engine attached
        // before the first poll, so all sessions are in flight at once.
        let mut fleet: AsyncDriver<'_, Vec<(Label, f64)>, ppcs_core::PpcsError> =
            AsyncDriver::new();
        for i in 0..FLEET {
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            let id = fleet.add_tcp(stream).expect("register");
            fleet.attach_engine(
                id,
                client.classify_engine(sel, 7000 + i as u64, &samples),
                DriveOptions::new().with_timeout(Duration::from_secs(30)),
            );
        }
        let done = fleet.drive_all();
        let correct = done
            .iter()
            .filter(|(_, res, _)| {
                matches!(res, Ok(values) if values.first().map(|(l, _)| *l) == Some(expected))
            })
            .count();
        println!("fleet done: {correct}/{FLEET} sessions returned the correct label");
        drop(fleet); // hang up every client socket

        supervisor.drain();
        server_thread.join().expect("server thread")
    });

    println!();
    println!(
        "server summary: {} samples served / {} admitted / {} shed / {} cut / {} malformed",
        summary.served_samples,
        summary.sessions_admitted,
        summary.sessions_shed,
        summary.budget_exceeded,
        summary.malformed_rejected
    );
    println!();
    println!("{}", registry.report());
}
