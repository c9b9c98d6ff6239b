//! End-to-end suite for the live serving observability plane: per-ConnId
//! traffic attribution across a multiplexed reactor, the post-mortem
//! flight recorder replayed against seeded chaos schedules, the
//! `/metrics` endpoint scraped live from the reactor thread (with a
//! hand-written Prometheus text-format validator), and a
//! privacy-cleanliness sweep over every observability surface.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppcs_core::{Client, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{ObliviousTransfer, TrustedSimOt};
use ppcs_svm::{Kernel, Label, SvmModel};
use ppcs_telemetry::json::Json;
use ppcs_telemetry::{
    FlightEventKind, FlightRecorder, MetricsRegistry, DETAIL_DRAIN_BEGAN, DETAIL_SESSION_ERR,
    DETAIL_SESSION_OK,
};
use ppcs_tests::{blob_dataset, http_body, http_get, random_samples};
use ppcs_transport::{
    duplex_pool, faulty_pair, tcp_connect, AsyncDriver, DriveOptions, Driver, FaultSchedule, Frame,
    SessionLimits,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

/// Wire value of the classification HELLO (kept private by `ppcs-core`
/// on purpose; forged here exactly as a peer would).
const CLS_HELLO: u16 = 0x0500;

/// 32 concurrent sessions multiplexed through ONE reactor, each with its
/// own registry attached via `DriveOptions::with_metrics`: every
/// per-session report must reconcile *exactly* — kind by kind — with the
/// `TrafficStats` of the peer endpoint at the other end of its socket
/// (what one side sent, the other received), and the reactor-level
/// registry must
/// carry the health histograms.
#[test]
fn per_conn_attribution_reconciles_with_endpoint_traffic() {
    const SESSIONS: usize = 32;
    let cfg = ProtocolConfig::functional();
    let ds = blob_dataset(3, 60, 29);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let sel = SIM.select();
    let samples = random_samples(3, 2, 31);

    let (trainer_eps, client_eps) = duplex_pool(SESSIONS);
    let regs: Vec<Arc<MetricsRegistry>> = (0..SESSIONS)
        .map(|i| MetricsRegistry::new(i as u64, "client"))
        .collect();
    let reactor_reg = MetricsRegistry::new(999, "reactor");

    std::thread::scope(|scope| {
        for (i, ep_t) in trainer_eps.iter().enumerate() {
            let trainer = &trainer;
            scope.spawn(move || {
                let mut eng = trainer.serve_engine(sel, 700 + i as u64);
                Driver::new().drive(ep_t, &mut eng).expect("serve")
            });
        }
        let mut adrv: AsyncDriver<'_, Vec<(Label, f64)>, ppcs_core::PpcsError> =
            AsyncDriver::new().with_metrics(reactor_reg.clone());
        for (i, ep_c) in client_eps.into_iter().enumerate() {
            let id = adrv.add_endpoint(ep_c).expect("socket pair");
            adrv.attach_engine(
                id,
                client.classify_engine(sel, 800 + i as u64, &samples),
                DriveOptions::new().with_metrics(regs[i].clone()),
            );
        }
        let done = adrv.drive_all();
        assert_eq!(done.len(), SESSIONS);
        let expected: Vec<Label> = samples.iter().map(|s| model.predict(s)).collect();
        for (id, res, _) in done {
            let values = res.unwrap_or_else(|e| panic!("session {id} failed: {e:?}"));
            let labels: Vec<Label> = values.iter().map(|(l, _)| *l).collect();
            assert_eq!(labels, expected, "session {id}");
        }
    });

    let (mut sum_reported, mut sum_endpoint) = (0u64, 0u64);
    for (i, (reg, ep)) in regs.iter().zip(&trainer_eps).enumerate() {
        let report = reg.report();
        // The trainer's endpoint sees the client's traffic mirrored.
        let stats = ep.stats();
        assert_eq!(report.bytes_sent(), stats.bytes_received, "session {i}");
        assert_eq!(report.bytes_received(), stats.bytes_sent, "session {i}");
        assert_eq!(report.frames_sent(), stats.frames_received, "session {i}");
        assert_eq!(report.frames_received(), stats.frames_sent, "session {i}");
        for k in &stats.by_kind {
            let row = report
                .kind(k.kind)
                .unwrap_or_else(|| panic!("session {i}: kind 0x{:04x} missing", k.kind));
            assert_eq!(
                row.frames_sent, k.frames_received,
                "session {i} 0x{:04x}",
                k.kind
            );
            assert_eq!(
                row.bytes_sent, k.bytes_received,
                "session {i} 0x{:04x}",
                k.kind
            );
            assert_eq!(
                row.frames_received, k.frames_sent,
                "session {i} 0x{:04x}",
                k.kind
            );
            assert_eq!(
                row.bytes_received, k.bytes_sent,
                "session {i} 0x{:04x}",
                k.kind
            );
        }
        sum_reported += report.total_wire_bytes();
        sum_endpoint += stats.bytes_sent + stats.bytes_received;
    }
    assert!(sum_endpoint > 0, "the fleet moved real traffic");
    assert_eq!(
        sum_reported, sum_endpoint,
        "per-ConnId attribution must sum exactly to the endpoint totals"
    );

    // The reactor-level registry carries the health histograms the
    // per-session registries do not.
    let health = reactor_reg.report().reactor_health;
    for name in ["loop_lag_ns", "event_batch"] {
        assert!(
            health.iter().any(|h| h.name == name && h.count > 0),
            "reactor health metric {name:?} missing from {health:?}"
        );
    }
}

/// Seeded link chaos schedules replayed through a reactor with a
/// flight recorder attached: for every schedule the recorded event
/// stream must carry exactly one admission and a terminal verdict that
/// matches the session's actual outcome.
#[test]
fn flight_recorder_reconstructs_chaos_outcomes() {
    const CHAOS_DEADLINE: Duration = Duration::from_millis(200);
    let cfg = ProtocolConfig::functional();
    let ds = blob_dataset(3, 40, 17);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let samples: Vec<Vec<f64>> = (0..2).map(|i| ds.features(i).to_vec()).collect();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let sel = SIM.select();

    for seed in 0..16u64 {
        let schedule = FaultSchedule::seeded(seed);
        let (server_lane, client_lane) = if seed.is_multiple_of(2) {
            faulty_pair(schedule.clone(), FaultSchedule::none())
        } else {
            faulty_pair(FaultSchedule::none(), schedule.clone())
        };
        client_lane.set_recv_timeout(Some(CHAOS_DEADLINE));
        let recorder = FlightRecorder::new(64);

        let server_res = std::thread::scope(|scope| {
            let samples = &samples;
            let hc = scope.spawn(move || {
                let client = Client::new(FixedFpAlgebra::new(16), cfg);
                let mut rng = StdRng::seed_from_u64(900 + seed);
                let r = client.classify_batch(&client_lane, &SIM, &mut rng, samples);
                drop(client_lane);
                r
            });
            let mut adrv: AsyncDriver<'_, usize, ppcs_core::PpcsError> = AsyncDriver::new();
            adrv.set_flight_recorder(recorder.clone());
            let id = adrv.add_endpoint(server_lane).expect("socket pair");
            adrv.attach_engine(
                id,
                trainer.serve_engine(sel, seed),
                DriveOptions::new().with_timeout(CHAOS_DEADLINE),
            );
            let mut done = adrv.drive_all();
            let (_, res, _) = done.pop().expect("one session");
            drop(adrv);
            hc.join().expect("client must not panic").ok();
            res
        });

        let events = recorder.snapshot();
        let admitted: Vec<_> = events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Admitted)
            .collect();
        assert_eq!(admitted.len(), 1, "seed {seed}: one admission, once");
        assert_eq!(
            (admitted[0].conn_slot, admitted[0].conn_epoch),
            (0, 0),
            "seed {seed}: the admission is attributed to the one conn"
        );
        let ok = events
            .iter()
            .any(|e| e.kind == FlightEventKind::StateTransition && e.detail == DETAIL_SESSION_OK);
        let err = events
            .iter()
            .any(|e| e.kind == FlightEventKind::StateTransition && e.detail == DETAIL_SESSION_ERR);
        assert!(
            ok ^ err,
            "seed {seed}: exactly one terminal verdict, got ok={ok} err={err}"
        );
        assert_eq!(
            ok,
            server_res.is_ok(),
            "seed {seed}: recorder verdict disagrees with the session result {server_res:?}"
        );
        if schedule.is_lossless() {
            assert!(
                server_res.is_ok(),
                "seed {seed}: lossless schedule ({schedule:?}) must complete"
            );
        }
    }
}

/// A hand-written validator for the Prometheus text exposition format
/// (version 0.0.4) as this codebase emits it: well-formed `# HELP` /
/// `# TYPE` comments, `name{labels} value` sample lines, a declared type
/// for every sample family, and cumulative histogram buckets ending in
/// `+Inf`. (Label values in this exposition never contain commas, so a
/// comma split is a faithful parse.)
fn validate_prometheus(text: &str) {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut buckets: HashMap<(String, String), Vec<(String, f64)>> = HashMap::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let tag = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("");
            match tag {
                "HELP" => assert!(!name.is_empty() && !arg.is_empty(), "bad HELP: {line:?}"),
                "TYPE" => {
                    assert!(
                        ["counter", "gauge", "histogram", "summary", "untyped"].contains(&arg),
                        "bad TYPE {arg:?} in {line:?}"
                    );
                    typed.insert(name.to_string(), arg.to_string());
                }
                _ => panic!("unknown comment tag in {line:?}"),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value in {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable value {value:?} in {line:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (
                n,
                rest.strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated labels in {line:?}")),
            ),
            None => (series, ""),
        };
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name:?} in {line:?}"
        );
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains_key(*f))
            .unwrap_or(name);
        assert!(
            typed.contains_key(family),
            "sample {name:?} has no # TYPE header"
        );
        if name.ends_with("_bucket") {
            let mut le = None;
            let rest_labels: Vec<&str> = labels
                .split(',')
                .filter(|l| match l.strip_prefix("le=") {
                    Some(v) => {
                        le = Some(v.trim_matches('"').to_string());
                        false
                    }
                    None => true,
                })
                .collect();
            let le = le.unwrap_or_else(|| panic!("bucket without le label: {line:?}"));
            let count: f64 = value.parse().expect("bucket count");
            buckets
                .entry((family.to_string(), rest_labels.join(",")))
                .or_default()
                .push((le, count));
        }
        samples += 1;
    }
    assert!(samples > 0, "exposition carries no samples");
    for ((family, labels), series) in &buckets {
        assert_eq!(
            series.last().map(|(le, _)| le.as_str()),
            Some("+Inf"),
            "histogram {family}{{{labels}}} must end with a +Inf bucket"
        );
        for w in series.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "histogram {family}{{{labels}}} buckets not cumulative: {series:?}"
            );
        }
    }
}

/// The `/metrics` endpoint scraped live — sessions held open on the very
/// reactor thread that renders the page: valid Prometheus exposition,
/// a live session table with one row per held conn, and a
/// `/flightrecorder` dump whose JSON carries the admissions.
#[test]
fn metrics_endpoint_serves_prometheus_and_flight_dump_live() {
    const HOLDERS: usize = 4;
    let ds = blob_dataset(3, 80, 17);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    let config = ServerConfig {
        max_sessions: 8,
        // Finite budgets, so the per-conn remaining-budget gauges have
        // something to report.
        limits: SessionLimits::unlimited()
            .with_deadline(Duration::from_secs(30))
            .with_max_frames(1 << 14)
            .with_max_wire_bytes(32 << 20),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let reg = MetricsRegistry::new(7, "trainer-server");
    let recorder = FlightRecorder::new(256);
    let scrape_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics endpoint");
    let scrape_addr = scrape_listener.local_addr().expect("metrics addr");
    let server = TrainerServer::new(&trainer, config)
        .with_metrics(reg.clone())
        .with_flight_recorder(recorder.clone())
        .with_metrics_endpoint(scrape_listener);
    let supervisor = server.supervisor();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind serve");
    let addr = listener.local_addr().expect("serve addr");

    let (metrics_resp, flight_resp, summary) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| {
            server
                .serve_async_tcp(listener, &SIM, 4242)
                .expect("reactor")
        });
        // Hold sessions open — each sends a HELLO and then stalls — so
        // the scrape observes live sessions in the conn table.
        let holders: Vec<_> = (0..HOLDERS)
            .map(|_| {
                let lane = tcp_connect(addr).expect("connect");
                lane.send(Frame::encode(CLS_HELLO, &1u64)).expect("hello");
                lane
            })
            .collect();
        let wait_start = Instant::now();
        while supervisor.active() < HOLDERS {
            assert!(
                wait_start.elapsed() < Duration::from_secs(10),
                "holders must be admitted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let metrics_resp = http_get(scrape_addr, "/metrics");
        let flight_resp = http_get(scrape_addr, "/flightrecorder");
        drop(holders);
        supervisor.drain();
        let summary = server_thread.join().expect("server thread");
        (metrics_resp, flight_resp, summary)
    });

    assert!(
        metrics_resp.starts_with("HTTP/1.0 200 OK\r\n"),
        "scrape status: {metrics_resp:?}"
    );
    assert!(
        metrics_resp.contains("text/plain; version=0.0.4"),
        "exposition content type: {metrics_resp:?}"
    );
    let body = http_body(&metrics_resp);
    validate_prometheus(body);
    assert!(
        body.contains("ppcs_sessions_admitted_total 4"),
        "live admission counter missing:\n{body}"
    );
    assert_eq!(
        body.matches("ppcs_conn_info{").count(),
        HOLDERS,
        "one live session row per held conn:\n{body}"
    );
    assert!(
        body.contains("state=\"active\""),
        "held sessions are active:\n{body}"
    );
    assert_eq!(
        body.matches("ppcs_conn_budget_frames_remaining{").count(),
        HOLDERS,
        "per-conn budget gauges:\n{body}"
    );

    assert!(
        flight_resp.starts_with("HTTP/1.0 200 OK\r\n"),
        "flight dump status: {flight_resp:?}"
    );
    let doc = Json::parse(http_body(&flight_resp)).expect("flight dump is valid JSON");
    let events = doc.get("events").and_then(Json::as_array).expect("events");
    let dumped_admissions = events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("admitted"))
        .count();
    assert_eq!(dumped_admissions, HOLDERS, "admissions in the live dump");

    assert_eq!(summary.sessions_admitted, HOLDERS as u64);
    // The drain itself was recorded as a run-level transition (sentinel
    // slot u32::MAX, since no single conn owns it).
    assert!(
        recorder.snapshot().iter().any(|e| {
            e.kind == FlightEventKind::StateTransition
                && e.conn_slot == u32::MAX
                && e.detail == DETAIL_DRAIN_BEGAN
        }),
        "drain transition missing from {:?}",
        recorder.snapshot()
    );
}

/// A drain that finds the accepting reactor already idle — requested
/// before the loop's first turn, so no scheduling decides the order —
/// is still recorded on the tape before the run exits.
#[test]
fn drain_of_an_idle_accepting_server_is_recorded() {
    let ds = blob_dataset(3, 80, 17);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    let recorder = FlightRecorder::new(16);
    let server = TrainerServer::new(&trainer, ServerConfig::default())
        .with_flight_recorder(recorder.clone());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind serve");
    server.supervisor().drain();
    let summary = server.serve_async_tcp(listener, &SIM, 1).expect("reactor");
    assert_eq!(summary.sessions_admitted, 0);
    assert!(
        recorder.snapshot().iter().any(|e| {
            e.kind == FlightEventKind::StateTransition
                && e.conn_slot == u32::MAX
                && e.detail == DETAIL_DRAIN_BEGAN
        }),
        "drain transition missing from {:?}",
        recorder.snapshot()
    );
}

/// Every observability surface — the live `/metrics` page, the live
/// `/flightrecorder` dump, the post-run recorder JSON, and the raw
/// exposition — scraped around a full classification session must stay
/// clean of the secrets: model weights, bias, and client samples in
/// every float format the codebase uses.
#[test]
fn observability_surfaces_are_privacy_clean() {
    let ds = blob_dataset(3, 120, 7);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let trainer = Trainer::new(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
    )
    .expect("trainer");
    let samples = random_samples(3, 4, 23);
    let config = ServerConfig {
        max_sessions: 4,
        limits: SessionLimits::unlimited().with_deadline(Duration::from_secs(30)),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let reg = MetricsRegistry::new(8, "trainer-server");
    let recorder = FlightRecorder::new(256);
    let scrape_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics endpoint");
    let scrape_addr = scrape_listener.local_addr().expect("metrics addr");
    let server = TrainerServer::new(&trainer, config)
        .with_metrics(reg.clone())
        .with_flight_recorder(recorder.clone())
        .with_metrics_endpoint(scrape_listener);
    let watch = server.supervisor();
    let supervisor = server.supervisor();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind serve");
    let addr = listener.local_addr().expect("serve addr");

    let (live_metrics, live_flight) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| {
            server
                .serve_async_tcp(listener, &SIM, 1717)
                .expect("reactor")
        });
        // Scrape both surfaces while the classification below is (best
        // effort) still in flight.
        let scraper = scope.spawn(move || {
            let wait_start = Instant::now();
            while watch.active() == 0 && wait_start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            (
                http_get(scrape_addr, "/metrics"),
                http_get(scrape_addr, "/flightrecorder"),
            )
        });
        let lane = tcp_connect(addr).expect("connect");
        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
        let mut rng = StdRng::seed_from_u64(77);
        let labels = client
            .classify_batch(&lane, &SIM, &mut rng, &samples)
            .expect("classify");
        for (got, sample) in labels.iter().zip(&samples) {
            assert_eq!(*got, model.predict(sample), "honest client");
        }
        drop(lane);
        let scraped = scraper.join().expect("scraper");
        supervisor.drain();
        server_thread.join().expect("server thread");
        scraped
    });

    assert!(live_metrics.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(live_flight.starts_with("HTTP/1.0 200 OK\r\n"));
    let surfaces = [
        live_metrics,
        live_flight,
        recorder.to_json(),
        reg.render_prometheus(),
    ]
    .join("\n");

    let mut secrets: Vec<f64> = Vec::new();
    secrets.extend(model.linear_weights().expect("linear model"));
    secrets.push(model.bias());
    secrets.extend(samples.iter().flatten());
    for s in secrets {
        for formatted in [format!("{s}"), format!("{s:.6}"), format!("{s:e}")] {
            assert!(
                !surfaces.contains(&formatted),
                "secret value {formatted} leaked into an observability surface"
            );
        }
    }
}
