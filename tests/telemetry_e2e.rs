//! End-to-end telemetry: full protocol sessions with the metrics
//! registry attached, checking that the session reports agree with the
//! transport's own traffic accounting, that spans cover the session
//! wall time, and that the trace layer never leaks protocol secrets.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppcs_core::{
    similarity_plain, similarity_request_io, similarity_respond_io, Client, ProtocolConfig,
    SimilarityConfig, Trainer,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{ObliviousTransfer, TrustedSimOt};
use ppcs_svm::{Kernel, SvmModel};
use ppcs_telemetry::{MetricsRegistry, SessionReport};
use ppcs_tests::{blob_dataset, random_samples, rotated_model};
use ppcs_transport::{drive_blocking, duplex, duplex_pool, Driver, Endpoint, ProtocolEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_model() -> SvmModel {
    let ds = blob_dataset(3, 120, 7);
    SvmModel::train(&ds, Kernel::Linear, &Default::default())
}

/// One classification session over `(ep_t, ep_c)` with `reg` attached to
/// the client driver; returns the client's wall time for the drive.
fn run_classification(
    ep_t: &Endpoint,
    ep_c: &Endpoint,
    trainer: &Trainer<FixedFpAlgebra>,
    client: &Client<FixedFpAlgebra>,
    samples: &[Vec<f64>],
    reg: &Arc<MetricsRegistry>,
    seed: u64,
) -> f64 {
    let sel = TrustedSimOt.select();
    std::thread::scope(|scope| {
        let t = scope.spawn(move || {
            let mut eng = trainer.serve_engine(sel, seed);
            drive_blocking(ep_t, &mut eng).expect("serve")
        });
        let mut driver = Driver::new().with_metrics(reg.clone());
        let mut eng = client.classify_engine(sel, seed + 1, samples);
        let start = Instant::now();
        driver.drive(ep_c, &mut eng).expect("classify");
        let wall = start.elapsed().as_secs_f64();
        t.join().expect("trainer thread");
        wall
    })
}

#[test]
fn classification_report_matches_endpoint_traffic_per_kind() {
    let model = small_model();
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 6, 11);

    let reg = MetricsRegistry::new(42, "client");
    let (ep_t, ep_c) = duplex();
    run_classification(&ep_t, &ep_c, &trainer, &client, &samples, &reg, 500);

    let report = reg.report();
    let stats = ep_c.stats();

    // Totals agree with the endpoint's own counters, in both directions.
    assert_eq!(report.bytes_sent(), stats.bytes_sent);
    assert_eq!(report.bytes_received(), stats.bytes_received);
    assert_eq!(report.frames_sent(), stats.frames_sent);
    assert_eq!(report.frames_received(), stats.frames_received);

    // Per-kind rows agree entry for entry, and there is more than one
    // kind in play (hello/spec + OMPE traffic at minimum).
    assert!(report.kinds.len() >= 2, "expected several frame kinds");
    for k in &stats.by_kind {
        let row = report.kind(k.kind).expect("kind present in report");
        assert_eq!(row.frames_sent, k.frames_sent, "kind 0x{:04x}", k.kind);
        assert_eq!(row.bytes_sent, k.bytes_sent, "kind 0x{:04x}", k.kind);
        assert_eq!(
            row.frames_received, k.frames_received,
            "kind 0x{:04x}",
            k.kind
        );
        assert_eq!(
            row.bytes_received, k.bytes_received,
            "kind 0x{:04x}",
            k.kind
        );
    }

    assert!(report.rounds >= 1, "driver records engine rounds");
    assert!(report.polls >= 1, "driver records poll iterations");
    assert!(report.phase("classify").is_some(), "classify span recorded");

    // The report round-trips through its JSON form unchanged.
    let restored = SessionReport::from_json(&report.to_json()).expect("valid JSON");
    assert_eq!(restored, report);
}

#[test]
fn classify_span_structure_is_consistent() {
    // Wall-clock ratio assertions flake under scheduler jitter on loaded CI
    // runners; the structural invariants below are what the span actually
    // guarantees, and they are deterministic.
    let model = small_model();
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 8, 13);

    let reg = MetricsRegistry::new(43, "client");
    let (ep_t, ep_c) = duplex();
    run_classification(&ep_t, &ep_c, &trainer, &client, &samples, &reg, 900);

    let report = reg.report();
    let classify = report.phase("classify").expect("classify span recorded");

    // Exactly one top-level classify session ran, and it took measurable time.
    assert_eq!(classify.count, 1, "one classify session, one span");
    assert!(classify.total_ns > 0, "span duration is non-zero");
    assert!(classify.min_ns <= classify.max_ns, "min/max ordering");
    assert!(classify.total_ns >= classify.max_ns, "total covers max");

    // The classify span is the outermost phase: every other recorded phase
    // nests inside it, so none can exceed its duration.
    assert!(
        report.phases.len() >= 2,
        "sub-phases recorded inside classify"
    );
    for phase in &report.phases {
        assert!(
            phase.total_ns <= classify.total_ns,
            "phase {:?} ({} ns) exceeds the enclosing classify span ({} ns)",
            phase.name,
            phase.total_ns,
            classify.total_ns
        );
    }
}

#[test]
fn concurrent_lanes_update_one_registry() {
    const LANES: usize = 4;
    let model = small_model();
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 4, 17);

    let reg = MetricsRegistry::new(44, "client");
    let (trainer_eps, client_eps) = duplex_pool(LANES);
    std::thread::scope(|scope| {
        for (i, (ep_t, ep_c)) in trainer_eps.iter().zip(&client_eps).enumerate() {
            let trainer = &trainer;
            let client = &client;
            let samples = &samples;
            let reg = &reg;
            scope.spawn(move || {
                run_classification(
                    ep_t,
                    ep_c,
                    trainer,
                    client,
                    samples,
                    reg,
                    1000 + 10 * i as u64,
                );
            });
        }
    });

    let report = reg.report();
    let total_sent: u64 = client_eps.iter().map(|ep| ep.stats().bytes_sent).sum();
    let total_received: u64 = client_eps.iter().map(|ep| ep.stats().bytes_received).sum();
    assert_eq!(report.bytes_sent(), total_sent);
    assert_eq!(report.bytes_received(), total_received);
    assert_eq!(
        report
            .phase("classify")
            .expect("spans from every lane")
            .count,
        LANES as u64
    );
    assert!(report.rounds >= LANES as u64);
}

#[test]
fn similarity_report_records_phase_and_wire() {
    let cfg = SimilarityConfig::default();
    let model_a = rotated_model(2, 15.0, 4, Kernel::Linear);
    let model_b = rotated_model(2, 60.0, 5, Kernel::Linear);
    let want = similarity_plain(&model_a, &model_b, &cfg).unwrap();
    let sel = TrustedSimOt.select();

    let reg = MetricsRegistry::new(45, "requester");
    let (ep_a, ep_b) = duplex();
    let got = std::thread::scope(|scope| {
        let model_a = &model_a;
        let cfg_ref = &cfg;
        let a = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(70);
            let mut eng = ProtocolEngine::new(|io| async move {
                similarity_respond_io(
                    &FixedFpAlgebra::new(16),
                    &io,
                    sel,
                    &mut rng,
                    model_a,
                    cfg_ref,
                )
                .await
            });
            drive_blocking(&ep_a, &mut eng).expect("respond")
        });
        let mut rng = StdRng::seed_from_u64(71);
        let mut driver = Driver::new().with_metrics(reg.clone());
        let mut eng = ProtocolEngine::new(|io| async move {
            similarity_request_io(&FixedFpAlgebra::new(16), &io, sel, &mut rng, &model_b, &cfg)
                .await
        });
        let got = driver.drive(&ep_b, &mut eng).expect("request");
        a.join().expect("responder thread");
        got
    });
    assert!((got - want).abs() < 1e-6 * want.max(1.0));

    let report = reg.report();
    let stats = ep_b.stats();
    assert_eq!(
        report.total_wire_bytes(),
        stats.bytes_sent + stats.bytes_received
    );
    assert_eq!(report.phase("similarity").expect("span recorded").count, 1);
    assert!(
        report.phase("kn_ot").is_some(),
        "OT spans nest inside the similarity session"
    );
}

/// Captures the complete trace of a full classification session and
/// checks it for privacy-cleanliness: every line has the compact
/// `key=value` shape with a known key set, and none of the secret
/// inputs (model weights, bias, client samples) appear anywhere in it.
#[test]
fn trace_output_is_privacy_clean() {
    let model = small_model();
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = random_samples(3, 5, 23);

    let captured: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    ppcs_telemetry::set_trace_sink(Some(Box::new(move |line| {
        sink.lock().unwrap().push(line.to_string());
    })));
    ppcs_telemetry::set_trace(true);

    let sel = TrustedSimOt.select();
    let reg_t = MetricsRegistry::new(46, "trainer");
    let reg_c = MetricsRegistry::new(46, "client");
    let (ep_t, ep_c) = duplex();
    std::thread::scope(|scope| {
        let trainer = &trainer;
        let reg_t = reg_t.clone();
        let t = scope.spawn(move || {
            let mut eng = trainer.serve_engine(sel, 600);
            let mut driver = Driver::new().with_metrics(reg_t);
            driver.drive(&ep_t, &mut eng).expect("serve")
        });
        let mut driver = Driver::new().with_metrics(reg_c.clone());
        let mut eng = client.classify_engine(sel, 601, &samples);
        driver.drive(&ep_c, &mut eng).expect("classify");
        t.join().expect("trainer thread");
    });

    ppcs_telemetry::set_trace(false);
    ppcs_telemetry::set_trace_sink(None);
    let lines = captured.lock().unwrap().clone();
    assert!(!lines.is_empty(), "tracing was on; spans must have emitted");

    // Structural check: compact key=value lines, known keys only.
    const KNOWN_KEYS: &[&str] = &[
        "span",
        "warn",
        "session",
        "role",
        "elapsed_us",
        "frame",
        "round",
        // Appended by reactor-scoped collectors (`TraceScope`): the
        // owning connection as `slot.epoch` plus the session sequence.
        "conn",
        "seq",
    ];
    for line in &lines {
        let rest = line
            .strip_prefix("[ppcs] ")
            .unwrap_or_else(|| panic!("unexpected trace line shape: {line:?}"));
        for token in rest.split(' ') {
            let (key, _value) = token
                .split_once('=')
                .unwrap_or_else(|| panic!("token {token:?} is not key=value in {line:?}"));
            assert!(
                KNOWN_KEYS.contains(&key),
                "unknown trace key {key:?} in {line:?}"
            );
        }
    }

    // Content check: no secret value, formatted any of the ways the
    // codebase formats floats, appears in the trace.
    let trace = lines.join("\n");
    let mut secrets: Vec<f64> = Vec::new();
    secrets.extend(model.linear_weights().expect("linear model"));
    secrets.push(model.bias());
    secrets.extend(samples.iter().flatten());
    for s in secrets {
        for formatted in [format!("{s}"), format!("{s:.6}"), format!("{s:e}")] {
            assert!(
                !trace.contains(&formatted),
                "secret value {formatted} leaked into the trace"
            );
        }
    }
}
