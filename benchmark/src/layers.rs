//! The traced run: per-layer metrics for one workload.
//!
//! A traced run issues one tenth of the workload's requests twice —
//! once with nothing attached, once with the harness's span list and a
//! [`MetricsRegistry`](ppcs_telemetry::MetricsRegistry) on each party —
//! then climbs the layer ladder and prints every metric of
//! [`PER_LAYER`]. End-to-end metrics never come from here.
//!
//! A metric reads 0 when the workload's traced run does not measure
//! it: its layer is not on the workload's path (`fleet.*` on an
//! in-memory workload), or it is a second-scale MODP-2048 rung that
//! belongs to another workload's run (`README.md` has the table).

use std::collections::BTreeMap;
use std::path::PathBuf;

use ppcs_crypto::DhGroup;
use ppcs_ot::{IknpOt, ObliviousTransfer};
use ppcs_telemetry::SessionReport;

use crate::inputs::{classify_inputs, derive, similarity_inputs, ModelKind, STREAM_LADDER};
use crate::ladder::{self, Shape, CALLS, SLOW_CALLS};
use crate::run::{closed_loop, run, Metric, Run};
use crate::stats::{median, percentile, supports_percentile};
use crate::trace::Tracer;
use crate::workloads::{
    np2048, Instance, MemClassify, MemSimilarity, Observers, TcpDirect, Workload, POLY_BATCH, SIM,
};

/// Fewest requests a traced pass issues.
pub const MIN_TRACED_REQUESTS: usize = 8;

/// One per-layer metric: name, unit, and which direction is better.
pub type LayerMetric = (&'static str, &'static str, &'static str);

/// Every per-layer metric, in report order. `BENCHMARK.json` lists
/// exactly these (a test holds the two together).
pub const PER_LAYER: [LayerMetric; 66] = [
    // crypto
    ("crypto.modexp2048_ms", "ms", "lower"),
    ("crypto.power_g2048_ms", "ms", "lower"),
    ("crypto.modexp768_ms", "ms", "lower"),
    ("crypto.chacha20_mb_per_s", "MB/s", "higher"),
    ("crypto.sha256_mb_per_s", "MB/s", "higher"),
    // ot
    ("ot.base12_np2048_ms", "ms", "lower"),
    ("ot.kn_4of8_np2048_ms", "ms", "lower"),
    ("ot.kn_13of26_np2048_ms", "ms", "lower"),
    ("ot.kn_4of8_iknp768_ms", "ms", "lower"),
    ("ot.kn_4of8_sim_us", "us", "lower"),
    ("ot.kn_10of20_sim_us", "us", "lower"),
    ("ot.kn_13of26_sim_us", "us", "lower"),
    ("ot.base_ots_per_result", "count", "lower"),
    ("ot.share_of_request", "ratio", "lower"),
    // ompe
    ("ompe.round_np2048_ms", "ms", "lower"),
    ("ompe.round_lin8_sim_us", "us", "lower"),
    ("ompe.round_poly2600_sim_ms", "ms", "lower"),
    ("ompe.round_area_sim_us", "us", "lower"),
    ("ompe.mask_us_per_result", "us", "lower"),
    ("ompe.point_cloud_us_per_result", "us", "lower"),
    ("ompe.interpolate_us_per_result", "us", "lower"),
    // math
    ("math.fp_mul_ns", "ns", "lower"),
    ("math.eval_cloud_ns_per_point", "ns", "lower"),
    ("math.interp_zero_m4_us", "us", "lower"),
    ("math.interp_zero_m13_us", "us", "lower"),
    ("math.interp_batch64_us", "us", "lower"),
    ("math.simd_backend", "count", "higher"),
    // classify
    ("classify.session_mem_ms", "ms", "lower"),
    ("classify.online_only_us", "us", "lower"),
    ("classify.trainer_new_ms", "ms", "lower"),
    ("classify.phase_coverage", "ratio", "higher"),
    ("classify.overhead_vs_plain", "ratio", "lower"),
    // similarity
    ("similarity.geometry_us", "us", "lower"),
    ("similarity.session_mem_us", "us", "lower"),
    ("similarity.plain_ns", "ns", "lower"),
    ("similarity.session_np2048_s", "s", "lower"),
    // precompute
    ("precompute.fill_one_us", "us", "lower"),
    ("precompute.pool_hit_share", "ratio", "higher"),
    ("precompute.warm_share", "ratio", "higher"),
    // transport
    ("transport.connect_us", "us", "lower"),
    ("transport.roundtrip_mem_us", "us", "lower"),
    ("transport.roundtrip_tcp_64b_us", "us", "lower"),
    ("transport.roundtrip_tcp_1mb_ms", "ms", "lower"),
    ("transport.encode_mb_per_s", "MB/s", "higher"),
    ("transport.decode_mb_per_s", "MB/s", "higher"),
    ("transport.reactor_wakeups_per_session", "count", "lower"),
    ("transport.timer_fires_per_session", "count", "lower"),
    ("transport.loop_lag_p50_us", "us", "lower"),
    // server
    ("server.session_tcp_ms", "ms", "lower"),
    ("server.admitted", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.p50_drift", "ratio", "lower"),
    // fleet
    ("fleet.call_ms", "ms", "lower"),
    ("fleet.probe_us", "us", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("fleet.hedges_fired", "count", "lower"),
    ("fleet.breaker_opens", "count", "lower"),
    // telemetry, and the whole process
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("process.cpu_ms_per_result", "ms", "lower"),
    ("process.request_p50_ms", "ms", "lower"),
    ("process.request_p90_ms", "ms", "lower"),
    ("process.results_per_s", "1/s", "higher"),
    // references
    ("svm.train_s", "s", "lower"),
    ("svm.predict_ns", "ns", "lower"),
    ("paillier.ms_per_result_2048", "ms", "lower"),
    ("classify.np2048_over_paillier2048", "ratio", "lower"),
];

/// Values collected so far, keyed by metric name.
struct Layers {
    values: BTreeMap<&'static str, f64>,
    tracer: std::sync::Arc<Tracer>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.values.insert(name, value);
    }

    /// Measures one ladder rung inside a span named after its metric.
    fn rung(&mut self, name: &'static str, f: impl FnOnce() -> f64) -> f64 {
        let tracer = self.tracer.clone();
        let value = tracer.scoped(name, f);
        self.set(name, value);
        value
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What a traced run reports.
pub struct TracedReport {
    /// Every metric of [`PER_LAYER`], in order.
    pub metrics: Vec<Metric>,
    /// Results attempted across both passes.
    pub attempted: u64,
    /// Results that failed across both passes.
    pub failed: u64,
    /// `process.request_p50_ms`: the median request latency of the pass
    /// with nothing attached — what the top rung of the ladder should
    /// come within 10 % of.
    pub untraced_p50_ms: f64,
    /// The ladder, top rung first: `(metric, milliseconds)`.
    pub ladder: Vec<(&'static str, f64)>,
    /// Where the Chrome trace was written.
    pub trace_path: PathBuf,
}

/// Requests per pass of a traced run sized for `seconds`.
pub fn traced_requests(workload: Workload, seconds: u64) -> usize {
    (workload.requests_for(seconds) / 10).max(MIN_TRACED_REQUESTS)
}

fn phase_ns(report: &SessionReport, name: &str) -> f64 {
    report.phase(name).map_or(0.0, |p| p.total_ns as f64)
}

/// Time inside the session phase's children ÷ time inside the session
/// phase, on the load-generating side.
fn phase_coverage(client: &SessionReport, parent: &str) -> f64 {
    let children: f64 = [
        "base_ot",
        "kn_ot",
        "ot_ext",
        "ompe.mask",
        "ompe.point_cloud",
        "ompe.interpolate",
    ]
    .iter()
    .map(|p| phase_ns(client, p))
    .sum();
    let total = phase_ns(client, parent);
    if total > 0.0 {
        children / total
    } else {
        0.0
    }
}

fn p50_ms(run: &Run) -> f64 {
    percentile(&run.stats.latencies_ms, 50.0)
}

/// Median request latency of `instance` over `requests` requests, ms.
fn instance_p50_ms(mut instance: Box<dyn Instance>, requests: usize) -> f64 {
    let stats = closed_loop(instance.as_mut(), 0, requests, &Observers::default());
    assert_eq!(stats.failed(), 0, "ladder session failed its oracle check");
    instance.finish();
    median(&stats.latencies_ms)
}

/// Runs `workload`'s traced run for `seed`, sized from `seconds`, and
/// writes `out/trace_<workload>.json` under the benchmark's directory.
pub fn traced_run(workload: Workload, seed: u64, seconds: u64) -> TracedReport {
    let requests = traced_requests(workload, seconds);
    let ladder_seed = derive(seed, STREAM_LADDER);

    // The two passes: identical work, observers off then on.
    let plain = run(workload, seed, requests, 1, &Observers::default());
    let obs = Observers::tracing();
    let traced = run(workload, seed, requests, 1, &obs);
    let tracer = obs.tracer.clone().expect("tracing observers");
    let client = obs.client.as_ref().expect("client registry").report();
    let server = obs.server.as_ref().expect("server registry").report();
    let results = traced.stats.correct.max(1) as f64;
    let plain_p50_ms = p50_ms(&plain);
    let traced_p50_ms = p50_ms(&traced);

    let mut l = Layers {
        values: BTreeMap::new(),
        tracer: tracer.clone(),
    };
    l.set(
        "telemetry.overhead_ratio",
        traced.stats.wall_s / plain.stats.wall_s,
    );
    l.set("process.cpu_ms_per_result", plain.stats.cpu_ms_per_result());
    // The latency distribution and the throughput as the host let them
    // be, neighbours included: too unsteady on a shared host to bound
    // end to end, still what a user of this machine would have seen.
    l.set("process.request_p50_ms", plain_p50_ms);
    if supports_percentile(requests, 90.0) {
        l.set(
            "process.request_p90_ms",
            percentile(&plain.stats.latencies_ms, 90.0),
        );
    }
    l.set(
        "process.results_per_s",
        plain.stats.correct as f64 / plain.stats.wall_s,
    );
    let tenth = (requests / 10).max(1);
    let lat = &traced.stats.latencies_ms;
    l.set(
        "server.p50_drift",
        median(&lat[requests - tenth..]) / median(&lat[..tenth]),
    );
    for (metric, phase) in [
        ("ompe.mask_us_per_result", "ompe.mask"),
        ("ompe.point_cloud_us_per_result", "ompe.point_cloud"),
        ("ompe.interpolate_us_per_result", "ompe.interpolate"),
    ] {
        l.set(
            metric,
            (phase_ns(&client, phase) + phase_ns(&server, phase)) / 1e3 / results,
        );
    }
    let setup = traced.setups[0];
    l.set("svm.train_s", setup.train_s);

    // crypto — the two MODP-2048 primitives cost ~12 ms a call, so they
    // are cheap enough to time on every workload.
    let g2048 = DhGroup::modp_2048();
    let modexp2048 = l.rung("crypto.modexp2048_ms", || {
        ladder::modexp_ms(g2048, ladder_seed, 5)
    });
    let power_g2048 = l.rung("crypto.power_g2048_ms", || {
        ladder::power_g_ms(g2048, ladder_seed, 5)
    });
    l.rung("crypto.modexp768_ms", || {
        ladder::modexp_ms(DhGroup::modp_768(), ladder_seed, 11)
    });
    l.rung("crypto.chacha20_mb_per_s", ladder::chacha20_mb_per_s);
    l.rung("crypto.sha256_mb_per_s", ladder::sha256_mb_per_s);

    // ot / ompe under the ideal functionality: microseconds, everywhere.
    let sim = SIM.select();
    let kn_sim = |l: &mut Layers, name, k, n| {
        l.rung(name, || {
            ladder::kn_transfer_ns(sim, Shape::Session, k, n, ladder_seed, CALLS) / 1e3
        })
    };
    let kn_4of8_sim_us = kn_sim(&mut l, "ot.kn_4of8_sim_us", 4, 8);
    let kn_10of20_sim_us = kn_sim(&mut l, "ot.kn_10of20_sim_us", 10, 20);
    let kn_13of26_sim_us = kn_sim(&mut l, "ot.kn_13of26_sim_us", 13, 26);
    let lin8 = ladder::affine_secret(8, ladder_seed);
    let lin_params = ladder::ompe_params(1);
    let round_lin8_sim_us = l.rung("ompe.round_lin8_sim_us", || {
        ladder::ompe_round_ns(sim, Shape::Session, &lin8, &lin_params, ladder_seed, CALLS) / 1e3
    });
    let round_poly_sim_ms = l.rung("ompe.round_poly2600_sim_ms", || {
        let secret = ladder::affine_secret(2600, ladder_seed);
        let params = ladder::ompe_params(3);
        ladder::ompe_round_ns(sim, Shape::Session, &secret, &params, ladder_seed, 11) / 1e6
    });
    let round_area_sim_us = l.rung("ompe.round_area_sim_us", || {
        let secret = ladder::area_secret(ladder_seed);
        let params = ladder::ompe_params(4);
        ladder::ompe_round_ns(sim, Shape::SingleShot, &secret, &params, ladder_seed, CALLS) / 1e3
    });

    // math
    l.rung("math.fp_mul_ns", || ladder::fp_mul_ns(ladder_seed));
    l.rung("math.eval_cloud_ns_per_point", || {
        ladder::eval_cloud_ns_per_point(ladder_seed)
    });
    l.rung("math.interp_zero_m4_us", || {
        ladder::interp_zero_us(4, ladder_seed)
    });
    l.rung("math.interp_zero_m13_us", || {
        ladder::interp_zero_us(13, ladder_seed)
    });
    l.rung("math.interp_batch64_us", || {
        ladder::interp_batch64_us(ladder_seed)
    });
    l.set("math.simd_backend", ladder::simd_backend_code());

    // transport
    l.rung("transport.connect_us", ladder::connect_us);
    l.rung("transport.roundtrip_mem_us", ladder::roundtrip_mem_us);
    l.rung("transport.roundtrip_tcp_64b_us", || {
        ladder::roundtrip_tcp_ns(64, CALLS) / 1e3
    });
    l.rung("transport.roundtrip_tcp_1mb_ms", || {
        ladder::roundtrip_tcp_ns(1 << 20, 11) / 1e6
    });
    let (encode, decode) = tracer.scoped("transport.codec", || ladder::codec_mb_per_s(ladder_seed));
    l.set("transport.encode_mb_per_s", encode);
    l.set("transport.decode_mb_per_s", decode);

    // classify / precompute / similarity rungs that every workload can
    // afford: the interactive linear model under the ideal OT.
    let diabetes = classify_inputs(ModelKind::DiabetesLinear, seed);
    l.rung("classify.online_only_us", || {
        ladder::classify_online_only_us(&diabetes, ladder_seed)
    });
    let predict_ns = l.rung("svm.predict_ns", || ladder::svm_predict_ns(&diabetes));
    l.rung("precompute.fill_one_us", || {
        ladder::precompute_fill_one_us(ladder_seed)
    });
    let sim_inputs = similarity_inputs();
    l.rung("similarity.geometry_us", || {
        ladder::similarity_geometry_us(&sim_inputs)
    });
    l.rung("similarity.plain_ns", || {
        ladder::similarity_plain_ns(&sim_inputs)
    });

    // What is left depends on the workload: its own top rungs, the
    // counters of the layers it runs through, and the second-scale
    // MODP-2048 rungs that belong to it.
    let none = Observers::default();
    let mut rungs: Vec<(&'static str, f64)> = Vec::new();
    let (ot_ms_per_request, base_ots) = match workload {
        Workload::ColdNp2048Tcp => {
            l.set("server.session_tcp_ms", traced_p50_ms);
            let session_mem = l.rung("classify.session_mem_ms", || {
                let (i, _) = MemClassify::new(diabetes.clone(), np2048(), 1, seed, &none);
                instance_p50_ms(Box::new(i), SLOW_CALLS)
            });
            let np = np2048().select();
            let round = l.rung("ompe.round_np2048_ms", || {
                ladder::ompe_round_ns(
                    np,
                    Shape::Session,
                    &lin8,
                    &lin_params,
                    ladder_seed,
                    SLOW_CALLS,
                ) / 1e6
            });
            let kn = l.rung("ot.kn_4of8_np2048_ms", || {
                ladder::kn_transfer_ns(np, Shape::Session, 4, 8, ladder_seed, SLOW_CALLS) / 1e6
            });
            let base12 = l.rung("ot.base12_np2048_ms", || {
                ladder::base_ots_ms(g2048, 12, ladder_seed, SLOW_CALLS)
            });
            let paillier = l.rung("paillier.ms_per_result_2048", || {
                ladder::paillier_ms_per_result(&diabetes, ladder_seed)
            });
            l.set("classify.np2048_over_paillier2048", plain_p50_ms / paillier);
            rungs.extend([
                ("server.session_tcp_ms", traced_p50_ms),
                ("classify.session_mem_ms", session_mem),
                ("ompe.round_np2048_ms", round),
                ("ot.kn_4of8_np2048_ms", kn),
                ("ot.base12_np2048_ms", base12),
                // 12 base OTs: per OT one fixed-base power on each side
                // and two variable-base powers for the sender's pads
                // plus one for the receiver's.
                (
                    "crypto.modexp2048_ms",
                    12.0 * (3.0 * modexp2048 + 2.0 * power_g2048),
                ),
            ]);
            (kn, ladder::base_ots_classify(1))
        }
        Workload::FleetSimTcp => {
            l.set("fleet.call_ms", traced_p50_ms);
            let session_tcp = l.rung("server.session_tcp_ms", || {
                let config = ppcs_core::ServerConfig::default();
                let (i, _) = TcpDirect::new(diabetes.clone(), &SIM, config, true, seed, &none);
                instance_p50_ms(Box::new(i), 3 * CALLS)
            });
            let session_mem = l.rung("classify.session_mem_ms", || {
                let (i, _) = MemClassify::new(diabetes.clone(), &SIM, 1, seed, &none);
                instance_p50_ms(Box::new(i), 3 * CALLS)
            });
            // Today's per-transfer κ = 128 base-OT set-up of the
            // extension engine: the before-row for persisting it.
            l.rung("ot.kn_4of8_iknp768_ms", || {
                let iknp = IknpOt::fast_insecure().select();
                ladder::kn_transfer_ns(iknp, Shape::Session, 4, 8, ladder_seed, SLOW_CALLS) / 1e6
            });
            let (probe_ns, probes) = tracer.total_ns("fleet.probe");
            l.set(
                "fleet.probe_us",
                probe_ns as f64 / 1e3 / probes.max(1) as f64,
            );
            l.set("fleet.failovers", client.failovers as f64);
            l.set("fleet.hedges_fired", client.hedges_fired as f64);
            l.set("fleet.breaker_opens", client.breaker_opens as f64);
            let taken = (server.pool_hits + server.pool_misses).max(1) as f64;
            l.set("precompute.pool_hit_share", server.pool_hits as f64 / taken);
            rungs.extend([
                ("fleet.call_ms", traced_p50_ms),
                ("server.session_tcp_ms", session_tcp),
                ("classify.session_mem_ms", session_mem),
                ("ompe.round_lin8_sim_us", round_lin8_sim_us / 1e3),
                ("ot.kn_4of8_sim_us", kn_4of8_sim_us / 1e3),
            ]);
            (kn_4of8_sim_us / 1e3, ladder::base_ots_classify(1))
        }
        Workload::PolyBatchFp256 => {
            l.set("classify.session_mem_ms", traced_p50_ms);
            rungs.extend([
                ("classify.session_mem_ms", traced_p50_ms),
                (
                    "ompe.round_poly2600_sim_ms",
                    POLY_BATCH as f64 * round_poly_sim_ms,
                ),
                (
                    "ot.kn_10of20_sim_us",
                    POLY_BATCH as f64 * kn_10of20_sim_us / 1e3,
                ),
            ]);
            (
                POLY_BATCH as f64 * kn_10of20_sim_us / 1e3,
                ladder::base_ots_classify(3),
            )
        }
        Workload::SimilarityFp256 => {
            l.set("similarity.session_mem_us", traced_p50_ms * 1e3);
            let np = np2048().select();
            l.rung("ot.kn_13of26_np2048_ms", || {
                ladder::kn_transfer_ns(np, Shape::SingleShot, 13, 26, ladder_seed, 1) / 1e6
            });
            l.rung("similarity.session_np2048_s", || {
                let i = MemSimilarity::new(sim_inputs.clone(), np2048(), seed, &none);
                instance_p50_ms(Box::new(i), 2) / 1e3
            });
            // The same ≥0.95 expectation, against the session phase
            // this workload runs under.
            l.set(
                "classify.phase_coverage",
                phase_coverage(&client, "similarity"),
            );
            let ompe_ms = (2.0 * round_lin8_sim_us + round_area_sim_us) / 1e3;
            let ot_ms = (2.0 * kn_4of8_sim_us + kn_13of26_sim_us) / 1e3;
            rungs.extend([
                ("similarity.session_mem_us", traced_p50_ms),
                ("ompe.round_area_sim_us", ompe_ms),
                ("ot.kn_13of26_sim_us", ot_ms),
            ]);
            (ot_ms, ladder::base_ots_similarity())
        }
    };
    l.set("ot.share_of_request", ot_ms_per_request / plain_p50_ms);
    l.set("ot.base_ots_per_result", base_ots as f64);

    if workload != Workload::SimilarityFp256 {
        // The similarity session as a standalone rung, and the
        // classification-only derived metrics.
        l.rung("similarity.session_mem_us", || {
            let i = MemSimilarity::new(sim_inputs.clone(), &SIM, seed, &none);
            instance_p50_ms(Box::new(i), CALLS) * 1e3
        });
        l.set("classify.trainer_new_ms", setup.trainer_new_s * 1e3);
        l.set(
            "classify.phase_coverage",
            phase_coverage(&client, "classify"),
        );
        let plain_predict_ms = predict_ns / 1e6;
        l.set(
            "classify.overhead_vs_plain",
            plain_p50_ms / (plain_predict_ms * traced.stats.attempted as f64 / requests as f64),
        );
    }

    // Serving-side counters, where a reactor served the requests.
    if !traced.summaries.is_empty() {
        let admitted: u64 = traced.summaries.iter().map(|s| s.sessions_admitted).sum();
        let shed: u64 = traced.summaries.iter().map(|s| s.sessions_shed).sum();
        let sessions = admitted.max(1) as f64;
        l.set("server.admitted", admitted as f64);
        l.set("server.shed", shed as f64);
        l.set(
            "transport.reactor_wakeups_per_session",
            server.reactor_wakeups as f64 / sessions,
        );
        l.set(
            "transport.timer_fires_per_session",
            server.timer_fires as f64 / sessions,
        );
        l.set(
            "transport.loop_lag_p50_us",
            server
                .reactor_metric("loop_lag_ns")
                .map_or(0.0, |h| h.p50 as f64 / 1e3),
        );
    }
    if workload == Workload::FleetSimTcp {
        // Sessions opened with a warm hello ÷ sessions, from the
        // client registry's per-kind wire table (the fleet's drivers
        // report into it).
        let sent = |kind: u16| client.kind(kind).map_or(0, |k| k.frames_sent) as f64;
        let (cold, warm) = (sent(KIND_CLS_HELLO), sent(KIND_CLS_WARM_HELLO));
        assert!(
            cold + warm > 0.0,
            "no hello frame seen: the classify frame kinds moved"
        );
        l.set("precompute.warm_share", warm / (cold + warm));
    }

    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&out_dir).expect("create benchmark/out");
    let trace_path = out_dir.join(format!("trace_{}.json", workload.name()));
    std::fs::write(&trace_path, tracer.to_chrome_json()).expect("write trace");

    TracedReport {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, l.get(name)))
            .collect(),
        attempted: plain.stats.attempted + traced.stats.attempted,
        failed: plain.stats.failed() + traced.stats.failed(),
        untraced_p50_ms: plain_p50_ms,
        ladder: rungs,
        trace_path,
    }
}

/// Frame kinds of the cold and warm classification hellos
/// (`crates/core/src/classify.rs`; wire constants, not exported).
const KIND_CLS_HELLO: u16 = 0x0500;
const KIND_CLS_WARM_HELLO: u16 = 0x0503;

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_telemetry::json::Json;

    /// The whole traced path at a small size: both passes, the ladder,
    /// the counters of a healthy fleet, and the trace file.
    #[test]
    fn a_traced_fleet_run_reports_every_layer_and_a_healthy_fleet() {
        let report = traced_run(Workload::FleetSimTcp, 9, 1);
        assert_eq!(report.failed, 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} not reported"))
                .2
        };
        for name in [
            "server.shed",
            "fleet.failovers",
            "fleet.hedges_fired",
            "fleet.breaker_opens",
        ] {
            assert_eq!(value(name), 0.0, "{name} on a healthy fleet");
        }
        for name in [
            "fleet.call_ms",
            "fleet.probe_us",
            "server.session_tcp_ms",
            "classify.session_mem_ms",
            "ompe.round_lin8_sim_us",
            "ot.kn_4of8_sim_us",
            "crypto.modexp2048_ms",
            "math.fp_mul_ns",
            "transport.connect_us",
            "telemetry.overhead_ratio",
        ] {
            assert!(value(name) > 0.0, "{name} = {}", value(name));
        }
        let warm = value("precompute.warm_share");
        assert!(warm > 0.9 && warm < 1.0, "warm_share = {warm}");
        assert_eq!(value("ot.base_ots_per_result"), 12.0);
        // One session per request plus the warm-up, all on replica 0.
        let requests = traced_requests(Workload::FleetSimTcp, 1) as f64;
        assert_eq!(value("server.admitted"), requests + 1.0);
        // The top rung is the traced pass's own median; the untraced
        // pass must agree with it to within scheduling noise.
        assert_eq!(report.ladder[0].0, "fleet.call_ms");
        assert!(report.untraced_p50_ms > 0.0);

        let text = std::fs::read_to_string(&report.trace_path).expect("trace file");
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Spans of timed requests carry a request id; the warm-up
        // request's and the ladder's do not.
        let count = |name: &str, in_request: bool| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .filter(|e| {
                    let id = e.get("args").and_then(|a| a.get("request_id"));
                    id.and_then(Json::as_u64).is_some() == in_request
                })
                .count() as f64
        };
        for name in ["request", "fleet.call", "fleet.probe", "server.session"] {
            assert_eq!(count(name, true), requests, "{name}");
        }
        assert_eq!(count("fleet.call", false), 1.0, "the warm-up call");
        assert_eq!(count("crypto.modexp2048_ms", false), 1.0);
    }
}
