//! The layer ladder: each layer's public entry points, called
//! standalone from here with the workloads' exact parameters.
//!
//! A rung's *self* time is its time minus the rung below
//! (`fleet → server → classify → ompe → ot → crypto`/`math`). OT and
//! OMPE rungs pump both parties' sans-I/O engines on this one thread
//! (`run_engine_pair`), so a rung's time is the two parties' work added
//! up with no scheduler in between — which is also what a closed-loop
//! request costs, since the parties of one session take turns.
//!
//! Every rung is the median of [`CALLS`] calls; second-scale rungs
//! (anything over MODP-2048) take [`SLOW_CALLS`].

use std::hint::black_box;
use std::net::TcpListener;
use std::time::Instant;

use ppcs_core::{
    similarity_plain, Client, ModelGeometry, PrecomputePool, ProtocolConfig, Trainer,
    WarmSessionCache,
};
use ppcs_crypto::{ChaCha20, DhGroup, Sha256};
use ppcs_math::{
    eval_cloud_many, interp_batch, interpolate_at_zero, simd_backend, Algebra, DenseAffine,
    FixedFpAlgebra, Fp256, MvPolynomial, PolyEval, SimdBackend,
};
use ppcs_ompe::{
    ompe_receive_batch_io, ompe_receive_io, ompe_send_batch_io, ompe_send_io, OmpeParams,
};
use ppcs_ot::{
    commit_c_io, ot12_receive_precommitted_io, ot12_send_precommitted_io, ot_begin_receive_io,
    ot_begin_send_io, ot_receive_io, ot_send_io, receive_c_io, ObliviousTransfer, OtBatchState,
    OtSelect,
};
use ppcs_paillier::{baseline_classify, baseline_serve, BaselineParams};
use ppcs_transport::{
    decode_seq, duplex, encode_seq, run_engine_pair, run_pair, tcp_accept, tcp_connect, Endpoint,
    Frame, ProtocolEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{ClassifyInputs, SimilarityInputs};
use crate::stats::median_ns;
use crate::workloads::{FRAC_BITS, SIM};

/// Calls per rung.
pub const CALLS: usize = 101;
/// Calls per second-scale rung.
pub const SLOW_CALLS: usize = 3;

/// The OMPE parameters of a degree-`degree_bound` secret under
/// `ProtocolConfig::default()` (σ = 3, ×2 decoys).
pub fn ompe_params(degree_bound: usize) -> OmpeParams {
    let cfg = ProtocolConfig::default();
    OmpeParams::new(degree_bound, cfg.sigma, cfg.decoy_factor).expect("valid OMPE parameters")
}

fn alg() -> FixedFpAlgebra {
    FixedFpAlgebra::new(FRAC_BITS)
}

/// Base OTs a k-of-N Naor–Pinkas transfer runs for one OMPE round of
/// `params`: one per selected message per index bit.
pub fn base_ots_per_round(params: &OmpeParams) -> u64 {
    let index_bits = usize::BITS - (params.num_points() - 1).max(1).leading_zeros();
    params.num_covers() as u64 * u64::from(index_bits)
}

/// Base OTs per result of a classification whose kernel has degree
/// `degree_bound`, and of one similarity evaluation (two linear rounds
/// and the degree-4 area round).
pub fn base_ots_classify(degree_bound: usize) -> u64 {
    base_ots_per_round(&ompe_params(degree_bound))
}

/// See [`base_ots_classify`].
pub fn base_ots_similarity() -> u64 {
    2 * base_ots_per_round(&ompe_params(1)) + base_ots_per_round(&ompe_params(4))
}

// ---------------------------------------------------------------------
// crypto
// ---------------------------------------------------------------------

/// `DhGroup::exp` with a random base and a full-width exponent, ms.
pub fn modexp_ms(group: &DhGroup, seed: u64, calls: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = group.power_g(&group.random_exponent(&mut rng));
    let e = group.random_exponent(&mut rng);
    median_ns(calls, || {
        black_box(group.exp(black_box(&base), black_box(&e)));
    }) / 1e6
}

/// `DhGroup::power_g` (fixed base `g`), ms.
pub fn power_g_ms(group: &DhGroup, seed: u64, calls: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let e = group.random_exponent(&mut rng);
    median_ns(calls, || {
        black_box(group.power_g(black_box(&e)));
    }) / 1e6
}

const MIB: usize = 1 << 20;

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// ChaCha20 keystream application over 1 MiB, MB/s.
pub fn chacha20_mb_per_s() -> f64 {
    let mut buf = vec![0u8; MIB];
    let cipher = ChaCha20::new(&[7u8; 32], &[1u8; 12], 0);
    mb_per_s(
        MIB,
        median_ns(11, || {
            cipher.apply(black_box(&mut buf));
        }),
    )
}

/// SHA-256 over 1 MiB, MB/s.
pub fn sha256_mb_per_s() -> f64 {
    let buf = vec![0x5au8; MIB];
    mb_per_s(
        MIB,
        median_ns(11, || {
            black_box(Sha256::digest(black_box(&buf)));
        }),
    )
}

// ---------------------------------------------------------------------
// ot
// ---------------------------------------------------------------------

/// Commitment exchange plus `n` precommitted 1-of-2 base OTs of 32-byte
/// keys — the public-key core of one `k·log₂N = n` transfer — in ms.
pub fn base_ots_ms(group: &'static DhGroup, n: u64, seed: u64, calls: usize) -> f64 {
    median_ns(calls, || {
        let mut rng_s = StdRng::seed_from_u64(seed);
        let mut rng_r = StdRng::seed_from_u64(seed + 1);
        let mut send = ProtocolEngine::new(|io| async move {
            let c = commit_c_io(group, &io, &mut rng_s)?;
            for tag in 0..n {
                ot12_send_precommitted_io(group, &io, &mut rng_s, &[1; 32], &[2; 32], tag, &c)
                    .await?;
            }
            Ok::<_, ppcs_ot::OtError>(())
        });
        let mut recv = ProtocolEngine::new(|io| async move {
            let c = receive_c_io(group, &io).await?;
            for tag in 0..n {
                let got =
                    ot12_receive_precommitted_io(group, &io, &mut rng_r, tag % 2 == 1, tag, &c)
                        .await?;
                assert_eq!(
                    got[0],
                    1 + (tag % 2) as u8,
                    "base OT delivered the wrong key"
                );
            }
            Ok::<_, ppcs_ot::OtError>(())
        });
        let (s, r) = run_engine_pair(&mut send, &mut recv).expect("base OT engines");
        s.expect("base OT sender");
        r.expect("base OT receiver");
    }) / 1e6
}

/// How an OMPE round (and the k-of-N transfer inside it) is set up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Inside a batch session, as classification runs it: the OT base
    /// phase (Naor–Pinkas: the commitment `C`) is set up once and
    /// shared by every base OT of the transfer.
    Session,
    /// Single-shot, as each round of the similarity protocol runs it:
    /// no shared state, so under Naor–Pinkas every base OT commits its
    /// own `C` (one more fixed-base power each).
    SingleShot,
}

/// One k-of-N transfer of 32-byte messages (one field element each, as
/// OMPE answers are) through `sel`, in ns.
pub fn kn_transfer_ns(
    sel: OtSelect,
    shape: Shape,
    k: usize,
    n: usize,
    seed: u64,
    calls: usize,
) -> f64 {
    let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    // k distinct positions drawn from the seed, as an OMPE receiver's
    // cover positions are: their index bits are an even mix of 0 and 1.
    let mut positions: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d);
    for i in 0..k {
        positions.swap(i, rng.gen_range(i..n));
    }
    let indices = positions[..k].to_vec();
    median_ns(calls, || {
        let mut rng_s = StdRng::seed_from_u64(seed);
        let mut rng_r = StdRng::seed_from_u64(seed + 1);
        let (messages, indices) = (&messages, &indices);
        let mut send = ProtocolEngine::new(|io| async move {
            let state = match shape {
                Shape::Session => ot_begin_send_io(sel, &io, &mut rng_s).await?,
                Shape::SingleShot => OtBatchState::default(),
            };
            ot_send_io(sel, &state, &io, &mut rng_s, messages, k).await
        });
        let mut recv = ProtocolEngine::new(|io| async move {
            let state = match shape {
                Shape::Session => ot_begin_receive_io(sel, &io).await?,
                Shape::SingleShot => OtBatchState::default(),
            };
            ot_receive_io(sel, &state, &io, &mut rng_r, n, indices).await
        });
        let (s, r) = run_engine_pair(&mut send, &mut recv).expect("k-of-N engines");
        s.expect("k-of-N sender");
        let got = r.expect("k-of-N receiver");
        assert_eq!(
            got[0], messages[indices[0]],
            "k-of-N delivered the wrong message"
        );
    })
}

// ---------------------------------------------------------------------
// ompe
// ---------------------------------------------------------------------

/// One OMPE round of `secret` on a random input, in ns.
pub fn ompe_round_ns<P: PolyEval<FixedFpAlgebra>>(
    sel: OtSelect,
    shape: Shape,
    secret: &P,
    params: &OmpeParams,
    seed: u64,
    calls: usize,
) -> f64 {
    let alg = alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let input: Vec<f64> = (0..secret.num_vars())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let alpha: Vec<Fp256> = input.iter().map(|v| alg.encode(*v, 1)).collect();
    let expected = secret.eval(&alg, &alpha);
    median_ns(calls, || {
        let mut rng_s = StdRng::seed_from_u64(seed + 1);
        let mut rng_r = StdRng::seed_from_u64(seed + 2);
        let (alg, alphas) = (&alg, std::slice::from_ref(&alpha));
        let mut send = ProtocolEngine::new(|io| async move {
            match shape {
                Shape::Session => {
                    let secrets = std::slice::from_ref(secret);
                    ompe_send_batch_io(alg, &io, sel, &mut rng_s, secrets, params).await
                }
                Shape::SingleShot => ompe_send_io(alg, &io, sel, &mut rng_s, secret, params).await,
            }
        });
        let mut recv = ProtocolEngine::new(|io| async move {
            match shape {
                Shape::Session => ompe_receive_batch_io(alg, &io, sel, &mut rng_r, alphas, params)
                    .await
                    .map(|values| values[0]),
                Shape::SingleShot => {
                    ompe_receive_io(alg, &io, sel, &mut rng_r, &alphas[0], params).await
                }
            }
        });
        let (s, r) = run_engine_pair(&mut send, &mut recv).expect("OMPE engines");
        s.expect("OMPE sender");
        assert_eq!(
            r.expect("OMPE receiver"),
            expected,
            "OMPE returned P(α) wrong"
        );
    })
}

/// A dense affine secret over `vars` inputs — the shape of every
/// (expanded) SVM decision function.
pub fn affine_secret(vars: usize, seed: u64) -> DenseAffine<FixedFpAlgebra> {
    let alg = alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = (0..vars)
        .map(|_| alg.encode(rng.gen_range(-1.0..1.0), 1))
        .collect();
    DenseAffine::new(weights, alg.encode(rng.gen_range(-1.0..1.0), 2))
}

/// A two-variate degree-4 polynomial with the term structure of the
/// similarity protocol's area round (`x₁²`, `x₂²`, their products and
/// a constant).
pub fn area_secret(seed: u64) -> MvPolynomial<FixedFpAlgebra> {
    let alg = alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = || alg.encode(rng.gen_range(-1.0..1.0), 1);
    MvPolynomial::from_terms(
        2,
        vec![
            (c(), vec![2, 2]),
            (c(), vec![1, 2]),
            (c(), vec![0, 2]),
            (c(), vec![2, 0]),
            (c(), vec![1, 0]),
            (c(), vec![0, 0]),
        ],
    )
}

// ---------------------------------------------------------------------
// math
// ---------------------------------------------------------------------

/// One dependent `Fp256` multiplication, ns.
pub fn fp_mul_ns(seed: u64) -> f64 {
    const CHAIN: usize = 1 << 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (Fp256::random(&mut rng), Fp256::random(&mut rng));
    median_ns(11, || {
        let mut x = black_box(a);
        for _ in 0..CHAIN {
            x *= black_box(b);
        }
        black_box(x);
    }) / CHAIN as f64
}

/// `eval_cloud_many` of a degree-24 polynomial over 4096 points on the
/// process's dispatch backend, ns per point.
pub fn eval_cloud_ns_per_point(seed: u64) -> f64 {
    const POINTS: usize = 4096;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coeffs = vec![Fp256::ZERO; 25];
    let mut cloud = vec![Fp256::ZERO; POINTS];
    Fp256::random_fill(&mut rng, &mut coeffs);
    Fp256::random_fill(&mut rng, &mut cloud);
    let mut out = vec![Fp256::ZERO; POINTS];
    median_ns(11, || {
        eval_cloud_many(&coeffs, &cloud, &mut out);
        black_box(&out);
    }) / POINTS as f64
}

fn interp_system(m: usize, offset: u64, rng: &mut StdRng) -> Vec<(Fp256, Fp256)> {
    (0..m as u64)
        .map(|i| (Fp256::from_u64(1 + offset + i), Fp256::random(rng)))
        .collect()
}

/// `interpolate_at_zero` through `m` points (4 = a linear round's
/// covers, 13 = the area round's), µs.
pub fn interp_zero_us(m: usize, seed: u64) -> f64 {
    let alg = alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let system = interp_system(m, 0, &mut rng);
    median_ns(CALLS, || {
        black_box(interpolate_at_zero(&alg, black_box(&system)).expect("distinct abscissae"));
    }) / 1e3
}

/// `interp_batch` over 64 systems of 10 points (a degree-3 round's
/// covers) sharing one inversion, µs.
pub fn interp_batch64_us(seed: u64) -> f64 {
    let alg = alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let systems: Vec<_> = (0..64)
        .map(|s| interp_system(10, 64 * s, &mut rng))
        .collect();
    median_ns(11, || {
        black_box(interp_batch(&alg, black_box(&systems)).expect("distinct abscissae"));
    }) / 1e3
}

/// 1 when the batch kernels dispatch to AVX2, 0 for the scalar path.
pub fn simd_backend_code() -> f64 {
    match simd_backend() {
        SimdBackend::Avx2 => 1.0,
        SimdBackend::Scalar => 0.0,
    }
}

// ---------------------------------------------------------------------
// classify / precompute
// ---------------------------------------------------------------------

/// The online phase alone: warm ticket held, both parties' offline
/// packs drawn outside the timed region, engines pumped on this
/// thread. One sample of `inputs`' model through the ideal OT, µs.
pub fn classify_online_only_us(inputs: &ClassifyInputs, seed: u64) -> f64 {
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(alg(), &inputs.model, cfg).expect("trainer set-up");
    let client = Client::new(alg(), cfg);
    let sel = SIM.select();
    let cache = WarmSessionCache::new();
    cache.insert(0, trainer.spec(), trainer.epoch());
    let samples = &inputs.samples[..1];
    let mut online_ns = Vec::with_capacity(CALLS);
    for i in 0..CALLS as u64 {
        let mut rng = StdRng::seed_from_u64(seed + 3 * i);
        let material = trainer.precompute_material(sel, 1, &mut rng);
        let mut offline = client
            .precompute_material(sel, &trainer.spec(), 1, &mut rng)
            .expect("client offline material");
        let mut serve = trainer.serve_session_engine(sel, seed + 3 * i + 1, true, Some(material));
        let mut classify = client.classify_warm_engine(
            sel,
            seed + 3 * i + 2,
            samples,
            &cache,
            0,
            Some(&mut offline),
        );
        let start = Instant::now();
        let (served, values) = run_engine_pair(&mut serve, &mut classify).expect("online engines");
        online_ns.push(start.elapsed().as_nanos() as f64);
        served.expect("online serve");
        assert_eq!(
            values.expect("online classify")[0].0,
            inputs.expected[0],
            "online phase disagrees with the oracle"
        );
    }
    crate::stats::median(&online_ns) / 1e3
}

/// `SvmModel::predict` — the plaintext oracle — per sample, ns.
pub fn svm_predict_ns(inputs: &ClassifyInputs) -> f64 {
    let n = inputs.samples.len();
    median_ns(11, || {
        for s in &inputs.samples {
            black_box(inputs.model.predict(black_box(s)));
        }
    }) / n as f64
}

/// One `PrecomputePool::fill_one` with the server's default pack size
/// (16 masks) for a linear model under the ideal OT, µs.
pub fn precompute_fill_one_us(seed: u64) -> f64 {
    let pool = PrecomputePool::new(alg(), SIM.select(), ompe_params(1), CALLS, 16, seed);
    median_ns(CALLS, || {
        assert!(pool.fill_one(), "pool has room for every timed fill");
    }) / 1e3
}

// ---------------------------------------------------------------------
// similarity
// ---------------------------------------------------------------------

/// `ModelGeometry::from_model` (boundary enumeration and centroid) of
/// the requester's model, µs.
pub fn similarity_geometry_us(inputs: &SimilarityInputs) -> f64 {
    median_ns(CALLS, || {
        black_box(ModelGeometry::from_model(&inputs.model_b, &inputs.cfg).expect("geometry"));
    }) / 1e3
}

/// `similarity_plain` — the plaintext oracle — ns.
pub fn similarity_plain_ns(inputs: &SimilarityInputs) -> f64 {
    median_ns(CALLS, || {
        black_box(similarity_plain(&inputs.model_a, &inputs.model_b, &inputs.cfg).expect("plain"));
    })
}

// ---------------------------------------------------------------------
// transport
// ---------------------------------------------------------------------

/// `tcp_connect` to a loopback listener, µs.
pub fn connect_us() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let mut accepted = Vec::with_capacity(CALLS);
    let us = median_ns(CALLS, || {
        accepted.push(tcp_connect(addr).expect("connect"));
    }) / 1e3;
    // The kernel completed the handshakes against the backlog; take the
    // server halves out so both ends close cleanly.
    for _ in 0..CALLS {
        drop(tcp_accept(&listener).expect("accept"));
    }
    us
}

/// Echoes every frame back until the peer disconnects.
fn echo(ep: Endpoint) {
    while let Ok(frame) = ep.recv() {
        if ep.send(frame).is_err() {
            break;
        }
    }
}

fn roundtrip_ns(ours: &Endpoint, payload_len: usize, calls: usize) -> f64 {
    let payload = vec![0xa5u8; payload_len];
    median_ns(calls, || {
        ours.send(Frame::encode(0x7f00, &payload)).expect("send");
        let back = ours.recv().expect("echo");
        assert_eq!(
            back.payload.len(),
            payload.len() + 8,
            "echo changed the frame"
        );
    })
}

/// One frame there and back over an in-memory duplex, µs.
pub fn roundtrip_mem_us() -> f64 {
    let (theirs, ours) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(move || echo(theirs));
        let us = roundtrip_ns(&ours, 64, CALLS) / 1e3;
        drop(ours);
        us
    })
}

/// One frame of `payload_len` bytes there and back over TCP loopback,
/// ns.
pub fn roundtrip_tcp_ns(payload_len: usize, calls: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        scope.spawn(move || echo(tcp_accept(&listener).expect("accept")));
        let ours = tcp_connect(addr).expect("connect");
        let ns = roundtrip_ns(&ours, payload_len, calls);
        drop(ours);
        ns
    })
}

/// `encode_seq` and `decode_seq` of 1 MiB of field elements (the
/// point-cloud codec), MB/s each.
pub fn codec_mb_per_s(seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut elems = vec![Fp256::ZERO; MIB / 32];
    Fp256::random_fill(&mut rng, &mut elems);
    let mut encoded = bytes::BytesMut::new();
    let encode_ns = median_ns(11, || {
        encoded = bytes::BytesMut::with_capacity(MIB + 8);
        encode_seq(black_box(&elems), &mut encoded);
    });
    let wire = encoded.freeze();
    let decode_ns = median_ns(11, || {
        let mut input = wire.clone();
        let back: Vec<Fp256> = decode_seq(&mut input).expect("canonical encoding");
        assert_eq!(back.len(), elems.len());
        black_box(back);
    });
    (mb_per_s(MIB, encode_ns), mb_per_s(MIB, decode_ns))
}

// ---------------------------------------------------------------------
// paillier (reference comparator)
// ---------------------------------------------------------------------

/// The homomorphic baseline \[15\] at a 2048-bit modulus over five
/// samples of `inputs`' (linear) model, key generation included, ms
/// per result.
pub fn paillier_ms_per_result(inputs: &ClassifyInputs, seed: u64) -> f64 {
    const SAMPLES: usize = 5;
    let params = BaselineParams {
        modulus_bits: 2048,
        frac_bits: FRAC_BITS,
    };
    let model = inputs.model.clone();
    let samples = inputs.samples[..SAMPLES].to_vec();
    let start = Instant::now();
    let (served, labels) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            baseline_serve(&model, &params, &ep, &mut rng)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            baseline_classify(&params, &ep, &mut rng, &samples)
        },
    );
    let ms = start.elapsed().as_secs_f64() * 1e3 / SAMPLES as f64;
    served.expect("paillier serve");
    assert_eq!(
        labels.expect("paillier classify")[..],
        inputs.expected[..SAMPLES],
        "paillier baseline disagrees with the oracle"
    );
    ms
}
