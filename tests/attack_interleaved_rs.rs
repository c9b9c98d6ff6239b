//! Attack A on the receiver's point cloud: simultaneous Berlekamp–Welch
//! decoding of an interleaved Reed–Solomon word (Bleichenbacher, Kiayias
//! and Yung, "Decoding of interleaved Reed–Solomon codes over noisy
//! data", ICALP 2003). It recovers Bob's hidden input from the one cloud
//! he sends, with one linear solve and no OT answer.
//!
//! A cloud holds `N = m·n` abscissae `x_k` and, per abscissa, `dim`
//! values `y_jk`. At the `n = σ·d + 1` covers, column `j` is `S_j(x_k)`
//! for a degree-σ polynomial with `S_j(0) = α_j`; at the `E = N − n`
//! decoys it is uniform. Every column shares the cover positions, so the
//! decoys are the roots of one error locator `Λ` of degree `E`, and
//! `Λ·S_j` has degree `E + σ`. With `u_k = 1 / Π_{l≠k}(x_k − x_l)`, a
//! polynomial `f` of degree below `N − 1` has `Σ_k u_k·f(x_k) = 0`, so
//! for every `r < n − σ − 1`
//!
//! ```text
//! Σ_k u_k · x_k^r · y_jk · Λ(x_k) = 0.
//! ```
//!
//! That is `dim·(n − σ − 1)` linear equations in the `E` free
//! coefficients of a monic `Λ`. Whenever `dim·(n − σ − 1) ≥ E` they
//! determine `Λ`; its non-roots among the `x_k` are the covers, and each
//! column interpolated at 0 over them is `α_j`. At `d = 1` there are no
//! equations at all, so linear inputs need another attack.
//!
//! The shipped defaults (σ = 3, two-fold decoys) make `E = n`, so the
//! bound holds at degree 2 from three coordinates up and at degree 3 or
//! more from two — every nonlinear shape of the paper's datasets, and
//! similarity round 3. The first tests take clouds from recorded
//! sessions and assert that the attack returns exactly the input Bob
//! encoded and the positions he opened. The last test checks the bound
//! itself on freshly drawn clouds, on both sides.

use ppcs_core::{
    similarity_request_io, similarity_respond, Client, ProtocolConfig, SimilarityConfig, Trainer,
};
use ppcs_datasets::{diabetes_subsets, generate, spec_by_name};
use ppcs_math::{interpolate_at_zero, Algebra, FixedFpAlgebra, Fp256};
use ppcs_ompe::{BlindRound, OmpeParams};
use ppcs_ot::{ObliviousTransfer, TrustedSimOt};
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_tests::recorded;
use ppcs_transport::{decode_seq, Direction, Driver, Frame, ProtocolEngine, Transcript};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A receiver's point-cloud frame.
const KIND_OMPE_POINTS: u16 = 0x0400;
/// The ideal OT's index blob: the positions the receiver opens.
const KIND_SIM_INDICES: u16 = 0x0300;
/// The ideal OT's answer blob: one encoded element per opened position.
const KIND_SIM_MESSAGES: u16 = 0x0301;

/// A point cloud as it crosses the wire: `N` abscissae and, per
/// abscissa, `dim` values.
struct Cloud {
    xs: Vec<Fp256>,
    ys: Vec<Vec<Fp256>>,
}

impl Cloud {
    fn decode(frame: &Frame) -> Cloud {
        assert_eq!(frame.kind, KIND_OMPE_POINTS, "cloud frame");
        let mut body = frame.payload.clone();
        let xs: Vec<Fp256> = decode_seq(&mut body).expect("abscissae");
        let flat: Vec<Fp256> = decode_seq(&mut body).expect("values");
        let dim = flat.len() / xs.len();
        let ys = flat.chunks_exact(dim).map(<[Fp256]>::to_vec).collect();
        Cloud { xs, ys }
    }
}

/// What the attack found: the cover positions, ascending, and the input.
#[derive(Debug, PartialEq)]
struct Recovered {
    covers: Vec<usize>,
    alpha: Vec<Fp256>,
}

/// Attack A on `cloud`, whose covers are `n` points of degree-`sigma`
/// columns. `None` if the equations leave the locator undetermined.
fn attack_a(cloud: &Cloud, sigma: usize, n: usize) -> Option<Recovered> {
    let big_n = cloud.xs.len();
    let e = big_n - n;
    let rows_per_column = (n - sigma).saturating_sub(1);
    let xs = &cloud.xs;

    // u_k = 1 / Π_{l≠k} (x_k − x_l), and the powers x_k^s the moments use.
    let mut u: Vec<Fp256> = (0..big_n)
        .map(|k| {
            (0..big_n)
                .filter(|&l| l != k)
                .fold(Fp256::ONE, |acc, l| acc * (xs[k] - xs[l]))
        })
        .collect();
    assert!(Fp256::batch_inv(&mut u), "abscissae are distinct");
    let max_power = rows_per_column + e;
    let powers: Vec<Vec<Fp256>> = xs
        .iter()
        .map(|&x| {
            std::iter::successors(Some(Fp256::ONE), |&p| Some(p * x))
                .take(max_power)
                .collect()
        })
        .collect();

    // Row (j, r): Σ_i λ_i·M_j(r + i) = −M_j(r + E), the Hankel system in
    // the column's moments M_j(s) = Σ_k u_k·y_jk·x_k^s.
    let dim = cloud.ys[0].len();
    let mut system = Vec::with_capacity(dim * rows_per_column);
    for j in 0..dim {
        let weighted: Vec<Fp256> = (0..big_n).map(|k| u[k] * cloud.ys[k][j]).collect();
        let moment =
            |s: usize| (0..big_n).fold(Fp256::ZERO, |acc, k| acc + weighted[k] * powers[k][s]);
        let moments: Vec<Fp256> = (0..max_power).map(moment).collect();
        for r in 0..rows_per_column {
            let mut row = moments[r..=r + e].to_vec();
            row[e] = -row[e];
            system.push(row);
        }
    }
    let lambda = solve(system, e)?;

    // The covers are the abscissae the locator does not vanish on.
    let locator = |x: Fp256| {
        let low = lambda.iter().rev().fold(Fp256::ZERO, |acc, &c| acc * x + c);
        low + (0..e).fold(Fp256::ONE, |acc, _| acc * x)
    };
    let covers: Vec<usize> = (0..big_n).filter(|&k| !locator(xs[k]).is_zero()).collect();
    if covers.len() != n {
        return None;
    }
    let alg = FixedFpAlgebra::new(16);
    let alpha = (0..dim)
        .map(|j| {
            let points: Vec<(Fp256, Fp256)> =
                covers.iter().map(|&k| (xs[k], cloud.ys[k][j])).collect();
            interpolate_at_zero(&alg, &points).expect("distinct covers")
        })
        .collect();
    Some(Recovered { covers, alpha })
}

/// Solves the augmented `rows` (each `unknowns` coefficients, then the
/// right-hand side) by Gauss–Jordan elimination; `None` unless the
/// coefficient matrix has full column rank.
fn solve(mut rows: Vec<Vec<Fp256>>, unknowns: usize) -> Option<Vec<Fp256>> {
    for col in 0..unknowns {
        let pivot = (col..rows.len()).find(|&r| !rows[r][col].is_zero())?;
        rows.swap(col, pivot);
        let inv = rows[col][col].inv().expect("nonzero pivot");
        for v in &mut rows[col] {
            *v *= inv;
        }
        let pivot_row = rows[col].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            let factor = row[col];
            if r != col && !factor.is_zero() {
                for (v, p) in row.iter_mut().zip(&pivot_row) {
                    *v -= factor * *p;
                }
            }
        }
    }
    Some(rows[..unknowns].iter().map(|row| row[unknowns]).collect())
}

/// Every logical frame of `kind` that moved in `direction`, in order.
fn frames(transcript: &Transcript, direction: Direction, kind: u16) -> Vec<Frame> {
    transcript
        .entries
        .iter()
        .filter(|entry| entry.direction == direction)
        .flat_map(|entry| entry.frames.iter().filter(|f| f.kind == kind).cloned())
        .collect()
}

/// The positions the receiver opened, across every ideal-OT index blob
/// it sent.
fn opened_positions(transcript: &Transcript) -> Vec<usize> {
    frames(transcript, Direction::Sent, KIND_SIM_INDICES)
        .iter()
        .flat_map(|f| {
            let blob: Vec<u8> = f.decode_as(KIND_SIM_INDICES).expect("index blob");
            blob.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Records a classification of `samples` by `model` under the shipped
/// defaults and the ideal OT, attacks every cloud the client sent, and
/// checks each against the sample's encoded coordinates and the
/// positions the client opened for it.
fn classification_clouds_fall(model: &SvmModel, samples: &[Vec<f64>], degree: usize) {
    let cfg = ProtocolConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let trainer = Trainer::new(alg, model, cfg).expect("trainer");
    let client = Client::new(alg, cfg);
    let sel = TrustedSimOt::new().select();
    let (labels, transcript) = recorded(client.classify_engine(sel, 12, samples), |ep| {
        let mut engine = trainer.serve_engine(sel, 11);
        Driver::new().drive(&ep, &mut engine).expect("serve");
    });
    assert_eq!(labels.expect("classify").len(), samples.len());

    let clouds = frames(&transcript, Direction::Sent, KIND_OMPE_POINTS);
    assert_eq!(clouds.len(), samples.len());
    let n = cfg.sigma * degree + 1;
    let opened = opened_positions(&transcript);
    for ((frame, sample), opened) in clouds.iter().zip(samples).zip(opened.chunks_exact(n)) {
        let cloud = Cloud::decode(frame);
        assert_eq!(cloud.xs.len(), n * cfg.decoy_factor);
        let got = attack_a(&cloud, cfg.sigma, n).expect("the locator is determined");
        let want: Vec<Fp256> = sample.iter().map(|v| alg.encode(*v, 1)).collect();
        assert_eq!(got.alpha, want, "Bob's encoded sample");
        let mut opened = opened.to_vec();
        opened.sort_unstable();
        assert_eq!(got.covers, opened, "the positions Bob opened");
    }
}

#[test]
fn degree_3_german_input_falls_to_one_solve() {
    // dim 24, n = 10, E = 10: 24·6 = 144 equations for 10 unknowns.
    let spec = spec_by_name("german.numer").expect("catalog");
    let data = generate(&spec);
    let train = data.train.subset(&(0..80).collect::<Vec<_>>());
    let params = SmoParams {
        c: spec.poly_c,
        max_iterations: 20_000,
        ..SmoParams::default()
    };
    let model = SvmModel::train(&train, Kernel::paper_polynomial(spec.dim), &params);
    let samples: Vec<Vec<f64>> = (0..2).map(|i| data.test.features(i).to_vec()).collect();
    classification_clouds_fall(&model, &samples, 3);
}

#[test]
fn degree_2_diabetes_input_falls_to_one_solve() {
    // dim 8, n = 7, E = 7: 8·3 = 24 equations for 7 unknowns.
    let spec = spec_by_name("diabetes").expect("catalog");
    let data = generate(&spec);
    let train = data.train.subset(&(0..120).collect::<Vec<_>>());
    let kernel = Kernel::Polynomial {
        a0: 1.0 / spec.dim as f64,
        b0: 1.0,
        degree: 2,
    };
    let model = SvmModel::train(&train, kernel, &SmoParams::default());
    let samples: Vec<Vec<f64>> = (0..2).map(|i| data.test.features(i).to_vec()).collect();
    classification_clouds_fall(&model, &samples, 2);
}

/// The answer the ideal OT delivered for each opened position, in order.
fn answers(transcript: &Transcript) -> Vec<Fp256> {
    frames(transcript, Direction::Received, KIND_SIM_MESSAGES)
        .iter()
        .flat_map(|f| {
            let blob: Vec<u8> = f.decode_as(KIND_SIM_MESSAGES).expect("answer blob");
            // Each answer is a one-element sequence: length, then 32 bytes.
            blob.chunks_exact(40)
                .map(|c| {
                    let mut body = bytes::Bytes::copy_from_slice(c);
                    let [v] =
                        <[Fp256; 1]>::try_from(decode_seq::<Fp256>(&mut body).expect("answer"))
                            .expect("one element");
                    v
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn similarity_round_3_input_falls_to_one_solve() {
    // Round 3 hides Bob's two cross terms in a degree-4 round: dim 2,
    // n = 13, E = 13, 2·9 = 18 equations for 13 unknowns. Bob's input is
    // what rounds 1 and 2 returned to him, which his own view of the
    // ideal OT fixes: the answers at the positions he opened,
    // interpolated at 0.
    let subsets = diabetes_subsets(42);
    let params = SmoParams {
        c: 8.0,
        ..SmoParams::default()
    };
    let a = SvmModel::train(&subsets[0], Kernel::Linear, &params);
    let b = SvmModel::train(&subsets[1], Kernel::Linear, &params);
    let cfg = SimilarityConfig::default();
    let alg = FixedFpAlgebra::new(16);
    let sel = TrustedSimOt::new().select();
    let requester = ProtocolEngine::new(|io| {
        let (alg, b, cfg) = (&alg, &b, &cfg);
        async move {
            let mut rng = StdRng::seed_from_u64(52);
            similarity_request_io(alg, &io, sel, &mut rng, b, cfg).await
        }
    });
    let (t, transcript) = recorded(requester, |ep| {
        let mut rng = StdRng::seed_from_u64(51);
        similarity_respond(&alg, &ep, &TrustedSimOt::new(), &mut rng, &a, &cfg).expect("respond");
    });
    t.expect("request");

    let clouds: Vec<Cloud> = frames(&transcript, Direction::Sent, KIND_OMPE_POINTS)
        .iter()
        .map(Cloud::decode)
        .collect();
    let [round1, round2, round3] = &clouds[..] else {
        panic!("three clouds, found {}", clouds.len());
    };
    let sigma = cfg.protocol.sigma;
    let (linear_n, area_n) = (sigma + 1, 4 * sigma + 1);
    let opened = opened_positions(&transcript);
    let answers = answers(&transcript);
    assert_eq!(opened.len(), 2 * linear_n + area_n);
    let x: Vec<Fp256> = [round1, round2]
        .iter()
        .enumerate()
        .map(|(r, cloud)| {
            let points: Vec<(Fp256, Fp256)> = (r * linear_n..(r + 1) * linear_n)
                .map(|q| (cloud.xs[opened[q]], answers[q]))
                .collect();
            interpolate_at_zero(&alg, &points).expect("distinct covers")
        })
        .collect();

    let got = attack_a(round3, sigma, area_n).expect("the locator is determined");
    assert_eq!(got.alpha, x, "Bob's round-3 input");
    let mut opened3 = opened[2 * linear_n..].to_vec();
    opened3.sort_unstable();
    assert_eq!(got.covers, opened3, "the positions Bob opened");

    // Rounds 1 and 2 are linear: n − σ − 1 = 0 gives no equation.
    for cloud in [round1, round2] {
        assert_eq!(attack_a(cloud, sigma, linear_n), None);
    }
}

#[test]
fn the_solve_turns_at_dim_times_n_minus_sigma_minus_1_equal_to_e() {
    // Freshly drawn clouds bound to random inputs, at the smallest dim
    // with dim·(n − σ − 1) ≥ E and one below it. Two of the shapes meet
    // the bound with equality.
    let alg = FixedFpAlgebra::new(16);
    let mut rng = StdRng::seed_from_u64(60);
    // (degree bound d, σ, decoy factor m)
    for (degree, sigma, decoys) in [(2, 3, 2), (3, 3, 2), (4, 3, 2), (2, 2, 3), (3, 3, 4)] {
        let params = OmpeParams::new(degree, sigma, decoys).expect("params");
        let n = params.num_covers();
        let e = params.num_points() - n;
        let per_column = n - sigma - 1;
        let smallest = e.div_ceil(per_column);
        for dim in [smallest - 1, smallest] {
            if dim == 0 {
                continue;
            }
            let alpha: Vec<Fp256> = (0..dim)
                .map(|_| alg.encode(rng.gen_range(-1.0..1.0), 1))
                .collect();
            let round = BlindRound::draw(&alg, &params, dim, &mut rng).expect("draw");
            let (prepared, _) = round.bind(&alg, &alpha).expect("bind");
            let cloud = Cloud::decode(&prepared.frame());
            let got = attack_a(&cloud, sigma, n);
            let shape = format!("d = {degree}, σ = {sigma}, m = {decoys}, dim = {dim}, E = {e}");
            if dim * per_column >= e {
                assert_eq!(got.expect(&shape).alpha, alpha, "{shape}");
            } else {
                assert_eq!(got, None, "{shape}: rank-deficient");
            }
        }
    }
}
