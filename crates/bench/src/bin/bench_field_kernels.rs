//! Field-kernel microbench: scalar vs AVX2 batch kernels.
//!
//! ```text
//! bench_field_kernels [n_elems] [reps]
//! ```
//!
//! Times the batch kernels that back the OMPE hot loops — Montgomery
//! products (`mul_many` / `square_many` / `scale_many`), the batch
//! point-cloud evaluation (`eval_cloud_many`, the kernel behind the
//! OMPE mask/cover refresh and answer paths), and the shared-inversion
//! batch interpolation (`interp_batch`) — and prints scalar and AVX2
//! wall times side by side with the speedup ratio. On machines without
//! AVX2 only the scalar column is produced.
//!
//! `EXPERIMENTS.md` records the numbers from this bench; the
//! `eval_cloud_many` row is the "batch OMPE evaluation" figure cited
//! there and in the README performance section.

use std::hint::black_box;
use std::time::Instant;

use ppcs_bench::{print_row, print_rule};
use ppcs_math::{
    avx2_available, eval_cloud_many_with, interp_batch, interpolate_at_zero, mul_many_with,
    scale_many_with, square_many_with, FixedFpAlgebra, Fp256, SimdBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// (p50, p95) wall time of `reps` runs of `f`, in microseconds
/// (nearest-rank quantiles).
fn time_us(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = |q: f64| samples[((q * reps as f64).ceil() as usize).max(1) - 1];
    (rank(0.50), rank(0.95))
}

struct Row {
    name: &'static str,
    scalar_us: (f64, f64),
    avx2_us: Option<(f64, f64)>,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        let (avx2, speedup) = match self.avx2_us {
            Some((p50, p95)) => (
                format!("{p50:.1} / {p95:.1}"),
                format!("{:.2}x", self.scalar_us.0 / p50),
            ),
            None => ("-".into(), "-".into()),
        };
        vec![
            self.name.into(),
            format!("{:.1} / {:.1}", self.scalar_us.0, self.scalar_us.1),
            avx2,
            speedup,
        ]
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args
        .get(1)
        .map(|s| s.parse().expect("n_elems must be an integer"))
        .unwrap_or(4096);
    let reps: usize = args
        .get(2)
        .map(|s| s.parse().expect("reps must be an integer"))
        .unwrap_or(41);

    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut a = vec![Fp256::ZERO; n];
    let mut b = vec![Fp256::ZERO; n];
    Fp256::random_fill(&mut rng, &mut a);
    Fp256::random_fill(&mut rng, &mut b);
    let k = Fp256::random(&mut rng);

    // Batch OMPE evaluation shape: a degree-24 secret/cover polynomial
    // evaluated over the whole point cloud at once.
    let mut coeffs = vec![Fp256::ZERO; 25];
    Fp256::random_fill(&mut rng, &mut coeffs);
    let mut cloud = vec![Fp256::ZERO; n];
    Fp256::random_fill(&mut rng, &mut cloud);

    let backends: Vec<SimdBackend> = if avx2_available() {
        vec![SimdBackend::Scalar, SimdBackend::Avx2]
    } else {
        vec![SimdBackend::Scalar]
    };

    let run = |backend: SimdBackend, name: &str, reps: usize| -> (f64, f64) {
        match name {
            "mul_many" => time_us(reps, || {
                let mut x = a.clone();
                mul_many_with(backend, &mut x, &b);
                black_box(&x);
            }),
            "square_many" => time_us(reps, || {
                let mut x = a.clone();
                square_many_with(backend, &mut x);
                black_box(&x);
            }),
            "scale_many" => time_us(reps, || {
                let mut x = a.clone();
                scale_many_with(backend, &mut x, k);
                black_box(&x);
            }),
            "eval_cloud_many (deg 24)" => {
                let mut out = vec![Fp256::ZERO; cloud.len()];
                time_us(reps, || {
                    eval_cloud_many_with(backend, &coeffs, &cloud, &mut out);
                    black_box(&out);
                })
            }
            _ => unreachable!("unknown workload {name}"),
        }
    };

    println!("field-kernel microbench: n = {n}, reps = {reps} (p50 / p95)");
    println!("backends: {backends:?}\n");
    let widths = [26, 17, 17, 9];
    print_row(
        &[
            "kernel".into(),
            "scalar (us)".into(),
            "avx2 (us)".into(),
            "speedup".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let mut rows = Vec::new();
    for name in [
        "mul_many",
        "square_many",
        "scale_many",
        "eval_cloud_many (deg 24)",
    ] {
        let scalar_us = run(SimdBackend::Scalar, name, reps);
        let avx2_us = backends
            .iter()
            .find(|b| matches!(b, SimdBackend::Avx2))
            .map(|_| run(SimdBackend::Avx2, name, reps));
        let row = Row {
            name,
            scalar_us,
            avx2_us,
        };
        print_row(&row.cells(), &widths);
        rows.push(row);
    }

    // Batch interpolation: 64 degree-8 systems, one shared Fermat
    // inversion (interp_batch) vs one inversion chain per system. This
    // runs on the process-wide dispatch backend (set PPCS_SIMD=off to
    // measure the scalar path end to end).
    let alg = FixedFpAlgebra::new(16);
    let systems: Vec<Vec<(Fp256, Fp256)>> = (0..64)
        .map(|s| {
            (0..9)
                .map(|i| (Fp256::from_u64(1 + s * 64 + i), Fp256::random(&mut rng)))
                .collect()
        })
        .collect();
    let (batched, _) = time_us(reps, || {
        black_box(interp_batch(&alg, &systems).expect("well-formed systems"));
    });
    let (looped, _) = time_us(reps, || {
        for sys in &systems {
            black_box(interpolate_at_zero(&alg, sys).expect("well-formed system"));
        }
    });
    println!(
        "\ninterp (64 systems, deg 8): batched {batched:.1} us vs per-system {looped:.1} us \
         ({:.2}x)",
        looped / batched
    );

    if let Some(eval) = rows.iter().find(|r| r.name.starts_with("eval_cloud_many")) {
        if let Some((avx2_p50, _)) = eval.avx2_us {
            let speedup = eval.scalar_us.0 / avx2_p50;
            println!("\nbatch OMPE evaluation speedup (scalar / avx2): {speedup:.2}x");
        }
    }
}
