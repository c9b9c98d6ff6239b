//! Oblivious-transfer benchmarks: the cryptographic Naor–Pinkas engine
//! (768-bit group for timing; the 2048-bit figures scale by the modexp
//! ratio) against the ideal-functionality simulator — the crossover that
//! motivates functional-mode sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_ot::{ot_receive_io, ot_send_io, NaorPinkasOt, ObliviousTransfer, OtBatchState};
use ppcs_ot::{OtSelect, TrustedSimOt};
use ppcs_transport::{run_engine_pair, ProtocolEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One single-shot k-of-N transfer, both roles pumped against each
/// other on this thread.
fn transfer(sel: OtSelect, n: usize, k: usize) {
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    let indices: Vec<usize> = (0..k).map(|i| (i * 7) % n).collect();
    let (msgs, indices, no_batch) = (&msgs, &indices, &OtBatchState::default());
    let mut rng_s = StdRng::seed_from_u64(1);
    let mut rng_r = StdRng::seed_from_u64(2);
    let mut sender = ProtocolEngine::new(|io| async move {
        ot_send_io(sel, no_batch, &io, &mut rng_s, msgs, k).await
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ot_receive_io(sel, no_batch, &io, &mut rng_r, n, indices).await
    });
    let (send, got) = run_engine_pair(&mut sender, &mut receiver).expect("OT engines");
    send.expect("send");
    black_box(got.expect("recv"));
}

fn bench_ot_real(c: &mut Criterion) {
    let np = NaorPinkasOt::fast_insecure().select();
    let sim = TrustedSimOt.select();

    let mut group = c.benchmark_group("ot_k_of_n");
    group.sample_size(10);
    for &(n, k) in &[(8usize, 4usize), (16, 4), (32, 8)] {
        group.bench_with_input(
            BenchmarkId::new("naor_pinkas_768", format!("{k}of{n}")),
            &(n, k),
            |bench, &(n, k)| bench.iter(|| transfer(np, n, k)),
        );
        group.bench_with_input(
            BenchmarkId::new("trusted_sim", format!("{k}of{n}")),
            &(n, k),
            |bench, &(n, k)| bench.iter(|| transfer(sim, n, k)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ot_real);
criterion_main!(benches);
