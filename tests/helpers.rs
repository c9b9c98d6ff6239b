//! Shared helpers for the ppcs cross-crate integration tests.

use ppcs_core::SessionSupervisor;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::{duplex, Driver, Endpoint, ProtocolEngine, Transcript, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives `engine` against `run_peer` on a second thread and returns its
/// result with the transcript of everything it sent and received.
pub fn recorded<'a, T, E: From<TransportError>>(
    mut engine: ProtocolEngine<'a, T, E>,
    run_peer: impl FnOnce(Endpoint) + Send,
) -> (Result<T, E>, Transcript) {
    let (ep, peer_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(move || run_peer(peer_ep));
        let mut driver = Driver::new().with_recording();
        let res = driver.drive(&ep, &mut engine);
        (res, driver.take_transcript().expect("recording enabled"))
    })
}

/// Trains a small linear model whose boundary passes through the box at
/// the given rotation angle (in the (0,1)-plane).
pub fn rotated_model(dim: usize, angle_deg: f64, seed: u64, kernel: Kernel) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let theta = angle_deg.to_radians();
    let (c, s) = (theta.cos(), theta.sin());
    let mut ds = Dataset::new(dim);
    while ds.len() < 160 {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let score = c * x[0] + s * x[1];
        if score.abs() < 0.1 {
            continue;
        }
        ds.push(x, Label::from_sign(score));
    }
    SvmModel::train(
        &ds,
        kernel,
        &SmoParams {
            c: 10.0,
            ..SmoParams::default()
        },
    )
}

/// Two separable blobs; the standard smoke-test dataset.
pub fn blob_dataset(dim: usize, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(dim);
    for k in 0..n {
        let positive = k % 2 == 0;
        let c = if positive { 0.5 } else { -0.5 };
        ds.push(
            (0..dim).map(|_| c + rng.gen_range(-0.45..0.45)).collect(),
            if positive {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    ds
}

/// Issues a minimal HTTP/1.0 `GET` against `addr` and returns the raw
/// response (status line, headers, and body) as one string. Used by the
/// observability suites to scrape a reactor's `/metrics` endpoint.
pub fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set scrape read timeout");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("write scrape request");
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .expect("read scrape response");
    resp
}

/// The body of a raw HTTP response returned by [`http_get`].
pub fn http_body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or_else(|| panic!("response has no header/body separator: {resp:?}"))
}

/// Draws `n` uniform samples in the `[-1, 1]^dim` box.
pub fn random_samples(dim: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// Drains its supervisors if dropped while the test thread unwinds. A
/// TCP reactor serves until it is drained, and `std::thread::scope`
/// joins it before re-raising a panic: without the drain, a failed
/// assertion inside the scope hangs instead of failing.
pub struct DrainOnUnwind(pub Vec<SessionSupervisor>);

impl Drop for DrainOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.iter().for_each(SessionSupervisor::drain);
        }
    }
}
