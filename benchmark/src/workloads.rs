//! The four workloads, as instances that issue one request at a time.
//!
//! Every instance is the product's public API wired as a user would
//! wire it: a [`TrainerServer`] reactor behind TCP loopback, a
//! [`FleetClient`] over connectors, the blocking `Trainer::serve` /
//! `Client::classify_batch` pair over an in-memory `duplex()`, or the
//! similarity protocol's two sans-I/O roles pumped against each other.
//! The same instances, built with other parameters, are the upper
//! rungs of the layer ladder (see `ladder.rs`).
//!
//! All workloads are closed loops with one load-generating thread and
//! one connection in flight: the load thread plus at most one server or
//! peer thread, which take turns, so `main` pins the process to one CPU
//! (`sys::pin_to_one_cpu`).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use ppcs_core::{
    similarity_request_io, similarity_respond_io, Client, Connector, FleetClient, FleetConfig,
    ProtocolConfig, ServeSummary, ServerConfig, SessionSupervisor, Trainer, TrainerServer,
    WarmSessionCache,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{NaorPinkasOt, ObliviousTransfer, OtSelect, TrustedSimOt};
use ppcs_telemetry::MetricsRegistry;
use ppcs_transport::{
    duplex, tcp_connect, Endpoint, Frame, Lane, ProtocolEngine, TrafficStats, TransportError,
    KIND_HEALTH,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{
    classify_inputs, derive, similarity_inputs, ClassifyInputs, ModelKind, SimilarityInputs,
    STREAM_REQUEST, STREAM_SERVER,
};
use crate::trace::Tracer;

/// Fractional bits of the fixed-point field encoding every workload
/// uses (`FixedFpAlgebra::new(16)`).
pub const FRAC_BITS: u32 = 16;

/// Samples per session of `poly_batch_fp256`.
pub const POLY_BATCH: usize = 16;

/// Replicas behind the fleet client.
pub const FLEET_REPLICAS: usize = 2;

/// Relative tolerance of the similarity oracle check. The requester's
/// `T` is decoded from 16-bit fixed point through a degree-4 product
/// at output scale 12, so it agrees with the floating-point oracle to
/// a few parts in 10⁴, not to the 1e-6 the f64 backend reaches.
pub const SIMILARITY_REL_TOL: f64 = 5e-3;

/// The request index of the untimed warm-up request every set-up ends
/// with (its own seed stream, far from the timed requests').
const WARMUP_REQUEST: u64 = u32::MAX as u64;

/// An OT engine usable from any thread for the whole run.
pub type Ot = &'static dyn ObliviousTransfer;

/// The ideal-functionality OT.
pub static SIM: TrustedSimOt = TrustedSimOt;

/// The Naor–Pinkas engine over MODP-2048 — the path the paper deploys.
pub fn np2048() -> Ot {
    static NP: OnceLock<NaorPinkasOt> = OnceLock::new();
    NP.get_or_init(NaorPinkasOt::new)
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold single-sample classification, Naor–Pinkas MODP-2048, TCP.
    ColdNp2048Tcp,
    /// Fleet client over two reactor replicas, ideal OT, TCP.
    FleetSimTcp,
    /// 16-sample degree-3 polynomial batches, ideal OT, in memory.
    PolyBatchFp256,
    /// The similarity protocol, ideal OT, in memory.
    SimilarityFp256,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdNp2048Tcp,
        Workload::FleetSimTcp,
        Workload::PolyBatchFp256,
        Workload::SimilarityFp256,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdNp2048Tcp => "cold_np2048_tcp",
            Workload::FleetSimTcp => "fleet_sim_tcp",
            Workload::PolyBatchFp256 => "poly_batch_fp256",
            Workload::SimilarityFp256 => "similarity_fp256",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed requests per second of `--seconds`: fixed counts, not
    /// durations, so two commits do identical work (and the
    /// session-count drift of `fleet_sim_tcp` is the same on both).
    /// Calibrated on the 2-core reference machine so that a run
    /// measures for about `--seconds`.
    pub fn requests_per_second(self) -> f64 {
        match self {
            Workload::ColdNp2048Tcp => 0.8,
            Workload::FleetSimTcp => 2_400.0,
            Workload::PolyBatchFp256 => 3.5,
            Workload::SimilarityFp256 => 1_500.0,
        }
    }

    /// Epochs of a full run: how often the system is set up afresh
    /// (each a `setup_s` sample) and handed its share of the requests.
    /// As many as the set-up's cost allows: 1.3 s on the MODP-2048
    /// path, 0.3 s where an SVM is trained and servers start,
    /// milliseconds for the similarity protocol.
    pub fn epochs(self) -> usize {
        match self {
            Workload::ColdNp2048Tcp => 4,
            Workload::FleetSimTcp => 8,
            Workload::PolyBatchFp256 => 10,
            Workload::SimilarityFp256 => 20,
        }
    }

    /// Requests per block of `request_p10_ms` (see `stats::quiet_p10`):
    /// about 40 ms of work where a request takes a fraction of a
    /// millisecond, so that a block has a first decile and still fits
    /// between two bursts of interference; the single request where it
    /// takes a fifth of a second or more.
    pub fn block_len(self) -> usize {
        match self {
            Workload::ColdNp2048Tcp | Workload::PolyBatchFp256 => 1,
            Workload::FleetSimTcp => 250,
            Workload::SimilarityFp256 => 100,
        }
    }

    /// Timed requests of a full (untraced) run sized for `seconds`: a
    /// whole number of blocks in each of [`Workload::epochs`] epochs.
    pub fn requests_for(self, seconds: u64) -> usize {
        let per_epoch = self.requests_per_second() * seconds as f64 / self.epochs() as f64;
        let blocks = (per_epoch / self.block_len() as f64).round().max(1.0) as usize;
        blocks * self.block_len() * self.epochs()
    }
}

/// What a traced run attaches; an untraced run attaches nothing.
#[derive(Clone, Default)]
pub struct Observers {
    /// The harness's span list.
    pub tracer: Option<Arc<Tracer>>,
    /// Registry for the load-generating side.
    pub client: Option<Arc<MetricsRegistry>>,
    /// Registry for the serving / responding side.
    pub server: Option<Arc<MetricsRegistry>>,
}

impl Observers {
    /// Tracer plus one registry per party.
    pub fn tracing() -> Self {
        Self {
            tracer: Some(Arc::new(Tracer::new())),
            client: Some(MetricsRegistry::new(1, "client")),
            server: Some(MetricsRegistry::new(2, "server")),
        }
    }

    fn scoped<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.scoped(name, f),
            None => f(),
        }
    }
}

/// Bytes and frames moved, both directions, as the client's lanes
/// counted them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Wire bytes sent plus received.
    pub bytes: u64,
    /// Frames sent plus received.
    pub frames: u64,
}

impl Traffic {
    fn add(&mut self, stats: &TrafficStats) {
        self.bytes += stats.total_bytes();
        self.frames += stats.frames_sent + stats.frames_received;
    }

    /// Traffic since `earlier`.
    pub fn since(self, earlier: Traffic) -> Traffic {
        Traffic {
            bytes: self.bytes - earlier.bytes,
            frames: self.frames - earlier.frames,
        }
    }
}

/// One wired-up system under test.
pub trait Instance {
    /// Issues request `i` and returns how many of its results matched
    /// the oracle. An error, a refusal or a mismatch yields fewer than
    /// [`Instance::results_per_request`].
    fn request(&mut self, i: u64) -> u64;

    /// Values Bob learns per request.
    fn results_per_request(&self) -> u64;

    /// Cumulative client-side traffic.
    fn traffic(&self) -> Traffic;

    /// Stops every thread the instance started and returns the serving
    /// runs' summaries (empty for the in-memory instances).
    fn finish(self: Box<Self>) -> Vec<ServeSummary>;
}

/// Set-up cost split the way `setup_s` is predicted to move.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupCost {
    /// Dataset generation plus SVM training.
    pub train_s: f64,
    /// `Trainer::new` (kernel expansion and coefficient encoding).
    pub trainer_new_s: f64,
    /// Everything before the first timed request, warm-up included.
    pub total_s: f64,
}

/// Builds `workload`'s instance from `seed`, warm-up request included.
///
/// # Panics
///
/// Panics if the warm-up request fails: nothing after it would be
/// meaningful.
pub fn setup(workload: Workload, seed: u64, obs: &Observers) -> (Box<dyn Instance>, SetupCost) {
    let start = Instant::now();
    let (mut instance, mut cost): (Box<dyn Instance>, SetupCost) = match workload {
        Workload::ColdNp2048Tcp => {
            let inputs = classify_inputs(ModelKind::DiabetesLinear, seed);
            // No precompute pool: a cold client never presents a warm
            // hello, and this workload isolates the cryptographic path.
            let config = ServerConfig {
                precompute_capacity: 0,
                ..ServerConfig::default()
            };
            let (i, c) = TcpDirect::new(inputs, np2048(), config, false, seed, obs);
            (Box::new(i), c)
        }
        Workload::FleetSimTcp => {
            let inputs = classify_inputs(ModelKind::DiabetesLinear, seed);
            let (i, c) = Fleet::new(inputs, seed, obs);
            (Box::new(i), c)
        }
        Workload::PolyBatchFp256 => {
            let inputs = classify_inputs(ModelKind::GermanPoly3, seed);
            let (i, c) = MemClassify::new(inputs, &SIM, POLY_BATCH, seed, obs);
            (Box::new(i), c)
        }
        Workload::SimilarityFp256 => {
            let inputs = similarity_inputs();
            let train_s = inputs.train_s;
            let i = MemSimilarity::new(inputs, &SIM, seed, obs);
            (
                Box::new(i),
                SetupCost {
                    train_s,
                    ..SetupCost::default()
                },
            )
        }
    };
    let ok = instance.request(WARMUP_REQUEST);
    assert_eq!(
        ok,
        instance.results_per_request(),
        "{}: warm-up request failed",
        workload.name()
    );
    cost.total_s = start.elapsed().as_secs_f64();
    (instance, cost)
}

fn protocol_seed(seed: u64, request: u64, party: u64) -> u64 {
    derive(seed, STREAM_REQUEST + 2 * request + party)
}

fn new_trainer(inputs: &ClassifyInputs) -> (Arc<Trainer<FixedFpAlgebra>>, f64) {
    let start = Instant::now();
    let trainer = Trainer::new(
        FixedFpAlgebra::new(FRAC_BITS),
        &inputs.model,
        ProtocolConfig::default(),
    )
    .expect("trainer set-up");
    (Arc::new(trainer), start.elapsed().as_secs_f64())
}

fn new_client() -> Client<FixedFpAlgebra> {
    Client::new(FixedFpAlgebra::new(FRAC_BITS), ProtocolConfig::default())
}

/// Prints the first failure of a run in full and counts the rest, so a
/// broken build explains itself without flooding the terminal.
fn report_failure(what: &str, detail: &dyn std::fmt::Display) {
    static SEEN: AtomicUsize = AtomicUsize::new(0);
    if SEEN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("benchmark: {what}: {detail}");
    }
}

// ---------------------------------------------------------------------
// serve_async_tcp on its own thread
// ---------------------------------------------------------------------

/// A `TrainerServer::serve_async_tcp` reactor running on its own
/// thread until drained.
struct ServerHandle {
    addr: SocketAddr,
    supervisor: SessionSupervisor,
    thread: JoinHandle<ServeSummary>,
}

impl ServerHandle {
    fn spawn(
        trainer: Arc<Trainer<FixedFpAlgebra>>,
        config: ServerConfig,
        ot: Ot,
        seed: u64,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut server = TrainerServer::new(&trainer, config);
            if let Some(reg) = metrics {
                server = server.with_metrics(reg);
            }
            tx.send(server.supervisor()).expect("hand out supervisor");
            server
                .serve_async_tcp(listener, ot, seed)
                .expect("server reactor")
        });
        let supervisor = rx.recv().expect("server thread started");
        Self {
            addr,
            supervisor,
            thread,
        }
    }

    fn drain(self) -> ServeSummary {
        self.supervisor.drain();
        self.thread.join().expect("server thread")
    }
}

// ---------------------------------------------------------------------
// cold_np2048_tcp (and the `server.session_tcp_ms` rung)
// ---------------------------------------------------------------------

/// A plain [`Client`] dialing a [`TrainerServer`] reactor over TCP
/// loopback: one connection, one single-sample session, per request —
/// cold, or warm after the first as a [`FleetClient`]'s are (the rung
/// under `fleet.call_ms`).
pub struct TcpDirect {
    inputs: ClassifyInputs,
    client: Client<FixedFpAlgebra>,
    /// The warm sessions' ticket cache; `None` keeps every session cold.
    warm: Option<WarmSessionCache>,
    ot: Ot,
    server: ServerHandle,
    seed: u64,
    traffic: Traffic,
    obs: Observers,
}

impl TcpDirect {
    /// Starts the server reactor for `inputs`' model.
    pub fn new(
        inputs: ClassifyInputs,
        ot: Ot,
        config: ServerConfig,
        warm: bool,
        seed: u64,
        obs: &Observers,
    ) -> (Self, SetupCost) {
        let (trainer, trainer_new_s) = new_trainer(&inputs);
        let server = ServerHandle::spawn(
            trainer,
            config,
            ot,
            derive(seed, STREAM_SERVER),
            obs.server.clone(),
        );
        let cost = SetupCost {
            train_s: inputs.train_s,
            trainer_new_s,
            total_s: 0.0,
        };
        let me = Self {
            inputs,
            client: new_client(),
            warm: warm.then(WarmSessionCache::new),
            ot,
            server,
            seed,
            traffic: Traffic::default(),
            obs: obs.clone(),
        };
        (me, cost)
    }
}

impl Instance for TcpDirect {
    fn request(&mut self, i: u64) -> u64 {
        let k = i as usize % self.inputs.samples.len();
        let ep = match self
            .obs
            .scoped("transport.connect", || tcp_connect(self.server.addr))
        {
            Ok(ep) => ep,
            Err(e) => {
                report_failure("connect", &e);
                return 0;
            }
        };
        let mut rng = StdRng::seed_from_u64(protocol_seed(self.seed, i, 0));
        let labels = self.obs.scoped("classify.session", || {
            let _collector = self.obs.client.clone().map(ppcs_telemetry::install);
            let samples = &self.inputs.samples[k..k + 1];
            match &self.warm {
                None => self.client.classify_batch(&ep, self.ot, &mut rng, samples),
                Some(cache) => self
                    .client
                    .classify_batch_values_warm(&ep, self.ot, &mut rng, samples, cache, 0)
                    .map(|values| values.into_iter().map(|(label, _)| label).collect()),
            }
        });
        self.traffic.add(&ep.stats());
        match labels {
            Ok(labels) => u64::from(labels[..] == self.inputs.expected[k..k + 1]),
            Err(e) => {
                report_failure("classify over tcp", &e);
                0
            }
        }
    }

    fn results_per_request(&self) -> u64 {
        1
    }

    fn traffic(&self) -> Traffic {
        self.traffic
    }

    fn finish(self: Box<Self>) -> Vec<ServeSummary> {
        vec![self.server.drain()]
    }
}

// ---------------------------------------------------------------------
// fleet_sim_tcp
// ---------------------------------------------------------------------

/// Traffic of every lane the fleet dialed, summed when each lane drops.
#[derive(Default)]
struct LaneTotals {
    bytes: AtomicU64,
    frames: AtomicU64,
}

/// A TCP lane that reports its traffic to [`LaneTotals`] on drop and,
/// in a traced run, brackets the fleet's probe and session in spans
/// (the fleet client offers no hook between the two).
struct CountingLane {
    inner: Endpoint,
    totals: Arc<LaneTotals>,
    tracer: Option<Arc<Tracer>>,
    /// The open `fleet.probe` or `server.session` span, if any.
    open_span: AtomicUsize,
    probing: AtomicBool,
}

const NO_SPAN: usize = usize::MAX;

impl Lane for CountingLane {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        if let Some(t) = &self.tracer {
            if frame.kind == KIND_HEALTH {
                self.open_span
                    .store(t.open("fleet.probe"), Ordering::Relaxed);
                self.probing.store(true, Ordering::Relaxed);
            } else if self.open_span.load(Ordering::Relaxed) == NO_SPAN {
                self.open_span
                    .store(t.open("server.session"), Ordering::Relaxed);
            }
        }
        self.inner.send(frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        self.inner.send_coalesced(frames)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        let out = self.inner.recv();
        if let Some(t) = &self.tracer {
            if self.probing.swap(false, Ordering::Relaxed) {
                t.close(self.open_span.swap(NO_SPAN, Ordering::Relaxed));
            }
        }
        out
    }

    fn set_recv_timeout(&self, timeout: Option<std::time::Duration>) {
        self.inner.set_recv_timeout(timeout);
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

impl Drop for CountingLane {
    fn drop(&mut self) {
        let stats = self.inner.stats();
        self.totals
            .bytes
            .fetch_add(stats.total_bytes(), Ordering::Relaxed);
        self.totals
            .frames
            .fetch_add(stats.frames_sent + stats.frames_received, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            let open = self.open_span.load(Ordering::Relaxed);
            if open != NO_SPAN {
                t.close(open);
            }
        }
    }
}

/// A [`FleetClient`] (default [`FleetConfig`]: probe on, no hedge)
/// over [`FLEET_REPLICAS`] reactor replicas with the default
/// [`ServerConfig`], one sample per call.
pub struct Fleet {
    inputs: ClassifyInputs,
    fleet: FleetClient<FixedFpAlgebra>,
    servers: Vec<ServerHandle>,
    totals: Arc<LaneTotals>,
    seed: u64,
    obs: Observers,
}

impl Fleet {
    /// Starts the replicas and registers one connector per replica.
    pub fn new(inputs: ClassifyInputs, seed: u64, obs: &Observers) -> (Self, SetupCost) {
        let (trainer, trainer_new_s) = new_trainer(&inputs);
        let totals = Arc::new(LaneTotals::default());
        let mut fleet = FleetClient::new(new_client(), FleetConfig::default());
        if let Some(reg) = &obs.client {
            fleet = fleet.with_metrics(reg.clone());
        }
        let servers: Vec<ServerHandle> = (0..FLEET_REPLICAS as u64)
            .map(|r| {
                ServerHandle::spawn(
                    trainer.clone(),
                    ServerConfig::default(),
                    &SIM,
                    derive(seed, STREAM_SERVER).wrapping_add(r),
                    obs.server.clone(),
                )
            })
            .collect();
        for server in &servers {
            let addr = server.addr;
            let totals = totals.clone();
            let obs = obs.clone();
            let connector: Connector = Box::new(move || {
                let inner = obs.scoped("transport.connect", || tcp_connect(addr))?;
                Ok(Box::new(CountingLane {
                    inner,
                    totals: totals.clone(),
                    tracer: obs.tracer.clone(),
                    open_span: AtomicUsize::new(NO_SPAN),
                    probing: AtomicBool::new(false),
                }) as Box<dyn Lane>)
            });
            fleet.add_replica(connector);
        }
        let cost = SetupCost {
            train_s: inputs.train_s,
            trainer_new_s,
            total_s: 0.0,
        };
        let me = Self {
            inputs,
            fleet,
            servers,
            totals,
            seed,
            obs: obs.clone(),
        };
        (me, cost)
    }
}

impl Instance for Fleet {
    fn request(&mut self, i: u64) -> u64 {
        let k = i as usize % self.inputs.samples.len();
        let labels = self.obs.scoped("fleet.call", || {
            self.fleet.classify_batch(
                &SIM,
                protocol_seed(self.seed, i, 0),
                &self.inputs.samples[k..k + 1],
            )
        });
        match labels {
            Ok(labels) => u64::from(labels[..] == self.inputs.expected[k..k + 1]),
            Err(e) => {
                report_failure("fleet call", &e);
                0
            }
        }
    }

    fn results_per_request(&self) -> u64 {
        1
    }

    fn traffic(&self) -> Traffic {
        Traffic {
            bytes: self.totals.bytes.load(Ordering::Relaxed),
            frames: self.totals.frames.load(Ordering::Relaxed),
        }
    }

    fn finish(self: Box<Self>) -> Vec<ServeSummary> {
        let Fleet { fleet, servers, .. } = *self;
        drop(fleet);
        servers.into_iter().map(ServerHandle::drain).collect()
    }
}

// ---------------------------------------------------------------------
// in-memory peers
// ---------------------------------------------------------------------

/// The other party of an in-memory workload: one long-lived thread
/// that plays its role once per endpoint it is handed.
struct Peer {
    tx: Option<mpsc::Sender<(Endpoint, u64)>>,
    thread: Option<JoinHandle<()>>,
}

impl Peer {
    fn spawn(
        metrics: Option<Arc<MetricsRegistry>>,
        mut role: impl FnMut(&Endpoint, u64) -> Result<(), ppcs_core::PpcsError> + Send + 'static,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<(Endpoint, u64)>();
        let thread = std::thread::spawn(move || {
            let _collector = metrics.map(ppcs_telemetry::install);
            for (ep, seed) in rx {
                if let Err(e) = role(&ep, seed) {
                    report_failure("peer role", &e);
                }
            }
        });
        Self {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Opens a fresh duplex, hands one end to the peer thread and
    /// returns the other.
    fn dial(&self, seed: u64) -> Endpoint {
        let (theirs, ours) = duplex();
        self.tx
            .as_ref()
            .expect("peer running")
            .send((theirs, seed))
            .expect("peer thread alive");
        ours
    }

    fn stop(&mut self) {
        self.tx = None;
        if let Some(t) = self.thread.take() {
            t.join().expect("peer thread");
        }
    }
}

// ---------------------------------------------------------------------
// poly_batch_fp256 (and the `classify.session_mem_ms` rung)
// ---------------------------------------------------------------------

/// Blocking `Trainer::serve` / `Client::classify_batch` over an
/// in-memory duplex, `batch` samples per session.
pub struct MemClassify {
    inputs: ClassifyInputs,
    client: Client<FixedFpAlgebra>,
    ot: Ot,
    batch: usize,
    peer: Peer,
    seed: u64,
    traffic: Traffic,
    obs: Observers,
}

impl MemClassify {
    /// Starts the trainer thread for `inputs`' model.
    pub fn new(
        inputs: ClassifyInputs,
        ot: Ot,
        batch: usize,
        seed: u64,
        obs: &Observers,
    ) -> (Self, SetupCost) {
        let (trainer, trainer_new_s) = new_trainer(&inputs);
        let peer = Peer::spawn(obs.server.clone(), move |ep, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            trainer.serve(ep, ot, &mut rng).map(|_| ())
        });
        let cost = SetupCost {
            train_s: inputs.train_s,
            trainer_new_s,
            total_s: 0.0,
        };
        let me = Self {
            inputs,
            client: new_client(),
            ot,
            batch,
            peer,
            seed,
            traffic: Traffic::default(),
            obs: obs.clone(),
        };
        (me, cost)
    }
}

impl Instance for MemClassify {
    fn request(&mut self, i: u64) -> u64 {
        let windows = self.inputs.samples.len() - self.batch + 1;
        let k = (i as usize).wrapping_mul(self.batch) % windows;
        let range = k..k + self.batch;
        let ep = self.peer.dial(protocol_seed(self.seed, i, 1));
        let mut rng = StdRng::seed_from_u64(protocol_seed(self.seed, i, 0));
        let labels = self.obs.scoped("classify.session", || {
            let _collector = self.obs.client.clone().map(ppcs_telemetry::install);
            self.client
                .classify_batch(&ep, self.ot, &mut rng, &self.inputs.samples[range.clone()])
        });
        self.traffic.add(&ep.stats());
        match labels {
            Ok(labels) => labels
                .iter()
                .zip(&self.inputs.expected[range])
                .filter(|(got, want)| got == want)
                .count() as u64,
            Err(e) => {
                report_failure("classify in memory", &e);
                0
            }
        }
    }

    fn results_per_request(&self) -> u64 {
        self.batch as u64
    }

    fn traffic(&self) -> Traffic {
        self.traffic
    }

    fn finish(mut self: Box<Self>) -> Vec<ServeSummary> {
        self.peer.stop();
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// similarity_fp256 (and the `similarity.session_*` rungs)
// ---------------------------------------------------------------------

/// Pumps two engines against each other on the calling thread, as
/// `run_engine_pair` does, counting every wire frame that crosses.
/// `None` if both stall before completing.
fn pump_pair<TA, EA, TB, EB>(
    a: &mut ProtocolEngine<'_, TA, EA>,
    b: &mut ProtocolEngine<'_, TB, EB>,
    traffic: &mut Traffic,
) -> Option<(Result<TA, EA>, Result<TB, EB>)> {
    loop {
        let mut progressed = false;
        while let Some(out) = a.poll_output() {
            progressed = true;
            traffic.bytes += out.wire_len() as u64;
            traffic.frames += 1;
            out.frames().iter().for_each(|f| b.handle_input(f.clone()));
        }
        while let Some(out) = b.poll_output() {
            progressed = true;
            traffic.bytes += out.wire_len() as u64;
            traffic.frames += 1;
            out.frames().iter().for_each(|f| a.handle_input(f.clone()));
        }
        if a.is_done() && b.is_done() {
            return Some((a.take_result()?, b.take_result()?));
        }
        if !progressed {
            return None;
        }
    }
}

/// The similarity protocol's two sans-I/O roles
/// (`similarity_respond_io` / `similarity_request_io`) pumped against
/// each other on the load thread; both parties derive their model
/// geometry per request, as the by-model entry points do.
///
/// One thread, not two over a `duplex()`: a similarity session is ten
/// frames in ~0.4 ms, so with a party per thread every request is ten
/// cross-thread wake-ups, and on a busy host those — not the protocol —
/// set the latency (0.46 ms on a quiet host, 0.68 ms for minutes at a
/// time on a busy one, identical work). The threaded path through
/// `Driver` and `duplex()` is what the two classification workloads
/// over lanes measure.
pub struct MemSimilarity {
    inputs: SimilarityInputs,
    sel: OtSelect,
    seed: u64,
    traffic: Traffic,
    obs: Observers,
}

impl MemSimilarity {
    /// A requester holding `inputs.model_b` facing a responder holding
    /// `inputs.model_a`.
    pub fn new(inputs: SimilarityInputs, ot: Ot, seed: u64, obs: &Observers) -> Self {
        Self {
            inputs,
            sel: ot.select(),
            seed,
            traffic: Traffic::default(),
            obs: obs.clone(),
        }
    }
}

impl Instance for MemSimilarity {
    fn request(&mut self, i: u64) -> u64 {
        let alg = FixedFpAlgebra::new(FRAC_BITS);
        let (sel, inputs) = (self.sel, &self.inputs);
        let mut rng_a = StdRng::seed_from_u64(protocol_seed(self.seed, i, 1));
        let mut rng_b = StdRng::seed_from_u64(protocol_seed(self.seed, i, 0));
        let mut traffic = Traffic::default();
        let outcome = self.obs.scoped("similarity.session", || {
            let _collector = self.obs.client.clone().map(ppcs_telemetry::install);
            let mut respond = ProtocolEngine::new(|io| async move {
                similarity_respond_io(&alg, &io, sel, &mut rng_a, &inputs.model_a, &inputs.cfg)
                    .await
            });
            let mut request = ProtocolEngine::new(|io| async move {
                similarity_request_io(&alg, &io, sel, &mut rng_b, &inputs.model_b, &inputs.cfg)
                    .await
            });
            pump_pair(&mut respond, &mut request, &mut traffic)
        });
        self.traffic.bytes += traffic.bytes;
        self.traffic.frames += traffic.frames;
        let want = inputs.expected_t;
        match outcome {
            Some((Ok(()), Ok(t))) if (t - want).abs() <= SIMILARITY_REL_TOL * want.abs() => 1,
            Some((Ok(()), Ok(t))) => {
                report_failure(
                    "similarity mismatch",
                    &format_args!("private T {t} vs plain {want}"),
                );
                0
            }
            Some((Err(e), _)) | Some((_, Err(e))) => {
                report_failure("similarity session", &e);
                0
            }
            None => {
                report_failure("similarity session", &"both parties stalled");
                0
            }
        }
    }

    fn results_per_request(&self) -> u64 {
        1
    }

    fn traffic(&self) -> Traffic {
        self.traffic
    }

    fn finish(self: Box<Self>) -> Vec<ServeSummary> {
        Vec::new()
    }
}
