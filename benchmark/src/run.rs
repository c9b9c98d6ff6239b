//! Set-up, the closed loop, and the end-to-end metrics of one run.

use std::time::Instant;

use ppcs_core::ServeSummary;

use crate::stats::{percentile, quiet_p10};
use crate::sys::{peak_rss_mib, process_cpu_s};
use crate::workloads::{setup, Instance, Observers, SetupCost, Traffic, Workload};

/// What the timed requests of one run (or one epoch of it) produced.
#[derive(Default)]
pub struct LoopStats {
    /// Wall time of each request, in issue order.
    pub latencies_ms: Vec<f64>,
    /// Results attempted (requests × results per request).
    pub attempted: u64,
    /// Results that matched the oracle.
    pub correct: u64,
    /// Wall time of the timed requests.
    pub wall_s: f64,
    /// Process CPU time (all threads, both parties) over the same time.
    pub cpu_s: f64,
    /// Client-side traffic of the timed requests.
    pub traffic: Traffic,
}

impl LoopStats {
    /// Results that did not match the oracle, errors and refusals
    /// included.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    /// Process CPU milliseconds per correct result — the operator's
    /// cost per answer. Reported per layer, not end to end: the two
    /// parties of a closed loop ping-pong, and whether the scheduler
    /// packs them on one core or spreads them over two moves this by
    /// 30 % on `fleet_sim_tcp` (0.42 vs 0.54 ms, identical work) while
    /// wall time moves 5 %.
    pub fn cpu_ms_per_result(&self) -> f64 {
        self.cpu_s * 1e3 / self.correct.max(1) as f64
    }

    /// Appends a later epoch's requests.
    fn absorb(&mut self, next: LoopStats) {
        self.latencies_ms.extend(next.latencies_ms);
        self.attempted += next.attempted;
        self.correct += next.correct;
        self.wall_s += next.wall_s;
        self.cpu_s += next.cpu_s;
        self.traffic.bytes += next.traffic.bytes;
        self.traffic.frames += next.traffic.frames;
    }
}

/// Issues requests `first .. first + requests` back to back from this
/// thread.
pub fn closed_loop(
    instance: &mut dyn Instance,
    first: u64,
    requests: usize,
    obs: &Observers,
) -> LoopStats {
    let mut latencies_ms = Vec::with_capacity(requests);
    let mut correct = 0;
    let traffic_before = instance.traffic();
    let cpu_before = process_cpu_s();
    let start = Instant::now();
    for i in first..first + requests as u64 {
        let t0 = Instant::now();
        correct += match &obs.tracer {
            Some(t) => t.request(i, || instance.request(i)),
            None => instance.request(i),
        };
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    LoopStats {
        latencies_ms,
        attempted: requests as u64 * instance.results_per_request(),
        correct,
        wall_s,
        cpu_s,
        traffic: instance.traffic().since(traffic_before),
    }
}

/// One complete run of a workload.
pub struct Run {
    /// Cost of each epoch's set-up.
    pub setups: Vec<SetupCost>,
    /// The timed region.
    pub stats: LoopStats,
    /// Summaries of the serving runs behind every epoch's instance.
    pub summaries: Vec<ServeSummary>,
    /// Timed requests per epoch; `stats.latencies_ms` holds the epochs
    /// one after another.
    pub epoch_len: usize,
    /// Requests per block of `request_p10_ms`.
    pub block_len: usize,
}

/// Runs `workload` for `epochs` epochs: each sets the system up afresh
/// (one `setup_s` sample), issues its share of the `requests` timed
/// requests and tears the instance down. Request indices run on across
/// epochs, so no request is issued twice.
///
/// # Panics
///
/// Panics unless `requests` is a positive multiple of `epochs`.
pub fn run(workload: Workload, seed: u64, requests: usize, epochs: usize, obs: &Observers) -> Run {
    assert!(
        epochs > 0 && requests > 0 && requests.is_multiple_of(epochs),
        "{requests} requests do not split into {epochs} epochs"
    );
    let epoch_len = requests / epochs;
    let mut setups = Vec::with_capacity(epochs);
    let mut summaries = Vec::new();
    let mut stats = LoopStats::default();
    for epoch in 0..epochs {
        let (mut instance, cost) = setup(workload, seed, obs);
        setups.push(cost);
        let first = (epoch * epoch_len) as u64;
        stats.absorb(closed_loop(instance.as_mut(), first, epoch_len, obs));
        summaries.extend(instance.finish());
    }
    Run {
        setups,
        stats,
        summaries,
        epoch_len,
        block_len: workload.block_len(),
    }
}

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The end-to-end metric names, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("request_p10_ms", "ms"),
    ("wire_bytes_per_result", "B"),
    ("frames_per_result", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Computes every end-to-end metric of `run`, in [`END_TO_END`] order.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let s = &run.stats;
    // Per-result costs are over the results Bob actually learned
    // correctly; a failed result earns nothing.
    let results = s.correct.max(1) as f64;
    let setup_s: Vec<f64> = run.setups.iter().map(|c| c.total_s).collect();
    let values = [
        // The first quartile, not the median: see `stats::quiet_p10` for
        // what the host does to the upper half.
        percentile(&setup_s, 25.0),
        quiet_p10(&s.latencies_ms, run.epoch_len, run.block_len),
        s.traffic.bytes as f64 / results,
        s.traffic.frames as f64 / results,
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}
