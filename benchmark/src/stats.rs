//! Order statistics the reports are built from.

/// Nearest-rank percentile of `samples` (`0 < p ≤ 100`): the smallest
/// value with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a non-finite sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond it (choosing-metrics §1), so p90 needs 100
/// samples and p99 needs 1000.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    let at_or_below = ((p / 100.0) * n as f64).ceil() as usize;
    n >= at_or_below + 10
}

/// `request_p10_ms`: the first-decile request latency with the host's
/// interference taken out, as far as one run can.
///
/// `latencies` holds a run's epochs one after another, `epoch_len`
/// requests each. Every epoch replays the same trajectory (a fresh
/// system, the same number of requests), so it is cut into blocks of
/// `block_len` consecutive requests (the last block takes the
/// remainder) and block `k` of every epoch measures the same thing.
/// Each block yields its nearest-rank first decile; of the epochs'
/// values for one block position the lowest is kept; the result is the
/// median over positions.
///
/// Why lows and not the run's median: on the shared host this runs on,
/// a neighbour slows the process by 1.3–2× in bursts of milliseconds
/// to minutes that cover anything from a tenth to all of a run, and
/// only ever adds time. The median and everything above it then read
/// the neighbour; the fast tenth of a 40 ms block and the quietest of
/// several epochs read the code. The median over positions keeps what
/// the code itself does to latency as an epoch goes on (the
/// session-count drift of `serve_async_tcp`).
///
/// # Panics
///
/// Panics unless `latencies` is a positive whole number of epochs.
pub fn quiet_p10(latencies: &[f64], epoch_len: usize, block_len: usize) -> f64 {
    assert!(
        epoch_len > 0 && !latencies.is_empty() && latencies.len().is_multiple_of(epoch_len),
        "{} latencies are not whole epochs of {epoch_len}",
        latencies.len()
    );
    let positions = (epoch_len / block_len.max(1)).max(1);
    let quietest: Vec<f64> = (0..positions)
        .map(|k| {
            let start = k * block_len;
            let end = if k + 1 == positions {
                epoch_len
            } else {
                start + block_len
            };
            latencies
                .chunks(epoch_len)
                .map(|epoch| percentile(&epoch[start..end], 10.0))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&quietest)
}

/// Times `calls` invocations of `f` and returns the median in
/// nanoseconds — the ladder's "median of ≥11 calls (≥3 for
/// second-scale rungs)".
pub fn median_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // Order of the input does not matter, and one sample is every
        // percentile of itself.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_p10_keeps_the_quietest_epoch_of_each_block_position() {
        // Two epochs of two blocks of ten requests. Block 0 is quiet in
        // the first epoch, block 1 in the second; a burst of slow
        // requests inside a quiet block does not reach its first decile.
        let block = |base: f64| -> Vec<f64> { (0..10).map(|i| base + f64::from(i)).collect() };
        let mut run = Vec::new();
        run.extend(block(10.0)); // epoch 0, block 0: p10 = 10
        run.extend(block(80.0)); // epoch 0, block 1: disturbed
        run.extend(block(50.0)); // epoch 1, block 0: disturbed
        run.extend(block(20.0)); // epoch 1, block 1: p10 = 20
        run[5] = 1000.0;
        // Positions read 10 and 20; the nearest-rank median of two is
        // the lower.
        assert_eq!(quiet_p10(&run, 20, 10), 10.0);
        // One epoch, one request per block: the median request.
        assert_eq!(quiet_p10(&[3.0, 1.0, 2.0], 3, 1), 2.0);
        // A block longer than the epoch is the whole epoch.
        assert_eq!(quiet_p10(&[3.0, 1.0, 2.0], 3, 50), 1.0);
        // The last block takes the remainder: [1, 2] and [3, 4, 5].
        assert_eq!(quiet_p10(&[1.0, 2.0, 3.0, 4.0, 5.0], 5, 2), 1.0);
    }

    #[test]
    fn ten_samples_must_lie_beyond_a_reported_percentile() {
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
    }
}
