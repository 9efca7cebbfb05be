//! The benchmark's own arithmetic: quantiles, the samples beyond a tail
//! percentile, geometric means, and the split of an open-loop request's
//! latency into backlog wait, generator lateness and service.

use std::time::Duration;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample;
/// NaN for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; NaN for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples of an `n`-sample that lie beyond percentile `p` (in percent).
pub fn beyond(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent, so 99.9 and 99 are exact.
    let tenths = (p * 10.0).round() as usize;
    n * (1000 - tenths.min(1000)) / 1000
}

/// Percentile `p` (in percent) of `xs`, with a note giving the sample count
/// and the samples beyond it. A tail is reported only where at least ten
/// samples lie beyond it; a sample that falls short is flagged in the note.
/// Each workload fixes its `p` from the smallest sample a run holds, so
/// that every run reports the same percentile.
pub fn tail(xs: &[f64], p: f64) -> (f64, String) {
    let n = xs.len();
    let k = beyond(n, p);
    let short = if k < 10 {
        " (fewer than ten beyond)"
    } else {
        ""
    };
    (
        quantile(xs, p / 100.0),
        format!("p{p} of n={n}, {k} beyond{short}"),
    )
}

/// Geometric mean; NaN when the sample is empty or holds a value that is
/// not positive and finite.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// When one open-loop request happened, as offsets from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When a client thread was free to send it: the due time, or later
    /// when every thread was still busy with earlier requests.
    pub ready: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its first `chain` frame arrived, if one did.
    pub first_chain: Option<Duration>,
    /// When its terminal frame arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency timed from when the request was due, so a stall also
    /// charges the wait it imposes on every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Time spent in the client-side backlog because no thread was free.
    pub fn backlog_wait(&self) -> Duration {
        self.ready.saturating_sub(self.due)
    }

    /// How late the generator itself sent the request once a thread was
    /// free (sleep overshoot, scheduling delay).
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.ready)
    }

    /// Time to the first `chain` frame, from the due time.
    pub fn ttfc(&self) -> Option<Duration> {
        self.first_chain.map(|t| t.saturating_sub(self.due))
    }
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_linearly() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert!((quantile(&[0.0, 10.0], 0.99) - 9.9).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_counts_the_samples_beyond_its_percentile() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(189, 90.0), 18);
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        let (v, note) = tail(&xs, 99.0);
        assert_eq!(v, quantile(&xs, 0.99));
        assert_eq!(note, "p99 of n=2000, 20 beyond");
        // 189 fits hold ten beyond p90 but only nine beyond p95.
        let (v, note) = tail(&xs[..189], 90.0);
        assert_eq!(v, quantile(&xs[..189], 0.90));
        assert_eq!(note, "p90 of n=189, 18 beyond");
        let (_, note) = tail(&xs[..189], 95.0);
        assert_eq!(note, "p95 of n=189, 9 beyond (fewer than ten beyond)");
    }

    #[test]
    fn geomean_of_ratios_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        let xs = [0.5, 3.0, 7.0];
        let scaled: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        assert!((geomean(&scaled) - 2.0 * geomean(&xs)).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn due_time_latency_charges_backlog_and_lateness() {
        let t = |ms: u64| Duration::from_millis(ms);
        // Due at 10 ms, every thread busy until 25 ms, sent at 26 ms, the
        // first chain at 30 ms, done at 40 ms.
        let timing = Timing {
            due: t(10),
            ready: t(25),
            sent: t(26),
            first_chain: Some(t(30)),
            done: t(40),
        };
        assert_eq!(timing.latency(), t(30));
        assert_eq!(timing.backlog_wait(), t(15));
        assert_eq!(timing.late(), t(1));
        assert_eq!(timing.ttfc(), Some(t(20)));
        // The service time alone would have been 14 ms; the due-time
        // latency is the service plus backlog plus lateness.
        assert_eq!(
            timing.latency(),
            (timing.done - timing.sent) + timing.backlog_wait() + timing.late()
        );
    }
}
