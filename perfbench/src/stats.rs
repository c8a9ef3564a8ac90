//! Summary statistics and open-loop arrival accounting.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail figure is
//! never read off a handful of outliers. Open-loop latency is measured from
//! each query's *due* time on the arrival schedule, so a generator that
//! falls behind charges its lateness to the queries it delays.

use std::time::Duration;
use torchgt_compat::rng::{RngCore, SeedableRng, SmallRng};

/// Minimum number of samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps binary rounding (99.9 / 100 × 10,000 = 9,990.000…2) from pushing an
/// exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even the
/// median, the maximum is reported as percentile 100 with nothing beyond.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for &p in &TAIL_LADDER {
        let rank = nearest_rank(n, p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(Tail {
                pct: p,
                value: v[rank - 1],
                beyond: n - rank,
                samples: n,
            });
        }
    }
    Some(Tail {
        pct: 100.0,
        value: v[n - 1],
        beyond: 0,
        samples: n,
    })
}

/// Open-loop arrival schedule: seeded exponential gaps at a fixed mean
/// `rate` (queries per second), covering `seconds`. Returns each query's
/// due offset from the phase start, ascending.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "schedule needs a positive rate and length"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Events per second in each whole `window`-second slice of `[0, total)`,
/// given each event's time. A partial last slice is dropped.
pub fn window_rates(times: &[Duration], window: Duration, total: Duration) -> Vec<f64> {
    let w = window.as_secs_f64();
    let n = (total.as_secs_f64() / w + 1e-9).floor() as usize;
    let mut counts = vec![0usize; n];
    for t in times {
        if let Some(c) = counts.get_mut((t.as_secs_f64() / w) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / w).collect()
}

/// Timing of one open-loop query, all relative to the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryTiming {
    /// When the schedule said the query should be sent.
    pub due: Duration,
    /// When the generator actually handed it to the server.
    pub sent: Duration,
}

impl QueryTiming {
    /// How late the generator ran for this query (zero if on time).
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Due time to reply, given the server's own send-to-reply latency.
    pub fn due_to_reply(&self, server_latency: Duration) -> Duration {
        self.lag() + server_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank of p99 is 990, ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99's rank is 990, only nine beyond — fall to p95.
        let t = tail(&v[..999]).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);
    }

    #[test]
    fn tail_climbs_to_p999_with_enough_samples() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_the_max_with_nothing_beyond() {
        // Twenty samples: the median's rank is 10, ten beyond — still valid.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 50.0);
        // Fifteen: even the median has only seven beyond.
        let t = tail(&v[..15]).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (100.0, 15.0, 0, 15));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 990.0);
    }

    #[test]
    fn schedule_is_seeded_ascending_and_near_the_rate() {
        let a = poisson_schedule(200.0, 10.0, 7);
        assert_eq!(a, poisson_schedule(200.0, 10.0, 7));
        assert_ne!(a, poisson_schedule(200.0, 10.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 10.0);
        // 2000 expected arrivals; Poisson sd ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn window_rates_bucket_events_and_drop_a_partial_slice() {
        let ms = Duration::from_millis;
        let times = [ms(100), ms(900), ms(1500), ms(2999), ms(3200)];
        // Three whole 1 s slices of a 3.5 s phase; the event at 3.2 s falls
        // in the dropped partial slice.
        assert_eq!(
            window_rates(&times, ms(1000), ms(3500)),
            vec![2.0, 1.0, 1.0]
        );
        assert_eq!(window_rates(&times, ms(500), ms(1000)), vec![2.0, 2.0]);
        assert!(window_rates(&[], ms(1000), ms(3000))
            .iter()
            .all(|&r| r == 0.0));
    }

    #[test]
    fn lag_is_time_past_due_and_never_negative() {
        let ms = Duration::from_millis;
        let late = QueryTiming {
            due: ms(10),
            sent: ms(13),
        };
        assert_eq!(late.lag(), ms(3));
        let early = QueryTiming {
            due: ms(10),
            sent: ms(9),
        };
        assert_eq!(early.lag(), Duration::ZERO);
    }

    #[test]
    fn due_to_reply_charges_generator_lag_to_the_query() {
        let ms = Duration::from_millis;
        // Sent 5 ms late, answered 2 ms after it was sent: 7 ms from due.
        let t = QueryTiming {
            due: ms(100),
            sent: ms(105),
        };
        assert_eq!(t.due_to_reply(ms(2)), ms(7));
        let on_time = QueryTiming {
            due: ms(100),
            sent: ms(100),
        };
        assert_eq!(on_time.due_to_reply(ms(2)), ms(2));
    }
}
