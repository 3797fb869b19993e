//! Seeded load generation: Zipf popularity, Poisson arrival schedules,
//! and the open-loop timing rule.
//!
//! Everything here is a pure function of its seed, so the same
//! `--seed` replays the same traffic.

use qse_util::rng::Rng;
use std::time::{Duration, Instant};

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf law of exponent `s` over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// How many of `n` draws fall on each rank when the mix holds the
    /// law's frequencies exactly: `n × p(rank)` rounded by largest
    /// remainder, so the counts sum to `n`.
    pub fn exact_counts(&self, n: usize) -> Vec<usize> {
        let shares: Vec<f64> = (0..self.cdf.len())
            .map(|r| self.weight(r) * n as f64)
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let (ra, rb) = (shares[a] - shares[a].floor(), shares[b] - shares[b].floor());
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let short = n - counts.iter().sum::<usize>();
        for &r in by_remainder.iter().take(short) {
            counts[r] += 1;
        }
        counts
    }

    /// `n` ranks holding [`Self::exact_counts`], in a seeded random order
    /// (Fisher–Yates). Fixing the counts keeps the job mix, and so the
    /// offered work, the same for every seed; the seed picks the order.
    pub fn shuffled_draws<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        let mut draws: Vec<usize> = self
            .exact_counts(n)
            .into_iter()
            .enumerate()
            .flat_map(|(rank, c)| std::iter::repeat_n(rank, c))
            .collect();
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.random_range(0..=i));
        }
        draws
    }

    /// The probability of `rank`.
    fn weight(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }
}

/// Send offsets, in seconds from the start of the measured phase, of a
/// Poisson process of `rate` jobs/s over `seconds`, conditioned on its
/// expected count: `round(rate × seconds)` arrival times drawn uniformly
/// and sorted. Conditioning fixes the job count per run, so the offered
/// load does not vary with the seed while gaps stay exponential.
pub fn poisson_schedule<R: Rng>(rate: f64, seconds: f64, rng: &mut R) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.random_f64() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets
}

/// The three instants of one open-loop job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopTiming {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// When its reply arrived.
    pub done: Instant,
}

impl OpenLoopTiming {
    /// Latency counts from the due time, so a generator stall is charged
    /// to every job it delayed instead of vanishing.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the job.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_util::rng::StdRng;

    #[test]
    fn zipf_draws_reproduce_exactly_from_the_seed() {
        let z = Zipf::new(32, 1.1);
        let draw = |seed| z.shuffled_draws(1500, &mut StdRng::seed_from_u64(seed));
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "the seed picks the order");
        let mut a = draw(7);
        let mut b = draw(8);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the mix is the same for every seed");
    }

    #[test]
    fn zipf_counts_hold_the_law_exactly() {
        let z = Zipf::new(32, 1.1);
        let total: f64 = (0..32).map(|r| z.weight(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // weight(0) / weight(1) = 2^1.1
        assert!((z.weight(0) / z.weight(1) - 2f64.powf(1.1)).abs() < 1e-9);
        for n in [1, 31, 1000, 1500] {
            let counts = z.exact_counts(n);
            assert_eq!(counts.iter().sum::<usize>(), n);
            for (r, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64 - z.weight(r) * n as f64).abs() < 1.0,
                    "rank {r} n {n}"
                );
            }
        }
        assert!(z.exact_counts(1500).windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn poisson_schedule_reproduces_exactly_from_the_seed() {
        let sched = |seed| poisson_schedule(60.0, 20.0, &mut StdRng::seed_from_u64(seed));
        let a = sched(3);
        assert_eq!(a, sched(3));
        assert_ne!(a, sched(4));
        assert_eq!(a.len(), 1200, "count fixed at rate × seconds");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // Exponential gaps: mean 1/rate, and about e^-1 of gaps exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / 60.0).abs() < 0.002, "{mean}");
        let long = gaps.iter().filter(|&&g| g > 1.0 / 60.0).count() as f64 / gaps.len() as f64;
        assert!((long - (-1f64).exp()).abs() < 0.05, "{long}");
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        // Due at 10 ms, sent late at 25 ms, done at 40 ms: the client
        // waited 30 ms, not the 15 ms the server saw.
        let t = OpenLoopTiming {
            due: at(10),
            sent: at(25),
            done: at(40),
        };
        assert_eq!(t.latency(), Duration::from_millis(30));
        assert_eq!(t.lag(), Duration::from_millis(15));
        let on_time = OpenLoopTiming { sent: at(10), ..t };
        assert_eq!(on_time.latency(), Duration::from_millis(30));
        assert_eq!(on_time.lag(), Duration::ZERO);
    }
}
