//! The benchmark's own statistics: the percentile rule, the arrival
//! rate a rung needs, the capacity rule, windowed decode rates, and
//! due-time accounting.
//! Everything here is pure so the unit tests below can pin it.

/// Percentiles the tail rule may fall back to, highest first.
const PCT_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: which one, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `q` (0..=100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The percentile rule: the highest percentile of `PCT_LADDER` not above
/// `target` that has at least [`MIN_BEYOND`] samples beyond it. With too
/// few samples even for the median, the median is reported anyway and
/// the sample count tells the reader. `None` without samples.
pub fn tail(samples: &[f64], target: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pct = PCT_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= target)
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Some(Pct {
        pct,
        value: nearest_rank(&sorted, pct),
        n,
    })
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q / 100.0) * n as f64).ceil() as usize
}

/// A tail that one stall cannot set: `samples` are `(window, value)`
/// pairs; the percentile rule is applied within each window, and the
/// `over`-th percentile (nearest rank) of the windows' values is
/// reported, with the lowest percentile any window used and the total
/// sample count. `over = 50` is the typical window, `over = 25` the
/// quieter ones.
pub fn windowed_tail(samples: &[(usize, f64)], target: f64, over: f64) -> Option<Pct> {
    let windows = samples.iter().map(|s| s.0).max()? + 1;
    let mut by_window = vec![Vec::new(); windows];
    for &(w, v) in samples {
        by_window[w].push(v);
    }
    let tails: Vec<Pct> = by_window.iter().filter_map(|v| tail(v, target)).collect();
    let mut values: Vec<f64> = tails.iter().map(|p| p.value).collect();
    values.sort_by(f64::total_cmp);
    Some(Pct {
        pct: tails.iter().map(|p| p.pct).fold(target, f64::min),
        value: nearest_rank(&values, over),
        n: samples.len(),
    })
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Session arrival rate (per second) that keeps `streams` sessions in
/// flight on average when each lasts `mean_session_s` seconds: Little's
/// law, L = λW, solved for λ.
pub fn arrival_rate(streams: usize, mean_session_s: f64) -> f64 {
    assert!(mean_session_s > 0.0, "sessions must last some time");
    streams as f64 / mean_session_s
}

/// Poisson arrival times in `[0, horizon_s)` at `rate` per second, from
/// uniform draws supplied by `uniform` (each in `(0, 1]`).
pub fn poisson_arrivals(rate: f64, horizon_s: f64, mut uniform: impl FnMut() -> f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -uniform().ln() / rate;
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// What a rung must show to count as served in real time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    pub streams: usize,
    /// Partial-lag tail (the percentile rule's choice up to p99), ms.
    pub lag_tail_ms: f64,
    pub rejected: u64,
    pub errored: u64,
    pub backlog_growing: bool,
}

/// Partial-lag limit: one 100 ms chunk.
pub const LAG_LIMIT_MS: f64 = 100.0;

impl RungVerdict {
    pub fn passes(&self) -> bool {
        self.lag_tail_ms <= LAG_LIMIT_MS
            && self.rejected == 0
            && self.errored == 0
            && !self.backlog_growing
    }
}

/// The capacity rule: the highest rung, in ladder order, before the
/// first failing one (0 if the first fails); rungs after a failure do not
/// count even if they pass.
pub fn capacity(rungs: &[RungVerdict]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0.0, |r| r.streams as f64)
}

/// Decode rates (frames per second) over consecutive windows of `per`
/// sampling intervals: `samples` are `(ns, frames decoded so far)` in
/// time order; a trailing part window is left out. The median of these
/// is the rate a phase sustained, which a stall of a few windows does
/// not move.
pub fn window_rates(samples: &[(u64, u64)], per: usize) -> Vec<f64> {
    samples
        .iter()
        .step_by(per.max(1))
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / ((w[1].0 - w[0].0) as f64 / 1e9))
        .collect()
}

/// Whether a backlog series (frames, sampled evenly over a rung) grew:
/// the mean of its last quarter exceeds the mean of its first quarter by
/// more than `slack_frames`.
pub fn backlog_growing(samples: &[f64], slack_frames: f64) -> bool {
    if samples.len() < 4 {
        return false;
    }
    let q = samples.len() / 4;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&samples[samples.len() - q..]) - mean(&samples[..q]) > slack_frames
}

/// Due-time accounting: milliseconds from when something was due (ns on
/// the rung's clock) to `at`; 0 if it happened early. Every latency and
/// lateness of the open loop is measured this way, from the due time and
/// never from when the generator got round to sending.
pub fn since_ms(due_ns: u64, at_ns: u64) -> f64 {
    at_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// A model of one paced stream, for the test of due-time accounting:
/// chunk `k` is due at
/// `due[k]`, but is sent only when both due and the previous send call
/// has returned (`calls[k]` is how long the send call took). Returns
/// `(late, sent_done)` per chunk: how late the send started and when the
/// send call returned, both measured from the schedule's origin. A lag
/// measured as `done - due` therefore includes any stall an earlier call
/// imposed, while `done - send` would hide it.
#[cfg(test)]
fn paced_sends(due: &[f64], calls: &[f64]) -> Vec<(f64, f64)> {
    let mut free_at = f64::NEG_INFINITY;
    due.iter()
        .zip(calls)
        .map(|(&d, &c)| {
            let start = d.max(free_at);
            free_at = start + c;
            (start - d, free_at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: 10 lie beyond p99, so p99 is reported.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail(&v, 99.0).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99.0, 990.0, 1000));
        // 999 samples: only 9 beyond p99, so the rule falls to p95.
        let p = tail(&v[..999], 99.0).unwrap();
        assert_eq!(p.pct, 95.0);
        assert_eq!(p.value, 950.0);
        // 200 samples: p95 has exactly 10 beyond.
        let p = tail(&v[..200], 99.0).unwrap();
        assert_eq!((p.pct, p.value), (95.0, 190.0));
        // The target caps the choice even with plenty of samples.
        assert_eq!(tail(&v, 95.0).unwrap().pct, 95.0);
        // Too few for any tail: the median, with its count.
        let p = tail(&v[..5], 99.0).unwrap();
        assert_eq!((p.pct, p.value, p.n), (50.0, 3.0, 5));
        assert!(tail(&[], 99.0).is_none());
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r, 99.0), tail(&v, 99.0));
    }

    #[test]
    fn windowed_tail_ranks_the_window_tails() {
        // Four windows of 1000 samples; two hold a stall that sets their
        // whole tail. Neither the typical nor the quieter windows show
        // the stalls, which set the tail of the pooled samples.
        let mut v = Vec::new();
        for w in 0..4 {
            for i in 1..=1000 {
                let stall = match w {
                    1 if i > 900 => 500.0,
                    2 if i > 900 => 50.0,
                    _ => f64::from(i + 100 * w as u32) / 100.0,
                };
                v.push((w, stall));
            }
        }
        let p = windowed_tail(&v, 99.0, 50.0).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99.0, 12.9, 4000));
        let p = windowed_tail(&v, 99.0, 25.0).unwrap();
        assert_eq!(p.value, 9.9);
        let flat: Vec<f64> = v.iter().map(|s| s.1).collect();
        assert_eq!(tail(&flat, 99.0).unwrap().value, 500.0);
        // A sparse window falls back to its own supported percentile.
        let p = windowed_tail(&[(0, 1.0), (0, 2.0), (1, 3.0)], 99.0, 50.0).unwrap();
        assert_eq!((p.pct, p.value), (50.0, 1.0));
        assert!(windowed_tail(&[], 99.0, 50.0).is_none());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rate_follows_littles_law() {
        // 500 streams of 2.5 s sessions need 200 arrivals per second.
        assert!((arrival_rate(500, 2.5) - 200.0).abs() < 1e-9);
        // Concurrency = rate x duration recovers the rung.
        let rate = arrival_rate(1500, 2.63);
        assert!((rate * 2.63 - 1500.0).abs() < 1e-9);
        // A Poisson process at that rate delivers rate x horizon arrivals.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        };
        let got = poisson_arrivals(200.0, 50.0, &mut uniform);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
        assert!(got.iter().all(|&t| (0.0..50.0).contains(&t)));
        let expected = 200.0 * 50.0;
        assert!(
            (got.len() as f64 - expected).abs() < 4.0 * expected.sqrt(),
            "{} arrivals, expected about {expected}",
            got.len()
        );
    }

    fn rung(streams: usize, lag: f64) -> RungVerdict {
        RungVerdict {
            streams,
            lag_tail_ms: lag,
            rejected: 0,
            errored: 0,
            backlog_growing: false,
        }
    }

    #[test]
    fn capacity_is_the_last_rung_before_the_first_failure() {
        let ladder = [rung(250, 5.0), rung(500, 9.0), rung(1000, 40.0)];
        assert_eq!(capacity(&ladder), 1000.0);
        // A failing rung ends the ladder; a later pass does not count.
        let ladder = [rung(250, 5.0), rung(500, 200.0), rung(1000, 40.0)];
        assert_eq!(capacity(&ladder), 250.0);
        assert_eq!(capacity(&[rung(250, 180.0)]), 0.0);
        // Each condition fails a rung on its own.
        let mut r = rung(500, 1.0);
        r.rejected = 1;
        assert!(!r.passes());
        let mut r = rung(500, 1.0);
        r.errored = 1;
        assert!(!r.passes());
        let mut r = rung(500, 1.0);
        r.backlog_growing = true;
        assert!(!r.passes());
        assert!(rung(500, LAG_LIMIT_MS).passes());
    }

    #[test]
    fn window_rates_group_the_samples() {
        // 1,000 frames per 100 ms sample, with a 300 ms stall after the
        // fourth sample and a trailing part window.
        let mut samples = Vec::new();
        let (mut t, mut f) = (0u64, 0u64);
        for i in 0..12 {
            samples.push((t, f));
            t += if i == 3 { 400_000_000 } else { 100_000_000 };
            f += 1000;
        }
        let rates = window_rates(&samples, 5);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 5000.0 / 0.8).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 10_000.0).abs() < 1e-6, "{rates:?}");
        // The stall moves one window, not the median of many.
        assert_eq!(median(&window_rates(&samples, 1)), 10_000.0);
        assert!(window_rates(&samples[..1], 5).is_empty());
    }

    #[test]
    fn backlog_growth_compares_the_ends_of_the_rung() {
        let flat = [40.0, 10.0, 35.0, 20.0, 30.0, 15.0, 40.0, 12.0];
        assert!(!backlog_growing(&flat, 50.0));
        let rising: Vec<f64> = (0..40).map(|i| f64::from(i) * 100.0).collect();
        assert!(backlog_growing(&rising, 50.0));
        assert!(!backlog_growing(&[0.0, 1e9], 50.0));
    }

    #[test]
    fn a_stalled_call_shows_in_the_lag_of_later_chunks() {
        // Chunks due every 100 ms; every send call takes 1 ms except the
        // third, which stalls for 250 ms.
        let due: Vec<f64> = (0..6).map(|k| f64::from(k) * 100.0).collect();
        let calls = [1.0, 1.0, 250.0, 1.0, 1.0, 1.0];
        let sends = paced_sends(&due, &calls);
        let ns = |ms: f64| (ms * 1e6) as u64;
        let lag: Vec<f64> = sends
            .iter()
            .zip(&due)
            .map(|(s, d)| since_ms(ns(*d), ns(s.1)))
            .collect();
        let late: Vec<f64> = sends.iter().map(|s| s.0).collect();
        assert_eq!(lag[..2], [1.0, 1.0]);
        assert_eq!(lag[2], 250.0);
        // Chunks 3 and 4 were due during the stall: they start late and
        // their lag from due time carries the wait ...
        assert_eq!(late[3], 150.0);
        assert_eq!(lag[3], 151.0);
        assert_eq!(late[4], 51.0);
        assert_eq!(lag[4], 52.0);
        // ... which timing from the send would hide (1 ms each).
        for k in 3..5 {
            let (late, done) = sends[k];
            assert_eq!(done - (due[k] + late), 1.0);
        }
        // Once the schedule catches up, lag is back to the call time.
        assert_eq!((late[5], lag[5]), (0.0, 1.0));
        // Something done before it was due is not early: it is on time.
        assert_eq!(since_ms(ns(5.0), ns(3.0)), 0.0);
    }
}
