//! Estimators: percentiles of latency samples, the median of one-second
//! throughput windows, and the quartile spread the driver judges runs by.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice. Sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    let sorted = &*samples;
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Median of a slice of floats; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completions per second as the **median of whole one-second windows**.
///
/// `completions` are nanosecond timestamps, `start_ns` the beginning of
/// the measured phase and `end_ns` its end. A trailing partial window is
/// dropped. A window's rate is its completion count over the time from
/// the last completion before it to its own last completion, so the
/// estimate is not quantised to whole operations. With fewer than three
/// whole windows the estimator falls back to count ÷ elapsed (short
/// `--quick` runs).
pub fn window_rate(completions: &[u64], start_ns: u64, end_ns: u64) -> f64 {
    let elapsed = end_ns.saturating_sub(start_ns);
    let rates = window_rates(completions, start_ns, end_ns);
    if rates.len() < 3 {
        let n = completions.iter().filter(|&&t| t >= start_ns).count();
        return if elapsed == 0 {
            0.0
        } else {
            n as f64 / (elapsed as f64 / 1e9)
        };
    }
    median(&rates)
}

/// The rate of every whole one-second window of the phase, in order.
pub fn window_rates(completions: &[u64], start_ns: u64, end_ns: u64) -> Vec<f64> {
    const WINDOW_NS: u64 = 1_000_000_000;
    let whole = (end_ns.saturating_sub(start_ns) / WINDOW_NS) as usize;
    let mut times: Vec<u64> = completions
        .iter()
        .copied()
        .filter(|&t| t >= start_ns)
        .collect();
    times.sort_unstable();
    let mut rates = Vec::with_capacity(whole);
    let mut prev_last = start_ns;
    let mut at = 0;
    for w in 0..whole {
        let window_end = start_ns + (w as u64 + 1) * WINDOW_NS;
        let first = at;
        while at < times.len() && times[at] < window_end {
            at += 1;
        }
        if at == first {
            rates.push(0.0);
        } else {
            let last = times[at - 1];
            rates.push((at - first) as f64 / ((last - prev_last).max(1) as f64 / 1e9));
            prev_last = last;
        }
    }
    rates
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` judges spread exactly as the driver does. Needs at least
/// two values; with fewer, all three are the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.0), 1.0);
        assert_eq!(quantile(&mut s, 1.0), 100.0);
        assert!((quantile(&mut s, 0.5) - 50.5).abs() < 1e-9);
        assert!((quantile(&mut s, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile(&mut [7], 0.99), 7.0);
    }

    #[test]
    fn window_rate_is_the_median_window_and_ignores_a_stall() {
        // Five whole windows with 10, 10, 2 (a stall), 10, 10 completions
        // and a partial sixth: the mean would be dragged down, the median
        // window is not.
        let mut c = Vec::new();
        for (w, n) in [10u64, 10, 2, 10, 10, 7].iter().enumerate() {
            for i in 0..*n {
                c.push(1_000 + w as u64 * 1_000_000_000 + i * 1_000_000);
            }
        }
        let r = window_rate(&c, 1_000, 1_000 + 5_400_000_000);
        assert!((9.9..10.2).contains(&r), "{r}");
        // Completions before the phase start (warm-up) do not count.
        assert_eq!(window_rate(&[5, 10], 1_000, 1_000 + 5_000_000_000), 0.0);
    }

    #[test]
    fn window_rate_falls_back_to_the_mean_on_short_runs() {
        let c: Vec<u64> = (0..50).map(|i| i * 10_000_000).collect();
        let r = window_rate(&c, 0, 500_000_000);
        assert!((r - 100.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
