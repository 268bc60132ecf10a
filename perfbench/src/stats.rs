//! Medians, percentiles and the progress monitor shared by both paths.

use cfd_adnet::PipelineProgress;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even lengths);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// How often the monitor reads `PipelineProgress::billed()` while the
/// paced clicks are in flight (their latencies need the resolution),
/// and afterwards (only the end of the saturated phase is wanted).
/// Sleeps, not spins, so the monitor leaves the cores to the program.
const MONITOR_FINE: Duration = Duration::from_micros(50);
const MONITOR_COARSE: Duration = Duration::from_micros(200);

/// Give up on a run whose billing stops advancing for this long.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// Records `(time, billed)` every time the billed count changes, until
/// it reaches `target`, the run stalls, or `stop` is raised. Polls
/// finely until `fine_until` clicks are billed, coarsely after.
pub fn monitor_billed(
    progress: &PipelineProgress,
    fine_until: u64,
    target: u64,
    stop: &AtomicBool,
) -> Vec<(Instant, u64)> {
    let mut samples = Vec::with_capacity(1 << 16);
    let mut last = u64::MAX;
    let mut last_change = Instant::now();
    loop {
        let billed = progress.billed();
        let now = Instant::now();
        if billed != last {
            samples.push((now, billed));
            last = billed;
            last_change = now;
        }
        if billed >= target
            || stop.load(Ordering::Relaxed)
            || now.duration_since(last_change) > STALL_LIMIT
        {
            return samples;
        }
        thread::sleep(if billed < fine_until {
            MONITOR_FINE
        } else {
            MONITOR_COARSE
        });
    }
}

/// Saturated-phase throughput, one rate per window of `window` clicks:
/// the window's clicks ÷ wall time from its start (`sat_start` for the
/// first window, else the moment `billed()` covered the window before)
/// to the moment `billed()` covers its last click. Saturated clicks are
/// `first..total`; `None` when some window end was never billed.
pub fn window_rates(
    samples: &[(Instant, u64)],
    sat_start: Instant,
    first: u64,
    total: u64,
    window: u64,
) -> Option<Vec<f64>> {
    let mut rates = Vec::new();
    let mut start = sat_start;
    let mut lo = first;
    while lo < total {
        let hi = (lo + window).min(total);
        let end = billed_at(samples, hi)?;
        rates.push((hi - lo) as f64 / end.duration_since(start).as_secs_f64());
        (start, lo) = (end, hi);
    }
    Some(rates)
}

/// Time at which the billed count first covered `count` clicks.
pub fn billed_at(samples: &[(Instant, u64)], count: u64) -> Option<Instant> {
    let i = samples.partition_point(|&(_, b)| b < count);
    samples.get(i).map(|&(t, _)| t)
}

/// Per-click latency of the paced phase, in microseconds: from when the
/// click's frame was due to when `billed()` first covered the click.
/// Clicks never billed are left out (and counted as failed elsewhere).
pub fn paced_latencies_us(
    samples: &[(Instant, u64)],
    paced_start: Instant,
    paced_clicks: usize,
    frame_clicks: usize,
    rate: f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(paced_clicks);
    let mut s = 0usize;
    for i in 0..paced_clicks {
        while s < samples.len() && samples[s].1 <= i as u64 {
            s += 1;
        }
        let Some(&(billed, _)) = samples.get(s) else {
            break;
        };
        let due = paced_start + frame_due(i / frame_clicks, frame_clicks, rate);
        out.push(billed.saturating_duration_since(due).as_secs_f64() * 1e6);
    }
    out
}

/// Offset of paced frame `j` from the start of the paced phase.
pub fn frame_due(j: usize, frame_clicks: usize, rate: f64) -> Duration {
    Duration::from_secs_f64((j * frame_clicks) as f64 / rate)
}

/// Sleeps until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        thread::sleep(deadline - now);
    }
}
