//! The repository benchmark: the socket-to-billing serve path and the
//! diurnal time-window pipeline, measured end to end (untraced run) and
//! layer by layer (traced run). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod detectors;
mod layers;
mod reference;
mod serve_path;
mod stats;
mod timed_path;
mod workload;

use serve_path::{Frames, Round};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Case, PathKind, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Fewest measured rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// Set-up and recovery trials: after every round, each kind is repeated
/// until `TRIAL_SLICE` is spent (at least once), so the trials sample
/// the host across the whole run rather than in one burst; a run that
/// ends with fewer than `MIN_TRIALS` of a kind is topped up. `setup_s`
/// and `recover_s` are their medians.
const MIN_TRIALS: usize = 15;
const TRIAL_SLICE: Duration = Duration::from_millis(150);

/// Samples a tail percentile needs beyond it.
const TAIL_SAMPLES: usize = 10;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result of one benchmark run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload: builds the stream and its reference, measures
/// rounds for `seconds`, then the setup and recovery trials (and, when
/// tracing, the layer replays). `perturb` corrupts the reference, which
/// the correctness gate must catch.
fn run(c: &Case, seconds: f64, trace: bool, perturb: bool, dir: &Path) -> Outcome {
    let (w, seed) = (c.w, c.seed);
    let clicks = c.stream();
    let frames = Frames::encode(&clicks, w.frame_clicks);
    let reference = reference::build(c, &clicks, perturb);
    let mut errors = reference.errors.clone();
    let ckpt = dir.join("state.cfdg");
    if w.path == PathKind::Timed {
        let state = reference.timed_state.as_deref().expect("timed reference");
        if let Err(e) = std::fs::write(&ckpt, state) {
            errors.push(format!("writing the timed state: {e}"));
        }
        errors.extend(timed_path::check_state_roundtrip(&ckpt, &reference));
    }

    let setup_trial = || match w.path {
        PathKind::Serve => serve_path::setup_trial(c, dir),
        PathKind::Timed => Ok(timed_path::setup_trial(c)),
    };
    let recover_trial = || match w.path {
        PathKind::Serve => serve_path::recover_trial(w, &ckpt, &reference, dir),
        PathKind::Timed => timed_path::recover_trial(w, &ckpt),
    };
    let mut setups = Vec::new();
    let mut recovers = Vec::new();
    let mut trial_errors = Vec::new();

    // Rounds until the measuring time is spent, each followed by a slice
    // of trials. A traced run alternates untraced and traced rounds, so
    // both see the same conditions.
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && rounds.len() % 2 == 1;
        let r = match w.path {
            PathKind::Serve => serve_path::round(c, &frames, &reference, dir, &ckpt, traced),
            PathKind::Timed => timed_path::round(c, &clicks, &reference, traced),
        };
        eprintln!(
            "# round {} traced={} clicks_per_s={:.0} latency_p50_us={:.1} latency_p99_us={:.1} setup_s={:.4}",
            rounds.len(),
            u8::from(traced),
            median(&r.rates),
            percentile(&r.latencies_us, 50.0),
            percentile(&r.latencies_us, 99.0),
            r.setup_s
        );
        setups.push(r.setup_s);
        rounds.push((traced, r));
        if trial_errors.is_empty() {
            repeat_trials(&mut setups, &mut trial_errors, 0, TRIAL_SLICE, setup_trial);
            repeat_trials(
                &mut recovers,
                &mut trial_errors,
                0,
                TRIAL_SLICE,
                recover_trial,
            );
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    if trial_errors.is_empty() {
        repeat_trials(
            &mut setups,
            &mut trial_errors,
            MIN_TRIALS,
            Duration::ZERO,
            setup_trial,
        );
        repeat_trials(
            &mut recovers,
            &mut trial_errors,
            MIN_TRIALS,
            Duration::ZERO,
            recover_trial,
        );
    }
    errors.extend(trial_errors);

    // Failed clicks: never billed, plus every click of a round whose
    // output failed the correctness gate.
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, (traced, r)) in rounds.iter().enumerate() {
        attempted += r.sent;
        failed += if r.errors.is_empty() {
            r.sent.saturating_sub(r.billed)
        } else {
            r.sent
        };
        for e in &r.errors {
            errors.push(format!("round {i} (traced: {traced}): {e}"));
        }
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let rate = |rs: &[&Round]| {
        median(
            &rs.iter()
                .flat_map(|r| r.rates.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    // Latency percentiles are taken per window of paced clicks and their
    // median over every window of every untraced round reported, so a
    // host hiccup in one window cannot set a run's tail on its own.
    let windows: Vec<&[f64]> = untraced
        .iter()
        .flat_map(|r| r.latencies_us.chunks_exact(w.latency_window))
        .collect();
    let latency = |p: f64| median(&windows.iter().map(|l| percentile(l, p)).collect::<Vec<_>>());
    if w.latency_window < 100 * TAIL_SAMPLES || windows.is_empty() {
        errors.push(format!(
            "{} latency windows of {} clicks: too few samples beyond p99",
            windows.len(),
            w.latency_window
        ));
    }
    let state_mb = rounds.last().map_or(0.0, |(_, r)| r.state_bytes as f64) / (1u64 << 20) as f64;
    let clicks_per_s = rate(&untraced);
    println!(
        "# perfbench workload={} seed={seed} trace={} rounds={} measured_s={measured_s:.2} \
         clicks={} paced_rate={} latency_windows={} fp={} fn={} distinct={} duplicates={}",
        w.name,
        u8::from(trace),
        rounds.len(),
        clicks.len(),
        w.paced_rate,
        windows.len(),
        reference.false_positives,
        reference.false_negatives,
        reference.distinct,
        reference.duplicates,
    );

    let metrics = if trace {
        let layers = layers::measure(
            c,
            &clicks,
            &frames,
            &reference,
            dir,
            (w.path == PathKind::Serve).then_some(ckpt.as_path()),
        );
        errors.extend(layers.errors.iter().cloned());
        let per_m = |f: fn(&Round) -> u64| {
            let n: u64 = traced.iter().map(|r| r.sent).sum();
            traced.iter().map(|r| f(r)).sum::<u64>() as f64 * 1e6 / n.max(1) as f64
        };
        let lags: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.lags_us.iter().copied())
            .collect();
        vec![
            ("wire.decode_ns_per_click", layers.wire_ns, "ns"),
            (
                "serve.overhead_ns_per_click",
                1e9 / clicks_per_s - layers.pipeline_ns,
                "ns",
            ),
            (
                "serve.hub_full_waits",
                per_m(|r| r.counters.hub_full_waits),
                "1/Mclick",
            ),
            ("pipeline.ns_per_click", layers.pipeline_ns, "ns"),
            (
                "pipeline.parallel_speedup",
                layers.sequential_pipeline_ns / layers.pipeline_ns,
                "x",
            ),
            (
                "pipeline.reseq_empty_polls",
                per_m(|r| r.counters.reseq_empty_polls),
                "1/Mclick",
            ),
            (
                "pipeline.raw_full_waits",
                per_m(|r| r.counters.raw_full_waits),
                "1/Mclick",
            ),
            ("hash.route_ns_per_click", layers.route_ns, "ns"),
            ("hash.plan_ns_per_click", layers.plan_ns, "ns"),
            ("core.apply_ns_per_click", layers.apply_ns, "ns"),
            ("core.apply_batch_p99_us", layers.apply_batch_p99_us, "us"),
            ("core.probe_reads_per_click", layers.probe_reads, "count"),
            (
                "core.insert_writes_per_click",
                layers.insert_writes,
                "count",
            ),
            ("core.clean_reads_per_click", layers.clean_reads, "count"),
            ("core.clean_writes_per_click", layers.clean_writes, "count"),
            ("billing.ns_per_click", layers.billing_ns, "ns"),
            ("checkpoint.write_ms", layers.checkpoint_write_ms, "ms"),
            ("checkpoint.read_ms", layers.checkpoint_read_ms, "ms"),
            ("ledger.sequential_ns_per_click", layers.sequential_ns, "ns"),
            ("ledger.unaccounted_frac", layers.unaccounted_frac, "share"),
            ("loadgen.lag_p99_us", percentile(&lags, 99.0), "us"),
            (
                "trace.overhead_frac",
                1.0 - rate(&traced) / clicks_per_s,
                "share",
            ),
        ]
    } else {
        let delivered = 1.0 - failed as f64 / attempted.max(1) as f64;
        vec![
            ("clicks_per_s", clicks_per_s, "clicks/s"),
            ("latency_p50_us", latency(50.0), "us"),
            ("latency_p99_us", latency(99.0), "us"),
            ("delivered_frac", delivered, "share"),
            ("specificity", reference.specificity(), "share"),
            ("recall", reference.recall(), "share"),
            ("setup_s", median(&setups), "s"),
            ("recover_s", median(&recovers), "s"),
            ("state_mb", state_mb, "MiB"),
        ]
    };
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            if !value.is_finite() {
                errors.push(format!("{name} is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            Metric { name, value, unit }
        })
        .collect();
    Outcome {
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        failed: if errors.is_empty() {
            failed
        } else {
            failed.max(1)
        },
        metrics,
        errors,
    }
}

/// Runs `trial` until `times` holds at least `min` timings and `budget`
/// is spent; the first failure is recorded and ends it.
fn repeat_trials(
    times: &mut Vec<f64>,
    errors: &mut Vec<String>,
    min: usize,
    budget: Duration,
    trial: impl Fn() -> Result<f64, String>,
) {
    let start = Instant::now();
    while times.len() < min || start.elapsed() < budget {
        match trial() {
            Ok(t) => times.push(t),
            Err(e) => {
                errors.push(e);
                return;
            }
        }
    }
}

/// The run's scratch directory, inside the working directory.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match scratch_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: creating the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let case = Case::new(args.workload, args.seed);
    let outcome = run(&case, args.seconds, args.trace, false, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED CHECK: {e}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `serve_mix` traffic at a size a test can afford: five segments of
    /// 2048 clicks, so the run crosses checkpoints.
    const TINY: Workload = Workload {
        name: "tiny",
        path: PathKind::Serve,
        scenario: include_str!("../workloads/serve_mix.toml"),
        paced_clicks: 2048,
        saturated_clicks: 8192,
        paced_rate: 200_000.0,
        rate_window: 8192,
        latency_window: 1024,
        frame_clicks: 256,
        checkpoint_every: 2048,
    };

    fn tiny_run(perturb: bool, name: &str) -> Outcome {
        let dir = PathBuf::from(".bench_run").join(format!("test-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let out = run(&Case::new(&TINY, 3), 0.0, false, perturb, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn honest_reference_passes_the_gate() {
        let out = tiny_run(false, "honest");
        assert!(out.correct, "{:?}", out.errors);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= TINY.total_clicks() as u64);
    }

    #[test]
    fn perturbed_reference_is_caught_and_the_run_fails() {
        let out = tiny_run(true, "perturbed");
        assert!(!out.correct, "a wrong reference went unnoticed");
        assert!(out.failed > 0);
        assert!(
            out.errors
                .iter()
                .any(|e| e.contains("differs from the reference")),
            "{:?}",
            out.errors
        );
    }
}
