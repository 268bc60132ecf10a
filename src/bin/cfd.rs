//! `cfd` — command-line front-end for the click-fraud detection suite.
//!
//! ```text
//! cfd generate --kind botnet --count 100000 --out clicks.cfdt
//! cfd detect   --algo tbf --window 8192 --trace clicks.cfdt --score-publishers
//! cfd run      --algo tbf --kind botnet --count 1000000 --shards 4 --metrics
//! cfd size     --algo gbf --window 1048576 --sub-windows 8 --target-fp 0.001
//! ```
//!
//! The trace format is the `CFDT` binary of `cfd_stream::trace`; every
//! run is deterministic for a given `--seed`. `cfd run` drives the full
//! concurrent billing pipeline and, with `--metrics[=millis]`, prints
//! periodic telemetry snapshots to stderr (the metric catalog lives in
//! `docs/OBSERVABILITY.md`).

use cfd_adnet::{
    replay_client, run_sharded_pipeline, run_sharded_pipeline_instrumented, serve, Advertiser,
    AdvertiserId, Campaign, ClientConfig, DrainControl, Endpoint, FraudScorer, PipelineConfig,
    PipelineTelemetry, ServeConfig, ServeInstruments, ServeTelemetry, ServerState,
};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_stream::{
    read_trace, write_trace, AdId, BotnetConfig, BotnetStream, Click, CoalitionConfig,
    CoalitionStream, CrawlerStream, DuplicateInjector, FlashCrowdConfig, FlashCrowdStream,
    UniqueClickStream,
};
use cfd_telemetry::{Registry as TelemetryRegistry, Reporter, SnapshotFormat};
use cfd_windows::{DuplicateDetector, ExactSlidingDedup, ObservableDetector, StreamSummary};
use click_fraud_detection::{cli, sweep};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// The usage text with the `--algo` list spliced in from the backend
/// registry (so help can never drift from the registered backends) and
/// the gateway blocks spliced from [`cli`] (so help can never drift
/// from `README.md`, which embeds the same constants verbatim).
fn usage() -> String {
    USAGE_TEMPLATE
        .replace("{algos}", &cfd_core::registry::algo_list())
        .replace("{serve}", cli::SERVE_USAGE)
        .replace("{replay}", cli::REPLAY_USAGE)
        .replace("{sweep}", cli::SWEEP_USAGE)
}

const USAGE_TEMPLATE: &str = "\
usage: cfd <command> [options]

commands:
  generate   synthesize a click trace
             --kind unique|duplicates|botnet|coalition|crawler|flashcrowd
             --count <clicks> [--seed <u64>] --out <file>
  detect     run a duplicate detector over a trace
             --algo {algos}|exact
             --window <N> [--sub-windows <Q>] [--cells-per-element <c>]
             [--k <hashes>] [--seed <u64>] --trace <file>
             [--shards <S>] [--batch <B>] [--layout scattered|blocked]
             [--window-units <U>] [--sub-units <U>] [--unit-ticks <T>]
             [--score-publishers]
             (cells = filter bits for gbf, timestamp entries for tbf;
              default 14, the paper's Fig. 2 ratio; --shards splits the
              keyspace over S detectors of window N/S, --batch sets the
              observe_batch chunk size, default 512; time-tbf/time-gbf
              judge each click at its own trace tick over a wall-clock
              window: window-units units for time-tbf, sub-windows
              sub-windows of sub-units units for time-gbf, each unit
              unit-ticks ticks — there --window sizes the tables as the
              expected clicks per window, and shards keep the full time
              window since they share one clock)
  run        drive the concurrent billing pipeline end to end
             --algo {algos}|exact
             [--window <N>]
             [--sub-windows <Q>] [--cells-per-element <c>] [--k <hashes>]
             [--seed <u64>] [--shards <S>] [--batch <B>] [--queue <Q>]
             [--layout scattered|blocked]
             [--window-units <U>] [--sub-units <U>] [--unit-ticks <T>]
             [--pin-workers]
             (--trace <file> | [--kind <workload>] [--count <clicks>])
             (--queue sets the per-worker ring size in batches, rounded
              up to a power of two; --pin-workers pins shard worker i to
              CPU i, best-effort)
             [--ads <N>] [--report-json <file>]
             [--metrics[=millis]] [--metrics-json]
             (--metrics prints periodic telemetry snapshots to stderr:
              per-shard queue depth, per-stage latency, detector fill +
              online FP estimate; --metrics-json emits JSON lines
              instead of tables; see docs/OBSERVABILITY.md;
              --ads N bills against a fixed registry of N campaigns —
              the same one `cfd serve --ads N` uses — and --report-json
              writes the final report for byte-for-byte comparison)
{serve}
{replay}
{sweep}
  size       memory required for a target false-positive rate
             --algo gbf|tbf|metwally --window <N> [--sub-windows <Q>]
             --target-fp <rate>
  algos      list the registered detector backends (markdown table;
             README.md's algorithm table is generated from this)
  help       print this message";

/// Minimal `--name value` argument map (flags take `true`).
struct Opts(HashMap<String, String>);

/// The detector-shaping options ([`DetectorSpec::parse`]).
const DETECTOR_OPTS: &[&str] = &[
    "algo",
    "window",
    "sub-windows",
    "cells-per-element",
    "k",
    "seed",
    "layout",
    "window-units",
    "sub-units",
    "unit-ticks",
];

/// The pipeline, billing and telemetry options `run` and `serve` share.
const PIPELINE_OPTS: &[&str] = &[
    "shards",
    "batch",
    "queue",
    "pin-workers",
    "ads",
    "report-json",
    "metrics",
    "metrics-json",
];

impl Opts {
    /// Parses `args`, rejecting any option not in `accepted` with
    /// [`cli::UsageError::Unknown`].
    fn parse(args: &[String], accepted: &[&[&str]]) -> Result<Self, String> {
        let accepted = accepted.concat();
        let mut map = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| cli::UsageError::Unknown(arg.clone()).to_string())?;
            // `--name=value` binds inline; otherwise the next
            // non-option token is the value, and a bare flag is "true".
            let (name, value) = match name.split_once('=') {
                Some((name, value)) => (name, value.to_owned()),
                None => match it.peek() {
                    Some(v) if !v.starts_with("--") => (name, it.next().expect("peeked").clone()),
                    _ => (name, "true".to_owned()),
                },
            };
            cli::check_option(name, &accepted).map_err(|e| e.to_string())?;
            map.insert(name.to_owned(), value);
        }
        Ok(Self(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parses a count option that must be at least 1, rejecting zero
    /// (and garbage) with the typed [`cli::UsageError`] instead of
    /// letting a zero-shard router or zero-bit detector budget panic
    /// deeper in the stack.
    fn positive(&self, name: &'static str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => cli::parse_positive(name, raw).map_err(|e| e.to_string()),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = |accepted: &[&[&str]]| Opts::parse(&args[1..], accepted);
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&opts(&[&["kind", "count", "seed", "out"]])?),
        Some("detect") => cmd_detect(&opts(&[
            DETECTOR_OPTS,
            &["shards", "batch", "trace", "score-publishers"],
        ])?),
        Some("run") => cmd_run(&opts(&[
            DETECTOR_OPTS,
            PIPELINE_OPTS,
            &["trace", "kind", "count"],
        ])?),
        Some("serve") => cmd_serve(&opts(&[
            DETECTOR_OPTS,
            PIPELINE_OPTS,
            &[
                "listen",
                "hub-batches",
                "checkpoint",
                "checkpoint-every",
                "resume",
            ],
        ])?),
        Some("replay-client") => cmd_replay_client(&opts(&[&[
            "connect",
            "trace",
            "frame-clicks",
            "limit",
            "drain",
            "throttle-ms",
            "retries",
        ]])?),
        Some("size") => cmd_size(&opts(&[&["algo", "window", "sub-windows", "target-fp"]])?),
        Some("sweep") => cmd_sweep(&opts(&[&["scenario", "quick", "out", "table"]])?),
        Some("algos") => {
            print!("{}", cfd_core::registry::markdown_table());
            Ok(())
        }
        Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// Synthesizes `count` clicks of the named workload (shared by
/// `cfd generate` and `cfd run`).
fn synth_clicks(kind: &str, count: usize, seed: u64) -> Result<Vec<Click>, String> {
    Ok(match kind {
        "unique" => UniqueClickStream::new(seed, 16, 64).take(count).collect(),
        "duplicates" => {
            DuplicateInjector::new(UniqueClickStream::new(seed, 16, 64), 0.25, 5_000, seed ^ 1)
                .take(count)
                .collect()
        }
        "botnet" => BotnetStream::new(
            BotnetConfig {
                seed,
                ..BotnetConfig::default()
            },
            16,
            64,
        )
        .take(count)
        .map(|c| c.click)
        .collect(),
        "coalition" => CoalitionStream::new(CoalitionConfig {
            seed,
            ..CoalitionConfig::default()
        })
        .take(count)
        .map(|c| c.click)
        .collect(),
        "crawler" => CrawlerStream::new(8, 32, 10, seed).take(count).collect(),
        "flashcrowd" => FlashCrowdStream::new(FlashCrowdConfig {
            seed,
            ..FlashCrowdConfig::default()
        })
        .take(count)
        .map(|c| c.click)
        .collect(),
        other => return Err(format!("--kind: unknown workload `{other}`")),
    })
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let kind = opts.required("kind")?.to_owned();
    let count: usize = opts.parse_num("count", 100_000)?;
    let seed: u64 = opts.parse_num("seed", 0)?;
    let out = opts.required("out")?.to_owned();

    let clicks = synth_clicks(&kind, count, seed)?;
    let buf = write_trace(&clicks);
    std::fs::write(&out, &buf).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {count} clicks ({} bytes) to {out}", buf.len());
    Ok(())
}

/// The detector-shaping options `detect`, `run` and `serve` share,
/// parsed once into the registry's geometry so every command builds a
/// backend the same way.
struct DetectorSpec {
    algo: String,
    geo: BackendGeometry,
}

impl DetectorSpec {
    fn parse(opts: &Opts, algo: &str) -> Result<Self, String> {
        // A zero window or zero cells-per-element would hand the
        // registry a zero-bit memory budget (for the arena backend, a
        // zero budget for every tenant) — reject it up front. The
        // time-window defaults give a 65 536-tick window either way (64
        // units, or 8 sub-windows of 8 units, of 1024 ticks): the span
        // of the default count window on one-click-per-tick workloads.
        let geo = BackendGeometry::new(
            opts.positive("window", 1 << 16)?,
            MemorySpec::CellsPerElement(opts.positive("cells-per-element", 14)?),
        )
        .with_sub_windows(opts.parse_num("sub-windows", 8)?)
        .with_hash_count(opts.parse_num("k", 10)?)
        .with_seed(opts.parse_num("seed", 0)?)
        .with_probe(parse_layout(opts)?)
        .with_time(
            opts.positive("window-units", 64)? as u64,
            opts.positive("sub-units", 8)? as u64,
            opts.positive("unit-ticks", 1024)? as u64,
        );
        Ok(Self {
            algo: algo.to_owned(),
            geo,
        })
    }

    /// Builds the `shards` keyspace shards for `cmd_detect` / `cmd_run`,
    /// routed by `--seed` (the 1-shard case is one worker, trivial
    /// router). The boxes carry [`ObservableDetector`] so the
    /// instrumented pipeline can also poll detector health through them.
    ///
    /// Every Bloom-style backend resolves through
    /// [`registry::build_sharded`], which also owns the sharding rule;
    /// only the `exact` oracle — which needs raw ids, not hashes — is
    /// built here directly, at the count-window share `N/S`.
    fn build_sharded(
        &self,
        shards: usize,
    ) -> Result<ShardedDetector<Box<dyn ObservableDetector + Send>>, String> {
        if self.algo != "exact" {
            let sharded = registry::build_sharded(&self.algo, &self.geo, shards)
                .map_err(|e| format!("--algo: {e}"))?;
            return Ok(sharded.map_shards(|b| Box::new(b) as Box<dyn ObservableDetector + Send>));
        }
        if self.geo.probe == ProbeLayout::Blocked {
            return Err("--layout blocked needs a Bloom-style detector, not `exact`".into());
        }
        let n_s = per_shard_window(self.geo.window, shards);
        let exact = (0..shards)
            .map(|_| Box::new(ExactSlidingDedup::new(n_s)) as Box<dyn ObservableDetector + Send>)
            .collect();
        ShardedDetector::new(self.geo.seed, exact).map_err(|e| e.to_string())
    }
}

/// Parses `--layout scattered|blocked` (default scattered).
fn parse_layout(opts: &Opts) -> Result<ProbeLayout, String> {
    match opts.get("layout").unwrap_or("scattered") {
        "scattered" => Ok(ProbeLayout::Scattered),
        "blocked" => Ok(ProbeLayout::Blocked),
        other => Err(format!(
            "--layout: `{other}` (accepted: scattered, blocked)"
        )),
    }
}

fn cmd_detect(opts: &Opts) -> Result<(), String> {
    let algo = opts.required("algo")?.to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let shards: usize = opts.positive("shards", 1)?;
    let batch: usize = opts.positive("batch", 512)?;
    let trace_path = opts.required("trace")?.to_owned();

    let buf = std::fs::read(&trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    let clicks = read_trace(&buf).map_err(|e| e.to_string())?;

    // With --shards S, the keyspace is split over S detectors (a count
    // window of N/S each — same total memory, soft window edge, see
    // `cfd_analysis::sharding` — or the full time window with tables
    // sized for N/S clicks); the routing seed is decorrelated from the
    // probe seed by `ShardRouter` itself.
    let mut detector: Box<dyn ObservableDetector + Send> = if shards > 1 {
        Box::new(spec.build_sharded(shards)?)
    } else {
        spec.build_sharded(1)?
            .into_shards()
            .pop()
            .expect("one shard")
    };

    let mut summary = StreamSummary::default();
    let mut scorer = FraudScorer::new();
    let mut keys: Vec<[u8; 16]> = Vec::with_capacity(batch);
    let mut ticks: Vec<u64> = Vec::with_capacity(batch);
    for chunk in clicks.chunks(batch) {
        keys.clear();
        keys.extend(chunk.iter().map(Click::key));
        ticks.clear();
        ticks.extend(chunk.iter().map(|c| c.tick));
        let refs: Vec<&[u8]> = keys.iter().map(<[u8; 16]>::as_slice).collect();
        for (click, v) in chunk.iter().zip(detector.observe_batch_at(&refs, &ticks)) {
            summary.record(v);
            scorer.record(click, v);
        }
    }

    let window = detector.window();
    println!("detector : {} over {window}", detector.name());
    if shards > 1 {
        match window.tick_span() {
            Some(_) => println!("shards   : {shards} x {algo} sharing the global time window"),
            None => println!(
                "shards   : {shards} x {algo} with per-shard window {}",
                per_shard_window(spec.geo.window, shards)
            ),
        }
    }
    println!(
        "memory   : {:.1} KiB",
        detector.memory_bits() as f64 / 8.0 / 1024.0
    );
    print_stream_report(opts, &summary, &scorer);
    Ok(())
}

/// Shared tail of `cmd_detect`: stream totals plus the optional
/// publisher fraud-score table.
fn print_stream_report(opts: &Opts, summary: &StreamSummary, scorer: &FraudScorer) {
    println!("clicks   : {}", summary.total());
    println!(
        "duplicate: {} ({:.3}%)",
        summary.duplicates,
        100.0 * summary.duplicate_rate()
    );
    println!("distinct : {}", summary.distinct);

    if opts.flag("score-publishers") {
        println!();
        println!("publisher fraud scores (z >= 3 flagged):");
        println!(
            "{:>10} {:>10} {:>10} {:>8} {:>8}",
            "publisher", "clicks", "blocked", "rate", "z"
        );
        for s in scorer.scores(100) {
            println!(
                "{:>10} {:>10} {:>10} {:>8.4} {:>8.2}{}",
                s.publisher.0,
                s.clicks,
                s.blocked,
                s.rate,
                s.z_score,
                if s.is_suspicious(3.0) {
                    "  <-- SUSPICIOUS"
                } else {
                    ""
                }
            );
        }
    }
}

/// A billing registry with one advertiser of effectively unlimited
/// budget and one campaign per ad in `ads` at a flat CPC. `--ads N`
/// bills against ads `0..N` in both `cfd run` and `cfd serve`, so their
/// `--report-json` outputs are comparable byte for byte; without it,
/// `cfd run` registers every distinct ad its clicks touch.
fn flat_cpc_registry(ads: impl IntoIterator<Item = AdId>) -> cfd_adnet::Registry {
    let mut registry = cfd_adnet::Registry::new();
    registry.add_advertiser(Advertiser::new(AdvertiserId(1), "advertiser", u64::MAX / 4));
    for ad in ads {
        registry
            .add_campaign(Campaign {
                ad,
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser just registered");
    }
    registry
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let algo = opts.get("algo").unwrap_or("tbf").to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let seed = spec.geo.seed;
    let shards: usize = opts.positive("shards", 4)?;
    let batch: usize = opts.positive("batch", 512)?;
    let queue: usize = opts.positive("queue", 16)?;
    let pin_workers = opts.flag("pin-workers");

    let clicks: Vec<Click> = match opts.get("trace") {
        Some(path) => {
            let buf = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            read_trace(&buf).map_err(|e| e.to_string())?
        }
        None => {
            let kind = opts.get("kind").unwrap_or("botnet");
            let count: usize = opts.parse_num("count", 1_000_000)?;
            synth_clicks(kind, count, seed)?
        }
    };

    // `--metrics` alone means a 1s cadence; `--metrics=250` (or
    // `--metrics 250`) overrides it. `--metrics-json` implies metrics.
    let interval_ms: u64 = match opts.get("metrics") {
        None => 1_000,
        Some("true") => 1_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--metrics: bad interval `{v}`"))?,
    };
    let metrics_on = opts.flag("metrics") || opts.flag("metrics-json");
    let format = if opts.flag("metrics-json") {
        SnapshotFormat::JsonLines
    } else {
        SnapshotFormat::Table
    };

    // The 1-shard case still goes through the sharded pipeline — one
    // worker, trivial router, same telemetry.
    let detector = spec.build_sharded(shards)?;
    let window_ticks = detector.window().tick_span();
    let registry = match opts.get("ads") {
        Some(_) => flat_cpc_registry((0..opts.parse_num("ads", 64)?).map(AdId)),
        None => {
            let mut ads: Vec<_> = clicks.iter().map(|c| c.id.ad).collect();
            ads.sort_unstable();
            ads.dedup();
            flat_cpc_registry(ads)
        }
    };
    let config = PipelineConfig {
        batch,
        queue,
        pin_workers,
    };
    let total = clicks.len();

    let started = Instant::now();
    let outcome = if metrics_on {
        let metrics = Arc::new(TelemetryRegistry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let on_tick = {
            let telemetry = Arc::clone(&telemetry);
            move || telemetry.request_detector_health()
        };
        let reporter = Reporter::spawn(
            Arc::clone(&metrics),
            Duration::from_millis(interval_ms.max(1)),
            format,
            on_tick,
        );
        let outcome =
            run_sharded_pipeline_instrumented(detector, registry, clicks, config, None, telemetry);
        reporter.stop(); // final snapshot, even on sub-interval runs
        outcome
    } else {
        run_sharded_pipeline(detector, registry, clicks, config, None)
    };
    let elapsed = started.elapsed();

    let r = &outcome.report;
    match window_ticks {
        Some(t) => println!(
            "pipeline : {} over a {t}-tick time window ({shards} shards)",
            r.detector
        ),
        None => println!(
            "pipeline : {} over {} ({shards} shards)",
            r.detector, spec.geo.window
        ),
    }
    println!(
        "memory   : {:.1} KiB",
        r.detector_memory_bits as f64 / 8.0 / 1024.0
    );
    println!(
        "clicks   : {total} in {:.2}s ({:.0} clicks/s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("charged  : {}", r.charged);
    println!(
        "blocked  : {} duplicates ({} micros saved)",
        r.duplicates_blocked, r.savings_micros
    );
    println!("revenue  : {} micros", r.revenue_micros);
    for (i, h) in outcome.health.iter().enumerate() {
        println!(
            "shard {i}  : fill={:.4} est_fp={:.2e} dup_rate={:.4} elements={}",
            h.mean_fill(),
            h.estimated_fp,
            h.duplicate_rate(),
            h.observed_elements
        );
    }
    if let Some(path) = opts.get("report-json") {
        std::fs::write(path, outcome.report.to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Set by the `SIGTERM`/`SIGINT` handler; a watcher thread inside
/// `cmd_serve` turns it into a [`DrainControl`] drain request.
static SIG_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_sig: i32) {
    SIG_DRAIN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Sets its flag when dropped, including during a panic unwind.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let endpoint = Endpoint::parse(opts.required("listen")?).map_err(|e| e.to_string())?;
    let algo = opts.get("algo").unwrap_or("tbf").to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let shards: usize = opts.positive("shards", 4)?;
    let batch: usize = opts.positive("batch", 512)?;
    let queue: usize = opts.positive("queue", 16)?;
    let ads: u32 = opts.parse_num("ads", 64)?;
    let hub_batches: usize = opts.positive("hub-batches", 64)?;
    let checkpoint = opts.get("checkpoint").map(PathBuf::from);
    let checkpoint_every: u64 = opts.parse_num("checkpoint-every", 0)?;

    // A restart has only the checkpoint file: detector tables, shard
    // count, billing ledger, scorer tallies, and the resume position
    // all come from it.
    let state: ServerState<Box<dyn DetectorBackend>> = if opts.flag("resume") {
        let path = checkpoint.as_deref().ok_or("--resume needs --checkpoint")?;
        let state = ServerState::read_checkpoint(path).map_err(|e| e.to_string())?;
        let restored = state.detector.shard_count();
        if opts.get("shards").is_some() && shards != restored {
            return Err(cli::UsageError::Invalid {
                option: "shards",
                reason: format!(
                    "the checkpoint holds {restored} shards, not {shards} (omit --shards to resume)"
                ),
            }
            .to_string());
        }
        eprintln!(
            "resumed from {} at position {}",
            path.display(),
            state.position
        );
        state
    } else {
        let detector = registry::build_sharded(&algo, &spec.geo, shards)
            .map_err(|e| format!("--algo: {e}"))?;
        ServerState::new(detector, flat_cpc_registry((0..ads).map(AdId)))
    };
    let shards = state.detector.shard_count();

    let interval_ms: u64 = match opts.get("metrics") {
        None | Some("true") => 1_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--metrics: bad interval `{v}`"))?,
    };
    let metrics_on = opts.flag("metrics") || opts.flag("metrics-json");
    let format = if opts.flag("metrics-json") {
        SnapshotFormat::JsonLines
    } else {
        SnapshotFormat::Table
    };
    let metrics = Arc::new(TelemetryRegistry::new());
    let pipeline_t = metrics_on.then(|| Arc::new(PipelineTelemetry::new(&metrics, shards)));
    let instruments = ServeInstruments {
        serve: Some(Arc::new(ServeTelemetry::new(&metrics))),
        pipeline: pipeline_t.clone(),
        progress: None,
    };
    let reporter = metrics_on.then(|| {
        let on_tick = {
            let pipeline_t = pipeline_t.clone();
            move || {
                if let Some(t) = &pipeline_t {
                    t.request_detector_health();
                }
            }
        };
        Reporter::spawn(
            Arc::clone(&metrics),
            Duration::from_millis(interval_ms.max(1)),
            format,
            on_tick,
        )
    });

    let config = ServeConfig {
        pipeline: PipelineConfig {
            batch,
            queue,
            pin_workers: opts.flag("pin-workers"),
        },
        checkpoint_path: checkpoint,
        checkpoint_every,
        hub_batches,
        ..ServeConfig::default()
    };

    // SIGTERM/SIGINT request a graceful drain: stop accepting, finish
    // what is in flight, write a final checkpoint and report.
    unsafe {
        signal(SIGTERM, on_drain_signal);
        signal(SIGINT, on_drain_signal);
    }
    let control = DrainControl::new();
    let done = AtomicBool::new(false);
    eprintln!("serving on {endpoint} (SIGTERM drains gracefully)");
    let started = Instant::now();
    let outcome = thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if SIG_DRAIN.load(Ordering::SeqCst) {
                    control.request_drain();
                    break;
                }
                thread::sleep(Duration::from_millis(50));
            }
        });
        // Stops the watcher even if `serve` panics, so the scope can
        // join it and the panic reaches the caller instead of a hang.
        let _stop_watcher = SetOnDrop(&done);
        serve(state, &endpoint, &config, &control, &instruments)
    })
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if let Some(r) = reporter {
        r.stop();
    }

    let r = &outcome.report;
    println!("gateway  : {} on {endpoint} ({shards} shards)", r.detector);
    println!("position : {} clicks accepted", outcome.state.position);
    println!(
        "clicks   : {} in {:.2}s ({:.0} clicks/s)",
        r.clicks,
        elapsed.as_secs_f64(),
        r.clicks as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("charged  : {}", r.charged);
    println!(
        "blocked  : {} duplicates ({} micros saved)",
        r.duplicates_blocked, r.savings_micros
    );
    println!("revenue  : {} micros", r.revenue_micros);
    for (i, h) in outcome.health.iter().enumerate() {
        println!(
            "shard {i}  : fill={:.4} est_fp={:.2e} dup_rate={:.4} elements={}",
            h.mean_fill(),
            h.estimated_fp,
            h.duplicate_rate(),
            h.observed_elements
        );
    }
    if let Some(path) = opts.get("report-json") {
        std::fs::write(path, r.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn cmd_replay_client(opts: &Opts) -> Result<(), String> {
    let endpoint = Endpoint::parse(opts.required("connect")?).map_err(|e| e.to_string())?;
    let path = opts.required("trace")?.to_owned();
    let buf = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let clicks = read_trace(&buf).map_err(|e| e.to_string())?;

    let limit = match opts.get("limit") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--limit: bad value `{v}`"))?),
    };
    let throttle = match opts.get("throttle-ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(
            v.parse()
                .map_err(|_| format!("--throttle-ms: bad value `{v}`"))?,
        )),
    };
    let config = ClientConfig {
        frame_clicks: opts.parse_num("frame-clicks", 256)?,
        limit,
        drain: opts.flag("drain"),
        connect_attempts: opts.parse_num("retries", 50)?,
        throttle,
        ..ClientConfig::default()
    };
    let stats = replay_client(&endpoint, &clicks, &config).map_err(|e| e.to_string())?;
    println!(
        "connected : {endpoint} (server position {})",
        stats.server_position
    );
    println!(
        "sent      : {} clicks ({} skipped as already processed)",
        stats.sent_clicks, stats.skipped_clicks
    );
    println!(
        "retries   : {} connect retries, {} mid-stream reconnects",
        stats.connect_retries, stats.reconnects
    );
    Ok(())
}

fn cmd_size(opts: &Opts) -> Result<(), String> {
    let algo = opts.required("algo")?.to_owned();
    let window: usize = opts.positive("window", 1 << 20)?;
    let q: usize = opts.parse_num("sub-windows", 8)?;
    cli::check_size_args(&algo, window, q).map_err(|e| e.to_string())?;
    let target: f64 = opts.parse_num("target-fp", 0.001)?;
    if !(target > 0.0 && target < 1.0) {
        return Err("--target-fp must be in (0, 1)".into());
    }

    let sizing = match algo.as_str() {
        "gbf" => cfd_analysis::sizing::gbf_sizing(window, q, target),
        "tbf" => cfd_analysis::sizing::tbf_sizing(window, target),
        "metwally" => cfd_analysis::sizing::counting_scheme_sizing(window, q, target),
        other => return Err(format!("--algo: unknown detector `{other}`")),
    };
    println!("algorithm    : {algo}");
    println!("window       : {window} elements");
    if algo != "tbf" {
        println!("sub-windows  : {q}");
    }
    println!("target FP    : {target}");
    println!("table size m : {}", sizing.m);
    println!("hash count k : {}", sizing.k);
    println!("predicted FP : {:.3e}", sizing.predicted_fp);
    println!(
        "total memory : {:.1} KiB",
        sizing.total_bits as f64 / 8.0 / 1024.0
    );
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let path = opts
        .get("scenario")
        .ok_or_else(|| cli::UsageError::Missing("scenario").to_string())?;
    let spec = cfd_stream::scenario::ScenarioSpec::from_path(path.as_ref()).map_err(|e| {
        cli::UsageError::Invalid {
            option: "scenario",
            reason: e.to_string(),
        }
        .to_string()
    })?;
    let sweep_opts = if opts.flag("quick") {
        sweep::SweepOptions::quick()
    } else {
        sweep::SweepOptions::full()
    };
    eprintln!(
        "sweeping `{}`: {} grid points over {} clicks{}",
        spec.name,
        spec.grid().len(),
        spec.clicks,
        if sweep_opts.quick { " [quick]" } else { "" }
    );
    let report = sweep::run(&spec, &sweep_opts)?;
    if opts.flag("table") || !opts.flag("out") {
        print!("{}", sweep::render_table(&report));
    }
    if let Some(out) = opts.get("out") {
        std::fs::write(out, sweep::report_json(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}
