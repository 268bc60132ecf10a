//! The timed workload: the in-process `run_timed_sharded_pipeline` over
//! a sharded `TimeTbf` (`cfd serve` cannot run a time window).

use crate::detectors::timed_detector;
use crate::reference::{pipeline_config, Reference};
use crate::serve_path::{Counters, Round};
use crate::stats::{frame_due, monitor_billed, paced_latencies_us, sleep_until, window_rates};
use crate::workload::{billing_registry, Case, Workload, SHARDS};
use cfd_adnet::pipeline::{run_timed_sharded_pipeline, run_timed_sharded_pipeline_instrumented};
use cfd_adnet::{PipelineProgress, PipelineTelemetry, Registry, ServerState};
use cfd_core::{ShardedDetector, TimeTbf};
use cfd_stream::Click;
use cfd_telemetry::Registry as MetricsRegistry;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// When the pipeline first pulled from its source, i.e. when its
/// workers and billing stage were up and ingest began.
#[derive(Default)]
struct Marks {
    started: Option<Instant>,
    paced_start: Option<Instant>,
    sat_start: Option<Instant>,
}

/// The pipeline's click source: releases the paced phase one frame at
/// a time on the workload's schedule, then the saturated phase as fast
/// as ingest pulls.
struct PacedSource<'a> {
    clicks: &'a [Click],
    next: usize,
    w: &'a Workload,
    marks: &'a mut Marks,
    lags: &'a mut Vec<f64>,
}

impl Iterator for PacedSource<'_> {
    type Item = Click;

    fn next(&mut self) -> Option<Click> {
        let now = Instant::now();
        let started = *self.marks.started.get_or_insert(now);
        let i = self.next;
        if i >= self.clicks.len() {
            return None;
        }
        if i < self.w.paced_clicks {
            let paced_start = *self
                .marks
                .paced_start
                .get_or_insert(started + Duration::from_millis(1));
            if i.is_multiple_of(self.w.frame_clicks) {
                let due = paced_start
                    + frame_due(
                        i / self.w.frame_clicks,
                        self.w.frame_clicks,
                        self.w.paced_rate,
                    );
                sleep_until(due);
                self.lags.push(due.elapsed().as_secs_f64() * 1e6);
            }
        } else if i == self.w.paced_clicks {
            self.marks.sat_start = Some(Instant::now());
        }
        self.next += 1;
        Some(self.clicks[i])
    }
}

/// Runs the pipeline over `source`, instrumented or not.
fn run(
    detector: ShardedDetector<TimeTbf>,
    registry: Registry,
    source: impl Iterator<Item = Click>,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Option<Arc<PipelineTelemetry>>,
) -> cfd_adnet::PipelineOutcome {
    match telemetry {
        Some(t) => run_timed_sharded_pipeline_instrumented(
            detector,
            registry,
            source,
            pipeline_config(),
            progress,
            t,
        ),
        None => run_timed_sharded_pipeline(detector, registry, source, pipeline_config(), progress),
    }
}

/// `setup_s` trial: detector build until the pipeline starts pulling.
pub fn setup_trial(c: &Case) -> f64 {
    let w = c.w;
    let t0 = Instant::now();
    let mut marks = Marks::default();
    let mut lags = Vec::new();
    let source = PacedSource {
        clicks: &[],
        next: 0,
        w,
        marks: &mut marks,
        lags: &mut lags,
    };
    let registry = billing_registry(c.ads());
    run(timed_detector(c), registry, source, None, None);
    marks
        .started
        .map_or(0.0, |t| t.duration_since(t0).as_secs_f64())
}

/// `recover_s` trial: `ServerState::read_checkpoint` of the persisted
/// timed state until the restarted pipeline starts pulling.
pub fn recover_trial(w: &Workload, ckpt: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let state = ServerState::<TimeTbf>::read_checkpoint(ckpt)
        .map_err(|e| format!("read_checkpoint: {e}"))?;
    if state.position != w.total_clicks() as u64 {
        return Err(format!("recovered position {}", state.position));
    }
    let mut marks = Marks::default();
    let mut lags = Vec::new();
    let source = PacedSource {
        clicks: &[],
        next: 0,
        w,
        marks: &mut marks,
        lags: &mut lags,
    };
    run(state.detector, state.registry, source, None, None);
    marks
        .started
        .map(|t| t.duration_since(t0).as_secs_f64())
        .ok_or_else(|| "the restarted pipeline never pulled".into())
}

/// Checks that the persisted timed state restores to the same bytes.
pub fn check_state_roundtrip(ckpt: &Path, reference: &Reference) -> Vec<String> {
    let want = reference.timed_state.as_deref().expect("timed reference");
    match ServerState::<TimeTbf>::read_checkpoint(ckpt) {
        Ok(s) if s.checkpoint_bytes() == want => Vec::new(),
        Ok(_) => vec!["restored timed state re-serializes differently".into()],
        Err(e) => vec![format!("read_checkpoint: {e}")],
    }
}

/// One measured round: paced phase, then saturated phase, through one
/// pipeline run; the report must equal the reference byte for byte.
pub fn round(c: &Case, clicks: &[Click], reference: &Reference, traced: bool) -> Round {
    let w = c.w;
    let total = w.total_clicks() as u64;
    let progress = Arc::new(PipelineProgress::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let telemetry = traced.then(|| Arc::new(PipelineTelemetry::new(&metrics, SHARDS)));
    let stop = AtomicBool::new(false);
    let mut marks = Marks::default();
    let mut lags = Vec::with_capacity(w.paced_clicks / w.frame_clicks);

    let t0 = Instant::now();
    let detector = timed_detector(c);
    let registry = billing_registry(c.ads());
    let (outcome, samples) = thread::scope(|s| {
        let monitor = s.spawn(|| monitor_billed(&progress, w.paced_clicks as u64, total, &stop));
        let source = PacedSource {
            clicks,
            next: 0,
            w,
            marks: &mut marks,
            lags: &mut lags,
        };
        let outcome = run(
            detector,
            registry,
            source,
            Some(Arc::clone(&progress)),
            telemetry,
        );
        stop.store(true, Ordering::Relaxed);
        (outcome, monitor.join().expect("monitor thread"))
    });

    let mut round = Round {
        sent: total,
        billed: progress.billed(),
        lags_us: lags,
        ..Round::default()
    };
    let (Some(started), Some(paced_start), Some(sat_start)) =
        (marks.started, marks.paced_start, marks.sat_start)
    else {
        round
            .errors
            .push("the pipeline did not pull every phase".into());
        return round;
    };
    round.setup_s = started.duration_since(t0).as_secs_f64();
    match window_rates(
        &samples,
        sat_start,
        w.paced_clicks as u64,
        total,
        w.rate_window as u64,
    ) {
        Some(rates) => round.rates = rates,
        None => round
            .errors
            .push(format!("billed {} of {total} clicks", round.billed)),
    }
    round.latencies_us = paced_latencies_us(
        &samples,
        paced_start,
        w.paced_clicks,
        w.frame_clicks,
        w.paced_rate,
    );
    if outcome.report.to_json() != reference.report_json {
        round.errors.push(format!(
            "pipeline report differs from the reference:\n  run       {}\n  reference {}",
            outcome.report.to_json(),
            reference.report_json
        ));
    }
    round.state_bytes = reference.timed_state.as_ref().map_or(0, |s| s.len() as u64);
    if traced {
        round.counters = Counters::read(&metrics);
    }
    round
}
