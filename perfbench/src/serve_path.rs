//! The serve workloads: the real gateway (`cfd_adnet::serve::serve`) on
//! server threads, fed over a Unix socket by one load-generator
//! connection speaking CFDW.

use crate::detectors::serve_detector;
use crate::reference::{pipeline_config, Reference};
use crate::stats::{frame_due, monitor_billed, paced_latencies_us, sleep_until, window_rates};
use crate::workload::{billing_registry, Case, Workload, SHARDS};
use cfd_adnet::{
    serve, DrainControl, Endpoint, PipelineProgress, PipelineTelemetry, ServeConfig,
    ServeInstruments, ServeTelemetry, ServerState,
};
use cfd_core::registry::DetectorBackend;
use cfd_stream::wire::{self, FrameReader};
use cfd_stream::Click;
use cfd_telemetry::Registry as MetricsRegistry;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a client keeps dialing a server that has not bound yet.
const CONNECT_LIMIT: Duration = Duration::from_secs(30);

/// How long the client waits after the socket appears before dialing.
/// The gateway's acceptor polls right after binding and then sleeps
/// its 20 ms poll interval; a client dialing at once races that first
/// poll and wins or loses at random, which made set-up times bimodal.
/// Dialing after it means every trial waits out one whole interval.
const DIAL_DELAY: Duration = Duration::from_millis(2);

/// The workload's stream as CFDW `CLICKS` frames: one buffer, with the
/// byte offset where each frame starts (plus the end).
pub struct Frames {
    pub bytes: Vec<u8>,
    pub offsets: Vec<usize>,
}

impl Frames {
    pub fn encode(clicks: &[Click], frame_clicks: usize) -> Self {
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        for chunk in clicks.chunks(frame_clicks) {
            wire::encode_clicks(&mut bytes, chunk);
            offsets.push(bytes.len());
        }
        Self { bytes, offsets }
    }

    fn frame(&self, j: usize) -> &[u8] {
        &self.bytes[self.offsets[j]..self.offsets[j + 1]]
    }
}

/// Gateway counters read from a traced round's registry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub hub_full_waits: u64,
    pub reseq_empty_polls: u64,
    pub raw_full_waits: u64,
}

impl Counters {
    pub fn read(metrics: &MetricsRegistry) -> Self {
        let snap = metrics.snapshot();
        let get = |name: &str| snap.get_counter(name).unwrap_or(0);
        Self {
            hub_full_waits: get("serve.hub.full_waits"),
            reseq_empty_polls: get("pipeline.reseq.empty_polls"),
            raw_full_waits: (0..SHARDS)
                .map(|i| get(&format!("pipeline.shard{i}.raw_full_waits")))
                .sum(),
        }
    }
}

/// What one measured round saw.
#[derive(Debug, Default)]
pub struct Round {
    /// Saturated-phase throughput per `Workload::rate_window` clicks.
    pub rates: Vec<f64>,
    pub latencies_us: Vec<f64>,
    pub lags_us: Vec<f64>,
    pub setup_s: f64,
    pub sent: u64,
    pub billed: u64,
    /// Persisted state after the round, bytes.
    pub state_bytes: u64,
    pub counters: Counters,
    pub errors: Vec<String>,
}

/// A fresh socket path for every server this process starts.
fn socket_path(dir: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    dir.join(format!("s{}.sock", NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn serve_config(w: &Workload, checkpoint: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        pipeline: pipeline_config(),
        checkpoint_path: checkpoint,
        checkpoint_every: w.checkpoint_every,
        ..ServeConfig::default()
    }
}

/// Waits for the server to bind, dials `DIAL_DELAY` later, then reads
/// its `HELLO` position.
fn connect_hello(path: &Path) -> io::Result<(UnixStream, u64)> {
    let start = Instant::now();
    let poll = Duration::from_micros(50);
    while !path.exists() {
        if start.elapsed() > CONNECT_LIMIT {
            return Err(io::Error::other("the server never bound its socket"));
        }
        thread::sleep(poll);
    }
    thread::sleep(DIAL_DELAY);
    let mut stream = loop {
        match UnixStream::connect(path) {
            Ok(s) => break s,
            Err(e) if start.elapsed() > CONNECT_LIMIT => return Err(e),
            Err(_) => thread::sleep(poll),
        }
    };
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 256];
    loop {
        if let Some(f) = reader.next_frame().map_err(io::Error::other)? {
            if f.kind != wire::FRAME_HELLO {
                return Err(io::Error::other("first server frame is not HELLO"));
            }
            let pos = wire::decode_hello(f.payload).map_err(io::Error::other)?;
            return Ok((stream, pos));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("server closed before HELLO"));
        }
        reader.extend(&chunk[..n]);
    }
}

fn send_drain(stream: &mut UnixStream, control: &DrainControl) {
    let mut drain = Vec::new();
    wire::encode_drain(&mut drain);
    if stream.write_all(&drain).is_err() {
        control.request_drain();
    }
}

type Served = Result<cfd_adnet::ServeOutcome<Box<dyn DetectorBackend>>, cfd_adnet::ServeError>;

/// Starts a server on `state`, connects, and returns the time from `t0`
/// to the `HELLO` plus its position; then drains it and hands back the
/// outcome. `during` runs on the open connection before the drain.
fn with_server<R>(
    state: ServerState<Box<dyn DetectorBackend>>,
    t0: Instant,
    config: &ServeConfig,
    instruments: &ServeInstruments,
    dir: &Path,
    during: impl FnOnce(&mut UnixStream) -> R,
) -> Result<(f64, u64, R, Served), String> {
    let sock = socket_path(dir);
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    thread::scope(|s| {
        let server = s.spawn(|| serve(state, &endpoint, config, &control, instruments));
        let (mut stream, pos) = match connect_hello(&sock) {
            Ok(x) => x,
            Err(e) => {
                control.request_drain();
                let _ = server.join();
                return Err(format!("connect: {e}"));
            }
        };
        let ready = t0.elapsed().as_secs_f64();
        let r = during(&mut stream);
        send_drain(&mut stream, &control);
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        Ok((ready, pos, r, served))
    })
}

/// `setup_s` trial: registry build + `ServerState::new` + `serve` start,
/// until the client reads `HELLO`.
pub fn setup_trial(c: &Case, dir: &Path) -> Result<f64, String> {
    let config = serve_config(c.w, None);
    let t0 = Instant::now();
    let state = ServerState::new(serve_detector(c), billing_registry(c.ads()));
    let (ready, pos, (), served) = with_server(
        state,
        t0,
        &config,
        &ServeInstruments::default(),
        dir,
        |_| (),
    )?;
    served.map_err(|e| format!("setup serve: {e}"))?;
    if pos != 0 {
        return Err(format!("fresh server said HELLO at {pos}"));
    }
    Ok(ready)
}

/// `recover_s` trial: `ServerState::read_checkpoint` of the final
/// checkpoint + a fresh `serve`, until the client reads `HELLO` at the
/// right position. The recovered server is drained at once; its report
/// must still equal the reference (the checkpoint carried the billing).
pub fn recover_trial(
    w: &Workload,
    ckpt: &Path,
    reference: &Reference,
    dir: &Path,
) -> Result<f64, String> {
    let config = serve_config(w, None);
    let t0 = Instant::now();
    let state = ServerState::<Box<dyn DetectorBackend>>::read_checkpoint(ckpt)
        .map_err(|e| format!("read_checkpoint: {e}"))?;
    let (ready, pos, (), served) = with_server(
        state,
        t0,
        &config,
        &ServeInstruments::default(),
        dir,
        |_| (),
    )?;
    if pos != w.total_clicks() as u64 {
        return Err(format!(
            "recovered HELLO at {pos}, expected {}",
            w.total_clicks()
        ));
    }
    match served {
        Ok(o) if o.report.to_json() == reference.report_json => Ok(ready),
        Ok(_) => Err("recovered report differs from the reference".into()),
        Err(e) => Err(format!("recovered serve: {e}")),
    }
}

/// One measured round: a fresh gateway, the paced phase (open loop at
/// the workload's rate), then the saturated phase (frames back to back,
/// socket backpressure as the only brake), then a drain. The final
/// report must equal the reference byte for byte.
pub fn round(
    c: &Case,
    frames: &Frames,
    reference: &Reference,
    dir: &Path,
    ckpt: &Path,
    traced: bool,
) -> Round {
    let w = c.w;
    let total = w.total_clicks() as u64;
    let paced_frames = w.paced_clicks / w.frame_clicks;
    let _ = std::fs::remove_file(ckpt);
    let progress = Arc::new(PipelineProgress::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let instruments = ServeInstruments {
        serve: traced.then(|| Arc::new(ServeTelemetry::new(&metrics))),
        pipeline: traced.then(|| Arc::new(PipelineTelemetry::new(&metrics, SHARDS))),
        progress: Some(Arc::clone(&progress)),
    };
    let config = serve_config(w, Some(ckpt.to_path_buf()));
    let mut round = Round {
        sent: total,
        ..Round::default()
    };

    let t0 = Instant::now();
    let state = ServerState::new(serve_detector(c), billing_registry(c.ads()));
    let stop = AtomicBool::new(false);
    let drive = |stream: &mut UnixStream| {
        thread::scope(|s| {
            let monitor =
                s.spawn(|| monitor_billed(&progress, w.paced_clicks as u64, total, &stop));
            let mut lags = Vec::with_capacity(paced_frames);
            let mut error = None;
            let paced_start = Instant::now() + Duration::from_millis(1);
            for j in 0..paced_frames {
                let due = paced_start + frame_due(j, w.frame_clicks, w.paced_rate);
                sleep_until(due);
                lags.push(due.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = stream.write_all(frames.frame(j)) {
                    error = Some(format!("paced write: {e}"));
                    break;
                }
            }
            let sat_start = Instant::now();
            if error.is_none() {
                if let Err(e) = stream.write_all(&frames.bytes[frames.offsets[paced_frames]..]) {
                    error = Some(format!("saturated write: {e}"));
                }
            }
            if error.is_some() {
                stop.store(true, Ordering::Relaxed);
            }
            let samples = monitor.join().expect("monitor thread");
            (samples, paced_start, sat_start, lags, error)
        })
    };
    let served = with_server(state, t0, &config, &instruments, dir, drive);
    let (setup_s, pos, (samples, paced_start, sat_start, lags, error), served) = match served {
        Ok(x) => x,
        Err(e) => {
            round.errors.push(e);
            return round;
        }
    };
    round.setup_s = setup_s;
    round.lags_us = lags;
    round.errors.extend(error);
    if pos != 0 {
        round
            .errors
            .push(format!("fresh server said HELLO at {pos}"));
    }
    round.billed = progress.billed();
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
    match served {
        Ok(outcome) => {
            if outcome.report.to_json() != reference.report_json {
                round.errors.push(format!(
                    "served report differs from the reference:\n  served    {}\n  reference {}",
                    outcome.report.to_json(),
                    reference.report_json
                ));
            }
            if outcome.state.position != total {
                round.errors.push(format!(
                    "server position {} after {total} clicks",
                    outcome.state.position
                ));
            }
        }
        Err(e) => round.errors.push(format!("serve: {e}")),
    }
    round.state_bytes = std::fs::metadata(ckpt).map_or(0, |m| m.len());
    if traced {
        round.counters = Counters::read(&metrics);
    }
    round
}
