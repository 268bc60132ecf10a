//! The traced run's layer replays. Each layer is measured from outside,
//! by timing calls into its module's public functions on one thread;
//! nothing inside the program is instrumented.
//!
//! The sequential replay walks the stream the way the serve path does —
//! CFDW decode, staged routing, per-shard batches planned and applied,
//! billing in stream order, a checkpoint at every segment end — and
//! times each public call. Its verdicts must equal the reference
//! detector's, and on the serve path its final checkpoint must equal
//! the served one byte for byte, so the replay is the same computation
//! as the path it dissects.

use crate::detectors::{serve_detector, serve_tbf_shards, timed_detector};
use crate::reference::{pipeline_config, Reference, KEY_LEN};
use crate::serve_path::Frames;
use crate::stats::{median, percentile};
use crate::workload::{billing_registry, Case, PathKind, BATCH};
use cfd_adnet::pipeline::{run_sharded_segment, run_timed_sharded_pipeline, SegmentState};
use cfd_adnet::{BillingEngine, ClickOutcome, FraudScorer, Registry, ServerState};
use cfd_core::checkpoint::CheckpointState;
use cfd_core::registry::DetectorBackend;
use cfd_core::{OpCounters, ShardRouter, ShardedDetector, Tbf, TimeTbf};
use cfd_hash::{Planner, ProbePlan};
use cfd_stream::wire::{self, FrameReader};
use cfd_stream::Click;
use cfd_windows::{TimedDuplicateDetector, Verdict};
use std::path::Path;
use std::time::{Duration, Instant};

/// Bytes handed to the frame reader per call (the gateway's read size).
const READ_CHUNK: usize = 16 * 1024;

/// Repetitions of the stand-alone checkpoint timings.
const CHECKPOINT_REPS: usize = 5;

/// The per-shard detector calls the replay times.
trait Shard: Sized {
    fn planner(&self) -> Planner;
    fn apply(&mut self, plans: &[ProbePlan], ticks: &[u64], out: &mut Vec<Verdict>);
    fn ops(&self) -> OpCounters;
}

impl Shard for Tbf {
    fn planner(&self) -> Planner {
        Tbf::planner(self)
    }
    fn apply(&mut self, plans: &[ProbePlan], _ticks: &[u64], out: &mut Vec<Verdict>) {
        self.apply_batch_into(plans, out);
    }
    fn ops(&self) -> OpCounters {
        Tbf::ops(self)
    }
}

impl Shard for TimeTbf {
    fn planner(&self) -> Planner {
        TimeTbf::planner(self)
    }
    fn apply(&mut self, plans: &[ProbePlan], ticks: &[u64], out: &mut Vec<Verdict>) {
        self.apply_batch_at_into(plans, ticks, out);
    }
    fn ops(&self) -> OpCounters {
        TimeTbf::ops(self)
    }
}

/// Per-layer results of one traced run (per click unless named).
#[derive(Debug, Default)]
pub struct Layers {
    pub wire_ns: f64,
    pub route_ns: f64,
    pub plan_ns: f64,
    pub apply_ns: f64,
    pub apply_batch_p99_us: f64,
    pub apply_batches: usize,
    pub billing_ns: f64,
    pub probe_reads: f64,
    pub insert_writes: f64,
    pub clean_reads: f64,
    pub clean_writes: f64,
    pub checkpoint_write_ms: f64,
    pub checkpoint_read_ms: f64,
    pub sequential_ns: f64,
    /// The sequential replay's share of the pipeline's own work (route,
    /// plan, apply, billing), the base of `pipeline.parallel_speedup`.
    pub sequential_pipeline_ns: f64,
    pub unaccounted_frac: f64,
    pub pipeline_ns: f64,
    pub errors: Vec<String>,
}

/// Accumulated call time per layer.
#[derive(Default)]
struct Timers {
    wire: Duration,
    route: Duration,
    plan: Duration,
    apply: Duration,
    billing: Duration,
    checkpoint: Duration,
    apply_batches_us: Vec<f64>,
    checkpoint_writes_ms: Vec<f64>,
}

/// One shard's pending batch, as the pipeline's ingest builds it.
#[derive(Default)]
struct Bucket {
    seqs: Vec<u64>,
    keys: Vec<u8>,
    ticks: Vec<u64>,
}

/// The sequential replay's state: the detector stage, billing stage and
/// the bookkeeping glue between them (the glue is the untimed part).
struct Replay<'a, D> {
    shards: Vec<D>,
    planners: Vec<Planner>,
    router: ShardRouter,
    router_seed: u64,
    buckets: Vec<Bucket>,
    plans: Vec<ProbePlan>,
    out: Vec<Verdict>,
    clicks: &'a [Click],
    verdicts: Vec<Option<Verdict>>,
    next_bill: usize,
    engine: BillingEngine<()>,
    registry: Registry,
    savings: u64,
    scorer: FraudScorer,
    t: Timers,
}

impl<'a, D: Shard> Replay<'a, D>
where
    ShardedDetector<D>: CheckpointState,
{
    fn new(shards: Vec<D>, router_seed: u64, clicks: &'a [Click], registry: Registry) -> Self {
        let planners = shards.iter().map(Shard::planner).collect();
        Self {
            router: ShardRouter::new(router_seed, shards.len()).expect("shards"),
            router_seed,
            buckets: (0..shards.len()).map(|_| Bucket::default()).collect(),
            planners,
            shards,
            plans: Vec::with_capacity(BATCH),
            out: Vec::with_capacity(BATCH),
            clicks,
            verdicts: vec![None; clicks.len()],
            next_bill: 0,
            engine: BillingEngine::new(()),
            registry,
            savings: 0,
            scorer: FraudScorer::new(),
            t: Timers::default(),
        }
    }

    /// Routes one staged block `[start, end)` and dispatches full
    /// per-shard batches, as the pipeline's ingest does.
    fn ingest_block(
        &mut self,
        start: usize,
        end: usize,
        keys: &mut Vec<u8>,
        routes: &mut Vec<usize>,
    ) {
        keys.clear();
        for c in &self.clicks[start..end] {
            keys.extend_from_slice(&c.key());
        }
        let t = Instant::now();
        self.router.route_flat_into(keys, KEY_LEN, routes);
        self.t.route += t.elapsed();
        for (i, &shard) in routes.iter().enumerate() {
            let seq = start + i;
            let b = &mut self.buckets[shard];
            b.seqs.push(seq as u64);
            b.keys
                .extend_from_slice(&keys[i * KEY_LEN..(i + 1) * KEY_LEN]);
            b.ticks.push(self.clicks[seq].tick);
            if b.seqs.len() == BATCH {
                self.judge(shard);
            }
        }
        self.bill();
    }

    /// Plans and applies one shard's pending batch.
    fn judge(&mut self, shard: usize) {
        let b = &mut self.buckets[shard];
        if b.seqs.is_empty() {
            return;
        }
        let t = Instant::now();
        self.planners[shard].plan_flat_into(&b.keys, KEY_LEN, &mut self.plans);
        self.t.plan += t.elapsed();
        let t = Instant::now();
        self.shards[shard].apply(&self.plans, &b.ticks, &mut self.out);
        let d = t.elapsed();
        self.t.apply += d;
        self.t.apply_batches_us.push(d.as_secs_f64() * 1e6);
        for (&seq, &v) in b.seqs.iter().zip(&self.out) {
            self.scorer.record(&self.clicks[seq as usize], v);
            self.verdicts[seq as usize] = Some(v);
        }
        b.seqs.clear();
        b.keys.clear();
        b.ticks.clear();
    }

    /// Settles every click whose verdict is known, in stream order.
    fn bill(&mut self) {
        let t = Instant::now();
        while let Some(Some(v)) = self.verdicts.get(self.next_bill) {
            let click = &self.clicks[self.next_bill];
            let outcome = self.engine.process_judged(click, *v, &mut self.registry);
            if outcome == ClickOutcome::DuplicateBlocked {
                if let Some(c) = self.registry.campaign(click.id.ad) {
                    self.savings += c.cpc_micros;
                }
            }
            self.next_bill += 1;
        }
        self.t.billing += t.elapsed();
    }

    /// Ends a segment: flush partial batches, bill, and (serve path)
    /// write the gateway checkpoint.
    fn end_segment(&mut self, checkpoint: Option<&Path>) -> Option<String> {
        for shard in 0..self.shards.len() {
            self.judge(shard);
        }
        self.bill();
        let path = checkpoint?;
        let shards = std::mem::take(&mut self.shards);
        let state = ServerState {
            detector: ShardedDetector::new(self.router_seed, shards).expect("shards"),
            registry: std::mem::take(&mut self.registry),
            ledger: self.engine.ledger().clone(),
            savings_micros: self.savings,
            scorer: std::mem::take(&mut self.scorer),
            position: self.next_bill as u64,
        };
        let t = Instant::now();
        let written = state.write_checkpoint(path);
        let d = t.elapsed();
        self.t.checkpoint += d;
        self.t.checkpoint_writes_ms.push(d.as_secs_f64() * 1e3);
        self.shards = state.detector.into_shards();
        self.registry = state.registry;
        self.scorer = state.scorer;
        written.err().map(|e| format!("replay checkpoint: {e}"))
    }

    fn ops(&self) -> OpCounters {
        OpCounters::merged(self.shards.iter().map(Shard::ops))
    }
}

/// Times CFDW decode (`FrameReader::extend` + `next_frame` +
/// `decode_clicks_into`) over `bytes`, fed in gateway-sized reads,
/// appending the decoded clicks to `out`.
fn decode_all(bytes: &[u8], out: &mut Vec<Click>) -> Duration {
    let mut reader = FrameReader::with_capacity(2 * READ_CHUNK);
    let mut batch = Vec::with_capacity(256);
    let mut spent = Duration::ZERO;
    for chunk in bytes.chunks(READ_CHUNK) {
        let t = Instant::now();
        reader.extend(chunk);
        while let Some(f) = reader.next_frame().expect("frames the benchmark encoded") {
            batch.clear();
            wire::decode_clicks_into(f.payload, &mut batch).expect("valid payload");
            out.extend_from_slice(&batch);
        }
        spent += t.elapsed();
    }
    spent
}

/// Runs every layer measurement of the traced run.
pub fn measure(
    c: &Case,
    clicks: &[Click],
    frames: &Frames,
    reference: &Reference,
    dir: &Path,
    served_checkpoint: Option<&Path>,
) -> Layers {
    let total = clicks.len();
    let mut layers = Layers::default();
    let wall = Instant::now();

    // Serve path: the replay starts from the wire. Timed path: there is
    // no socket, so the replay starts from decoded clicks and the wire
    // is timed on its own below.
    let mut decoded = Vec::with_capacity(total);
    let wire = decode_all(&frames.bytes, &mut decoded);
    layers.wire_ns = wire.as_nanos() as f64 / total as f64;
    if decoded != clicks {
        layers
            .errors
            .push("CFDW round trip changed the clicks".into());
    }
    let (w, seed) = (c.w, c.seed);
    let registry = billing_registry(c.ads());
    let replay_ckpt = dir.join("replay.cfdg");
    let (verdicts, ops, t, seq_wall) = match w.path {
        PathKind::Serve => {
            let shards = serve_tbf_shards(c);
            let wall = Instant::now();
            let mut r = Replay::new(shards, seed, &decoded, registry);
            r.t.wire = wire;
            run_segments(
                &mut r,
                w.checkpoint_every as usize,
                Some(&replay_ckpt),
                &mut layers.errors,
            );
            let seq_wall = wall.elapsed() + wire;
            let ops = r.ops();
            (r.verdicts, ops, r.t, seq_wall)
        }
        PathKind::Timed => {
            let shards = timed_detector(c).into_shards();
            let wall = Instant::now();
            let mut r = Replay::new(shards, seed, clicks, registry);
            run_segments(&mut r, total, None, &mut layers.errors);
            let seq_wall = wall.elapsed();
            // No checkpoint on the timed path: persist its final state
            // only to time the checkpoint calls at its size.
            let state = ServerState {
                detector: ShardedDetector::new(seed, r.shards).expect("shards"),
                registry: r.registry,
                ledger: r.engine.into_ledger(),
                savings_micros: r.savings,
                scorer: r.scorer,
                position: total as u64,
            };
            let mut t = r.t;
            for _ in 0..CHECKPOINT_REPS {
                let s = Instant::now();
                if let Err(e) = state.write_checkpoint(&replay_ckpt) {
                    layers.errors.push(format!("timed checkpoint: {e}"));
                }
                t.checkpoint_writes_ms.push(s.elapsed().as_secs_f64() * 1e3);
            }
            let ops = OpCounters::merged(state.detector.shards().iter().map(Shard::ops));
            (r.verdicts, ops, t, seq_wall)
        }
    };

    if verdicts
        .iter()
        .zip(&reference.verdicts)
        .any(|(v, r)| *v != Some(*r))
        || verdicts.len() != reference.verdicts.len()
    {
        layers
            .errors
            .push("layer replay verdicts differ from the reference detector".into());
    }
    if let Some(served) = served_checkpoint {
        match (std::fs::read(served), std::fs::read(&replay_ckpt)) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => layers
                .errors
                .push("layer replay checkpoint differs from the served one".into()),
            (a, b) => {
                layers
                    .errors
                    .push(format!("reading checkpoints: {:?} {:?}", a.err(), b.err()))
            }
        }
    }

    let per_click = |d: Duration| d.as_nanos() as f64 / total as f64;
    layers.route_ns = per_click(t.route);
    layers.plan_ns = per_click(t.plan);
    layers.apply_ns = per_click(t.apply);
    layers.billing_ns = per_click(t.billing);
    layers.apply_batch_p99_us = percentile(&t.apply_batches_us, 99.0);
    layers.apply_batches = t.apply_batches_us.len();
    let n = total as f64;
    layers.probe_reads = ops.probe_reads as f64 / n;
    layers.insert_writes = ops.insert_writes as f64 / n;
    layers.clean_reads = ops.clean_reads as f64 / n;
    layers.clean_writes = ops.clean_writes as f64 / n;
    layers.checkpoint_write_ms = median(&t.checkpoint_writes_ms);

    // The ledger: the sum of the timed calls on the measured path. The
    // timed path has neither socket nor checkpoint.
    let accounted = match w.path {
        PathKind::Serve => t.wire + t.route + t.plan + t.apply + t.billing + t.checkpoint,
        PathKind::Timed => t.route + t.plan + t.apply + t.billing,
    };
    layers.sequential_ns = per_click(accounted);
    layers.sequential_pipeline_ns = per_click(t.route + t.plan + t.apply + t.billing);
    layers.unaccounted_frac = 1.0 - accounted.as_secs_f64() / seq_wall.as_secs_f64();

    let mut reads = Vec::with_capacity(CHECKPOINT_REPS);
    for _ in 0..CHECKPOINT_REPS {
        let s = Instant::now();
        let ok = match w.path {
            PathKind::Serve => {
                ServerState::<Box<dyn DetectorBackend>>::read_checkpoint(&replay_ckpt).map(drop)
            }
            PathKind::Timed => ServerState::<TimeTbf>::read_checkpoint(&replay_ckpt).map(drop),
        };
        reads.push(s.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = ok {
            layers.errors.push(format!("read_checkpoint: {e}"));
        }
    }
    layers.checkpoint_read_ms = median(&reads);
    let _ = std::fs::remove_file(&replay_ckpt);

    layers.pipeline_ns = pipeline_ns(c, clicks);
    eprintln!(
        "# layers: {} apply batches, sequential replay {:.2}s, all layer timing {:.2}s",
        layers.apply_batches,
        seq_wall.as_secs_f64(),
        wall.elapsed().as_secs_f64()
    );
    layers
}

/// Feeds the whole stream through the replay in segments of `segment`
/// clicks, staging `BATCH`-click blocks as ingest does.
fn run_segments<D: Shard>(
    r: &mut Replay<'_, D>,
    segment: usize,
    checkpoint: Option<&Path>,
    errors: &mut Vec<String>,
) where
    ShardedDetector<D>: CheckpointState,
{
    let total = r.clicks.len();
    let mut keys = Vec::with_capacity(BATCH * KEY_LEN);
    let mut routes = Vec::with_capacity(BATCH);
    let mut seg_start = 0;
    while seg_start < total {
        let seg_end = (seg_start + segment).min(total);
        let mut start = seg_start;
        while start < seg_end {
            let end = (start + BATCH).min(seg_end);
            r.ingest_block(start, end, &mut keys, &mut routes);
            start = end;
        }
        errors.extend(r.end_segment(checkpoint));
        seg_start = seg_end;
    }
}

/// `pipeline.ns_per_click`: the in-process pipeline over pre-decoded
/// clicks. The paced prefix warms the detector untimed; the saturated
/// suffix is timed, matching what the end-to-end run's `clicks_per_s`
/// covers.
fn pipeline_ns(c: &Case, clicks: &[Click]) -> f64 {
    let (warm, timed) = clicks.split_at(c.w.paced_clicks);
    match c.w.path {
        PathKind::Serve => {
            let state = SegmentState::new(billing_registry(c.ads()));
            let det = serve_detector(c);
            let cfg = pipeline_config();
            let out = run_sharded_segment(det, state, warm.iter().copied(), cfg, None, None);
            let t = Instant::now();
            let _ = run_sharded_segment(
                out.detector,
                out.state,
                timed.iter().copied(),
                cfg,
                None,
                None,
            );
            t.elapsed().as_nanos() as f64 / timed.len() as f64
        }
        PathKind::Timed => {
            let mut det = timed_detector(c);
            let keys = crate::reference::flat_keys(warm);
            let ticks: Vec<u64> = warm.iter().map(|c| c.tick).collect();
            let mut out = Vec::new();
            det.observe_flat_at_into(&keys, KEY_LEN, &ticks, &mut out);
            let t = Instant::now();
            let _ = run_timed_sharded_pipeline(
                det,
                billing_registry(c.ads()),
                timed.iter().copied(),
                pipeline_config(),
                None,
            );
            t.elapsed().as_nanos() as f64 / timed.len() as f64
        }
    }
}
