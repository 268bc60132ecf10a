//! A concurrent, sharded click-processing pipeline.
//!
//! Real ad networks separate ingestion, fraud filtering, and billing
//! into stages. This module wires the suite's components into a
//! pipeline with the detector stage fanned out over the keyspace shards
//! of a [`ShardedDetector`]:
//!
//! ```text
//!                    ┌► shard worker 0 ─┐
//! ingest ──(route)───┼► shard worker 1 ─┼──► resequencer ► billing
//! (caller)           └► shard worker S  ┘    (seq order)
//! ```
//!
//! Bounded SPSC [`crate::ring`]s move batches between stages. They
//! carry *pooled* batch buffers that cycle ingest → worker → billing →
//! back to a [`crate::ring::Pool`], so the steady-state hot loop
//! performs **zero heap allocations** (asserted by the
//! `zero_alloc_steady_state` integration test) and never takes a
//! blocking lock. Click keys travel in one flat buffer per batch,
//! feeding the multi-lane batch hasher (`cfd_hash::lanes`) at both the
//! routing and probing stages.
//!
//! * **Ingest** (the caller's thread) stamps every click with a global
//!   sequence number, routes it by [`ShardRouter`] — batch-hashing all
//!   keys of a staging block per [`ShardRouter::route_flat_into`] — and
//!   forwards clicks to the owning worker in batches.
//! * **Shard workers** each own one inner detector exclusively — the
//!   one-pass algorithms are inherently sequential *per keyspace shard*,
//!   which is exactly why Theorems 1 & 2 obsess over per-element cost —
//!   and judge whole batches via
//!   [`DuplicateDetector::observe_flat_into`] (hash-then-apply
//!   locality). Each worker keeps a private [`FraudScorer`]; the
//!   partial scorers are [merged](FraudScorer::merge) at join time.
//! * **Resequencer + billing** restores global stream order from the
//!   sequence numbers (a min-heap keyed by sequence) before settling
//!   verdicts through [`BillingEngine::process_judged`], so budget
//!   accounting is byte-identical to a sequential run no matter how the
//!   workers interleave.
//!
//! Every entry point takes a [`ShardedDetector`]; a single detector runs
//! as its one-shard composition (one worker, trivial router). Progress
//! is published through lock-free [`PipelineProgress`] atomics rather
//! than a mutex, so polling from a gauge thread never stalls the hot
//! path.
//!
//! Like its predecessor, the detector stage judges *every* click,
//! including clicks on unregistered ads (billing later files those under
//! `unknown_ads` without consulting the verdict); a sequential
//! [`crate::network::AdNetwork`] run skips unknown ads entirely, so the
//! two only agree when every clicked ad is registered.
//!
//! ## Timed mode
//!
//! [`run_timed_sharded_pipeline`] runs the same machinery over
//! time-based detectors ([`TimedDuplicateDetector`]): the worker stage
//! extracts each click's [`Click::tick`] alongside its key and judges
//! batches through `observe_flat_at_into` instead of the count-based
//! path. Routing is tick-blind (by key only), so each shard receives its
//! clicks in global stream order and advances its unit clock exactly as
//! a sequential run of the same [`ShardedDetector`] would.

use crate::billing::{BillingEngine, ClickOutcome, Ledger};
use crate::entities::Registry;
use crate::fraud::FraudScorer;
use crate::report::NetworkReport;
use crate::ring::{self, Backoff, Pool, TryPopError};
use crate::telemetry::PipelineTelemetry;
use cfd_core::sharded::{ShardRouter, ShardedDetector};
use cfd_stream::Click;
use cfd_telemetry::{DetectorHealth, DetectorStats, TenantHealth};
use cfd_windows::{DuplicateDetector, TimedDuplicateDetector, Verdict};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default clicks per inter-stage batch.
const DEFAULT_BATCH: usize = 256;

/// Bytes per click key ([`Click::key`] is a 16-byte array).
const KEY_LEN: usize = 16;

/// A click annotated with its fraud verdict (detector → billing stage).
#[derive(Debug, Clone, Copy)]
struct JudgedClick {
    click: Click,
    verdict: Verdict,
}

/// A pooled batch of sequence-stamped clicks bound for one shard worker.
///
/// The 16-byte click keys ride along in one flat buffer (`KEY_LEN`
/// bytes per item, same order as `items`) so ingest hashes each key
/// once for routing and the worker feeds the same bytes straight into
/// [`DuplicateDetector::observe_flat_into`] without rebuilding them.
#[derive(Default)]
struct ClickBatch {
    items: Vec<(u64, Click)>,
    keys: Vec<u8>,
}

impl ClickBatch {
    fn clear(&mut self) {
        self.items.clear();
        self.keys.clear();
    }
}

/// A pooled judged batch headed for the resequencer.
#[derive(Default)]
struct JudgedBatch {
    items: Vec<(u64, JudgedClick)>,
}

/// Heap entry of the resequencer, ordered by sequence number only.
struct Pending {
    seq: u64,
    judged: JudgedClick,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

/// Live progress counters readable while the pipeline runs.
///
/// Plain atomics: stage threads publish with relaxed stores, gauges poll
/// with [`PipelineProgress::detected`] / [`PipelineProgress::billed`]
/// without ever contending a lock.
#[derive(Debug, Default)]
pub struct PipelineProgress {
    detected: AtomicU64,
    billed: AtomicU64,
}

impl PipelineProgress {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clicks that passed the detector stage so far.
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed)
    }

    /// Clicks fully billed so far.
    #[must_use]
    pub fn billed(&self) -> u64 {
        self.billed.load(Ordering::Relaxed)
    }
}

/// Tuning knobs of the sharded pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Clicks per inter-stage batch (larger batches amortize transport
    /// overhead; smaller ones bound resequencer latency).
    pub batch: usize,
    /// Per-worker ring capacity, in batches (backpressure), rounded up
    /// to a power of two.
    pub queue: usize,
    /// Best-effort pin of shard worker `i` to CPU `i` (modulo the
    /// available parallelism) via `taskset`; ignored where unsupported.
    pub pin_workers: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            batch: DEFAULT_BATCH,
            queue: 16,
            pin_workers: false,
        }
    }
}

/// Result of a pipeline run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The final network report.
    pub report: NetworkReport,
    /// Per-publisher fraud scores recorded by the detector stage.
    pub scorer: FraudScorer,
    /// The registry with final budget states.
    pub registry: Registry,
    /// Final per-shard detector health samples, taken by each worker at
    /// shutdown. Empty for the uninstrumented entry points (plain
    /// [`run_sharded_pipeline`] / [`run_timed_sharded_pipeline`]), which
    /// place no [`DetectorStats`] bound on the detector.
    pub health: Vec<DetectorHealth>,
}

/// Everything a fan-out run hands back: the billing state *plus* the
/// detectors themselves, so a segmented caller can reassemble the
/// [`ShardedDetector`] and keep streaming where this run stopped.
struct FanoutResult<D> {
    workers: Vec<D>,
    state: SegmentState,
    memory_bits: usize,
    health: Vec<DetectorHealth>,
}

impl<D> FanoutResult<D> {
    /// The outcome of a one-shot run of detector `name`.
    fn into_outcome(self, name: &str) -> PipelineOutcome {
        let SegmentState {
            registry,
            ledger,
            savings_micros,
            scorer,
        } = self.state;
        PipelineOutcome {
            report: NetworkReport::from_ledger(name, self.memory_bits, &ledger, savings_micros),
            scorer,
            registry,
            health: self.health,
        }
    }
}

/// Cross-segment pipeline state for [`run_sharded_segment`]: what must
/// persist between two segments (and inside a serve checkpoint) for the
/// concatenation of segments to equal one continuous run.
#[derive(Debug, Default)]
pub struct SegmentState {
    /// Advertiser budgets and campaigns, with spend carried forward.
    pub registry: Registry,
    /// The billing ledger so far.
    pub ledger: Ledger,
    /// Fraud savings (micro-units) so far.
    pub savings_micros: u64,
    /// Per-publisher fraud tallies so far.
    pub scorer: FraudScorer,
}

impl SegmentState {
    /// Fresh state for a stream's first segment.
    #[must_use]
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            ..Self::default()
        }
    }
}

/// Result of one [`run_sharded_segment`] call.
#[derive(Debug)]
pub struct SegmentOutcome<D> {
    /// The detector, reassembled with its window state advanced by this
    /// segment's clicks — feed it to the next segment.
    pub detector: ShardedDetector<D>,
    /// Billing state including this segment — feed it to the next
    /// segment, or build the final [`NetworkReport`] from it.
    pub state: SegmentState,
    /// Final per-shard health samples (empty when `telemetry` is
    /// `None`).
    pub health: Vec<DetectorHealth>,
    /// Total detector memory, bits (for the report).
    pub memory_bits: usize,
    /// Detector name (for the report).
    pub name: &'static str,
}

impl<D> SegmentOutcome<D> {
    /// The report a run ending at this segment would print.
    #[must_use]
    pub fn report(&self) -> NetworkReport {
        NetworkReport::from_ledger(
            self.name,
            self.memory_bits,
            &self.state.ledger,
            self.state.savings_micros,
        )
    }
}

/// Runs one *segment* of a longer stream through the sharded fan-out
/// pipeline, carrying detector and billing state across calls.
///
/// This is the engine under `cfd serve`'s periodic checkpointing: the
/// serve loop pulls a bounded span of clicks from its sources, runs it
/// as one segment, persists the returned state, and repeats. Because
/// the detector shards, router seed, ledger, budgets, savings, and
/// fraud tallies all carry over — and each segment preserves per-shard
/// observation order and reseqenced billing order — the concatenation
/// of segments is verdict-for-verdict and micro-for-micro identical to
/// one [`run_sharded_pipeline`] call over the whole stream (asserted by
/// the `serve_equivalence` integration test).
///
/// `telemetry` (optional) attaches the same instrument bundle as
/// [`run_sharded_pipeline_instrumented`]; pass the *same* bundle every
/// segment so counters accumulate across the run.
///
/// # Panics
///
/// Panics if a pipeline stage panics, or if `telemetry` was built for a
/// different shard count.
pub fn run_sharded_segment<D, I>(
    detector: ShardedDetector<D>,
    state: SegmentState,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Option<Arc<PipelineTelemetry>>,
) -> SegmentOutcome<D>
where
    D: DuplicateDetector + DetectorStats + Send,
    I: IntoIterator<Item = Click>,
{
    let name = DuplicateDetector::name(&detector);
    let router_seed = detector.router_seed();
    let router = detector.router();
    let instr = telemetry.map_or_else(Instrumentation::off, Instrumentation::stats);
    let r = run_fanout(
        detector.into_shards(),
        router,
        state,
        clicks,
        config,
        progress,
        instr,
    );
    SegmentOutcome {
        detector: ShardedDetector::new(router_seed, r.workers)
            .expect("shards returned by the fan-out reassemble"),
        state: r.state,
        health: r.health,
        memory_bits: r.memory_bits,
        name,
    }
}

/// Instrumentation plumbing for [`run_fanout`]: the optional metric
/// bundle plus a monomorphized health probe. Uninstrumented entry
/// points pass `telemetry: None` and a `health_of` that returns `None`,
/// so the hot path stays free of `DetectorStats` bounds *and* timing
/// calls.
struct Instrumentation<D> {
    telemetry: Option<Arc<PipelineTelemetry>>,
    health_of: fn(&D) -> Option<DetectorHealth>,
    tenant_health_of: fn(&D) -> Option<TenantHealth>,
}

impl<D> Instrumentation<D> {
    fn off() -> Self {
        Self {
            telemetry: None,
            health_of: |_| None,
            tenant_health_of: |_| None,
        }
    }
}

impl<D: DetectorStats> Instrumentation<D> {
    /// Full instrumentation of count-based shards.
    fn stats(telemetry: Arc<PipelineTelemetry>) -> Self {
        Self {
            telemetry: Some(telemetry),
            health_of: |d| Some(d.health()),
            tenant_health_of: |d| d.tenant_health(),
        }
    }
}

impl<D: DetectorStats> Instrumentation<TimedJudge<D>> {
    /// Full instrumentation of time-based shards.
    fn timed_stats(telemetry: Arc<PipelineTelemetry>) -> Self {
        Self {
            telemetry: Some(telemetry),
            health_of: |j| Some(j.inner.health()),
            tenant_health_of: |j| j.inner.tenant_health(),
        }
    }
}

/// Saturating nanosecond count for histogram recording.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a shard worker needs from its detector: batch judgment of the
/// flat keys built at ingest, plus the memory tally for the report.
/// Count-based detectors get it for free via the blanket impl;
/// time-based detectors ride in a [`TimedJudge`], which threads each
/// click's tick through. Keeping this private lets one fan-out engine
/// serve both modes without a public trait surface.
trait BatchJudge {
    /// Judges `KEY_LEN`-stride flat keys built at ingest, writing
    /// verdicts into `out` (cleared first, capacity reused).
    fn judge_flat(&mut self, keys: &[u8], items: &[(u64, Click)], out: &mut Vec<Verdict>);

    /// Total detector payload memory, in bits.
    fn memory_bits(&self) -> usize;
}

impl<D: DuplicateDetector> BatchJudge for D {
    fn judge_flat(&mut self, keys: &[u8], _items: &[(u64, Click)], out: &mut Vec<Verdict>) {
        self.observe_flat_into(keys, KEY_LEN, out);
    }
    fn memory_bits(&self) -> usize {
        DuplicateDetector::memory_bits(self)
    }
}

/// Adapter running a [`TimedDuplicateDetector`] behind [`BatchJudge`]:
/// extracts each click's [`Click::tick`] into a recycled buffer and
/// forwards to the timed batch path. Deliberately *not* a
/// `DuplicateDetector` (ticks are mandatory), which is also what keeps
/// the blanket impl above coherent.
struct TimedJudge<D> {
    inner: D,
    ticks: Vec<u64>,
}

impl<D> TimedJudge<D> {
    fn new(inner: D) -> Self {
        Self {
            inner,
            ticks: Vec::new(),
        }
    }
}

impl<D: TimedDuplicateDetector> BatchJudge for TimedJudge<D> {
    fn judge_flat(&mut self, keys: &[u8], items: &[(u64, Click)], out: &mut Vec<Verdict>) {
        self.ticks.clear();
        self.ticks.extend(items.iter().map(|(_, c)| c.tick));
        self.inner
            .observe_flat_at_into(keys, KEY_LEN, &self.ticks, out);
    }
    fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }
}

/// Runs `clicks` through one detector worker thread *per shard* of
/// `detector`, an order-restoring resequencer, and a billing stage.
///
/// The ingest thread routes every click to its keyspace shard, so each
/// worker sees exactly the subsequence its shard would see under
/// single-threaded [`ShardedDetector::observe`] — verdicts are
/// identical, and the resequencer makes billing order identical too.
///
/// # Panics
///
/// Panics if a pipeline stage panics.
pub fn run_sharded_pipeline<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
) -> PipelineOutcome
where
    D: DuplicateDetector + Send,
    I: IntoIterator<Item = Click>,
{
    let name = detector.name();
    let router = detector.router();
    run_fanout(
        detector.into_shards(),
        router,
        SegmentState::new(registry),
        clicks,
        config,
        progress,
        Instrumentation::off(),
    )
    .into_outcome(name)
}

/// [`run_sharded_pipeline`] with live telemetry: one queue-depth gauge
/// and health-gauge set per shard worker, shared per-stage latency
/// histograms, and resequencer stall counters, all in `telemetry`'s
/// registry. [`PipelineOutcome::health`] carries one final
/// [`DetectorHealth`] per shard, in shard order.
///
/// # Panics
///
/// Panics if `telemetry.shard_count()` differs from the detector's
/// shard count, or if a pipeline stage panics.
pub fn run_sharded_pipeline_instrumented<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Arc<PipelineTelemetry>,
) -> PipelineOutcome
where
    D: DuplicateDetector + DetectorStats + Send,
    I: IntoIterator<Item = Click>,
{
    let name = detector.name();
    let router = detector.router();
    run_fanout(
        detector.into_shards(),
        router,
        SegmentState::new(registry),
        clicks,
        config,
        progress,
        Instrumentation::stats(telemetry),
    )
    .into_outcome(name)
}

/// [`run_sharded_pipeline`] over time-based shards: one worker thread
/// per shard of `detector`, each judging its keyspace subsequence at
/// the clicks' own ticks. Routing is tick-blind, so verdicts equal a
/// sequential [`TimedDuplicateDetector::observe_at`] run of the same
/// `ShardedDetector`, and the resequencer makes billing order identical
/// too.
///
/// # Panics
///
/// Panics if a pipeline stage panics.
pub fn run_timed_sharded_pipeline<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
) -> PipelineOutcome
where
    D: TimedDuplicateDetector + Send,
    I: IntoIterator<Item = Click>,
{
    let name = TimedDuplicateDetector::name(&detector);
    let router = detector.router();
    run_fanout(
        detector
            .into_shards()
            .into_iter()
            .map(TimedJudge::new)
            .collect(),
        router,
        SegmentState::new(registry),
        clicks,
        config,
        progress,
        Instrumentation::off(),
    )
    .into_outcome(name)
}

/// [`run_timed_sharded_pipeline`] with live telemetry; see
/// [`run_sharded_pipeline_instrumented`] for what flows into
/// `telemetry`.
///
/// # Panics
///
/// Panics if `telemetry.shard_count()` differs from the detector's
/// shard count, or if a pipeline stage panics.
pub fn run_timed_sharded_pipeline_instrumented<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Arc<PipelineTelemetry>,
) -> PipelineOutcome
where
    D: TimedDuplicateDetector + DetectorStats + Send,
    I: IntoIterator<Item = Click>,
{
    let name = TimedDuplicateDetector::name(&detector);
    let router = detector.router();
    run_fanout(
        detector
            .into_shards()
            .into_iter()
            .map(TimedJudge::new)
            .collect(),
        router,
        SegmentState::new(registry),
        clicks,
        config,
        progress,
        Instrumentation::timed_stats(telemetry),
    )
    .into_outcome(name)
}

/// Settles one judged click against the ledger, tallying fraud savings.
fn settle_one(
    engine: &mut BillingEngine<()>,
    registry: &mut Registry,
    savings: &mut u64,
    progress: Option<&PipelineProgress>,
    judged: &JudgedClick,
) {
    let outcome = engine.process_judged(&judged.click, judged.verdict, registry);
    if outcome == ClickOutcome::DuplicateBlocked {
        if let Some(c) = registry.campaign(judged.click.id.ad) {
            *savings += c.cpc_micros;
        }
    }
    if let Some(p) = progress {
        p.billed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Best-effort pin of the calling thread to `cpu` (modulo the number
/// of available CPUs), shelling out to `taskset` so the crate stays
/// free of `unsafe`. Returns `false` when the platform or tooling does
/// not support pinning; callers treat pinning as advisory.
#[cfg(target_os = "linux")]
fn pin_current_thread(cpu: usize) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = link.file_name().and_then(|s| s.to_str()) else {
        return false;
    };
    let cpus = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    std::process::Command::new("taskset")
        .args(["-p", "-c", &(cpu % cpus).to_string(), tid])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// The fan-out engine behind every entry point: bounded SPSC rings
/// between stages and two shared [`Pool`]s recycling the batch buffers,
/// so the steady state allocates nothing. Billing starts from `state`
/// and the result carries it forward, together with the detectors.
///
/// Buffer life cycle: ingest `get`s a [`ClickBatch`] from the raw pool,
/// fills it, and pushes it down the owning shard's raw ring; the worker
/// judges it, moves the payload into a pooled [`JudgedBatch`], and
/// `put`s the emptied `ClickBatch` straight back; billing drains the
/// judged rings round-robin (with [`Backoff`] between empty sweeps) and
/// `put`s each drained `JudgedBatch` back. After warm-up every `get`
/// hits the pool — the pool-miss counters in telemetry stay flat.
///
/// Ingest hashes each staging block's keys once with the multi-lane
/// batch hasher ([`ShardRouter::route_flat_into`]) and ships the same
/// key bytes to the worker inside the batch, where
/// [`DuplicateDetector::observe_flat_into`] reuses them for probing.
#[allow(clippy::too_many_lines)]
fn run_fanout<D, I>(
    workers: Vec<D>,
    router: ShardRouter,
    state: SegmentState,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    instr: Instrumentation<D>,
) -> FanoutResult<D>
where
    D: BatchJudge + Send,
    I: IntoIterator<Item = Click>,
{
    let batch = config.batch.max(1);
    let queue = config.queue.max(1);
    let shard_count = workers.len();
    if let Some(t) = &instr.telemetry {
        assert_eq!(
            t.shard_count(),
            shard_count,
            "telemetry bundle sized for a different shard count"
        );
    }
    let SegmentState {
        registry,
        ledger,
        savings_micros,
        scorer,
    } = state;
    let raw_pool = Arc::new(Pool::<ClickBatch>::new());
    let judged_pool = Arc::new(Pool::<JudgedBatch>::new());
    // Pre-populate both pools to their structural in-flight bounds with
    // capacity-reserved buffers: per shard, `queue` batches can sit in a
    // ring plus one in the producer's hand and one in the consumer's.
    // An empty pool hands out `T::default()` (capacity-0 vectors) on a
    // miss, so lazily-grown pools reach their working population at a
    // timing-dependent point — occasionally *after* a steady-state
    // allocation watcher has started counting.
    for _ in 0..shard_count * (queue + 2) {
        raw_pool.put(ClickBatch {
            items: Vec::with_capacity(batch),
            keys: Vec::with_capacity(batch * KEY_LEN),
        });
        judged_pool.put(JudgedBatch {
            items: Vec::with_capacity(batch),
        });
    }

    thread::scope(|s| {
        // Shard workers: exclusive detector ownership, private scorer,
        // one raw ring in and one judged ring out per worker (SPSC at
        // both ends — no fan-in contention point).
        let mut raw_producers = Vec::with_capacity(shard_count);
        let mut judged_consumers = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for (idx, mut detector) in workers.into_iter().enumerate() {
            let (raw_tx, mut raw_rx) = ring::spsc::<ClickBatch>(queue);
            let (mut judged_tx, judged_rx) = ring::spsc::<JudgedBatch>(queue);
            raw_producers.push(raw_tx);
            judged_consumers.push(judged_rx);
            let progress = progress.clone();
            let telemetry = instr.telemetry.clone();
            let health_of = instr.health_of;
            let tenant_health_of = instr.tenant_health_of;
            let raw_pool = Arc::clone(&raw_pool);
            let judged_pool = Arc::clone(&judged_pool);
            let pin = config.pin_workers;
            handles.push(s.spawn(move || {
                if pin {
                    pin_current_thread(idx);
                }
                let telem = telemetry.as_deref();
                let mut scorer = FraudScorer::new();
                let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
                while let Some(mut b) = raw_rx.pop() {
                    let t0 = telem.map(|t| {
                        t.shard_queue_depth(idx).sub(1);
                        Instant::now()
                    });
                    // The key bytes were built (and lane-hashed for
                    // routing) at ingest; probe them directly.
                    detector.judge_flat(&b.keys, &b.items, &mut verdicts);
                    if let Some((t, t0)) = telem.zip(t0) {
                        t.stage_probe_ns().record(duration_ns(t0.elapsed()));
                    }
                    let mut judged = judged_pool.get();
                    judged.items.clear();
                    judged.items.extend(
                        b.items
                            .drain(..)
                            .zip(verdicts.iter().copied())
                            .map(|((seq, click), verdict)| (seq, JudgedClick { click, verdict })),
                    );
                    b.clear();
                    raw_pool.put(b);
                    for (_, j) in &judged.items {
                        scorer.record(&j.click, j.verdict);
                    }
                    if let Some(p) = &progress {
                        p.detected
                            .fetch_add(judged.items.len() as u64, Ordering::Relaxed);
                    }
                    if let Some(t) = telem {
                        t.shard_batches(idx).inc();
                        if t.take_health_request(idx) {
                            if let Some(h) = health_of(&detector) {
                                t.publish_health(idx, &h);
                            }
                            if let Some(th) = tenant_health_of(&detector) {
                                t.publish_tenant_health(idx, &th);
                            }
                        }
                    }
                    if judged_tx.push(judged).is_err() {
                        break; // billing stage gone; drain and stop
                    }
                }
                let health = health_of(&detector);
                if let Some((t, h)) = telem.zip(health.as_ref()) {
                    t.publish_health(idx, h);
                }
                if let Some((t, th)) = telem.zip(tenant_health_of(&detector)) {
                    t.publish_tenant_health(idx, &th);
                }
                if let Some(t) = telem {
                    // Backpressure totals for both of this shard's
                    // rings (the wait counters live on the shared ring
                    // state, so either end can read them).
                    t.shard_raw_full_waits(idx).add(raw_rx.stats().full_waits);
                    t.shard_judged_full_waits(idx)
                        .add(judged_tx.stats().full_waits);
                }
                let bits = detector.memory_bits();
                (detector, scorer, bits, health)
            }));
        }

        // Resequencer + billing: poll every judged ring round-robin,
        // restore global order, settle verdicts. Draining each ring
        // unconditionally keeps workers from deadlocking against a full
        // judged ring; the backoff bounds the cost of empty sweeps.
        let progress_bill = progress.clone();
        let telemetry_bill = instr.telemetry.clone();
        let judged_pool_bill = Arc::clone(&judged_pool);
        let billing = s.spawn(move || {
            let telem = telemetry_bill.as_deref();
            let mut registry = registry;
            let mut engine = BillingEngine::with_ledger((), ledger);
            let mut savings = savings_micros;
            let mut next_seq = 0u64;
            // Pre-reserve the resequencer heap: per-shard judged rings
            // hold at most `queue` batches each, plus one in flight per
            // worker and the one drained here. That covers the usual
            // backlog, so the heap does not realloc mid-run and break
            // the zero-steady-state-allocation invariant the soak test
            // asserts. It is not a hard bound: while one worker stalls,
            // billing keeps draining the other shards' rings into it.
            let mut pending: BinaryHeap<Reverse<Pending>> =
                BinaryHeap::with_capacity(shard_count * (queue + 2) * batch);
            // Clicks released in order this round, reused across
            // batches. One round can release the whole backlog, so it
            // shares the heap's bound.
            let mut ready: Vec<JudgedClick> = Vec::with_capacity(shard_count * (queue + 2) * batch);
            let mut consumers = judged_consumers;
            let mut open = vec![true; consumers.len()];
            let mut live = consumers.len();
            let mut empty_polls = 0u64;
            let mut backoff = Backoff::new();
            while live > 0 {
                let mut progressed = false;
                for (ci, rx) in consumers.iter_mut().enumerate() {
                    if !open[ci] {
                        continue;
                    }
                    loop {
                        let mut jb = match rx.try_pop() {
                            Ok(jb) => jb,
                            Err(TryPopError::Empty) => break,
                            Err(TryPopError::Disconnected) => {
                                open[ci] = false;
                                live -= 1;
                                break;
                            }
                        };
                        progressed = true;
                        let t0 = telem.map(|_| Instant::now());
                        for (seq, judged) in jb.items.drain(..) {
                            pending.push(Reverse(Pending { seq, judged }));
                        }
                        judged_pool_bill.put(jb);
                        while pending.peek().is_some_and(|Reverse(p)| p.seq == next_seq) {
                            let Reverse(p) = pending.pop().expect("peeked");
                            ready.push(p.judged);
                            next_seq += 1;
                        }
                        let t1 = telem.zip(t0).map(|(t, t0)| {
                            let now = Instant::now();
                            t.stage_resequence_ns().record(duration_ns(now - t0));
                            if ready.is_empty() && !pending.is_empty() {
                                t.reseq_stalls().inc();
                            }
                            t.pending_peak()
                                .set_max(i64::try_from(pending.len()).unwrap_or(i64::MAX));
                            now
                        });
                        for judged in ready.drain(..) {
                            settle_one(
                                &mut engine,
                                &mut registry,
                                &mut savings,
                                progress_bill.as_deref(),
                                &judged,
                            );
                        }
                        if let Some((t, t1)) = telem.zip(t1) {
                            t.stage_billing_ns().record(duration_ns(t1.elapsed()));
                        }
                    }
                }
                if live == 0 {
                    break;
                }
                if progressed {
                    backoff.reset();
                } else {
                    empty_polls += 1;
                    backoff.snooze();
                }
            }
            // Workers are done: the remainder is a contiguous tail.
            while let Some(Reverse(p)) = pending.pop() {
                debug_assert_eq!(p.seq, next_seq, "resequencer hole at shutdown");
                settle_one(
                    &mut engine,
                    &mut registry,
                    &mut savings,
                    progress_bill.as_deref(),
                    &p.judged,
                );
                next_seq += 1;
            }
            if let Some(t) = telem {
                t.reseq_empty_polls().add(empty_polls);
            }
            (engine.into_ledger(), savings, registry)
        });

        // Ingest + route on the caller's thread: stage a block of
        // clicks, build all keys flat, lane-hash the block once for
        // routing, then scatter into per-shard pooled batches.
        let telem = instr.telemetry.as_deref();
        let mut iter = clicks.into_iter();
        let mut stage_clicks: Vec<Click> = Vec::with_capacity(batch);
        let mut stage_keys: Vec<u8> = Vec::with_capacity(batch * KEY_LEN);
        let mut routes: Vec<usize> = Vec::with_capacity(batch);
        let mut buckets: Vec<ClickBatch> = (0..shard_count).map(|_| raw_pool.get()).collect();
        let mut seq = 0u64;
        'ingest: loop {
            stage_clicks.clear();
            while stage_clicks.len() < batch {
                match iter.next() {
                    Some(c) => stage_clicks.push(c),
                    None => break,
                }
            }
            if stage_clicks.is_empty() {
                break;
            }
            let t0 = telem.map(|_| Instant::now());
            stage_keys.clear();
            for c in &stage_clicks {
                stage_keys.extend_from_slice(&c.key());
            }
            router.route_flat_into(&stage_keys, KEY_LEN, &mut routes);
            if let Some((t, t0)) = telem.zip(t0) {
                t.stage_hash_ns().record(duration_ns(t0.elapsed()));
            }
            for (i, click) in stage_clicks.drain(..).enumerate() {
                let shard = routes[i];
                let b = &mut buckets[shard];
                b.items.push((seq, click));
                b.keys
                    .extend_from_slice(&stage_keys[i * KEY_LEN..(i + 1) * KEY_LEN]);
                seq += 1;
                if b.items.len() == batch {
                    let full = std::mem::replace(b, raw_pool.get());
                    if let Some(t) = telem {
                        t.ingest_clicks().add(full.items.len() as u64);
                        t.shard_queue_depth(shard).add(1);
                    }
                    if raw_producers[shard].push(full).is_err() {
                        break 'ingest; // a worker died; stop feeding
                    }
                }
            }
        }
        for (shard, b) in buckets.into_iter().enumerate() {
            if b.items.is_empty() {
                raw_pool.put(b);
            } else {
                if let Some(t) = telem {
                    t.ingest_clicks().add(b.items.len() as u64);
                    t.shard_queue_depth(shard).add(1);
                }
                let _ = raw_producers[shard].push(b);
            }
        }
        drop(raw_producers);

        let mut workers = Vec::with_capacity(shard_count);
        let mut scorer = scorer;
        let mut memory_bits = 0usize;
        let mut health = Vec::new();
        for handle in handles {
            let (detector, partial, bits, shard_health) =
                handle.join().expect("detector worker panicked");
            workers.push(detector);
            scorer.merge(partial);
            memory_bits += bits;
            health.extend(shard_health);
        }
        let (ledger, savings, registry) = billing.join().expect("billing stage panicked");
        if let Some(t) = telem {
            t.pool_raw_misses().add(raw_pool.misses());
            t.pool_judged_misses().add(judged_pool.misses());
        }
        FanoutResult {
            workers,
            state: SegmentState {
                registry,
                ledger,
                savings_micros: savings,
                scorer,
            },
            memory_bits,
            health,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{Advertiser, AdvertiserId, Campaign};
    use cfd_core::sharded::per_shard_window;
    use cfd_core::{Tbf, TbfConfig, TimeTbf, TimeTbfConfig};
    use cfd_stream::{AdId, BotnetConfig, BotnetStream};

    fn registry_with_budget(budget: u64) -> Registry {
        let mut r = Registry::new();
        r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", budget));
        for ad in 0..64 {
            r.add_campaign(Campaign {
                ad: AdId(ad),
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser registered");
        }
        r
    }

    fn registry() -> Registry {
        registry_with_budget(u64::MAX / 4)
    }

    fn clicks(n: usize) -> Vec<Click> {
        BotnetStream::new(BotnetConfig::default(), 8, 64)
            .take(n)
            .map(|c| c.click)
            .collect()
    }

    /// `inner` as the one-shard composition every entry point takes.
    fn one_shard<D>(inner: D) -> ShardedDetector<D> {
        ShardedDetector::new(7, vec![inner]).expect("one shard")
    }

    fn small_tbf(window: usize, entries: usize) -> Tbf {
        Tbf::new(
            TbfConfig::builder(window)
                .entries(entries)
                .build()
                .expect("cfg"),
        )
        .expect("detector")
    }

    fn sharded_tbf(n: usize, shards: usize) -> ShardedDetector<Tbf> {
        ShardedDetector::from_fn(7, shards, |_| {
            let n_s = per_shard_window(n, shards);
            Tbf::new(
                TbfConfig::builder(n_s)
                    .entries(n_s * 16)
                    .seed(4)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("sharded detector")
    }

    /// The acceptance bar of the sharded layer: the parallel pipeline
    /// over `S` shard workers reproduces a sequential run of the *same*
    /// `ShardedDetector` bit for bit — the routing preserves per-shard
    /// observation order and the resequencer preserves billing order.
    /// A tight budget makes billing order-sensitive, so a resequencer
    /// bug cannot hide.
    #[test]
    fn sharded_pipeline_matches_sequential_sharded_network() {
        let cs = clicks(30_000);
        for (shards, budget) in [(1usize, u64::MAX / 4), (4, u64::MAX / 4), (4, 50_000)] {
            let mut net = crate::network::AdNetwork::new(sharded_tbf(2_048, shards));
            let mut reg = registry_with_budget(budget);
            std::mem::swap(net.registry_mut(), &mut reg);
            let sequential = net.run(cs.iter());

            let outcome = run_sharded_pipeline(
                sharded_tbf(2_048, shards),
                registry_with_budget(budget),
                cs.iter().copied(),
                PipelineConfig::default(),
                None,
            );
            assert_eq!(
                outcome.report.charged, sequential.charged,
                "shards={shards}"
            );
            assert_eq!(
                outcome.report.duplicates_blocked, sequential.duplicates_blocked,
                "shards={shards}"
            );
            assert_eq!(
                outcome.report.budget_rejections,
                sequential.budget_rejections
            );
            assert_eq!(outcome.report.revenue_micros, sequential.revenue_micros);
            assert_eq!(outcome.report.savings_micros, sequential.savings_micros);
            assert_eq!(
                outcome.report.detector_memory_bits,
                sequential.detector_memory_bits
            );
        }
    }

    /// Batch size is a throughput knob, never a semantics knob: the
    /// resequencer output is invariant under batch boundaries.
    #[test]
    fn batch_size_does_not_change_any_tally() {
        let cs = clicks(10_000);
        let run = |batch: usize| {
            run_sharded_pipeline(
                sharded_tbf(1_024, 3),
                registry_with_budget(400_000),
                cs.iter().copied(),
                PipelineConfig {
                    batch,
                    queue: 4,
                    ..PipelineConfig::default()
                },
                None,
            )
        };
        let a = run(1);
        let b = run(509);
        assert_eq!(a.report.charged, b.report.charged);
        assert_eq!(a.report.duplicates_blocked, b.report.duplicates_blocked);
        assert_eq!(a.report.budget_rejections, b.report.budget_rejections);
        assert_eq!(a.report.revenue_micros, b.report.revenue_micros);
        assert_eq!(a.scorer.total_clicks(), b.scorer.total_clicks());
    }

    #[test]
    fn progress_counters_advance() {
        let progress = Arc::new(PipelineProgress::new());
        let cs = clicks(5_000);
        let outcome = run_sharded_pipeline(
            one_shard(small_tbf(512, 1 << 13)),
            registry(),
            cs,
            PipelineConfig {
                batch: 64,
                queue: 1,
                ..PipelineConfig::default()
            },
            Some(progress.clone()),
        );
        assert_eq!(progress.detected(), 5_000);
        assert_eq!(progress.billed(), 5_000);
        assert_eq!(outcome.report.clicks, 5_000);
    }

    #[test]
    fn scorer_travels_with_the_outcome() {
        let cs = clicks(20_000);
        let outcome = run_sharded_pipeline(
            one_shard(small_tbf(4_096, 1 << 16)),
            registry(),
            cs,
            PipelineConfig {
                batch: 128,
                queue: 1,
                ..PipelineConfig::default()
            },
            None,
        );
        assert!(outcome.scorer.total_clicks() == 20_000);
        assert!(!outcome.scorer.scores(100).is_empty());
    }

    /// Telemetry is observation, not intervention: the instrumented run
    /// produces a report identical to the plain run's, while its
    /// registry fills with consistent stage metrics and the outcome
    /// carries one final health sample per shard.
    #[test]
    fn instrumented_run_matches_plain_run_and_reports() {
        let cs = clicks(20_000);
        let shards = 4;
        let plain = run_sharded_pipeline(
            sharded_tbf(2_048, shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
        );
        assert!(plain.health.is_empty(), "plain runs carry no health");

        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        telemetry.request_detector_health(); // exercise the request path
        let observed = run_sharded_pipeline_instrumented(
            sharded_tbf(2_048, shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(observed.report.charged, plain.report.charged);
        assert_eq!(
            observed.report.duplicates_blocked,
            plain.report.duplicates_blocked
        );
        assert_eq!(observed.report.revenue_micros, plain.report.revenue_micros);

        assert_eq!(observed.health.len(), shards, "one sample per shard");
        let total: u64 = observed.health.iter().map(|h| h.observed_elements).sum();
        assert_eq!(total, 20_000, "shard healths partition the stream");
        assert!(observed.health.iter().all(|h| h.fill_ratios[0] > 0.0));

        let snap = metrics.snapshot();
        assert_eq!(
            snap.get_counter("pipeline.ingest.clicks"),
            Some(20_000),
            "every click routed"
        );
        let batches: u64 = (0..shards)
            .map(|i| {
                snap.get_counter(&format!("pipeline.shard{i}.batches"))
                    .expect("registered")
            })
            .sum();
        assert!(batches > 0);
        for stage in ["hash", "probe", "resequence", "billing"] {
            let h = snap
                .get_histogram(&format!("pipeline.stage.{stage}_ns"))
                .expect("stage histogram registered");
            assert!(h.count > 0, "{stage} recorded no batches");
            assert!(h.max > 0, "{stage} latencies all zero");
        }
        // All queues drained at shutdown.
        for e in &snap.entries {
            if e.name.ends_with("queue_depth") {
                assert_eq!(e.value, cfd_telemetry::MetricValue::Gauge(0), "{}", e.name);
            }
        }
        // The pools are pre-populated to their
        // structural in-flight bound, so no `get` ever finds them empty
        // — zero misses means zero mid-run buffer creation.
        let raw_misses = snap
            .get_counter("pipeline.pool.raw_misses")
            .expect("registered");
        assert_eq!(
            raw_misses, 0,
            "pre-populated pool ran dry: {raw_misses} raw-batch allocations"
        );
    }

    /// The instrumented entry point works with a one-shard boxed dynamic
    /// detector (the CLI's usage) and publishes terminal health.
    #[test]
    fn instrumented_single_shard_accepts_boxed_detector() {
        use cfd_windows::ObservableDetector;
        let cs = clicks(5_000);
        let d: Box<dyn ObservableDetector + Send> = Box::new(small_tbf(512, 1 << 13));
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, 1));
        let outcome = run_sharded_pipeline_instrumented(
            one_shard(d),
            registry(),
            cs,
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.report.clicks, 5_000);
        assert_eq!(outcome.health.len(), 1);
        assert_eq!(outcome.health[0].observed_elements, 5_000);
        let snap = metrics.snapshot();
        assert_eq!(snap.get_counter("pipeline.ingest.clicks"), Some(5_000));
    }

    /// Worker pinning is advisory: the run completes and tallies
    /// normally whether or not `taskset` could honor the request.
    #[test]
    fn pinned_workers_complete_normally() {
        let cs = clicks(5_000);
        let outcome = run_sharded_pipeline(
            sharded_tbf(1_024, 2),
            registry(),
            cs.iter().copied(),
            PipelineConfig {
                pin_workers: true,
                ..PipelineConfig::default()
            },
            None,
        );
        assert_eq!(outcome.report.clicks, 5_000);
    }

    fn sharded_time_tbf(shards: usize) -> ShardedDetector<TimeTbf> {
        ShardedDetector::from_fn(7, shards, |_| {
            TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 14, 6, 4)?)
        })
        .expect("sharded timed detector")
    }

    /// The acceptance bar of the timed mode: the parallel timed pipeline
    /// bills exactly like a sequential `observe_at` run of the same
    /// `ShardedDetector` settled in stream order, for 1 and 4 shards. A
    /// tight budget makes billing order-sensitive, so a resequencer bug
    /// cannot hide.
    #[test]
    fn timed_sharded_pipeline_matches_sequential_observe_at() {
        let cs = clicks(30_000);
        for (shards, budget) in [(1usize, u64::MAX / 4), (4, u64::MAX / 4), (4, 50_000)] {
            let mut reference = sharded_time_tbf(shards);
            let mut engine = BillingEngine::new(());
            let mut reg = registry_with_budget(budget);
            let mut savings = 0;
            for c in &cs {
                let verdict = reference.observe_at(&c.key(), c.tick);
                if engine.process_judged(c, verdict, &mut reg) == ClickOutcome::DuplicateBlocked {
                    savings += reg.campaign(c.id.ad).expect("registered").cpc_micros;
                }
            }
            let sequential = NetworkReport::from_ledger("", 0, &engine.into_ledger(), savings);

            let outcome = run_timed_sharded_pipeline(
                sharded_time_tbf(shards),
                registry_with_budget(budget),
                cs.iter().copied(),
                PipelineConfig::default(),
                None,
            );
            let at = format!("shards={shards} budget={budget}");
            assert_eq!(outcome.report.clicks, cs.len() as u64, "{at}");
            assert_eq!(outcome.report.charged, sequential.charged, "{at}");
            assert_eq!(
                outcome.report.duplicates_blocked, sequential.duplicates_blocked,
                "{at}"
            );
            assert_eq!(
                outcome.report.budget_rejections, sequential.budget_rejections,
                "{at}"
            );
            assert_eq!(
                outcome.report.revenue_micros, sequential.revenue_micros,
                "{at}"
            );
            assert_eq!(
                outcome.report.savings_micros, sequential.savings_micros,
                "{at}"
            );
        }
    }

    /// The timed instrumented entry points report per-shard health and
    /// keep the occupancy-scan budget: health sampling is the only scan.
    #[test]
    fn timed_instrumented_run_reports_health() {
        let cs = clicks(10_000);
        let shards = 4;
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let outcome = run_timed_sharded_pipeline_instrumented(
            sharded_time_tbf(shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.health.len(), shards, "one sample per shard");
        let total: u64 = outcome.health.iter().map(|h| h.observed_elements).sum();
        assert_eq!(total, 10_000, "shard healths partition the stream");

        // One-shard boxed form (the CLI's usage).
        use cfd_windows::TimedObservableDetector;
        let d: Box<dyn TimedObservableDetector + Send> = Box::new(
            TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 14, 6, 4).expect("cfg"))
                .expect("detector"),
        );
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, 1));
        let outcome = run_timed_sharded_pipeline_instrumented(
            one_shard(d),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.report.clicks, 10_000);
        assert_eq!(outcome.health.len(), 1);
        assert_eq!(outcome.health[0].observed_elements, 10_000);
    }

    /// The merged scorer of a 4-worker run equals the single scorer of a
    /// 1-worker run over the same stream.
    #[test]
    fn sharded_scorer_merge_is_exact() {
        let cs = clicks(20_000);
        let wide = run_sharded_pipeline(
            sharded_tbf(2_048, 4),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
        );
        let mut scorer = FraudScorer::new();
        let mut detector = sharded_tbf(2_048, 4);
        for c in &cs {
            let v = detector.observe(&c.key());
            scorer.record(c, v);
        }
        assert_eq!(wide.scorer.total_clicks(), scorer.total_clicks());
        assert_eq!(wide.scorer.scores(50).len(), scorer.scores(50).len());
    }
}
