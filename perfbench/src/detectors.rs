//! Detector construction, mirroring `cfd serve` and `cfd run`.

use crate::workload::{Case, CELLS_PER_ELEMENT, HASH_COUNT, SHARDS};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::sharded::per_shard_window;
use cfd_core::{ShardedDetector, Tbf, TbfConfig, TimeTbf, TimeTbfConfig};
use cfd_stream::scenario::ScenarioWindow;

/// Count window `N` of a serve workload.
pub fn count_window(c: &Case) -> usize {
    match c.spec.window {
        ScenarioWindow::Count { n } => n,
        ScenarioWindow::Time { .. } => panic!("{}: not a count window", c.w.name),
    }
}

/// `(capacity, window_units, unit_ticks)` of a timed workload.
pub fn time_window(c: &Case) -> (usize, u64, u64) {
    match c.spec.window {
        ScenarioWindow::Time {
            n,
            window_units,
            unit_ticks,
            ..
        } => (n, window_units, unit_ticks),
        ScenarioWindow::Count { .. } => panic!("{}: not a time window", c.w.name),
    }
}

/// The serve detector exactly as `cfd serve --algo tbf` builds it:
/// registry backends at the per-shard window, router and probe hashing
/// seeded from the workload seed.
pub fn serve_detector(c: &Case) -> ShardedDetector<Box<dyn DetectorBackend>> {
    let seed = c.seed;
    let n_s = per_shard_window(count_window(c), SHARDS);
    let geo = BackendGeometry::new(n_s, MemorySpec::CellsPerElement(CELLS_PER_ELEMENT))
        .with_hash_count(HASH_COUNT)
        .with_seed(seed)
        .with_probe(ProbeLayout::Scattered);
    ShardedDetector::from_fn(seed, SHARDS, |_| registry::build("tbf", &geo))
        .expect("tbf builds at the workload geometry")
}

/// The same shards as concrete [`Tbf`]s, so the layer replay can call
/// `apply_batch_into` and read `OpCounters`. The replay checks its
/// verdicts against [`serve_detector`]'s, which proves the two agree.
pub fn serve_tbf_shards(c: &Case) -> Vec<Tbf> {
    let seed = c.seed;
    let n_s = per_shard_window(count_window(c), SHARDS);
    (0..SHARDS)
        .map(|_| {
            let cfg = TbfConfig::builder(n_s)
                .entries(n_s * CELLS_PER_ELEMENT)
                .hash_count(HASH_COUNT)
                .seed(seed)
                .probe(ProbeLayout::Scattered)
                .build()
                .expect("tbf config at the workload geometry");
            Tbf::new(cfg).expect("tbf builds")
        })
        .collect()
}

/// One timed shard: full time window, tables sized for the shard's
/// `1/S` share of the expected clicks (as `cfd run --algo time-tbf`).
fn timed_shard(c: &Case) -> TimeTbf {
    let (capacity, window_units, unit_ticks) = time_window(c);
    let per_shard = capacity.div_ceil(SHARDS);
    let cfg = TimeTbfConfig::new(
        window_units,
        unit_ticks,
        per_shard * CELLS_PER_ELEMENT,
        HASH_COUNT,
        c.seed,
    )
    .expect("time-tbf config at the workload geometry");
    TimeTbf::new(cfg).expect("time-tbf builds")
}

/// The sharded timed detector.
pub fn timed_detector(c: &Case) -> ShardedDetector<TimeTbf> {
    ShardedDetector::new(c.seed, (0..SHARDS).map(|_| timed_shard(c)).collect())
        .expect("at least one shard")
}
