//! The three workloads: what each runs, on what traffic, at what size.

use cfd_adnet::{Advertiser, AdvertiserId, Campaign, Registry};
use cfd_stream::scenario::ScenarioSpec;
use cfd_stream::{AdId, Click};

/// Which program path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// `cfd_adnet::serve::serve` behind a Unix socket, fed CFDW frames.
    Serve,
    /// In-process `run_timed_sharded_pipeline` over a `TimeTbf`.
    Timed,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub path: PathKind,
    /// The scenario spec (traffic mix and window model).
    pub scenario: &'static str,
    /// Clicks of the open-loop (paced) phase, sent first.
    pub paced_clicks: usize,
    /// Clicks of the closed-loop (saturated) phase, sent after it.
    pub saturated_clicks: usize,
    /// Fixed rate of the paced phase, clicks per second.
    pub paced_rate: f64,
    /// Saturated clicks per throughput window: `clicks_per_s` is the
    /// median rate over every window of every untraced round.
    pub rate_window: usize,
    /// Paced clicks per latency window: `latency_p50_us`/`latency_p99_us`
    /// are the medians of the per-window percentiles.
    pub latency_window: usize,
    /// Clicks per CFDW frame (and per paced release on the timed path).
    pub frame_clicks: usize,
    /// Clicks per serve segment (one checkpoint each); 0 on the timed
    /// path, which has no checkpoint.
    pub checkpoint_every: u64,
}

/// Detector cells per window element (the paper's `m/N`).
pub const CELLS_PER_ELEMENT: usize = 14;
/// Hash functions per click.
pub const HASH_COUNT: usize = 10;
/// Keyspace shards (one pipeline worker each).
pub const SHARDS: usize = 2;
/// Clicks per inter-stage pipeline batch (the library default).
pub const BATCH: usize = 256;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_mix",
        path: PathKind::Serve,
        scenario: include_str!("../workloads/serve_mix.toml"),
        paced_clicks: 1 << 19,
        saturated_clicks: 3 << 19,
        paced_rate: 500_000.0,
        rate_window: 3 << 19,
        latency_window: 1 << 11,
        frame_clicks: 256,
        checkpoint_every: 1 << 20,
    },
    Workload {
        name: "serve_ckpt",
        path: PathKind::Serve,
        scenario: include_str!("../workloads/serve_ckpt.toml"),
        paced_clicks: 1 << 18,
        saturated_clicks: 1 << 19,
        paced_rate: 120_000.0,
        // One checkpoint segment: every window holds exactly one
        // checkpoint write, so the median keeps the checkpoint's cost.
        rate_window: 1 << 17,
        latency_window: 1 << 18,
        frame_clicks: 32,
        checkpoint_every: 1 << 17,
    },
    Workload {
        name: "timed_diurnal",
        path: PathKind::Timed,
        scenario: include_str!("../workloads/timed_diurnal.toml"),
        paced_clicks: 1 << 12,
        saturated_clicks: 1 << 14,
        paced_rate: 2_600.0,
        // One diurnal ramp period (`[ramp] period`), so every window
        // holds a whole trough and a whole peak.
        rate_window: 1 << 12,
        latency_window: 1 << 12,
        frame_clicks: 256,
        checkpoint_every: 0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn total_clicks(&self) -> usize {
        self.paced_clicks + self.saturated_clicks
    }
}

/// One workload at one seed, with its scenario parsed once up front so
/// no parsing falls inside a timed region.
pub struct Case {
    pub w: &'static Workload,
    pub seed: u64,
    /// The scenario with `seed` in place of its own.
    pub spec: ScenarioSpec,
}

impl Case {
    pub fn new(w: &'static Workload, seed: u64) -> Self {
        let mut spec = ScenarioSpec::parse(w.scenario)
            .unwrap_or_else(|e| panic!("{}: bad scenario: {e}", w.name));
        spec.seed = seed;
        spec.clicks = w.total_clicks() as u64;
        assert!(
            w.saturated_clicks.is_multiple_of(w.rate_window),
            "{}: the saturated phase is not whole throughput windows",
            w.name
        );
        Self { w, seed, spec }
    }

    /// The click stream: the paced phase followed by the saturated one.
    pub fn stream(&self) -> Vec<Click> {
        self.spec
            .compile()
            .take(self.w.total_clicks())
            .map(|sc| sc.click)
            .collect()
    }

    /// Number of ads the traffic draws from.
    pub fn ads(&self) -> u32 {
        self.spec.traffic.ads
    }
}

/// The billing registry every path and the reference share: one
/// advertiser with an effectively unlimited budget and campaigns
/// `0..ads` at a flat CPC (as `cfd serve --ads N` builds it).
pub fn billing_registry(ads: u32) -> Registry {
    let mut registry = Registry::new();
    registry.add_advertiser(Advertiser::new(AdvertiserId(1), "advertiser", u64::MAX / 4));
    for ad in 0..ads {
        registry
            .add_campaign(Campaign {
                ad: AdId(ad),
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser just registered");
    }
    registry
}
