//! Criterion throughput benches: per-element `observe` cost of every
//! detector (the wall-clock side of Theorems 1 & 2), and the timed
//! TBF's cost per click as a function of the gap between clicks.
//!
//! ```text
//! cargo bench -p cfd-bench --bench detectors                    # every group
//! cargo bench -p cfd-bench --bench detectors -- time_tbf_gap_curve
//! cargo bench -p cfd-bench --bench detectors -- time_tbf_gap_curve --smoke
//! ```
//!
//! A positional argument runs only the group of that name; `--smoke`
//! shortens every timing window to a few milliseconds (a does-it-run
//! check, not a measurement).

use cfd_bench::NaiveJumpingBloom;
use cfd_bloom::metwally::{MetwallyConfig, MetwallyJumping};
use cfd_bloom::stable::{StableBloomFilter, StableConfig};
use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig, TimeTbf, TimeTbfConfig};
use cfd_stream::UniqueIdStream;
use cfd_windows::{DuplicateDetector, ExactSlidingDedup};
use criterion::{BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const N: usize = 1 << 16;
const BITS_PER_ELEM: usize = 14;
const K: usize = 10;

fn keys(count: usize, seed: u64) -> Vec<[u8; 8]> {
    UniqueIdStream::new(seed)
        .take(count)
        .map(|id| id.to_le_bytes())
        .collect()
}

fn bench_detector<D: DuplicateDetector>(
    c: &mut Criterion,
    group_name: &str,
    id: BenchmarkId,
    mut detector: D,
) {
    let ks = keys(N, 99);
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(1)); // one observe per iteration
    let mut i = 0usize;
    group.bench_function(id, |b| {
        b.iter(|| {
            let key = &ks[i & (N - 1)];
            i = i.wrapping_add(1);
            detector.observe(key)
        })
    });
    group.finish();
}

fn jumping_detectors(c: &mut Criterion) {
    for q in [8usize, 31, 255] {
        let m = (N / q).max(1) * BITS_PER_ELEM;
        bench_detector(
            c,
            "jumping",
            BenchmarkId::new("gbf", q),
            Gbf::new(
                GbfConfig::builder(N, q)
                    .filter_bits(m)
                    .hash_count(K)
                    .build()
                    .expect("cfg"),
            )
            .expect("detector"),
        );
        bench_detector(
            c,
            "jumping",
            BenchmarkId::new("naive-separate", q),
            NaiveJumpingBloom::new(N, q, m, K, 1),
        );
        bench_detector(
            c,
            "jumping",
            BenchmarkId::new("metwally", q),
            MetwallyJumping::new(MetwallyConfig {
                n: N,
                q,
                m,
                k: K,
                seed: 1,
            }),
        );
        bench_detector(
            c,
            "jumping",
            BenchmarkId::new("jumping-tbf", q),
            JumpingTbf::new(
                JumpingTbfConfig::new(N, q, N * BITS_PER_ELEM / 12, K, 1).expect("cfg"),
            )
            .expect("detector"),
        );
    }
}

fn sliding_detectors(c: &mut Criterion) {
    bench_detector(
        c,
        "sliding",
        BenchmarkId::new("tbf", N),
        Tbf::new(
            TbfConfig::builder(N)
                .entries(N * BITS_PER_ELEM / 12)
                .hash_count(K)
                .build()
                .expect("cfg"),
        )
        .expect("detector"),
    );
    bench_detector(
        c,
        "sliding",
        BenchmarkId::new("stable-bloom", N),
        StableBloomFilter::new(StableConfig {
            m: N * 2,
            cell_bits: 3,
            k: 6,
            p: 26,
            nominal_window: N,
            seed: 1,
        }),
    );
    bench_detector(
        c,
        "sliding",
        BenchmarkId::new("exact-sliding", N),
        ExactSlidingDedup::new(N),
    );
}

/// Cost per click of `TimeTbf` when clicks arrive every `gap` ticks:
/// window R = 32 units of 5 ticks, m = 2^18 entries, k = 8, every click
/// distinct. Each click advances the clock by `gap` ticks, so it pays
/// the expiry work of the units it crosses (a replayed sweep per unit,
/// or a whole-table clear once the gap reaches the window). A cost that
/// tracks traffic stays flat across the curve.
fn time_tbf_gap_curve(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_tbf_gap_curve");
    group.throughput(Throughput::Elements(1));
    for gap in [1u64, 5, 25, 50, 100, 160, 200] {
        let cfg = TimeTbfConfig::new(32, 5, 1 << 18, 8, 1).expect("cfg");
        let mut detector = TimeTbf::new(cfg).expect("detector");
        let mut i = 0u64;
        group.bench_function(BenchmarkId::new("gap_ticks", gap), |b| {
            b.iter(|| {
                i += 1;
                detector.observe_at(&i.to_le_bytes(), i * gap)
            })
        });
    }
    group.finish();
}

/// One named group of benches.
type BenchGroup = fn(&mut Criterion);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo bench` passes `--bench`; any other flag but `--smoke` is
    // ignored too, so the binary accepts the usual harness arguments.
    let only = args.iter().find(|a| !a.starts_with('-'));
    let criterion = Criterion::default();
    let mut criterion = if args.iter().any(|a| a == "--smoke") {
        criterion
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20))
            .sample_size(2)
    } else {
        criterion
            .warm_up_time(Duration::from_secs(1))
            .measurement_time(Duration::from_secs(2))
            .sample_size(60)
    };
    let groups: [(&str, BenchGroup); 3] = [
        ("jumping", jumping_detectors),
        ("sliding", sliding_detectors),
        ("time_tbf_gap_curve", time_tbf_gap_curve),
    ];
    if let Some(g) = only.filter(|g| groups.iter().all(|(name, _)| name != g)) {
        eprintln!("detectors: unknown group `{g}`");
        std::process::exit(2);
    }
    for (name, run) in groups {
        if only.is_none_or(|g| g == name) {
            run(&mut criterion);
        }
    }
}
