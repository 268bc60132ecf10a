//! Integration tests for the time-based detectors against the exact
//! timed oracles of `cfd-windows` (the §3.1/§4.1 extensions).

use cfd_core::gbf_time::{TimeGbf, TimeGbfConfig};
use cfd_core::tbf_time::{TimeTbf, TimeTbfConfig};
use cfd_stream::{DuplicateInjector, PoissonArrivals, UniqueClickStream};
use cfd_windows::{DuplicateDetector, ExactTimeJumpingDedup, ExactTimeSlidingDedup, Verdict};

/// A bursty timed key stream: Poisson arrivals with duplicate injection.
fn timed_keys(count: usize, rate: f64, seed: u64) -> Vec<(Vec<u8>, u64)> {
    let ids = DuplicateInjector::new(UniqueClickStream::new(seed, 4, 16), 0.3, 2_000, seed ^ 1);
    let ticks = PoissonArrivals::new(rate, seed ^ 2);
    ids.zip(ticks)
        .take(count)
        .map(|(c, t)| (c.key().to_vec(), t))
        .collect()
}

#[test]
fn time_tbf_equals_exact_oracle_with_ample_memory() {
    // 64 units of 10 ticks; dense traffic keeps sweep and clock in step.
    let mut tbf =
        TimeTbf::new(TimeTbfConfig::new(64, 10, 1 << 18, 8, 3).expect("cfg")).expect("detector");
    let mut oracle = ExactTimeSlidingDedup::new(64, 10);
    for (i, (key, tick)) in timed_keys(150_000, 0.8, 7).iter().enumerate() {
        let got = tbf.observe_at(key, *tick);
        let want = oracle.observe_at(key, *tick);
        assert_eq!(got, want, "diverged at element {i} (tick {tick})");
    }
}

#[test]
fn time_tbf_oracle_duplicates_always_flagged_under_sparse_traffic() {
    // Sparse traffic (many empty units) exercises the lazy daemon replay.
    let mut tbf =
        TimeTbf::new(TimeTbfConfig::new(32, 5, 1 << 18, 8, 9).expect("cfg")).expect("detector");
    let mut oracle = ExactTimeSlidingDedup::new(32, 5);
    for (i, (key, tick)) in timed_keys(80_000, 0.02, 11).iter().enumerate() {
        let got = tbf.observe_at(key, *tick);
        let want = oracle.observe_at(key, *tick);
        if want == Verdict::Duplicate {
            assert_eq!(got, Verdict::Duplicate, "missed duplicate at {i}");
        }
    }
}

#[test]
fn time_gbf_oracle_duplicates_always_flagged() {
    // 4 sub-windows of 8 units of 10 ticks.
    let mut gbf =
        TimeGbf::new(TimeGbfConfig::new(4, 8, 10, 1 << 17, 8, 5).expect("cfg")).expect("detector");
    let mut oracle = ExactTimeJumpingDedup::new(4, 8, 10);
    for (i, (key, tick)) in timed_keys(120_000, 0.5, 13).iter().enumerate() {
        let got = gbf.observe_at(key, *tick);
        let want = oracle.observe_at(key, *tick);
        if want == Verdict::Duplicate {
            assert_eq!(
                got,
                Verdict::Duplicate,
                "missed duplicate at {i} (tick {tick})"
            );
        }
    }
}

#[test]
fn quiet_gaps_forget_everything_in_both_models() {
    let mut tbf =
        TimeTbf::new(TimeTbfConfig::new(10, 1, 1 << 14, 6, 1).expect("cfg")).expect("detector");
    let mut gbf =
        TimeGbf::new(TimeGbfConfig::new(5, 2, 1, 1 << 14, 6, 1).expect("cfg")).expect("detector");
    let mut tick = 0u64;
    for round in 0..50u64 {
        assert_eq!(
            tbf.observe_at(b"ghost", tick),
            Verdict::Distinct,
            "tbf round {round}"
        );
        assert_eq!(
            gbf.observe_at(b"ghost", tick),
            Verdict::Distinct,
            "gbf round {round}"
        );
        // Immediate repeat is always caught...
        assert_eq!(tbf.observe_at(b"ghost", tick), Verdict::Duplicate);
        assert_eq!(gbf.observe_at(b"ghost", tick), Verdict::Duplicate);
        // ...then a gap far beyond both windows clears the slate.
        tick += 10_000 + round;
    }
}

#[test]
fn dense_and_sparse_phases_interleave_correctly() {
    // Alternating load phases stress the sweep accounting: the detector
    // must neither leak stale state into the next phase nor drop active
    // state within one.
    let mut tbf =
        TimeTbf::new(TimeTbfConfig::new(20, 10, 1 << 16, 8, 21).expect("cfg")).expect("detector");
    let mut oracle = ExactTimeSlidingDedup::new(20, 10);
    let mut tick = 0u64;
    let mut rng_state = 0x1234_5678_u64;
    let mut next = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        rng_state >> 33
    };
    for i in 0..100_000u64 {
        // Phase switch every 5k clicks: dense (1 tick apart) vs sparse
        // (35 ticks apart, i.e. several units between arrivals).
        tick += if (i / 5_000) % 2 == 0 { 1 } else { 35 };
        let key = (next() % 500).to_le_bytes();
        let got = tbf.observe_at(&key, tick);
        let want = oracle.observe_at(&key, tick);
        if want == Verdict::Duplicate {
            assert_eq!(got, Verdict::Duplicate, "missed duplicate at {i}");
        }
    }
}
