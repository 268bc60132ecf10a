//! Differential property tests for the time-based detectors: whatever
//! the tick stream, `TimeTbf` and `TimeGbf` keep the paper's one-sided
//! zero-false-negative guarantee (§3.1 / §4.1), in both probe layouts,
//! and the batch and flat-key paths are pure optimizations of the
//! sequential path.
//!
//! False negatives are counted *self-consistently* (paper Definition 1,
//! same as `tests/blocked_props.rs`): a click is a false negative iff
//! the detector previously determined an identical click valid within
//! the current time window and still answers `Distinct`. An earlier
//! false positive blocks an insertion, so a later `Distinct` on that
//! key is consistent with the detector's own history.
//!
//! The generated streams advance about one time unit per click, so a
//! few thousand clicks cross thousands of unit boundaries — hundreds of
//! wraparounds of the `R + C` stamp range (TimeTbf) and of the
//! `(Q + 1)`-lane rotation cycle (TimeGbf).

use cfd_core::config::ProbeLayout;
use cfd_core::{TimeGbf, TimeGbfConfig, TimeTbf, TimeTbfConfig};
use cfd_windows::{DuplicateDetector, Verdict};
use proptest::prelude::*;
use std::collections::HashMap;

fn time_tbf(window_units: u64, unit_ticks: u64, seed: u64, probe: ProbeLayout) -> TimeTbf {
    let cfg = TimeTbfConfig::new(window_units, unit_ticks, 1 << 13, 6, seed)
        .and_then(|c| c.with_probe(probe))
        .expect("valid time-tbf config");
    TimeTbf::new(cfg).expect("valid time-tbf")
}

fn time_gbf(q: usize, sub_units: u64, unit_ticks: u64, seed: u64, probe: ProbeLayout) -> TimeGbf {
    let cfg = TimeGbfConfig::new(q, sub_units, unit_ticks, 1 << 13, 4, seed)
        .and_then(|c| c.with_probe(probe))
        .expect("valid time-gbf config");
    TimeGbf::new(cfg).expect("valid time-gbf")
}

/// A deterministic monotone tick stream advancing ~1 unit per click on
/// average, paired with cyclic keys so duplicates recur at many gaps.
fn monotone_stream(len: u64, period: u64, unit_ticks: u64, salt: u64) -> Vec<(Vec<u8>, u64)> {
    let mut tick = 0u64;
    (0..len)
        .map(|i| {
            tick += (i.wrapping_mul(salt | 1).wrapping_add(7) >> 3) % (2 * unit_ticks);
            ((i % period).to_le_bytes().to_vec(), tick)
        })
        .collect()
}

/// Like [`monotone_stream`] but with occasional tick regressions, which
/// the detectors clamp to the high-water unit.
fn jittery_stream(len: u64, period: u64, unit_ticks: u64, salt: u64) -> Vec<(Vec<u8>, u64)> {
    let mut clicks = monotone_stream(len, period, unit_ticks, salt);
    for i in (96..clicks.len()).step_by(97) {
        clicks[i].1 = clicks[i].1.saturating_sub(3 * unit_ticks);
    }
    clicks
}

/// A stream whose gaps span the whole expiry schedule: same-unit
/// bursts, one-unit steps, gaps just under and over the window (replayed
/// sweeps vs a whole-table clear) and very long quiet spells, with
/// occasional regressions that the detector clamps.
fn gappy_stream(
    len: u64,
    period: u64,
    unit_ticks: u64,
    window_units: u64,
    salt: u64,
) -> Vec<(Vec<u8>, u64)> {
    let mut tick = 0u64;
    (0..len)
        .map(|i| {
            let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            // Mostly small steps, so long runs of per-unit sweeps (and
            // many stamp-range wraparounds) pass between whole-table
            // clears; gaps at and past the window are rare.
            let units = match h % 256 {
                0..=119 => 0,
                120..=219 => 1,
                220..=245 => 2 + h % window_units.div_ceil(2),
                246..=249 => window_units - 1,
                250 | 251 => window_units,
                252 | 253 => window_units + 1 + h % (3 * window_units),
                254 => 50 * window_units,
                _ => h % window_units,
            };
            tick += units * unit_ticks + h % unit_ticks;
            let t = if h.is_multiple_of(23) {
                tick.saturating_sub(2 * unit_ticks)
            } else {
                tick
            };
            ((i % period).to_le_bytes().to_vec(), t)
        })
        .collect()
}

/// Self-consistent time-sliding false negatives: `valid` maps a key to
/// the unit the detector last validated it in; the entry expires when
/// the current unit is `window_units` or more past it.
fn sliding_false_negatives<D: DuplicateDetector>(
    detector: &mut D,
    window_units: u64,
    unit_ticks: u64,
    clicks: &[(Vec<u8>, u64)],
) -> u64 {
    let mut valid: HashMap<&[u8], u64> = HashMap::new();
    let mut false_negatives = 0u64;
    for (key, tick) in clicks {
        let unit = tick / unit_ticks;
        let dup = detector.observe_at(key, *tick) == Verdict::Duplicate;
        let known = valid
            .get(key.as_slice())
            .is_some_and(|&u| unit - u < window_units);
        if !dup && known {
            false_negatives += 1;
        }
        if !dup && !known {
            valid.insert(key.as_slice(), unit);
        }
    }
    false_negatives
}

/// Self-consistent time-jumping false negatives: a validated key stays
/// known for its own sub-window plus the `q - 1` following ones.
fn jumping_false_negatives<D: DuplicateDetector>(
    detector: &mut D,
    q: u64,
    sub_units: u64,
    unit_ticks: u64,
    clicks: &[(Vec<u8>, u64)],
) -> u64 {
    let mut valid: HashMap<&[u8], u64> = HashMap::new();
    let mut false_negatives = 0u64;
    for (key, tick) in clicks {
        let sub = (tick / unit_ticks) / sub_units;
        let dup = detector.observe_at(key, *tick) == Verdict::Duplicate;
        let known = valid.get(key.as_slice()).is_some_and(|&s| sub - s < q);
        if !dup && known {
            false_negatives += 1;
        }
        if !dup && !known {
            valid.insert(key.as_slice(), sub);
        }
    }
    false_negatives
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// TimeTbf never misses a click it previously validated inside the
    /// time-sliding window — across thousands of unit boundaries and
    /// hundreds of stamp-range wraparounds, in both layouts.
    #[test]
    fn time_tbf_has_zero_false_negatives(
        seed in 0u64..1000,
        period in 3u64..120,
        window_units in 2u64..20,
        unit_ticks in 1u64..16,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let mut d = time_tbf(window_units, unit_ticks, seed, probe);
        let clicks = monotone_stream(4_000, period, unit_ticks, salt);
        prop_assert_eq!(
            sliding_false_negatives(&mut d, window_units, unit_ticks, &clicks),
            0
        );
    }

    /// TimeGbf never misses a click it previously validated inside the
    /// time-jumping window — across many full `(Q + 1)`-lane rotation
    /// cycles, in both layouts.
    #[test]
    fn time_gbf_has_zero_false_negatives(
        seed in 0u64..1000,
        period in 3u64..120,
        q in 2usize..10,
        sub_units in 1u64..8,
        unit_ticks in 1u64..16,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let mut d = time_gbf(q, sub_units, unit_ticks, seed, probe);
        let clicks = monotone_stream(4_000, period, unit_ticks, salt);
        prop_assert_eq!(
            jumping_false_negatives(&mut d, q as u64, sub_units, unit_ticks, &clicks),
            0
        );
    }

    /// The TimeTbf batch path is verdict-identical to per-click
    /// `observe_at` for any chunking, in both layouts — including
    /// streams with tick regressions.
    #[test]
    fn time_tbf_batch_equals_sequential_any_chunking(
        seed in 0u64..1000,
        period in 3u64..400,
        chunk in 1usize..300,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let clicks = jittery_stream(2_500, period, 8, salt);
        let ids: Vec<&[u8]> = clicks.iter().map(|(k, _)| k.as_slice()).collect();
        let ticks: Vec<u64> = clicks.iter().map(|&(_, t)| t).collect();
        let mut sequential = time_tbf(16, 8, seed, probe);
        let mut batched = time_tbf(16, 8, seed, probe);
        let want: Vec<Verdict> = ids
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let mut got = Vec::new();
        for (idc, tc) in ids.chunks(chunk).zip(ticks.chunks(chunk)) {
            got.extend(batched.observe_batch_at(idc, tc));
        }
        prop_assert_eq!(&got, &want);
        // The amortized clock advance must not change a single counter.
        prop_assert_eq!(batched.ops(), sequential.ops());
    }

    /// The stamp-range extension `C` is a cost knob, not a semantic one:
    /// the default (stamp-filling) `C` and `C = R` give identical
    /// verdicts and clock-regression counts on gappy, regressed streams,
    /// in both layouts. The two share the hash family, so any difference
    /// would be an aliased or early-erased stamp.
    #[test]
    fn time_tbf_default_c_matches_c_equal_to_r(
        seed in 0u64..1000,
        period in 3u64..400,
        window_units in 2u64..40,
        unit_ticks in 1u64..16,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let mut filled = time_tbf(window_units, unit_ticks, seed, probe);
        let cfg = TimeTbfConfig { c_units: window_units, ..filled.config() };
        prop_assert!(filled.config().c_units >= window_units);
        prop_assert_eq!(cfg.entry_bits(), filled.config().entry_bits());
        let mut c_eq_r = TimeTbf::new(cfg).expect("C = R is valid");
        let clicks = gappy_stream(3_000, period, unit_ticks, window_units, salt);
        for (i, (key, tick)) in clicks.iter().enumerate() {
            prop_assert_eq!(
                filled.observe_at(key, *tick),
                c_eq_r.observe_at(key, *tick),
                "click {} at tick {}", i, tick
            );
        }
        prop_assert_eq!(filled.ops().clock_regressions, c_eq_r.ops().clock_regressions);
    }

    /// Same for TimeGbf.
    #[test]
    fn time_gbf_batch_equals_sequential_any_chunking(
        seed in 0u64..1000,
        period in 3u64..400,
        chunk in 1usize..300,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let clicks = jittery_stream(2_500, period, 8, salt);
        let ids: Vec<&[u8]> = clicks.iter().map(|(k, _)| k.as_slice()).collect();
        let ticks: Vec<u64> = clicks.iter().map(|&(_, t)| t).collect();
        let mut sequential = time_gbf(6, 4, 8, seed, probe);
        let mut batched = time_gbf(6, 4, 8, seed, probe);
        let want: Vec<Verdict> = ids
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let mut got = Vec::new();
        for (idc, tc) in ids.chunks(chunk).zip(ticks.chunks(chunk)) {
            got.extend(batched.observe_batch_at(idc, tc));
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched.ops(), sequential.ops());
    }

    /// The flat-key multi-lane path equals the slice batch path on
    /// fixed-stride keys, for both detectors and layouts.
    #[test]
    fn flat_keys_equal_slice_batch(
        seed in 0u64..1000,
        period in 3u64..400,
        salt in 0u64..1000,
        blocked in any::<bool>(),
    ) {
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let clicks = jittery_stream(2_000, period, 8, salt);
        let ids: Vec<&[u8]> = clicks.iter().map(|(k, _)| k.as_slice()).collect();
        let ticks: Vec<u64> = clicks.iter().map(|&(_, t)| t).collect();
        let flat: Vec<u8> = clicks.iter().flat_map(|(k, _)| k.clone()).collect();

        let mut sliced = time_tbf(16, 8, seed, probe);
        let mut flattened = time_tbf(16, 8, seed, probe);
        let want = sliced.observe_batch_at(&ids, &ticks);
        let mut got = Vec::new();
        flattened.observe_flat_at_into(&flat, 8, &ticks, &mut got);
        prop_assert_eq!(&got, &want);

        let mut sliced = time_gbf(6, 4, 8, seed, probe);
        let mut flattened = time_gbf(6, 4, 8, seed, probe);
        let want = sliced.observe_batch_at(&ids, &ticks);
        flattened.observe_flat_at_into(&flat, 8, &ticks, &mut got);
        prop_assert_eq!(&got, &want);
    }
}

/// A checkpoint carries its own `C`: one written with `c_units = R`
/// restores with `C = R` (not today's default) and resumes exactly.
#[test]
fn checkpoint_with_c_equal_to_r_restores_its_own_c() {
    let base = TimeTbfConfig::new(32, 5, 1 << 12, 6, 3).expect("valid config");
    let cfg = TimeTbfConfig {
        c_units: 32,
        ..base
    };
    assert_ne!(base.c_units, cfg.c_units);
    let mut original = TimeTbf::new(cfg).expect("C = R is valid");
    let clicks = gappy_stream(4_000, 300, 5, 32, 7);
    let (head, tail) = clicks.split_at(1_500);
    for (key, tick) in head {
        original.observe_at(key, *tick);
    }
    let mut restored = TimeTbf::restore(&original.checkpoint()).expect("restores");
    assert_eq!(restored.config(), cfg);
    assert_eq!(restored.config().clean_chunk(), (1 << 12) / 32);
    for (key, tick) in tail {
        assert_eq!(
            restored.observe_at(key, *tick),
            original.observe_at(key, *tick)
        );
    }
    assert_eq!(restored.checkpoint(), original.checkpoint());
}
