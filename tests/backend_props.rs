//! Backend-agnostic differential property harness.
//!
//! Earlier PRs grew one property file per detector; this harness runs
//! the whole matrix from a single parameterized loop over
//! [`cfd_core::registry::backends`], so a backend registered there is
//! automatically held to the full contract:
//!
//! 1. **Zero false negatives** under its own window model (sliding or
//!    jumping, chosen from `window()`), in the self-consistent
//!    Definition-1 sense of `tests/common`.
//! 2. **Batch ≡ sequential**: the ref-slice and flat-key batch paths,
//!    under arbitrary chunking, are verdict-for-verdict identical to
//!    per-click observation.
//! 3. **Layout differential**: the blocked layout is a probe-placement
//!    change, not a semantic one — verdicts may differ from scattered
//!    only through one-sided false positives, so both layouts stay
//!    zero-FN (property 1 covers each) and their verdict streams agree
//!    on all but a small FP-explainable fraction.
//! 4. **Checkpoint round-trip**: `checkpoint_bytes` →
//!    [`cfd_core::registry::restore_any`] (and the entry's own
//!    `restore`) resumes a detector that continues verdict-for-verdict
//!    identically to the original.
//! 5. **SIMD ≡ scalar**: the AVX2 probe/clean kernels are a dispatch
//!    decision, not a semantic one — the same stream judged with the
//!    wide kernels forced off and on is verdict-for-verdict identical
//!    for every backend in both layouts.
//!
//! Every click carries a tick and is judged through the `_at` methods,
//! which count windows ignore. Time-window backends (`time-tbf`,
//! `time-gbf`) replay two tick streams — one click per tick, and
//! irregular gaps with a few regressed ticks — and are held to the
//! exact time oracle their `window()` names. A sixth property checks
//! that `Box<dyn DetectorBackend>` and `ShardedDetector` forward the
//! ticks.

mod common;

use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendEntry, BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::{ArenaConfig, CheckpointState, ShardedDetector, TenantArena, TimeGbf, TimeTbf};
use cfd_stream::{
    BotnetConfig, BotnetStream, DuplicateInjector, TenantTraffic, TenantTrafficConfig,
    UniqueClickStream, TENANT_KEY_LEN,
};
use cfd_windows::{
    DuplicateDetector, ExactTimeJumpingDedup, ExactTimeSlidingDedup, Verdict, WindowSpec,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Window length shared by every property: small enough that a few
/// thousand keys cross many window turnovers.
const N: usize = 512;

/// Both probe layouts, the inner axis of every loop.
const LAYOUTS: [ProbeLayout; 2] = [ProbeLayout::Scattered, ProbeLayout::Blocked];

/// The shared equal-budget geometry. 64 bits per window element funds
/// every registered backend's minimum shape (and leaves FPs frequent —
/// the stress the zero-FN property wants); the layout differential
/// instead passes a budget where FPs are rare, so disagreement stays a
/// sliver.
///
/// The time window is 32 units (`time-tbf`) or 4 sub-windows of 8 units
/// (`time-gbf`) of 4 ticks: a one-click-per-tick stream keeps ~128
/// clicks in it, inside the tables' `N`-click capacity.
fn geometry(seed: u64, layout: ProbeLayout, bits_per_element: usize) -> BackendGeometry {
    BackendGeometry::new(N, MemorySpec::TotalBits(N * bits_per_element))
        .with_sub_windows(4)
        .with_hash_count(4)
        .with_seed(seed)
        .with_probe(layout)
        .with_time(32, 8, 4)
}

/// The tick streams `entry` replays. A count window ignores ticks, so
/// it gets one click per tick only; a time window also gets irregular
/// gaps — mostly under three units, one in 64 longer than the whole
/// window — with every 97th click's tick regressed by three units (the
/// detectors clamp it to their high-water unit).
fn tick_streams(entry: &BackendEntry, seed: u64, count: usize) -> Vec<Vec<u64>> {
    let dense = (0..count as u64).collect();
    if !entry.time_based {
        return vec![dense];
    }
    let (mut x, mut tick) = (seed | 1, 0u64);
    let sparse = (0..count).map(|i| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        tick += if (x >> 33) % 64 == 0 {
            400
        } else {
            (x >> 33) % 9
        };
        if i % 97 == 96 {
            tick.saturating_sub(12)
        } else {
            tick
        }
    });
    vec![dense, sparse.collect()]
}

/// Duplicate-heavy keys: 40% re-clicks within a short gap, so every
/// window sees genuine duplicates.
fn injected_keys(seed: u64, count: usize) -> Vec<Vec<u8>> {
    DuplicateInjector::new(UniqueClickStream::new(seed, 4, 32), 0.4, 300, seed ^ 5)
        .take(count)
        .map(|c| c.key().to_vec())
        .collect()
}

/// Botnet keys: few identities, extreme repetition.
fn botnet_keys(seed: u64, count: usize) -> Vec<Vec<u8>> {
    BotnetStream::new(
        BotnetConfig {
            bots: 48,
            attack_fraction: 0.5,
            seed,
            ..BotnetConfig::default()
        },
        4,
        16,
    )
    .take(count)
    .map(|c| c.click.key().to_vec())
    .collect()
}

/// Fixed-stride 8-byte keys with forced repeats (`space` distinct ids),
/// packed flat for the `observe_flat_into` parity check.
fn flat_keys(seed: u64, count: usize, space: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(count * 8);
    for _ in 0..count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&((x >> 16) % space).to_le_bytes());
    }
    out
}

/// Shared tenant geometry for the arena properties: a 32-element
/// window per tenant at the same 299-entry/6-bit region shape the
/// bench budgets, deliberately under-provisioned at 8 initial slots so
/// a 64-tenant stream forces the slab through several growth doublings
/// mid-property.
fn arena_config(seed: u64, layout: ProbeLayout) -> ArenaConfig {
    ArenaConfig::new(32, 299, 4, seed)
        .with_initial_slots(8)
        .with_probe(layout)
}

/// Both layouts that the shared tenant geometry supports (blocked is
/// skipped if no cache-line block shape exists for the entry shape).
fn arena_layouts(seed: u64) -> Vec<ArenaConfig> {
    LAYOUTS
        .iter()
        .map(|&layout| arena_config(seed, layout))
        .filter(|cfg| cfg.probe == ProbeLayout::Scattered || cfg.block_geometry().is_some())
        .collect()
}

/// A Zipf-skewed multi-tenant key stream: 64 tenants, bursty runs,
/// 20% injected adjacent duplicates.
fn tenant_keys(seed: u64, count: usize) -> Vec<[u8; TENANT_KEY_LEN]> {
    TenantTraffic::new(TenantTrafficConfig {
        tenants: 64,
        skew: 1.0,
        duplicate_rate: 0.2,
        run_len: 3,
        seed,
    })
    .take(count)
    .collect()
}

/// The tenant prefix (first eight key bytes) as a sort key.
fn tenant_of(key: &[u8; TENANT_KEY_LEN]) -> u64 {
    u64::from_le_bytes(key[..8].try_into().unwrap())
}

/// Runs the self-consistent false-negative oracle matching the
/// detector's own window model (paper Definition 1: a click is a false
/// negative iff the detector itself validated an identical click within
/// the window and still answers `Distinct`).
///
/// Time windows use the exact time oracle, fed only the clicks the
/// detector validated — an earlier false positive blocks an insertion,
/// so it cannot count against the detector — each at the clock the
/// detector judged it at: the running maximum tick, since the detectors
/// clamp a regressed tick to their high-water unit.
fn false_negatives(
    d: &mut Box<dyn DetectorBackend>,
    geo: &BackendGeometry,
    keys: &[Vec<u8>],
    ticks: &[u64],
) -> u64 {
    let mut oracle: Box<dyn DuplicateDetector> = match d.window() {
        WindowSpec::Sliding { n } | WindowSpec::Landmark { n } => {
            return common::sliding_false_negatives(d, n, keys.iter().cloned())
        }
        WindowSpec::Jumping { n, q } => {
            return common::jumping_false_negatives(d, n, q, keys.iter().cloned())
        }
        WindowSpec::TimeSliding { ticks } => {
            assert_eq!(ticks, geo.window_units * geo.unit_ticks);
            Box::new(ExactTimeSlidingDedup::new(geo.window_units, geo.unit_ticks))
        }
        WindowSpec::TimeJumping { ticks, q } => {
            assert_eq!(ticks, q as u64 * geo.sub_units * geo.unit_ticks);
            Box::new(ExactTimeJumpingDedup::new(q, geo.sub_units, geo.unit_ticks))
        }
    };
    let mut now = 0;
    let mut false_negatives = 0;
    for (key, &tick) in keys.iter().zip(ticks) {
        now = tick.max(now);
        if d.observe_at(key, tick) == Verdict::Distinct
            && oracle.observe_at(key, now) == Verdict::Duplicate
        {
            false_negatives += 1;
        }
    }
    false_negatives
}

/// The dispatch override of the SIMD properties is process-global
/// state: they hold this lock so concurrent properties never race it.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Judges `ids` in `chunk`-sized batches twice — wide kernels forced
/// off, then allowed — and returns both verdict streams. The default
/// dispatch is restored even when `judge` panics.
fn scalar_and_wide(
    chunk: usize,
    ids: &[&[u8]],
    mut judge: impl FnMut(bool, &[&[u8]], usize) -> Vec<Verdict>,
) -> (Vec<Verdict>, Vec<Verdict>) {
    let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut run = |scalar: bool| {
            cfd_core::simd::set_scalar_override(Some(scalar));
            let mut verdicts = Vec::with_capacity(ids.len());
            for (i, group) in ids.chunks(chunk).enumerate() {
                verdicts.extend(judge(scalar, group, i * chunk));
            }
            verdicts
        };
        (run(true), run(false))
    }));
    cfd_core::simd::set_scalar_override(None);
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Judges `flat` at `ticks` through the boxed and sharded-boxed forms of
/// `entry` (via `observe_flat_at_into`, in `chunk`-sized batches) and
/// through their concrete twins — rebuilt from the boxes' checkpoints,
/// so both share one configuration — via per-click `observe_at`,
/// returning `(boxed, concrete, sharded boxed, sharded concrete)`
/// verdicts.
fn wrapped_and_concrete<C: DuplicateDetector + CheckpointState>(
    entry: &BackendEntry,
    geo: &BackendGeometry,
    flat: &[u8],
    ticks: &[u64],
    chunk: usize,
) -> [Vec<Verdict>; 4] {
    let mut boxed = entry.build(geo).expect("build");
    let mut sharded = registry::build_sharded(entry.name, geo, 3).expect("build sharded");
    let mut single = C::restore(&boxed.checkpoint_bytes()).expect("concrete restore");
    let mut shards = ShardedDetector::<C>::restore(&CheckpointState::checkpoint(&sharded))
        .expect("concrete sharded restore");
    let mut out = Vec::new();
    let mut via_box = Vec::new();
    let mut via_sharded_box = Vec::new();
    for (kc, tc) in flat.chunks(chunk * 8).zip(ticks.chunks(chunk)) {
        boxed.observe_flat_at_into(kc, 8, tc, &mut out);
        via_box.extend_from_slice(&out);
        sharded.observe_flat_at_into(kc, 8, tc, &mut out);
        via_sharded_box.extend_from_slice(&out);
    }
    let keys = flat.chunks_exact(8).zip(ticks);
    let concrete = keys
        .clone()
        .map(|(k, &t)| single.observe_at(k, t))
        .collect();
    let sharded_concrete = keys.map(|(k, &t)| shards.observe_at(k, t)).collect();
    [via_box, concrete, via_sharded_box, sharded_concrete]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: every backend, in both layouts, never contradicts
    /// its own prior "valid" verdicts within its window model.
    #[test]
    fn every_backend_zero_false_negatives(seed in 0u64..1_000) {
        let mut keys = injected_keys(seed, 3_000);
        keys.extend(botnet_keys(seed, 3_000));
        for entry in registry::backends() {
            for layout in LAYOUTS {
                for ticks in tick_streams(entry, seed, keys.len()) {
                    let geo = geometry(seed, layout, 64);
                    let mut d = entry
                        .build(&geo)
                        .expect("registered backend builds at the shared budget");
                    let fns = false_negatives(&mut d, &geo, &keys, &ticks);
                    prop_assert_eq!(
                        fns, 0,
                        "{} ({layout:?}): {} false negatives", entry.name, fns
                    );
                }
            }
        }
    }

    /// Property 2: batching — ref-slice chunks of arbitrary size and
    /// the flat fixed-stride path — is a pure throughput knob.
    #[test]
    fn every_backend_batch_matches_observe(
        seed in 0u64..1_000,
        chunk in 1usize..300,
    ) {
        let flat = flat_keys(seed, 4_000, 700);
        let keys: Vec<&[u8]> = flat.chunks_exact(8).collect();
        for entry in registry::backends() {
            for layout in LAYOUTS {
                for ticks in tick_streams(entry, seed, keys.len()) {
                    let geo = geometry(seed, layout, 64);
                    let mut seq = entry.build(&geo).expect("build");
                    let mut by_refs = entry.build(&geo).expect("build");
                    let mut by_flat = entry.build(&geo).expect("build");
                    let sequential: Vec<_> =
                        keys.iter().zip(&ticks).map(|(k, &t)| seq.observe_at(k, t)).collect();

                    let (mut via_refs, mut via_flat) = (Vec::new(), Vec::new());
                    let mut out = Vec::new();
                    for (kc, tc) in keys.chunks(chunk).zip(ticks.chunks(chunk)) {
                        by_refs.observe_batch_at_into(kc, tc, &mut out);
                        via_refs.extend_from_slice(&out);
                    }
                    for (kc, tc) in flat.chunks(chunk * 8).zip(ticks.chunks(chunk)) {
                        by_flat.observe_flat_at_into(kc, 8, tc, &mut out);
                        via_flat.extend_from_slice(&out);
                    }
                    prop_assert_eq!(
                        &sequential, &via_refs,
                        "{} ({layout:?}): batch of refs diverged", entry.name
                    );
                    prop_assert_eq!(
                        &sequential, &via_flat,
                        "{} ({layout:?}): flat batch diverged", entry.name
                    );
                }
            }
        }
    }

    /// Property 3: blocked vs scattered is FP-placement only. At 512
    /// bits per element the FP rate is small, so the two verdict streams
    /// must agree on all but a sliver of the stream (each layout's
    /// zero-FN guarantee is property 1; a disagreement is therefore
    /// always some side's one-sided false positive).
    #[test]
    fn every_backend_layouts_agree_modulo_false_positives(seed in 0u64..1_000) {
        let keys = injected_keys(seed, 4_000);
        for entry in registry::backends() {
            let mut scattered = entry
                .build(&geometry(seed, ProbeLayout::Scattered, 512))
                .expect("build");
            let mut blocked = entry
                .build(&geometry(seed, ProbeLayout::Blocked, 512))
                .expect("build");
            let disagreements = keys
                .iter()
                .zip(0u64..)
                .filter(|&(k, t)| scattered.observe_at(k, t) != blocked.observe_at(k, t))
                .count();
            prop_assert!(
                disagreements <= keys.len() / 20,
                "{}: layouts disagree on {disagreements}/{} verdicts",
                entry.name,
                keys.len()
            );
        }
    }

    /// Property 5: forcing the scalar kernels changes nothing but
    /// speed. Two fresh detectors judge the same duplicate-heavy stream
    /// (batched, so the grouped speculative replay actually engages),
    /// one with the wide kernels forced off and one with them allowed,
    /// and the verdict streams must be identical. On machines without
    /// AVX2 both runs dispatch scalar and the property is trivially
    /// true.
    #[test]
    fn every_backend_simd_matches_scalar(seed in 0u64..1_000, chunk in 1usize..300) {
        let mut keys = injected_keys(seed, 3_000);
        keys.extend(botnet_keys(seed, 2_000));
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for entry in registry::backends() {
            for layout in LAYOUTS {
                for ticks in tick_streams(entry, seed, keys.len()) {
                    let geo = geometry(seed, layout, 64);
                    let mut detectors =
                        [entry.build(&geo).expect("build"), entry.build(&geo).expect("build")];
                    let (scalar, wide) = scalar_and_wide(chunk, &refs, |forced, group, at| {
                        let mut out = Vec::new();
                        detectors[usize::from(forced)]
                            .observe_batch_at_into(group, &ticks[at..at + group.len()], &mut out);
                        out
                    });
                    prop_assert_eq!(
                        scalar, wide,
                        "{} ({layout:?}): wide kernels changed a verdict", entry.name
                    );
                }
            }
        }
    }

    /// Property 4: a checkpoint taken mid-stream restores — through the
    /// backend-agnostic `restore_any` and the entry's own `restore` —
    /// into a detector that continues identically (a time window with
    /// its clock).
    #[test]
    fn every_backend_checkpoint_roundtrips_midstream(seed in 0u64..1_000) {
        let keys = injected_keys(seed, 3_000);
        let half = keys.len() / 2;
        for entry in registry::backends() {
            for layout in LAYOUTS {
                for ticks in tick_streams(entry, seed, keys.len()) {
                    let mut original = entry.build(&geometry(seed, layout, 64)).expect("build");
                    for (k, &t) in keys[..half].iter().zip(&ticks) {
                        original.observe_at(k, t);
                    }
                    let buf = original.checkpoint_bytes();
                    let mut restored = registry::restore_any(&buf)
                        .expect("checkpoint restores through the registry");
                    let mut via_entry = entry.restore(&buf).expect("entry restore");
                    prop_assert_eq!(restored.window(), original.window());
                    prop_assert_eq!(restored.memory_bits(), original.memory_bits());
                    for (k, &t) in keys[half..].iter().zip(&ticks[half..]) {
                        let want = original.observe_at(k, t);
                        prop_assert_eq!(
                            restored.observe_at(k, t), want,
                            "{} ({layout:?}): restore_any diverged", entry.name
                        );
                        prop_assert_eq!(
                            via_entry.observe_at(k, t), want,
                            "{} ({layout:?}): entry restore diverged", entry.name
                        );
                    }
                }
            }
        }
    }

    /// Property 6: the wrappers forward the ticks. A time backend
    /// behind `Box<dyn DetectorBackend>`, and behind
    /// `ShardedDetector<Box<dyn DetectorBackend>>`, judges through
    /// `observe_flat_at_into` exactly as its concrete type does through
    /// per-click `observe_at` — a wrapper falling back to the tick-less
    /// default would judge at a frozen clock and diverge.
    #[test]
    fn time_backends_keep_their_clock_behind_wrappers(
        seed in 0u64..1_000,
        chunk in 1usize..300,
    ) {
        let flat = flat_keys(seed, 4_000, 700);
        for entry in registry::backends().iter().filter(|e| e.time_based) {
            for layout in LAYOUTS {
                for ticks in tick_streams(entry, seed, flat.len() / 8) {
                    let geo = geometry(seed, layout, 64);
                    let run = match entry.name {
                        "time-tbf" => wrapped_and_concrete::<TimeTbf>,
                        "time-gbf" => wrapped_and_concrete::<TimeGbf>,
                        other => panic!("name the concrete type of time backend `{other}` here"),
                    };
                    let [boxed, concrete, sharded, sharded_concrete] =
                        run(entry, &geo, &flat, &ticks, chunk);
                    prop_assert_eq!(
                        boxed, concrete,
                        "{} ({layout:?}): the box lost the clock", entry.name
                    );
                    prop_assert_eq!(
                        sharded, sharded_concrete,
                        "{} ({layout:?}): the sharded box lost the clock", entry.name
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tenant property 1: **isolation is exact**, not statistical. A
    /// tenant is a disjoint stride of the shared slab, so the verdicts a
    /// tenant receives inside a 64-tenant interleaved stream must be
    /// byte-for-byte the verdicts a fresh arena produces when fed that
    /// tenant's subsequence alone — other tenants' traffic contributes
    /// nothing, not even false positives.
    #[test]
    fn arena_tenants_are_exactly_isolated(seed in 0u64..1_000) {
        let keys = tenant_keys(seed, 4_000);
        for cfg in arena_layouts(seed) {
            let mut shared = TenantArena::new(cfg).expect("arena builds");
            let mixed: Vec<_> = keys.iter().map(|k| (tenant_of(k), shared.observe(k))).collect();
            prop_assert!(shared.live_tenants() > 8, "stream materializes past the initial slots");
            for tenant in 0..64u64 {
                let mut solo = TenantArena::new(cfg).expect("arena builds");
                let alone: Vec<_> = keys
                    .iter()
                    .filter(|k| tenant_of(k) == tenant)
                    .map(|k| solo.observe(k))
                    .collect();
                let in_mix: Vec<_> = mixed
                    .iter()
                    .filter(|(t, _)| *t == tenant)
                    .map(|(_, v)| *v)
                    .collect();
                prop_assert_eq!(
                    alone, in_mix,
                    "tenant {} verdicts changed under interleaving ({:?})", tenant, cfg.probe
                );
            }
        }
    }

    /// Tenant property 2: the arena's grouped batch replay (ref-slice
    /// and flat-key, arbitrary chunking, run-grouped prefetch engaged)
    /// is verdict-for-verdict the per-click sequential stream.
    #[test]
    fn arena_batch_matches_per_tenant_sequential(
        seed in 0u64..1_000,
        chunk in 1usize..300,
    ) {
        let keys = tenant_keys(seed, 4_000);
        let flat: Vec<u8> = keys.iter().flatten().copied().collect();
        for cfg in arena_layouts(seed) {
            let mut seq = TenantArena::new(cfg).expect("arena builds");
            let mut by_refs = TenantArena::new(cfg).expect("arena builds");
            let mut by_flat = TenantArena::new(cfg).expect("arena builds");

            let sequential: Vec<_> = keys.iter().map(|k| seq.observe(k)).collect();

            let mut via_refs = Vec::with_capacity(keys.len());
            for group in keys.chunks(chunk) {
                let refs: Vec<&[u8]> = group.iter().map(<[u8; TENANT_KEY_LEN]>::as_slice).collect();
                via_refs.extend(by_refs.observe_batch(&refs));
            }
            prop_assert_eq!(
                &sequential, &via_refs,
                "observe_batch diverged ({:?})", cfg.probe
            );

            let mut via_flat = Vec::with_capacity(keys.len());
            let mut out = Vec::new();
            for group in flat.chunks(chunk * TENANT_KEY_LEN) {
                by_flat.observe_flat_into(group, TENANT_KEY_LEN, &mut out);
                via_flat.extend_from_slice(&out);
            }
            prop_assert_eq!(
                &sequential, &via_flat,
                "observe_flat_into diverged ({:?})", cfg.probe
            );
        }
    }

    /// Tenant property 3: a checkpoint taken with a grown, multi-tenant
    /// slab restores through the backend-agnostic `restore_any` into an
    /// arena that continues verdict-for-verdict identically — tenant
    /// routing map, per-tenant clocks, and free-slot stack included.
    #[test]
    fn arena_checkpoint_roundtrips_multi_tenant_state(seed in 0u64..1_000) {
        let keys = tenant_keys(seed, 4_000);
        let (prefix, suffix) = keys.split_at(keys.len() / 2);
        for cfg in arena_layouts(seed) {
            let mut original = TenantArena::new(cfg).expect("arena builds");
            for k in prefix {
                original.observe(k);
            }
            prop_assert!(original.live_tenants() > 8, "checkpoint covers a grown slab");
            let buf = original.checkpoint();
            let mut restored = registry::restore_any(&buf)
                .expect("arena checkpoint restores through the registry");
            prop_assert_eq!(restored.window(), original.window());
            prop_assert_eq!(restored.memory_bits(), original.memory_bits());
            for k in suffix {
                prop_assert_eq!(
                    restored.observe(k), original.observe(k),
                    "restored arena diverged ({:?})", cfg.probe
                );
            }
        }
    }
}
