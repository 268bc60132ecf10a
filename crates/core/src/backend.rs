//! The backend-agnostic hot-path layer shared by every window-filter
//! backend.
//!
//! PRs 1–5 grew the same machinery — flat-buffer batch replay with
//! lookahead prefetch, blocked/scattered probe expansion, recycled
//! buffers, and (for timed detectors) the per-run clock cache — once per
//! detector. This module extracts it behind two small traits so a new
//! backend implements only its *probe semantics* and inherits the whole
//! batch/prefetch schedule:
//!
//! * [`ProbeCore`] — how one element's probe indices are derived and
//!   prefetched under the configured [`crate::ProbeLayout`].
//! * [`CountCore`] / [`TimedCore`] — the innermost stateful step
//!   (sweep + probe + insert) for count- and time-based windows.
//!
//! The free functions below are the former per-detector methods
//! (`expand_plans`, `replay_into`, `apply_batch_into`, `observe_*_into`,
//! `replay_at_into`) verbatim, parameterized over the core. Buffers live
//! in a [`BatchBufs`] the detector owns and `mem::take`s around each
//! call, so the hot path stays allocation-free after warm-up.

use cfd_hash::{BlockGeometry, Planner, ProbePlan};
use cfd_windows::Verdict;

/// Elements of lookahead in the batch replay loop: while element `i` is
/// applied, element `i + PREFETCH_AHEAD`'s cache lines are being pulled.
pub(crate) const PREFETCH_AHEAD: usize = 8;

/// Recycled scratch buffers for the plan → probe → verdict pipeline.
///
/// `take`/restore around the shared free functions keeps the borrow of
/// the detector (`&mut C`) disjoint from the buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchBufs {
    /// Single-element probe scratch (`probe_width` slots).
    pub probe: Vec<usize>,
    /// Batch probe buffer: a `PREFETCH_AHEAD`-deep ring for the count
    /// replay, a whole-batch flat expansion for the timed replay.
    pub flat: Vec<usize>,
    /// Recycled plan buffer for the id-hashing frontends.
    pub plans: Vec<ProbePlan>,
}

/// Probe-index derivation and prefetch for one backend: the geometry
/// half of the hot path.
pub(crate) trait ProbeCore {
    /// Number of addressable slots (`m`); the range of scattered probes.
    fn table_len(&self) -> usize;

    /// Probe indices issued per element (`k_eff` for Bloom-style
    /// backends; structural widths like slices-per-element for others).
    fn probe_width(&self) -> usize;

    /// The cache-line block geometry, when the standard blocked layout
    /// is in use. Backends with a custom blocked derivation return
    /// `None` and override [`ProbeCore::fill_probes`] /
    /// [`ProbeCore::probes_share_line`] instead.
    fn block_geo(&self) -> Option<&BlockGeometry>;

    /// Expands a plan into `out.len()` probe indices under the
    /// configured layout.
    #[inline]
    fn fill_probes(&self, plan: ProbePlan, out: &mut [usize]) {
        match self.block_geo() {
            Some(g) => plan.fill_blocked(g, out),
            None => plan.fill(self.table_len(), out),
        }
    }

    /// Hints the CPU to pull slot `idx`'s cache line early.
    fn prefetch(&self, idx: usize);

    /// `true` when all of an element's probes land on one cache line,
    /// so prefetching the first suffices.
    #[inline]
    fn probes_share_line(&self) -> bool {
        self.block_geo().is_some()
    }

    /// Number of consecutive elements the backend classifies together
    /// in its wide (SIMD) probe path; 1 means element-at-a-time.
    ///
    /// Backends that override this must make
    /// [`CountCore::apply_probes_grouped`] bit-identical to the
    /// sequential loop — the replay only changes how many rows are
    /// handed over per call, never their order.
    ///
    /// No in-tree backend overrides it today: the gather-based grouped
    /// probe was built for TBF/GBF and measured ~20× *slower* than the
    /// early-exit scalar probe on blocked layouts (the probe reads ~2–3
    /// of its words on a distinct-heavy stream; a gather always pays for
    /// all of them — see docs/PERFORMANCE.md, "SIMD probe path"). The
    /// hook stays for cores whose per-element work is unconditional.
    #[inline]
    fn wide_group(&self) -> usize {
        1
    }
}

/// The stateful half of a count-window backend: one observation given
/// its expanded probes.
pub(crate) trait CountCore: ProbeCore {
    /// Sweep, probe, insert-if-distinct, advance the window clock. The
    /// plan is passed alongside its expanded probes for backends that
    /// derive extra per-element material from the hash pair
    /// (fingerprints, side-table probes); Bloom-style backends ignore it.
    fn apply_probes(&mut self, plan: ProbePlan, probes: &[usize]) -> Verdict;

    /// Applies a group of consecutive plans whose probe rows are
    /// already expanded (`probe_width` indices per plan, concatenated
    /// in `rows`), pushing one verdict per plan in order.
    ///
    /// The default is the sequential loop; backends with a wide probe
    /// path (see [`ProbeCore::wide_group`]) override this to classify
    /// several elements per hardware iteration. Any override must stay
    /// bit-identical to this default — verdicts *and* op counters.
    #[inline]
    fn apply_probes_grouped(
        &mut self,
        plans: &[ProbePlan],
        rows: &[usize],
        out: &mut Vec<Verdict>,
    ) {
        let w = self.probe_width();
        debug_assert_eq!(rows.len(), plans.len() * w);
        for (plan, row) in plans.iter().zip(rows.chunks_exact(w)) {
            out.push(self.apply_probes(*plan, row));
        }
    }
}

/// The stateful half of a time-window backend. Split so the batch
/// replay can cache clock work across same-unit runs exactly like the
/// hand-written per-detector loops did.
pub(crate) trait TimedCore: ProbeCore {
    /// Maps a tick to its absolute time unit.
    fn unit_of(&self, tick: u64) -> u64;

    /// The high-water unit (`None` before the first observation).
    fn high_water(&self) -> Option<u64>;

    /// Advances the clock to `unit` (replaying skipped units' sweeps),
    /// clamping regressions; returns the effective unit.
    fn advance_to(&mut self, unit: u64) -> u64;

    /// The wraparound stamp written for observations in `unit` (backends
    /// without per-entry stamps return any constant).
    fn stamp_of(&self, unit: u64) -> u64;

    /// Counts one clock regression (a clamped element inside a cached
    /// same-unit run, where [`TimedCore::advance_to`] is not consulted).
    fn note_regression(&mut self);

    /// Probe + insert at the already-advanced clock position.
    fn apply_probes_at(&mut self, plan: ProbePlan, probes: &[usize], stamp_now: u64) -> Verdict;
}

/// Expands every plan's probe indices into the recycled flat buffer
/// (`probe_width` indices per element).
pub(crate) fn expand_plans<C: ProbeCore + ?Sized>(
    core: &C,
    plans: &[ProbePlan],
    flat: &mut Vec<usize>,
) {
    let w = core.probe_width();
    flat.clear();
    flat.resize(plans.len() * w, 0);
    for (plan, slot) in plans.iter().zip(flat.chunks_exact_mut(w)) {
        core.fill_probes(*plan, slot);
    }
}

/// Applies one plan through the single-element scratch buffer.
pub(crate) fn apply_plan<C: CountCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    plan: ProbePlan,
) -> Verdict {
    let w = core.probe_width();
    bufs.probe.resize(w, 0);
    core.fill_probes(plan, &mut bufs.probe);
    core.apply_probes(plan, &bufs.probe)
}

/// Fused expand + replay with lookahead prefetch: element
/// `i + PREFETCH_AHEAD`'s probes are expanded (and their cache lines
/// prefetched) while element `i` is applied, through a
/// `PREFETCH_AHEAD`-deep ring of probe rows.
///
/// The ring replaces the former whole-batch flat buffer: at a wide
/// `probe_width` (APBF expands one row per physical slice — 65 at the
/// shootout budget) a 1024-element batch expanded to ~0.5 MB, so the
/// replay loop fought its own scratch for L2 and ran *slower* than the
/// sequential path. The ring keeps the in-flight scratch at
/// `PREFETCH_AHEAD × probe_width` slots — L1-resident at any width —
/// while preserving the exact prefetch distance of the old schedule.
pub(crate) fn replay_into<C: CountCore + ?Sized>(
    core: &mut C,
    plans: &[ProbePlan],
    ring: &mut Vec<usize>,
    out: &mut Vec<Verdict>,
) {
    let w = core.probe_width();
    let one_line = core.probes_share_line();
    out.clear();
    if plans.is_empty() {
        return;
    }
    // Lookahead scales inversely with the lines prefetched per element:
    // 16 elements deep for one-line (blocked) cores, shallower as the
    // per-element line count grows, so the lines in flight stay within
    // what the core can track instead of evicting each other before
    // use. (Deeper one-line rings were measured slower: at 32 the
    // blocked APBF batch path lost ~10%.)
    let lines_per_element = if one_line { 1 } else { w };
    let group = core.wide_group().max(1);
    let mut depth = (4 * PREFETCH_AHEAD)
        .div_ceil(lines_per_element)
        .min(2 * PREFETCH_AHEAD)
        .min(plans.len());
    if group > 1 {
        // Wide cores consume whole groups of consecutive rows per
        // call; rounding the ring depth up to a group multiple keeps
        // every group contiguous in the ring (no mid-group wrap).
        depth = depth.div_ceil(group) * group;
    }
    ring.clear();
    ring.resize(depth * w, 0);
    // Prime the ring: expand + prefetch the first `depth` elements.
    for (row, plan) in ring.chunks_exact_mut(w).zip(plans) {
        core.fill_probes(*plan, row);
        if one_line {
            core.prefetch(row[0]);
        } else {
            for &j in row.iter() {
                core.prefetch(j);
            }
        }
    }
    let mut i = 0;
    while i < plans.len() {
        let g = group.min(plans.len() - i);
        let at = (i % depth) * w;
        core.apply_probes_grouped(&plans[i..i + g], &ring[at..at + g * w], out);
        // Recycle the rows just applied for elements `i + depth` on.
        for j in i..i + g {
            if let Some(plan) = plans.get(j + depth) {
                let row_at = (j % depth) * w;
                let row = &mut ring[row_at..row_at + w];
                core.fill_probes(*plan, row);
                if one_line {
                    core.prefetch(row[0]);
                } else {
                    for &p in row.iter() {
                        core.prefetch(p);
                    }
                }
            }
        }
        i += g;
    }
}

/// Expand + replay: the batch half shared by `apply_batch_into` and the
/// id-hashing frontends. Verdicts go into `out` (cleared first,
/// capacity reused).
pub(crate) fn apply_batch_into<C: CountCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    plans: &[ProbePlan],
    out: &mut Vec<Verdict>,
) {
    replay_into(core, plans, &mut bufs.flat, out);
}

/// Hashes a batch of ids (pure, multi-lane over equal-length runs) and
/// replays the plans with lookahead prefetch.
pub(crate) fn observe_refs_into<C: CountCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    planner: Planner,
    ids: &[&[u8]],
    out: &mut Vec<Verdict>,
) {
    let mut plans = std::mem::take(&mut bufs.plans);
    planner.plan_refs_into(ids, &mut plans);
    apply_batch_into(core, bufs, &plans, out);
    bufs.plans = plans;
}

/// [`observe_refs_into`] over a flat fixed-stride key buffer.
pub(crate) fn observe_flat_into<C: CountCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    planner: Planner,
    keys: &[u8],
    key_len: usize,
    out: &mut Vec<Verdict>,
) {
    let mut plans = std::mem::take(&mut bufs.plans);
    planner.plan_flat_into(keys, key_len, &mut plans);
    apply_batch_into(core, bufs, &plans, out);
    bufs.plans = plans;
}

/// Applies one plan at `tick` through the single-element scratch buffer.
/// With no tick (a time detector's tick-less `observe`), the plan lands
/// at the core's current clock — its high-water unit, or unit 0 before
/// the first observation — which it does not advance.
pub(crate) fn apply_plan_at<C: TimedCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    plan: ProbePlan,
    tick: Option<u64>,
) -> Verdict {
    let w = core.probe_width();
    bufs.probe.resize(w, 0);
    core.fill_probes(plan, &mut bufs.probe);
    let unit = match tick {
        Some(tick) => core.unit_of(tick),
        None => core.high_water().unwrap_or(0),
    };
    let unit = core.advance_to(unit);
    let stamp_now = core.stamp_of(unit);
    core.apply_probes_at(plan, &bufs.probe, stamp_now)
}

/// Timed batch replay with lookahead prefetch and per-run clock cache:
/// `advance_to` and the wraparound stamp are recomputed only when an
/// element's unit differs from its predecessor's, so a burst of clicks
/// inside one unit pays the division once. Clamped runs still count one
/// regression per element to match the sequential path.
pub(crate) fn replay_at_into<C: TimedCore + ?Sized>(
    core: &mut C,
    plans: &[ProbePlan],
    flat: &[usize],
    ticks: &[u64],
    out: &mut Vec<Verdict>,
) {
    let w = core.probe_width();
    let one_line = core.probes_share_line();
    out.clear();
    // Per-run clock cache: (raw unit, stamp, whether the run is clamped).
    let mut run: Option<(u64, u64, bool)> = None;
    let mut ahead = flat.chunks_exact(w).skip(PREFETCH_AHEAD);
    for ((plan, slot), &tick) in plans.iter().zip(flat.chunks_exact(w)).zip(ticks) {
        if let Some(next) = ahead.next() {
            if one_line {
                core.prefetch(next[0]);
            } else {
                for &j in next {
                    core.prefetch(j);
                }
            }
        }
        let raw = core.unit_of(tick);
        let stamp_now = match run {
            Some((r, stamp, clamped)) if r == raw => {
                if clamped {
                    core.note_regression();
                }
                stamp
            }
            _ => {
                let high_water = core.high_water();
                let unit = core.advance_to(raw);
                let clamped = high_water.is_some_and(|h| raw < h);
                let stamp = core.stamp_of(unit);
                run = Some((raw, stamp, clamped));
                stamp
            }
        };
        out.push(core.apply_probes_at(*plan, slot, stamp_now));
    }
}

/// Timed expand + replay.
///
/// # Panics
/// Panics if `plans.len() != ticks.len()`.
pub(crate) fn apply_batch_at_into<C: TimedCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    plans: &[ProbePlan],
    ticks: &[u64],
    out: &mut Vec<Verdict>,
) {
    assert_eq!(plans.len(), ticks.len(), "one tick per plan");
    expand_plans(core, plans, &mut bufs.flat);
    replay_at_into(core, plans, &bufs.flat, ticks, out);
}

/// Hashes a batch of ids and replays the plans at their ticks.
///
/// # Panics
/// Panics if `ids.len() != ticks.len()`.
pub(crate) fn observe_refs_at_into<C: TimedCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    planner: Planner,
    ids: &[&[u8]],
    ticks: &[u64],
    out: &mut Vec<Verdict>,
) {
    assert_eq!(ids.len(), ticks.len(), "one tick per id");
    let mut plans = std::mem::take(&mut bufs.plans);
    planner.plan_refs_into(ids, &mut plans);
    apply_batch_at_into(core, bufs, &plans, ticks, out);
    bufs.plans = plans;
}

/// [`observe_refs_at_into`] over a flat fixed-stride key buffer.
///
/// # Panics
/// Panics if `key_len == 0` or the key count does not match `ticks`.
pub(crate) fn observe_flat_at_into<C: TimedCore + ?Sized>(
    core: &mut C,
    bufs: &mut BatchBufs,
    planner: Planner,
    keys: &[u8],
    key_len: usize,
    ticks: &[u64],
    out: &mut Vec<Verdict>,
) {
    assert!(key_len > 0, "key_len must be non-zero");
    assert_eq!(keys.len() / key_len, ticks.len(), "one tick per key");
    let mut plans = std::mem::take(&mut bufs.plans);
    planner.plan_flat_into(keys, key_len, &mut plans);
    apply_batch_at_into(core, bufs, &plans, ticks, out);
    bufs.plans = plans;
}

/// The `k_eff` saturation cap shared by every blocked backend: probes
/// per element are capped at half the block so one insertion can never
/// saturate its cache line (see `crate::Gbf` for the rationale).
pub(crate) fn effective_k(k: usize, geo: Option<&BlockGeometry>) -> usize {
    match geo {
        Some(g) => k.min(g.slots() / 2).max(1),
        None => k,
    }
}
