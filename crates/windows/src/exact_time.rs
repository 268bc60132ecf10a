//! Exact duplicate detectors over *time-based* windows.
//!
//! The timed counterparts of [`crate::exact`]: ground-truth oracles for
//! the `TimeTbf` / `TimeGbf` detectors of `cfd-core`. Same Definition-1
//! semantics — a click is a duplicate iff an identical click was
//! determined valid within the current window — with expiry driven by
//! time units instead of element counts.

use crate::detector::{DuplicateDetector, Verdict};
use crate::spec::WindowSpec;
use crate::time::UnitClock;
use std::collections::{HashMap, VecDeque};

/// Per-click `observe_at` over a batch: the oracles' batch forms, so
/// the clock advances click by click instead of falling back to the
/// tick-ignoring defaults.
fn observe_each_at<'a, D: DuplicateDetector>(
    d: &mut D,
    ids: impl ExactSizeIterator<Item = &'a [u8]>,
    ticks: &[u64],
    out: &mut Vec<Verdict>,
) {
    assert_eq!(ids.len(), ticks.len(), "one tick per id");
    out.clear();
    out.extend(ids.zip(ticks).map(|(id, &tick)| d.observe_at(id, tick)));
}

/// Exact duplicate detection over a time-based sliding window: the last
/// `window_units` time units, the current unit included.
///
/// ```rust
/// use cfd_windows::exact_time::ExactTimeSlidingDedup;
/// use cfd_windows::{DuplicateDetector, Verdict};
/// let mut d = ExactTimeSlidingDedup::new(10, 100); // 10 units of 100 ticks
/// assert_eq!(d.observe_at(b"x", 0), Verdict::Distinct);
/// assert_eq!(d.observe_at(b"x", 950), Verdict::Duplicate);  // unit 9
/// assert_eq!(d.observe_at(b"x", 1_000), Verdict::Distinct); // unit 10
/// ```
#[derive(Debug, Clone)]
pub struct ExactTimeSlidingDedup {
    window_units: u64,
    units: UnitClock,
    /// id -> unit of its current valid click.
    valid: HashMap<Vec<u8>, u64>,
    /// Valid clicks in arrival order for O(1) expiry.
    order: VecDeque<(u64, Vec<u8>)>,
    /// The last tick seen: the clock `observe` judges at.
    last_tick: u64,
}

impl ExactTimeSlidingDedup {
    /// Creates the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `window_units == 0` or `unit_ticks == 0`.
    #[must_use]
    pub fn new(window_units: u64, unit_ticks: u64) -> Self {
        assert!(window_units > 0, "window must be positive");
        Self {
            window_units,
            units: UnitClock::new(unit_ticks),
            valid: HashMap::new(),
            order: VecDeque::new(),
            last_tick: 0,
        }
    }

    /// Number of valid clicks currently active.
    #[must_use]
    pub fn active_valid(&self) -> usize {
        self.valid.len()
    }

    fn expire_before(&mut self, oldest_active: u64) {
        while let Some(&(u, _)) = self.order.front() {
            if u >= oldest_active {
                break;
            }
            let (u0, id0) = self.order.pop_front().expect("front exists");
            if self.valid.get(&id0) == Some(&u0) {
                self.valid.remove(&id0);
            }
        }
    }
}

impl DuplicateDetector for ExactTimeSlidingDedup {
    /// A click at the last tick seen.
    fn observe(&mut self, id: &[u8]) -> Verdict {
        self.observe_at(id, self.last_tick)
    }

    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        self.last_tick = tick;
        let unit = self.units.unit_of(tick);
        let oldest_active = unit.saturating_sub(self.window_units - 1);
        self.expire_before(oldest_active);
        if let Some(&u) = self.valid.get(id) {
            if u >= oldest_active {
                return Verdict::Duplicate;
            }
        }
        self.valid.insert(id.to_vec(), unit);
        self.order.push_back((unit, id.to_vec()));
        Verdict::Distinct
    }

    fn observe_batch_at_into(&mut self, ids: &[&[u8]], ticks: &[u64], out: &mut Vec<Verdict>) {
        observe_each_at(self, ids.iter().copied(), ticks, out);
    }

    fn observe_flat_at_into(
        &mut self,
        keys: &[u8],
        key_len: usize,
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        assert!(key_len > 0, "key_len must be non-zero");
        observe_each_at(self, keys.chunks_exact(key_len), ticks, out);
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::TimeSliding {
            ticks: self.window_units * self.units.unit_ticks(),
        }
    }

    fn memory_bits(&self) -> usize {
        self.valid.keys().map(|k| k.len() * 8 + 64).sum::<usize>()
            + self
                .order
                .iter()
                .map(|(_, k)| k.len() * 8 + 64)
                .sum::<usize>()
    }

    fn reset(&mut self) {
        self.valid.clear();
        self.order.clear();
        self.last_tick = 0;
    }

    fn name(&self) -> &'static str {
        "exact-time-sliding"
    }
}

/// Exact duplicate detection over a time-based jumping window: `q`
/// sub-windows of `sub_units` time units each (current partial + `q − 1`
/// previous).
#[derive(Debug, Clone)]
pub struct ExactTimeJumpingDedup {
    q: usize,
    sub_units: u64,
    units: UnitClock,
    /// (sub-window index, valid ids inserted during it), newest last.
    subs: VecDeque<(u64, std::collections::HashSet<Vec<u8>>)>,
    /// The last tick seen: the clock `observe` judges at.
    last_tick: u64,
}

impl ExactTimeJumpingDedup {
    /// Creates the oracle.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(q: usize, sub_units: u64, unit_ticks: u64) -> Self {
        assert!(q > 0 && sub_units > 0, "window must be positive");
        Self {
            q,
            sub_units,
            units: UnitClock::new(unit_ticks),
            subs: VecDeque::new(),
            last_tick: 0,
        }
    }

    fn sub_of(&self, tick: u64) -> u64 {
        self.units.unit_of(tick) / self.sub_units
    }
}

impl DuplicateDetector for ExactTimeJumpingDedup {
    /// A click at the last tick seen.
    fn observe(&mut self, id: &[u8]) -> Verdict {
        self.observe_at(id, self.last_tick)
    }

    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        self.last_tick = tick;
        let sub = self.sub_of(tick);
        // Drop sub-windows outside [sub - q + 1, sub].
        let oldest = sub.saturating_sub(self.q as u64 - 1);
        while let Some(&(s, _)) = self.subs.front() {
            if s >= oldest {
                break;
            }
            self.subs.pop_front();
        }
        if self.subs.iter().any(|(_, set)| set.contains(id)) {
            return Verdict::Duplicate;
        }
        match self.subs.back_mut() {
            Some((s, set)) if *s == sub => {
                set.insert(id.to_vec());
            }
            _ => {
                let mut set = std::collections::HashSet::new();
                set.insert(id.to_vec());
                self.subs.push_back((sub, set));
            }
        }
        Verdict::Distinct
    }

    fn observe_batch_at_into(&mut self, ids: &[&[u8]], ticks: &[u64], out: &mut Vec<Verdict>) {
        observe_each_at(self, ids.iter().copied(), ticks, out);
    }

    fn observe_flat_at_into(
        &mut self,
        keys: &[u8],
        key_len: usize,
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        assert!(key_len > 0, "key_len must be non-zero");
        observe_each_at(self, keys.chunks_exact(key_len), ticks, out);
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::TimeJumping {
            ticks: self.q as u64 * self.sub_units * self.units.unit_ticks(),
            q: self.q,
        }
    }

    fn memory_bits(&self) -> usize {
        self.subs
            .iter()
            .flat_map(|(_, s)| s.iter())
            .map(|id| id.len() * 8)
            .sum()
    }

    fn reset(&mut self) {
        self.subs.clear();
        self.last_tick = 0;
    }

    fn name(&self) -> &'static str {
        "exact-time-jumping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_same_unit_repeat_is_duplicate() {
        let mut d = ExactTimeSlidingDedup::new(5, 10);
        assert_eq!(d.observe_at(b"a", 3), Verdict::Distinct);
        assert_eq!(d.observe_at(b"a", 7), Verdict::Duplicate);
        assert_eq!(d.active_valid(), 1);
    }

    #[test]
    fn sliding_expires_by_units_not_arrivals() {
        let mut d = ExactTimeSlidingDedup::new(3, 10);
        d.observe_at(b"a", 0); // unit 0
                               // Many arrivals, but little time passes: still duplicate.
        for i in 0..100 {
            assert_eq!(d.observe_at(b"a", 10 + i % 5), Verdict::Duplicate);
        }
        // Unit 3: window = units 1..=3; a@0 expired.
        assert_eq!(d.observe_at(b"a", 30), Verdict::Distinct);
    }

    #[test]
    fn sliding_duplicates_do_not_refresh() {
        let mut d = ExactTimeSlidingDedup::new(3, 1);
        assert_eq!(d.observe_at(b"a", 0), Verdict::Distinct); // unit 0
        assert_eq!(d.observe_at(b"a", 2), Verdict::Duplicate); // unit 2
                                                               // Unit 3: the valid a@0 expired; the duplicate at unit 2 did not
                                                               // extend it.
        assert_eq!(d.observe_at(b"a", 3), Verdict::Distinct);
    }

    #[test]
    fn jumping_expires_whole_subwindows() {
        // q = 2 sub-windows of 5 units.
        let mut d = ExactTimeJumpingDedup::new(2, 5, 1);
        assert_eq!(d.observe_at(b"a", 0), Verdict::Distinct); // sub 0
        assert_eq!(d.observe_at(b"a", 9), Verdict::Duplicate); // sub 1
                                                               // Sub 2: window = subs 1..=2; a (sub 0) gone.
        assert_eq!(d.observe_at(b"a", 10), Verdict::Distinct);
    }

    #[test]
    fn jumping_quiet_gap_drops_everything() {
        let mut d = ExactTimeJumpingDedup::new(4, 10, 1);
        d.observe_at(b"a", 0);
        assert_eq!(d.observe_at(b"a", 100_000), Verdict::Distinct);
    }

    #[test]
    fn reset_restores_empty() {
        let mut d = ExactTimeSlidingDedup::new(5, 1);
        d.observe_at(b"a", 0);
        d.reset();
        assert_eq!(d.observe_at(b"a", 0), Verdict::Distinct);
        let mut j = ExactTimeJumpingDedup::new(2, 5, 1);
        j.observe_at(b"a", 0);
        j.reset();
        assert_eq!(j.observe_at(b"a", 0), Verdict::Distinct);
    }

    #[test]
    fn observe_judges_at_the_last_tick_seen() {
        let mut d = ExactTimeSlidingDedup::new(3, 10);
        assert_eq!(d.observe(b"a"), Verdict::Distinct); // tick 0
        assert_eq!(d.observe_at(b"b", 25), Verdict::Distinct);
        assert_eq!(d.observe(b"a"), Verdict::Duplicate); // still unit 2
        assert_eq!(d.observe_at(b"c", 30), Verdict::Distinct);
        assert_eq!(d.observe(b"a"), Verdict::Distinct); // unit 3: a@0 expired
        let mut j = ExactTimeJumpingDedup::new(2, 5, 1);
        assert_eq!(j.observe_at(b"a", 9), Verdict::Distinct);
        assert_eq!(j.observe(b"a"), Verdict::Duplicate);
    }

    /// Batch forms under odd chunking must equal per-click `observe_at`
    /// on a gappy tick stream (same-tick runs, 37- and 1000-tick gaps).
    fn batch_forms_match_per_click<D: DuplicateDetector + Clone>(fresh: &D) {
        let (mut ids, mut ticks, mut t) = (Vec::new(), Vec::new(), 0u64);
        for i in 0..400u64 {
            t += [0, 3, 3, 37, 3, if i % 50 == 5 { 1_000 } else { 3 }, 3][i as usize % 7];
            ids.push(((i * 7919) % 5).to_le_bytes());
            ticks.push(t);
        }
        let mut reference = fresh.clone();
        let want: Vec<Verdict> = ids
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| reference.observe_at(id, t))
            .collect();
        assert!(want.contains(&Verdict::Duplicate) && want.contains(&Verdict::Distinct));
        for chunk in [1usize, 3, 17, 64, 400] {
            let (mut batched, mut flat) = (fresh.clone(), fresh.clone());
            let (mut got_batch, mut got_flat, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for (id_chunk, tick_chunk) in ids.chunks(chunk).zip(ticks.chunks(chunk)) {
                let refs: Vec<&[u8]> = id_chunk.iter().map(|id| &id[..]).collect();
                got_batch.extend(batched.observe_batch_at(&refs, tick_chunk));
                flat.observe_flat_at_into(&id_chunk.concat(), 8, tick_chunk, &mut out);
                got_flat.extend_from_slice(&out);
            }
            assert_eq!((&got_batch, &got_flat), (&want, &want), "chunk {chunk}");
        }
    }

    #[test]
    fn batch_forms_advance_the_clock_per_click() {
        batch_forms_match_per_click(&ExactTimeSlidingDedup::new(4, 10));
        batch_forms_match_per_click(&ExactTimeJumpingDedup::new(3, 2, 10));
    }

    #[test]
    fn window_specs_report_ticks() {
        let d = ExactTimeSlidingDedup::new(5, 100);
        assert_eq!(d.window(), WindowSpec::TimeSliding { ticks: 500 });
        let j = ExactTimeJumpingDedup::new(2, 5, 100);
        assert_eq!(j.window(), WindowSpec::TimeJumping { ticks: 1_000, q: 2 });
    }
}
