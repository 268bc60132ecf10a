//! The one-pass duplicate-detection contract (paper Definition 1).

use crate::spec::WindowSpec;
use serde::{Deserialize, Serialize};

/// The classification of one click.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// First occurrence within the current window: a *valid* click that
    /// the advertiser is charged for.
    Distinct,
    /// An identical click was already determined valid within the current
    /// window: not charged (paper Definition 1).
    Duplicate,
}

impl Verdict {
    /// `true` for [`Verdict::Duplicate`].
    #[inline]
    #[must_use]
    pub fn is_duplicate(self) -> bool {
        matches!(self, Verdict::Duplicate)
    }

    /// `true` for [`Verdict::Distinct`].
    #[inline]
    #[must_use]
    pub fn is_distinct(self) -> bool {
        matches!(self, Verdict::Distinct)
    }
}

/// A one-pass duplicate detector over a decaying window.
///
/// The contract mirrors the paper's problem statement (§1.3): given
/// limited memory and a window of `N` elements, classify each click of an
/// unbounded stream in a single pass. Implementations may be approximate
/// with one-sided error: the GBF/TBF detectors guarantee *zero false
/// negatives* while allowing a small false-positive rate.
///
/// # Clocks
///
/// Every click may carry a *tick* (the `_at` methods). A count-based
/// window's clock is its own arrival count, so count detectors ignore
/// the tick: the provided `_at` methods forward to [`observe`] /
/// [`observe_batch_into`] / [`observe_flat_into`]. A time-based window
/// (§3.1 / §4.1) expires by tick instead, so time detectors override the
/// `_at` methods and implement [`observe`] as a click at their *current
/// clock* — the last tick seen (tick 0 before the first), with no
/// advance. Ticks should be non-decreasing; time detectors document
/// their policy for out-of-order ticks (the `cfd-core` detectors clamp
/// them to the high-water unit and count the event — time never moves
/// backwards).
///
/// Wrappers (boxes, sharded compositions) must forward the `_at`
/// methods: falling back to the provided forms would judge a time
/// detector at a frozen clock.
///
/// # Error direction
///
/// Following the paper: a *false positive* is a distinct click wrongly
/// reported as [`Verdict::Duplicate`]; a *false negative* is a duplicate
/// wrongly reported as [`Verdict::Distinct`]. GBF and TBF have zero false
/// negatives; exact oracles have zero error in both directions.
///
/// [`observe`]: DuplicateDetector::observe
/// [`observe_batch_into`]: DuplicateDetector::observe_batch_into
/// [`observe_flat_into`]: DuplicateDetector::observe_flat_into
pub trait DuplicateDetector {
    /// Classifies the next click of the stream and updates internal state.
    fn observe(&mut self, id: &[u8]) -> Verdict;

    /// Classifies the click arriving at `tick`. Count detectors ignore
    /// the tick.
    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        let _ = tick;
        self.observe(id)
    }

    /// Classifies a batch of consecutive clicks, in stream order:
    /// [`observe_batch_into`] into a fresh vector.
    ///
    /// [`observe_batch_into`]: DuplicateDetector::observe_batch_into
    fn observe_batch(&mut self, ids: &[&[u8]]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(ids.len());
        self.observe_batch_into(ids, &mut out);
        out
    }

    /// Classifies a batch of consecutive clicks, in stream order, writing
    /// verdicts into `out` (cleared first, capacity reused), so a caller
    /// recycling the buffer performs no heap allocation once it has grown
    /// to the batch size.
    ///
    /// Verdict-for-verdict equivalent to calling [`observe`] on each id
    /// in order; implementations may override to hash the whole batch up
    /// front before touching filter state (the GBF/TBF detectors do),
    /// which improves locality without changing any verdict. The default
    /// is the plain loop, so trait objects and third-party detectors get
    /// batching for free.
    ///
    /// [`observe`]: DuplicateDetector::observe
    fn observe_batch_into(&mut self, ids: &[&[u8]], out: &mut Vec<Verdict>) {
        out.clear();
        for id in ids {
            out.push(self.observe(id));
        }
    }

    /// Classifies a batch of consecutive clicks, each with its own tick,
    /// in stream order: verdict-for-verdict equivalent to calling
    /// [`observe_at`] on each `(id, tick)` pair in order.
    ///
    /// # Panics
    /// Implementations may panic if `ids.len() != ticks.len()`.
    ///
    /// [`observe_at`]: DuplicateDetector::observe_at
    fn observe_batch_at(&mut self, ids: &[&[u8]], ticks: &[u64]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(ids.len());
        self.observe_batch_at_into(ids, ticks, &mut out);
        out
    }

    /// Allocation-free form of [`observe_batch_at`]: verdicts are written
    /// into `out` (cleared first, capacity reused). Count detectors ignore
    /// the ticks; time detectors override this to hash the whole batch up
    /// front and amortize clock-advance work across ticks that share a
    /// unit.
    ///
    /// # Panics
    /// Implementations may panic if `ids.len() != ticks.len()`.
    ///
    /// [`observe_batch_at`]: DuplicateDetector::observe_batch_at
    fn observe_batch_at_into(&mut self, ids: &[&[u8]], ticks: &[u64], out: &mut Vec<Verdict>) {
        debug_assert_eq!(ids.len(), ticks.len(), "one tick per id");
        self.observe_batch_into(ids, out);
    }

    /// Classifies a batch of fixed-stride ids packed end-to-end in a flat
    /// buffer (`key_len` bytes each), writing verdicts into `out` (cleared
    /// first, capacity reused).
    ///
    /// The flat layout is what the zero-allocation pipeline ships between
    /// stages: no per-id slice headers, and batch implementations can hash
    /// the whole buffer in one multi-lane pass. Verdict-for-verdict
    /// equivalent to observing each `key_len`-byte chunk in order.
    ///
    /// # Panics
    /// Implementations may panic if `key_len == 0` or `keys.len()` is not
    /// a multiple of `key_len`.
    fn observe_flat_into(&mut self, keys: &[u8], key_len: usize, out: &mut Vec<Verdict>) {
        assert!(key_len > 0, "key_len must be non-zero");
        assert_eq!(
            keys.len() % key_len,
            0,
            "flat key buffer length {} is not a multiple of key_len {}",
            keys.len(),
            key_len
        );
        out.clear();
        for id in keys.chunks_exact(key_len) {
            out.push(self.observe(id));
        }
    }

    /// [`observe_flat_into`] with one tick per key — what the pipeline's
    /// shard workers call for every detector. Count detectors ignore the
    /// ticks.
    ///
    /// # Panics
    /// Implementations may panic if `key_len == 0`, `keys.len()` is not a
    /// multiple of `key_len`, or the key count differs from `ticks.len()`.
    ///
    /// [`observe_flat_into`]: DuplicateDetector::observe_flat_into
    fn observe_flat_at_into(
        &mut self,
        keys: &[u8],
        key_len: usize,
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        debug_assert_eq!(keys.len() / key_len.max(1), ticks.len(), "one tick per key");
        self.observe_flat_into(keys, key_len, out);
    }

    /// The window model this detector approximates.
    fn window(&self) -> WindowSpec;

    /// Total payload memory, in bits (for the paper's space accounting).
    fn memory_bits(&self) -> usize;

    /// Resets to the empty-stream state, keeping the configuration.
    fn reset(&mut self);

    /// Human-readable algorithm name for reports and benches.
    fn name(&self) -> &'static str;
}

/// Boxed detectors forward the whole contract — the `_at` methods
/// included, so a boxed time detector keeps its clock — and trait
/// objects compose with generic wrappers (e.g.
/// `ShardedDetector<Box<dyn DuplicateDetector>>` in the CLI, where the
/// algorithm is chosen at runtime).
impl<D: DuplicateDetector + ?Sized> DuplicateDetector for Box<D> {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        (**self).observe(id)
    }
    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        (**self).observe_at(id, tick)
    }
    fn observe_batch_into(&mut self, ids: &[&[u8]], out: &mut Vec<Verdict>) {
        (**self).observe_batch_into(ids, out)
    }
    fn observe_batch_at_into(&mut self, ids: &[&[u8]], ticks: &[u64], out: &mut Vec<Verdict>) {
        (**self).observe_batch_at_into(ids, ticks, out)
    }
    fn observe_flat_into(&mut self, keys: &[u8], key_len: usize, out: &mut Vec<Verdict>) {
        (**self).observe_flat_into(keys, key_len, out)
    }
    fn observe_flat_at_into(
        &mut self,
        keys: &[u8],
        key_len: usize,
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        (**self).observe_flat_at_into(keys, key_len, ticks, out)
    }
    fn window(&self) -> WindowSpec {
        (**self).window()
    }
    fn memory_bits(&self) -> usize {
        (**self).memory_bits()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A duplicate detector that also reports health telemetry.
///
/// Marker for `DuplicateDetector + DetectorStats`, blanket-implemented
/// for every type satisfying both — its purpose is trait objects:
/// `Box<dyn ObservableDetector>` keeps runtime-chosen detectors (the
/// `cfd` CLI) both observable and drivable, where two separate `dyn`
/// bounds could not share one box.
///
/// [`DetectorStats`]: cfd_telemetry::DetectorStats
pub trait ObservableDetector: DuplicateDetector + cfd_telemetry::DetectorStats {}

impl<D: DuplicateDetector + cfd_telemetry::DetectorStats + ?Sized> ObservableDetector for D {}

/// Running tallies of a detector over a stream.
///
/// ```rust
/// use cfd_windows::{StreamSummary, Verdict};
/// let mut s = StreamSummary::default();
/// s.record(Verdict::Distinct);
/// s.record(Verdict::Duplicate);
/// assert_eq!(s.total(), 2);
/// assert_eq!(s.duplicates, 1);
/// assert!((s.duplicate_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Clicks classified [`Verdict::Distinct`].
    pub distinct: u64,
    /// Clicks classified [`Verdict::Duplicate`].
    pub duplicates: u64,
}

impl StreamSummary {
    /// Records one verdict.
    #[inline]
    pub fn record(&mut self, v: Verdict) {
        match v {
            Verdict::Distinct => self.distinct += 1,
            Verdict::Duplicate => self.duplicates += 1,
        }
    }

    /// Total clicks recorded.
    #[inline]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.distinct + self.duplicates
    }

    /// Fraction of clicks classified duplicate (0 when empty).
    #[must_use]
    pub fn duplicate_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.total() as f64
        }
    }
}

/// Runs `detector` over `stream`, returning the summary tally.
///
/// Convenience for tests, examples, and the figure harness.
pub fn run_stream<'a, D, I>(detector: &mut D, stream: I) -> StreamSummary
where
    D: DuplicateDetector + ?Sized,
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut summary = StreamSummary::default();
    for id in stream {
        summary.record(detector.observe(id));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial landmark-window detector used to exercise the trait
    /// machinery (real detectors live in `cfd-core` / `cfd-bloom`).
    struct ToyLandmark {
        seen: std::collections::HashSet<Vec<u8>>,
        n: usize,
        count: usize,
    }

    impl DuplicateDetector for ToyLandmark {
        fn observe(&mut self, id: &[u8]) -> Verdict {
            if self.count == self.n {
                self.seen.clear();
                self.count = 0;
            }
            self.count += 1;
            if self.seen.insert(id.to_vec()) {
                Verdict::Distinct
            } else {
                Verdict::Duplicate
            }
        }
        fn window(&self) -> WindowSpec {
            WindowSpec::Landmark { n: self.n }
        }
        fn memory_bits(&self) -> usize {
            self.seen.len() * 8
        }
        fn reset(&mut self) {
            self.seen.clear();
            self.count = 0;
        }
        fn name(&self) -> &'static str {
            "toy-landmark"
        }
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Duplicate.is_duplicate());
        assert!(!Verdict::Duplicate.is_distinct());
        assert!(Verdict::Distinct.is_distinct());
    }

    #[test]
    fn run_stream_tallies() {
        let mut d = ToyLandmark {
            seen: Default::default(),
            n: 100,
            count: 0,
        };
        let ids: Vec<&[u8]> = vec![b"a", b"b", b"a", b"c", b"a"];
        let s = run_stream(&mut d, ids);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.duplicates, 2);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn landmark_expires_all_at_boundary() {
        let mut d = ToyLandmark {
            seen: Default::default(),
            n: 2,
            count: 0,
        };
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
        // Boundary: window restarts, x is fresh again.
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
    }

    #[test]
    fn trait_object_usable() {
        let mut d: Box<dyn DuplicateDetector> = Box::new(ToyLandmark {
            seen: Default::default(),
            n: 10,
            count: 0,
        });
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
        assert_eq!(d.name(), "toy-landmark");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
    }

    #[test]
    fn summary_rate_handles_empty() {
        assert_eq!(StreamSummary::default().duplicate_rate(), 0.0);
    }
}
