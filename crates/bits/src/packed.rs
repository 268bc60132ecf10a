//! A fixed-size vector of `b`-bit unsigned integers.
//!
//! This is the storage for timing-Bloom-filter entries (§4): `m` cells of
//! `O(log N)` bits each. Entries may straddle word boundaries; get/set are
//! branch-light and constant-time.

use crate::words::{low_mask, WORD_BITS};

/// A fixed-size vector of `len` entries, each `bits` wide (1..=64).
///
/// ```rust
/// use cfd_bits::PackedIntVec;
/// let mut v = PackedIntVec::new(10, 21);
/// v.set(3, 0x1F_FFFF);
/// assert_eq!(v.get(3), 0x1F_FFFF);
/// assert_eq!(v.get(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedIntVec {
    words: Vec<u64>,
    len: usize,
    bits: u32,
    max: u64,
}

impl PackedIntVec {
    /// Creates a vector of `len` zero entries of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(len: usize, bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "entry width must be 1..=64 bits");
        let total_bits = len
            .checked_mul(bits as usize)
            .expect("packed vector size overflow");
        Self {
            words: vec![0; total_bits.div_ceil(WORD_BITS)],
            len,
            bits,
            max: low_mask(bits),
        }
    }

    /// Creates a vector with every entry set to the all-ones pattern.
    ///
    /// The timing Bloom filter initializes "all bits in all entries ... to
    /// bit 1" (§4.1), reserving all-ones as the *empty* marker.
    #[must_use]
    pub fn new_all_ones(len: usize, bits: u32) -> Self {
        let mut v = Self::new(len, bits);
        v.fill(v.max);
        v
    }

    /// Number of entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of each entry in bits.
    #[inline]
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        self.bits
    }

    /// Largest storable value (`2^bits − 1`), i.e. the all-ones pattern.
    #[inline]
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Memory footprint of the payload in bits.
    #[inline]
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Reads entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "entry index {i} out of range {}", self.len);
        let bit = i * self.bits as usize;
        let (w, off) = (bit / WORD_BITS, (bit % WORD_BITS) as u32);
        let lo = self.words[w] >> off;
        let have = WORD_BITS as u32 - off;
        let val = if have >= self.bits {
            lo
        } else {
            lo | (self.words[w + 1] << have)
        };
        val & self.max
    }

    /// Hints the CPU to pull entry `i`'s cache line early; a no-op when
    /// the index is out of range.
    ///
    /// Batch frontends that know their probe indices ahead of time (see
    /// `Tbf::observe_batch`) issue this a few elements early so the
    /// random reads of [`PackedIntVec::get`] land in cache (see
    /// [`crate::words::prefetch`]).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if i < self.len {
            crate::words::prefetch(&self.words[i * self.bits as usize / WORD_BITS]);
        }
    }

    /// Writes entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or `value` does not fit in the entry width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "entry index {i} out of range {}", self.len);
        assert!(
            value <= self.max,
            "value {value} exceeds {}-bit entry",
            self.bits
        );
        let bit = i * self.bits as usize;
        let (w, off) = (bit / WORD_BITS, (bit % WORD_BITS) as u32);
        self.words[w] = (self.words[w] & !(self.max << off)) | (value << off);
        let have = WORD_BITS as u32 - off;
        if have < self.bits {
            let spill = self.bits - have;
            let hi_mask = low_mask(spill);
            self.words[w + 1] = (self.words[w + 1] & !hi_mask) | (value >> have);
        }
    }

    /// Applies `f` to `count` consecutive entries starting at `start`,
    /// rewriting an entry when `f` returns `Some(new)`. Returns the
    /// number of entries rewritten.
    ///
    /// This is the linear-maintenance primitive (TBF expiry sweeps):
    /// entries that sit wholly inside one backing word are decoded from
    /// a register instead of paying [`PackedIntVec::get`]'s per-entry
    /// bounds check and word fetch, and a word is written back at most
    /// once — several times cheaper than per-entry `get`/`set` over the
    /// same range.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len` or `f` returns a value that does
    /// not fit in the entry width.
    pub fn update_range(
        &mut self,
        start: usize,
        count: usize,
        mut f: impl FnMut(u64) -> Option<u64>,
    ) -> usize {
        let end = start
            .checked_add(count)
            .expect("entry range overflows usize");
        assert!(
            end <= self.len,
            "entry range {start}+{count} exceeds {}",
            self.len
        );
        let bits = self.bits as usize;
        let mut changed = 0usize;
        let mut i = start;
        while i < end {
            let (w, off) = ((i * bits) / WORD_BITS, (i * bits) % WORD_BITS);
            if off + bits > WORD_BITS {
                // Entry straddles a word boundary: take the slow path.
                let old = self.get(i);
                if let Some(new) = f(old) {
                    self.set(i, new);
                    changed += 1;
                }
                i += 1;
                continue;
            }
            // Decode every entry wholly inside word `w` from a register.
            let mut word = self.words[w];
            let mut dirty = false;
            let mut off = off;
            while off + bits <= WORD_BITS && i < end {
                let old = (word >> off) & self.max;
                if let Some(new) = f(old) {
                    assert!(
                        new <= self.max,
                        "value {new} exceeds {}-bit entry",
                        self.bits
                    );
                    word = (word & !(self.max << off)) | (new << off);
                    dirty = true;
                    changed += 1;
                }
                off += bits;
                i += 1;
            }
            if dirty {
                self.words[w] = word;
            }
        }
        changed
    }

    /// Wide compare-and-store expiry sweep over `count` consecutive
    /// entries starting at `start` — the cleaning primitive shared by
    /// every wraparound-timestamp table (TBF entries, SWBF cells and
    /// side stamps, TimeTbf units).
    ///
    /// For each entry `v`: the timestamp field is `v & ts_mask` with
    /// all-ones meaning empty; an occupied entry whose wraparound age
    /// from `now` (clock period `range`) falls **outside**
    /// `[active_lo, active_hi]` is expired and rewritten to `empty`.
    /// Returns the number of entries rewritten.
    ///
    /// On the wide dispatch every entry is decoded from an independent
    /// two-word window and classified with branch-free flag arithmetic
    /// (the same compare set [`crate::simd::classify_stamps`] applies
    /// lane-wise); only expired entries pay a store, and entries lying
    /// wholly inside all-ones words (empty) are passed over without
    /// decoding. The scalar
    /// dispatch is the original register-cached per-entry branch chain
    /// ([`PackedIntVec::update_range`]), so `CFD_FORCE_SCALAR=1`
    /// measures the pre-SIMD code path. Both are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len` or `empty` does not fit in the
    /// entry width.
    #[allow(clippy::too_many_arguments)]
    pub fn expire_timestamps(
        &mut self,
        start: usize,
        count: usize,
        ts_mask: u64,
        empty: u64,
        now: u64,
        range: u64,
        active_lo: u64,
        active_hi: u64,
    ) -> usize {
        let end = start
            .checked_add(count)
            .expect("entry range overflows usize");
        assert!(
            end <= self.len,
            "entry range {start}+{count} exceeds {}",
            self.len
        );
        assert!(empty <= self.max, "value {empty} exceeds entry width");
        const LANES: usize = 8;
        if !crate::simd::wide_enabled() || count < LANES {
            // Scalar dispatch reproduces the pre-SIMD sweep exactly:
            // the register-cached per-entry loop with one branch chain
            // per entry, so forcing scalar (`CFD_FORCE_SCALAR=1`)
            // measures and behaves like the original code path. Short
            // segments (deep range extensions shrink the cleaning quota
            // to a handful of entries) take it too: the shift-register
            // setup costs more than it saves under one block.
            return self.update_range(start, count, |e| {
                let ts = e & ts_mask;
                if ts == ts_mask {
                    return None;
                }
                let age = if now >= ts {
                    now - ts
                } else {
                    range - ts + now
                };
                (!(active_lo..=active_hi).contains(&age)).then_some(empty)
            });
        }
        let bits = self.bits as usize;
        let max = self.max;
        let words = &mut self.words[..];
        let last = words.len() - 1;
        let mut changed = 0usize;
        // Branchless per-entry classification. The scalar sweep's branch
        // chain (empty? wrapped? active?) predicts perfectly in a tight
        // benchmark loop but mispredicts heavily once the sweep is
        // interleaved with probe/insert traffic in the real pipeline —
        // the predictor cannot hold per-entry history across thousands
        // of intervening branches, and that misprediction tax (not
        // memory) is the dominant in-situ sweep cost. Here every entry
        // is decoded with an independent two-word window (no serial
        // shift-register dependency, so decodes overlap across entries)
        // and classified with flag arithmetic; the only data-dependent
        // branch left is the rewrite itself, which is rare (few entries
        // expire per call) and therefore predicts well.
        //
        // Entries that lie wholly inside all-ones words are empty (their
        // stamp field is `ts_mask`), which the classifier leaves
        // untouched, so they are skipped without decoding: before each
        // run of up to 64 entries (to the next multiple of 64), the run
        // of all-ones words starting at entry `i`'s first word is
        // measured and every entry inside it is passed over. Exact for
        // every caller; at low occupancy (a time window at a traffic
        // trough) the sweep becomes a scan of words at memory speed
        // instead of a decode of entries, and on a dense table it costs
        // one short word scan per 64 entries.
        let hi_w = (end * bits).div_ceil(WORD_BITS);
        let mut i = start;
        while i < end {
            let w = i * bits / WORD_BITS;
            let run_end_bit = (w + ones_prefix(&words[w..hi_w])) * WORD_BITS;
            i = i.max(run_end_bit / bits).min(end);
            let block_end = ((i / WORD_BITS + 1) * WORD_BITS).min(end);
            for j in i..block_end {
                let bit = j * bits;
                let (w, off) = (bit / WORD_BITS, (bit % WORD_BITS) as u32);
                // `w + 1` is clamped, not checked: the second word only
                // contributes when the entry straddles, and a straddling
                // entry always has a real successor word.
                let pair =
                    (u128::from(words[(w + 1).min(last)]) << WORD_BITS) | u128::from(words[w]);
                let v = (pair >> off) as u64 & max;
                let ts = v & ts_mask;
                let occupied = ts != ts_mask;
                let wrapped = ts > now;
                let age = now
                    .wrapping_sub(ts)
                    .wrapping_add(range & (wrapped as u64).wrapping_neg());
                let active = age >= active_lo && age <= active_hi;
                if occupied & !active {
                    words[w] = (words[w] & !(max << off)) | (empty << off);
                    let have = WORD_BITS as u32 - off;
                    if (have as usize) < bits {
                        let hi_mask = low_mask(bits as u32 - have);
                        words[w + 1] = (words[w + 1] & !hi_mask) | (empty >> have);
                    }
                    changed += 1;
                }
            }
            i = block_end;
        }
        changed
    }

    /// Writes `value` into every entry listed in `idxs` — the insert
    /// primitive of the blocked probe layout, where all `k` probes land
    /// in one cache line.
    ///
    /// On the wide dispatch the writes are merged in registers: the
    /// (mask, pattern) pair of every entry is OR-accumulated into a
    /// small word window that is stored once per word, replacing `k`
    /// read-modify-write round trips with one pass over the line. The
    /// scalar dispatch (and any index spread wider than the window) is
    /// the plain per-entry [`PackedIntVec::set`] loop. Both orders
    /// write identical words: the per-entry bit ranges are disjoint
    /// (or identical, for repeated indices), so OR-merging cannot mix
    /// two entries.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `value` does not fit in
    /// the entry width.
    pub fn set_all(&mut self, idxs: &[usize], value: u64) {
        const WINDOW: usize = 16;
        let bits = self.bits as usize;
        let entry_bits = self.bits;
        let max = self.max;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &i in idxs {
            lo = lo.min(i);
            hi = hi.max(i);
        }
        if !crate::simd::wide_enabled()
            || idxs.len() < 3
            || hi >= self.len
            || (hi * bits + bits - 1) / WORD_BITS - lo * bits / WORD_BITS >= WINDOW
        {
            // Scalar dispatch, tiny batches, and spreads wider than the
            // merge window take the plain per-entry store loop (it also
            // carries the out-of-range panic).
            for &i in idxs {
                self.set(i, value);
            }
            return;
        }
        assert!(value <= max, "value {value} exceeds {entry_bits}-bit entry");
        let base = lo * bits / WORD_BITS;
        let mut mask = [0u64; WINDOW];
        let mut pat = [0u64; WINDOW];
        let mut hi_w = 0usize;
        for &i in idxs {
            let bit = i * bits;
            let (w, off) = (bit / WORD_BITS - base, (bit % WORD_BITS) as u32);
            mask[w] |= max << off;
            pat[w] |= value << off;
            let have = WORD_BITS as u32 - off;
            let mut top = w;
            if have < entry_bits {
                mask[w + 1] |= low_mask(entry_bits - have);
                pat[w + 1] |= value >> have;
                top = w + 1;
            }
            hi_w = hi_w.max(top);
        }
        for (j, wd) in self.words[base..=base + hi_w].iter_mut().enumerate() {
            *wd = (*wd & !mask[j]) | pat[j];
        }
    }

    /// Sets every entry to `value`.
    ///
    /// Word-level: 64 entries of `bits` width span exactly `bits` words,
    /// so the table is one `bits`-word period repeated (a memset for the
    /// all-ones "empty" pattern). It runs at construction and on every
    /// whole-table clear (a time window's long-gap expiry), so it must
    /// cost memory bandwidth, not one read-modify-write per entry. The
    /// unused tail bits of the last word are left as they were, so
    /// [`PackedIntVec::as_words`] — and a checkpoint — is the same as
    /// after per-entry [`PackedIntVec::set`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the entry width.
    pub fn fill(&mut self, value: u64) {
        assert!(value <= self.max, "value {value} exceeds entry width");
        let bits = self.bits as usize;
        let mut period = [0u64; 64];
        for j in 0..WORD_BITS {
            let (w, off) = ((j * bits) / WORD_BITS, ((j * bits) % WORD_BITS) as u32);
            period[w] |= value << off;
            let have = WORD_BITS - off as usize;
            if have < bits {
                period[w + 1] |= value >> have;
            }
        }
        let used = self.len * bits;
        let full = used / WORD_BITS;
        if period[..bits].iter().all(|&p| p == period[0]) {
            // All-ones (the empty marker) and zero: a plain memset.
            self.words[..full].fill(period[0]);
        } else {
            for chunk in self.words[..full].chunks_mut(bits) {
                chunk.copy_from_slice(&period[..chunk.len()]);
            }
        }
        let tail = (used % WORD_BITS) as u32;
        if tail > 0 {
            let keep = !low_mask(tail);
            self.words[full] = (self.words[full] & keep) | (period[full % bits] & !keep);
        }
    }

    /// The raw backing words (for checkpointing).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a vector from raw words produced by
    /// [`PackedIntVec::as_words`]. Returns `None` when the word count
    /// does not match `(len, bits)`.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize, bits: u32) -> Option<Self> {
        if !(1..=64).contains(&bits) {
            return None;
        }
        let total_bits = len.checked_mul(bits as usize)?;
        if words.len() != total_bits.div_ceil(crate::words::WORD_BITS) {
            return None;
        }
        Some(Self {
            words,
            len,
            bits,
            max: crate::words::low_mask(bits),
        })
    }

    /// Iterates over all entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Number of entries equal to `value`.
    #[must_use]
    pub fn count_eq(&self, value: u64) -> usize {
        self.iter().filter(|&v| v == value).count()
    }
}

/// Number of leading `u64::MAX` words in `words`, tested eight words
/// per step (an AND-reduction the compiler vectorizes).
fn ones_prefix(words: &[u64]) -> usize {
    let mut n = 0;
    for chunk in words.chunks_exact(8) {
        if chunk.iter().fold(u64::MAX, |acc, &w| acc & w) != u64::MAX {
            break;
        }
        n += 8;
    }
    n + words[n..].iter().take_while(|&&w| w == u64::MAX).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_initialized_and_sized() {
        let v = PackedIntVec::new(100, 21);
        assert_eq!(v.len(), 100);
        assert_eq!(v.entry_bits(), 21);
        assert_eq!(v.max_value(), (1 << 21) - 1);
        assert!(v.iter().all(|x| x == 0));
        assert!(v.memory_bits() >= 2100);
    }

    #[test]
    fn all_ones_constructor() {
        let v = PackedIntVec::new_all_ones(50, 13);
        assert!(v.iter().all(|x| x == (1 << 13) - 1));
        assert_eq!(v.count_eq((1 << 13) - 1), 50);
    }

    #[test]
    fn straddling_entries_roundtrip() {
        // 21-bit entries straddle every third word boundary.
        let mut v = PackedIntVec::new(64, 21);
        for i in 0..64 {
            v.set(i, (i as u64 * 0x1_0101) & v.max_value());
        }
        for i in 0..64 {
            assert_eq!(v.get(i), (i as u64 * 0x1_0101) & v.max_value(), "i={i}");
        }
    }

    #[test]
    fn neighbors_are_not_disturbed() {
        let mut v = PackedIntVec::new(10, 21);
        v.fill(0x15_5555);
        v.set(5, 0);
        for i in 0..10 {
            let want = if i == 5 { 0 } else { 0x15_5555 };
            assert_eq!(v.get(i), want, "i={i}");
        }
    }

    #[test]
    fn full_width_64_bit_entries() {
        let mut v = PackedIntVec::new(5, 64);
        v.set(0, u64::MAX);
        v.set(4, 0x0123_4567_89AB_CDEF);
        assert_eq!(v.get(0), u64::MAX);
        assert_eq!(v.get(4), 0x0123_4567_89AB_CDEF);
        assert_eq!(v.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overwide_value_panics() {
        let mut v = PackedIntVec::new(4, 7);
        v.set(0, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let v = PackedIntVec::new(4, 7);
        let _ = v.get(4);
    }

    #[test]
    #[should_panic(expected = "entry width")]
    fn zero_width_panics() {
        let _ = PackedIntVec::new(4, 0);
    }

    #[test]
    fn update_range_rewrites_and_counts() {
        // 21-bit entries straddle word boundaries inside the range.
        let mut v = PackedIntVec::new(64, 21);
        for i in 0..64 {
            v.set(i, i as u64);
        }
        let changed = v.update_range(10, 40, |e| (e % 2 == 0).then_some(e + 1));
        assert_eq!(changed, 20);
        for i in 0..64 {
            let want = if (10..50).contains(&i) && i % 2 == 0 {
                i as u64 + 1
            } else {
                i as u64
            };
            assert_eq!(v.get(i), want, "i={i}");
        }
    }

    #[test]
    fn update_range_empty_and_full_width() {
        let mut v = PackedIntVec::new(8, 64);
        v.set(3, u64::MAX);
        assert_eq!(v.update_range(0, 0, |_| Some(0)), 0);
        let changed = v.update_range(0, 8, |e| (e == u64::MAX).then_some(7));
        assert_eq!(changed, 1);
        assert_eq!(v.get(3), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn update_range_out_of_bounds_panics() {
        let mut v = PackedIntVec::new(16, 7);
        v.update_range(10, 7, |_| None);
    }

    #[test]
    fn expire_skip_never_passes_a_non_empty_word() {
        // One expired stamp at each offset of the second 64-entry block,
        // all else empty: a skip that takes even one word too many for
        // empty leaves the stamp behind.
        for bits in 4u32..=24 {
            let empty = low_mask(bits);
            for at in 64..128 {
                for force_scalar in [false, true] {
                    crate::simd::set_scalar_override(Some(force_scalar));
                    let mut v = PackedIntVec::new_all_ones(192, bits);
                    v.set(at, 0);
                    let changed = v.expire_timestamps(0, 192, empty, empty, 9, 10, 0, 4);
                    crate::simd::set_scalar_override(None);
                    assert_eq!(changed, 1, "bits={bits} at={at} scalar={force_scalar}");
                    assert_eq!(v.count_eq(empty), 192, "bits={bits} at={at}");
                }
            }
        }
    }

    #[test]
    fn fill_writes_whole_words_and_keeps_the_tail() {
        // 21-bit entries straddle words; 10 entries use 210 bits, and
        // the fourth word's top 46 bits are unused: `fill` must not
        // touch them.
        let mut v = PackedIntVec::from_words(vec![0; 4], 10, 21).unwrap();
        v.fill(0x1F_FFFF);
        assert_eq!(
            v.as_words(),
            &[u64::MAX, u64::MAX, u64::MAX, low_mask(210 - 192)]
        );
        let mut w = PackedIntVec::from_words(vec![u64::MAX; 4], 10, 21).unwrap();
        w.fill(0);
        assert_eq!(w.as_words(), &[0, 0, 0, !low_mask(210 - 192)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]
        #[test]
        fn update_range_matches_get_set_model(
            bits in 1u32..=64,
            start in 0usize..150,
            count in 0usize..150,
            threshold in any::<u64>(),
        ) {
            let count = count.min(200 - start);
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut v = PackedIntVec::new(200, bits);
            for i in 0..200 {
                v.set(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
            }
            let mut model: Vec<u64> = (0..200).map(|i| v.get(i)).collect();
            let th = threshold & mask;
            let changed = v.update_range(start, count, |e| (e > th).then_some(e / 2));
            let mut expect_changed = 0;
            for item in model.iter_mut().take(start + count).skip(start) {
                if *item > th {
                    *item /= 2;
                    expect_changed += 1;
                }
            }
            prop_assert_eq!(changed, expect_changed);
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(v.get(i), *want, "i={}", i);
            }
        }

        #[test]
        fn expire_timestamps_matches_get_set_model(
            bits in 4u32..=24,
            ts_bits in 2u32..=24,
            len in 1usize..=600,
            start in 0usize..600,
            count in 0usize..600,
            now_seed in any::<u64>(),
            lo in 0u64..=1,
            // (run length, kind): 0 = all empty, 1 = dense mix of empty
            // markers and stamps, 2 = empty run ending in one stamp.
            // Empty runs make whole aligned 64-entry blocks empty (the
            // wide sweep's skip); kind 2 puts a lone stamp at an
            // arbitrary block offset, including a block's last word.
            runs in prop::collection::vec((1usize..200, 0u8..3), 1..12),
        ) {
            let ts_bits = ts_bits.min(bits);
            let ts_mask = (1u64 << ts_bits) - 1;
            let range = ts_mask.max(2); // all-ones stays reserved for "empty"
            let now = now_seed % range;
            let hi = (range / 2).max(lo);
            let start = start % len;
            let count = count.min(len - start);
            let mask = low_mask(bits);
            let empty = mask; // whole-entry all-ones, the TBF/SWBF idiom
            let stamp = |i: usize| {
                let raw = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((raw >> 8) % range) | (raw & !ts_mask & mask)
            };
            let mut init = Vec::with_capacity(len);
            for (run, kind) in runs {
                for r in 0..run {
                    let i = init.len();
                    let dense = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    init.push(match kind {
                        1 if !dense.is_multiple_of(5) => stamp(i),
                        2 if r + 1 == run => stamp(i),
                        _ => empty,
                    });
                }
            }
            init.resize(len, empty);
            let mut model = init.clone();
            let mut expect_changed = 0;
            for item in model.iter_mut().take(start + count).skip(start) {
                let ts = *item & ts_mask;
                if ts == ts_mask {
                    continue;
                }
                let age = if now >= ts { now - ts } else { range - ts + now };
                if !(lo..=hi).contains(&age) {
                    *item = empty;
                    expect_changed += 1;
                }
            }
            // Both dispatches: the wide sweep (with the empty-block
            // skip) and the scalar reference.
            for force_scalar in [false, true] {
                crate::simd::set_scalar_override(Some(force_scalar));
                let mut v = PackedIntVec::new(len, bits);
                for (i, &val) in init.iter().enumerate() {
                    v.set(i, val);
                }
                let changed = v.expire_timestamps(start, count, ts_mask, empty, now, range, lo, hi);
                crate::simd::set_scalar_override(None);
                prop_assert_eq!(changed, expect_changed, "scalar={}", force_scalar);
                for (i, want) in model.iter().enumerate() {
                    prop_assert_eq!(v.get(i), *want, "i={} scalar={}", i, force_scalar);
                }
            }
        }

        #[test]
        fn fill_matches_per_entry_set(
            bits in 1u32..=64,
            len in 0usize..400,
            value in any::<u64>(),
            seed in any::<u64>(),
        ) {
            // Start from arbitrary words, tail bits included: `fill` must
            // leave the bits past the last entry exactly as per-entry
            // `set` does, or checkpoint bytes would change.
            let n_words = (len * bits as usize).div_ceil(WORD_BITS);
            let words: Vec<u64> = (0..n_words as u64)
                .map(|w| (w ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let value = value & low_mask(bits);
            let mut v = PackedIntVec::from_words(words, len, bits).unwrap();
            let mut model = v.clone();
            for i in 0..len {
                model.set(i, value);
            }
            v.fill(value);
            prop_assert_eq!(v.as_words(), model.as_words());
        }

        #[test]
        #[allow(clippy::needless_range_loop)]
        fn matches_vec_model(
            bits in 1u32..=64,
            writes in prop::collection::vec((0usize..200, any::<u64>()), 0..400),
        ) {
            let mut v = PackedIntVec::new(200, bits);
            let mut model = vec![0u64; 200];
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            for (i, raw) in writes {
                let val = raw & mask;
                v.set(i, val);
                model[i] = val;
            }
            for i in 0..200 {
                prop_assert_eq!(v.get(i), model[i]);
            }
        }
    }
}
