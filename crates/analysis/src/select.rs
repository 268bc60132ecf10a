//! Spec-driven backend selection: resolving `algo = "auto"` from the
//! closed forms.
//!
//! A scenario sweep declares a memory budget (cells per window element)
//! and a target false-positive rate; `auto` asks the harness to pick
//! the backend. This module answers from the models alone — no stream
//! is run:
//!
//! 1. Predict each count-window backend's FP rate at the declared
//!    geometry, using the same budget arithmetic the registry
//!    constructors apply ([`tbf`], [`gbf`], [`apbf`], [`swbf`]).
//! 2. Keep the candidates whose prediction meets the target.
//! 3. Among those, prefer the fastest: the measured equal-memory
//!    shootout ranking (`apbf > gbf > swbf > tbf`, EXPERIMENTS.md) is
//!    stable across batch sizes and layouts, so it is baked in as
//!    [`THROUGHPUT_RANK`].
//!
//! If nothing meets the target the lowest predicted rate wins — the
//! caller gets the least-bad backend plus `meets_target = false` to
//! report.
//!
//! Under a **time** window only the paper's two timestamped backends
//! exist; the same Bloom arithmetic applies with `n` read as expected
//! clicks per window, so `auto` resolves between `time-tbf` and
//! `time-gbf`.

use crate::{apbf, gbf, swbf, tbf};

/// Backends fastest-first, from the equal-memory shootout
/// (EXPERIMENTS.md "Equal-memory shootout": apbf 5.34 M/s, gbf 4.91,
/// swbf 4.59, tbf 2.84 at 2^20 × 256 bits).
pub const THROUGHPUT_RANK: &[&str] = &["apbf", "gbf", "swbf", "tbf"];

/// One backend's predicted standing at a declared geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Backend name as the registry knows it.
    pub algo: &'static str,
    /// Closed-form FP prediction at the geometry.
    pub predicted_fp: f64,
}

/// The resolution of one `algo = "auto"` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoChoice {
    /// The chosen backend.
    pub algo: &'static str,
    /// Its predicted FP rate.
    pub predicted_fp: f64,
    /// Whether the prediction meets the requested target (when not,
    /// the choice is merely the least bad).
    pub meets_target: bool,
    /// Every candidate considered, for the report.
    pub candidates: Vec<Candidate>,
}

/// Timestamp width of the TBF family at window `n` (matches
/// `cfd_bits::words::bits_for_value(2n − 1)`).
fn ts_bits(n: usize) -> u32 {
    let v = 2 * n.max(1) as u64 - 1;
    64 - v.leading_zeros()
}

/// Predicted APBF FP at a total budget: the same scattered-layout
/// shape search `ApbfConfig::for_budget` runs, scored with the
/// [`apbf`] steady-state model.
fn apbf_predict(n: usize, total_bits: usize) -> Option<f64> {
    let mut best: Option<f64> = None;
    for k in 2..=16usize {
        for l in 1..=48usize {
            let slice_bits = (total_bits / (k + l + 1)) / 64 * 64;
            if slice_bits == 0 {
                continue;
            }
            let fp = apbf::fp_sliding(n, k, l, slice_bits);
            if best.is_none_or(|b| fp < b) {
                best = Some(fp);
            }
        }
    }
    best
}

/// Predicted SWBF FP at a total budget: the same fingerprint-width
/// search `SwbfConfig::for_budget` runs, scored with the [`swbf`]
/// model. Mirrors the config's layout constants (`B = 4` candidates,
/// `K = 4` side probes, side filter = 1/32 of the budget).
fn swbf_predict(n: usize, total_bits: usize) -> Option<f64> {
    const B: usize = 4;
    const K_SIDE: usize = 4;
    let side_bits = total_bits / 32;
    let ts = ts_bits(n) as usize;
    let side_cells = side_bits / ts;
    let mut best: Option<f64> = None;
    for f in 8..=24u32 {
        let cells = (total_bits - side_bits) / (f as usize + ts);
        if cells < B || side_cells < K_SIDE {
            continue;
        }
        let fp = swbf::fp_sliding(n, cells, side_cells, f, B, K_SIDE);
        if best.is_none_or(|b| fp < b) {
            best = Some(fp);
        }
    }
    best
}

/// Resolves `algo = "auto"` for a window of `n` elements at
/// `cells_per_element` budget, `k` hashes, and `q` sub-windows. A
/// `time_based` window is sized for `n` expected clicks and resolves
/// between `time-tbf` and `time-gbf` with the same Bloom arithmetic
/// (APBF and SWBF have no time-window variant).
///
/// # Panics
///
/// Panics if `n`, `cells_per_element`, `k`, or `q` is zero, or
/// `target_fp` is not in `(0, 1)`.
#[must_use]
pub fn auto_select(
    n: usize,
    q: usize,
    cells_per_element: usize,
    k: usize,
    target_fp: f64,
    time_based: bool,
) -> AutoChoice {
    assert!(
        n > 0 && cells_per_element > 0 && k > 0 && q > 0,
        "bad geometry"
    );
    assert!(target_fp > 0.0 && target_fp < 1.0, "bad target_fp");
    let [tbf_name, gbf_name] = if time_based {
        ["time-tbf", "time-gbf"]
    } else {
        ["tbf", "gbf"]
    };
    let mut candidates = vec![
        Candidate {
            algo: tbf_name,
            predicted_fp: tbf::fp_sliding(n * cells_per_element, k, n),
        },
        Candidate {
            algo: gbf_name,
            predicted_fp: gbf::fp_worst_case(n.div_ceil(q) * cells_per_element, k, n, q),
        },
    ];
    if time_based {
        return choose(candidates, target_fp);
    }
    if let Some(fp) = apbf_predict(n, n * cells_per_element) {
        candidates.push(Candidate {
            algo: "apbf",
            predicted_fp: fp,
        });
    }
    let swbf_total = n * cells_per_element * (ts_bits(n) as usize + 12);
    if let Some(fp) = swbf_predict(n, swbf_total) {
        candidates.push(Candidate {
            algo: "swbf",
            predicted_fp: fp,
        });
    }
    choose(candidates, target_fp)
}

fn rank(algo: &str) -> usize {
    // Time variants rank as their count-window counterparts.
    let base = algo.strip_prefix("time-").unwrap_or(algo);
    THROUGHPUT_RANK
        .iter()
        .position(|&a| a == base)
        .unwrap_or(THROUGHPUT_RANK.len())
}

fn choose(candidates: Vec<Candidate>, target_fp: f64) -> AutoChoice {
    let meeting = candidates
        .iter()
        .filter(|c| c.predicted_fp <= target_fp)
        .min_by_key(|c| rank(c.algo));
    let (algo, predicted_fp, meets_target) = match meeting {
        Some(c) => (c.algo, c.predicted_fp, true),
        None => {
            let least_bad = candidates
                .iter()
                .min_by(|a, b| a.predicted_fp.total_cmp(&b.predicted_fp))
                .expect("candidate list is never empty");
            (least_bad.algo, least_bad.predicted_fp, false)
        }
    };
    AutoChoice {
        algo,
        predicted_fp,
        meets_target,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_picks_gbf() {
        // A "cell" is each backend's native unit, so at 14
        // cells/element APBF holds only 14 *bits* per element — not
        // enough for 1% — while GBF (14 filter bits/element) just
        // clears it and outranks the timestamped backends.
        let c = auto_select(1 << 16, 8, 14, 10, 0.01, false);
        assert_eq!(c.algo, "gbf", "{c:?}");
        assert!(c.meets_target);
        assert!(c.predicted_fp <= 0.01);
        assert_eq!(c.candidates.len(), 4);
    }

    #[test]
    fn generous_budget_picks_the_fastest_backend() {
        // At 64 cells/element even APBF's per-bit budget clears 1%,
        // and it is the fastest backend in the shootout ranking.
        let c = auto_select(1 << 16, 8, 64, 10, 0.01, false);
        assert_eq!(c.algo, "apbf", "{c:?}");
        assert!(c.meets_target);
    }

    #[test]
    fn starved_budget_returns_least_bad() {
        // 1 bit per element cannot reach 1e-6 on any backend.
        let c = auto_select(1 << 16, 8, 1, 2, 1e-6, false);
        assert!(!c.meets_target);
        let min = c
            .candidates
            .iter()
            .map(|x| x.predicted_fp)
            .fold(f64::INFINITY, f64::min);
        assert!((c.predicted_fp - min).abs() < 1e-12);
    }

    #[test]
    fn predictions_track_the_budget() {
        let tight = auto_select(1 << 14, 8, 4, 3, 0.5, false);
        let roomy = auto_select(1 << 14, 8, 20, 10, 0.5, false);
        for (t, r) in tight.candidates.iter().zip(&roomy.candidates) {
            assert_eq!(t.algo, r.algo);
            assert!(
                r.predicted_fp < t.predicted_fp,
                "{}: {} !< {}",
                t.algo,
                r.predicted_fp,
                t.predicted_fp
            );
        }
    }

    #[test]
    fn timed_auto_resolves_to_a_time_backend() {
        let c = auto_select(1 << 14, 8, 14, 10, 0.01, true);
        assert!(c.algo.starts_with("time-"), "{c:?}");
        assert!(c.meets_target);
        assert_eq!(c.candidates.len(), 2);
    }

    #[test]
    fn throughput_rank_breaks_ties_toward_apbf_over_gbf() {
        // Loose target: many meet it; the winner must be the best-ranked
        // of those that do.
        let c = auto_select(1 << 16, 8, 14, 10, 0.9, false);
        let best_rank = c
            .candidates
            .iter()
            .filter(|x| x.predicted_fp <= 0.9)
            .map(|x| rank(x.algo))
            .min()
            .unwrap();
        assert_eq!(rank(c.algo), best_rank);
    }
}
