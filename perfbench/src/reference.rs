//! The correctness side: the in-process reference report every served
//! run must match byte for byte, the reference detector's per-click
//! verdicts, and their accuracy against an exact `cfd_windows` oracle.

use crate::detectors::{count_window, serve_detector, time_window, timed_detector};
use crate::workload::{billing_registry, Case, PathKind, BATCH};
use cfd_adnet::pipeline::{run_sharded_pipeline, run_timed_sharded_pipeline, PipelineConfig};
use cfd_adnet::ServerState;
use cfd_stream::Click;
use cfd_windows::{
    DuplicateDetector, ExactSlidingDedup, ExactTimeSlidingDedup, TimedDuplicateDetector, Verdict,
};

/// Key bytes per click.
pub const KEY_LEN: usize = 16;

/// Clicks per call when replaying the reference detector.
const CHUNK: usize = 4096;

/// The pipeline settings every path uses.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        batch: BATCH,
        ..PipelineConfig::default()
    }
}

/// Everything a measured run is checked against.
pub struct Reference {
    /// `NetworkReport::to_json` of the in-process pipeline run.
    pub report_json: String,
    /// Per-click verdicts of the reference detector, in stream order.
    pub verdicts: Vec<Verdict>,
    /// Clicks the exact oracle calls distinct / duplicate.
    pub distinct: u64,
    pub duplicates: u64,
    /// Reference verdicts that disagree with the oracle.
    pub false_positives: u64,
    pub false_negatives: u64,
    /// Timed path only: the final `CFDG` state (the timed path has no
    /// gateway, so this stands in for its checkpoint).
    pub timed_state: Option<Vec<u8>>,
    /// Internal inconsistencies of the reference itself.
    pub errors: Vec<String>,
}

impl Reference {
    /// `1 − fp_rate`: share of oracle-distinct clicks judged distinct.
    pub fn specificity(&self) -> f64 {
        1.0 - self.false_positives as f64 / self.distinct.max(1) as f64
    }

    /// `1 − fn_rate`: share of oracle duplicates judged duplicate.
    pub fn recall(&self) -> f64 {
        1.0 - self.false_negatives as f64 / self.duplicates.max(1) as f64
    }
}

/// Flat `KEY_LEN`-stride keys of `clicks`.
pub fn flat_keys(clicks: &[Click]) -> Vec<u8> {
    let mut keys = Vec::with_capacity(clicks.len() * KEY_LEN);
    for c in clicks {
        keys.extend_from_slice(&c.key());
    }
    keys
}

/// Builds the reference for `clicks`. With `perturb`, the reference
/// report is computed over the stream minus its last click — a wrong
/// reference the served run must be caught disagreeing with.
pub fn build(c: &Case, clicks: &[Click], perturb: bool) -> Reference {
    let report_clicks = if perturb {
        &clicks[..clicks.len() - 1]
    } else {
        clicks
    };
    let registry = billing_registry(c.ads());
    let keys = flat_keys(clicks);
    let mut verdicts = Vec::with_capacity(clicks.len());
    let mut out = Vec::with_capacity(CHUNK);
    let (report, truth, timed_state) = match c.w.path {
        PathKind::Serve => {
            let outcome = run_sharded_pipeline(
                serve_detector(c),
                registry,
                report_clicks.iter().copied(),
                pipeline_config(),
                None,
            );
            let mut det = serve_detector(c);
            for chunk in keys.chunks(CHUNK * KEY_LEN) {
                det.observe_flat_into(chunk, KEY_LEN, &mut out);
                verdicts.extend_from_slice(&out);
            }
            let mut oracle = ExactSlidingDedup::new(count_window(c));
            let truth: Vec<bool> = keys
                .chunks_exact(KEY_LEN)
                .map(|k| oracle.observe(k) == Verdict::Duplicate)
                .collect();
            (outcome.report, truth, None)
        }
        PathKind::Timed => {
            let outcome = run_timed_sharded_pipeline(
                timed_detector(c),
                registry,
                report_clicks.iter().copied(),
                pipeline_config(),
                None,
            );
            let ticks: Vec<u64> = clicks.iter().map(|c| c.tick).collect();
            let mut det = timed_detector(c);
            for (kc, tc) in keys.chunks(CHUNK * KEY_LEN).zip(ticks.chunks(CHUNK)) {
                det.observe_flat_at_into(kc, KEY_LEN, tc, &mut out);
                verdicts.extend_from_slice(&out);
            }
            let (_, window_units, unit_ticks) = time_window(c);
            let mut oracle = ExactTimeSlidingDedup::new(window_units, unit_ticks);
            let truth: Vec<bool> = keys
                .chunks_exact(KEY_LEN)
                .zip(&ticks)
                .map(|(k, &t)| oracle.observe_at(k, t) == Verdict::Duplicate)
                .collect();
            let mut state = ServerState::new(det, outcome.registry);
            state.position = clicks.len() as u64;
            (outcome.report, truth, Some(state.checkpoint_bytes()))
        }
    };

    let mut errors = Vec::new();
    // The pipeline and the sequential detector must agree on what they
    // blocked: the duplicate verdicts on registered ads (billing files
    // clicks on unknown ads without consulting the verdict).
    let known = billing_registry(c.ads());
    let seq_dups = verdicts
        .iter()
        .zip(report_clicks)
        .filter(|(&v, c)| v == Verdict::Duplicate && known.campaign(c.id.ad).is_some())
        .count() as u64;
    if seq_dups != report.duplicates_blocked {
        errors.push(format!(
            "reference pipeline blocked {} clicks, sequential detector {seq_dups}",
            report.duplicates_blocked
        ));
    }

    let (mut distinct, mut duplicates, mut fp, mut fneg) = (0u64, 0u64, 0u64, 0u64);
    for (&v, &dup) in verdicts.iter().zip(&truth) {
        let said_dup = v == Verdict::Duplicate;
        duplicates += u64::from(dup);
        distinct += u64::from(!dup);
        fp += u64::from(said_dup && !dup);
        fneg += u64::from(!said_dup && dup);
    }
    Reference {
        report_json: report.to_json(),
        verdicts,
        distinct,
        duplicates,
        false_positives: fp,
        false_negatives: fneg,
        timed_state,
        errors,
    }
}
