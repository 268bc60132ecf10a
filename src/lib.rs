//! # click-fraud-detection
//!
//! A complete Rust reproduction of *Detecting Click Fraud in Pay-Per-Click
//! Streams of Online Advertising Networks* (Zhang & Guan, ICDCS 2008):
//! one-pass, small-memory duplicate-click detection over jumping and
//! sliding windows with **zero false negatives**.
//!
//! This facade crate re-exports the whole suite; the pieces are also
//! usable individually:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] (`cfd-core`) | The paper's contribution: [`prelude::Gbf`], [`prelude::Tbf`], and their time-based / jumping extensions |
//! | [`windows`] (`cfd-windows`) | Window models, the [`prelude::DuplicateDetector`] trait, exact oracles |
//! | [`bloom`] (`cfd-bloom`) | Classical/counting/stable Bloom filters and the Metwally et al. baseline |
//! | [`stream`] (`cfd-stream`) | Click model, workload generators, trace I/O |
//! | [`adnet`] (`cfd-adnet`) | Pay-per-click network simulator with detector-guarded billing |
//! | [`analysis`] (`cfd-analysis`) | Closed-form false-positive models and sizing solvers |
//! | [`telemetry`] (`cfd-telemetry`) | Lock-free counters/gauges/histograms and detector health (see `docs/OBSERVABILITY.md`) |
//! | [`hash`] / [`bits`] | The hashing and bit-storage substrates |
//!
//! ## Quick start
//!
//! ```rust
//! use click_fraud_detection::prelude::*;
//!
//! # fn main() -> Result<(), cfd_core::ConfigError> {
//! // Detect duplicate clicks over a sliding window of the last 4096
//! // clicks, spending ~14 timestamp entries per window element.
//! let cfg = TbfConfig::builder(4096).entries(4096 * 14).build()?;
//! let mut detector = Tbf::new(cfg)?;
//!
//! assert_eq!(detector.observe(b"203.0.113.9|cookie|ad-17"), Verdict::Distinct);
//! assert_eq!(detector.observe(b"203.0.113.9|cookie|ad-17"), Verdict::Duplicate);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (botnet attacks, ad-network
//! billing, dual-sided auditing, time-based windows) and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sweep;

pub use cfd_adnet as adnet;
pub use cfd_analysis as analysis;
pub use cfd_bits as bits;
pub use cfd_bloom as bloom;
pub use cfd_core as core;
pub use cfd_hash as hash;
pub use cfd_stream as stream;
pub use cfd_telemetry as telemetry;
pub use cfd_windows as windows;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cfd_adnet::{AdNetwork, Advertiser, AdvertiserId, Campaign, PipelineTelemetry};
    pub use cfd_core::{
        Gbf, GbfConfig, GbfLayout, JumpingTbf, OpCounters, Tbf, TbfConfig, TimeGbf, TimeTbf,
    };
    pub use cfd_stream::{
        AdId, BotnetConfig, BotnetStream, Click, ClickId, DuplicateInjector, PublisherId,
        UniqueClickStream,
    };
    pub use cfd_telemetry::{DetectorHealth, DetectorStats, Registry as TelemetryRegistry};
    pub use cfd_windows::{
        DuplicateDetector, ExactJumpingDedup, ExactSlidingDedup, ObservableDetector, StreamSummary,
        Verdict, WindowSpec,
    };
}
