//! Canonical usage text and typed usage errors for the `cfd` binary.
//!
//! The usage constants are the **single source** of the `cfd serve` /
//! `cfd replay-client` help: the binary splices them into its usage
//! template, and `tests/readme_sync.rs` asserts `README.md` embeds them
//! verbatim — so the CLI help and the README can never drift apart.
//!
//! [`UsageError`] is the typed rejection for malformed option values
//! (`--shards 0`, `--batch 0`, a zero tenant memory budget, unparsable
//! numbers) and for options a command does not take (a typo, or a flag
//! that no longer exists): the binary maps it to its usage-printing
//! error path, and the variants are unit-tested here so a refactor
//! can't silently turn a clean rejection back into a panic.

use std::fmt;

/// A rejected command-line option, with enough structure to test the
/// error paths without string-matching free-form prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// An option that must be at least 1 was zero (`--shards 0`,
    /// `--batch 0`, `--window 0`, `--cells-per-element 0` — the last
    /// two would size a detector, or every tenant of an arena, at a
    /// zero-bit memory budget).
    Zero(&'static str),
    /// An option's value failed to parse.
    Bad {
        /// The option name, without the `--` prefix.
        option: &'static str,
        /// The rejected raw value.
        value: String,
    },
    /// A required option was not given.
    Missing(&'static str),
    /// An option's value parsed but was rejected for a stated reason
    /// (an unreadable scenario file, a malformed spec, an unknown
    /// enum value).
    Invalid {
        /// The option name, without the `--` prefix.
        option: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// An argument the command does not take (a misspelt or retired
    /// option, or a stray positional value).
    Unknown(String),
    /// An option that requires a value was the last argument.
    MissingValue(&'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero(option) => write!(f, "--{option} must be at least 1"),
            Self::Bad { option, value } => write!(f, "--{option}: bad value `{value}`"),
            Self::Missing(option) => write!(f, "--{option} is required"),
            Self::Invalid { option, reason } => write!(f, "--{option}: {reason}"),
            Self::Unknown(arg) => write!(f, "unrecognized argument `{arg}`"),
            Self::MissingValue(option) => write!(f, "--{option} requires a value"),
        }
    }
}

impl std::error::Error for UsageError {}

/// Validates that an already-parsed count option is at least 1.
///
/// # Errors
///
/// Returns [`UsageError::Zero`] when `value == 0`.
pub fn positive(option: &'static str, value: usize) -> Result<usize, UsageError> {
    if value == 0 {
        Err(UsageError::Zero(option))
    } else {
        Ok(value)
    }
}

/// Parses a count option that must be at least 1.
///
/// # Errors
///
/// Returns [`UsageError::Bad`] when `raw` is not a number and
/// [`UsageError::Zero`] when it parses to 0.
pub fn parse_positive(option: &'static str, raw: &str) -> Result<usize, UsageError> {
    let value: usize = raw.parse().map_err(|_| UsageError::Bad {
        option,
        value: raw.to_owned(),
    })?;
    positive(option, value)
}

/// Checks an option name (without the `--` prefix) against the
/// options a command takes.
///
/// # Errors
///
/// Returns [`UsageError::Unknown`] naming `--{name}` when `name` is not
/// in `accepted`, so a retired or misspelt option fails loudly instead
/// of being silently ignored.
pub fn check_option(name: &str, accepted: &[&str]) -> Result<(), UsageError> {
    if accepted.contains(&name) {
        Ok(())
    } else {
        Err(UsageError::Unknown(format!("--{name}")))
    }
}

/// The `cfd serve` usage block. Spliced into the binary's help text
/// and asserted verbatim in `README.md`.
pub const SERVE_USAGE: &str = "\
  serve      run the long-lived billing gateway over a socket or file
             --listen unix:PATH|tcp:ADDR|tail:FILE
             [--algo <backend>] [--window <N>] [--shards <S>]
             [--sub-windows <Q>] [--cells-per-element <c>] [--k <hashes>]
             [--seed <u64>] [--layout scattered|blocked] [--batch <B>]
             [--queue <Q>] [--pin-workers]
             [--ads <N>] [--hub-batches <batches>] [--checkpoint <file>]
             [--checkpoint-every <clicks>] [--resume]
             [--report-json <file>] [--metrics[=millis]] [--metrics-json]
             (any `cfd algos` backend; clicks arrive as CFDW wire frames,
              flow through a bounded hub into checkpoint-delimited
              pipeline segments, and the complete billing state is
              persisted after every segment; SIGTERM/SIGINT or a client
              DRAIN frame drains gracefully -- final segment, final
              checkpoint, final report; --resume restarts from
              --checkpoint, and the HELLO position makes clients skip
              everything the checkpoint already covers; --ads N bills
              against the same fixed registry as `cfd run --ads N`, so
              the two reports are comparable byte for byte)";

/// The `cfd replay-client` usage block. Spliced into the binary's help
/// text and asserted verbatim in `README.md`.
pub const REPLAY_USAGE: &str = "\
  replay-client
             stream a recorded trace to a running gateway
             --connect unix:PATH|tcp:ADDR|tail:FILE --trace <file>
             [--frame-clicks <N>] [--limit <clicks>] [--drain]
             [--throttle-ms <millis>] [--retries <attempts>]
             (dials with capped exponential backoff until the server is
              up; every (re)connect reads the server HELLO position and
              resumes from it, so a crashed-and-restarted server never
              double-bills and never misses a click; --drain asks the
              server to shut down once this trace is fully processed)";

/// The `cfd sweep` usage block. Spliced into the binary's help text
/// and asserted verbatim in `README.md`.
pub const SWEEP_USAGE: &str = "\
  sweep      brute-force a scenario's declared detector grid
             --scenario <file.toml> [--quick] [--out <report.json>]
             [--table]
             (compiles the spec's traffic mix into one click stream,
              runs every (algo, cells, k, Q, layout, shards, batch)
              grid point against it -- `algo = \"auto\"` resolves from
              the closed-form FP models -- and writes a
              `cfd-bench-sweep/1` report with per-config accuracy,
              memory, and median throughput plus compare-groups rows;
              `tools/check_bench.py` validates the artifact; --quick
              caps the stream for CI smoke runs)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_are_rejected_not_panicked() {
        for option in ["shards", "batch", "queue", "window", "cells-per-element"] {
            let err = positive(option, 0).unwrap_err();
            assert_eq!(err, UsageError::Zero(option));
            assert_eq!(err.to_string(), format!("--{option} must be at least 1"));
        }
    }

    #[test]
    fn positive_counts_pass_through() {
        assert_eq!(positive("shards", 4), Ok(4));
        assert_eq!(parse_positive("batch", "512"), Ok(512));
    }

    #[test]
    fn unparsable_values_name_the_option_and_value() {
        let err = parse_positive("shards", "four").unwrap_err();
        assert_eq!(
            err,
            UsageError::Bad {
                option: "shards",
                value: "four".to_owned(),
            }
        );
        assert_eq!(err.to_string(), "--shards: bad value `four`");
        assert_eq!(
            parse_positive("batch", "0"),
            Err(UsageError::Zero("batch")),
            "`0` parses, then fails the at-least-1 check"
        );
        assert_eq!(
            parse_positive("window", "-3"),
            Err(UsageError::Bad {
                option: "window",
                value: "-3".to_owned(),
            })
        );
    }

    #[test]
    fn options_a_command_does_not_take_are_rejected_by_name() {
        let accepted = ["queue", "batch", "pin-workers"];
        assert_eq!(check_option("queue", &accepted), Ok(()));
        let err = check_option("transport", &accepted).unwrap_err();
        assert_eq!(err, UsageError::Unknown("--transport".to_owned()));
        assert_eq!(err.to_string(), "unrecognized argument `--transport`");
        assert_eq!(
            check_option("ring-capacity", &accepted),
            Err(UsageError::Unknown("--ring-capacity".to_owned()))
        );
    }

    #[test]
    fn structured_variants_render_their_option_names() {
        assert_eq!(
            UsageError::Missing("scenario").to_string(),
            "--scenario is required"
        );
        assert_eq!(
            UsageError::Invalid {
                option: "scenario",
                reason: "nosuch.toml: No such file or directory (os error 2)".to_owned(),
            }
            .to_string(),
            "--scenario: nosuch.toml: No such file or directory (os error 2)"
        );
        assert_eq!(
            UsageError::Unknown("--bogus".to_owned()).to_string(),
            "unrecognized argument `--bogus`"
        );
        assert_eq!(
            UsageError::MissingValue("out").to_string(),
            "--out requires a value"
        );
    }
}
