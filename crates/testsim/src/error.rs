//! Typed campaign errors.
//!
//! Every way a [`Campaign`](crate::campaign::Campaign) can fail is an
//! explicit [`CampaignError`] variant returned from
//! [`Campaign::try_run`](crate::campaign::Campaign::try_run).  The legacy
//! [`Campaign::run`](crate::campaign::Campaign::run) entry point remains a
//! thin wrapper that panics on error, preserving the historical behaviour
//! for callers that never look at a `Result`.
//!
//! The taxonomy is deliberately flat and `Clone + PartialEq` so tests can
//! assert exact failures and observers can be handed owned copies.  I/O
//! errors are captured as `(path, message)` pairs rather than as
//! [`std::io::Error`] values, which are neither cloneable nor comparable.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

/// Upper bound on the `threads` worker count.  The fan-out spawns one
/// OS thread per worker; anything beyond this is a configuration bug (for
/// example a byte count pasted into the wrong field), not a plausible host.
pub const MAX_THREADS: usize = 4096;

/// Lifecycle phase in which an observer failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverPhase {
    /// `on_begin`, before the first segment is simulated.
    Begin,
    /// `on_segment`, at a segment boundary.
    Segment,
    /// `on_finish`, after the outcome was assembled.
    Finish,
}

impl fmt::Display for ObserverPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObserverPhase::Begin => "on_begin",
            ObserverPhase::Segment => "on_segment",
            ObserverPhase::Finish => "on_finish",
        })
    }
}

/// Everything that can go wrong while planning or running a campaign.
///
/// Invalid-configuration variants are detected at plan time, before any
/// simulation work happens.  Observer and checkpoint failures that occur
/// *during* a run are recovered from — the run completes and the failure is
/// reported on [`CampaignOutcome::incidents`](crate::campaign::CampaignOutcome::incidents)
/// — so those variants only surface as hard errors when nothing was run yet
/// (for example a checkpoint file that cannot be loaded for resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// An explicit `block_words` override was not one of the supported lane
    /// block widths 1, 4 or 8.
    InvalidBlockWords {
        /// The rejected override value.
        requested: usize,
    },
    /// The `threads` worker count was zero or implausibly large (greater
    /// than [`MAX_THREADS`]).
    InvalidThreads {
        /// The rejected override value.
        requested: usize,
    },
    /// Checkpointing or resume was requested for a zero-pattern budget.
    /// A zero-pattern campaign has no segment boundaries, so no checkpoint
    /// can ever be written or honoured.
    ZeroPatternBudget,
    /// An observer callback panicked, or reported a latched failure via
    /// [`CampaignObserver::failure`](crate::campaign::CampaignObserver::failure).
    /// The observer is latched out of the remaining lifecycle and the run
    /// continues; this variant is reported on the outcome.
    ObserverFailure {
        /// Index of the observer in registration order.
        observer: usize,
        /// Lifecycle phase in which the failure happened.
        phase: ObserverPhase,
        /// Panic payload or latched error message.
        message: String,
    },
    /// A simulation worker panicked and the deterministic single-threaded
    /// re-run of the quarantined shard panicked as well, so the result
    /// could not be recovered.
    WorkerPanic {
        /// Panic payload of the failed worker.
        message: String,
    },
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// Path of the checkpoint file.
        path: String,
        /// Underlying I/O error message.
        message: String,
    },
    /// A checkpoint file was read but its contents are not a valid
    /// checkpoint of the supported version.
    CheckpointFormat {
        /// Path of the checkpoint file.
        path: String,
        /// What exactly failed to parse.
        message: String,
    },
    /// A structurally valid checkpoint does not belong to this campaign
    /// (different netlist, fault list, seed, budget or pass kind).
    CheckpointMismatch {
        /// The field that disagreed.
        field: String,
        /// Value expected by the resuming campaign.
        expected: String,
        /// Value found in the checkpoint file.
        found: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidBlockWords { requested } => write!(
                f,
                "invalid block_words override {requested}: supported lane block widths are 1, 4 and 8"
            ),
            CampaignError::InvalidThreads { requested } => write!(
                f,
                "invalid threads override {requested}: must be between 1 and {MAX_THREADS}"
            ),
            CampaignError::ZeroPatternBudget => {
                f.write_str("checkpoint/resume requested for a zero-pattern budget: no segment boundaries exist")
            }
            CampaignError::ObserverFailure { observer, phase, message } => {
                write!(f, "observer {observer} failed in {phase}: {message}")
            }
            CampaignError::WorkerPanic { message } => {
                write!(f, "simulation worker panicked and the single-threaded re-run panicked too: {message}")
            }
            CampaignError::CheckpointIo { path, message } => {
                write!(f, "checkpoint I/O error on {path}: {message}")
            }
            CampaignError::CheckpointFormat { path, message } => {
                write!(f, "malformed checkpoint {path}: {message}")
            }
            CampaignError::CheckpointMismatch { field, expected, found } => write!(
                f,
                "checkpoint does not match this campaign: {field} expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Renders a panic payload (from [`std::panic::catch_unwind`]) as a string.
///
/// Panic payloads are `Box<dyn Any>`; in practice they are almost always a
/// `&str` or `String` from `panic!`.  Anything else is reported opaquely.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let err = CampaignError::InvalidBlockWords { requested: 3 };
        assert!(err.to_string().contains("block_words"));
        assert!(err.to_string().contains('3'));
        let err = CampaignError::InvalidThreads { requested: 0 };
        assert!(err.to_string().contains("threads"));
        let err = CampaignError::ObserverFailure {
            observer: 2,
            phase: ObserverPhase::Segment,
            message: "boom".into(),
        };
        assert!(err.to_string().contains("on_segment"));
        assert!(err.to_string().contains("boom"));
        let err = CampaignError::CheckpointMismatch {
            field: "digest".into(),
            expected: "a".into(),
            found: "b".into(),
        };
        assert!(err.to_string().contains("digest"));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = CampaignError::ZeroPatternBudget;
        assert_eq!(a.clone(), a);
        assert_ne!(a, CampaignError::InvalidThreads { requested: 9 });
        let _: &dyn std::error::Error = &a;
    }

    #[test]
    fn panic_messages_extract_str_and_string() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload.as_ref()), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(payload.as_ref()), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42usize);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
