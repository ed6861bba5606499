//! Deterministic failpoint (chaos) injection for robustness testing.
//!
//! Fittingly for a fault-simulation library, the crash-safety layer is
//! tested by injecting faults into the engine itself.  A [`ChaosPlan`]
//! names exact injection sites — worker panics by `(fan-out, item)`
//! coordinate, checkpoint write failures by segment index — and is armed
//! process-wide with [`arm`].  While armed, the engine consults the plan at
//! each site; the returned [`ChaosGuard`] disarms on drop and serializes
//! concurrent chaos tests, so injection is deterministic and cannot leak
//! between tests.
//!
//! Injection coordinates are deterministic by construction:
//!
//! * **Worker panics** are keyed by `(fan-out call index, item index)`.
//!   Fan-out calls ([`sharded_map`](crate::differential) and friends) happen
//!   in a fixed order on the single campaign thread, and item indices are
//!   positions in the deterministic shard order — no wall clock, no thread
//!   scheduling.  The quarantined re-run path does not consult failpoints,
//!   so an injected panic fires exactly once and recovery always succeeds.
//! * **Checkpoint I/O failures** are keyed by the segment index whose
//!   checkpoint is being written.
//! * **Observer errors** need no global state at all: [`ChaosObserver`] is
//!   an ordinary observer that panics at the configured segment indices.
//!
//! The module is compiled unconditionally (it is a handful of atomics and a
//! mutex) but every query is a single relaxed atomic load while disarmed.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::campaign::{CampaignObserver, ObserverControl, SegmentSnapshot};

/// Whether a chaos plan is currently armed.  Checked lock-free on every
/// injection site so the disarmed fast path costs one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan plus its per-run counters.
fn state() -> &'static Mutex<ChaosState> {
    static STATE: OnceLock<Mutex<ChaosState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(ChaosState {
            plan: ChaosPlan::new(),
            fan_out_calls: 0,
        })
    })
}

/// Serializes chaos sessions: only one armed plan may exist at a time, so
/// concurrently running tests cannot observe each other's injections.
fn session() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A chaos test that panicked while holding a guard poisons the mutex;
    // the state it protects is still coherent (we only ever replace it
    // wholesale), so recover rather than cascade the poison.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct ChaosState {
    plan: ChaosPlan,
    fan_out_calls: u64,
}

/// A deterministic set of injection sites.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Worker panic sites as `(fan-out call index, item index)` pairs.
    pub worker_panics: BTreeSet<(u64, usize)>,
    /// Segment indices whose checkpoint write fails with an I/O error.
    pub checkpoint_io: BTreeSet<usize>,
}

impl ChaosPlan {
    /// An empty plan: armed but injecting nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a worker panic at the given `(fan-out call, item)` coordinate.
    pub fn worker_panic(mut self, call: u64, item: usize) -> Self {
        self.worker_panics.insert((call, item));
        self
    }

    /// Adds a checkpoint write failure at the given segment index.
    pub fn checkpoint_io(mut self, segment: usize) -> Self {
        self.checkpoint_io.insert(segment);
        self
    }

    /// Derives a pseudo-random worker panic pattern from `seed`: each of
    /// the first `calls × items` coordinates fires with probability
    /// `1/denominator`.  Same seed, same plan — the schedule is a pure
    /// function of the arguments.
    pub fn seeded(seed: u64, calls: u64, items: usize, denominator: u64) -> Self {
        let mut plan = Self::new();
        let denominator = denominator.max(1);
        for call in 0..calls {
            for item in 0..items {
                let h = splitmix64(seed ^ (call << 32) ^ item as u64);
                if h.is_multiple_of(denominator) {
                    plan.worker_panics.insert((call, item));
                }
            }
        }
        plan
    }
}

/// SplitMix64 — small, seedable, statistically decent; used only to derive
/// deterministic injection schedules.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Keeps the plan armed until dropped.  Holding the guard also holds the
/// chaos session lock, so overlapping chaos tests run one at a time.
pub struct ChaosGuard {
    _session: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        let mut state = lock(state());
        state.plan = ChaosPlan::new();
        state.fan_out_calls = 0;
    }
}

/// Arms `plan` process-wide and returns the guard that disarms it.
///
/// Blocks until any previously armed plan is dropped.
pub fn arm(plan: ChaosPlan) -> ChaosGuard {
    let guard = lock(session());
    {
        let mut state = lock(state());
        state.plan = plan;
        state.fan_out_calls = 0;
    }
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _session: guard }
}

/// Called once at the start of every multi-worker fan-out.  Returns the
/// fan-out's chaos call index while armed, `None` otherwise.
pub(crate) fn begin_fan_out() -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut state = lock(state());
    let call = state.fan_out_calls;
    state.fan_out_calls += 1;
    Some(call)
}

/// Whether the armed plan injects a worker panic at `(call, item)`.
pub(crate) fn worker_panic_armed(call: Option<u64>, item: usize) -> bool {
    let Some(call) = call else { return false };
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    lock(state()).plan.worker_panics.contains(&(call, item))
}

/// Simulated I/O failure for the checkpoint written at `segment`, when the
/// armed plan lists it.
pub(crate) fn checkpoint_io_error(segment: usize) -> Option<std::io::Error> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    if lock(state()).plan.checkpoint_io.contains(&segment) {
        Some(std::io::Error::other(format!(
            "failpoint: injected checkpoint write failure at segment {segment}"
        )))
    } else {
        None
    }
}

/// An observer that panics at configured segment indices — the injection
/// vehicle for "observer error" chaos.  Counts its lifecycle calls so tests
/// can verify it was latched out after the failure.
#[derive(Debug, Default)]
pub struct ChaosObserver {
    /// Segment indices at which `on_segment` panics.
    pub panic_on: BTreeSet<usize>,
    /// Number of `on_segment` calls that returned normally.
    pub segments_seen: usize,
    /// Whether `on_finish` ran.
    pub finished: bool,
}

impl ChaosObserver {
    /// An observer that panics when it sees segment index `segment`.
    pub fn panic_at(segment: usize) -> Self {
        let mut panic_on = BTreeSet::new();
        panic_on.insert(segment);
        Self {
            panic_on,
            segments_seen: 0,
            finished: false,
        }
    }
}

impl CampaignObserver for ChaosObserver {
    fn on_segment(&mut self, snapshot: &SegmentSnapshot) -> ObserverControl {
        if self.panic_on.contains(&snapshot.segment) {
            panic!(
                "failpoint: injected observer panic at segment {}",
                snapshot.segment
            );
        }
        self.segments_seen += 1;
        ObserverControl::Continue
    }

    fn on_finish(&mut self, _outcome: &crate::campaign::CampaignOutcome) {
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_inject_nothing() {
        assert_eq!(begin_fan_out(), None);
        assert!(!worker_panic_armed(Some(0), 0));
        assert!(!worker_panic_armed(None, 0));
        assert!(checkpoint_io_error(0).is_none());
    }

    #[test]
    fn armed_plan_fires_at_exact_coordinates() {
        let guard = arm(ChaosPlan::new().worker_panic(1, 2).checkpoint_io(3));
        assert_eq!(begin_fan_out(), Some(0));
        assert_eq!(begin_fan_out(), Some(1));
        assert!(!worker_panic_armed(Some(0), 2));
        assert!(worker_panic_armed(Some(1), 2));
        assert!(!worker_panic_armed(Some(1), 3));
        assert!(checkpoint_io_error(2).is_none());
        let err = checkpoint_io_error(3);
        assert!(err.is_some_and(|e| e.to_string().contains("segment 3")));
        drop(guard);
        assert_eq!(begin_fan_out(), None);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = ChaosPlan::seeded(7, 4, 16, 4);
        let b = ChaosPlan::seeded(7, 4, 16, 4);
        assert_eq!(a.worker_panics, b.worker_panics);
        assert!(
            !a.worker_panics.is_empty(),
            "rate 1/4 over 64 sites should fire somewhere"
        );
        let c = ChaosPlan::seeded(8, 4, 16, 4);
        assert_ne!(
            a.worker_panics, c.worker_panics,
            "different seeds should differ"
        );
    }
}
