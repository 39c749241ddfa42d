//! Resource-governing primitives shared by every RTLock engine.
//!
//! Long-running kernels (the SAT solver, ILP branch-and-bound, ATPG,
//! synthesis fixpoint loops, co-simulation) must never run away from the
//! caller. This crate provides the two cooperative building blocks they all
//! poll:
//!
//! * [`Deadline`] — an optional wall-clock cut-off. `Deadline::none()` is
//!   free to check and never expires, so unbounded callers pay nothing.
//! * [`CancelToken`] — a cheaply clonable flag combining an explicit
//!   cancel request (e.g. from another thread or a fault-injection harness)
//!   with a deadline. Engines poll [`CancelToken::should_stop`] at loop
//!   boundaries and unwind gracefully with partial results.
//!
//! The crate is dependency-free on purpose: it sits below `rtlock-sat`,
//! `rtlock-ilp`, `rtlock-synth` and `rtlock-atpg` in the dependency graph,
//! none of which may depend on each other.
//!
//! ```
//! use rtlock_governor::CancelToken;
//!
//! let token = CancelToken::unlimited();
//! assert!(token.should_stop().is_none());
//! token.cancel();
//! assert!(token.should_stop().is_some());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An optional wall-clock cut-off.
///
/// Copyable and cheap: `expired()` on a `Deadline::none()` is a single
/// `Option` check with no syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub const fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// A deadline `timeout` from now; `None` means unbounded.
    ///
    /// This is the shape attack configs use (`Option<Duration>` timeout
    /// fields), so they can forward directly.
    pub fn within(timeout: Option<Duration>) -> Self {
        Deadline { at: timeout.map(|t| Instant::now() + t) }
    }

    /// A deadline exactly `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline { at: Some(Instant::now() + timeout) }
    }

    /// Whether the cut-off has passed.
    pub fn expired(&self) -> bool {
        matches!(self.at, Some(d) if Instant::now() >= d)
    }

    /// The underlying instant, if bounded.
    pub fn as_instant(&self) -> Option<Instant> {
        self.at
    }

    /// Time left until the cut-off: `None` if unbounded, zero if passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines (an unbounded side never wins).
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline { at: Some(a.min(b)) },
            (Some(a), None) => Deadline { at: Some(a) },
            (None, b) => Deadline { at: b },
        }
    }

    /// True if this deadline has a cut-off at all.
    pub fn is_bounded(&self) -> bool {
        self.at.is_some()
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

/// Why a cooperative check asked the engine to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// Someone called [`CancelToken::cancel`].
    Cancelled,
}

/// A cheaply clonable cooperative-cancellation handle.
///
/// Combines an explicit cancel flag (shared across clones via an
/// `Arc<AtomicBool>`) with a [`Deadline`]. Engines poll
/// [`should_stop`](CancelToken::should_stop) at natural loop boundaries —
/// solver restarts, branch-and-bound nodes, pattern blocks — and return
/// partial results when asked to stop.
#[derive(Debug, Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Deadline,
    /// Cancel flags of every ancestor (see [`CancelToken::child`]): a
    /// cancelled ancestor cancels this token, but not vice versa.
    ancestors: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that never fires.
    pub fn unlimited() -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Deadline::none(),
            ancestors: Vec::new(),
        }
    }

    /// A token firing at `deadline` (or on explicit cancel).
    pub fn with_deadline(deadline: Deadline) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline,
            ancestors: Vec::new(),
        }
    }

    /// This token's clone, tightened to the earlier of its own deadline and
    /// `deadline`. The cancel flag stays shared with the parent.
    pub fn tightened(&self, deadline: Deadline) -> Self {
        CancelToken {
            cancelled: Arc::clone(&self.cancelled),
            deadline: self.deadline.min(deadline),
            ancestors: self.ancestors.clone(),
        }
    }

    /// A child token with its *own* cancel flag: cancelling the child does
    /// not touch this token, while cancelling this token (or any ancestor)
    /// still fires the child. The child inherits the deadline.
    ///
    /// The catalog hands one to each design's portfolio run, and the
    /// portfolio one to each member.
    pub fn child(&self) -> Self {
        let mut ancestors = self.ancestors.clone();
        ancestors.push(Arc::clone(&self.cancelled));
        CancelToken { cancelled: Arc::new(AtomicBool::new(false)), deadline: self.deadline, ancestors }
    }

    /// Requests cancellation; every clone (and child) observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was explicitly requested on this token or an
    /// ancestor (deadline ignored).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.ancestors.iter().any(|a| a.load(Ordering::Acquire))
    }

    /// Polls the token: `Some(reason)` if the engine should unwind.
    ///
    /// The explicit flag is checked first so a cancelled token reports
    /// [`StopReason::Cancelled`] even after its deadline also passed.
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline.expired() {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }

    /// The deadline component of this token.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(!d.is_bounded());
        assert_eq!(d.remaining(), None);
        assert_eq!(d.as_instant(), None);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn within_none_is_unbounded() {
        assert!(!Deadline::within(None).is_bounded());
        assert!(Deadline::within(Some(Duration::ZERO)).expired());
    }

    #[test]
    fn min_picks_earlier_bound() {
        let near = Deadline::after(Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(near.min(far).expired());
        assert!(far.min(near).expired());
        assert!(!far.min(Deadline::none()).expired());
        assert!(Deadline::none().min(near).expired());
    }

    #[test]
    fn cancel_propagates_across_clones() {
        let t = CancelToken::unlimited();
        let c = t.clone();
        assert_eq!(t.should_stop(), None);
        c.cancel();
        assert_eq!(t.should_stop(), Some(StopReason::Cancelled));
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_token_reports_expiry() {
        let t = CancelToken::with_deadline(Deadline::after(Duration::ZERO));
        assert_eq!(t.should_stop(), Some(StopReason::DeadlineExpired));
        // Explicit cancel takes precedence over expiry in the report.
        t.cancel();
        assert_eq!(t.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn child_cancellation_is_one_way() {
        let parent = CancelToken::unlimited();
        let child = parent.child();
        let grandchild = child.child();
        // Child cancel leaves the parent alive.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "child flag reaches grandchild");
        assert!(!parent.is_cancelled());
        assert_eq!(parent.should_stop(), None);
        // Parent cancel reaches every descendant.
        let child2 = parent.child();
        let grandchild2 = child2.child();
        parent.cancel();
        assert_eq!(child2.should_stop(), Some(StopReason::Cancelled));
        assert_eq!(grandchild2.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn child_inherits_deadline() {
        let parent = CancelToken::with_deadline(Deadline::after(Duration::ZERO));
        let child = parent.child();
        assert_eq!(child.should_stop(), Some(StopReason::DeadlineExpired));
    }

    #[test]
    fn tightened_shares_flag_and_narrows_deadline() {
        let parent = CancelToken::unlimited();
        let child = parent.tightened(Deadline::after(Duration::ZERO));
        assert_eq!(parent.should_stop(), None);
        assert_eq!(child.should_stop(), Some(StopReason::DeadlineExpired));
        parent.cancel();
        assert_eq!(child.should_stop(), Some(StopReason::Cancelled));
    }
}
